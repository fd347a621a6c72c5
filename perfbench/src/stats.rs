//! Latency samples, nearest-rank percentiles and geometric means.

use std::time::Duration;

/// Latency samples of one operation (one query, GETs, SETs), in
/// milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values_ms: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, elapsed: Duration) {
        self.values_ms.push(elapsed.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.values_ms.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values_ms.extend_from_slice(&other.values_ms);
    }

    /// Nearest-rank percentile `p` (0 < p <= 100), in milliseconds.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.values_ms, p)
    }
}

/// Evenly spread draws from `[0, 1)`: the Weyl sequence `start + i * step`
/// modulo 1 for an irrational `step`. Every value is equally likely, as
/// with uniform random draws, but any stretch of draws covers the range
/// evenly, so a run's mix of cheap and expensive keys does not depend on
/// the luck of its seed.
pub struct Spread {
    next: f64,
    step: f64,
}

/// Steps for [`Spread`]: the golden ratio's and the silver ratio's
/// fractional parts, so two sequences stepped together stay uncorrelated.
pub const GOLDEN_STEP: f64 = 0.618_033_988_749_894_9;
pub const SILVER_STEP: f64 = 0.414_213_562_373_095_1;

impl Spread {
    pub fn new(start: f64, step: f64) -> Spread {
        Spread {
            next: start.rem_euclid(1.0),
            step,
        }
    }

    pub fn unit(&mut self) -> f64 {
        let u = self.next;
        self.next = (self.next + self.step).fract();
        u
    }

    /// The next draw from `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.unit() * n as f64) as u64).min(n.saturating_sub(1))
    }
}

/// Nearest-rank percentile of unsorted values; 0 for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Geometric mean of positive values; 0 for none.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-9).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// `part / whole`, or `empty` when nothing was counted.
pub fn ratio(part: f64, whole: f64, empty: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        empty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn spread_covers_the_range_evenly() {
        let mut s = Spread::new(0.3, GOLDEN_STEP);
        let mut buckets = [0u32; 10];
        for _ in 0..1000 {
            buckets[s.below(10) as usize] += 1;
        }
        assert!(
            buckets.iter().all(|&b| (99..=101).contains(&b)),
            "{buckets:?}"
        );
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
