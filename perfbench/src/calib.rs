//! Host-speed calibration for the gated timings.
//!
//! On a shared machine the whole host speeds up and slows down as other
//! tenants come and go: the same warm query measured 6 ms and 14 ms on the
//! machine this benchmark was built on, minutes apart, while every query of
//! a run moved together. No statistic of raw times stays steady across such
//! swings. So through the run the benchmark samples a fixed kernel that no
//! engine code touches (before each set-up, each round of the olap loops and
//! each step and chunk of the serve-mixed schedule), and scales the gated
//! timings to a reference speed: each is multiplied by
//! `REFERENCE_MS / median kernel time`, the median over the samples taken
//! next to that work (one `Calibration` for the set-ups, one for the
//! measured phase). An engine change does not move the kernel, so it moves
//! the scaled times as much as the raw ones. A median over many samples,
//! because the host's speed also wanders by 10-30% from one second to the
//! next: a single sample next to a multi-second operation added more noise
//! than it removed.
//!
//! The kernel has two parts, because the engine's work has both kinds:
//!
//! - a compute part that fills, sorts and hashes 512 KiB, which stays in
//!   the core's own caches and tracks the core's speed;
//! - a memory part of dependent random reads over a 64 MiB buffer, 16x the
//!   per-core cache, so every read misses the core's caches and the TLB and
//!   waits on the shared last-level cache or memory, where other tenants'
//!   traffic evicts and queues it.
//!
//! A compute-only kernel under-corrected: in one fast-to-slow host
//! transition it slowed 1.85x while the memory-bound queries slowed
//! 2.2-2.5x. The two parts' medians are printed beside the gated metrics
//! (`calibration_compute_ms`, `calibration_memory_ms`), so a run shows
//! which kind of slowdown it met. Raw times are printed beside the scaled
//! ones.

use std::time::{Duration, Instant};

/// Elements the compute part fills, sorts and hashes (512 KiB).
const SORT_LEN: usize = 1 << 16;

/// Elements of the buffer the memory part reads at random (64 MiB). A
/// power of two, so an index is a mask away from a random number.
const CHASE_LEN: usize = 1 << 23;

/// Dependent random reads per memory part.
const CHASE_READS: usize = 1 << 13;

/// Kernel time, in ms, of the reference speed the gated timings are scaled
/// to: about what the kernel took on the machine the benchmark was built on
/// when it was quiet.
pub const REFERENCE_MS: f64 = 2.0;

pub struct Calibration {
    sort: Vec<u64>,
    chase: Vec<u64>,
    seed: u64,
    times_ms: Vec<f64>,
    compute_ms: Vec<f64>,
    memory_ms: Vec<f64>,
    spent: Duration,
}

/// One xorshift64 step.
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

impl Calibration {
    pub fn new() -> Calibration {
        let mut x = 0x2545_F491_4F6C_DD1D;
        let chase = (0..CHASE_LEN)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        Calibration {
            sort: vec![0; SORT_LEN],
            chase,
            seed: 0x9E37_79B9_7F4A_7C15,
            times_ms: Vec::new(),
            compute_ms: Vec::new(),
            memory_ms: Vec::new(),
            spent: Duration::ZERO,
        }
    }

    /// Fill the sort buffer from a xorshift generator, sort it and hash it.
    fn compute(&mut self) -> u64 {
        let mut x = self.seed;
        for v in self.sort.iter_mut() {
            x = xorshift(x);
            *v = x;
        }
        self.sort.sort_unstable();
        self.sort.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ v).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Read the chase buffer at random, each index derived from the value
    /// the previous read returned, so the reads cannot overlap. The step
    /// counter is mixed in so the walk never settles into a short cycle.
    fn memory(&self) -> u64 {
        let mask = CHASE_LEN as u64 - 1;
        let mut at = self.seed & mask;
        let mut hash = 0;
        for step in 0..CHASE_READS as u64 {
            let v = self.chase[at as usize];
            hash ^= v;
            at = (v ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & mask;
        }
        hash
    }

    /// Time the kernel now: the median of three runs is one sample.
    pub fn sample(&mut self) {
        let began = Instant::now();
        let mut runs = [(0.0, 0.0); 3];
        for run in &mut runs {
            self.seed = self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15) | 1;
            let start = Instant::now();
            std::hint::black_box(self.compute());
            let compute = start.elapsed().as_secs_f64() * 1e3;
            let start = Instant::now();
            std::hint::black_box(self.memory());
            let memory = start.elapsed().as_secs_f64() * 1e3;
            *run = (compute, memory);
        }
        let mid = |mut v: [f64; 3]| {
            v.sort_by(f64::total_cmp);
            v[1]
        };
        self.times_ms.push(mid(runs.map(|(c, m)| c + m)));
        self.compute_ms.push(mid(runs.map(|(c, _)| c)));
        self.memory_ms.push(mid(runs.map(|(_, m)| m)));
        self.spent += began.elapsed();
    }

    /// Wall time spent sampling so far, for timings that take samples
    /// inside them to leave out.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// The factor that scales times measured in this run to the reference
    /// speed: `REFERENCE_MS` over the median of the run's samples.
    pub fn factor(&self) -> f64 {
        REFERENCE_MS / self.median_ms()
    }

    /// Samples taken so far.
    pub fn samples(&self) -> usize {
        self.times_ms.len()
    }

    /// Median kernel time of the run so far, in ms.
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.times_ms)
    }

    /// Median times of the compute and the memory part so far, in ms.
    pub fn parts_ms(&self) -> (f64, f64) {
        (
            crate::stats::median(&self.compute_ms),
            crate::stats::median(&self.memory_ms),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_reference_over_median_kernel_time() {
        let mut cal = Calibration::new();
        for _ in 0..3 {
            cal.sample();
        }
        assert_eq!(cal.samples(), 3);
        let factor = cal.factor();
        assert!(factor > 0.0 && factor.is_finite());
        assert!((factor * cal.median_ms() - REFERENCE_MS).abs() < 1e-9);
        let (compute, memory) = cal.parts_ms();
        assert!(compute > 0.0 && memory > 0.0);
    }
}
