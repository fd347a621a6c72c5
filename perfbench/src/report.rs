//! One run's outcome: counts of attempted and failed operations, workload
//! self-checks, metrics, and the environment header, rendered as the
//! human-readable report, the results file and the final JSON line.

use docmodel::{to_json, to_json_pretty, Value};

use crate::calib::Calibration;

/// One metric value with its unit and, for timings, the sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

/// At most this many failure messages are kept (the count is exact).
const KEPT_FAILURES: usize = 20;

#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    /// `(name, held, detail)` of each workload self-check.
    pub checks: Vec<(String, bool, String)>,
    /// The metrics the final JSON line carries: the end-to-end metrics of
    /// `BENCHMARK.json` untraced, its per-layer metrics traced.
    pub headline: Vec<Metric>,
    /// The per-workload end-to-end metrics, by their own names.
    pub detail: Vec<Metric>,
    /// Environment and size header (`nproc`, build, bytes per dataset...).
    pub header: Vec<(String, Value)>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, trace: bool) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            trace,
            ..Report::default()
        }
    }

    /// Count one attempted operation and whether it succeeded.
    pub fn op(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = ok {
            self.fail(msg);
        }
    }

    /// Count a failure of an already-counted operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(msg);
        }
    }

    pub fn check(&mut self, name: &str, held: bool, detail: String) {
        self.checks.push((name.to_string(), held, detail));
    }

    pub fn headline(&mut self, name: &str, value: f64, unit: &'static str) {
        self.headline.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
        });
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.detail.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// The gated end-to-end metrics of an untraced run, timings scaled to
    /// the reference speed (see `calib`), with the run's calibration in the
    /// details so the scaling can be undone.
    pub fn gate(
        &mut self,
        setup_s: f64,
        read_p90_ms: f64,
        write_us_per_doc: f64,
        space_amp: f64,
        cal: &Calibration,
    ) {
        self.headline("setup_s", setup_s, "s");
        self.headline("read_p90_ms", read_p90_ms, "ms");
        self.headline("write_us_per_doc", write_us_per_doc, "us");
        self.headline("space_amp", space_amp, "ratio");
        self.detail("calibration_ms", cal.median_ms(), "ms", Some(cal.samples()));
        let (compute, memory) = cal.parts_ms();
        self.detail("calibration_compute_ms", compute, "ms", None);
        self.detail("calibration_memory_ms", memory, "ms", None);
    }

    pub fn header(&mut self, key: &str, value: impl Into<Value>) {
        self.header.push((key.to_string(), value.into()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|(_, held, _)| *held)
    }

    /// The human-readable report.
    pub fn text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "workload {} seed {} trace {}\n",
            self.workload,
            self.seed,
            u8::from(self.trace)
        ));
        for (key, value) in &self.header {
            out.push_str(&format!("  env {key} = {}\n", to_json(value)));
        }
        for (name, held, detail) in &self.checks {
            let verdict = if *held { "ok" } else { "FAILED" };
            out.push_str(&format!("  check {name}: {verdict} ({detail})\n"));
        }
        for m in &self.detail {
            out.push_str(&format!("  metric {} = {:.4} {}", m.name, m.value, m.unit));
            if let Some(n) = m.samples {
                out.push_str(&format!(" (n={n})"));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "  operations attempted {} failed {}\n",
            self.attempted, self.failed
        ));
        for msg in &self.failures {
            out.push_str(&format!("  failure: {msg}\n"));
        }
        out
    }

    fn metrics_object(metrics: &[Metric], with_samples: bool) -> Value {
        let mut obj = Value::empty_object();
        for m in metrics {
            let mut entry = Value::empty_object()
                .with_field("value", Value::Double(finite(m.value)))
                .with_field("unit", Value::from(m.unit));
            if with_samples {
                if let Some(n) = m.samples {
                    entry.set_field("samples", Value::Int(n as i64));
                }
            }
            obj.set_field(m.name.clone(), entry);
        }
        obj
    }

    /// The final stdout line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn json_line(&self) -> String {
        let obj = Value::empty_object()
            .with_field("correct", Value::Bool(self.correct()))
            .with_field("attempted", Value::Int(self.attempted as i64))
            .with_field("failed", Value::Int(self.failed as i64))
            .with_field("metrics", Report::metrics_object(&self.headline, false));
        to_json(&obj)
    }

    /// Everything, for the results file.
    pub fn results_document(&self) -> String {
        let mut header = Value::empty_object();
        for (key, value) in &self.header {
            header.set_field(key.clone(), value.clone());
        }
        let checks = self
            .checks
            .iter()
            .map(|(name, held, detail)| {
                Value::empty_object()
                    .with_field("name", Value::from(name.as_str()))
                    .with_field("held", Value::Bool(*held))
                    .with_field("detail", Value::from(detail.as_str()))
            })
            .collect::<Vec<_>>();
        let failures = self
            .failures
            .iter()
            .map(|f| Value::from(f.as_str()))
            .collect();
        let obj = Value::empty_object()
            .with_field("workload", Value::from(self.workload.as_str()))
            .with_field("seed", Value::Int(self.seed as i64))
            .with_field("trace", Value::Bool(self.trace))
            .with_field("header", header)
            .with_field("correct", Value::Bool(self.correct()))
            .with_field("attempted", Value::Int(self.attempted as i64))
            .with_field("failed", Value::Int(self.failed as i64))
            .with_field("failures", Value::Array(failures))
            .with_field("checks", Value::Array(checks))
            .with_field("metrics", Report::metrics_object(&self.headline, true))
            .with_field("detail", Report::metrics_object(&self.detail, true));
        to_json_pretty(&obj)
    }
}

/// JSON has no NaN or infinity; a metric that is not finite is a bug in
/// the benchmark, so it is reported as -1 where it cannot go unnoticed.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        -1.0
    }
}
