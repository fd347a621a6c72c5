//! The engine benchmark. One run measures one workload for a fixed time:
//!
//! ```text
//! perfbench --workload <olap-warm|olap-cold|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> --out <dir> [--rev <id>]
//! ```
//!
//! It generates the workload's documents from the seed with `datagen`,
//! drives the engine through `docstore` and `server` only, checks every
//! answer, prints a human-readable report, writes the full results to
//! `<out>/results/`, and prints one JSON line last: the end-to-end metrics
//! untraced, the per-layer metrics traced (`--trace 1`, spans written to
//! `<out>/spans/`). See README.md for the workloads and metrics.

mod calib;
mod check;
mod layers;
mod olap;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use docstore::Value;

use calib::Calibration;
use report::Report;

/// The end-to-end metrics every untraced run reports, with their units.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("read_p90_ms", "ms"),
    ("write_us_per_doc", "us"),
    ("space_amp", "ratio"),
];

/// The per-layer metrics every traced run reports, with their units. A
/// metric whose layer the workload does not exercise reads 0 (README.md
/// names the workload each one belongs to).
const PER_LAYER: [(&str, &str); 40] = [
    ("query.self_ms", "ms"),
    ("query.records_assembled", "count"),
    ("query.plan_us", "us"),
    ("storage.scan_ms", "ms"),
    ("storage.pages_read_per_query", "count"),
    ("storage.bytes_read_per_query", "bytes"),
    ("storage.pages_read_per_get", "count"),
    ("storage.leaf_cache_hit_ratio", "ratio"),
    ("storage.leaf_cache_evictions", "count"),
    ("storage.page_cache_hit_ratio", "ratio"),
    ("storage.records_assembled_per_get", "count"),
    ("storage.filtered_pre_assembly", "count"),
    ("storage.leaves_skipped", "count"),
    ("storage.get_us", "us"),
    ("encoding.decompress_mb_per_s", "MB/s"),
    ("encoding.crc_mb_per_s", "MB/s"),
    ("encoding.compress_mb_per_s", "MB/s"),
    ("columnar.shred_us_per_doc", "us"),
    ("columnar.assemble_us_per_record", "us"),
    ("schema.infer_us_per_doc", "us"),
    ("docmodel.parse_mb_per_s", "MB/s"),
    ("docmodel.print_mb_per_s", "MB/s"),
    ("lsm.flushes", "count"),
    ("lsm.merges", "count"),
    ("lsm.flush_ms", "ms"),
    ("lsm.merge_ms", "ms"),
    ("lsm.write_amp", "ratio"),
    ("lsm.maintenance_lookups", "count"),
    ("lsm.update_us_per_doc", "us"),
    ("lsm.components", "count"),
    ("lsm.stalls", "count"),
    ("lsm.stall_ms", "ms"),
    ("persist.wal_bytes_per_user_byte", "ratio"),
    ("persist.sync_ms", "ms"),
    ("server.overhead_us", "us"),
    ("server.requests", "count"),
    ("server.errors", "count"),
    ("server.generator_lag_ms", "ms"),
    ("server.backlog", "count"),
    ("trace.overhead_pct", "%"),
];

/// A run sets its workload up at least `SETUP_REPEATS` times, and more
/// while the set-ups so far took less than `SETUP_MIN` (a set-up of a few
/// ms is at the mercy of one scheduler hiccup), up to `SETUP_MAX_REPEATS`;
/// `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
const SETUP_MIN: Duration = Duration::from_secs(1);
const SETUP_MAX_REPEATS: usize = 100;

pub struct RunConfig {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Scratch directory for the run's datasets, removed at the end.
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub spans_path: PathBuf,
}

/// A seed for one input of the run, derived from the run's seed.
pub fn seed_for(seed: u64, what: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in what.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Set-up time: the median over the set-ups of a run, in seconds, and the
/// factor that scales times measured during the set-ups to the reference
/// speed (see `calib`).
pub struct SetupTime {
    pub median_s: f64,
    pub factor: f64,
    pub repeats: usize,
}

/// Run `setup` as often as `SETUP_REPEATS` and `SETUP_MIN` ask, dropping
/// all but the last result before the next starts, with a calibration
/// sample before each. The set-ups get calibration samples of their own,
/// not the run's: they take the first seconds of a run, and the host's
/// speed wanders from one second to the next. A long set-up takes more
/// samples inside it from the `Calibration` it is passed; the time they
/// take is not counted. Returns the set-up time and the last result.
pub fn timed_setups<T>(
    mut setup: impl FnMut(&mut Calibration) -> Result<T, String>,
) -> Result<(SetupTime, T), String> {
    let mut cal = Calibration::new();
    let mut times = Vec::new();
    let mut total = Duration::ZERO;
    let mut last = None;
    while times.len() < SETUP_REPEATS || (total < SETUP_MIN && times.len() < SETUP_MAX_REPEATS) {
        drop(last.take());
        cal.sample();
        let start = Instant::now();
        let spent = cal.spent();
        last = Some(setup(&mut cal)?);
        let elapsed = start.elapsed() - (cal.spent() - spent);
        total += elapsed;
        times.push(elapsed.as_secs_f64());
    }
    let time = SetupTime {
        median_s: stats::median(&times),
        factor: cal.factor(),
        repeats: times.len(),
    };
    Ok((time, last.expect("at least one setup")))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
        rev: "unknown".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--out" => args.out = PathBuf::from(value),
            "--rev" => args.rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Put the traced metrics in `PER_LAYER` order, with 0 for layers the
/// workload does not exercise; check the untraced ones are all present.
fn finish_headline(report: &mut Report) -> Result<(), String> {
    let expected: &[(&str, &str)] = if report.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    for m in &report.headline {
        if !expected
            .iter()
            .any(|(name, unit)| *name == m.name && *unit == m.unit)
        {
            return Err(format!("metric {} ({}) is not declared", m.name, m.unit));
        }
    }
    let mut ordered = Vec::new();
    for (name, unit) in expected {
        match report.headline.iter().find(|m| m.name == *name) {
            Some(m) => ordered.push(m.clone()),
            None if report.trace => {
                report.detail(&format!("{name}.not_exercised"), 1.0, "count", None);
                ordered.push(report::Metric {
                    name: name.to_string(),
                    value: 0.0,
                    unit,
                    samples: None,
                });
            }
            None => return Err(format!("end-to-end metric {name} was not measured")),
        }
    }
    report.headline = ordered;
    Ok(())
}

fn run(args: &Args) -> Result<Report, String> {
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let run_id = format!(
        "{}-seed{}-trace{}-{stamp}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let work_dir = args.out.join("work").join(&run_id);
    for sub in ["results", "spans"] {
        std::fs::create_dir_all(args.out.join(sub)).map_err(|e| e.to_string())?;
    }
    std::fs::create_dir_all(&work_dir).map_err(|e| e.to_string())?;
    let cfg = RunConfig {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        trace: args.trace,
        work_dir: work_dir.clone(),
        spans_path: args.out.join("spans").join(format!("{run_id}.jsonl")),
    };
    let mut report = Report::new(&args.workload, args.seed, args.trace);
    report.header("seed", Value::Int(args.seed as i64));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.header("nproc", Value::Int(nproc as i64));
    report.header("rev", Value::from(args.rev.as_str()));
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    report.header("profile", Value::from(profile));
    report.header("seconds", Value::Double(args.seconds));
    let outcome = match args.workload.as_str() {
        "olap-warm" => olap::olap_warm(&cfg, &mut report),
        "olap-cold" => olap::olap_cold(&cfg, &mut report),
        "serve-mixed" => serve::serve_mixed(&cfg, &mut report),
        other => Err(format!(
            "unknown workload '{other}' (olap-warm, olap-cold, serve-mixed)"
        )),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    outcome?;
    finish_headline(&mut report)?;
    let path = args.out.join("results").join(format!("{run_id}.json"));
    std::fs::write(&path, report.results_document()).map_err(|e| e.to_string())?;
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            print!("{}", report.text());
            println!("{}", report.json_line());
            std::process::exit(if report.correct() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(2);
        }
    }
}
