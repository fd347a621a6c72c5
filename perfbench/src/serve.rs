//! The `serve-mixed` workload: an in-process RESP server over a durable,
//! sharded AMAX dataset preloaded with `MSET` past its memtables, driven by
//! an open-loop generator of 70% GET and 30% SET at fixed rates.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use datagen::{generate, generate_record, DatasetKind, DatasetSpec};
use docstore::{DatasetOptions, Datastore, Layout, ShardedDataset, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use server::{Frame, RespClient, Server, ServerConfig, ServerHandle};

use crate::calib::Calibration;
use crate::check::check_doc;
use crate::layers;
use crate::report::Report;
use crate::stats::{geomean, median, ratio, Samples, Spread, GOLDEN_STEP, SILVER_STEP};
use crate::trace::Tracer;
use crate::{seed_for, timed_setups, RunConfig};

/// Preloaded documents: past four times the memtables' capacity at two
/// shards (see the per-shard preload check).
const SERVE_DOCS: usize = 110_000;
const MSET_BATCH: usize = 500;
/// The preload takes a calibration sample every this many `MSET` batches
/// (about every half second; see `calib`).
const MSET_BATCHES_PER_SAMPLE: usize = 20;
/// Share of requests that are GETs; the rest are SETs of existing keys.
const GET_SHARE: f64 = 0.7;
/// The rate the latency metrics are reported at, requests per second.
const REFERENCE_RATE: f64 = 8.0;
/// The rate sweep, ascending; it stops at the first rate that misses the
/// limit, so steps above the capacity cost about one step's time.
const SWEEP_RATES: [f64; 8] = [10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1280.0];
const SWEEP_STEP: Duration = Duration::from_secs(1);
/// Share of `--seconds` the sweep may use; the reference rate gets the rest.
const SWEEP_SHARE: f64 = 0.4;
/// A rate is met when GET p99 stays within this and no backlog is left.
const GET_LIMIT_MS: f64 = 500.0;
/// The reference-rate phase runs in this many chunks, with a calibration
/// sample before each (see `calib`).
const REFERENCE_CHUNKS: usize = 10;
/// A step's requests still unsent this long after its window are abandoned
/// and counted as backlog.
const STEP_GRACE: Duration = Duration::from_millis(500);
/// Keys timed over the wire and in process for `server.overhead_us`, and
/// in process for `storage.get_us`.
const OVERHEAD_KEYS: usize = 20;
const STORAGE_PROBE_KEYS: usize = 12;
const PROBE_DOCS: usize = 2_000;

/// Client-side command counts, compared with the server's.
#[derive(Debug, Default, Clone, Copy)]
struct Sent {
    get: u64,
    set: u64,
    mset: u64,
    errors: u64,
}

impl Sent {
    fn add(&mut self, o: &Sent) {
        self.get += o.get;
        self.set += o.set;
        self.mset += o.mset;
        self.errors += o.errors;
    }
}

struct ServeSetup {
    handle: ServerHandle,
    client: RespClient,
    base: Vec<Value>,
    json: u64,
    sent: Sent,
}

fn shards() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 2)
}

fn io_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Poll `HEALTH` until no shard has maintenance pending.
fn wait_idle(client: &mut RespClient) -> Result<u64, String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut polls = 0;
    loop {
        polls += 1;
        let reply = client.health().map_err(io_err)?;
        let text = reply
            .as_text()
            .ok_or("HEALTH reply is not text")?
            .to_string();
        let busy = text
            .lines()
            .skip(1)
            .any(|l| !l.contains("pending=0") || l.contains(":busy"));
        if !text.starts_with("ok") {
            return Err(format!("server degraded: {text}"));
        }
        if !busy {
            return Ok(polls);
        }
        if Instant::now() > deadline {
            return Err(format!("maintenance still pending after 60 s: {text}"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Set up the server: generate, start, preload with `MSET` and wait for
/// maintenance to drain, taking calibration samples along the way. Pushes
/// the preload's time, in seconds and without the samples' time, to
/// `preload_s`.
fn serve_setup(
    cfg: &RunConfig,
    dir: &Path,
    cal: &mut Calibration,
    preload_s: &mut Vec<f64>,
) -> Result<ServeSetup, String> {
    let spec = DatasetSpec {
        kind: DatasetKind::Tweet2,
        records: SERVE_DOCS,
        seed: seed_for(cfg.seed, "serve-mixed"),
    };
    let base = generate(&spec);
    let texts: Vec<String> = base.iter().map(docmodel::to_json).collect();
    let keys: Vec<String> = (0..SERVE_DOCS).map(|k| k.to_string()).collect();
    let json = texts.iter().map(|t| t.len() as u64).sum();
    let _ = std::fs::remove_dir_all(dir);
    let config = ServerConfig {
        layout: Layout::Amax,
        shards: shards(),
        durability_dir: Some(dir.to_path_buf()),
        background: true,
        dataset: "tweets".to_string(),
        ..ServerConfig::default()
    };
    let handle = Server::start(config).map_err(io_err)?;
    let mut client = RespClient::connect(handle.addr()).map_err(io_err)?;
    let mut sent = Sent::default();
    let start = Instant::now();
    let spent = cal.spent();
    for (batch, chunk) in keys
        .iter()
        .zip(&texts)
        .collect::<Vec<_>>()
        .chunks(MSET_BATCH)
        .enumerate()
    {
        if batch % MSET_BATCHES_PER_SAMPLE == MSET_BATCHES_PER_SAMPLE - 1 {
            cal.sample();
        }
        let pairs: Vec<(&str, &str)> = chunk
            .iter()
            .map(|(k, t)| (k.as_str(), t.as_str()))
            .collect();
        sent.mset += 1;
        match client.mset(&pairs).map_err(io_err)? {
            Frame::Integer(n) if n as usize == pairs.len() => {}
            other => return Err(format!("MSET not acknowledged: {other:?}")),
        }
    }
    wait_idle(&mut client)?;
    preload_s.push((start.elapsed() - (cal.spent() - spent)).as_secs_f64());
    Ok(ServeSetup {
        handle,
        client,
        base,
        json,
        sent,
    })
}

/// One connection's share of a rate step.
struct Lane {
    gets: Samples,
    sets: Samples,
    lag_ms: f64,
    backlog: u64,
    sent: Sent,
    attempted: u64,
    failures: Vec<String>,
    set_bytes: u64,
    tracer: Tracer,
}

/// What one connection knows about its keys: generated base versions plus
/// its own acknowledged SETs. Connection `c` owns the keys `k % C == c`,
/// so no other connection writes them and every GET has one right answer.
struct Owned<'a> {
    base: &'a [Value],
    overrides: HashMap<i64, Value>,
}

impl Owned<'_> {
    fn latest(&self, key: i64) -> &Value {
        self.overrides.get(&key).unwrap_or(&self.base[key as usize])
    }
}

#[allow(clippy::too_many_arguments)]
fn run_lane(
    client: &mut RespClient,
    owned: &mut Owned<'_>,
    lane_index: usize,
    lanes: usize,
    rate: f64,
    window: Duration,
    start: Instant,
    seed: u64,
    tracer: Tracer,
) -> Lane {
    let mut lane = Lane {
        gets: Samples::default(),
        sets: Samples::default(),
        lag_ms: 0.0,
        backlog: 0,
        sent: Sent::default(),
        attempted: 0,
        failures: Vec::new(),
        set_bytes: 0,
        tracer,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = Spread::new(rng.gen_range(0.0..1.0), GOLDEN_STEP);
    let mut mix = Spread::new(rng.gen_range(0.0..1.0), SILVER_STEP);
    let lane_rate = rate / lanes as f64;
    let count = (window.as_secs_f64() * lane_rate).floor() as u64;
    let phase = lane_index as f64 / lanes as f64;
    let owned_keys = (SERVE_DOCS - lane_index).div_ceil(lanes) as u64;
    let give_up = start + window + STEP_GRACE;
    for j in 0..count {
        let due = start + Duration::from_secs_f64((j as f64 + phase) / lane_rate);
        let key = (keys.below(owned_keys) * lanes as u64 + lane_index as u64) as i64;
        let is_get = mix.unit() < GET_SHARE;
        let doc = (!is_get).then(|| generate_record(DatasetKind::Tweet2, key, &mut rng));
        let now = Instant::now();
        if now >= give_up {
            lane.backlog = count - j;
            break;
        }
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent_at = Instant::now();
        lane.lag_ms = lane
            .lag_ms
            .max(sent_at.saturating_duration_since(due).as_secs_f64() * 1e3);
        let key_text = key.to_string();
        lane.attempted += 1;
        let outcome = if let Some(doc) = doc {
            let text = docmodel::to_json(&doc);
            lane.sent.set += 1;
            let reply = client.set(&key_text, &text);
            let done = Instant::now();
            lane.sets.push(done - due);
            lane.tracer.record("client.set", None, j, sent_at, done);
            match reply {
                Ok(Frame::Simple(ok)) if ok == "OK" => {
                    lane.set_bytes += text.len() as u64;
                    owned.overrides.insert(key, doc);
                    Ok(())
                }
                Ok(Frame::Error(e)) => {
                    lane.sent.errors += 1;
                    Err(format!("SET {key}: error reply {e}"))
                }
                Ok(other) => Err(format!("SET {key}: {other:?}")),
                Err(e) => Err(format!("SET {key}: {e}")),
            }
        } else {
            lane.sent.get += 1;
            let reply = client.get(&key_text);
            let done = Instant::now();
            lane.gets.push(done - due);
            lane.tracer.record("client.get", None, j, sent_at, done);
            match reply {
                Ok(Frame::Bulk(bytes)) => match std::str::from_utf8(&bytes)
                    .map_err(io_err)
                    .and_then(|t| docmodel::parse_json(t).map_err(io_err))
                {
                    Ok(doc) => check_doc(&Value::Int(key), Some(&doc), owned.latest(key)),
                    Err(e) => Err(format!("GET {key}: unparsable reply: {e}")),
                },
                Ok(Frame::Null) => check_doc(&Value::Int(key), None, owned.latest(key)),
                Ok(Frame::Error(e)) => {
                    lane.sent.errors += 1;
                    Err(format!("GET {key}: error reply {e}"))
                }
                Ok(other) => Err(format!("GET {key}: {other:?}")),
                Err(e) => Err(format!("GET {key}: {e}")),
            }
        };
        if let Err(msg) = outcome {
            lane.failures.push(msg);
        }
    }
    lane
}

/// Everything one rate step measured, over all connections.
struct Step {
    rate: f64,
    gets: Samples,
    sets: Samples,
    lag_ms: f64,
    backlog: u64,
    set_bytes: u64,
}

impl Step {
    fn empty(rate: f64) -> Step {
        Step {
            rate,
            gets: Samples::default(),
            sets: Samples::default(),
            lag_ms: 0.0,
            backlog: 0,
            set_bytes: 0,
        }
    }

    /// Fold another step at the same rate into this one.
    fn absorb(&mut self, other: Step) {
        self.gets.extend(&other.gets);
        self.sets.extend(&other.sets);
        self.lag_ms = self.lag_ms.max(other.lag_ms);
        self.backlog += other.backlog;
        self.set_bytes += other.set_bytes;
    }

    fn met(&self) -> bool {
        self.backlog == 0 && self.gets.percentile(99.0) <= GET_LIMIT_MS
    }
}

#[allow(clippy::too_many_arguments)]
fn run_step(
    clients: &mut [RespClient],
    owned: &mut [Owned<'_>],
    rate: f64,
    window: Duration,
    seed: u64,
    trace: bool,
    epoch: Instant,
    report: &mut Report,
    sent: &mut Sent,
    tracer: &mut Tracer,
) -> Step {
    let lanes = clients.len();
    let start = Instant::now() + Duration::from_millis(5);
    let results: Vec<Lane> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(owned.iter_mut())
            .enumerate()
            .map(|(i, (client, own))| {
                let lane_seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let lane_tracer = Tracer::new(trace, epoch);
                scope.spawn(move || {
                    run_lane(
                        client,
                        own,
                        i,
                        lanes,
                        rate,
                        window,
                        start,
                        lane_seed,
                        lane_tracer,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut step = Step::empty(rate);
    for lane in results {
        step.gets.extend(&lane.gets);
        step.sets.extend(&lane.sets);
        step.lag_ms = step.lag_ms.max(lane.lag_ms);
        step.backlog += lane.backlog;
        step.set_bytes += lane.set_bytes;
        sent.add(&lane.sent);
        report.attempted += lane.attempted;
        for msg in lane.failures {
            report.fail(msg);
        }
        tracer.absorb(lane.tracer);
    }
    step
}

/// Counters and gauges of a `METRICS JSON` reply.
struct ServerCounters(Value);

impl ServerCounters {
    fn fetch(client: &mut RespClient) -> Result<ServerCounters, String> {
        let reply = client.metrics("JSON").map_err(io_err)?;
        let text = reply.as_text().ok_or("METRICS reply is not text")?;
        docmodel::parse_json(text)
            .map(ServerCounters)
            .map_err(io_err)
    }

    fn number(&self, section: &str, name: &str) -> f64 {
        match self.0.get_field(section).and_then(|s| s.get_field(name)) {
            Some(Value::Int(n)) => *n as f64,
            Some(Value::Double(d)) => *d,
            _ => 0.0,
        }
    }

    fn counter(&self, name: &str) -> f64 {
        self.number("counters", name)
    }

    fn gauge(&self, name: &str) -> f64 {
        self.number("gauges", name)
    }

    fn histogram_sum(&self, name: &str) -> f64 {
        match self
            .0
            .get_field("histograms")
            .and_then(|h| h.get_field(name))
            .and_then(|h| h.get_field("sum"))
        {
            Some(Value::Int(n)) => *n as f64,
            _ => 0.0,
        }
    }
}

/// Time GETs of `keys` over the wire (second of two passes), in µs.
fn wire_get_us(client: &mut RespClient, keys: &[i64], sent: &mut Sent) -> Result<f64, String> {
    let mut times = Vec::new();
    for pass in 0..2 {
        for key in keys {
            let t = Instant::now();
            sent.get += 1;
            client.get(&key.to_string()).map_err(io_err)?;
            if pass == 1 {
                times.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    Ok(median(&times))
}

/// In-process GETs of `keys` (second of two passes): median µs, mean
/// records assembled and pages read per GET.
fn local_gets(ds: &ShardedDataset, keys: &[i64]) -> Result<(f64, f64, f64), String> {
    let mut times = Vec::new();
    let mut assembled = 0.0;
    let mut pages = 0.0;
    for pass in 0..2 {
        for key in keys {
            let before = ds.io_stats();
            let t = Instant::now();
            ds.get(&Value::Int(*key)).map_err(io_err)?;
            let elapsed = t.elapsed();
            let after = ds.io_stats();
            if pass == 1 {
                times.push(elapsed.as_secs_f64() * 1e6);
                assembled += (after.records_assembled - before.records_assembled) as f64;
                pages += (after.pages_read - before.pages_read) as f64;
            }
        }
    }
    let n = keys.len() as f64;
    Ok((median(&times), assembled / n, pages / n))
}

fn stored_bytes(client: &mut RespClient) -> Result<u64, String> {
    let reply = client.info().map_err(io_err)?;
    let text = reply.as_text().ok_or("INFO reply is not text")?;
    text.lines()
        .find_map(|l| l.strip_prefix("stored_bytes:"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("INFO has no stored_bytes: {text}"))
}

pub fn serve_mixed(cfg: &RunConfig, report: &mut Report) -> Result<(), String> {
    let dir: PathBuf = cfg.work_dir.join("serve");
    let mut cal = Calibration::new();
    let mut preloads = Vec::new();
    let (setup_time, setup) = timed_setups(|cal| serve_setup(cfg, &dir, cal, &mut preloads))?;
    let preload_s = median(&preloads);
    let ServeSetup {
        handle,
        mut client,
        base,
        json,
        mut sent,
    } = setup;
    let lanes = shards();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(false, epoch);

    // Self-check: the preload went through the memtables into flushed
    // components. The wire only has the merged flush count, so this checks
    // the total; the per-shard check (every shard was sent at least four
    // memtables' worth, so every shard flushed at least twice once
    // maintenance drained) runs on the reopened dataset after the run.
    let memtable = DatasetOptions::new(Layout::Amax).memtable_budget as u64;
    let counters = ServerCounters::fetch(&mut client)?;
    let flushes = counters.counter("flush.count");
    report.check(
        "serve-mixed flushed at least 2 components per shard before measuring (in total)",
        flushes >= 2.0 * lanes as f64,
        format!("{flushes} flushes over {lanes} shards"),
    );

    // Traced: the idle server's wire GET time for the last preloaded keys,
    // which are still in the memtables, so the wire dominates.
    let overhead_keys: Vec<i64> = (SERVE_DOCS - OVERHEAD_KEYS..SERVE_DOCS)
        .map(|k| k as i64)
        .collect();
    let wire_us = if cfg.trace {
        wire_get_us(&mut client, &overhead_keys, &mut sent)?
    } else {
        0.0
    };

    let mut clients = (0..lanes)
        .map(|_| RespClient::connect(handle.addr()).map_err(io_err))
        .collect::<Result<Vec<_>, String>>()?;
    let mut owned: Vec<Owned<'_>> = (0..lanes)
        .map(|_| Owned {
            base: &base,
            overrides: HashMap::new(),
        })
        .collect();

    // Measured phase: the rate sweep, then the reference rate.
    let start = Instant::now();
    let mut steps = Vec::new();
    let mut max_rate = 0.0;
    let sweep_budget = cfg.seconds.mul_f64(SWEEP_SHARE);
    let step_seed = seed_for(cfg.seed, "serve-steps");
    for (i, rate) in SWEEP_RATES.iter().enumerate() {
        if start.elapsed() + SWEEP_STEP > sweep_budget {
            break;
        }
        cal.sample();
        let step = run_step(
            &mut clients,
            &mut owned,
            *rate,
            SWEEP_STEP,
            step_seed + i as u64,
            false,
            epoch,
            report,
            &mut sent,
            &mut tracer,
        );
        let met = step.met();
        if met {
            max_rate = *rate;
        }
        steps.push(step);
        if !met {
            break;
        }
    }
    let remaining = cfg
        .seconds
        .saturating_sub(start.elapsed())
        .max(Duration::from_secs(2));
    let ref_seed = seed_for(cfg.seed, "serve-reference");
    let reference = if cfg.trace {
        // Untraced first half, traced second half, for the overhead.
        let half = remaining / 2;
        let plain = run_step(
            &mut clients,
            &mut owned,
            REFERENCE_RATE,
            half,
            ref_seed,
            false,
            epoch,
            report,
            &mut sent,
            &mut tracer,
        );
        let before = ServerCounters::fetch(&mut client)?;
        let traced = run_step(
            &mut clients,
            &mut owned,
            REFERENCE_RATE,
            half,
            ref_seed + 1,
            true,
            epoch,
            report,
            &mut sent,
            &mut tracer,
        );
        let after = ServerCounters::fetch(&mut client)?;
        let wal = if after.counter("flush.count") == before.counter("flush.count") {
            ratio(
                after.gauge("wal.bytes") - before.gauge("wal.bytes"),
                traced.set_bytes as f64,
                0.0,
            )
        } else {
            0.0
        };
        report.headline("persist.wal_bytes_per_user_byte", wal, "ratio");
        let overhead = geomean(&[
            traced.gets.percentile(50.0) / plain.gets.percentile(50.0),
            traced.sets.percentile(50.0) / plain.sets.percentile(50.0),
        ]);
        report.headline("trace.overhead_pct", (overhead - 1.0) * 100.0, "%");
        report.headline(
            "server.generator_lag_ms",
            plain.lag_ms.max(traced.lag_ms),
            "ms",
        );
        plain
    } else {
        // In chunks with a calibration sample before each, taken while the
        // server is idle between them.
        let mut all = Step::empty(REFERENCE_RATE);
        for chunk in 0..REFERENCE_CHUNKS {
            cal.sample();
            let step = run_step(
                &mut clients,
                &mut owned,
                REFERENCE_RATE,
                remaining / REFERENCE_CHUNKS as u32,
                ref_seed + chunk as u64,
                false,
                epoch,
                report,
                &mut sent,
                &mut tracer,
            );
            all.absorb(step);
        }
        all
    };
    drop(clients);

    // Answers: the server's counts equal the client's.
    let stored = stored_bytes(&mut client)?;
    let counters = ServerCounters::fetch(&mut client)?;
    for (kind, ours) in [("get", sent.get), ("set", sent.set), ("mset", sent.mset)] {
        let theirs = counters.counter(&format!("server.requests.{kind}"));
        report.op(if theirs == ours as f64 {
            Ok(())
        } else {
            Err(format!(
                "server counted {theirs} {kind} requests, the client sent {ours}"
            ))
        });
    }
    let server_errors = counters.counter("server.errors");
    report.op(if server_errors == sent.errors as f64 {
        Ok(())
    } else {
        Err(format!(
            "server sent {server_errors} error replies, the client saw {}",
            sent.errors
        ))
    });

    // Live JSON bytes: the base, with acknowledged SETs replacing theirs.
    let mut live = json;
    for own in &owned {
        for (key, doc) in &own.overrides {
            live = live + docmodel::to_json(doc).len() as u64
                - docmodel::to_json(&base[*key as usize]).len() as u64;
        }
    }
    let space_amp = stored as f64 / live as f64;

    report.header("json_bytes", Value::Int(json as i64));
    report.header("stored_bytes", Value::Int(stored as i64));
    report.header("memtable_bytes_per_shard", Value::Int(memtable as i64));
    report.header("memory_budget_bytes", Value::Int(0));
    report.header("shards", Value::Int(lanes as i64));
    report.header("connections", Value::Int(lanes as i64));
    report.header("records", Value::from(format!("tweet_2={SERVE_DOCS}")));

    report.detail(
        "setup_s",
        setup_time.median_s,
        "s",
        Some(setup_time.repeats),
    );
    report.detail(
        "preload_docs_per_s",
        SERVE_DOCS as f64 / preload_s,
        "docs/s",
        Some(SERVE_DOCS),
    );
    report.detail("space_amp", space_amp, "ratio", None);
    let get_p50 = reference.gets.percentile(50.0);
    let get_p90 = reference.gets.percentile(90.0);
    let get_p99 = reference.gets.percentile(99.0);
    let set_p50 = reference.sets.percentile(50.0);
    report.detail(
        "get_p50_us",
        get_p50 * 1e3,
        "us",
        Some(reference.gets.len()),
    );
    report.detail(
        "get_p90_us",
        get_p90 * 1e3,
        "us",
        Some(reference.gets.len()),
    );
    report.detail(
        "get_p99_us",
        get_p99 * 1e3,
        "us",
        Some(reference.gets.len()),
    );
    report.detail(
        "set_p50_us",
        set_p50 * 1e3,
        "us",
        Some(reference.sets.len()),
    );
    report.detail(
        "set_p90_us",
        reference.sets.percentile(90.0) * 1e3,
        "us",
        Some(reference.sets.len()),
    );
    report.detail(
        "set_p99_us",
        reference.sets.percentile(99.0) * 1e3,
        "us",
        Some(reference.sets.len()),
    );
    report.detail("serve_max_rate", max_rate, "req/s", Some(steps.len()));
    report.detail("reference_rate", REFERENCE_RATE, "req/s", None);
    report.detail("reference_lag_ms", reference.lag_ms, "ms", None);
    for step in &steps {
        let r = step.rate;
        report.detail(
            &format!("step.{r}.get_p99_ms"),
            step.gets.percentile(99.0),
            "ms",
            Some(step.gets.len()),
        );
        report.detail(&format!("step.{r}.lag_ms"), step.lag_ms, "ms", None);
        report.detail(
            &format!("step.{r}.backlog"),
            step.backlog as f64,
            "count",
            None,
        );
    }

    if cfg.trace {
        report.headline(
            "server.requests",
            counters.counter("server.requests"),
            "count",
        );
        report.headline("server.errors", server_errors, "count");
        let failing = steps.iter().find(|s| !s.met());
        report.headline(
            "server.backlog",
            failing.map_or(0.0, |s| s.backlog as f64),
            "count",
        );
        report.headline("lsm.flushes", counters.counter("flush.count"), "count");
        report.headline("lsm.merges", counters.counter("merge.count"), "count");
        report.headline(
            "lsm.flush_ms",
            counters.histogram_sum("flush.duration_micros") / 1e3,
            "ms",
        );
        report.headline(
            "lsm.merge_ms",
            counters.histogram_sum("merge.duration_micros") / 1e3,
            "ms",
        );
        report.headline("lsm.write_amp", counters.gauge("amp.write"), "ratio");
        report.headline("lsm.components", counters.gauge("lsm.components"), "count");
        report.headline(
            "lsm.stalls",
            counters.counter("backpressure.stalls"),
            "count",
        );
        report.headline(
            "lsm.stall_ms",
            counters.counter("backpressure.stall_micros") / 1e3,
            "ms",
        );
        report.headline(
            "persist.sync_ms",
            counters.histogram_sum("wal.sync_micros") / 1e3,
            "ms",
        );
    }

    client.shutdown().map_err(io_err)?;
    drop(client);
    handle.join();

    let mut store = Datastore::new();
    store.reopen_dataset("tweets", &dir).map_err(io_err)?;
    let ds = store.dataset("tweets").map_err(io_err)?;

    // Self-check, per shard: the preload sent every shard at least four
    // times its memtable's capacity. A memtable seals once it reaches its
    // budget, and the preload waited for every sealed one to flush, so each
    // shard flushed at least twice before the measured phase.
    let mut routed = vec![0u64; lanes];
    for (key, doc) in base.iter().enumerate() {
        routed[ds.shard_index_for(&Value::Int(key as i64))] += doc.approx_size() as u64;
    }
    for (shard, (bytes, lsm)) in routed.iter().zip(ds.shards()).enumerate() {
        let budget = lsm.config().memtable_budget as u64;
        report.check(
            &format!("serve-mixed preload is at least 4x shard {shard}'s memtable capacity"),
            *bytes >= 4 * budget,
            format!("{bytes} bytes preloaded into a memtable of {budget} bytes"),
        );
    }

    if cfg.trace {
        // The same keys in process, on the reopened dataset: evenly spread
        // keys for the storage share of a GET, the wire probe's keys for the
        // server's overhead.
        let mut spread = Spread::new(0.5, GOLDEN_STEP);
        let probe_keys: Vec<i64> = (0..STORAGE_PROBE_KEYS)
            .map(|_| spread.below(SERVE_DOCS as u64) as i64)
            .collect();
        let (storage_us, assembled, pages) = local_gets(ds, &probe_keys)?;
        let (local_us, _, _) = local_gets(ds, &overhead_keys)?;
        report.headline("storage.get_us", storage_us, "us");
        report.headline("storage.records_assembled_per_get", assembled, "count");
        report.headline("storage.pages_read_per_get", pages, "count");
        report.headline("server.overhead_us", wire_us - local_us, "us");
        let pages = layers::stored_pages(ds, report);
        drop(store);
        let probe: Vec<Value> = base.iter().take(PROBE_DOCS).cloned().collect();
        layers::document_probes(&mut tracer, &probe, report);
        layers::encoding_probes(&mut tracer, &pages, report);
        tracer.write_jsonl(&cfg.spans_path).map_err(io_err)?;
    } else {
        drop(store);
        // The preload runs inside the set-ups, so it is scaled as they are.
        report.gate(
            setup_time.median_s * setup_time.factor,
            reference.gets.percentile(90.0) * cal.factor(),
            preload_s * 1e6 / SERVE_DOCS as f64 * setup_time.factor,
            space_amp,
            &cal,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
