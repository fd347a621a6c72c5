//! The analytical workloads: `olap-warm` (Table-2 queries over cached
//! in-memory AMAX datasets) and `olap-cold` (`tweet_2` in a file-backed
//! AMAX dataset ten times larger than its memory budget, with a timestamp
//! secondary index, an update batch, queries and point reads).

use std::path::Path;
use std::time::Instant;

use datagen::{generate, generate_record, DatasetKind, DatasetSpec};
use docstore::{DatasetOptions, Datastore, Layout, ShardedDataset, Value};
use query::{physical, Aggregate, ExecMode, Expr, PlanContext, PlannerOptions, Query, QueryRow};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use storage::pagestore::IoStats;

use crate::calib::Calibration;
use crate::check::{check_doc, Reference};
use crate::layers;
use crate::report::Report;
use crate::stats::{geomean, median, ratio, Samples, Spread, GOLDEN_STEP};
use crate::trace::Tracer;
use crate::{seed_for, timed_setups, RunConfig};

/// `olap-warm` record counts.
const WARM_SETS: [(DatasetKind, usize); 3] = [
    (DatasetKind::Cell, 8_000),
    (DatasetKind::Sensors, 1_500),
    (DatasetKind::Wos, 2_000),
];
/// `olap-warm` memory budget per dataset: large enough that every decoded
/// leaf stays cached after one warm-up pass.
const WARM_BUDGET: usize = 256 << 20;

/// `olap-cold` base records, updated records, memory budget and page size.
/// The page size keeps the buffer cache's 8-page floor inside the quarter
/// of the budget that funds it.
const COLD_RECORDS: usize = 8_000;
const COLD_UPDATES: usize = 24;
/// The `olap-cold` ingest runs this many times into fresh datasets and
/// reports the median.
const COLD_INGESTS: usize = 5;
const COLD_BUDGET: usize = 64 << 10;
const COLD_PAGE: usize = 2 << 10;
/// Group-commit interval of the `olap-cold` ingest.
const COLD_SYNC_EVERY: usize = 256;
/// Point reads per round of the `olap-cold` loop.
const COLD_GETS_PER_ROUND: usize = 1;

/// Documents each traced run feeds to the document-layer probes.
const PROBE_DOCS: usize = 2_000;
/// The measured loop runs at least this many rounds, whatever the clock.
const MIN_ROUNDS: usize = 3;

/// The query classes the end-to-end metrics are reported by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Count,
    Agg,
    Unnest,
    Filter,
    Interp,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Count => "count",
            Class::Agg => "agg",
            Class::Unnest => "unnest",
            Class::Filter => "filter",
            Class::Interp => "interp",
        }
    }
}

/// One measured query: where it runs, its class and its plan.
struct Bench {
    dataset: &'static str,
    name: String,
    class: Class,
    query: Query,
    mode: ExecMode,
    samples: Samples,
    /// Traced-half latencies, compared with `samples` for the overhead.
    traced: Samples,
    /// Every answer, run-length encoded: `(rows, times seen in a row)`.
    answers: Vec<(Vec<QueryRow>, u64)>,
    /// Per-execution storage counters of the traced half.
    pages: Vec<f64>,
    bytes: Vec<f64>,
    assembled: Vec<f64>,
    filtered: Vec<f64>,
    skipped: Vec<f64>,
}

impl Bench {
    fn new(dataset: &'static str, name: &str, class: Class, query: Query, mode: ExecMode) -> Bench {
        Bench {
            dataset,
            name: format!("{dataset}.{name}"),
            class,
            query,
            mode,
            samples: Samples::default(),
            traced: Samples::default(),
            answers: Vec::new(),
            pages: Vec::new(),
            bytes: Vec::new(),
            assembled: Vec::new(),
            filtered: Vec::new(),
            skipped: Vec::new(),
        }
    }

    fn record_answer(&mut self, rows: Vec<QueryRow>) {
        match self.answers.last_mut() {
            Some((last, n)) if *last == rows => *n += 1,
            _ => self.answers.push((rows, 1)),
        }
    }
}

/// The Table-2 queries of one dataset (Section 6.3.3 of the paper). They
/// are defined here, not taken from the experiments crate, so the
/// benchmark's workloads stay fixed when that crate changes; `wos` Q4
/// groups by city, where the experiments crate repeats Q3.
fn table2(kind: DatasetKind) -> Vec<(&'static str, Class, Query)> {
    let p = docstore::Path::parse;
    match kind {
        DatasetKind::Cell => vec![
            ("Q1", Class::Count, Query::count_star()),
            (
                "Q2",
                Class::Agg,
                Query::select([Aggregate::Max(p("duration"))])
                    .group_by("caller")
                    .top_k(10),
            ),
            (
                "Q3",
                Class::Filter,
                Query::count_star().with_filter(Expr::ge("duration", 600)),
            ),
        ],
        DatasetKind::Sensors => {
            let day = 24 * 60 * 60 * 1000;
            let t0 = 1_556_400_000_000i64;
            vec![
                ("Q1", Class::Count, Query::count_star()),
                ("Q2", Class::Unnest, sensors_q2()),
                (
                    "Q3",
                    Class::Unnest,
                    Query::new()
                        .with_unnest("readings")
                        .group_by("sensor_id")
                        .aggregate_element(Aggregate::Max(p("temp")))
                        .top_k(10),
                ),
                (
                    "Q4",
                    Class::Filter,
                    Query::new()
                        .with_filter(Expr::between("report_time", t0, t0 + day))
                        .with_unnest("readings")
                        .group_by("sensor_id")
                        .aggregate_element(Aggregate::Max(p("temp")))
                        .top_k(10),
                ),
            ]
        }
        DatasetKind::Wos => {
            let addresses = "static_data.fullrecord_metadata.addresses.address_name";
            vec![
                ("Q1", Class::Count, Query::count_star()),
                (
                    "Q2",
                    Class::Unnest,
                    Query::count_star()
                        .with_unnest(
                            "static_data.fullrecord_metadata.category_info.subjects.subject",
                        )
                        .group_by_element("value")
                        .top_k(10),
                ),
                (
                    "Q3",
                    Class::Unnest,
                    Query::count_star()
                        .with_unnest(addresses)
                        .group_by_element("address_spec.country")
                        .top_k(10),
                ),
                (
                    "Q4",
                    Class::Unnest,
                    Query::count_star()
                        .with_unnest(addresses)
                        .group_by_element("address_spec.city")
                        .top_k(10),
                ),
            ]
        }
        DatasetKind::Tweet1 | DatasetKind::Tweet2 => vec![
            ("Q1", Class::Count, Query::count_star()),
            (
                "Q2",
                Class::Agg,
                Query::select([Aggregate::MaxLength(p("text"))])
                    .group_by("user.name")
                    .top_k(10),
            ),
            (
                "Q3",
                Class::Filter,
                Query::count_star()
                    .with_filter(Expr::contains("entities.hashtags[*].text", "jobs"))
                    .group_by("user.name")
                    .top_k(10),
            ),
        ],
    }
}

/// Sensors Q2: the maximum reading over the unnested `readings` array.
fn sensors_q2() -> Query {
    Query::new()
        .with_unnest("readings")
        .aggregate_element(Aggregate::Max(docstore::Path::parse("temp")))
}

fn json_bytes(docs: &[Value]) -> u64 {
    docs.iter().map(|d| docmodel::to_json(d).len() as u64).sum()
}

/// Run one query, timing it as the `core.query` span. In the traced half,
/// also time `explain` and drain the cursor with the query's projection
/// (the storage share of the query), and keep its storage counters.
fn run_query(
    ds: &ShardedDataset,
    b: &mut Bench,
    tracer: &mut Tracer,
    op: u64,
    report: &mut Report,
) {
    let before = ds.io_stats();
    let (result, elapsed, span) =
        tracer.span("core.query", None, op, || ds.query(&b.query, b.mode));
    let after = ds.io_stats();
    match result {
        Ok(rows) => {
            b.record_answer(rows);
            report.op(Ok(()));
        }
        Err(e) => report.op(Err(format!("{}: {e}", b.name))),
    }
    if !tracer.enabled() {
        b.samples.push(elapsed);
        return;
    }
    b.traced.push(elapsed);
    b.pages.push((after.pages_read - before.pages_read) as f64);
    b.bytes.push((after.bytes_read - before.bytes_read) as f64);
    b.assembled
        .push((after.records_assembled - before.records_assembled) as f64);
    b.filtered
        .push((after.records_filtered_pre_assembly - before.records_filtered_pre_assembly) as f64);
    b.skipped
        .push((after.leaves_skipped - before.leaves_skipped) as f64);
    let _ = tracer.span("query.explain", None, op, || ds.explain(&b.query));
    let shards: Vec<_> = ds.shards().iter().collect();
    let projection = physical::plan(
        &b.query,
        &PlanContext::for_shards(&shards),
        &PlannerOptions::default(),
    )
    .ok()
    .and_then(|plan| plan.projection);
    let _ = tracer.span("storage.cursor_drain", span, op, || {
        ds.cursor(projection.as_deref()).map(|c| c.count())
    });
}

/// Compare every answer of every query with the oracle's.
fn check_answers(benches: &[Bench], references: &[(&'static str, Reference)], report: &mut Report) {
    for b in benches {
        let reference = &references
            .iter()
            .find(|(name, _)| *name == b.dataset)
            .expect("known")
            .1;
        let expected = match reference.expected(&b.query) {
            Ok(rows) => rows,
            Err(e) => {
                report.fail(format!("{}: oracle failed: {e}", b.name));
                continue;
            }
        };
        for (rows, n) in &b.answers {
            if *rows != expected {
                for _ in 0..*n {
                    report.fail(format!("{}: got {rows:?}, oracle {expected:?}", b.name));
                }
            }
        }
    }
}

/// Per-class p50 and p90 (geometric means over the class's queries), also
/// reported as detail metrics with each class's minimum sample count.
fn class_metrics(
    benches: &[Bench],
    classes: &[Class],
    report: &mut Report,
) -> (Vec<f64>, Vec<f64>) {
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    for &class in classes {
        let members: Vec<&Bench> = benches.iter().filter(|b| b.class == class).collect();
        let n = members.iter().map(|b| b.samples.len()).min().unwrap_or(0);
        let p50 = geomean(
            &members
                .iter()
                .map(|b| b.samples.percentile(50.0))
                .collect::<Vec<_>>(),
        );
        let p90 = geomean(
            &members
                .iter()
                .map(|b| b.samples.percentile(90.0))
                .collect::<Vec<_>>(),
        );
        report.detail(&format!("q_{}_p50_ms", class.label()), p50, "ms", Some(n));
        if class != Class::Interp {
            report.detail(&format!("q_{}_p90_ms", class.label()), p90, "ms", Some(n));
        }
        p50s.push(p50);
        tails.push(p90);
    }
    for b in benches {
        report.detail(
            &format!("{}.p50_ms", b.name),
            b.samples.percentile(50.0),
            "ms",
            Some(b.samples.len()),
        );
    }
    (p50s, tails)
}

/// Per-layer query and storage metrics from the traced half.
fn query_layer_metrics(benches: &[Bench], tracer: &Tracer, report: &mut Report) {
    let all = |f: fn(&Bench) -> &Vec<f64>| -> Vec<f64> {
        benches.iter().flat_map(|b| f(b).iter().copied()).collect()
    };
    let mean = |v: Vec<f64>| ratio(v.iter().sum(), v.len() as f64, 0.0);
    report.headline(
        "query.self_ms",
        median(&tracer.self_times_us("core.query")) / 1e3,
        "ms",
    );
    report.headline(
        "query.records_assembled",
        mean(all(|b| &b.assembled)),
        "count",
    );
    report.headline(
        "query.plan_us",
        median(&tracer.durations_us("query.explain")),
        "us",
    );
    report.headline(
        "storage.scan_ms",
        median(&tracer.durations_us("storage.cursor_drain")) / 1e3,
        "ms",
    );
    report.headline(
        "storage.pages_read_per_query",
        mean(all(|b| &b.pages)),
        "count",
    );
    report.headline(
        "storage.bytes_read_per_query",
        mean(all(|b| &b.bytes)),
        "bytes",
    );
    let filters: Vec<&Bench> = benches
        .iter()
        .filter(|b| b.class == Class::Filter)
        .collect();
    let filtered: Vec<f64> = filters
        .iter()
        .flat_map(|b| b.filtered.iter().copied())
        .collect();
    let skipped: Vec<f64> = filters
        .iter()
        .flat_map(|b| b.skipped.iter().copied())
        .collect();
    report.headline("storage.filtered_pre_assembly", mean(filtered), "count");
    report.headline("storage.leaves_skipped", mean(skipped), "count");
}

/// Cache metrics over a measured window.
fn cache_metrics(before: &IoStats, after: &IoStats, report: &mut Report) {
    let hits = (after.leaf_cache_hits - before.leaf_cache_hits) as f64;
    let misses = (after.leaf_cache_misses - before.leaf_cache_misses) as f64;
    let page_hits = (after.cache_hits - before.cache_hits) as f64;
    let page_reads = (after.pages_read - before.pages_read) as f64;
    report.headline(
        "storage.leaf_cache_hit_ratio",
        ratio(hits, hits + misses, 1.0),
        "ratio",
    );
    report.headline(
        "storage.leaf_cache_evictions",
        (after.leaf_cache_evictions - before.leaf_cache_evictions) as f64,
        "count",
    );
    report.headline(
        "storage.page_cache_hit_ratio",
        ratio(page_hits, page_hits + page_reads, 1.0),
        "ratio",
    );
}

/// LSM and persistence counters of loaded datasets, summed.
fn lsm_metrics(datasets: &[&ShardedDataset], report: &mut Report) {
    let mut flushes = 0;
    let mut merges = 0;
    let mut flush_ms = 0.0;
    let mut merge_ms = 0.0;
    let mut lookups = 0;
    let mut components = 0.0;
    let mut written = 0;
    let mut ingested = 0;
    let mut stalls = 0;
    let mut stall_us = 0;
    let mut sync_us = 0;
    for ds in datasets {
        let stats = ds.stats();
        let metrics = ds.metrics();
        flushes += stats.flushes;
        merges += stats.merges;
        flush_ms += stats.flush_time.as_secs_f64() * 1e3;
        merge_ms += stats.merge_time.as_secs_f64() * 1e3;
        lookups += stats.maintenance_lookups;
        components += metrics.gauge("lsm.components").unwrap_or(0.0);
        written += metrics.counter("storage.bytes_written");
        ingested += metrics.counter("ingest.bytes");
        sync_us += metrics.histogram("wal.sync_micros").map_or(0, |h| h.sum);
        for h in ds.health() {
            stalls += h.stalls;
            stall_us += h.stall_micros;
        }
    }
    report.headline("lsm.flushes", flushes as f64, "count");
    report.headline("lsm.merges", merges as f64, "count");
    report.headline("lsm.flush_ms", flush_ms, "ms");
    report.headline("lsm.merge_ms", merge_ms, "ms");
    report.headline(
        "lsm.write_amp",
        ratio(written as f64, ingested as f64, 0.0),
        "ratio",
    );
    report.headline("lsm.maintenance_lookups", lookups as f64, "count");
    report.headline("lsm.components", components, "count");
    report.headline("lsm.stalls", stalls as f64, "count");
    report.headline("lsm.stall_ms", stall_us as f64 / 1e3, "ms");
    report.headline("persist.sync_ms", sync_us as f64 / 1e3, "ms");
}

/// Run `round` until `deadline`, at least `MIN_ROUNDS` times.
fn until(deadline: Instant, mut round: impl FnMut()) {
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        round();
        rounds += 1;
    }
}

/// The measured loop until `deadline`, with a calibration sample before
/// each round (see `calib`). Traced, it runs untraced for
/// the first half of the time left and traced for the second, each at least
/// `MIN_ROUNDS` rounds, so the two halves give the tracing overhead.
fn measured_loop(
    deadline: Instant,
    trace: bool,
    tracer: &mut Tracer,
    cal: &mut Calibration,
    mut round: impl FnMut(&mut Tracer),
) {
    let now = Instant::now();
    let halfway = if trace {
        now + deadline.saturating_duration_since(now) / 2
    } else {
        deadline
    };
    tracer.set_enabled(false);
    until(halfway, || {
        cal.sample();
        round(tracer);
    });
    if trace {
        tracer.set_enabled(true);
        until(deadline, || {
            cal.sample();
            round(tracer);
        });
        tracer.set_enabled(false);
    }
}

/// Tracing overhead: traced over untraced median latency of the same
/// operations, geometric mean over operations, in percent.
fn overhead_pct(pairs: &[(&Samples, &Samples)]) -> f64 {
    let ratios: Vec<f64> = pairs
        .iter()
        .filter(|(plain, traced)| plain.len() > 0 && traced.len() > 0)
        .map(|(plain, traced)| traced.percentile(50.0) / plain.percentile(50.0))
        .collect();
    (geomean(&ratios) - 1.0) * 100.0
}

// ---------------------------------------------------------------------------
// olap-warm
// ---------------------------------------------------------------------------

struct WarmSetup {
    store: Datastore,
    docs: Vec<(DatasetKind, Vec<Value>)>,
    json: u64,
}

/// An empty datastore with one in-memory AMAX dataset per `WARM_SETS` entry.
fn warm_store() -> Result<Datastore, String> {
    let mut store = Datastore::new();
    for (kind, _) in WARM_SETS {
        let options = DatasetOptions::new(Layout::Amax).memory_budget(WARM_BUDGET);
        store
            .create_dataset(kind.name(), options)
            .map_err(|e| e.to_string())?;
    }
    Ok(store)
}

/// Ingest the `olap-warm` documents into `store` and flush; the seconds
/// taken, cloning the batches excluded.
fn warm_ingest(store: &Datastore, docs: &[(DatasetKind, Vec<Value>)]) -> Result<f64, String> {
    let batches: Vec<Vec<Value>> = docs.iter().map(|(_, batch)| batch.clone()).collect();
    let start = Instant::now();
    for ((kind, _), batch) in docs.iter().zip(batches) {
        let ds = store.dataset(kind.name()).map_err(|e| e.to_string())?;
        ds.ingest_batch(batch, 0).map_err(|e| e.to_string())?;
        ds.flush().map_err(|e| e.to_string())?;
    }
    Ok(start.elapsed().as_secs_f64())
}

fn warm_setup(cfg: &RunConfig) -> Result<WarmSetup, String> {
    let docs: Vec<(DatasetKind, Vec<Value>)> = WARM_SETS
        .iter()
        .map(|&(kind, records)| {
            (
                kind,
                generate(&DatasetSpec {
                    kind,
                    records,
                    seed: seed_for(cfg.seed, kind.name()),
                }),
            )
        })
        .collect();
    let json = docs.iter().map(|(_, d)| json_bytes(d)).sum();
    Ok(WarmSetup {
        store: warm_store()?,
        docs,
        json,
    })
}

pub fn olap_warm(cfg: &RunConfig, report: &mut Report) -> Result<(), String> {
    let mut cal = Calibration::new();
    let (setup_time, setup) = timed_setups(|_| warm_setup(cfg))?;
    let WarmSetup { store, docs, json } = setup;
    let mut tracer = Tracer::new(false, Instant::now());
    let mut benches = Vec::new();
    for (kind, _) in WARM_SETS {
        for (name, class, query) in table2(kind) {
            benches.push(Bench::new(
                kind.name(),
                name,
                class,
                query,
                ExecMode::Compiled,
            ));
        }
    }
    benches.push(Bench::new(
        "sensors",
        "Q2-interpreted",
        Class::Interp,
        sensors_q2(),
        ExecMode::Interpreted,
    ));

    // Measured phase: the timed ingest into the datasets the queries read,
    // one warm-up pass, then the loop. Each round of the loop also times
    // one ingest into fresh datasets, so the write cost is sampled over the
    // same stretch of time as the queries.
    let start = Instant::now();
    let deadline = start + cfg.seconds;
    let ingested: usize = docs.iter().map(|(_, batch)| batch.len()).sum();
    let first = warm_ingest(&store, &docs)?;
    let mut ingest_times = vec![first];
    let stored: u64 = docs
        .iter()
        .map(|(kind, _)| {
            store
                .dataset(kind.name())
                .map(ShardedDataset::total_stored_bytes)
                .unwrap_or(0)
        })
        .sum();
    for b in benches.iter_mut() {
        let ds = store.dataset(b.dataset).map_err(|e| e.to_string())?;
        match ds.query(&b.query, b.mode) {
            Ok(rows) => {
                b.record_answer(rows);
                report.op(Ok(()));
            }
            Err(e) => report.op(Err(format!("{}: {e}", b.name))),
        }
    }
    let totals = |store: &Datastore| -> IoStats {
        let mut t = IoStats::default();
        for (kind, _) in WARM_SETS {
            if let Ok(ds) = store.dataset(kind.name()) {
                let s = ds.io_stats();
                t.pages_read += s.pages_read;
                t.bytes_read += s.bytes_read;
                t.cache_hits += s.cache_hits;
                t.records_assembled += s.records_assembled;
                t.leaf_cache_hits += s.leaf_cache_hits;
                t.leaf_cache_misses += s.leaf_cache_misses;
                t.leaf_cache_evictions += s.leaf_cache_evictions;
            }
        }
        t
    };
    let io0 = totals(&store);
    let mut op = 0u64;
    measured_loop(deadline, cfg.trace, &mut tracer, &mut cal, |tracer| {
        for b in benches.iter_mut() {
            op += 1;
            let ds = store.dataset(b.dataset).expect("created in setup");
            run_query(ds, b, tracer, op, report);
        }
        match warm_store().and_then(|scratch| warm_ingest(&scratch, &docs)) {
            Ok(seconds) => ingest_times.push(seconds),
            Err(e) => report.op(Err(e)),
        }
    });
    let ingest_s = median(&ingest_times);
    let io1 = totals(&store);

    // Self-check: the measured phase never left the caches.
    let pages = io1.pages_read - io0.pages_read;
    let misses = io1.leaf_cache_misses - io0.leaf_cache_misses;
    report.check(
        "olap-warm reads no pages and misses no cached leaf",
        pages == 0 && misses == 0,
        format!("pages read {pages}, leaf-cache misses {misses}"),
    );

    let references = docs
        .iter()
        .map(|(kind, batch)| Reference::new(batch.iter().cloned()).map(|r| (kind.name(), r)))
        .collect::<Result<Vec<_>, String>>()?;
    check_answers(&benches, &references, report);

    report.header("json_bytes", Value::Int(json as i64));
    report.header("stored_bytes", Value::Int(stored as i64));
    report.header("memory_budget_bytes", Value::Int(WARM_BUDGET as i64));
    report.header(
        "records",
        Value::from(
            WARM_SETS
                .iter()
                .map(|(k, n)| format!("{}={n}", k.name()))
                .collect::<Vec<_>>()
                .join(","),
        ),
    );

    let ingest_rate = ingested as f64 / ingest_s;
    let space_amp = stored as f64 / json as f64;
    report.detail(
        "setup_s",
        setup_time.median_s,
        "s",
        Some(setup_time.repeats),
    );
    report.detail("ingest_docs_per_s", ingest_rate, "docs/s", Some(ingested));
    report.detail("space_amp", space_amp, "ratio", None);
    let classes = [
        Class::Count,
        Class::Agg,
        Class::Unnest,
        Class::Filter,
        Class::Interp,
    ];
    let (p50s, tails) = class_metrics(&benches, &classes, report);

    report.detail("read_p50_ms", geomean(&p50s), "ms", None);
    report.detail("read_p90_ms", geomean(&tails), "ms", None);
    if cfg.trace {
        query_layer_metrics(&benches, &tracer, report);
        cache_metrics(&io0, &io1, report);
        let datasets: Vec<&ShardedDataset> = WARM_SETS
            .iter()
            .filter_map(|(kind, _)| store.dataset(kind.name()).ok())
            .collect();
        lsm_metrics(&datasets, report);
        let pairs: Vec<(&Samples, &Samples)> =
            benches.iter().map(|b| (&b.samples, &b.traced)).collect();
        report.headline("trace.overhead_pct", overhead_pct(&pairs), "%");
        let probe: Vec<Value> = docs
            .iter()
            .flat_map(|(_, d)| d.iter().take(PROBE_DOCS / 3).cloned())
            .collect();
        layers::document_probes(&mut tracer, &probe, report);
        let mut pages = Vec::new();
        for ds in &datasets {
            pages.extend(layers::stored_pages(ds, report));
        }
        layers::encoding_probes(&mut tracer, &pages, report);
        tracer
            .write_jsonl(&cfg.spans_path)
            .map_err(|e| e.to_string())?;
    } else {
        let factor = cal.factor();
        report.gate(
            setup_time.median_s * setup_time.factor,
            geomean(&tails) * factor,
            ingest_s * 1e6 / ingested as f64 * factor,
            space_amp,
            &cal,
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// olap-cold
// ---------------------------------------------------------------------------

struct ColdSetup {
    store: Datastore,
    base: Vec<Value>,
    updates: Vec<Value>,
}

/// A fresh, empty `olap-cold` dataset in `dir`.
fn cold_store(dir: &Path) -> Result<Datastore, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut store = Datastore::new();
    let options = DatasetOptions::new(Layout::Amax)
        .memory_budget(COLD_BUDGET)
        .page_size(COLD_PAGE)
        .secondary_index(docstore::Path::parse("timestamp"))
        .background(false);
    store
        .open_dataset("tweet_2", dir, options)
        .map_err(|e| e.to_string())?;
    Ok(store)
}

fn cold_setup(cfg: &RunConfig, dir: &Path) -> Result<ColdSetup, String> {
    let spec = DatasetSpec {
        kind: DatasetKind::Tweet2,
        records: COLD_RECORDS,
        seed: seed_for(cfg.seed, "tweet_2"),
    };
    let base = generate(&spec);
    let updates = stratified_updates(spec.seed);
    Ok(ColdSetup {
        store: cold_store(dir)?,
        base,
        updates,
    })
}

/// Timings and WAL bytes of one `olap-cold` ingest.
struct ColdIngest {
    base_s: f64,
    total_s: f64,
    wal_bytes: f64,
    user_bytes: f64,
}

/// The timed `olap-cold` ingest: the base load, the update batch, and a
/// flush, group-committed every `COLD_SYNC_EVERY` documents. Traced, the
/// updates go in one at a time so each is a span and its WAL bytes are
/// measured; the group-commit cadence is the batch path's.
fn cold_ingest(
    ds: &ShardedDataset,
    base: Vec<Value>,
    updates: Vec<Value>,
    tracer: &mut Tracer,
) -> Result<ColdIngest, String> {
    let err = |e: docstore::Error| e.to_string();
    let start = Instant::now();
    tracer
        .span("core.ingest_batch", None, 0, || {
            ds.ingest_batch(base, COLD_SYNC_EVERY)
        })
        .0
        .map_err(err)?;
    let base_s = start.elapsed().as_secs_f64();
    let mut wal_bytes = 0.0;
    let mut user_bytes = 0.0;
    if tracer.enabled() {
        for (i, doc) in updates.into_iter().enumerate() {
            let user = docmodel::to_json(&doc).len() as f64;
            let m0 = ds.metrics();
            tracer
                .span("core.insert", None, 0, || ds.insert(doc))
                .0
                .map_err(err)?;
            let m1 = ds.metrics();
            if m1.counter("flush.count") == m0.counter("flush.count") {
                wal_bytes +=
                    m1.gauge("wal.bytes").unwrap_or(0.0) - m0.gauge("wal.bytes").unwrap_or(0.0);
                user_bytes += user;
            }
            if (i + 1) % COLD_SYNC_EVERY == 0 {
                ds.sync().map_err(err)?;
            }
        }
        ds.sync().map_err(err)?;
    } else {
        ds.ingest_batch(updates, COLD_SYNC_EVERY).map_err(err)?;
    }
    tracer
        .span("core.flush", None, 0, || ds.flush())
        .0
        .map_err(err)?;
    Ok(ColdIngest {
        base_s,
        total_s: start.elapsed().as_secs_f64(),
        wal_bytes,
        user_bytes,
    })
}

/// The update batch: new versions of `COLD_UPDATES` existing keys, one
/// drawn uniformly from each of `COLD_UPDATES` equal key ranges. Drawing
/// per range instead of over all keys spreads the updates over the
/// components the same way on every seed, so the cost of their index
/// maintenance lookups does not hinge on where a few random keys fall.
fn stratified_updates(seed: u64) -> Vec<Value> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
    let stride = (COLD_RECORDS / COLD_UPDATES) as i64;
    (0..COLD_UPDATES as i64)
        .map(|i| {
            let id = i * stride + rng.gen_range(0..stride);
            generate_record(DatasetKind::Tweet2, id, &mut rng)
        })
        .collect()
}

/// The latest generated version of every key (keys are `0..records`).
fn latest_versions(base: &[Value], updates: &[Value]) -> Vec<Value> {
    let mut latest = base.to_vec();
    for doc in updates {
        if let Some(Value::Int(id)) = doc.get_field("id") {
            latest[*id as usize] = doc.clone();
        }
    }
    latest
}

pub fn olap_cold(cfg: &RunConfig, report: &mut Report) -> Result<(), String> {
    let dir = cfg.work_dir.join("tweet_2");
    let mut cal = Calibration::new();
    let (setup_time, setup) = timed_setups(|_| cold_setup(cfg, &dir))?;
    let ColdSetup {
        store,
        base,
        updates,
    } = setup;
    let latest = latest_versions(&base, &updates);
    let json = json_bytes(&latest);
    let mut rng = StdRng::seed_from_u64(seed_for(cfg.seed, "olap-cold-keys"));
    let mut keys = Spread::new(rng.gen_range(0.0..1.0), GOLDEN_STEP);
    // The 1% of timestamps in the middle of the key range (`datagen` stamps
    // record `id` with `t0 + id`).
    let t0 = 1_450_000_000_000i64;
    let width = (COLD_RECORDS / 100) as i64;
    let lo = t0 + (COLD_RECORDS as i64 - width) / 2;
    let mut benches: Vec<Bench> = table2(DatasetKind::Tweet2)
        .into_iter()
        .map(|(name, class, query)| Bench::new("tweet_2", name, class, query, ExecMode::Compiled))
        .collect();
    benches.push(Bench::new(
        "tweet_2",
        "timestamp-range",
        Class::Filter,
        Query::count_star().with_filter(Expr::between("timestamp", lo, lo + width - 1)),
        ExecMode::Compiled,
    ));
    let mut tracer = Tracer::new(false, Instant::now());

    // Measured phase: the base load plus update batch into the dataset the
    // loop reads (traced, if tracing), then the mixed loop, with
    // `COLD_INGESTS - 1` more timed ingests into a scratch dataset spread
    // evenly over it, so the write cost is sampled over the same stretch of
    // time as the reads.
    let start = Instant::now();
    let deadline = start + cfg.seconds;
    let base_docs = base.len();
    let update_docs = updates.len();
    tracer.set_enabled(cfg.trace);
    let first = cold_ingest(
        store.dataset("tweet_2").map_err(|e| e.to_string())?,
        base.clone(),
        updates.clone(),
        &mut tracer,
    )?;
    tracer.set_enabled(false);
    let wal_delta = first.wal_bytes;
    let wal_user_bytes = first.user_bytes;
    let mut ingests = vec![first];
    let ds = store.dataset("tweet_2").map_err(|e| e.to_string())?;
    let stored = ds.total_stored_bytes();
    let scratch = cfg.work_dir.join("tweet_2-scratch");
    let loop_start = Instant::now();
    let loop_time = deadline.saturating_duration_since(loop_start);
    let extra = COLD_INGESTS - 1;

    let io0 = ds.io_stats();
    let mut gets = Samples::default();
    let mut traced_gets = Samples::default();
    let mut get_pages = Vec::new();
    let mut get_assembled = Vec::new();
    let mut op = 0u64;
    measured_loop(deadline, cfg.trace, &mut tracer, &mut cal, |tracer| {
        let due = loop_start + loop_time.mul_f64((ingests.len() as f64 - 0.5) / extra as f64);
        if ingests.len() <= extra && Instant::now() >= due {
            let mut untraced = Tracer::new(false, loop_start);
            let ingest = cold_store(&scratch).and_then(|s| {
                let scratch_ds = s.dataset("tweet_2").map_err(|e| e.to_string())?;
                cold_ingest(scratch_ds, base.clone(), updates.clone(), &mut untraced)
            });
            let _ = std::fs::remove_dir_all(&scratch);
            match ingest {
                Ok(i) => ingests.push(i),
                Err(e) => report.op(Err(e)),
            }
        }
        for b in benches.iter_mut() {
            op += 1;
            run_query(ds, b, tracer, op, report);
        }
        for _ in 0..COLD_GETS_PER_ROUND {
            op += 1;
            let key = Value::Int(keys.below(COLD_RECORDS as u64) as i64);
            let before = ds.io_stats();
            let (got, elapsed, _) = tracer.span("core.get", None, op, || ds.get(&key));
            let after = ds.io_stats();
            let expected = &latest[match key {
                Value::Int(k) => k as usize,
                _ => unreachable!("keys are integers"),
            }];
            report.op(match got {
                Ok(doc) => check_doc(&key, doc.as_ref(), expected),
                Err(e) => Err(format!("GET {key}: {e}")),
            });
            if tracer.enabled() {
                traced_gets.push(elapsed);
                get_pages.push((after.pages_read - before.pages_read) as f64);
                get_assembled.push((after.records_assembled - before.records_assembled) as f64);
            } else {
                gets.push(elapsed);
            }
        }
    });
    let io1 = ds.io_stats();
    let ingest_s = median(&ingests.iter().map(|i| i.total_s).collect::<Vec<_>>());
    let base_s = median(&ingests.iter().map(|i| i.base_s).collect::<Vec<_>>());

    // Self-checks: the data outgrows the budget and reads miss the cache.
    report.check(
        "olap-cold stores at least 10x its memory budget",
        stored >= 10 * COLD_BUDGET as u64,
        format!("stored {stored} bytes, budget {COLD_BUDGET}"),
    );
    let hits = (io1.leaf_cache_hits - io0.leaf_cache_hits) as f64;
    let misses = (io1.leaf_cache_misses - io0.leaf_cache_misses) as f64;
    let hit_ratio = ratio(hits, hits + misses, 1.0);
    report.check(
        "olap-cold leaf-cache hit ratio is below 1",
        hit_ratio < 1.0,
        format!("{hits} hits, {misses} misses"),
    );

    let reference = Reference::new(latest.iter().cloned())?;
    check_answers(&benches, &[("tweet_2", reference)], report);

    report.header("json_bytes", Value::Int(json as i64));
    report.header("stored_bytes", Value::Int(stored as i64));
    report.header("memory_budget_bytes", Value::Int(COLD_BUDGET as i64));
    report.header("page_size_bytes", Value::Int(COLD_PAGE as i64));
    report.header(
        "records",
        Value::from(format!("tweet_2={COLD_RECORDS}, updates={update_docs}")),
    );

    let ingested = base_docs + update_docs;
    let ingest_rate = ingested as f64 / ingest_s;
    let space_amp = stored as f64 / json as f64;
    report.detail(
        "setup_s",
        setup_time.median_s,
        "s",
        Some(setup_time.repeats),
    );
    report.detail("ingest_docs_per_s", ingest_rate, "docs/s", Some(ingested));
    report.detail("ingest_base_s", base_s, "s", Some(base_docs));
    report.detail("ingest_s", ingest_s, "s", Some(ingested));
    report.detail("space_amp", space_amp, "ratio", None);
    let classes = [Class::Count, Class::Agg, Class::Filter];
    let (mut p50s, mut tails) = class_metrics(&benches, &classes, report);
    let get_p50_ms = gets.percentile(50.0);
    let get_tail_ms = gets.percentile(90.0);
    report.detail("get_p50_us", get_p50_ms * 1e3, "us", Some(gets.len()));
    report.detail("get_p90_us", get_tail_ms * 1e3, "us", Some(gets.len()));
    report.detail(
        "get_p99_us",
        gets.percentile(99.0) * 1e3,
        "us",
        Some(gets.len()),
    );
    p50s.push(get_p50_ms);
    tails.push(get_tail_ms);

    report.detail("read_p50_ms", geomean(&p50s), "ms", None);
    report.detail("read_p90_ms", geomean(&tails), "ms", None);
    if cfg.trace {
        query_layer_metrics(&benches, &tracer, report);
        cache_metrics(&io0, &io1, report);
        lsm_metrics(&[ds], report);
        let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64, 0.0);
        report.headline("storage.pages_read_per_get", mean(&get_pages), "count");
        report.headline(
            "storage.records_assembled_per_get",
            mean(&get_assembled),
            "count",
        );
        report.headline("storage.get_us", traced_gets.percentile(50.0) * 1e3, "us");
        report.headline(
            "lsm.update_us_per_doc",
            median(&tracer.durations_us("core.insert")),
            "us",
        );
        report.headline(
            "persist.wal_bytes_per_user_byte",
            ratio(wal_delta, wal_user_bytes, 0.0),
            "ratio",
        );
        let mut pairs: Vec<(&Samples, &Samples)> =
            benches.iter().map(|b| (&b.samples, &b.traced)).collect();
        pairs.push((&gets, &traced_gets));
        report.headline("trace.overhead_pct", overhead_pct(&pairs), "%");
        let probe: Vec<Value> = latest.iter().take(PROBE_DOCS).cloned().collect();
        layers::document_probes(&mut tracer, &probe, report);
        let pages = layers::stored_pages(ds, report);
        layers::encoding_probes(&mut tracer, &pages, report);
        tracer
            .write_jsonl(&cfg.spans_path)
            .map_err(|e| e.to_string())?;
    } else {
        let factor = cal.factor();
        report.gate(
            setup_time.median_s * setup_time.factor,
            geomean(&tails) * factor,
            ingest_s * 1e6 / ingested as f64 * factor,
            space_amp,
            &cal,
        );
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
