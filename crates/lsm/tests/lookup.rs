//! Point-lookup fleet: `LsmDataset::lookup` must return exactly what the
//! reconciled scan holds for every key, across the four layouts with and
//! without a decoded-leaf cache, on update- and delete-heavy datasets whose
//! keys are spread over several components (including keys deleted in one
//! component and re-inserted in a newer one). Also pins the secondary-index
//! maintenance lookup to the indexed column alone.

use std::collections::BTreeMap;
use std::sync::Arc;

use docmodel::{doc, Path, Value};
use lsm::{DatasetConfig, LsmDataset};
use storage::{LayoutKind, LeafCache};

#[cfg(debug_assertions)]
const KEYS: i64 = 240;
#[cfg(not(debug_assertions))]
const KEYS: i64 = 1200;

const ROUNDS: i64 = 4;

fn record(key: i64, version: i64) -> Value {
    let base = doc!({
        "id": key,
        "user": {"name": (format!("user{}", (key + version) % 13)), "followers": (key * 3 + version)},
        "text": (format!("record {key} version {version} {}", "with body text ".repeat(12))),
        "timestamp": (1_000_000 + key * 10 + version),
        "tags": [(format!("t{}", key % 5)), (format!("v{version}"))]
    });
    if (key + version) % 4 == 0 {
        // A second shape: nested arrays of objects, no text.
        doc!({
            "id": key,
            "user": {"name": (format!("user{}", key % 7))},
            "timestamp": (1_000_000 + key * 10 + version),
            "events": [{"kind": "open", "at": version}, {"kind": "close", "at": (version + 1)}]
        })
    } else {
        base
    }
}

fn config(layout: LayoutKind, leaf_cache: bool) -> DatasetConfig {
    let mut config = DatasetConfig::new("lookup", layout)
        .with_memtable_budget(8 * 1024)
        .with_page_size(4 * 1024);
    // Several mega leaves per AMAX component, so the leaf directory search
    // matters as much as it does for the paged layouts.
    config.amax.record_limit = 48;
    if leaf_cache {
        config = config.with_leaf_cache(Arc::new(LeafCache::new(256 << 10)));
    }
    config
}

/// Ingest the workload and return the expected latest state of every key
/// (`None` = deleted). Every round flushes, so versions of one key live in
/// different components; the last round stays partly in the memtable.
fn load(ds: &LsmDataset) -> BTreeMap<i64, Option<Value>> {
    let mut model = BTreeMap::new();
    for key in 0..KEYS {
        let doc = record(key, 0);
        ds.insert(doc.clone()).unwrap();
        model.insert(key, Some(doc));
    }
    ds.flush().unwrap();
    for round in 1..=ROUNDS {
        for key in 0..KEYS {
            let deleted = model[&key].is_none();
            if deleted && key % 2 == round % 2 {
                // Re-insert a key deleted in an older component.
                let doc = record(key, round);
                ds.insert(doc.clone()).unwrap();
                model.insert(key, Some(doc));
            } else if (key * 11 + round) % 7 == 0 {
                ds.delete(Value::Int(key)).unwrap();
                model.insert(key, None);
            } else if (key * 7 + round) % 3 == 0 {
                let doc = record(key, round);
                ds.insert(doc.clone()).unwrap();
                model.insert(key, Some(doc));
            }
        }
        if round < ROUNDS {
            ds.flush().unwrap();
        }
    }
    model
}

/// `doc` with every object's fields sorted by name: columnar assembly emits
/// fields in schema order, not insertion order.
fn sorted(doc: &Value) -> Value {
    match doc {
        Value::Object(fields) => {
            let mut fields: Vec<(String, Value)> =
                fields.iter().map(|(k, v)| (k.clone(), sorted(v))).collect();
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(fields)
        }
        Value::Array(items) => Value::Array(items.iter().map(sorted).collect()),
        other => other.clone(),
    }
}

/// The reconciled scan under `projection`, keyed by primary key.
fn scan_by_key(ds: &LsmDataset, projection: Option<&[Path]>) -> BTreeMap<i64, Value> {
    ds.scan(projection)
        .unwrap()
        .into_iter()
        .map(|doc| (doc.get_field("id").and_then(Value::as_int).unwrap(), doc))
        .collect()
}

#[test]
fn every_key_lookup_equals_the_reconciled_scan() {
    let nested = [Path::parse("user.name")];
    for layout in LayoutKind::ALL {
        for leaf_cache in [false, true] {
            let case = format!("{layout:?}, leaf cache {leaf_cache}");
            let ds = LsmDataset::new(config(layout, leaf_cache));
            let model = load(&ds);
            assert!(
                ds.component_count() >= 2,
                "{case}: spans several components"
            );
            let live = model.values().filter(|doc| doc.is_some()).count();
            let deleted = model.len() - live;
            assert!(deleted > 0 && live > 0, "{case}");

            for projection in [None, Some(&[][..]), Some(&nested[..])] {
                let scanned = scan_by_key(&ds, projection);
                assert_eq!(scanned.len(), live, "{case}");
                // Keys past the last one were never written.
                for key in 0..KEYS + 5 {
                    let got = ds.lookup(&Value::Int(key), projection).unwrap();
                    assert_eq!(
                        got.as_ref(),
                        scanned.get(&key),
                        "{case}: key {key} under {projection:?}"
                    );
                    if projection.is_none() {
                        let expected = model.get(&key).cloned().flatten();
                        assert_eq!(
                            got.as_ref().map(sorted),
                            expected.as_ref().map(sorted),
                            "{case}: key {key} vs the model"
                        );
                    }
                }
            }
        }
    }
}

/// Secondary-index maintenance fetches only the indexed path of the old
/// record, and the index stays exact: after a batch of updates an index
/// probe answers what a scan answers.
#[test]
fn index_maintenance_lookup_reads_only_the_indexed_column() {
    use query::{AccessPathChoice, ExecMode, Expr, PlannerOptions, Query, QueryEngine};

    let mut config = DatasetConfig::new("maintenance", LayoutKind::Amax)
        .with_memtable_budget(usize::MAX)
        .with_page_size(4 * 1024)
        .with_secondary_index(Path::parse("timestamp"));
    config.amax.record_limit = 64;
    let ds = LsmDataset::new(config);
    for key in 0..KEYS {
        ds.insert(record(key, 1)).unwrap();
    }
    ds.flush().unwrap();

    // Pick a key whose record has every column: the unprojected lookup has
    // the most megapages to read.
    let key = (0..KEYS).find(|k| (k + 1) % 4 != 0).unwrap();
    ds.cache().clear();
    ds.cache().store().reset_stats();
    assert!(ds.lookup(&Value::Int(key), None).unwrap().is_some());
    let full_pages = ds.cache().store().stats().pages_read;

    ds.cache().clear();
    ds.cache().store().reset_stats();
    let lookups_before = ds.stats().maintenance_lookups;
    ds.insert(record(key, 2)).unwrap();
    assert_eq!(ds.stats().maintenance_lookups, lookups_before + 1);
    let maintenance_pages = ds.cache().store().stats().pages_read;
    assert!(
        maintenance_pages >= 1 && maintenance_pages < full_pages,
        "maintenance lookup read {maintenance_pages} pages, a full lookup {full_pages}"
    );

    // A batch of updates (timestamps move) and deletes, half flushed.
    for key in (0..KEYS).step_by(3) {
        ds.insert(record(key, 5)).unwrap();
    }
    ds.flush().unwrap();
    for key in (0..KEYS).step_by(5) {
        if key % 2 == 0 {
            ds.delete(Value::Int(key)).unwrap();
        } else {
            ds.insert(record(key, 7)).unwrap();
        }
    }

    let (lo, hi) = (1_000_000 + KEYS * 2, 1_000_000 + KEYS * 6);
    let in_range = |doc: &Value| {
        let ts = doc.get_field("timestamp").and_then(Value::as_int).unwrap();
        (lo..=hi).contains(&ts)
    };
    let via_scan: Vec<Value> = ds
        .scan(None)
        .unwrap()
        .into_iter()
        .filter(in_range)
        .collect();
    assert!(!via_scan.is_empty());
    let via_index = ds
        .secondary_range(&Value::Int(lo), &Value::Int(hi), None)
        .unwrap();
    assert!(
        via_index.iter().all(in_range),
        "stale index entry survived an update"
    );
    assert_eq!(via_index, via_scan);

    let query = Query::select_paths(["id", "timestamp"])
        .with_filter(Expr::between("timestamp", lo, hi))
        .order_by_key();
    let answers: Vec<_> = [AccessPathChoice::ForceIndex, AccessPathChoice::ForceScan]
        .into_iter()
        .map(|choice| {
            QueryEngine::with_options(ExecMode::Compiled, PlannerOptions::with_access_path(choice))
                .execute(&ds, &query)
                .unwrap()
        })
        .collect();
    assert_eq!(answers[0].len(), via_scan.len());
    assert_eq!(answers[0], answers[1], "ForceIndex vs ForceScan");
}
