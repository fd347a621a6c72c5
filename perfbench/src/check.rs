//! Answer checking: documents compared independent of field order, and
//! query answers computed by `query::oracle` over the generated documents.

use docstore::{DatasetOptions, Datastore, Layout, Value};
use query::{oracle, Query, QueryRow};

/// `v` as the columnar layouts store it: object fields sorted by name
/// (assembly restores fields in schema order, which may differ from the
/// order they were generated in), and `null` object fields and array
/// elements left out (the shredder stores them as absent; see
/// `columnar::shred`).
pub fn canonical(v: &Value) -> Value {
    match v {
        Value::Object(fields) => {
            let mut sorted: Vec<(String, Value)> = fields
                .iter()
                .filter(|(_, v)| !v.is_null())
                .map(|(k, v)| (k.clone(), canonical(v)))
                .collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(sorted)
        }
        Value::Array(items) => Value::Array(
            items
                .iter()
                .filter(|v| !v.is_null())
                .map(canonical)
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Check a point read against the latest generated version of its key.
pub fn check_doc(key: &Value, got: Option<&Value>, expected: &Value) -> Result<(), String> {
    match got {
        None => Err(format!("GET {key}: missing, expected a document")),
        Some(doc) if canonical(doc) == canonical(expected) => Ok(()),
        Some(doc) => Err(format!("GET {key}: got {doc}, expected {expected}")),
    }
}

/// The same generated documents (their latest versions) in an in-memory
/// dataset whose memtable never flushes, so the oracle reads them without
/// going through any on-disk layout.
pub struct Reference {
    store: Datastore,
}

impl Reference {
    pub fn new(docs: impl IntoIterator<Item = Value>) -> Result<Reference, String> {
        let mut store = Datastore::new();
        let options = DatasetOptions::new(Layout::Vb).memtable_budget(usize::MAX / 4);
        store
            .create_dataset("reference", options)
            .map_err(|e| e.to_string())?;
        store
            .ingest_all("reference", docs)
            .map_err(|e| e.to_string())?;
        Ok(Reference { store })
    }

    /// The oracle's rows for `query`.
    pub fn expected(&self, query: &Query) -> Result<Vec<QueryRow>, String> {
        let dataset = self.store.dataset("reference").map_err(|e| e.to_string())?;
        let snapshots = dataset.snapshots();
        oracle::execute_batch(&snapshots[0], query).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docstore::doc;

    #[test]
    fn canonical_ignores_field_order_only() {
        let a = doc!({"id": 1, "u": {"x": 1, "y": [1, 2]}});
        let b = doc!({"u": {"y": [1, 2], "x": 1}, "id": 1});
        let c = doc!({"u": {"y": [2, 1], "x": 1}, "id": 1});
        let with_nulls = doc!({"id": 1, "n": null, "u": {"x": 1, "y": [1, null, 2]}});
        assert_eq!(canonical(&a), canonical(&b));
        assert_eq!(canonical(&a), canonical(&with_nulls));
        assert_ne!(canonical(&a), canonical(&c));
        assert!(check_doc(&Value::Int(1), Some(&b), &a).is_ok());
        assert!(check_doc(&Value::Int(1), None, &a).is_err());
    }
}
