//! Layer probes of the traced run: calls into the `docmodel`, `schema`,
//! `columnar` and `encoding` public functions over the workload's own
//! documents and stored pages, each timed as a span.

use std::sync::Arc;
use std::time::Duration;

use columnar::shred::shred_records;
use columnar::{Assembler, ColumnCursor};
use docstore::{ShardedDataset, Value};
use encoding::compress;
use encoding::crc::crc32;
use schema::SchemaBuilder;

use crate::report::Report;
use crate::trace::Tracer;

/// Each probe repeats its call until it has run at least this long.
const MIN_PROBE: Duration = Duration::from_millis(40);

/// Repeat `f` until `MIN_PROBE` has passed; returns calls and total time.
fn repeat(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> (u32, Duration) {
    let mut calls = 0;
    let mut total = Duration::ZERO;
    while calls == 0 || total < MIN_PROBE {
        let (_, elapsed, _) = tracer.span(name, None, 0, &mut f);
        total += elapsed;
        calls += 1;
    }
    (calls, total)
}

fn mb_per_s(bytes: usize, calls: u32, total: Duration) -> f64 {
    bytes as f64 * f64::from(calls) / 1e6 / total.as_secs_f64()
}

fn us_per_item(items: usize, calls: u32, total: Duration) -> f64 {
    total.as_secs_f64() * 1e6 / (f64::from(calls) * items.max(1) as f64)
}

/// `docmodel`, `schema` and `columnar` probes over `docs`.
pub fn document_probes(tracer: &mut Tracer, docs: &[Value], report: &mut Report) {
    let texts: Vec<String> = docs.iter().map(docmodel::to_json).collect();
    let bytes: usize = texts.iter().map(String::len).sum();

    let (calls, total) = repeat(tracer, "docmodel.to_json", || {
        for doc in docs {
            std::hint::black_box(docmodel::to_json(doc));
        }
    });
    report.headline(
        "docmodel.print_mb_per_s",
        mb_per_s(bytes, calls, total),
        "MB/s",
    );

    let mut parse_errors = 0;
    let (calls, total) = repeat(tracer, "docmodel.parse_json", || {
        parse_errors = 0;
        for text in &texts {
            if std::hint::black_box(docmodel::parse_json(text)).is_err() {
                parse_errors += 1;
            }
        }
    });
    report.headline(
        "docmodel.parse_mb_per_s",
        mb_per_s(bytes, calls, total),
        "MB/s",
    );
    report.op(if parse_errors == 0 {
        Ok(())
    } else {
        Err(format!(
            "{parse_errors} printed documents failed to parse back"
        ))
    });

    let mut schema = None;
    let (calls, total) = repeat(tracer, "schema.observe_all", || {
        let mut builder = SchemaBuilder::new(Some("id".to_string()));
        builder.observe_all(docs.iter());
        schema = Some(builder.into_schema());
    });
    report.headline(
        "schema.infer_us_per_doc",
        us_per_item(docs.len(), calls, total),
        "us",
    );
    let schema = schema.expect("the probe ran at least once");

    let mut batch = None;
    let (calls, total) = repeat(tracer, "columnar.shred_records", || {
        batch = Some(shred_records(&schema, docs));
    });
    report.headline(
        "columnar.shred_us_per_doc",
        us_per_item(docs.len(), calls, total),
        "us",
    );
    let batch = batch.expect("the probe ran at least once");

    let columns: Vec<Arc<columnar::ColumnChunk>> =
        batch.columns.iter().map(|c| Arc::new(c.clone())).collect();
    let mut assembled = 0;
    let (calls, total) = repeat(tracer, "columnar.assemble", || {
        let cursors = columns
            .iter()
            .map(|c| ColumnCursor::new(c.clone()))
            .collect();
        let mut assembler = Assembler::new(&schema, cursors, batch.record_count);
        assembled = 0;
        while let Some(record) = assembler.next_record() {
            if record.is_ok() {
                assembled += 1;
            }
        }
    });
    report.headline(
        "columnar.assemble_us_per_record",
        us_per_item(docs.len(), calls, total),
        "us",
    );
    report.op(if assembled == docs.len() {
        Ok(())
    } else {
        Err(format!(
            "assembled {assembled} of {} shredded records",
            docs.len()
        ))
    });
}

/// Every non-empty page of a dataset's shards, read through the public
/// page store (which verifies each page's CRC on the file backend). Each
/// read is one operation; a read that fails is a failed one.
pub fn stored_pages(dataset: &ShardedDataset, report: &mut Report) -> Vec<Arc<Vec<u8>>> {
    let mut pages = Vec::new();
    for (shard, lsm) in dataset.shards().iter().enumerate() {
        let store = lsm.cache().store();
        for id in 0..store.page_count() {
            match store.try_read_page(id) {
                Ok(payload) => {
                    if !payload.is_empty() {
                        pages.push(payload);
                    }
                    report.op(Ok(()));
                }
                Err(e) => report.op(Err(format!("shard {shard} page {id}: {e}"))),
            }
        }
    }
    pages
}

/// `encoding` probes over stored pages: CRC-32 over the payloads,
/// decompression of the compressed ones, and compression of their
/// decompressed contents.
pub fn encoding_probes(tracer: &mut Tracer, pages: &[Arc<Vec<u8>>], report: &mut Report) {
    let payload_bytes: usize = pages.iter().map(|p| p.len()).sum();
    let (calls, total) = repeat(tracer, "encoding.crc32", || {
        for page in pages {
            std::hint::black_box(crc32(page));
        }
    });
    report.headline(
        "encoding.crc_mb_per_s",
        mb_per_s(payload_bytes, calls, total),
        "MB/s",
    );

    let compressed: Vec<&[u8]> = pages
        .iter()
        .filter(|p| p.first() == Some(&1))
        .map(|p| &p[1..])
        .collect();
    let mut plain: Vec<Vec<u8>> = Vec::new();
    let mut decode_errors = 0;
    for bytes in &compressed {
        match compress::decompress(bytes) {
            Ok(out) => plain.push(out),
            Err(_) => decode_errors += 1,
        }
    }
    report.op(if decode_errors == 0 {
        Ok(())
    } else {
        Err(format!("{decode_errors} stored pages failed to decompress"))
    });
    let plain_bytes: usize = plain.iter().map(Vec::len).sum();
    let (calls, total) = repeat(tracer, "encoding.decompress", || {
        for bytes in &compressed {
            let _ = std::hint::black_box(compress::decompress(bytes));
        }
    });
    report.headline(
        "encoding.decompress_mb_per_s",
        mb_per_s(plain_bytes, calls, total),
        "MB/s",
    );
    let (calls, total) = repeat(tracer, "encoding.compress", || {
        for bytes in &plain {
            std::hint::black_box(compress::compress(bytes));
        }
    });
    report.headline(
        "encoding.compress_mb_per_s",
        mb_per_s(plain_bytes, calls, total),
        "MB/s",
    );
    report.detail("encoding.pages_probed", pages.len() as f64, "count", None);
}
