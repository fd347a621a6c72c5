//! The versioned manifest.
//!
//! The manifest is the dataset's durable root: one small file describing the
//! dataset configuration, the latest inferred [`Schema`], the lineage of
//! on-disk components (ids, layouts, page extents, per-leaf key ranges) and
//! the next component id. A dataset directory is *defined* by its manifest:
//! recovery reads it, reopens every listed component against the page file,
//! and replays the WAL on top.
//!
//! ## Atomicity
//!
//! Each commit writes a complete manifest to `MANIFEST.tmp`, syncs it, and
//! atomically renames it over `MANIFEST`. A crash before the rename leaves
//! the previous manifest intact (new component pages become unreferenced
//! orphans in the page file — never corruption, and the orphan sweep at the
//! next open frees them); a crash after the rename leaves the new manifest
//! fully in place. The directory is then synced so the rename itself is
//! durable; if that fails the commit returns the error, so the caller keeps
//! the WAL the new manifest covers. The version counter increases with
//! every commit, and the body is CRC-guarded so a damaged manifest is
//! rejected rather than half-loaded.
//!
//! ## Format
//!
//! One format, named by the magic bytes `LSMMAN05`: the magic, a CRC-32 of
//! the body, then the body — the configuration, the next component id, the
//! schema, and every live component with its leaves. Each component and
//! each leaf carries a statistics block ([`storage::ComponentStats`]: the
//! planner's zone maps and cardinalities, and the per-leaf zone maps filter
//! pushdown skips leaves with). The block opens with a presence byte that
//! is always `1`; the reader rejects any other value, and rejects a body
//! with bytes left over after the last component, so a manifest that
//! decodes always yields complete statistics.
//!
//! A change to the layout gets a new magic, and the new reader *replaces*
//! this one: no reader for an older format is kept. Dataset directories
//! written under an older magic fail to open with "manifest magic
//! mismatch".

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use docmodel::Value;
use encoding::crc::crc32;
use encoding::{plain, varint};
use schema::{serial, Schema};
use storage::component::{ComponentDescriptor, LeafDescriptor};
use storage::stats::{ColumnStats, ComponentStats};
use storage::{LayoutKind, PageId, RowFormat};

use crate::{PersistError, Result};

/// Magic bytes opening every manifest file.
const MAGIC: &[u8; 8] = b"LSMMAN05";

/// The durable subset of the dataset configuration. Enough to reconstruct a
/// working `DatasetConfig` on [`reopen`](crate::DurableStore), so a dataset
/// directory is self-describing.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedConfig {
    /// Dataset name.
    pub name: String,
    /// Storage layout of on-disk components.
    pub layout: LayoutKind,
    /// Primary-key field name.
    pub key_field: String,
    /// Memtable budget in bytes.
    pub memtable_budget: u64,
    /// Page size of the page file (must match on reopen).
    pub page_size: u64,
    /// Buffer-cache capacity in pages.
    pub cache_pages: u64,
    /// Whether a primary-key index is maintained.
    pub primary_key_index: bool,
    /// Secondary index path (rendered with `Path`'s display syntax).
    pub secondary_index_on: Option<String>,
    /// Page-level compression.
    pub compress_pages: bool,
    /// AMAX: records per mega leaf.
    pub amax_record_limit: u64,
    /// AMAX: empty-page tolerance.
    pub amax_empty_page_tolerance: f64,
    /// Tiering policy: size ratio.
    pub policy_size_ratio: f64,
    /// Tiering policy: max mergeable components.
    pub policy_max_components: u64,
    /// Compaction strategy selector: 0 = tiered, 1 = leveled,
    /// 2 = lazy-leveled.
    pub compaction_kind: u8,
    /// Leveled/lazy-leveled: target run size in bytes.
    pub compaction_target_size: u64,
    /// Leveled/lazy-leveled: L0 run-count trigger.
    pub compaction_l0_threshold: u64,
    /// Leveled/lazy-leveled: size ratio between adjacent runs.
    pub compaction_ratio: f64,
    /// Memory budget in bytes for this dataset's share of memtables, sealed
    /// queue, page cache, and decoded-leaf cache (0 = no budget configured).
    pub memory_budget: u64,
}

/// Everything one manifest commit records.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestData {
    /// Monotonic commit version (assigned by [`ManifestStore::commit`]).
    pub version: u64,
    /// Durable dataset configuration.
    pub config: PersistedConfig,
    /// Id the next flushed/merged component will receive.
    pub next_component_id: u64,
    /// The cumulative inferred schema (column ids are positions, so every
    /// component written under any earlier schema stays readable).
    pub schema: Schema,
    /// Live components, oldest first.
    pub components: Vec<ComponentDescriptor>,
}

fn write_value(out: &mut Vec<u8>, value: &Value) {
    RowFormat::Vb.serialize(value, out);
}

fn read_value(buf: &[u8], pos: &mut usize) -> Result<Value> {
    RowFormat::Vb.deserialize(buf, pos)
}

fn write_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn read_bool(buf: &[u8], pos: &mut usize) -> Result<bool> {
    Ok(read_u8(buf, pos)? != 0)
}

fn encode_body(data: &ManifestData) -> Vec<u8> {
    let mut out = Vec::new();
    varint::write_u64(&mut out, data.version);

    let c = &data.config;
    plain::write_str(&mut out, &c.name);
    out.push(c.layout.tag());
    plain::write_str(&mut out, &c.key_field);
    varint::write_u64(&mut out, c.memtable_budget);
    varint::write_u64(&mut out, c.page_size);
    varint::write_u64(&mut out, c.cache_pages);
    write_bool(&mut out, c.primary_key_index);
    match &c.secondary_index_on {
        Some(path) => {
            write_bool(&mut out, true);
            plain::write_str(&mut out, path);
        }
        None => write_bool(&mut out, false),
    }
    write_bool(&mut out, c.compress_pages);
    varint::write_u64(&mut out, c.amax_record_limit);
    plain::write_f64(&mut out, c.amax_empty_page_tolerance);
    plain::write_f64(&mut out, c.policy_size_ratio);
    varint::write_u64(&mut out, c.policy_max_components);
    out.push(c.compaction_kind);
    varint::write_u64(&mut out, c.compaction_target_size);
    varint::write_u64(&mut out, c.compaction_l0_threshold);
    plain::write_f64(&mut out, c.compaction_ratio);
    varint::write_u64(&mut out, c.memory_budget);

    varint::write_u64(&mut out, data.next_component_id);
    serial::write_schema(&data.schema, &mut out);

    varint::write_u64(&mut out, data.components.len() as u64);
    for comp in &data.components {
        varint::write_u64(&mut out, comp.id);
        out.push(comp.layout.tag());
        varint::write_u64(&mut out, comp.record_count as u64);
        varint::write_u64(&mut out, comp.stored_bytes);
        varint::write_u64(&mut out, comp.pages.len() as u64);
        for &page in &comp.pages {
            varint::write_u64(&mut out, page);
        }
        varint::write_u64(&mut out, comp.leaves.len() as u64);
        for leaf in &comp.leaves {
            varint::write_u64(&mut out, leaf.page);
            varint::write_u64(&mut out, leaf.data_pages.len() as u64);
            for &page in &leaf.data_pages {
                varint::write_u64(&mut out, page);
            }
            write_value(&mut out, &leaf.min_key);
            write_value(&mut out, &leaf.max_key);
            varint::write_u64(&mut out, leaf.record_count as u64);
            write_stats(&mut out, &leaf.stats);
        }
        write_stats(&mut out, &comp.stats);
    }
    out
}

/// Presence byte opening every statistics block. Always written; any other
/// value marks a corrupt manifest.
const STATS_PRESENT: u8 = 1;

/// Serialize one statistics block (per component, and per leaf as its zone
/// map).
fn write_stats(out: &mut Vec<u8>, stats: &ComponentStats) {
    out.push(STATS_PRESENT);
    varint::write_u64(out, stats.live_records);
    varint::write_u64(out, stats.columns.len() as u64);
    for (path, col) in &stats.columns {
        plain::write_str(out, path);
        varint::write_u64(out, col.rows);
        varint::write_u64(out, col.values);
        match (&col.min, &col.max) {
            (Some(min), Some(max)) => {
                write_bool(out, true);
                write_value(out, min);
                write_value(out, max);
            }
            _ => write_bool(out, false),
        }
    }
}

/// Deserialize one statistics block (per component or per leaf).
fn read_stats(buf: &[u8], pos: &mut usize) -> Result<ComponentStats> {
    if read_u8(buf, pos)? != STATS_PRESENT {
        return Err(PersistError::new(
            "manifest statistics block without statistics — corrupt manifest",
        ));
    }
    let live_records = varint::read_u64(buf, pos)?;
    let column_count = varint::read_u64(buf, pos)? as usize;
    let mut columns = std::collections::BTreeMap::new();
    for _ in 0..column_count {
        let path = plain::read_str(buf, pos)?.to_string();
        let rows = varint::read_u64(buf, pos)?;
        let values = varint::read_u64(buf, pos)?;
        let (min, max) = if read_bool(buf, pos)? {
            (Some(read_value(buf, pos)?), Some(read_value(buf, pos)?))
        } else {
            (None, None)
        };
        columns.insert(path, ColumnStats { rows, values, min, max });
    }
    Ok(ComponentStats { live_records, columns })
}

fn decode_body(buf: &[u8]) -> Result<ManifestData> {
    let pos = &mut 0usize;
    let version = varint::read_u64(buf, pos)?;

    let name = plain::read_str(buf, pos)?.to_string();
    let layout = LayoutKind::from_tag(read_u8(buf, pos)?)?;
    let key_field = plain::read_str(buf, pos)?.to_string();
    let memtable_budget = varint::read_u64(buf, pos)?;
    let page_size = varint::read_u64(buf, pos)?;
    let cache_pages = varint::read_u64(buf, pos)?;
    let primary_key_index = read_bool(buf, pos)?;
    let secondary_index_on = if read_bool(buf, pos)? {
        Some(plain::read_str(buf, pos)?.to_string())
    } else {
        None
    };
    let compress_pages = read_bool(buf, pos)?;
    let amax_record_limit = varint::read_u64(buf, pos)?;
    let amax_empty_page_tolerance = plain::read_f64(buf, pos)?;
    let policy_size_ratio = plain::read_f64(buf, pos)?;
    let policy_max_components = varint::read_u64(buf, pos)?;
    let compaction_kind = read_u8(buf, pos)?;
    let compaction_target_size = varint::read_u64(buf, pos)?;
    let compaction_l0_threshold = varint::read_u64(buf, pos)?;
    let compaction_ratio = plain::read_f64(buf, pos)?;
    let memory_budget = varint::read_u64(buf, pos)?;

    let next_component_id = varint::read_u64(buf, pos)?;
    let schema = serial::read_schema(buf, pos)?;

    let component_count = varint::read_u64(buf, pos)? as usize;
    let mut components = Vec::with_capacity(component_count.min(1 << 16));
    for _ in 0..component_count {
        let id = varint::read_u64(buf, pos)?;
        let layout = LayoutKind::from_tag(read_u8(buf, pos)?)?;
        let record_count = varint::read_u64(buf, pos)? as usize;
        let stored_bytes = varint::read_u64(buf, pos)?;
        let page_count = varint::read_u64(buf, pos)? as usize;
        let mut pages: Vec<PageId> = Vec::with_capacity(page_count.min(1 << 20));
        for _ in 0..page_count {
            pages.push(varint::read_u64(buf, pos)?);
        }
        let leaf_count = varint::read_u64(buf, pos)? as usize;
        let mut leaves = Vec::with_capacity(leaf_count.min(1 << 20));
        for _ in 0..leaf_count {
            let page = varint::read_u64(buf, pos)?;
            let data_page_count = varint::read_u64(buf, pos)? as usize;
            let mut data_pages: Vec<PageId> = Vec::with_capacity(data_page_count.min(1 << 20));
            for _ in 0..data_page_count {
                data_pages.push(varint::read_u64(buf, pos)?);
            }
            let min_key = read_value(buf, pos)?;
            let max_key = read_value(buf, pos)?;
            let record_count = varint::read_u64(buf, pos)? as usize;
            leaves.push(LeafDescriptor {
                page,
                data_pages,
                min_key,
                max_key,
                record_count,
                stats: read_stats(buf, pos)?,
            });
        }
        components.push(ComponentDescriptor {
            id,
            layout,
            record_count,
            stored_bytes,
            pages,
            leaves,
            stats: read_stats(buf, pos)?,
        });
    }
    // The writer emits nothing after the last component: leftover bytes
    // mean writer and reader disagree on the layout.
    if *pos != buf.len() {
        return Err(PersistError::new(format!(
            "manifest has {} trailing bytes — corrupt manifest",
            buf.len() - *pos
        )));
    }

    Ok(ManifestData {
        version,
        config: PersistedConfig {
            name,
            layout,
            key_field,
            memtable_budget,
            page_size,
            cache_pages,
            primary_key_index,
            secondary_index_on,
            compress_pages,
            amax_record_limit,
            amax_empty_page_tolerance,
            policy_size_ratio,
            policy_max_components,
            compaction_kind,
            compaction_target_size,
            compaction_l0_threshold,
            compaction_ratio,
            memory_budget,
        },
        next_component_id,
        schema,
        components,
    })
}

fn read_u8(buf: &[u8], pos: &mut usize) -> Result<u8> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| PersistError::new("truncated manifest"))?;
    *pos += 1;
    Ok(b)
}

/// Reads and atomically commits manifests in a dataset directory.
pub struct ManifestStore {
    path: PathBuf,
    tmp_path: PathBuf,
    dir: PathBuf,
    /// Version of the last loaded or committed manifest.
    version: u64,
}

impl ManifestStore {
    /// File name of the manifest within a dataset directory.
    pub const FILE_NAME: &'static str = "MANIFEST";

    /// Open the manifest location in `dir` and load the current manifest if
    /// one exists.
    pub fn open(dir: &Path) -> Result<(ManifestStore, Option<ManifestData>)> {
        let path = dir.join(Self::FILE_NAME);
        let tmp_path = dir.join(format!("{}.tmp", Self::FILE_NAME));
        // A crash may have left a stale temp file; it was never the truth.
        let _ = std::fs::remove_file(&tmp_path);
        let mut store = ManifestStore {
            path,
            tmp_path,
            dir: dir.to_path_buf(),
            version: 0,
        };
        let data = store.load()?;
        if let Some(data) = &data {
            store.version = data.version;
        }
        Ok((store, data))
    }

    fn load(&self) -> Result<Option<ManifestData>> {
        let mut file = match File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(PersistError::new(format!(
                    "open manifest {}: {e}",
                    self.path.display()
                )))
            }
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| PersistError::new(format!("read manifest: {e}")))?;
        if bytes.len() < MAGIC.len() + 4 {
            return Err(PersistError::new("manifest too short"));
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(PersistError::new("manifest magic mismatch"));
        }
        let crc_end = MAGIC.len() + 4;
        let expected_crc = u32::from_le_bytes(bytes[MAGIC.len()..crc_end].try_into().unwrap());
        let body = &bytes[crc_end..];
        if crc32(body) != expected_crc {
            return Err(PersistError::new(
                "manifest failed its CRC check — corrupt manifest",
            ));
        }
        decode_body(body).map(Some)
    }

    /// The version of the most recently loaded or committed manifest.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Atomically commit `data` as the next manifest version. On success the
    /// new manifest is durable. On a failure before the rename (or a crash)
    /// the previous manifest is still intact; if syncing the directory after
    /// the rename fails, the new manifest is in place but may not survive a
    /// crash, so the caller must not yet drop the WAL it covers.
    pub fn commit(&mut self, mut data: ManifestData) -> Result<u64> {
        data.version = self.version + 1;
        let body = encode_body(&data);
        let mut bytes = Vec::with_capacity(MAGIC.len() + 4 + body.len());
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        bytes.extend_from_slice(&body);

        let mut tmp = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&self.tmp_path)
            .map_err(|e| PersistError::new(format!("open manifest temp: {e}")))?;
        tmp.write_all(&bytes)
            .map_err(|e| PersistError::new(format!("write manifest temp: {e}")))?;
        tmp.sync_data()
            .map_err(|e| PersistError::new(format!("sync manifest temp: {e}")))?;
        drop(tmp);
        std::fs::rename(&self.tmp_path, &self.path)
            .map_err(|e| PersistError::new(format!("rename manifest into place: {e}")))?;
        // The rename is visible now: later commits must number past it even
        // if making it durable fails below.
        self.version = data.version;
        File::open(&self.dir)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| PersistError::new(format!("sync manifest directory: {e}")))?;
        Ok(self.version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docmodel::doc;
    use schema::SchemaBuilder;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("persist-manifest-tests-{}", std::process::id()))
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_data() -> ManifestData {
        let mut builder = SchemaBuilder::new(Some("id".to_string()));
        builder.observe(&doc!({"id": 1, "user": {"name": "a"}, "tags": [1, 2]}));
        builder.observe(&doc!({"id": 2, "user": "heterogeneous"}));
        ManifestData {
            version: 0,
            config: PersistedConfig {
                name: "tweets".to_string(),
                layout: LayoutKind::Amax,
                key_field: "id".to_string(),
                memtable_budget: 1 << 20,
                page_size: 4096,
                cache_pages: storage::DEFAULT_CACHE_PAGES as u64,
                primary_key_index: true,
                secondary_index_on: Some("timestamp".to_string()),
                compress_pages: true,
                amax_record_limit: 15_000,
                amax_empty_page_tolerance: 0.2,
                policy_size_ratio: 1.2,
                policy_max_components: 5,
                compaction_kind: 1,
                compaction_target_size: 8 << 20,
                compaction_l0_threshold: 3,
                compaction_ratio: 0.75,
                memory_budget: 32 << 20,
            },
            next_component_id: 7,
            schema: builder.into_schema(),
            components: vec![ComponentDescriptor {
                id: 3,
                layout: LayoutKind::Amax,
                record_count: 123,
                stored_bytes: 4567,
                pages: vec![0, 1, 2, 5],
                leaves: vec![LeafDescriptor {
                    page: 0,
                    data_pages: vec![1, 2, 5],
                    min_key: Value::Int(0),
                    max_key: Value::Int(122),
                    record_count: 123,
                    stats: sample_stats(),
                }],
                stats: sample_stats(),
            }],
        }
    }

    fn sample_stats() -> ComponentStats {
        let mut columns = std::collections::BTreeMap::new();
        columns.insert(
            "timestamp".to_string(),
            ColumnStats {
                rows: 123,
                values: 123,
                min: Some(Value::Int(1_000)),
                max: Some(Value::Int(1_122)),
            },
        );
        columns.insert(
            "tags[*]".to_string(),
            ColumnStats { rows: 17, values: 40, min: None, max: None },
        );
        ComponentStats { live_records: 123, columns }
    }

    #[test]
    fn commit_load_roundtrip_bumps_versions() {
        let dir = temp_dir("roundtrip");
        let (mut store, loaded) = ManifestStore::open(&dir).unwrap();
        assert!(loaded.is_none());

        let data = sample_data();
        assert_eq!(store.commit(data.clone()).unwrap(), 1);
        assert_eq!(store.commit(data.clone()).unwrap(), 2);

        let (store2, loaded) = ManifestStore::open(&dir).unwrap();
        let loaded = loaded.unwrap();
        assert_eq!(store2.version(), 2);
        assert_eq!(loaded.version, 2);
        assert_eq!(loaded.config, data.config);
        assert_eq!(loaded.next_component_id, 7);
        assert_eq!(loaded.schema, data.schema);
        assert_eq!(loaded.components, data.components);
    }

    #[test]
    fn stats_roundtrip_and_absent_stats_stay_absent() {
        let dir = temp_dir("stats-roundtrip");
        let (mut store, _) = ManifestStore::open(&dir).unwrap();
        let mut data = sample_data();
        // An anti-matter-only component: its statistics have no columns,
        // and none may appear on the way back.
        data.components.push(ComponentDescriptor {
            id: 4,
            layout: LayoutKind::Vb,
            record_count: 10,
            stored_bytes: 99,
            pages: vec![7],
            leaves: Vec::new(),
            stats: ComponentStats::default(),
        });
        store.commit(data.clone()).unwrap();
        let (_, loaded) = ManifestStore::open(&dir).unwrap();
        let loaded = loaded.unwrap();
        assert_eq!(loaded.components[0].stats, sample_stats());
        assert_eq!(loaded.components[1].stats, ComponentStats::default());
    }

    #[test]
    fn leaf_zone_maps_roundtrip_and_absent_maps_stay_absent() {
        let dir = temp_dir("leaf-stats-roundtrip");
        let (mut store, _) = ManifestStore::open(&dir).unwrap();
        let mut data = sample_data();
        // A second, anti-matter-only leaf: an empty zone map stays empty.
        data.components[0].leaves.push(LeafDescriptor {
            page: 9,
            data_pages: vec![10],
            min_key: Value::Int(123),
            max_key: Value::Int(200),
            record_count: 78,
            stats: ComponentStats::default(),
        });
        store.commit(data.clone()).unwrap();
        let (_, loaded) = ManifestStore::open(&dir).unwrap();
        let leaves = &loaded.unwrap().components[0].leaves;
        assert_eq!(leaves[0].stats, sample_stats());
        assert_eq!(leaves[1].stats, ComponentStats::default());
    }

    /// The committed bytes of `sample_data()`. Pins the on-disk format: a
    /// layout change must come with a new magic (see the module docs), not
    /// with a silent edit here.
    const SAMPLE_MANIFEST_HEX: &str = concat!(
        "4c534d4d414e30356cc07e4f0106747765657473030269648080408020800201",
        "010974696d657374616d700198759a9999999999c93f333333333333f33f0501",
        "8080800403000000000000e83f80808010070102696408000302696401047573",
        "65720604746167730403010001046e616d650303030101050301020264020307",
        "03030103037bd7230400010205010003010205030003f4017b017b0207746167",
        "735b2a5d1128000974696d657374616d707b7b0103d00f03c411017b02077461",
        "67735b2a5d1128000974696d657374616d707b7b0103d00f03c411",
    );

    #[test]
    fn committed_bytes_match_the_pinned_format() {
        let dir = temp_dir("golden");
        let (mut store, _) = ManifestStore::open(&dir).unwrap();
        store.commit(sample_data()).unwrap();
        let bytes = std::fs::read(dir.join(ManifestStore::FILE_NAME)).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, SAMPLE_MANIFEST_HEX);
    }

    /// Replace the manifest body in `dir` with `body`, under a valid CRC.
    fn write_body(dir: &Path, body: &[u8]) {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&crc32(body).to_le_bytes());
        bytes.extend_from_slice(body);
        std::fs::write(dir.join(ManifestStore::FILE_NAME), bytes).unwrap();
    }

    #[test]
    fn trailing_bytes_and_missing_stats_are_rejected() {
        let dir = temp_dir("malformed-body");
        let (mut store, _) = ManifestStore::open(&dir).unwrap();
        let mut data = sample_data();
        data.components[0].stats = ComponentStats::default();
        store.commit(data).unwrap();
        let bytes = std::fs::read(dir.join(ManifestStore::FILE_NAME)).unwrap();
        let body = &bytes[MAGIC.len() + 4..];

        // One byte past the last component, CRC recomputed to match.
        let mut longer = body.to_vec();
        longer.push(0);
        write_body(&dir, &longer);
        let err = ManifestStore::open(&dir).err().unwrap();
        assert!(err.message.contains("trailing"), "{err}");

        // The last component's empty statistics block is [1, 0, 0]
        // (present, zero live records, zero columns). A lone 0 presence
        // byte in its place — a component without statistics — is corrupt.
        assert_eq!(&body[body.len() - 3..], [STATS_PRESENT, 0, 0]);
        let mut stats_less = body[..body.len() - 3].to_vec();
        stats_less.push(0);
        write_body(&dir, &stats_less);
        let err = ManifestStore::open(&dir).err().unwrap();
        assert!(err.message.contains("without statistics"), "{err}");
    }

    #[test]
    fn corrupt_manifest_is_rejected() {
        let dir = temp_dir("corrupt");
        let (mut store, _) = ManifestStore::open(&dir).unwrap();
        store.commit(sample_data()).unwrap();
        let path = dir.join(ManifestStore::FILE_NAME);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x55;
        std::fs::write(&path, &bytes).unwrap();
        let err = ManifestStore::open(&dir).err().unwrap();
        assert!(err.message.contains("CRC") || err.message.contains("magic"), "{err}");
    }

    #[test]
    fn stale_temp_file_is_ignored() {
        let dir = temp_dir("staletmp");
        let (mut store, _) = ManifestStore::open(&dir).unwrap();
        store.commit(sample_data()).unwrap();
        // Crash simulation: a half-written temp manifest left behind.
        std::fs::write(dir.join("MANIFEST.tmp"), b"half written garbage").unwrap();
        let (_, loaded) = ManifestStore::open(&dir).unwrap();
        assert!(loaded.is_some(), "temp file must not shadow the manifest");
        assert!(!dir.join("MANIFEST.tmp").exists());
    }
}
