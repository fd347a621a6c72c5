//! One LSM-backed dataset partition.
//!
//! [`LsmDataset`] is the unit the facade crate and the benchmarks work with:
//! it owns the in-memory component, the stack of on-disk components (in the
//! configured layout), the cumulative inferred schema, the merge policy and
//! the optional primary-key / secondary indexes.
//!
//! Lifecycle, as in the paper:
//!
//! * inserts/upserts/deletes go to the memtable; the secondary index is kept
//!   correct by fetching the old record first (a point lookup — cheap for row
//!   layouts, linear-search-plus-decode for columnar ones, §4.6);
//! * when the memtable exceeds its budget it is *sealed* and flushed: the
//!   tuple compactor observes the flushed records to grow the inferred
//!   schema and the records are written as an on-disk component in the
//!   dataset's layout;
//! * the tiering merge policy may then schedule a *merge*, which reconciles
//!   the chosen components (newest version of each key wins, anti-matter
//!   annihilates older records) into a new component and frees the old pages.
//!
//! ## Concurrency
//!
//! All operations take `&self`; the dataset can be shared across threads
//! (writers, readers, and — with [`DatasetConfig::background`] — its own
//! flush/merge worker). The mutable state is split so readers never wait on
//! flushes or merges:
//!
//! * a small **write lock** guards the active memtable and the in-memory
//!   indexes — held only for the duration of one insert/delete (or a brief
//!   snapshot clone);
//! * the rest of the tree (sealed memtables + on-disk components) is an
//!   immutable [`TreeState`], swapped atomically behind an `RwLock<Arc<_>>`;
//!   readers grab the `Arc` and are done;
//! * a **maintenance lock** serialises flushes and merges (the fair FCFS
//!   scheduling of the paper's setup) and owns the schema builder and
//!   component id counter;
//! * the crate-private `Scheduler` coordinates the optional background
//!   worker and applies ingest backpressure when sealed memtables pile up.

use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use docmodel::{Path, Value};
use parking_lot::{Mutex, RwLock};
use persist::{CrashPoint, DurableStore, ManifestData, ManifestStore, PersistedConfig, WalRecord};
use schema::{Schema, SchemaBuilder};
use storage::amax::AmaxConfig;
use storage::component::{Component, ComponentConfig, ComponentReader, Entry};
use storage::leafcache::LeafCache;
use storage::pagestore::{BufferCache, IoStats, PageId, PageStore, DEFAULT_CACHE_PAGES};
use storage::LayoutKind;
use telemetry::{Event, EventKind, MetricsSnapshot, Telemetry};

use crate::index::{PrimaryKeyIndex, SecondaryIndex};
use crate::memtable::Memtable;
use crate::policy::CompactionSpec;
use crate::pool::{PoolHandle, Priority, WorkerPool};
use crate::scheduler::Scheduler;
use crate::snapshot::{EntryMergeCursor, SealedMemtable, Snapshot, TreeState};
use crate::Result;

/// Configuration of one dataset partition.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Dataset name (used in experiment output).
    pub name: String,
    /// Storage layout of on-disk components.
    pub layout: LayoutKind,
    /// Name of the primary-key field (must be present in every record).
    pub key_field: String,
    /// Flush the memtable once it holds roughly this many bytes.
    pub memtable_budget: usize,
    /// Page size of the simulated disk.
    pub page_size: usize,
    /// Buffer-cache capacity in pages.
    pub cache_pages: usize,
    /// Compaction strategy and its knobs (persisted in the manifest).
    pub compaction: CompactionSpec,
    /// Maintain a primary-key index to avoid point lookups for new keys.
    pub primary_key_index: bool,
    /// Maintain a secondary index on this path (e.g. `timestamp`).
    pub secondary_index_on: Option<Path>,
    /// Apply page-level compression.
    pub compress_pages: bool,
    /// AMAX-specific knobs.
    pub amax: AmaxConfig,
    /// Run flushes and merges on a background worker thread instead of
    /// blocking the inserting thread (the paper's background-job LSM
    /// lifecycle, §2.1/§6.3). Off by default: synchronous mode keeps
    /// single-threaded experiments deterministic.
    pub background: bool,
    /// With `background`: how many sealed memtables may queue before
    /// ingestion is backpressured (blocks until a flush retires one).
    pub max_sealed_memtables: usize,
    /// With `background`: submit flushes and merges to this **shared**
    /// worker pool (see [`WorkerPool`]) instead of spawning a private
    /// single-worker pool. One pool serves any number of datasets/shards
    /// with flush-before-merge priority. Runtime-only, not persisted.
    pub pool: Option<PoolHandle>,
    /// Record metrics and lifecycle events in the dataset's [`Telemetry`]
    /// registry. On by default; the benchmark's observability experiment
    /// turns it off to measure the instrumentation overhead. Runtime-only,
    /// not persisted.
    pub telemetry_enabled: bool,
    /// This dataset's slice of the process-wide memory budget, in bytes
    /// (memtables + sealed queue + page cache + decoded-leaf cache). Persisted
    /// in the manifest so a reopened dataset keeps its caching behaviour;
    /// `0` = no budget configured. The facade (`docstore`) derives the
    /// per-shard knobs from `DatasetOptions::memory_budget`; a standalone
    /// dataset with a nonzero budget and no [`DatasetConfig::leaf_cache`]
    /// derives a private leaf cache of half this slice on reopen.
    pub memory_budget: usize,
    /// Shared decoded-leaf cache ([`LeafCache`]) to read leaves through. One
    /// `Arc`'d cache is shared by every shard of a sharded dataset (and could
    /// be shared by unrelated datasets). Runtime-only, not persisted — the
    /// opener re-attaches it (or derives one from `memory_budget`).
    pub leaf_cache: Option<Arc<LeafCache>>,
}

impl DatasetConfig {
    /// A reasonable laptop-scale default for the given layout.
    pub fn new(name: impl Into<String>, layout: LayoutKind) -> DatasetConfig {
        DatasetConfig {
            name: name.into(),
            layout,
            key_field: "id".to_string(),
            memtable_budget: 4 << 20,
            page_size: 128 * 1024,
            cache_pages: DEFAULT_CACHE_PAGES,
            compaction: CompactionSpec::default(),
            primary_key_index: true,
            secondary_index_on: None,
            compress_pages: true,
            amax: AmaxConfig::default(),
            background: false,
            max_sealed_memtables: 2,
            pool: None,
            telemetry_enabled: true,
            memory_budget: 0,
            leaf_cache: None,
        }
    }

    /// Builder-style: set the primary-key field name.
    pub fn with_key_field(mut self, key: impl Into<String>) -> Self {
        self.key_field = key.into();
        self
    }

    /// Builder-style: set the memtable budget in bytes.
    pub fn with_memtable_budget(mut self, bytes: usize) -> Self {
        self.memtable_budget = bytes;
        self
    }

    /// Builder-style: set the page size in bytes.
    pub fn with_page_size(mut self, bytes: usize) -> Self {
        self.page_size = bytes;
        self
    }

    /// Builder-style: set the buffer-cache capacity in pages.
    pub fn with_cache_pages(mut self, pages: usize) -> Self {
        self.cache_pages = pages;
        self
    }

    /// Builder-style: declare a secondary index.
    pub fn with_secondary_index(mut self, path: Path) -> Self {
        self.secondary_index_on = Some(path);
        self
    }

    /// Builder-style: select the compaction strategy.
    pub fn with_compaction(mut self, compaction: CompactionSpec) -> Self {
        self.compaction = compaction;
        self
    }

    /// Builder-style: run flushes and merges on a background worker.
    pub fn with_background(mut self, background: bool) -> Self {
        self.background = background;
        self
    }

    /// Builder-style: bound the sealed-memtable queue (backpressure point).
    pub fn with_max_sealed(mut self, max: usize) -> Self {
        self.max_sealed_memtables = max.max(1);
        self
    }

    /// Builder-style: share a [`WorkerPool`] with other datasets (implies
    /// nothing unless `background` is also set).
    pub fn with_pool(mut self, pool: PoolHandle) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Builder-style: enable or disable the telemetry registry.
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.telemetry_enabled = enabled;
        self
    }

    /// Builder-style: record this dataset's memory-budget slice in bytes
    /// (persisted; see [`DatasetConfig::memory_budget`]).
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Builder-style: read decoded leaves through a shared [`LeafCache`].
    pub fn with_leaf_cache(mut self, cache: Arc<LeafCache>) -> Self {
        self.leaf_cache = Some(cache);
        self
    }

    /// The durable subset of this configuration, as recorded in manifests.
    /// Background-worker knobs are runtime-only and not persisted.
    pub fn to_persisted(&self) -> PersistedConfig {
        // The tiered knobs and the leveled knobs occupy distinct manifest
        // fields; the side not selected persists its defaults so the
        // manifest stays fully populated.
        let tiered = crate::policy::TieringPolicy::default();
        let leveled = crate::policy::LeveledPolicy::default();
        let (kind, size_ratio, max_components, target_size, l0_threshold, ratio) =
            match self.compaction {
                CompactionSpec::Tiered {
                    size_ratio,
                    max_components,
                } => (
                    0u8,
                    size_ratio,
                    max_components,
                    leveled.target_size,
                    leveled.l0_threshold,
                    leveled.ratio,
                ),
                CompactionSpec::Leveled {
                    target_size,
                    l0_threshold,
                    ratio,
                } => (
                    1u8,
                    tiered.size_ratio,
                    tiered.max_components,
                    target_size,
                    l0_threshold,
                    ratio,
                ),
                CompactionSpec::LazyLeveled {
                    target_size,
                    l0_threshold,
                    ratio,
                } => (
                    2u8,
                    tiered.size_ratio,
                    tiered.max_components,
                    target_size,
                    l0_threshold,
                    ratio,
                ),
            };
        PersistedConfig {
            name: self.name.clone(),
            layout: self.layout,
            key_field: self.key_field.clone(),
            memtable_budget: self.memtable_budget as u64,
            page_size: self.page_size as u64,
            cache_pages: self.cache_pages as u64,
            primary_key_index: self.primary_key_index,
            secondary_index_on: self.secondary_index_on.as_ref().map(|p| p.to_string()),
            compress_pages: self.compress_pages,
            amax_record_limit: self.amax.record_limit as u64,
            amax_empty_page_tolerance: self.amax.empty_page_tolerance,
            policy_size_ratio: size_ratio,
            policy_max_components: max_components as u64,
            compaction_kind: kind,
            compaction_target_size: target_size,
            compaction_l0_threshold: l0_threshold as u64,
            compaction_ratio: ratio,
            memory_budget: self.memory_budget as u64,
        }
    }

    /// Reconstruct a configuration from a manifest (the inverse of
    /// [`DatasetConfig::to_persisted`]).
    pub fn from_persisted(persisted: &PersistedConfig) -> DatasetConfig {
        DatasetConfig {
            name: persisted.name.clone(),
            layout: persisted.layout,
            key_field: persisted.key_field.clone(),
            memtable_budget: persisted.memtable_budget as usize,
            page_size: persisted.page_size as usize,
            cache_pages: persisted.cache_pages as usize,
            compaction: match persisted.compaction_kind {
                1 => CompactionSpec::Leveled {
                    target_size: persisted.compaction_target_size,
                    l0_threshold: persisted.compaction_l0_threshold as usize,
                    ratio: persisted.compaction_ratio,
                },
                2 => CompactionSpec::LazyLeveled {
                    target_size: persisted.compaction_target_size,
                    l0_threshold: persisted.compaction_l0_threshold as usize,
                    ratio: persisted.compaction_ratio,
                },
                // Kind 0 and any unknown kind: tiered.
                _ => CompactionSpec::Tiered {
                    size_ratio: persisted.policy_size_ratio,
                    max_components: persisted.policy_max_components as usize,
                },
            },
            primary_key_index: persisted.primary_key_index,
            secondary_index_on: persisted
                .secondary_index_on
                .as_deref()
                .map(Path::parse),
            compress_pages: persisted.compress_pages,
            amax: AmaxConfig {
                record_limit: persisted.amax_record_limit as usize,
                empty_page_tolerance: persisted.amax_empty_page_tolerance,
            },
            background: false,
            max_sealed_memtables: 2,
            pool: None,
            telemetry_enabled: true,
            memory_budget: persisted.memory_budget as usize,
            leaf_cache: None,
        }
    }
}

/// State of a dataset's flush/merge worker, as reported by
/// [`LsmDataset::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Synchronous mode: flushes and merges run inline on the writing
    /// thread; there is no worker to be unhealthy.
    Inline,
    /// The background worker is waiting for work.
    Idle,
    /// The background worker is processing (or has signalled work pending).
    Busy,
    /// A background flush/merge failed; the error is parked and every write
    /// will surface it until an explicit `flush()` consumes it for retry.
    Failed,
}

/// Point-in-time health of one dataset partition (see
/// [`LsmDataset::health`]).
#[derive(Debug, Clone)]
pub struct DatasetHealth {
    /// Worker state.
    pub worker: WorkerState,
    /// Most recent background error, from the parked failure or the
    /// telemetry event ring.
    pub last_error: Option<String>,
    /// Sealed memtables queued for flushing (pending maintenance depth).
    pub pending_maintenance: usize,
    /// Ingest stalls caused by backpressure so far.
    pub stalls: u64,
    /// Total time writers spent stalled, in microseconds.
    pub stall_micros: u64,
}

/// Counters describing ingestion activity.
#[derive(Debug, Default, Clone, Copy)]
pub struct IngestStats {
    /// Records inserted or upserted.
    pub records_ingested: u64,
    /// Deletes issued.
    pub deletes: u64,
    /// Number of flush operations.
    pub flushes: u64,
    /// Number of merge operations.
    pub merges: u64,
    /// Point lookups performed to maintain the secondary index.
    pub maintenance_lookups: u64,
    /// Wall-clock time spent in flushes.
    pub flush_time: Duration,
    /// Wall-clock time spent in merges.
    pub merge_time: Duration,
}

impl IngestStats {
    /// Combine counters from several shards/partitions.
    pub fn merged_with(mut self, other: &IngestStats) -> IngestStats {
        self.records_ingested += other.records_ingested;
        self.deletes += other.deletes;
        self.flushes += other.flushes;
        self.merges += other.merges;
        self.maintenance_lookups += other.maintenance_lookups;
        self.flush_time += other.flush_time;
        self.merge_time += other.merge_time;
        self
    }
}

/// Outcome of one [`LsmDataset::reclaim_space`] call (summed over its
/// passes).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReclaimReport {
    /// Components rewritten into lower page slots.
    pub components_rewritten: usize,
    /// Pages copied (byte-identically) to lower slots.
    pub pages_moved: u64,
    /// Page slots released back to the operating system — the page file
    /// shrank by this many pages.
    pub pages_reclaimed: u64,
}

/// State guarded by the write lock: the active memtable and the in-memory
/// indexes maintained on the ingest path.
struct WriteState {
    memtable: Memtable,
    pk_index: PrimaryKeyIndex,
    secondary: Option<SecondaryIndex>,
}

/// State guarded by the maintenance lock: everything a flush or merge
/// mutates besides the published tree.
struct MaintState {
    schema_builder: SchemaBuilder,
    next_component_id: u64,
}

/// The shared core of a dataset (everything except pool-thread ownership).
struct DatasetCore {
    config: DatasetConfig,
    cache: BufferCache,
    durable: Option<Arc<DurableStore>>,
    write: Mutex<WriteState>,
    tree: RwLock<Arc<TreeState>>,
    maint: Mutex<MaintState>,
    stats: Mutex<IngestStats>,
    sched: Scheduler,
    telemetry: Arc<Telemetry>,
    /// Where background rounds run (`None` in synchronous mode). Holds no
    /// threads — pool tasks capture `self_ref`, so a queued task for a
    /// dropped dataset degenerates to a no-op.
    pool: Option<PoolHandle>,
    /// Weak self-reference captured by submitted pool tasks.
    self_ref: Weak<DatasetCore>,
    /// Source pages relocated by a GC pass, waiting for the pre-move
    /// component (possibly pinned by a snapshot) to drop before they can be
    /// freed. The moved and unmoved slots of a rewritten component are
    /// *shared* with its replacement, so the old component must not free on
    /// drop — this registry frees exactly the superseded source slots.
    deferred_frees: Mutex<Vec<(Weak<Component>, Vec<PageId>)>>,
}

/// One LSM dataset partition. All operations take `&self`; share it across
/// threads directly (scoped threads) or behind an `Arc`.
pub struct LsmDataset {
    core: Arc<DatasetCore>,
    /// Background mode without a shared pool spawns this private
    /// single-worker pool; its thread joins when the dataset drops.
    _private_pool: Option<WorkerPool>,
}

impl Drop for LsmDataset {
    fn drop(&mut self) {
        // Stop background work and wait for in-flight rounds: a pool task
        // may hold an upgraded core reference, and callers expect the
        // dataset's directory to be quiescent once drop returns. A private
        // pool additionally joins its worker thread when the field drops.
        self.core.sched.shutdown();
        self.core.sched.wait_idle();
    }
}

impl LsmDataset {
    /// Create an empty dataset with its own simulated disk.
    pub fn new(config: DatasetConfig) -> LsmDataset {
        let store = PageStore::with_page_size(config.page_size);
        let cache = BufferCache::new(store, config.cache_pages);
        LsmDataset::with_cache(config, cache)
    }

    /// Create an empty dataset on an existing store/cache (used when several
    /// datasets share one simulated disk, as partitions share an NC's cache).
    pub fn with_cache(config: DatasetConfig, cache: BufferCache) -> LsmDataset {
        LsmDataset::assemble(config, cache, None)
    }

    fn assemble(
        config: DatasetConfig,
        cache: BufferCache,
        durable: Option<Arc<DurableStore>>,
    ) -> LsmDataset {
        // Attach the shared decoded-leaf cache: every component built over
        // this buffer cache reads leaves through it, under an origin that
        // namespaces this dataset's component ids.
        let cache = match config.leaf_cache.as_ref() {
            Some(shared) => cache.with_leaf_cache(shared.handle()),
            None => cache,
        };
        let secondary = config.secondary_index_on.as_ref().map(|_| SecondaryIndex::new());
        let schema_builder = SchemaBuilder::new(Some(config.key_field.clone()));
        let telemetry = Arc::new(if config.telemetry_enabled {
            Telemetry::new()
        } else {
            Telemetry::disabled()
        });
        if let Some(durable) = durable.as_ref() {
            durable.set_telemetry(telemetry.clone());
        }
        // Background rounds need a pool: the shared one from the config if
        // the caller provided it, otherwise a private single-worker pool —
        // the old one-thread-per-dataset behaviour, now just a pool of one.
        let (pool, private_pool) = if config.background {
            match config.pool.clone() {
                Some(handle) => (Some(handle), None),
                None => {
                    let private = WorkerPool::new(1);
                    (Some(private.handle()), Some(private))
                }
            }
        } else {
            (None, None)
        };
        let core = Arc::new_cyclic(|self_ref| DatasetCore {
            config,
            cache,
            durable,
            write: Mutex::new(WriteState {
                memtable: Memtable::new(),
                pk_index: PrimaryKeyIndex::new(),
                secondary,
            }),
            tree: RwLock::new(Arc::new(TreeState::default())),
            maint: Mutex::new(MaintState {
                schema_builder,
                next_component_id: 0,
            }),
            stats: Mutex::new(IngestStats::default()),
            sched: Scheduler::new(),
            telemetry,
            pool,
            self_ref: self_ref.clone(),
            deferred_frees: Mutex::new(Vec::new()),
        });
        LsmDataset {
            core,
            _private_pool: private_pool,
        }
    }

    /// Open a **durable** dataset rooted at the directory `dir`, creating it
    /// if needed and recovering it if it already exists.
    ///
    /// Recovery follows the protocol documented in the `persist` crate: the
    /// manifest defines the on-disk components and the schema snapshot; the
    /// WAL segments are replayed into the memtable; the primary-key and
    /// secondary indexes are rebuilt from the recovered state. Runtime knobs
    /// (memtable budget, cache size, merge policy, background workers) come
    /// from `config`; `config.key_field` must match the persisted dataset.
    pub fn open(dir: impl AsRef<std::path::Path>, config: DatasetConfig) -> Result<LsmDataset> {
        let (durable, recovered) = DurableStore::open(dir.as_ref(), config.page_size)?;
        let cache = BufferCache::new(durable.page_store().clone(), config.cache_pages);
        let dataset = LsmDataset::assemble(config, cache, Some(Arc::new(durable)));
        let core = &dataset.core;

        if let Some(manifest) = recovered.manifest {
            if manifest.config.key_field != core.config.key_field {
                return Err(crate::LsmError::new(format!(
                    "dataset at {} has key field '{}', config says '{}'",
                    dir.as_ref().display(),
                    manifest.config.key_field,
                    core.config.key_field
                )));
            }
            let mut maint = core.maint.lock();
            maint.schema_builder = SchemaBuilder::from_schema(manifest.schema.clone());
            maint.next_component_id = manifest.next_component_id;
            let component_config = core.component_config();
            let mut components = Vec::new();
            for desc in manifest.components {
                components.push(Arc::new(Component::open(
                    &core.cache,
                    &component_config,
                    manifest.schema.clone(),
                    desc,
                )));
            }
            *core.tree.write() = Arc::new(TreeState {
                sealed: Vec::new(),
                components,
            });
        }
        core.sweep_orphan_pages()?;
        let replayed_records = recovered.wal_records.len();
        {
            let mut write = core.write.lock();
            for record in recovered.wal_records {
                match record {
                    WalRecord::Insert { key, record } => {
                        write.memtable.insert(key, record);
                    }
                    WalRecord::Delete { key } => {
                        write.memtable.delete(key);
                    }
                }
            }
        }
        core.rebuild_indexes()?;
        core.telemetry.emit(EventKind::RecoveryReplay {
            segments: recovered.wal_segments_replayed,
            records: replayed_records,
            torn_tail_healed: recovered.torn_tail_healed,
            components: core.tree.read().components.len(),
        });
        Ok(dataset)
    }

    /// Read the configuration persisted in a durable dataset directory's
    /// manifest without opening the dataset (no WAL replay, no recovery).
    /// Lets a multi-shard opener sum the per-shard budget slices and build
    /// one shared leaf cache before reopening any shard. Fails if the
    /// directory has no manifest yet.
    pub fn peek_persisted_config(dir: impl AsRef<std::path::Path>) -> Result<DatasetConfig> {
        let (_, manifest) = ManifestStore::open(dir.as_ref())?;
        let Some(manifest) = manifest else {
            return Err(crate::LsmError::new(format!(
                "no manifest in {} — reopen only works on a flushed dataset (use LsmDataset::open with a config to create one)",
                dir.as_ref().display()
            )));
        };
        Ok(DatasetConfig::from_persisted(&manifest.config))
    }

    /// Reopen a durable dataset from its directory alone: the persisted
    /// configuration in the manifest is used (a dataset directory is
    /// self-describing). Fails if the directory has no manifest yet.
    pub fn reopen(dir: impl AsRef<std::path::Path>) -> Result<LsmDataset> {
        let mut config = LsmDataset::peek_persisted_config(dir.as_ref())?;
        // A persisted budget with no cache supplied by the caller: derive a
        // private leaf cache of half the slice — the same split the facade
        // applies — so the dataset keeps its caching behaviour on reopen.
        if config.memory_budget > 0 && config.leaf_cache.is_none() {
            config.leaf_cache = Some(Arc::new(LeafCache::new(config.memory_budget / 2)));
        }
        LsmDataset::open(dir, config)
    }

    /// Reopen like [`LsmDataset::reopen`], but read decoded leaves through
    /// the given **shared** [`LeafCache`] instead of deriving a private one
    /// from the persisted budget. The facade uses this to re-attach one
    /// cache across every shard of a reopened sharded dataset.
    pub fn reopen_with_leaf_cache(
        dir: impl AsRef<std::path::Path>,
        cache: Arc<LeafCache>,
    ) -> Result<LsmDataset> {
        let config = LsmDataset::peek_persisted_config(dir.as_ref())?.with_leaf_cache(cache);
        LsmDataset::open(dir, config)
    }

    /// `true` when the dataset is backed by a directory (WAL + manifest).
    pub fn is_durable(&self) -> bool {
        self.core.durable.is_some()
    }

    /// Force acknowledged WAL records to the device (group commit). No-op
    /// for in-memory datasets.
    pub fn sync(&self) -> Result<()> {
        match self.core.durable.as_ref() {
            Some(durable) => durable.sync_wal(),
            None => Ok(()),
        }
    }

    /// Bytes currently in the WAL (0 for in-memory datasets).
    pub fn wal_bytes(&self) -> u64 {
        self.core
            .durable
            .as_ref()
            .map(|d| d.wal_bytes())
            .unwrap_or(0)
    }

    /// Version of the last committed manifest (0 for in-memory datasets or
    /// before the first flush).
    pub fn manifest_version(&self) -> u64 {
        self.core
            .durable
            .as_ref()
            .map(|d| d.manifest_version())
            .unwrap_or(0)
    }

    /// Arm a crash point in the durability layer (recovery tests). No-op for
    /// in-memory datasets.
    pub fn set_crash_point(&self, point: CrashPoint) {
        if let Some(durable) = self.core.durable.as_ref() {
            durable.set_crash_point(point);
        }
    }

    /// The dataset's configuration.
    pub fn config(&self) -> &DatasetConfig {
        &self.core.config
    }

    /// The buffer cache (shared with the query engine for I/O accounting).
    pub fn cache(&self) -> &BufferCache {
        &self.core.cache
    }

    /// A copy of the cumulative inferred schema.
    pub fn schema(&self) -> Schema {
        self.core.maint.lock().schema_builder.schema().clone()
    }

    /// Ingestion counters.
    pub fn stats(&self) -> IngestStats {
        *self.core.stats.lock()
    }

    /// The dataset's telemetry registry (counters, histograms, event ring).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.core.telemetry
    }

    /// The most recent `n` lifecycle events, oldest first.
    pub fn recent_events(&self, n: usize) -> Vec<Event> {
        self.core.telemetry.recent_events(n)
    }

    /// A point-in-time metrics snapshot: every registry counter and
    /// histogram, the sampled I/O counters of the underlying store
    /// (`storage.*`), current-state gauges (`lsm.*`, `wal.*`), and the
    /// derived write/read/space amplification gauges (`amp.*`) — the latter
    /// always recomputable from the raw counters in the same snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.core.telemetry.snapshot(&self.core.config.name);
        let io = self.io_stats();
        snap.push_counter("storage.pages_read", io.pages_read);
        snap.push_counter("storage.pages_written", io.pages_written);
        snap.push_counter("storage.bytes_read", io.bytes_read);
        snap.push_counter("storage.bytes_written", io.bytes_written);
        snap.push_counter("storage.cache_hits", io.cache_hits);
        snap.push_counter("storage.records_assembled", io.records_assembled);
        snap.push_counter(
            "storage.records_filtered_pre_assembly",
            io.records_filtered_pre_assembly,
        );
        snap.push_counter("storage.leaves_skipped", io.leaves_skipped);
        snap.push_counter("cache.hits", io.leaf_cache_hits);
        snap.push_counter("cache.misses", io.leaf_cache_misses);
        snap.push_counter("cache.evictions", io.leaf_cache_evictions);
        snap.push_gauge(
            "storage.allocated_bytes",
            self.core.cache.store().allocated_bytes() as f64,
        );
        snap.push_gauge("lsm.components", self.component_count() as f64);
        snap.push_gauge("lsm.live_stored_bytes", self.primary_stored_bytes() as f64);
        snap.push_gauge("lsm.sealed_queue_depth", self.sealed_count() as f64);
        snap.push_gauge(
            "lsm.memtable_bytes",
            self.core.write.lock().memtable.approx_bytes() as f64,
        );
        snap.push_gauge("wal.bytes", self.wal_bytes() as f64);
        snap.push_gauge("manifest.version", self.manifest_version() as f64);
        snap.with_derived_gauges()
    }

    /// Health of the dataset's background machinery, backed by the
    /// scheduler's non-consuming status and the telemetry event ring: a
    /// parked worker error shows up here *without* being consumed, so the
    /// next write still observes it.
    pub fn health(&self) -> DatasetHealth {
        let status = self.core.sched.status();
        let worker = if !self.core.config.background {
            WorkerState::Inline
        } else if status.failed.is_some() {
            WorkerState::Failed
        } else if status.busy || status.pending {
            WorkerState::Busy
        } else {
            WorkerState::Idle
        };
        // Prefer the live parked error; fall back to the event ring so an
        // error drained by a retry is still reported until it scrolls off.
        let last_error = status
            .failed
            .map(|e| e.to_string())
            .or_else(|| self.core.telemetry.events.last_error());
        DatasetHealth {
            worker,
            last_error,
            pending_maintenance: status.sealed_count,
            stalls: self.core.telemetry.stalls.get(),
            stall_micros: self.core.telemetry.stall_micros.get(),
        }
    }

    /// I/O counters of the underlying simulated disk.
    pub fn io_stats(&self) -> IoStats {
        self.core.cache.store().stats()
    }

    /// Number of on-disk components.
    pub fn component_count(&self) -> usize {
        self.core.tree.read().components.len()
    }

    /// Shared handles to the current on-disk components, oldest first — the
    /// planner's window onto per-component statistics without the cost of a
    /// full snapshot (no memtable clone, no write-lock acquisition).
    pub fn components(&self) -> Vec<Arc<Component>> {
        self.core.tree.read().components.clone()
    }

    /// Number of sealed memtables currently queued for flushing.
    pub fn sealed_count(&self) -> usize {
        self.core.tree.read().sealed.len()
    }

    /// Total bytes stored on disk for the primary index.
    pub fn primary_stored_bytes(&self) -> u64 {
        self.core
            .tree
            .read()
            .components
            .iter()
            .map(|c| c.meta().stored_bytes)
            .sum()
    }

    /// Total bytes including the (approximated) secondary structures.
    pub fn total_stored_bytes(&self) -> u64 {
        let write = self.core.write.lock();
        let pk = if self.core.config.primary_key_index {
            write.pk_index.approx_bytes()
        } else {
            0
        };
        let sec = write
            .secondary
            .as_ref()
            .map(SecondaryIndex::approx_bytes)
            .unwrap_or(0);
        drop(write);
        self.primary_stored_bytes() + pk + sec
    }

    /// Take a consistent point-in-time [`Snapshot`] for reads. The write
    /// lock is held only long enough to clone the active memtable; flushes
    /// and merges never invalidate a snapshot.
    pub fn snapshot(&self) -> Snapshot {
        if self.core.telemetry.enabled() {
            self.core.telemetry.snapshots.incr();
        }
        let write = self.core.write.lock();
        let active: Vec<(Value, Option<Value>)> = write
            .memtable
            .iter()
            .map(|(k, v)| (k.clone(), v.cloned()))
            .collect();
        let tree = self.core.tree.read().clone();
        drop(write);
        Snapshot { active: Arc::new(active), tree }
    }

    /// Records (and anti-matter) currently in memory: the active memtable
    /// plus every sealed memtable. Feeds the planner's memtable-aware CPU
    /// cost term.
    pub fn in_memory_entries(&self) -> usize {
        let active = self.core.write.lock().memtable.len();
        active
            + self
                .core
                .tree
                .read()
                .sealed
                .iter()
                .map(|s| s.entries.len())
                .sum::<usize>()
    }

    /// Insert (or upsert) a record. For durable datasets the record is
    /// appended to the WAL before it is applied, so once `insert` returns it
    /// survives a process crash. The WAL is flushed to the OS immediately
    /// but fsynced lazily — call [`LsmDataset::sync`] where device-level
    /// durability (power loss) is required.
    ///
    /// With [`DatasetConfig::background`], a full memtable is sealed and
    /// handed to the worker; this call blocks only when
    /// `max_sealed_memtables` seals are already queued (backpressure), and
    /// surfaces any error a previous background flush/merge hit.
    pub fn insert(&self, record: Value) -> Result<()> {
        self.core.apply(Some(record), None)
    }

    /// Delete the record with the given key (an anti-matter entry is added).
    /// Logged to the WAL like [`LsmDataset::insert`], with the same
    /// crash-durability caveats.
    pub fn delete(&self, key: Value) -> Result<()> {
        self.core.apply(None, Some(key))
    }

    /// Flush everything in memory to disk: seals the active memtable and
    /// waits until every sealed memtable is flushed (and triggered merges
    /// completed). Surfaces parked background errors; calling again retries.
    pub fn flush(&self) -> Result<()> {
        {
            let mut write = self.core.write.lock();
            self.core.seal_locked(&mut write)?;
        }
        if self.core.config.background {
            // Queue a round even when nothing was just sealed, so the work
            // behind a parked failure is re-attempted; then wait for the
            // dataset to go quiescent. If the shared pool has shut down
            // underneath us, fall through to inline processing.
            if self.core.enqueue_background(Priority::Flush) {
                return self.core.sched.drain();
            }
        }
        self.core.process_pending()
    }

    /// Force-flush and merge everything down to a single component (used at
    /// the end of ingestion so query experiments run against a settled tree).
    pub fn compact_fully(&self) -> Result<()> {
        self.flush()?;
        loop {
            let mut maint = self.core.maint.lock();
            let n = self.core.tree.read().components.len();
            if n <= 1 {
                return Ok(());
            }
            let positions: Vec<usize> = (0..n).collect();
            self.core.merge_components_locked(&mut maint, &positions)?;
        }
    }

    /// Reclaim dead space in the page file. Free-listed slots in the middle
    /// of the file are plugged by relocating live pages downward
    /// (byte-identical copies; the manifest is re-committed to the new
    /// locations) until the dead space forms a contiguous tail, which is
    /// then truncated. Runs under the maintenance lock, so it serialises
    /// with flushes and merges but never blocks readers: snapshots taken
    /// before (or during) a pass keep reading the retired pre-move
    /// components, whose pages are only freed when the last snapshot drops —
    /// such held pages are simply not reclaimed this call.
    ///
    /// Repeats passes until the file stops shrinking. Emits a
    /// `space_reclaimed` lifecycle event when anything moved.
    pub fn reclaim_space(&self) -> Result<ReclaimReport> {
        self.core.reclaim_space()
    }

    /// Point lookup: newest version of `key`, reconciling the memtable and
    /// every component (newest first). `None` when the key does not exist or
    /// was deleted.
    pub fn lookup(&self, key: &Value, projection: Option<&[Path]>) -> Result<Option<Value>> {
        let tree = {
            let write = self.core.write.lock();
            if let Some(entry) = write.memtable.get(key) {
                return Ok(entry.cloned());
            }
            self.core.tree.read().clone()
        };
        Snapshot {
            active: Arc::new(Vec::new()),
            tree,
        }
        .lookup(key, projection)
    }

    /// Scan the dataset, reconciling duplicates and dropping anti-matter.
    /// Only the projected paths are assembled from columnar components.
    pub fn scan(&self, projection: Option<&[Path]>) -> Result<Vec<Value>> {
        self.snapshot().scan(projection)
    }

    /// Number of live records (COUNT(*)): only primary keys are read, which
    /// for AMAX means Page 0 alone.
    pub fn count(&self) -> Result<usize> {
        self.snapshot().count()
    }

    /// Answer a range query on the secondary index: probe the index, sort the
    /// resulting primary keys, and perform batched point lookups.
    pub fn secondary_range(
        &self,
        lo: &Value,
        hi: &Value,
        projection: Option<&[Path]>,
    ) -> Result<Vec<Value>> {
        Ok(self
            .secondary_range_entries(
                std::ops::Bound::Included(lo),
                std::ops::Bound::Included(hi),
                projection,
            )?
            .into_iter()
            .map(|(_, doc)| doc)
            .collect())
    }

    /// Like [`LsmDataset::secondary_range`], but with arbitrary (open or
    /// exclusive) endpoints — the probe the query planner derives from a
    /// filter expression that implies a range on the indexed path — and
    /// keeping each record paired with its primary key, in key order: what
    /// the query layer's key-ordered projection output consumes.
    pub fn secondary_range_entries(
        &self,
        lo: std::ops::Bound<&Value>,
        hi: std::ops::Bound<&Value>,
        projection: Option<&[Path]>,
    ) -> Result<Vec<(Value, Value)>> {
        let mut keys = {
            let write = self.core.write.lock();
            let secondary = write
                .secondary
                .as_ref()
                .ok_or_else(|| crate::LsmError::new("dataset has no secondary index"))?;
            secondary.range_bounds(lo, hi)
        };
        self.snapshot().lookup_sorted_entries(&mut keys, projection)
    }
}

impl DatasetCore {
    fn component_config(&self) -> ComponentConfig {
        ComponentConfig {
            layout: self.config.layout,
            amax: self.config.amax,
            compress_pages: self.config.compress_pages,
        }
    }

    fn extract_key(&self, record: &Value) -> Result<Value> {
        record
            .get_field(&self.config.key_field)
            .filter(|v| v.is_atomic() && !v.is_null())
            .cloned()
            .ok_or_else(|| {
                crate::LsmError::new(format!(
                    "record lacks an atomic primary key field '{}'",
                    self.config.key_field
                ))
            })
    }

    /// One insert (`record = Some`) or delete (`key = Some`) through the
    /// write lock, with sealing and (synchronous-mode) inline flushing.
    fn apply(&self, record: Option<Value>, delete_key: Option<Value>) -> Result<()> {
        if self.config.background && self.pool_is_open() {
            // Backpressure gate — taken *before* the write lock so stalled
            // writers never block readers or the workers.
            let stalled = self.sched.admit(self.config.max_sealed_memtables)?;
            if let Some(stall) = stalled {
                if self.telemetry.enabled() {
                    self.telemetry.stalls.incr();
                    self.telemetry.stall_micros.add(stall.as_micros() as u64);
                }
            }
        }
        {
            let mut write = self.write.lock();
            match (record, delete_key) {
                (Some(record), _) => {
                    let key = self.extract_key(&record)?;
                    // Fallible work (index-maintenance lookups can hit I/O
                    // errors) happens before the WAL append: a failed insert
                    // must not leave a logged record behind for recovery to
                    // resurrect.
                    self.maintain_secondary_for_upsert(&mut write, &key, Some(&record))?;
                    if let Some(durable) = self.durable.as_ref() {
                        durable.log_insert(&key, &record)?;
                    }
                    write.pk_index.insert(&key);
                    let bytes_before = write.memtable.approx_bytes();
                    write.memtable.insert(key, record);
                    if self.telemetry.enabled() {
                        self.telemetry.records_ingested.incr();
                        let grew = write.memtable.approx_bytes().saturating_sub(bytes_before);
                        self.telemetry.bytes_ingested.add(grew as u64);
                    }
                    self.stats.lock().records_ingested += 1;
                }
                (None, Some(key)) => {
                    self.maintain_secondary_for_upsert(&mut write, &key, None)?;
                    if let Some(durable) = self.durable.as_ref() {
                        durable.log_delete(&key)?;
                    }
                    write.memtable.delete(key);
                    if self.telemetry.enabled() {
                        self.telemetry.deletes.incr();
                    }
                    self.stats.lock().deletes += 1;
                }
                (None, None) => unreachable!("apply needs a record or a key"),
            }
            if write.memtable.approx_bytes() >= self.config.memtable_budget {
                self.seal_locked(&mut write)?;
            }
        }
        // Inline processing, outside the write lock: synchronous mode (and
        // retries of earlier failed inline work), or a background dataset
        // whose shared pool has shut down underneath it — nothing else
        // would flush, so the writer does.
        if self.sched.sealed_count() > 0 && (!self.config.background || !self.pool_is_open()) {
            self.process_pending()?;
        }
        Ok(())
    }

    /// Whether background rounds can still be queued on the pool.
    fn pool_is_open(&self) -> bool {
        self.pool.as_ref().is_some_and(|pool| pool.is_open())
    }

    /// Seal the active memtable: rotate the WAL so the sealed records are
    /// confined to closed segments, publish the sealed memtable in the tree,
    /// and signal the scheduler. No-op when the memtable is empty.
    fn seal_locked(&self, write: &mut WriteState) -> Result<()> {
        if write.memtable.is_empty() {
            return Ok(());
        }
        let wal_segment = match self.durable.as_ref() {
            Some(durable) => Some(durable.rotate_wal()?),
            None => None,
        };
        let bytes = write.memtable.approx_bytes();
        let entries = write.memtable.drain_sorted();
        let sealed = Arc::new(SealedMemtable {
            entries,
            wal_segment,
            bytes,
        });
        {
            let mut tree = self.tree.write();
            let mut next = (**tree).clone();
            next.sealed.push(sealed);
            *tree = Arc::new(next);
        }
        self.sched.note_sealed();
        if self.config.background {
            self.enqueue_background(Priority::Flush);
        }
        Ok(())
    }

    /// Queue one background round on the worker pool. Returns `false` when
    /// there is no pool or it has shut down (callers fall back inline).
    fn enqueue_background(&self, priority: Priority) -> bool {
        let Some(pool) = self.pool.as_ref() else {
            return false;
        };
        let weak = self.self_ref.clone();
        // Account before submitting so a fast worker can never report the
        // round done before it was counted as queued.
        self.sched.task_enqueued();
        let accepted = pool.submit(
            priority,
            Box::new(move || {
                if let Some(core) = weak.upgrade() {
                    core.run_background_round(priority);
                }
            }),
        );
        if !accepted {
            self.sched.task_rejected();
        }
        accepted
    }

    /// One pool-executed background round. A *flush* round drains every
    /// queued sealed memtable oldest-first, queueing one merge round per
    /// flushed component; a *merge* round asks the compaction strategy
    /// once. Panics and errors are parked in the scheduler exactly like
    /// the former dedicated worker thread's.
    fn run_background_round(&self, priority: Priority) {
        if !self.sched.begin_work() {
            return; // shutting down: the round is dropped
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match priority {
            Priority::Flush => self.background_flush_round(),
            Priority::Merge => {
                let mut maint = self.maint.lock();
                self.maybe_merge_locked(&mut maint)
            }
        }))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Err(crate::LsmError::new(format!(
                "background flush/merge worker panicked: {msg}"
            )))
        });
        if let Err(err) = &result {
            // Trace the parked error *before* it becomes visible to
            // writers, so health() backed by the event ring never lags
            // admit().
            self.telemetry.emit(EventKind::WorkerError {
                message: err.to_string(),
            });
        }
        self.sched.work_done(result);
    }

    /// Background flush round: flush sealed memtables until none remain.
    /// Merges ride a *lower* pool priority, so queued flushes — which
    /// release ingest backpressure — run first across every dataset
    /// sharing the pool.
    fn background_flush_round(&self) -> Result<()> {
        while self.flush_next_sealed()? {
            self.enqueue_background(Priority::Merge);
        }
        Ok(())
    }

    /// Flush every queued sealed memtable, oldest first, running the merge
    /// policy after each flush. The inline path: synchronous mode, and the
    /// fallback when a shared pool has shut down.
    fn process_pending(&self) -> Result<()> {
        while self.flush_next_sealed()? {
            let mut maint = self.maint.lock();
            self.maybe_merge_locked(&mut maint)?;
        }
        Ok(())
    }

    /// Flush the oldest sealed memtable, if any. Returns whether there was
    /// one (racing flushers may mean no actual work was done).
    fn flush_next_sealed(&self) -> Result<bool> {
        let next = self.tree.read().sealed.first().cloned();
        let Some(sealed) = next else { return Ok(false) };
        self.flush_sealed(&sealed)?;
        Ok(true)
    }

    /// Flush one sealed memtable into an on-disk component.
    fn flush_sealed(&self, sealed: &Arc<SealedMemtable>) -> Result<()> {
        let started = Instant::now();
        let mut maint = self.maint.lock();
        // Another thread may have flushed it while we waited for the lock.
        let Some(current) = self.tree.read().sealed.first().cloned() else {
            return Ok(());
        };
        if !Arc::ptr_eq(&current, sealed) {
            return Ok(());
        }
        self.telemetry.emit(EventKind::FlushBegin {
            entries: sealed.entries.len(),
        });
        // Tuple compactor: infer the schema from the flushed records (§2.2).
        for (_, record) in &sealed.entries {
            if let Some(record) = record {
                maint.schema_builder.observe(record);
            }
        }
        let schema = maint.schema_builder.schema().clone();
        let component = Arc::new(Component::write(
            &self.cache,
            &self.component_config(),
            schema.clone(),
            &sealed.entries,
            maint.next_component_id,
        )?);
        maint.next_component_id += 1;
        let pages_out = component.meta().pages.len() as u64;
        // Durable flush: sync pages, commit the manifest recording the new
        // component (and the schema snapshot), then drop the WAL segments
        // covering the sealed records.
        if let Some(durable) = self.durable.as_ref() {
            let mut components = self.tree.read().components.clone();
            components.push(component.clone());
            let data = self.manifest_data(&maint, &schema, &components);
            let segment = sealed
                .wal_segment
                .expect("durable sealed memtable records its WAL segment");
            durable.commit_flush(data, segment)?;
        }
        {
            let mut tree = self.tree.write();
            let mut next = (**tree).clone();
            let pos = next
                .sealed
                .iter()
                .position(|s| Arc::ptr_eq(s, sealed))
                .expect("sealed memtable vanished while flushing");
            next.sealed.remove(pos);
            next.components.push(component);
            *tree = Arc::new(next);
        }
        self.sched.note_flushed();
        let elapsed = started.elapsed();
        if self.telemetry.enabled() {
            self.telemetry.flushes.incr();
            self.telemetry.flush_entries.add(sealed.entries.len() as u64);
            self.telemetry.flush_pages_out.add(pages_out);
            self.telemetry.flush_duration.record(elapsed.as_micros() as u64);
            self.telemetry.emit(EventKind::FlushEnd {
                entries: sealed.entries.len(),
                pages_out,
                micros: elapsed.as_micros() as u64,
            });
        }
        {
            let mut stats = self.stats.lock();
            stats.flushes += 1;
            stats.flush_time += elapsed;
        }
        Ok(())
    }

    fn manifest_data(
        &self,
        maint: &MaintState,
        schema: &Schema,
        components: &[Arc<Component>],
    ) -> ManifestData {
        ManifestData {
            version: 0, // assigned by the manifest store at commit
            config: self.config.to_persisted(),
            next_component_id: maint.next_component_id,
            schema: schema.clone(),
            components: components.iter().map(|c| c.describe()).collect(),
        }
    }

    /// Recovery-time page reconciliation: free every allocated page slot no
    /// live component references. This simultaneously repopulates the file
    /// backend's free list (which is not persisted across restarts) and
    /// reclaims pages orphaned by a crash between writing a component's
    /// pages and committing the manifest that would have referenced them —
    /// the `persist` crate's documented crash windows.
    fn sweep_orphan_pages(&self) -> Result<()> {
        let components = self.tree.read().components.clone();
        let store = self.cache.store();
        let page_count = store.page_count();
        if page_count == 0 {
            return Ok(());
        }
        let referenced: std::collections::HashSet<PageId> = components
            .iter()
            .flat_map(|c| c.meta().pages.iter().copied())
            .collect();
        let orphans: Vec<PageId> = (0..page_count)
            .filter(|id| !referenced.contains(id))
            .collect();
        if orphans.is_empty() {
            return Ok(());
        }
        self.cache.free_pages(&orphans);
        let truncated = store.shrink_free_tail()?;
        self.telemetry.emit(EventKind::OrphanSweep {
            scanned: page_count,
            freed: orphans.len() as u64,
            truncated,
        });
        Ok(())
    }

    /// See [`LsmDataset::reclaim_space`]: run GC passes until the page file
    /// stops shrinking.
    fn reclaim_space(&self) -> Result<ReclaimReport> {
        let mut total = ReclaimReport::default();
        loop {
            let before = self.cache.store().page_count();
            let pass = self.reclaim_pass()?;
            total.components_rewritten += pass.components_rewritten;
            total.pages_moved += pass.pages_moved;
            total.pages_reclaimed += pass.pages_reclaimed;
            // Keep going only while the file is actually shrinking (a pass
            // can relocate pages without net progress when snapshots pin
            // the originals).
            if pass.pages_reclaimed == 0 || self.cache.store().page_count() >= before {
                break;
            }
        }
        if total.pages_moved > 0 || total.pages_reclaimed > 0 {
            self.telemetry.emit(EventKind::SpaceReclaimed {
                components_rewritten: total.components_rewritten,
                pages_moved: total.pages_moved,
                pages_reclaimed: total.pages_reclaimed,
            });
        }
        Ok(total)
    }

    /// Free the relocated source pages of rewritten components whose
    /// pre-move handle has since dropped (the snapshot that pinned them is
    /// gone). Called on every GC pass; a dataset dropped with entries still
    /// pending leaks nothing durable — the next open's orphan sweep reclaims
    /// the unreferenced slots.
    fn sweep_deferred_frees(&self) {
        let mut pending = self.deferred_frees.lock();
        let mut freeable: Vec<PageId> = Vec::new();
        pending.retain(|(component, pages)| {
            if component.strong_count() == 0 {
                freeable.extend_from_slice(pages);
                false
            } else {
                true
            }
        });
        drop(pending);
        if !freeable.is_empty() {
            self.cache.free_pages(&freeable);
        }
    }

    /// One GC pass: relocate live pages sitting above the live watermark
    /// (total live pages — where the file would end if it were perfectly
    /// packed) into lower free slots, commit the remapped manifest, and
    /// truncate the freed tail. Pages only ever move *downward* (a copy that
    /// would land at a higher slot is discarded), so passes strictly shrink
    /// the sum of live page ids and the loop terminates packed.
    fn reclaim_pass(&self) -> Result<ReclaimReport> {
        let maint = self.maint.lock();
        self.sweep_deferred_frees();
        let components = self.tree.read().components.clone();
        let live: u64 = components
            .iter()
            .map(|c| c.meta().pages.len() as u64)
            .sum();
        let schema = maint.schema_builder.schema().clone();
        let component_config = self.component_config();
        let mut new_components = components.clone();
        let mut rewritten: Vec<usize> = Vec::new();
        let mut pages_moved = 0u64;
        for (i, component) in components.iter().enumerate() {
            if !component.meta().pages.iter().any(|&p| p >= live) {
                continue;
            }
            // Copy each high page byte-identically (below the component
            // layer, so compression flags and encodings ride along
            // untouched) into the lowest free slot. Keep the original
            // whenever the copy would not actually move the page down.
            let mut desc = component.describe();
            let mut remap = std::collections::HashMap::new();
            let mut sources = Vec::new();
            for page in &mut desc.pages {
                if *page < live {
                    continue;
                }
                let raw = self.cache.try_read_page(*page)?;
                let moved = self.cache.append_page(raw.as_ref().clone());
                if moved >= *page {
                    self.cache.free_pages(&[moved]);
                    continue;
                }
                remap.insert(*page, moved);
                sources.push(*page);
                *page = moved;
                pages_moved += 1;
            }
            if remap.is_empty() {
                continue;
            }
            for leaf in &mut desc.leaves {
                if let Some(&moved) = remap.get(&leaf.page) {
                    leaf.page = moved;
                }
                for data_page in &mut leaf.data_pages {
                    if let Some(&moved) = remap.get(data_page) {
                        *data_page = moved;
                    }
                }
            }
            new_components[i] = Arc::new(Component::open(
                &self.cache,
                &component_config,
                schema.clone(),
                desc,
            ));
            // The rewritten component keeps its id but relocated its pages.
            // Its decoded leaves are byte-identical, but the cached state
            // must not outlive a physical relocation — invalidate eagerly
            // rather than reasoning about which entries would stay valid.
            if let Some(handle) = self.cache.leaf_cache() {
                handle.invalidate_component(component.meta().id);
            }
            // The replacement shares the unmoved slots with the original, so
            // the original must not free on drop; only the superseded source
            // slots die, and only once nothing references the original.
            self.deferred_frees
                .lock()
                .push((Arc::downgrade(component), sources));
            rewritten.push(i);
        }
        if rewritten.is_empty() {
            // Already packed below the watermark: everything above it is
            // free-listed, so the tail shrink is the whole pass.
            drop(maint);
            let pages_reclaimed = self.cache.store().shrink_free_tail()?;
            return Ok(ReclaimReport {
                components_rewritten: 0,
                pages_moved: 0,
                pages_reclaimed,
            });
        }
        // Same publication protocol as a merge: the manifest swap commits
        // first, so a crash never loses the dataset — it merely re-orphans
        // either the copies or the originals, which the next open sweeps.
        if let Some(durable) = self.durable.as_ref() {
            let data = self.manifest_data(&maint, &schema, &new_components);
            durable.commit_merge(data)?;
        }
        {
            let mut tree = self.tree.write();
            let mut next = (**tree).clone();
            next.components = new_components;
            *tree = Arc::new(next);
        }
        drop(components);
        drop(maint);
        self.sweep_deferred_frees();
        let pages_reclaimed = self.cache.store().shrink_free_tail()?;
        Ok(ReclaimReport {
            components_rewritten: rewritten.len(),
            pages_moved,
            pages_reclaimed,
        })
    }

    fn maybe_merge_locked(&self, maint: &mut MaintState) -> Result<()> {
        // Sizes newest-first for the policy.
        let sizes: Vec<u64> = {
            let tree = self.tree.read();
            tree.components
                .iter()
                .rev()
                .map(|c| c.meta().stored_bytes)
                .collect()
        };
        let jobs = self.config.compaction.strategy().decide_jobs(&sizes);
        if jobs.is_empty() {
            return Ok(());
        }
        // Translate each job's newest-first indexes into positions in the
        // oldest-first component list.
        let n = sizes.len();
        let mut position_jobs: Vec<Vec<usize>> = jobs
            .iter()
            .map(|job| {
                let mut positions: Vec<usize> = job.iter().map(|&i| n - 1 - i).collect();
                positions.sort_unstable();
                positions
            })
            .collect();
        position_jobs.sort_by_key(|p| p[0]);
        self.merge_jobs_locked(maint, &position_jobs)
    }

    /// Merge the components at the given (oldest-first) positions.
    fn merge_components_locked(&self, maint: &mut MaintState, positions: &[usize]) -> Result<()> {
        self.merge_jobs_locked(maint, std::slice::from_ref(&positions.to_vec()))
    }

    /// Run a round of merge jobs. Each job names a contiguous, oldest-first
    /// range of positions in the component list; jobs are disjoint and
    /// sorted by first position. Multiple jobs (a leveled strategy's
    /// independent level-to-level cascades) reconcile and write their output
    /// components **concurrently** — they touch disjoint inputs and append
    /// to the page store independently — then a single manifest commit and
    /// tree swap publishes the whole round atomically.
    fn merge_jobs_locked(&self, maint: &mut MaintState, jobs: &[Vec<usize>]) -> Result<()> {
        let jobs: Vec<&[usize]> = jobs
            .iter()
            .map(Vec::as_slice)
            .filter(|j| j.len() >= 2)
            .collect();
        if jobs.is_empty() {
            return Ok(());
        }
        let components = self.tree.read().components.clone();
        let schema = maint.schema_builder.schema().clone();
        // Pre-assign output ids so concurrent jobs never race the counter.
        let first_id = maint.next_component_id;
        maint.next_component_id += jobs.len() as u64;

        struct JobResult {
            output: Arc<Component>,
            inputs: Vec<Arc<Component>>,
            input_ids: Vec<u64>,
            pages_in: u64,
            elapsed: Duration,
        }

        let run_job = |positions: &[usize], id: u64| -> Result<JobResult> {
            debug_assert!(
                positions.windows(2).all(|w| w[1] == w[0] + 1),
                "merge jobs must cover contiguous positions (age order)"
            );
            let job_started = Instant::now();
            let inputs: Vec<Arc<Component>> =
                positions.iter().map(|&p| components[p].clone()).collect();
            let includes_oldest = positions.first() == Some(&0);
            let input_ids: Vec<u64> = inputs.iter().map(|c| c.meta().id).collect();
            let pages_in: u64 = inputs.iter().map(|c| c.meta().pages.len() as u64).sum();
            self.telemetry.emit(EventKind::MergeBegin {
                inputs: input_ids.clone(),
            });
            // Reconcile through the streaming k-way merge cursor: entries
            // arrive in key order with the newest version of each key
            // winning, holding one decoded leaf per input in memory instead
            // of the whole inputs.
            let mut entries: Vec<Entry> = Vec::new();
            for entry in EntryMergeCursor::over_components(&inputs, None) {
                let (key, doc) = entry?;
                // Anti-matter annihilates older records; it can itself be
                // dropped once the merge includes the oldest component.
                if doc.is_some() || !includes_oldest {
                    entries.push((key, doc));
                }
            }
            let output = Arc::new(Component::write(
                &self.cache,
                &self.component_config(),
                schema.clone(),
                &entries,
                id,
            )?);
            Ok(JobResult {
                output,
                inputs,
                input_ids,
                pages_in,
                elapsed: job_started.elapsed(),
            })
        };

        let results: Vec<Result<JobResult>> = if jobs.len() == 1 {
            vec![run_job(jobs[0], first_id)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = jobs
                    .iter()
                    .enumerate()
                    .map(|(i, job)| {
                        let run_job = &run_job;
                        scope.spawn(move || run_job(job, first_id + i as u64))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("merge job panicked"))
                    .collect()
            })
        };
        let mut done = Vec::with_capacity(results.len());
        for result in results {
            done.push(result?);
        }

        // Build the post-merge component list: per job (back to front so
        // earlier positions stay valid), inputs out, output in at the first
        // merged position.
        let mut new_components = components.clone();
        for (positions, result) in jobs.iter().zip(&done).rev() {
            for &pos in positions.iter().rev() {
                new_components.remove(pos);
            }
            new_components.insert(positions[0], result.output.clone());
        }
        // Durable merge: one manifest swap makes every output visible; the
        // inputs' pages are freed only after the swap commits, so a crash
        // before the commit leaves the old components intact.
        if let Some(durable) = self.durable.as_ref() {
            let data = self.manifest_data(maint, &schema, &new_components);
            durable.commit_merge(data)?;
        }
        {
            let mut tree = self.tree.write();
            let mut next = (**tree).clone();
            next.components = new_components;
            *tree = Arc::new(next);
        }
        // Retire the inputs: their pages are freed when the last snapshot
        // holding them drops (Component::retire), never under a live reader.
        for result in &done {
            for input in &result.inputs {
                input.retire();
            }
        }
        let mut round_time = Duration::ZERO;
        for result in &done {
            let pages_out = result.output.meta().pages.len() as u64;
            round_time = round_time.max(result.elapsed);
            if self.telemetry.enabled() {
                self.telemetry.merges.incr();
                self.telemetry.merge_pages_in.add(result.pages_in);
                self.telemetry.merge_pages_out.add(pages_out);
                self.telemetry
                    .merge_duration
                    .record(result.elapsed.as_micros() as u64);
                self.telemetry.emit(EventKind::MergeEnd {
                    inputs: result.input_ids.clone(),
                    pages_in: result.pages_in,
                    pages_out,
                    micros: result.elapsed.as_micros() as u64,
                });
            }
        }
        {
            let mut stats = self.stats.lock();
            stats.merges += done.len() as u64;
            // Concurrent jobs overlap; charge the round's wall clock once.
            stats.merge_time += round_time;
        }
        Ok(())
    }

    /// Point lookup while already holding the write lock (secondary-index
    /// maintenance on the ingest path).
    fn lookup_locked(
        &self,
        write: &WriteState,
        key: &Value,
        projection: Option<&[Path]>,
    ) -> Result<Option<Value>> {
        if let Some(entry) = write.memtable.get(key) {
            return Ok(entry.cloned());
        }
        Snapshot {
            active: Arc::new(Vec::new()),
            tree: self.tree.read().clone(),
        }
        .lookup(key, projection)
    }

    /// Secondary-index maintenance: fetch the old record (if the key may
    /// exist) to remove its stale entry, then add the new entry.
    fn maintain_secondary_for_upsert(
        &self,
        write: &mut WriteState,
        key: &Value,
        new_record: Option<&Value>,
    ) -> Result<()> {
        let Some(index_path) = self.config.secondary_index_on.clone() else {
            return Ok(());
        };
        let may_exist = if self.config.primary_key_index {
            write.pk_index.contains(key)
        } else {
            true
        };
        if may_exist {
            self.stats.lock().maintenance_lookups += 1;
            if let Some(old) = self.lookup_locked(write, key, None)? {
                let old_values: Vec<Value> =
                    index_path.evaluate(&old).into_iter().cloned().collect();
                if let Some(secondary) = write.secondary.as_mut() {
                    for v in old_values {
                        secondary.remove(&v, key);
                    }
                }
            }
        }
        if let (Some(secondary), Some(record)) = (write.secondary.as_mut(), new_record) {
            for v in index_path.evaluate(record) {
                secondary.insert(v, key);
            }
        }
        Ok(())
    }

    /// Rebuild the in-memory indexes (primary-key filter and the optional
    /// secondary index) from the recovered components and memtable.
    fn rebuild_indexes(&self) -> Result<()> {
        let index_path = self.config.secondary_index_on.clone();
        if !self.config.primary_key_index && index_path.is_none() {
            return Ok(());
        }
        let mut write = self.write.lock();
        // Reconcile newest-first through the streaming merge cursor so each
        // key contributes exactly its live version.
        let memtable_entries: Vec<Entry> = write
            .memtable
            .iter()
            .map(|(k, v)| (k.clone(), v.cloned()))
            .collect();
        let projection: Vec<Path> = index_path.iter().cloned().collect();
        let tree = self.tree.read().clone();
        let cursor = EntryMergeCursor::over_memtable_and_components(
            memtable_entries,
            &tree.components,
            Some(&projection),
        );
        for entry in cursor {
            let (key, doc) = entry?;
            if self.config.primary_key_index {
                // Every key ever written may exist on disk, so the filter
                // includes deleted keys too (it only answers "may exist").
                write.pk_index.insert(&key);
            }
            if let (Some(path), Some(doc)) = (index_path.as_ref(), doc.as_ref()) {
                let values: Vec<Value> = path.evaluate(doc).into_iter().cloned().collect();
                if let Some(secondary) = write.secondary.as_mut() {
                    for value in values {
                        secondary.insert(&value, &key);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docmodel::doc;

    fn tiny_config(layout: LayoutKind) -> DatasetConfig {
        DatasetConfig::new("test", layout)
            .with_memtable_budget(8 * 1024)
            .with_page_size(4 * 1024)
    }

    fn sample_record(i: i64) -> Value {
        doc!({
            "id": i,
            "user": {"name": (format!("user{}", i % 13)), "followers": (i % 997)},
            "text": (format!("record {i} body text with characters")),
            "timestamp": (1_000_000 + i),
            "tags": [(format!("tag{}", i % 5))]
        })
    }

    #[test]
    fn ingest_flush_merge_scan_all_layouts() {
        for layout in LayoutKind::ALL {
            let ds = LsmDataset::new(tiny_config(layout));
            for i in 0..500 {
                ds.insert(sample_record(i)).unwrap();
            }
            ds.flush().unwrap();
            assert!(ds.stats().flushes > 1, "{layout:?} should have flushed repeatedly");
            assert!(ds.component_count() >= 1);

            let docs = ds.scan(None).unwrap();
            assert_eq!(docs.len(), 500, "{layout:?}");
            assert_eq!(ds.count().unwrap(), 500, "{layout:?}");
            // Keys come back in order and records are intact.
            assert_eq!(docs[7].get_field("id"), Some(&Value::Int(7)));
            assert!(docs[7].get_path_str("user.name").is_some());
        }
    }

    #[test]
    fn updates_and_deletes_reconcile() {
        for layout in [LayoutKind::Vb, LayoutKind::Amax] {
            let ds = LsmDataset::new(tiny_config(layout));
            for i in 0..200 {
                ds.insert(sample_record(i)).unwrap();
            }
            // Update half of the records and delete a few.
            for i in (0..200).step_by(2) {
                let mut updated = sample_record(i);
                updated.set_field("text", Value::from("updated"));
                ds.insert(updated).unwrap();
            }
            for i in [3i64, 77, 199] {
                ds.delete(Value::Int(i)).unwrap();
            }
            ds.compact_fully().unwrap();
            assert_eq!(ds.component_count(), 1);

            assert_eq!(ds.count().unwrap(), 197, "{layout:?}");
            let doc = ds.lookup(&Value::Int(10), None).unwrap().unwrap();
            assert_eq!(doc.get_field("text"), Some(&Value::from("updated")));
            let doc = ds.lookup(&Value::Int(11), None).unwrap().unwrap();
            assert_ne!(doc.get_field("text"), Some(&Value::from("updated")));
            assert!(ds.lookup(&Value::Int(77), None).unwrap().is_none());
            assert!(ds.lookup(&Value::Int(100_000), None).unwrap().is_none());
        }
    }

    #[test]
    fn projection_scans_only_requested_fields() {
        let ds = LsmDataset::new(tiny_config(LayoutKind::Amax));
        for i in 0..100 {
            ds.insert(sample_record(i)).unwrap();
        }
        ds.flush().unwrap();
        let projected = ds.scan(Some(&[Path::parse("user.followers")])).unwrap();
        assert_eq!(projected.len(), 100);
        assert!(projected[0].get_path_str("user.followers").is_some());
        assert!(projected[0].get_field("text").is_none());
    }

    #[test]
    fn secondary_index_range_matches_full_scan_filter() {
        let config = tiny_config(LayoutKind::Apax).with_secondary_index(Path::parse("timestamp"));
        let ds = LsmDataset::new(config);
        for i in 0..300 {
            ds.insert(sample_record(i)).unwrap();
        }
        // Update some records so maintenance lookups happen.
        for i in 0..50 {
            ds.insert(sample_record(i)).unwrap();
        }
        ds.flush().unwrap();
        assert!(ds.stats().maintenance_lookups > 0);

        let lo = Value::Int(1_000_100);
        let hi = Value::Int(1_000_149);
        let via_index = ds.secondary_range(&lo, &hi, None).unwrap();
        assert_eq!(via_index.len(), 50);
        let via_scan: Vec<Value> = ds
            .scan(None)
            .unwrap()
            .into_iter()
            .filter(|d| {
                let ts = d.get_field("timestamp").and_then(Value::as_int).unwrap();
                (1_000_100..=1_000_149).contains(&ts)
            })
            .collect();
        assert_eq!(via_index.len(), via_scan.len());
    }

    #[test]
    fn schema_grows_across_flushes_and_is_a_superset() {
        let ds = LsmDataset::new(tiny_config(LayoutKind::Amax));
        for i in 0..50 {
            ds.insert(doc!({"id": i, "a": 1})).unwrap();
        }
        ds.flush().unwrap();
        let cols_before = schema::columns_of(&ds.schema()).len();
        for i in 50..100 {
            ds.insert(doc!({"id": i, "a": "heterogeneous now", "b": {"c": 2.5}})).unwrap();
        }
        ds.flush().unwrap();
        let cols_after = schema::columns_of(&ds.schema()).len();
        assert!(cols_after > cols_before);
        // Old and new records both survive scans despite the schema change.
        assert_eq!(ds.count().unwrap(), 100);
        let docs = ds.scan(None).unwrap();
        assert_eq!(docs.len(), 100);
    }

    #[test]
    fn missing_key_is_an_error() {
        let ds = LsmDataset::new(tiny_config(LayoutKind::Vb));
        assert!(ds.insert(doc!({"no_key": 1})).is_err());
        assert!(ds.insert(doc!({"id": null})).is_err());
    }

    #[test]
    fn stored_bytes_accounting() {
        let ds = LsmDataset::new(tiny_config(LayoutKind::Apax));
        for i in 0..200 {
            ds.insert(sample_record(i)).unwrap();
        }
        ds.flush().unwrap();
        assert!(ds.primary_stored_bytes() > 0);
        assert!(ds.total_stored_bytes() >= ds.primary_stored_bytes());
        assert!(ds.io_stats().pages_written > 0);
    }

    #[test]
    fn background_mode_reaches_the_same_state() {
        for layout in [LayoutKind::Vb, LayoutKind::Amax] {
            let sync_ds = LsmDataset::new(tiny_config(layout));
            let bg_ds = LsmDataset::new(tiny_config(layout).with_background(true));
            for ds in [&sync_ds, &bg_ds] {
                for i in 0..300 {
                    ds.insert(sample_record(i)).unwrap();
                }
                for i in [5i64, 100] {
                    ds.delete(Value::Int(i)).unwrap();
                }
                ds.flush().unwrap();
            }
            assert_eq!(sync_ds.scan(None).unwrap(), bg_ds.scan(None).unwrap(), "{layout:?}");
            assert!(bg_ds.stats().flushes > 1, "{layout:?}");
        }
    }

    #[test]
    fn shared_pool_serves_many_datasets() {
        // Three datasets, one two-worker pool: every dataset's flushes and
        // merges complete, reach the same state as inline processing, and
        // dropping the datasets before the pool quiesces them cleanly.
        let pool = WorkerPool::new(2);
        let datasets: Vec<LsmDataset> = (0..3)
            .map(|i| {
                LsmDataset::new(
                    DatasetConfig::new(format!("pooled-{i}"), LayoutKind::Amax)
                        .with_memtable_budget(8 * 1024)
                        .with_page_size(4 * 1024)
                        .with_background(true)
                        .with_pool(pool.handle()),
                )
            })
            .collect();
        for ds in &datasets {
            for i in 0..300 {
                ds.insert(sample_record(i)).unwrap();
            }
        }
        let reference = LsmDataset::new(tiny_config(LayoutKind::Amax));
        for i in 0..300 {
            reference.insert(sample_record(i)).unwrap();
        }
        reference.flush().unwrap();
        for ds in &datasets {
            ds.flush().unwrap();
            assert!(ds.stats().flushes > 1);
            assert_eq!(ds.scan(None).unwrap(), reference.scan(None).unwrap());
            assert_eq!(ds.health().worker, WorkerState::Idle);
        }
        drop(datasets);
        // The pool is still usable by later datasets.
        let late = LsmDataset::new(
            tiny_config(LayoutKind::Vb)
                .with_background(true)
                .with_pool(pool.handle()),
        );
        for i in 0..100 {
            late.insert(sample_record(i)).unwrap();
        }
        late.flush().unwrap();
        assert_eq!(late.count().unwrap(), 100);
    }

    #[test]
    fn dataset_survives_its_shared_pool_shutting_down() {
        // If the shared pool dies first (discouraged but possible), the
        // dataset falls back to inline flushing instead of hanging.
        let pool = WorkerPool::new(1);
        let ds = LsmDataset::new(
            tiny_config(LayoutKind::Amax)
                .with_background(true)
                .with_pool(pool.handle()),
        );
        for i in 0..100 {
            ds.insert(sample_record(i)).unwrap();
        }
        ds.flush().unwrap();
        drop(pool);
        for i in 100..200 {
            ds.insert(sample_record(i)).unwrap();
        }
        ds.flush().unwrap();
        assert_eq!(ds.count().unwrap(), 200);
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let ds = LsmDataset::new(tiny_config(LayoutKind::Amax));
        for i in 0..100 {
            ds.insert(sample_record(i)).unwrap();
        }
        let snapshot = ds.snapshot();
        assert_eq!(snapshot.count().unwrap(), 100);
        for i in 100..200 {
            ds.insert(sample_record(i)).unwrap();
        }
        ds.delete(Value::Int(0)).unwrap();
        ds.compact_fully().unwrap();
        // The snapshot still sees exactly the first 100 records, even though
        // the dataset has flushed, merged and retired components since.
        assert_eq!(snapshot.count().unwrap(), 100);
        assert!(snapshot.lookup(&Value::Int(0), None).unwrap().is_some());
        assert!(snapshot.lookup(&Value::Int(150), None).unwrap().is_none());
        assert_eq!(ds.count().unwrap(), 199);
    }

    #[test]
    fn leaf_cached_dataset_serves_warm_scans_without_page_reads() {
        for layout in LayoutKind::ALL {
            let leaf_cache = Arc::new(LeafCache::new(16 << 20));
            let ds = LsmDataset::new(tiny_config(layout).with_leaf_cache(leaf_cache.clone()));
            for i in 0..300 {
                ds.insert(sample_record(i)).unwrap();
            }
            ds.compact_fully().unwrap();

            ds.cache().clear();
            ds.cache().store().reset_stats();
            let cold = ds.scan(None).unwrap();
            let cold_io = ds.io_stats();
            assert!(cold_io.pages_read > 0, "{layout:?}");
            assert_eq!(cold_io.leaf_cache_hits, 0, "{layout:?}");
            assert!(cold_io.leaf_cache_misses > 0, "{layout:?}");

            // Clear the page cache too: warm reads must be served by the
            // decoded-leaf cache alone.
            ds.cache().clear();
            ds.cache().store().reset_stats();
            let warm = ds.scan(None).unwrap();
            assert_eq!(cold, warm, "{layout:?}");
            let warm_io = ds.io_stats();
            assert_eq!(warm_io.pages_read, 0, "{layout:?}");
            assert_eq!(
                warm_io.leaf_cache_hits,
                cold_io.leaf_cache_misses,
                "{layout:?}: every leaf that missed cold must hit warm"
            );
            assert_eq!(warm_io.leaf_cache_misses, 0, "{layout:?}");
            assert!(leaf_cache.resident_bytes() <= leaf_cache.capacity_bytes());
        }
    }

    #[test]
    fn merge_retirement_invalidates_decoded_leaves() {
        let leaf_cache = Arc::new(LeafCache::new(16 << 20));
        let ds = LsmDataset::new(
            tiny_config(LayoutKind::Apax).with_leaf_cache(leaf_cache.clone()),
        );
        for i in 0..200 {
            ds.insert(sample_record(i)).unwrap();
        }
        ds.flush().unwrap();
        // Warm the cache over the current components.
        let _ = ds.scan(None).unwrap();
        assert!(leaf_cache.resident_leaves() > 0);

        // A full compaction retires every input component; their decoded
        // leaves must leave the cache with them.
        ds.compact_fully().unwrap();
        assert_eq!(ds.component_count(), 1);
        assert!(leaf_cache.stats().invalidations > 0);
        // Whatever remains resident belongs to the merged survivor only.
        let snapshot = ds.snapshot();
        let live: Vec<u64> = snapshot.components().iter().map(|c| c.meta().id).collect();
        let cached: usize = live
            .iter()
            .map(|&id| snapshot.components()[0].cache().leaf_cache().unwrap().cached_leaf_count(id))
            .sum();
        assert_eq!(leaf_cache.resident_leaves(), cached);
        // And the merged output still reads correctly through the cache.
        assert_eq!(ds.scan(None).unwrap().len(), 200);
        assert_eq!(ds.scan(None).unwrap().len(), 200);
    }

    #[test]
    fn memory_budget_round_trips_and_reopen_derives_a_leaf_cache() {
        let dir = std::env::temp_dir()
            .join(format!("lsm-leafcache-tests-{}", std::process::id()))
            .join("budget-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let config = tiny_config(LayoutKind::Vb).with_memory_budget(8 << 20);
        {
            let ds = LsmDataset::open(&dir, config).unwrap();
            for i in 0..100 {
                ds.insert(sample_record(i)).unwrap();
            }
            ds.flush().unwrap();
        }
        let ds = LsmDataset::reopen(&dir).unwrap();
        assert_eq!(ds.config().memory_budget, 8 << 20);
        let leaf_cache = ds.config().leaf_cache.clone().expect(
            "reopen derives a leaf cache from the persisted budget",
        );
        assert_eq!(leaf_cache.capacity_bytes(), 4 << 20);
        // And it is actually wired through: a re-scan hits.
        let _ = ds.scan(None).unwrap();
        ds.cache().clear();
        ds.cache().store().reset_stats();
        let _ = ds.scan(None).unwrap();
        let io = ds.io_stats();
        assert_eq!(io.pages_read, 0);
        assert!(io.leaf_cache_hits > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
