//! Consistent point-in-time read views and their streaming cursors.
//!
//! The dataset publishes its LSM tree as an immutable [`TreeState`] behind
//! an atomically-swapped `Arc`: sealed (flush-pending) memtables plus the
//! stack of on-disk components. A [`Snapshot`] pairs one such tree with a
//! frozen copy of the active memtable, giving readers — point lookups,
//! scans, and the whole query engine — a view that is internally consistent
//! no matter how many writers, flushes and merges run concurrently:
//!
//! * flushes move records from a sealed memtable into a component, but a
//!   snapshot taken earlier still holds the sealed memtable's `Arc`;
//! * merges retire their input components *after* the manifest commit, and
//!   the pages are freed only when the last snapshot releases its handles
//!   (`Component::retire` in the storage crate);
//! * the reconciliation order inside a snapshot is always newest-first:
//!   active memtable, then sealed memtables (newest first), then components
//!   (newest first) — the most recent version of each key wins and
//!   anti-matter hides older versions.
//!
//! ## The cursor protocol
//!
//! Scans are *pull-based*. [`Snapshot::cursor`] builds a k-way
//! merge-reconcile cursor ([`ScanCursor`]) over all sources of the snapshot:
//! every source is key-sorted (memtables by construction, components by the
//! storage cursor protocol), so the merge yields records in global key order
//! while holding **at most one decoded leaf per component** in memory —
//! O(components × leaf) instead of O(dataset). Reconciliation happens on the
//! fly and on **keys alone**: sources expose their next key without
//! assembling the record; when several sources head the same key, the newest
//! source's version wins and is the only one assembled — the shadowed
//! versions are batch-skipped at the column-cursor level (§4.4), never
//! decoded into documents. Anti-matter annihilates its key without emitting
//! it. Dropping the cursor early (a `LIMIT`, a short-circuiting consumer)
//! leaves every unread leaf unread; both effects show up in the `IoStats`
//! counters (`pages_read`, `records_assembled`).
//!
//! The same machinery, with anti-matter *preserved*, drives the dataset's
//! merges and index rebuilds ([`EntryMergeCursor`]): a merge is exactly a
//! newest-first reconciling union of component cursors.
//!
//! ## Filter push-down (late materialization)
//!
//! [`Snapshot::cursor_pushed`] threads a conjunction of sargable
//! [`ColumnPredicate`]s down into every source. The contract:
//!
//! * The merge evaluates **only the reconciliation winner** of each key.
//!   Shadowed versions are batch-skipped *before* the winner is tested — a
//!   stale value must never decide whether a live record survives, and a
//!   rejected winner must never resurrect the versions it shadowed.
//! * A rejected winner is consumed without assembly: columnar components
//!   evaluate the predicates over the **filter columns alone**
//!   ([`ComponentCursor::pushed_matches`]) and batch-skip rejections like
//!   reconciliation losers, counted in `IoStats` as
//!   `records_filtered_pre_assembly`. Memtable rejections cost no I/O and
//!   are not counted.
//! * Whole leaves whose persisted zone maps prove no match are skipped
//!   before any page read (`leaves_skipped`) — but only when the leaf's key
//!   range is disjoint from every **older** component's key range, so
//!   hiding it can neither resurrect a shadowed version nor drop an
//!   anti-matter annihilation.
//! * Anti-matter always passes the filter: it has no value to test and must
//!   reach the merge to annihilate ([`ScanCursor`] then drops it).
//!
//! Predicates the planner cannot push (disjunctions, repeated paths — the
//! existential-semantics lesson) stay in the query layer's *residual*
//! filter, applied after assembly. Merges and index rebuilds never push
//! filters: they must preserve every surviving version and all anti-matter.
//!
//! Cursors are fully owned (`Arc`s into the snapshot's sources), so they can
//! outlive the `&Snapshot` borrow they were created from — the facade hands
//! them out as streaming query results.

use std::sync::Arc;

use docmodel::{total_cmp, Path, Value};
use storage::component::{
    ColumnPredicate, Component, ComponentCursor, ComponentReader, Entry, ScanFilter,
};

use crate::Result;

/// A memtable sealed for flushing: an immutable, key-sorted run of entries
/// plus the id of the newest WAL segment containing its records.
pub struct SealedMemtable {
    /// Entries in key order (`None` = anti-matter).
    pub(crate) entries: Vec<(Value, Option<Value>)>,
    /// Newest WAL segment covering these entries (durable datasets only).
    pub(crate) wal_segment: Option<u64>,
    /// Approximate heap footprint, for accounting.
    pub(crate) bytes: usize,
}

impl SealedMemtable {
    fn find(&self, key: &Value) -> Option<&Option<Value>> {
        self.entries
            .binary_search_by(|(k, _)| total_cmp(k, key))
            .ok()
            .map(|i| &self.entries[i].1)
    }
}

/// The immutable, atomically-swapped part of a dataset: everything except
/// the active memtable. Cloning is shallow (`Arc` bumps).
#[derive(Default, Clone)]
pub struct TreeState {
    /// Sealed memtables awaiting flush, oldest first.
    pub(crate) sealed: Vec<Arc<SealedMemtable>>,
    /// On-disk components, oldest first.
    pub(crate) components: Vec<Arc<Component>>,
}

/// A consistent point-in-time view of one dataset. Cloning is shallow: the
/// active memtable copy and the tree are both behind `Arc`s.
#[derive(Clone)]
pub struct Snapshot {
    /// Frozen copy of the active memtable, in key order.
    pub(crate) active: Arc<Vec<(Value, Option<Value>)>>,
    /// The published tree at snapshot time.
    pub(crate) tree: Arc<TreeState>,
}

impl Snapshot {
    /// Point lookup: newest version of `key`. `None` when the key does not
    /// exist or was deleted at snapshot time.
    pub fn lookup(&self, key: &Value, projection: Option<&[Path]>) -> Result<Option<Value>> {
        if let Ok(i) = self.active.binary_search_by(|(k, _)| total_cmp(k, key)) {
            return Ok(self.active[i].1.clone());
        }
        for sealed in self.tree.sealed.iter().rev() {
            if let Some(entry) = sealed.find(key) {
                return Ok(entry.clone());
            }
        }
        for component in self.tree.components.iter().rev() {
            if let Some(entry) = component.lookup(key, projection)? {
                return Ok(entry);
            }
        }
        Ok(None)
    }

    /// A streaming merge-reconcile cursor over the whole snapshot: live
    /// records in key order, duplicates reconciled newest-first, anti-matter
    /// dropped. Only the projected paths are assembled from columnar
    /// components. See the module-level cursor protocol.
    pub fn cursor(&self, projection: Option<&[Path]>) -> Result<ScanCursor> {
        Ok(ScanCursor {
            inner: self.entry_cursor(projection, &[], None),
        })
    }

    /// Like [`Snapshot::cursor`], but skipping the components whose position
    /// (oldest-first, matching [`Snapshot::components`]) is flagged in
    /// `skip`, and with a pushed-down filter. Missing trailing flags mean
    /// "do not skip"; an empty predicate list pushes no filter.
    ///
    /// `skip` is the zone-map pruning input: the query planner flags a
    /// component when its column statistics prove **no record in it can
    /// match the filter**. Skipping is nevertheless only sound when it
    /// cannot resurrect an older, shadowed version of one of the skipped
    /// component's keys (or drop one of its anti-matter entries): the caller
    /// must flag a component only if, additionally, its key range is
    /// disjoint from every *older* component's key range — see
    /// `query::physical::prune_flags`, the single implementation of that
    /// rule. Memtables are newer than every component and are always
    /// scanned, so they never constrain pruning.
    ///
    /// The conjunction of `predicates` is evaluated source-side on each
    /// key's reconciliation winner (filter columns only on columnar
    /// components — no assembly for rejections), and component leaves whose
    /// zone maps prove no match are skipped before any page read. See the
    /// module-level filter push-down contract.
    pub fn cursor_pushed(
        &self,
        projection: Option<&[Path]>,
        skip: &[bool],
        predicates: Arc<Vec<ColumnPredicate>>,
    ) -> Result<ScanCursor> {
        let filter = (!predicates.is_empty()).then_some(predicates);
        Ok(ScanCursor {
            inner: self.entry_cursor(projection, skip, filter),
        })
    }

    /// The underlying entry-level merge cursor (anti-matter included).
    fn entry_cursor(
        &self,
        projection: Option<&[Path]>,
        skip: &[bool],
        filter: Option<Arc<Vec<ColumnPredicate>>>,
    ) -> EntryMergeCursor {
        // Sources newest-first: active memtable, sealed memtables (newest
        // first), components (newest first, minus the pruned ones).
        let mut sources = Vec::with_capacity(1 + self.tree.sealed.len() + self.tree.components.len());
        sources.push(MergeSource::mem(self.active.clone()));
        for sealed in self.tree.sealed.iter().rev() {
            sources.push(MergeSource::sealed(sealed.clone()));
        }
        // Every component's key range, oldest first. Pruned components are
        // included: a component the *scan* skips entirely still has versions
        // a newer component's leaf could shadow, so it still constrains which
        // leaves may be hidden.
        let ranges: Vec<Option<(Value, Value)>> = if filter.is_some() {
            self.tree.components.iter().map(|c| c.key_range()).collect()
        } else {
            Vec::new()
        };
        for (i, component) in self.tree.components.iter().enumerate().rev() {
            if skip.get(i).copied().unwrap_or(false) {
                continue;
            }
            match &filter {
                Some(predicates) => {
                    let older: Vec<(Value, Value)> =
                        ranges[..i].iter().flatten().cloned().collect();
                    sources.push(MergeSource::disk(component.cursor_filtered(
                        projection,
                        Some(ScanFilter {
                            predicates: predicates.clone(),
                            older_key_ranges: Arc::new(older),
                        }),
                    )));
                }
                None => sources.push(MergeSource::disk(component.cursor(projection))),
            }
        }
        let mut cursor = EntryMergeCursor::new(sources);
        cursor.filter = filter;
        cursor
    }

    /// Scan the snapshot into a materialised batch, reconciling duplicates
    /// and dropping anti-matter. A convenience over [`Snapshot::cursor`] for
    /// callers that want the whole result anyway (tests, small datasets);
    /// the query engines stream instead.
    pub fn scan(&self, projection: Option<&[Path]>) -> Result<Vec<Value>> {
        let mut out = Vec::new();
        for entry in self.cursor(projection)? {
            out.push(entry?.1);
        }
        Ok(out)
    }

    /// Number of live records (COUNT(*)): streams the key-only cursor, so
    /// only primary keys are read (Page 0 alone for AMAX) and memory stays
    /// bounded by one leaf per component.
    pub fn count(&self) -> Result<usize> {
        let mut n = 0;
        for entry in self.cursor(Some(&[]))? {
            entry?;
            n += 1;
        }
        Ok(n)
    }

    /// Batched point lookups for the keys produced by a secondary index
    /// probe (§4.6): the keys are sorted, then each record is looked up and
    /// kept paired with its primary key — what the query layer's key-ordered
    /// projection output needs.
    pub fn lookup_sorted_entries(
        &self,
        keys: &mut [Value],
        projection: Option<&[Path]>,
    ) -> Result<Vec<(Value, Value)>> {
        keys.sort_by(docmodel::total_cmp);
        let mut out = Vec::with_capacity(keys.len());
        for key in keys.iter() {
            if let Some(doc) = self.lookup(key, projection)? {
                out.push((key.clone(), doc));
            }
        }
        Ok(out)
    }

    /// The on-disk components visible to this snapshot, oldest first.
    pub fn components(&self) -> &[Arc<Component>] {
        &self.tree.components
    }

    /// Approximate heap bytes held by sealed memtables at snapshot time
    /// (what backpressure bounds).
    pub fn sealed_bytes(&self) -> usize {
        self.tree.sealed.iter().map(|s| s.bytes).sum()
    }

    /// Records (and anti-matter) still in memory at snapshot time: the
    /// frozen active memtable plus every sealed memtable.
    pub fn in_memory_entries(&self) -> usize {
        self.active.len()
            + self
                .tree
                .sealed
                .iter()
                .map(|s| s.entries.len())
                .sum::<usize>()
    }
}

// ---------------------------------------------------------------------------
// The k-way merge-reconcile cursors.
// ---------------------------------------------------------------------------

/// One input of the merge: a key-sorted run of entries, either shared
/// in-memory slices (memtables) or a streaming component cursor.
enum SourceKind {
    /// Active memtable (frozen copy) or a sealed memtable's entries.
    Mem {
        entries: MemEntries,
        pos: usize,
    },
    /// A streaming on-disk component cursor (one leaf resident at a time).
    Disk(ComponentCursor),
}

/// The two shared in-memory entry runs a source can hold an `Arc` into.
enum MemEntries {
    Active(Arc<Vec<Entry>>),
    Sealed(Arc<SealedMemtable>),
}

impl MemEntries {
    fn get(&self, pos: usize) -> Option<&Entry> {
        match self {
            MemEntries::Active(entries) => entries.get(pos),
            MemEntries::Sealed(sealed) => sealed.entries.get(pos),
        }
    }
}

/// One merge input together with its buffered head **key**.
///
/// The merge reconciles on keys alone: a source's next entry is only
/// *assembled* ([`MergeSource::take_entry`]) when it wins its key, and
/// *skipped* ([`MergeSource::skip_entry`]) when a newer source shadows it —
/// for columnar components the skip advances every column cursor in one
/// batched step without decoding a single value (§4.4).
struct MergeSource {
    kind: SourceKind,
    /// The key of the source's next entry, peeked but not yet consumed.
    head_key: Option<Value>,
    /// Set once the source returned `None` (avoids re-polling).
    exhausted: bool,
}

impl MergeSource {
    fn mem(entries: Arc<Vec<Entry>>) -> MergeSource {
        MergeSource {
            kind: SourceKind::Mem { entries: MemEntries::Active(entries), pos: 0 },
            head_key: None,
            exhausted: false,
        }
    }

    fn sealed(sealed: Arc<SealedMemtable>) -> MergeSource {
        MergeSource {
            kind: SourceKind::Mem { entries: MemEntries::Sealed(sealed), pos: 0 },
            head_key: None,
            exhausted: false,
        }
    }

    fn disk(cursor: ComponentCursor) -> MergeSource {
        MergeSource { kind: SourceKind::Disk(cursor), head_key: None, exhausted: false }
    }

    /// Ensure `head_key` holds the source's next key (or mark it exhausted).
    /// The entry itself stays unassembled.
    fn fill_key(&mut self) -> Result<()> {
        if self.head_key.is_some() || self.exhausted {
            return Ok(());
        }
        match &mut self.kind {
            SourceKind::Mem { entries, pos } => match entries.get(*pos) {
                Some((key, _)) => self.head_key = Some(key.clone()),
                None => self.exhausted = true,
            },
            SourceKind::Disk(cursor) => match cursor.peek_key() {
                Some(key) => self.head_key = Some(key?),
                None => self.exhausted = true,
            },
        }
        Ok(())
    }

    /// Consume and assemble the entry whose key is `head_key` (the winner of
    /// the current merge step).
    fn take_entry(&mut self) -> Result<Entry> {
        self.head_key = None;
        match &mut self.kind {
            SourceKind::Mem { entries, pos } => {
                let entry = entries.get(*pos).expect("head key was filled").clone();
                *pos += 1;
                Ok(entry)
            }
            SourceKind::Disk(cursor) => cursor.next().expect("head key was filled"),
        }
    }

    /// Consume the entry whose key is `head_key` without assembling it (a
    /// shadowed version of a key a newer source already provided).
    fn skip_entry(&mut self) {
        self.head_key = None;
        match &mut self.kind {
            SourceKind::Mem { pos, .. } => *pos += 1,
            SourceKind::Disk(cursor) => cursor.skip_entry(),
        }
    }

    /// Does the source's next entry (the reconciliation winner of its key)
    /// pass the pushed-down filter? Memtable entries are evaluated in place
    /// (anti-matter always passes); disk sources delegate to the component
    /// cursor, which decodes filter columns only.
    fn head_passes_filter(&mut self, predicates: &[ColumnPredicate]) -> Result<bool> {
        match &mut self.kind {
            SourceKind::Mem { entries, pos } => Ok(match entries.get(*pos) {
                Some((_, Some(doc))) => predicates.iter().all(|p| p.matches(doc)),
                _ => true,
            }),
            SourceKind::Disk(cursor) => cursor.pushed_matches().unwrap_or(Ok(true)),
        }
    }

    /// Consume the entry whose key is `head_key` as a pushed-filter
    /// rejection. Disk sources count it as `records_filtered_pre_assembly`;
    /// memtable rejections cost no I/O and are uncounted.
    fn skip_entry_filtered(&mut self) {
        self.head_key = None;
        match &mut self.kind {
            SourceKind::Mem { pos, .. } => *pos += 1,
            SourceKind::Disk(cursor) => cursor.skip_entry_filtered(),
        }
    }

    /// Entries currently decoded and resident for this source (disk sources
    /// only — memtable sources share the snapshot's memory).
    fn buffered(&self) -> usize {
        match &self.kind {
            SourceKind::Mem { .. } => 0,
            SourceKind::Disk(cursor) => cursor.buffered(),
        }
    }
}

/// A k-way, newest-first merge-reconcile cursor over key-sorted entry runs.
///
/// Yields one [`Entry`] per distinct key, in ascending key order: the
/// version from the **newest** source holding the key (sources are ordered
/// newest-first at construction). Anti-matter entries are yielded as
/// `(key, None)` — callers that want live records only use [`ScanCursor`];
/// the dataset's merge keeps the anti-matter to write it into the merged
/// component.
pub struct EntryMergeCursor {
    /// Sources in newest-first order; index = reconciliation priority.
    sources: Vec<MergeSource>,
    /// Pushed-down filter: each key's reconciliation winner must pass this
    /// conjunction or the merge consumes it unassembled (see the module-level
    /// filter push-down contract). `None` = yield every winner.
    filter: Option<Arc<Vec<ColumnPredicate>>>,
    /// High-water mark of entries buffered across all sources (the peak-RSS
    /// proxy reported by the streaming benchmarks).
    peak_buffered: usize,
}

impl EntryMergeCursor {
    fn new(sources: Vec<MergeSource>) -> EntryMergeCursor {
        EntryMergeCursor { sources, filter: None, peak_buffered: 0 }
    }

    /// A merge cursor over on-disk components only (`components` given
    /// oldest-first, as stored in the tree), anti-matter preserved — the
    /// dataset's merge input.
    pub fn over_components(
        components: &[Arc<Component>],
        projection: Option<&[Path]>,
    ) -> EntryMergeCursor {
        EntryMergeCursor::new(
            components
                .iter()
                .rev()
                .map(|c| MergeSource::disk(c.cursor(projection)))
                .collect(),
        )
    }

    /// Like [`EntryMergeCursor::over_components`], with an additional
    /// in-memory key-sorted run that is newer than every component (the
    /// recovered memtable during index rebuilds).
    pub fn over_memtable_and_components(
        memtable_entries: Vec<Entry>,
        components: &[Arc<Component>],
        projection: Option<&[Path]>,
    ) -> EntryMergeCursor {
        let mut sources = vec![MergeSource::mem(Arc::new(memtable_entries))];
        for component in components.iter().rev() {
            sources.push(MergeSource::disk(component.cursor(projection)));
        }
        EntryMergeCursor::new(sources)
    }

    /// High-water mark of entries decoded and buffered across all disk
    /// sources so far — at most one leaf per component, the memory bound of
    /// the streaming scan (used as the peak-RSS proxy in benchmarks).
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// Advance every source past all entries with key `<= bound` **without
    /// assembling them**: only key columns are decoded and each shadowed
    /// entry is batch-skipped at the column-cursor level, exactly like a
    /// reconciliation loser (§4.4). After the call, the cursor's next entry
    /// is the smallest key strictly greater than `bound`.
    ///
    /// This is what lets a long-running scan be *re-pinned* on a fresh
    /// snapshot mid-stream (bounded staleness): rebuild the cursor, then
    /// `skip_to` the last key already delivered. Cost is proportional to the
    /// skipped prefix's key columns, not to record assembly.
    pub fn skip_to(&mut self, bound: &Value) -> Result<()> {
        for source in &mut self.sources {
            loop {
                source.fill_key()?;
                match &source.head_key {
                    Some(key) if total_cmp(key, bound) != std::cmp::Ordering::Greater => {
                        source.skip_entry();
                    }
                    _ => break,
                }
            }
        }
        Ok(())
    }

    fn advance(&mut self) -> Result<Option<Entry>> {
        let filter = self.filter.clone();
        loop {
            // Fill every head key, then account the buffered high-water mark.
            for source in &mut self.sources {
                source.fill_key()?;
            }
            let buffered: usize = self.sources.iter().map(MergeSource::buffered).sum();
            self.peak_buffered = self.peak_buffered.max(buffered);

            // The smallest head key wins; among equal keys, the newest source
            // (lowest index) provides the surviving version.
            let mut best: Option<usize> = None;
            for (i, source) in self.sources.iter().enumerate() {
                let Some(key) = &source.head_key else { continue };
                match best {
                    None => best = Some(i),
                    Some(b) => {
                        let best_key = self.sources[b].head_key.as_ref().expect("head filled");
                        if total_cmp(key, best_key) == std::cmp::Ordering::Less {
                            best = Some(i);
                        }
                    }
                }
            }
            let Some(best) = best else { return Ok(None) };
            // The shadowed versions of the winning key in older sources are
            // skipped column-cursor-batch-wise, never decoded into documents
            // (§4.4) — *before* the winner is evaluated or assembled, so a
            // filter-rejected winner can never resurrect them.
            let best_key = self.sources[best].head_key.clone().expect("head filled");
            for source in &mut self.sources[best + 1..] {
                if let Some(key) = &source.head_key {
                    if total_cmp(key, &best_key) == std::cmp::Ordering::Equal {
                        source.skip_entry();
                    }
                }
            }
            // Pushed-down filter: only the winner is evaluated (filter
            // columns alone on columnar components); a rejection is consumed
            // without assembly and the merge moves on.
            if let Some(predicates) = &filter {
                if !self.sources[best].head_passes_filter(predicates)? {
                    self.sources[best].skip_entry_filtered();
                    continue;
                }
            }
            // Only the winner is assembled.
            return Ok(Some(self.sources[best].take_entry()?));
        }
    }
}

impl Iterator for EntryMergeCursor {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        self.advance().transpose()
    }
}

/// The snapshot-level streaming scan: live `(key, record)` pairs in key
/// order, anti-matter dropped. Created by [`Snapshot::cursor`] /
/// [`Snapshot::cursor_pushed`]; fully owned, so it may outlive the snapshot
/// borrow it came from.
pub struct ScanCursor {
    inner: EntryMergeCursor,
}

impl ScanCursor {
    /// High-water mark of entries decoded and buffered across all disk
    /// sources so far (see [`EntryMergeCursor::peak_buffered`]).
    pub fn peak_buffered(&self) -> usize {
        self.inner.peak_buffered()
    }

    /// Skip (without assembling) every entry with key `<= bound`; the next
    /// yielded record is the smallest live key strictly greater than
    /// `bound`. See [`EntryMergeCursor::skip_to`].
    pub fn skip_to(&mut self, bound: &Value) -> Result<()> {
        self.inner.skip_to(bound)
    }
}

impl Iterator for ScanCursor {
    type Item = Result<(Value, Value)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.inner.next()? {
                Ok((key, Some(doc))) => return Some(Ok((key, doc))),
                Ok((_, None)) => continue, // anti-matter: key is deleted
                Err(e) => return Some(Err(e)),
            }
        }
    }
}
