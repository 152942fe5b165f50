//! The append-only segment store: WAL + sealed columnar segments + index
//! + live aggregate, behind one handle.
//!
//! Write path: [`SegmentStore::append`] frames the row into the WAL
//! (write + fsync under the store lock — the WAL is the serialization
//! point), folds it into the in-memory index and live [`AggState`], and
//! seals a columnar segment once the WAL holds a segment's worth of rows.
//! Sealed segments and the index file are written tmp + fsync + rename
//! (`write_atomic`).
//!
//! Crash/corruption contract (quarantine-and-recompute): a torn WAL tail
//! is quarantined to `wal.corrupt` and truncated away; a segment failing
//! any CRC is renamed to `*.corrupt` wholesale; `*.tmp` droppings of a
//! write that crashed before its rename are removed at open; the index is
//! *advisory* — missing, stale, or half-renamed index files are rebuilt
//! from the segment scan. Every quarantined record is recomputable by
//! construction, so corruption is only ever a cache miss.
//!
//! Concurrency: a segment directory has **one owner** — one open handle
//! (cloned or `Arc`-shared freely; handles are `Sync` and appends
//! serialize on the store lock). There is no lock file, because no
//! committed flow opens a directory twice at once. What two simultaneous
//! owners get is pinned by test instead: each truncates the other's WAL
//! rows and overwrites the other's segment ids, so cache rows are *lost*
//! (a later miss, recomputed) — never a wrong record and never a panic,
//! because every row on disk is CRC-framed and content-keyed.

use crate::aggregate::{AggState, CompactStats, HotRow, QueryFilter, QueryResult, SegStats};
use crate::codec::{crc32, Corrupt, Dec, DecResult, Enc};
use crate::lz;
use crate::segment::{decode_segment, encode_segment, SegmentData};
use crate::wal::{encode_entry, scan, WalEntry};
#[cfg(feature = "faults")]
use atscale_faults::{injected_io_error, FaultPlan, FaultSite};
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

const WAL_NAME: &str = "wal.log";
const INDEX_NAME: &str = "index.bin";
const INDEX_MAGIC: u32 = 0x5844_4941; // "AIDX"

/// Default number of WAL rows that triggers sealing a segment.
pub const DEFAULT_SEAL_THRESHOLD: usize = 256;

/// Per-process counter uniquifying concurrent tmp files (a segment
/// directory has one owner, so process-local uniqueness suffices).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Where a live key's newest row lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// Row `i` of the active WAL.
    Wal(usize),
    /// Row `row` of sealed segment `id`.
    Seg { id: u64, row: usize },
}

struct SegMeta {
    id: u64,
    path: PathBuf,
    bytes: u64,
    data: SegmentData,
}

struct Inner {
    wal: Vec<WalEntry>,
    wal_file: Option<fs::File>,
    wal_bytes: u64,
    segments: Vec<SegMeta>,
    index: HashMap<String, Loc>,
    live: AggState,
    dead_rows: u64,
    quarantined: u64,
    seal_threshold: usize,
    index_bytes: u64,
}

impl Inner {
    fn seg_by_id(&self, id: u64) -> &SegMeta {
        let i = self
            .segments
            .binary_search_by_key(&id, |s| s.id)
            .expect("index only references loaded segments");
        &self.segments[i]
    }

    fn hot_at(&self, loc: Loc) -> &HotRow {
        match loc {
            Loc::Wal(i) => &self.wal[i].hot,
            Loc::Seg { id, row } => &self.seg_by_id(id).data.hots[row],
        }
    }

    fn raw_at(&self, loc: Loc) -> &[u8] {
        match loc {
            Loc::Wal(i) => &self.wal[i].raw_lz,
            Loc::Seg { id, row } => &self.seg_by_id(id).data.raws[row],
        }
    }

    /// Folds one committed row into the index and live aggregate,
    /// retracting the row it supersedes (last write wins, exactly).
    fn commit(&mut self, key: &str, loc: Loc, hot: &HotRow) {
        if let Some(prev) = self.index.insert(key.to_string(), loc) {
            let prev_hot = self.hot_at(prev).clone();
            self.live.remove(&prev_hot);
            self.dead_rows += 1;
        }
        self.live.add(hot);
    }

    /// Live sealed rows as sorted `(key, seg_id, row)` triples — the
    /// index file's canonical content.
    fn sealed_entries(&self) -> Vec<(String, u64, u32)> {
        let mut out = Vec::new();
        for seg in &self.segments {
            for (row, key) in seg.data.keys.iter().enumerate() {
                if self.index.get(key) == Some(&Loc::Seg { id: seg.id, row }) {
                    out.push((key.clone(), seg.id, row as u32));
                }
            }
        }
        out.sort();
        out
    }
}

/// An append-only columnar run-record store. See the module docs for the
/// on-disk layout and crash contract.
pub struct SegmentStore {
    dir: PathBuf,
    inner: Mutex<Inner>,
    tmp_collected: u64,
    #[cfg(feature = "faults")]
    faults: Mutex<Option<std::sync::Arc<FaultPlan>>>,
}

impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentStore")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl SegmentStore {
    /// Opens (creating if needed) a segment store at `dir`, scanning
    /// sealed segments and the WAL: corrupt segments and torn WAL tails
    /// are quarantined, `*.tmp` droppings are removed, the index and live
    /// aggregate are rebuilt, and a missing or stale index file is
    /// rewritten.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created or read.
    /// Corrupt *contents* never error — they quarantine.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<SegmentStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut inner = Inner {
            wal: Vec::new(),
            wal_file: None,
            wal_bytes: 0,
            segments: Vec::new(),
            index: HashMap::new(),
            live: AggState::new(),
            dead_rows: 0,
            quarantined: 0,
            seal_threshold: DEFAULT_SEAL_THRESHOLD,
            index_bytes: 0,
        };
        // Sealed segments, in id order. One owner per directory, so any
        // `*.tmp` here is the dropping of a write that crashed: removed.
        let mut seg_paths: Vec<(u64, PathBuf)> = Vec::new();
        let mut tmp_collected = 0;
        for entry in fs::read_dir(&dir)?.filter_map(Result::ok) {
            let path = entry.path();
            if let Some(id) = segment_id(&path) {
                seg_paths.push((id, path));
            } else if path.extension().is_some_and(|x| x == "tmp") && fs::remove_file(&path).is_ok()
            {
                tmp_collected += 1;
            }
        }
        seg_paths.sort();
        for (id, path) in seg_paths {
            let bytes = fs::read(&path)?;
            match decode_segment(&bytes) {
                Ok(data) => inner.segments.push(SegMeta {
                    id,
                    path,
                    bytes: bytes.len() as u64,
                    data,
                }),
                Err(Corrupt) => {
                    let mut quarantine = path.clone().into_os_string();
                    quarantine.push(".corrupt");
                    let _ = fs::rename(&path, &quarantine);
                    inner.quarantined += 1;
                }
            }
        }
        // The active WAL: quarantine and truncate any torn tail.
        let wal_path = dir.join(WAL_NAME);
        if let Ok(bytes) = fs::read(&wal_path) {
            let scanned = scan(&bytes);
            if let Some(tail) = scanned.torn_tail {
                let _ = fs::write(dir.join("wal.corrupt"), tail);
                let file = fs::OpenOptions::new().write(true).open(&wal_path)?;
                file.set_len(scanned.good_bytes)?;
                file.sync_all()?;
                inner.quarantined += 1;
            }
            inner.wal_bytes = scanned.good_bytes;
            inner.wal = scanned.entries;
        }
        // Rebuild index + live aggregate in commit order.
        for s in 0..inner.segments.len() {
            for row in 0..inner.segments[s].data.rows() {
                let id = inner.segments[s].id;
                let key = inner.segments[s].data.keys[row].clone();
                let hot = inner.segments[s].data.hots[row].clone();
                inner.commit(&key, Loc::Seg { id, row }, &hot);
            }
        }
        for i in 0..inner.wal.len() {
            let key = inner.wal[i].key.clone();
            let hot = inner.wal[i].hot.clone();
            inner.commit(&key, Loc::Wal(i), &hot);
        }
        let store = SegmentStore {
            dir,
            inner: Mutex::new(inner),
            tmp_collected,
            #[cfg(feature = "faults")]
            faults: Mutex::new(None),
        };
        {
            let mut inner = store.guard();
            // Self-heal the advisory index: rewrite unless the persisted
            // file already matches the scan.
            let computed = inner.sealed_entries();
            match load_index(&store.dir.join(INDEX_NAME)) {
                Ok(persisted) if persisted == computed => {
                    inner.index_bytes =
                        fs::metadata(store.dir.join(INDEX_NAME)).map_or(0, |m| m.len());
                }
                _ => {
                    // analyze:allow(lock-io): open is single-threaded — the handle has not been shared yet, so holding the freshly built index lock across the advisory index rewrite cannot block anyone
                    let _ = store.persist_index(&mut inner, &computed);
                }
            }
        }
        Ok(store)
    }

    /// Sets the number of WAL rows that triggers sealing a segment.
    #[must_use]
    pub fn with_seal_threshold(self, rows: usize) -> Self {
        self.set_seal_threshold(rows);
        self
    }

    /// [`SegmentStore::with_seal_threshold`] for an already-shared handle.
    pub fn set_seal_threshold(&self, rows: usize) {
        self.guard().seal_threshold = rows.max(1);
    }

    /// Attaches a fault-injection plan: subsequent appends route through
    /// the plan's `StoreWrite`/`SegmentTorn` sites, segment and index
    /// renames through `StoreRename`/`IndexRename`. Test-only machinery.
    #[cfg(feature = "faults")]
    pub fn set_fault_plan(&self, plan: std::sync::Arc<FaultPlan>) {
        *self.faults.lock().unwrap_or_else(PoisonError::into_inner) = Some(plan);
    }

    #[cfg(feature = "faults")]
    fn plan(&self) -> Option<std::sync::Arc<FaultPlan>> {
        self.faults
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The injected I/O error when the attached plan fires at `site`.
    #[cfg(feature = "faults")]
    fn inject(&self, site: FaultSite) -> std::io::Result<()> {
        match self.plan() {
            Some(plan) if plan.check(site).is_some() => Err(injected_io_error(site)),
            _ => Ok(()),
        }
    }

    fn guard(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one record: `key` is the caller's dedup key (the
    /// spec+config byte hash), `hot` the extracted column row, `raw` the
    /// exact record JSON (stored LZ-compressed, returned verbatim by
    /// [`SegmentStore::load`] for bit-for-bit replay).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the WAL write or a due seal fails.
    /// Persistence is advisory — callers treat failure as a miss.
    pub fn append(&self, key: &str, hot: HotRow, raw: &[u8]) -> std::io::Result<()> {
        let entry = WalEntry {
            key: key.to_string(),
            hot,
            raw_lz: lz::compress(raw),
        };
        #[allow(unused_mut)]
        let mut frame = encode_entry(&entry);
        #[allow(unused_mut)]
        let mut torn = false;
        #[cfg(feature = "faults")]
        if let Some(plan) = self.plan() {
            if let Some(rule) = plan.check(FaultSite::SegmentTorn) {
                // A torn append: a strict prefix of the frame reaches disk,
                // as if the process died mid-write. The row never commits
                // in memory; reopen quarantines the tail.
                let keep = ((frame.len() as f64) * rule.torn_keep) as usize;
                frame.truncate(keep.min(frame.len().saturating_sub(1)));
                torn = true;
            }
        }
        #[cfg(feature = "faults")]
        self.inject(FaultSite::StoreWrite)?;
        let mut inner = self.guard();
        if inner.wal_file.is_none() {
            inner.wal_file = Some(
                fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.dir.join(WAL_NAME))?,
            );
        }
        let mut file = inner.wal_file.as_ref().expect("just opened");
        // analyze:allow(lock-io): the WAL append is the store's serialization point — the frame write must be ordered under the same lock as the in-memory index it commits to
        file.write_all(&frame)?;
        file.sync_data()?;
        inner.wal_bytes += frame.len() as u64;
        if torn {
            return Ok(());
        }
        let loc = Loc::Wal(inner.wal.len());
        inner.commit(key, loc, &entry.hot);
        inner.wal.push(entry);
        if inner.wal.len() >= inner.seal_threshold {
            self.seal_locked(&mut inner)?;
        }
        Ok(())
    }

    /// Loads the raw record JSON stored under `key`, byte-for-byte as it
    /// was appended. `None` on a miss.
    pub fn load(&self, key: &str) -> Option<Vec<u8>> {
        let inner = self.guard();
        let loc = *inner.index.get(key)?;
        lz::decompress(inner.raw_at(loc)).ok()
    }

    /// Whether `key` has a live row.
    pub fn contains(&self, key: &str) -> bool {
        self.guard().index.contains_key(key)
    }

    /// Number of live (distinct-key) rows.
    pub fn live_len(&self) -> u64 {
        self.guard().index.len() as u64
    }

    /// Seals the active WAL into a columnar segment now (normally
    /// automatic at the seal threshold).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the segment cannot be written.
    pub fn seal(&self) -> std::io::Result<()> {
        let mut inner = self.guard();
        // analyze:allow(lock-io): sealing rewrites files the index under this lock describes
        self.seal_locked(&mut inner)
    }

    fn seal_locked(&self, inner: &mut Inner) -> std::io::Result<()> {
        if inner.wal.is_empty() {
            return Ok(());
        }
        let id = inner.segments.last().map_or(0, |s| s.id + 1);
        let keys: Vec<String> = inner.wal.iter().map(|e| e.key.clone()).collect();
        let hots: Vec<HotRow> = inner.wal.iter().map(|e| e.hot.clone()).collect();
        let raws: Vec<Vec<u8>> = inner.wal.iter().map(|e| e.raw_lz.clone()).collect();
        let image = encode_segment(&keys, &hots, &raws);
        let path = self.dir.join(format!("seg-{id:06}.seg"));
        self.write_atomic(&path, &image)?;
        let mut agg = AggState::new();
        for hot in &hots {
            agg.add(hot);
        }
        // Relocate live WAL rows to their sealed positions.
        for (row, key) in keys.iter().enumerate() {
            if inner.index.get(key) == Some(&Loc::Wal(row)) {
                inner.index.insert(key.clone(), Loc::Seg { id, row });
            }
        }
        inner.segments.push(SegMeta {
            id,
            path,
            bytes: image.len() as u64,
            data: SegmentData {
                keys,
                hots,
                raws,
                agg,
            },
        });
        inner.wal.clear();
        inner.wal_bytes = 0;
        if let Some(file) = &inner.wal_file {
            file.set_len(0)?;
            file.sync_all()?;
        }
        // The index is advisory: a failed persist (including the injected
        // IndexRename fault) leaves a stale file that reopen rebuilds.
        let entries = inner.sealed_entries();
        let _ = self.persist_index(inner, &entries);
        Ok(())
    }

    /// Rewrites every live row into a single fresh segment, dropping
    /// superseded rows, the WAL backlog, and all old segment files.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the compacted segment cannot be written;
    /// the store is unchanged in that case.
    pub fn compact(&self) -> std::io::Result<CompactStats> {
        let mut inner = self.guard();
        let bytes_before = inner.segments.iter().map(|s| s.bytes).sum::<u64>()
            + inner.wal_bytes
            + inner.index_bytes;
        let segments_before = inner.segments.len() as u64;
        let dead_rows_dropped = inner.dead_rows;
        // Live rows, sorted by key for a deterministic image.
        let mut rows: Vec<(String, HotRow, Vec<u8>)> = Vec::new();
        for (key, loc) in &inner.index {
            rows.push((
                key.clone(),
                inner.hot_at(*loc).clone(),
                inner.raw_at(*loc).to_vec(),
            ));
        }
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        let id = inner.segments.last().map_or(0, |s| s.id + 1);
        let mut stats = CompactStats {
            segments_before,
            segments_after: 0,
            live_rows: rows.len() as u64,
            dead_rows_dropped,
            bytes_before,
            bytes_after: 0,
        };
        let new_meta = if rows.is_empty() {
            None
        } else {
            let keys: Vec<String> = rows.iter().map(|r| r.0.clone()).collect();
            let hots: Vec<HotRow> = rows.iter().map(|r| r.1.clone()).collect();
            let raws: Vec<Vec<u8>> = rows.iter().map(|r| r.2.clone()).collect();
            let image = encode_segment(&keys, &hots, &raws);
            let path = self.dir.join(format!("seg-{id:06}.seg"));
            // analyze:allow(lock-io): compaction replaces the files the index under this lock describes
            self.write_atomic(&path, &image)?;
            let mut agg = AggState::new();
            for hot in &hots {
                agg.add(hot);
            }
            Some(SegMeta {
                id,
                path,
                bytes: image.len() as u64,
                data: SegmentData {
                    keys,
                    hots,
                    raws,
                    agg,
                },
            })
        };
        // Point of no return: the compacted segment (if any) is durable.
        for seg in &inner.segments {
            let _ = fs::remove_file(&seg.path);
        }
        inner.segments = new_meta.into_iter().collect();
        inner.wal.clear();
        inner.wal_bytes = 0;
        if let Some(file) = &inner.wal_file {
            file.set_len(0)?;
            file.sync_all()?;
        }
        inner.index.clear();
        inner.live = AggState::new();
        inner.dead_rows = 0;
        for s in 0..inner.segments.len() {
            for row in 0..inner.segments[s].data.rows() {
                let id = inner.segments[s].id;
                let key = inner.segments[s].data.keys[row].clone();
                let hot = inner.segments[s].data.hots[row].clone();
                inner.commit(&key, Loc::Seg { id, row }, &hot);
            }
        }
        let entries = inner.sealed_entries();
        // analyze:allow(lock-io): the advisory index must describe the compacted segment set this lock just installed; releasing before the rewrite would let an append interleave a stale index
        let _ = self.persist_index(&mut inner, &entries);
        stats.segments_after = inner.segments.len() as u64;
        stats.bytes_after = inner.segments.iter().map(|s| s.bytes).sum::<u64>() + inner.index_bytes;
        Ok(stats)
    }

    /// Answers `filter` from the live aggregate — `O(matching groups)`,
    /// independent of run count.
    pub fn query(&self, filter: &QueryFilter) -> QueryResult {
        self.guard().live.query(filter)
    }

    /// A snapshot of the live aggregate state.
    pub fn aggregate(&self) -> AggState {
        self.guard().live.clone()
    }

    /// `*.tmp` droppings of crashed writes that [`SegmentStore::open`]
    /// found and removed.
    pub fn tmp_collected(&self) -> u64 {
        self.tmp_collected
    }

    /// Store occupancy counters (maintained incrementally; no directory
    /// scan).
    pub fn seg_stats(&self) -> SegStats {
        let inner = self.guard();
        SegStats {
            segments: inner.segments.len() as u64,
            segment_rows: inner.segments.iter().map(|s| s.data.rows() as u64).sum(),
            wal_rows: inner.wal.len() as u64,
            live_rows: inner.index.len() as u64,
            dead_rows: inner.dead_rows,
            disk_bytes: inner.segments.iter().map(|s| s.bytes).sum::<u64>()
                + inner.wal_bytes
                + inner.index_bytes,
            quarantined: inner.quarantined,
        }
    }

    /// Visits every live row in deterministic order (sealed segments by
    /// id then the WAL, in row order) with its key, hot columns, and
    /// decompressed raw record JSON. The verification path: recomputing
    /// aggregates from these rows must match [`SegmentStore::query`].
    pub fn for_each_live<F: FnMut(&str, &HotRow, Vec<u8>)>(&self, mut f: F) {
        let inner = self.guard();
        for seg in &inner.segments {
            for (row, key) in seg.data.keys.iter().enumerate() {
                if inner.index.get(key) == Some(&Loc::Seg { id: seg.id, row }) {
                    if let Ok(raw) = lz::decompress(&seg.data.raws[row]) {
                        f(key, &seg.data.hots[row], raw);
                    }
                }
            }
        }
        for (i, entry) in inner.wal.iter().enumerate() {
            if inner.index.get(&entry.key) == Some(&Loc::Wal(i)) {
                if let Ok(raw) = lz::decompress(&entry.raw_lz) {
                    f(&entry.key, &entry.hot, raw);
                }
            }
        }
    }

    /// Writes `bytes` to `path` via a unique tmp file, fsync, and atomic
    /// rename; a failure at any step removes the tmp file again.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("store paths are valid UTF-8");
        let tmp = self.dir.join(format!(
            ".{name}.{}.tmp",
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let result = (|| {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_all()?;
            #[cfg(feature = "faults")]
            self.inject(if name == INDEX_NAME {
                FaultSite::IndexRename
            } else {
                FaultSite::StoreRename
            })?;
            fs::rename(&tmp, path)
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    fn persist_index(
        &self,
        inner: &mut Inner,
        entries: &[(String, u64, u32)],
    ) -> std::io::Result<()> {
        let mut payload = Enc::new();
        payload.u32(u32::try_from(entries.len()).expect("entry count fits u32"));
        for (key, id, row) in entries {
            payload.str(key);
            payload.u64(*id);
            payload.u32(*row);
        }
        let payload = payload.finish();
        let mut image = Enc::new();
        image.u32(INDEX_MAGIC);
        image.u32(u32::try_from(payload.len()).expect("index stays under 4 GiB"));
        image.u32(crc32(&payload));
        let mut image = image.finish();
        image.extend_from_slice(&payload);
        self.write_atomic(&self.dir.join(INDEX_NAME), &image)?;
        inner.index_bytes = image.len() as u64;
        Ok(())
    }
}

/// Parses `seg-NNNNNN.seg` names; anything else is not a segment.
fn segment_id(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let stem = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
    stem.parse().ok()
}

/// Reads and validates the index file into sorted `(key, seg_id, row)`
/// triples.
fn load_index(path: &Path) -> DecResult<Vec<(String, u64, u32)>> {
    let bytes = fs::read(path).map_err(|_| Corrupt)?;
    let mut dec = Dec::new(&bytes);
    if dec.u32()? != INDEX_MAGIC {
        return Err(Corrupt);
    }
    let len = dec.u32()? as usize;
    let crc = dec.u32()?;
    if dec.remaining() != len {
        return Err(Corrupt);
    }
    let payload = &bytes[12..];
    if crc32(payload) != crc {
        return Err(Corrupt);
    }
    let mut dec = Dec::new(payload);
    let count = dec.u32()? as usize;
    let mut out = Vec::with_capacity(count.min(65_536));
    for _ in 0..count {
        out.push((dec.str()?, dec.u64()?, dec.u32()?));
    }
    dec.done()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regress::x_fp;
    use crate::sketch::value_fp;

    fn hot(workload: &str, mb: u64, seed: u64, wcpi: f64) -> HotRow {
        HotRow {
            workload: workload.to_string(),
            footprint_mb: mb,
            page_size: "4K".to_string(),
            seed,
            source: "sim".to_string(),
            arch: "baseline".to_string(),
            wcpi_fp: value_fp(wcpi),
            x_fp: x_fp((mb as f64 * 1024.0).log10()),
            walk_duration_cycles: (wcpi * 1e5) as u64,
            inst_retired: 100_000,
            cycles: 150_000,
            walks_initiated: 90,
            walks_completed: 80,
            walks_retired: 70,
        }
    }

    fn raw(seed: u64) -> Vec<u8> {
        format!(r#"{{"spec":{{"seed":{seed}}},"result":{{"counters":{{}}}}}}"#).into_bytes()
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("atscale-results-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_load_roundtrip_is_byte_exact() {
        let dir = scratch("roundtrip");
        let store = SegmentStore::open(&dir).unwrap();
        assert!(store.load("00").is_none());
        store
            .append("00", hot("cc-urand", 16, 1, 0.1), &raw(1))
            .unwrap();
        assert_eq!(store.load("00").unwrap(), raw(1));
        assert!(store.contains("00"));
        assert_eq!(store.live_len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rows_survive_reopen_before_and_after_seal() {
        let dir = scratch("reopen");
        {
            let store = SegmentStore::open(&dir).unwrap().with_seal_threshold(2);
            store
                .append("aa", hot("cc-urand", 16, 1, 0.1), &raw(1))
                .unwrap();
            // One row: still in the WAL.
            assert_eq!(store.seg_stats().wal_rows, 1);
            store
                .append("bb", hot("cc-urand", 64, 2, 0.4), &raw(2))
                .unwrap();
            // Threshold reached: sealed into a segment.
            let stats = store.seg_stats();
            assert_eq!(stats.segments, 1);
            assert_eq!(stats.wal_rows, 0);
            store
                .append("cc", hot("bfs-urand", 16, 3, 0.3), &raw(3))
                .unwrap();
        }
        let store = SegmentStore::open(&dir).unwrap();
        for (key, seed) in [("aa", 1u64), ("bb", 2), ("cc", 3)] {
            assert_eq!(store.load(key).unwrap(), raw(seed), "{key}");
        }
        let stats = store.seg_stats();
        assert_eq!(stats.live_rows, 3);
        assert_eq!(stats.segments, 1);
        assert_eq!(stats.wal_rows, 1);
        assert_eq!(stats.quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_keys_are_last_write_wins_with_exact_aggregate_retraction() {
        let dir = scratch("dup");
        let store = SegmentStore::open(&dir).unwrap().with_seal_threshold(2);
        store
            .append("aa", hot("cc-urand", 16, 1, 0.1), &raw(1))
            .unwrap();
        store
            .append("bb", hot("cc-urand", 64, 2, 0.4), &raw(2))
            .unwrap(); // seals
                       // Re-save `aa` with different measurements (the harness's
                       // samples-refresh overwrite).
        store
            .append("aa", hot("cc-urand", 16, 1, 0.9), &raw(9))
            .unwrap();
        assert_eq!(store.load("aa").unwrap(), raw(9), "newest wins");
        let stats = store.seg_stats();
        assert_eq!(stats.live_rows, 2);
        assert_eq!(stats.dead_rows, 1);
        // The aggregate must equal one built from only the live rows.
        let mut expect = AggState::new();
        expect.add(&hot("cc-urand", 16, 1, 0.9));
        expect.add(&hot("cc-urand", 64, 2, 0.4));
        assert_eq!(store.aggregate(), expect);
        // And survive a reopen (segment row superseded by WAL row).
        drop(store);
        let store = SegmentStore::open(&dir).unwrap();
        assert_eq!(store.aggregate(), expect);
        assert_eq!(store.load("aa").unwrap(), raw(9));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_drops_dead_rows_and_preserves_everything_live() {
        let dir = scratch("compact");
        let store = SegmentStore::open(&dir).unwrap().with_seal_threshold(2);
        for (key, seed, wcpi) in [
            ("aa", 1u64, 0.1),
            ("bb", 2, 0.4),
            ("cc", 3, 0.3),
            ("aa", 9, 0.9),
        ] {
            store
                .append(
                    key,
                    hot("cc-urand", 16 * seed.max(1), seed, wcpi),
                    &raw(seed),
                )
                .unwrap();
        }
        let agg_before = store.aggregate();
        let query_before = store.query(&QueryFilter::default());
        let stats = store.compact().unwrap();
        assert_eq!(stats.live_rows, 3);
        assert_eq!(stats.dead_rows_dropped, 1);
        assert_eq!(stats.segments_after, 1);
        assert_eq!(
            store.aggregate(),
            agg_before,
            "compaction is aggregate-neutral"
        );
        assert_eq!(store.query(&QueryFilter::default()), query_before);
        assert_eq!(store.load("aa").unwrap(), raw(9));
        assert_eq!(store.load("bb").unwrap(), raw(2));
        // Reopen: only the compacted segment remains.
        drop(store);
        let store = SegmentStore::open(&dir).unwrap();
        let seg_stats = store.seg_stats();
        assert_eq!(seg_stats.segments, 1);
        assert_eq!(seg_stats.dead_rows, 0);
        assert_eq!(store.aggregate(), agg_before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_is_quarantined_and_truncated_on_reopen() {
        let dir = scratch("torn");
        {
            let store = SegmentStore::open(&dir).unwrap();
            store
                .append("aa", hot("cc-urand", 16, 1, 0.1), &raw(1))
                .unwrap();
            store
                .append("bb", hot("cc-urand", 64, 2, 0.4), &raw(2))
                .unwrap();
        }
        // Tear the last frame.
        let wal = dir.join(WAL_NAME);
        let bytes = fs::read(&wal).unwrap();
        fs::write(&wal, &bytes[..bytes.len() - 7]).unwrap();
        let store = SegmentStore::open(&dir).unwrap();
        assert_eq!(store.load("aa").unwrap(), raw(1), "intact prefix survives");
        assert!(store.load("bb").is_none(), "torn row is a miss");
        assert_eq!(store.seg_stats().quarantined, 1);
        assert!(dir.join("wal.corrupt").exists(), "evidence quarantined");
        // The recompute path: re-append lands cleanly after the truncate.
        store
            .append("bb", hot("cc-urand", 64, 2, 0.4), &raw(2))
            .unwrap();
        drop(store);
        let store = SegmentStore::open(&dir).unwrap();
        assert_eq!(store.load("bb").unwrap(), raw(2));
        assert_eq!(store.seg_stats().quarantined, 0, "clean reopen");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_segment_is_quarantined_wholesale() {
        let dir = scratch("segcorrupt");
        {
            let store = SegmentStore::open(&dir).unwrap().with_seal_threshold(1);
            store
                .append("aa", hot("cc-urand", 16, 1, 0.1), &raw(1))
                .unwrap();
        }
        let seg = dir.join("seg-000000.seg");
        let mut bytes = fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();
        let store = SegmentStore::open(&dir).unwrap();
        assert!(store.load("aa").is_none(), "corrupt segment is a miss");
        assert_eq!(store.seg_stats().quarantined, 1);
        assert!(dir.join("seg-000000.seg.corrupt").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_or_corrupt_index_is_rebuilt() {
        let dir = scratch("index");
        {
            let store = SegmentStore::open(&dir).unwrap().with_seal_threshold(1);
            store
                .append("aa", hot("cc-urand", 16, 1, 0.1), &raw(1))
                .unwrap();
        }
        let index = dir.join(INDEX_NAME);
        assert!(index.exists(), "seal persists the index");
        fs::write(&index, b"garbage").unwrap();
        let store = SegmentStore::open(&dir).unwrap();
        assert_eq!(store.load("aa").unwrap(), raw(1), "rebuilt from scan");
        drop(store);
        let reloaded = load_index(&index).expect("self-healed on reopen");
        assert_eq!(reloaded.len(), 1);
        assert_eq!(reloaded[0].0, "aa");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_collected_on_open() {
        let dir = scratch("tmpgc");
        {
            let store = SegmentStore::open(&dir).unwrap().with_seal_threshold(1);
            store
                .append("aa", hot("cc-urand", 16, 1, 0.1), &raw(1))
                .unwrap();
            assert_eq!(store.tmp_collected(), 0);
        }
        // A crash between `File::create` and `rename`, once in a seal and
        // once in an index persist.
        fs::write(dir.join(".seg-000001.seg.7.tmp"), b"half a segment").unwrap();
        fs::write(dir.join(".index.bin.8.tmp"), b"half an index").unwrap();
        let store = SegmentStore::open(&dir).unwrap();
        assert_eq!(store.tmp_collected(), 2);
        let left = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .count();
        assert_eq!(left, 0, "droppings removed");
        assert_eq!(store.load("aa").unwrap(), raw(1), "records untouched");
        drop(store);
        let store = SegmentStore::open(&dir).unwrap();
        assert_eq!(store.tmp_collected(), 0, "clean reopen");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn query_answers_from_groups_not_rows() {
        let dir = scratch("query");
        let store = SegmentStore::open(&dir).unwrap();
        for seed in 0..10u64 {
            let mb = 16 << (seed % 3);
            store
                .append(
                    &format!("{seed:016x}"),
                    hot("cc-urand", mb, seed, 0.1 * (seed + 1) as f64),
                    &raw(seed),
                )
                .unwrap();
        }
        let q = store.query(&QueryFilter {
            workload: Some("cc-urand".to_string()),
            ..QueryFilter::default()
        });
        assert_eq!(q.count, 10);
        assert_eq!(q.groups.len(), 3, "three footprints");
        assert!(q.beta.is_some());
        // Recompute from raws: exact for count, identical for the fit.
        let mut recomputed = AggState::new();
        store.for_each_live(|_, h, _| recomputed.add(h));
        let rq = recomputed.query(&QueryFilter::default());
        assert_eq!(rq.count, q.count);
        assert_eq!(rq.beta, q.beta);
        assert_eq!(rq.p99_wcpi, q.p99_wcpi);
        let _ = fs::remove_dir_all(&dir);
    }
}
