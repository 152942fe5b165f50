//! The append-only segment store: WAL + sealed columnar segments on disk,
//! key index + live aggregate in memory, behind one handle.
//!
//! Write path: [`SegmentStore::append`] frames the row into the WAL
//! (write + fsync under the store lock — the WAL is the serialization
//! point), folds it into the in-memory index and live [`AggState`], and
//! seals a columnar segment once the WAL holds a segment's worth of rows.
//! Sealed segments are written tmp + fsync + rename (`write_atomic`).
//! The directory holds `wal.log` and `seg-*.seg` files and nothing else:
//! open rebuilds the index and the live aggregate from the segments' key
//! and hot columns plus the WAL.
//!
//! Crash/corruption contract (quarantine-and-recompute): a torn WAL tail
//! is quarantined to `wal.corrupt` and truncated away; a segment failing
//! any CRC is renamed to `*.corrupt` wholesale; `*.tmp` droppings of a
//! write that crashed before its rename are removed at open. A segment or
//! WAL frame in an older format is undecodable and takes the same path.
//! Every quarantined record is recomputable by construction, so
//! corruption is only ever a cache miss.
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
use crate::codec::Corrupt;
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
    tmp_files: u64,
    seal_threshold: usize,
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
}

/// An append-only columnar run-record store. See the module docs for the
/// on-disk layout and crash contract.
pub struct SegmentStore {
    dir: PathBuf,
    inner: Mutex<Inner>,
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
    /// are quarantined, `*.tmp` droppings are removed, and the index and
    /// live aggregate are rebuilt from the columns.
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
            tmp_files: 0,
            seal_threshold: DEFAULT_SEAL_THRESHOLD,
        };
        // Sealed segments, in id order. One owner per directory, so any
        // `*.tmp` here is the dropping of a write that crashed: removed.
        let mut seg_paths: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&dir)?.filter_map(Result::ok) {
            let path = entry.path();
            if let Some(id) = segment_id(&path) {
                seg_paths.push((id, path));
            } else if path.extension().is_some_and(|x| x == "tmp") && fs::remove_file(&path).is_ok()
            {
                inner.tmp_files += 1;
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
        // Rebuild index + live aggregate from the columns, in commit order.
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
        Ok(SegmentStore {
            dir,
            inner: Mutex::new(inner),
            #[cfg(feature = "faults")]
            faults: Mutex::new(None),
        })
    }

    /// Sets the number of WAL rows that triggers sealing a segment.
    pub fn set_seal_threshold(&self, rows: usize) {
        self.guard().seal_threshold = rows.max(1);
    }

    /// Attaches a fault-injection plan: subsequent appends route through
    /// the plan's `StoreWrite`/`SegmentTorn` sites, segment renames
    /// through `StoreRename`. Test-only machinery.
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
        let seg = self.write_segment(
            id,
            inner.wal.iter().map(|e| e.key.clone()).collect(),
            inner.wal.iter().map(|e| e.hot.clone()).collect(),
            inner.wal.iter().map(|e| e.raw_lz.clone()).collect(),
        )?;
        // Relocate live WAL rows to their sealed positions.
        for (row, key) in seg.data.keys.iter().enumerate() {
            if inner.index.get(key) == Some(&Loc::Wal(row)) {
                inner.index.insert(key.clone(), Loc::Seg { id, row });
            }
        }
        inner.segments.push(seg);
        self.clear_wal(inner)
    }

    /// Empties the WAL in memory and on disk — also when this handle has
    /// appended nothing yet and so holds no open WAL file, as after an
    /// open that found WAL rows.
    fn clear_wal(&self, inner: &mut Inner) -> std::io::Result<()> {
        let on_disk = inner.wal_bytes > 0;
        inner.wal.clear();
        inner.wal_bytes = 0;
        let opened;
        let file = match &inner.wal_file {
            Some(file) => file,
            None if on_disk => {
                opened = fs::OpenOptions::new()
                    .write(true)
                    .open(self.dir.join(WAL_NAME))?;
                &opened
            }
            None => return Ok(()),
        };
        file.set_len(0)?;
        file.sync_all()
    }

    /// Writes the parallel row vectors as sealed segment `id`.
    fn write_segment(
        &self,
        id: u64,
        keys: Vec<String>,
        hots: Vec<HotRow>,
        raws: Vec<Vec<u8>>,
    ) -> std::io::Result<SegMeta> {
        let image = encode_segment(&keys, &hots, &raws);
        let path = self.dir.join(format!("seg-{id:06}.seg"));
        self.write_atomic(&path, &image)?;
        Ok(SegMeta {
            id,
            path,
            bytes: image.len() as u64,
            data: SegmentData { keys, hots, raws },
        })
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
        let bytes_before = inner.segments.iter().map(|s| s.bytes).sum::<u64>() + inner.wal_bytes;
        let segments_before = inner.segments.len() as u64;
        let dead_rows_dropped = inner.dead_rows;
        // Live rows, sorted by key for a deterministic image.
        let mut live: Vec<(&String, Loc)> = inner.index.iter().map(|(k, l)| (k, *l)).collect();
        live.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let keys: Vec<String> = live.iter().map(|(k, _)| (*k).clone()).collect();
        let hots: Vec<HotRow> = live.iter().map(|(_, l)| inner.hot_at(*l).clone()).collect();
        let raws: Vec<Vec<u8>> = live
            .iter()
            .map(|(_, l)| inner.raw_at(*l).to_vec())
            .collect();
        let live_rows = keys.len() as u64;
        let id = inner.segments.last().map_or(0, |s| s.id + 1);
        let compacted = if keys.is_empty() {
            None
        } else {
            // analyze:allow(lock-io): compaction replaces the files the index under this lock describes
            Some(self.write_segment(id, keys, hots, raws)?)
        };
        // Point of no return: the compacted segment (if any) is durable.
        for seg in &inner.segments {
            let _ = fs::remove_file(&seg.path);
        }
        inner.segments = compacted.into_iter().collect();
        self.clear_wal(&mut inner)?;
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
        Ok(CompactStats {
            segments_before,
            segments_after: inner.segments.len() as u64,
            live_rows,
            dead_rows_dropped,
            bytes_before,
            bytes_after: inner.segments.iter().map(|s| s.bytes).sum(),
        })
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
            disk_bytes: inner.segments.iter().map(|s| s.bytes).sum::<u64>() + inner.wal_bytes,
            quarantined: inner.quarantined,
            tmp_files: inner.tmp_files,
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
            self.inject(FaultSite::StoreRename)?;
            fs::rename(&tmp, path)
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }
}

/// Parses `seg-NNNNNN.seg` names; anything else is not a segment.
fn segment_id(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let stem = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
    stem.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regress::x_fp;
    use crate::sketch::value_fp;

    fn hot(workload: &str, mb: u64, wcpi: f64) -> HotRow {
        HotRow {
            workload: workload.to_string(),
            footprint_mb: mb,
            page_size: "4K".to_string(),
            arch: "baseline".to_string(),
            wcpi_fp: value_fp(wcpi),
            x_fp: x_fp((mb as f64 * 1024.0).log10()),
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
            .append("00", hot("cc-urand", 16, 0.1), &raw(1))
            .unwrap();
        assert_eq!(store.load("00").unwrap(), raw(1));
        assert_eq!(store.live_len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rows_survive_reopen_before_and_after_seal() {
        let dir = scratch("reopen");
        {
            let store = SegmentStore::open(&dir).unwrap();
            store.set_seal_threshold(2);
            store
                .append("aa", hot("cc-urand", 16, 0.1), &raw(1))
                .unwrap();
            // One row: still in the WAL.
            assert_eq!(store.seg_stats().wal_rows, 1);
            store
                .append("bb", hot("cc-urand", 64, 0.4), &raw(2))
                .unwrap();
            // Threshold reached: sealed into a segment.
            let stats = store.seg_stats();
            assert_eq!(stats.segments, 1);
            assert_eq!(stats.wal_rows, 0);
            store
                .append("cc", hot("bfs-urand", 16, 0.3), &raw(3))
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
        let store = SegmentStore::open(&dir).unwrap();
        store.set_seal_threshold(2);
        store
            .append("aa", hot("cc-urand", 16, 0.1), &raw(1))
            .unwrap();
        store
            .append("bb", hot("cc-urand", 64, 0.4), &raw(2))
            .unwrap(); // seals
                       // Re-save `aa` with different measurements (the harness's
                       // samples-refresh overwrite).
        store
            .append("aa", hot("cc-urand", 16, 0.9), &raw(9))
            .unwrap();
        assert_eq!(store.load("aa").unwrap(), raw(9), "newest wins");
        let stats = store.seg_stats();
        assert_eq!(stats.live_rows, 2);
        assert_eq!(stats.dead_rows, 1);
        // The aggregate must equal one built from only the live rows.
        let mut expect = AggState::new();
        expect.add(&hot("cc-urand", 16, 0.9));
        expect.add(&hot("cc-urand", 64, 0.4));
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
        let store = SegmentStore::open(&dir).unwrap();
        store.set_seal_threshold(2);
        for (key, seed, wcpi) in [
            ("aa", 1u64, 0.1),
            ("bb", 2, 0.4),
            ("cc", 3, 0.3),
            ("aa", 9, 0.9),
        ] {
            store
                .append(key, hot("cc-urand", 16 * seed.max(1), wcpi), &raw(seed))
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
                .append("aa", hot("cc-urand", 16, 0.1), &raw(1))
                .unwrap();
            store
                .append("bb", hot("cc-urand", 64, 0.4), &raw(2))
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
            .append("bb", hot("cc-urand", 64, 0.4), &raw(2))
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
            let store = SegmentStore::open(&dir).unwrap();
            store.set_seal_threshold(1);
            store
                .append("aa", hot("cc-urand", 16, 0.1), &raw(1))
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
    fn the_directory_holds_only_the_wal_and_segments() {
        let dir = scratch("files");
        let names = || {
            let mut names: Vec<String> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        let store = SegmentStore::open(&dir).unwrap();
        store.set_seal_threshold(2);
        assert!(names().is_empty(), "an empty store is just the directory");
        for (key, seed) in [("aa", 1u64), ("bb", 2), ("aa", 3)] {
            store
                .append(key, hot("cc-urand", 16 * seed, 0.1), &raw(seed))
                .unwrap();
        }
        assert_eq!(names(), ["seg-000000.seg", "wal.log"]);
        store.compact().unwrap();
        assert_eq!(names(), ["seg-000001.seg", "wal.log"]);
        let disk: u64 = names()
            .iter()
            .map(|n| fs::metadata(dir.join(n)).unwrap().len())
            .sum();
        assert_eq!(store.seg_stats().disk_bytes, disk, "every byte is counted");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A handle that has not appended holds no open WAL file; sealing or
    /// compacting the rows its open found must still empty `wal.log`, or
    /// the next open replays them as superseding duplicates.
    #[test]
    fn seal_and_compact_empty_a_wal_found_at_open() {
        let dir = scratch("walreopen");
        let disk = || -> u64 {
            fs::read_dir(&dir)
                .unwrap()
                .filter_map(Result::ok)
                .map(|e| e.metadata().unwrap().len())
                .sum()
        };
        let append = |keys: &[&str]| {
            let store = SegmentStore::open(&dir).unwrap();
            for (seed, key) in keys.iter().enumerate() {
                let seed = seed as u64 + 1;
                store
                    .append(key, hot("cc-urand", 16 * seed, 0.1), &raw(seed))
                    .unwrap();
            }
        };
        append(&["aa", "bb"]);
        let store = SegmentStore::open(&dir).unwrap();
        store.seal().unwrap();
        drop(store);
        let store = SegmentStore::open(&dir).unwrap();
        let stats = store.seg_stats();
        assert_eq!((stats.wal_rows, stats.dead_rows), (0, 0), "{stats:?}");
        assert_eq!(stats.disk_bytes, disk(), "every byte is counted");
        drop(store);
        append(&["cc"]);
        let store = SegmentStore::open(&dir).unwrap();
        store.compact().unwrap();
        drop(store);
        let store = SegmentStore::open(&dir).unwrap();
        let stats = store.seg_stats();
        assert_eq!((stats.wal_rows, stats.dead_rows), (0, 0), "{stats:?}");
        assert_eq!(stats.live_rows, 3);
        assert_eq!(stats.disk_bytes, disk(), "every byte is counted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_collected_on_open() {
        let dir = scratch("tmpgc");
        {
            let store = SegmentStore::open(&dir).unwrap();
            store.set_seal_threshold(1);
            store
                .append("aa", hot("cc-urand", 16, 0.1), &raw(1))
                .unwrap();
            assert_eq!(store.seg_stats().tmp_files, 0);
        }
        // A crash between `File::create` and `rename`, once in a seal and
        // once in the index write of a store from before the index file
        // was dropped.
        fs::write(dir.join(".seg-000001.seg.7.tmp"), b"half a segment").unwrap();
        fs::write(dir.join(".index.bin.8.tmp"), b"half an index").unwrap();
        let store = SegmentStore::open(&dir).unwrap();
        assert_eq!(store.seg_stats().tmp_files, 2);
        let left = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .count();
        assert_eq!(left, 0, "droppings removed");
        assert_eq!(store.load("aa").unwrap(), raw(1), "records untouched");
        drop(store);
        let store = SegmentStore::open(&dir).unwrap();
        assert_eq!(store.seg_stats().tmp_files, 0, "clean reopen");
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
                    hot("cc-urand", mb, 0.1 * (seed + 1) as f64),
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
