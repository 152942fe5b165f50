//! The append-only segment store: WAL + sealed segments on disk, one row
//! table and a key index in memory, behind one handle.
//!
//! Write path: [`SegmentStore::append`] frames the row into the WAL
//! (write + fsync under the store lock — the WAL is the serialization
//! point), pushes it onto the row table, points the key index at it, and
//! seals once the WAL holds a segment's worth of rows. Sealing writes the
//! WAL's rows out as a segment file (tmp + fsync + rename,
//! `write_atomic`), truncates the log, and moves nothing in memory. The
//! directory holds `wal.log` and `seg-*.seg` files and nothing else: open
//! reads the segments in id order, then the WAL, into the row table. A
//! query scans the live rows the index points at ([`crate::query`]).
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

use crate::aggregate::{self, CompactStats, HotRow, QueryFilter, QueryResult, SegStats};
use crate::codec::Corrupt;
use crate::lz;
use crate::segment::{decode_segment, encode_segment};
use crate::wal::{encode_frame, scan, Row};
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

/// A sealed segment file; its rows live in [`Inner::rows`].
struct Segment {
    id: u64,
    path: PathBuf,
    bytes: u64,
}

struct Inner {
    /// Every row on disk, in commit order: the sealed segments' rows by
    /// segment id, then the WAL's from `wal_start` on.
    rows: Vec<Row>,
    /// Each live key's newest row in `rows`; a superseded row (last write
    /// wins) is dead until compaction drops it.
    index: HashMap<String, usize>,
    wal_start: usize,
    segments: Vec<Segment>,
    wal_file: Option<fs::File>,
    wal_bytes: u64,
    quarantined: u64,
    tmp_files: u64,
    seal_threshold: usize,
}

impl Inner {
    fn push(&mut self, row: Row) {
        self.index.insert(row.key.clone(), self.rows.len());
        self.rows.push(row);
    }

    fn live(&self) -> impl Iterator<Item = &Row> {
        self.index.values().map(|&i| &self.rows[i])
    }

    fn next_segment_id(&self) -> u64 {
        self.segments.last().map_or(0, |s| s.id + 1)
    }

    fn disk_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum::<u64>() + self.wal_bytes
    }
}

/// An append-only run-record store. See the module docs for the on-disk
/// layout and crash contract.
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
    /// Opens (creating if needed) a segment store at `dir`, reading
    /// sealed segments and the WAL into the row table: corrupt segments
    /// and torn WAL tails are quarantined and `*.tmp` droppings removed.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created or read.
    /// Corrupt *contents* never error — they quarantine.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<SegmentStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut inner = Inner {
            rows: Vec::new(),
            index: HashMap::new(),
            wal_start: 0,
            segments: Vec::new(),
            wal_file: None,
            wal_bytes: 0,
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
                Ok(rows) => {
                    rows.into_iter().for_each(|row| inner.push(row));
                    let bytes = bytes.len() as u64;
                    inner.segments.push(Segment { id, path, bytes });
                }
                Err(Corrupt) => {
                    let mut quarantine = path.clone().into_os_string();
                    quarantine.push(".corrupt");
                    let _ = fs::rename(&path, &quarantine);
                    inner.quarantined += 1;
                }
            }
        }
        inner.wal_start = inner.rows.len();
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
            scanned.rows.into_iter().for_each(|row| inner.push(row));
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
        let row = Row {
            key: key.to_string(),
            hot,
            raw_lz: lz::compress(raw),
        };
        #[allow(unused_mut)]
        let mut frame = encode_frame(&row);
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
            // analyze:allow(lock-io): the first append opens the WAL under the lock that orders every write to it
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
        inner.push(row);
        if inner.rows.len() - inner.wal_start >= inner.seal_threshold {
            self.seal_locked(&mut inner)?;
        }
        Ok(())
    }

    /// Loads the raw record JSON stored under `key`, byte-for-byte as it
    /// was appended. `None` on a miss.
    pub fn load(&self, key: &str) -> Option<Vec<u8>> {
        let inner = self.guard();
        let row = &inner.rows[*inner.index.get(key)?];
        lz::decompress(&row.raw_lz).ok()
    }

    /// Number of live (distinct-key) rows.
    pub fn live_len(&self) -> u64 {
        self.guard().index.len() as u64
    }

    /// Writes the WAL's rows out as a sealed segment now (normally
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
        if inner.wal_start == inner.rows.len() {
            return Ok(());
        }
        let seg = self.write_segment(inner.next_segment_id(), &inner.rows[inner.wal_start..])?;
        inner.segments.push(seg);
        inner.wal_start = inner.rows.len();
        self.clear_wal(inner)
    }

    /// Empties the WAL on disk — also when this handle has appended
    /// nothing yet and so holds no open WAL file, as after an open that
    /// found WAL rows.
    fn clear_wal(&self, inner: &mut Inner) -> std::io::Result<()> {
        let on_disk = inner.wal_bytes > 0;
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

    /// Writes `rows` as sealed segment `id`.
    fn write_segment(&self, id: u64, rows: &[Row]) -> std::io::Result<Segment> {
        let image = encode_segment(rows);
        let path = self.dir.join(format!("seg-{id:06}.seg"));
        self.write_atomic(&path, &image)?;
        let bytes = image.len() as u64;
        Ok(Segment { id, path, bytes })
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
        let bytes_before = inner.disk_bytes();
        let segments_before = inner.segments.len() as u64;
        let dead_rows_dropped = (inner.rows.len() - inner.index.len()) as u64;
        // Live rows, sorted by key for a deterministic image.
        let mut live: Vec<Row> = inner.live().cloned().collect();
        live.sort_unstable_by(|a, b| a.key.cmp(&b.key));
        let compacted = if live.is_empty() {
            None
        } else {
            // analyze:allow(lock-io): compaction replaces the files the index under this lock describes
            Some(self.write_segment(inner.next_segment_id(), &live)?)
        };
        // Point of no return: the compacted segment (if any) is durable.
        for seg in &inner.segments {
            let _ = fs::remove_file(&seg.path);
        }
        inner.segments = compacted.into_iter().collect();
        inner.rows.clear();
        inner.index.clear();
        live.into_iter().for_each(|row| inner.push(row));
        inner.wal_start = inner.rows.len();
        self.clear_wal(&mut inner)?;
        Ok(CompactStats {
            segments_before,
            segments_after: inner.segments.len() as u64,
            live_rows: inner.index.len() as u64,
            dead_rows_dropped,
            bytes_before,
            bytes_after: inner.disk_bytes(),
        })
    }

    /// Answers `filter` with [`crate::query`] over the live rows, under
    /// the store lock.
    pub fn query(&self, filter: &QueryFilter) -> QueryResult {
        let inner = self.guard();
        aggregate::query(inner.live().map(|row| &row.hot), filter)
    }

    /// Store occupancy counters, from the row table and the segment
    /// records (no directory scan).
    pub fn seg_stats(&self) -> SegStats {
        let inner = self.guard();
        SegStats {
            segments: inner.segments.len() as u64,
            segment_rows: inner.wal_start as u64,
            wal_rows: (inner.rows.len() - inner.wal_start) as u64,
            live_rows: inner.index.len() as u64,
            dead_rows: (inner.rows.len() - inner.index.len()) as u64,
            disk_bytes: inner.disk_bytes(),
            quarantined: inner.quarantined,
            tmp_files: inner.tmp_files,
        }
    }

    /// Visits every live row in deterministic order (sealed segments by
    /// id then the WAL, in row order) with its key, hot columns, and
    /// decompressed raw record JSON. A row whose sidecar does not
    /// decompress is skipped, so a verifier compares the rows it visited
    /// with [`SegStats::live_rows`]. The verification path: each row's hot
    /// columns must equal the ones recomputed from its raw record.
    pub fn for_each_live<F: FnMut(&str, &HotRow, Vec<u8>)>(&self, mut f: F) {
        let inner = self.guard();
        for (i, row) in inner.rows.iter().enumerate() {
            if inner.index.get(&row.key) == Some(&i) {
                if let Ok(raw) = lz::decompress(&row.raw_lz) {
                    f(&row.key, &row.hot, raw);
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
    use crate::aggregate::value_fp;
    use crate::regress::x_fp;

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
        let all = QueryFilter::default();
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
        // The answer must equal one over only the live rows.
        let expect = aggregate::query(&[hot("cc-urand", 16, 0.9), hot("cc-urand", 64, 0.4)], &all);
        assert_eq!(store.query(&all), expect);
        // And survive a reopen (segment row superseded by WAL row).
        drop(store);
        let store = SegmentStore::open(&dir).unwrap();
        assert_eq!(store.query(&all), expect);
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
        let query_before = store.query(&QueryFilter::default());
        let stats = store.compact().unwrap();
        assert_eq!(stats.live_rows, 3);
        assert_eq!(stats.dead_rows_dropped, 1);
        assert_eq!(stats.segments_after, 1);
        assert_eq!(
            store.query(&QueryFilter::default()),
            query_before,
            "compaction is query-neutral"
        );
        assert_eq!(store.load("aa").unwrap(), raw(9));
        assert_eq!(store.load("bb").unwrap(), raw(2));
        // Reopen: only the compacted segment remains.
        drop(store);
        let store = SegmentStore::open(&dir).unwrap();
        let seg_stats = store.seg_stats();
        assert_eq!(seg_stats.segments, 1);
        assert_eq!(seg_stats.dead_rows, 0);
        assert_eq!(store.query(&QueryFilter::default()), query_before);
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
    fn query_scans_only_the_newest_row_of_each_key() {
        let dir = scratch("query");
        let store = SegmentStore::open(&dir).unwrap();
        store.set_seal_threshold(4);
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
        // Supersede a sealed row: only the new WCPI may be counted.
        store
            .append(&format!("{:016x}", 0), hot("cc-urand", 16, 5.0), &raw(10))
            .unwrap();
        let cc = QueryFilter {
            workload: Some("cc-urand".to_string()),
            ..QueryFilter::default()
        };
        let q = store.query(&cc);
        assert_eq!(q.count, 10);
        assert_eq!(q.groups.len(), 3, "three footprints");
        assert!(q.beta.is_some());
        assert_eq!(q.p99_wcpi, 5.0, "the superseding row's WCPI is the max");
        // The same function over the rows the store visits.
        let mut live = Vec::new();
        store.for_each_live(|_, h, _| live.push(h.clone()));
        assert_eq!(aggregate::query(&live, &cc), q);
        let _ = fs::remove_dir_all(&dir);
    }
}
