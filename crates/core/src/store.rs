//! On-disk run cache.
//!
//! Every figure and table harness shares runs: Figure 1's sweep contains
//! Figure 2's `cc-urand` series, Table IV refits Figure 1's points, and so
//! on. Caching each completed [`RunRecord`] keyed by a hash of
//! `(spec, machine config)` means `cargo run --bin fig4` after `fig1` costs
//! seconds, not a re-simulation.
//!
//! This module owns what only the simulator knows — key derivation, the
//! record's JSON serialization, and the [`hot_row`] column extraction.
//! How a record is laid out on disk is [`atscale_results::SegmentStore`]'s
//! business alone: every [`RunStore`] keeps its records in the segment
//! store under `dir/segments`, and loads return the saved bytes bit for
//! bit. Directories written before the segment store existed hold one
//! checksum-less `{key}.json` file per record; [`RunStore::open`] folds
//! those in, re-serialised, and nothing else ever reads that format.
//!
//! A store directory has one owner at a time — one `open`, cloned as
//! often as needed within the process. [`atscale_results::store`] says
//! what two simultaneous owners get (lost cache rows; never a wrong
//! record, never a panic).

use crate::{RunRecord, RunSpec};
use atscale_gen::splitmix64;
use atscale_mmu::MachineConfig;
use atscale_results::{
    value_fp, x_fp, CompactStats, HotRow, QueryFilter, QueryResult, SegStats, SegmentStore,
};
use atscale_vm::PageSize;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Size and occupancy of a [`RunStore`], for operators sizing the cache
/// (exposed over the wire as the serving daemon's `cache_stats` reply).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Number of cached run records (live segment-store rows).
    pub entries: u64,
    /// Bytes on disk across segments, WAL and index.
    pub bytes: u64,
    /// Temp files (`*.tmp`) of writes that crashed before their rename,
    /// removed when this store was opened; a healthy store reports none.
    pub tmp_files: u64,
    /// Corrupt inputs set aside as `*.corrupt` sidecars since open (segment
    /// files, torn WAL tails, unparseable legacy records); their records
    /// are misses, transparently recomputed.
    pub corrupt_files: u64,
}

/// A directory of cached run records. See the module docs.
#[derive(Debug, Clone)]
pub struct RunStore {
    segments: Arc<SegmentStore>,
    /// Legacy `.json` files this handle's open migrated / quarantined.
    migrated: u64,
    legacy_quarantined: u64,
}

impl RunStore {
    /// Opens (creating if needed) the store at `dir`: attaches the segment
    /// store under `dir/segments` (which recovers from torn WAL tails,
    /// corrupt segments and `*.tmp` droppings), then migrates every legacy
    /// `{key}.json` record found in `dir` into it.
    ///
    /// Migration rules: the key is the file stem, so dedup keys stay
    /// bit-for-bit, and the stored bytes are the parsed record serialised
    /// again — exactly what [`RunStore::save`] writes, so every row is
    /// canonical JSON on one line, whatever whitespace the file held (a
    /// cache hit is spliced into its reply frame unparsed); a file
    /// that does not parse as a [`RunRecord`] is renamed to a
    /// `{key}.json.corrupt` sidecar and its key is a miss; a file is
    /// removed only after its append returned, and a key the segment store
    /// already holds is not appended again, so a pass interrupted anywhere
    /// resumes on the next open without double-counting; migrated rows are
    /// sealed into a segment.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if a directory cannot be created or read, or
    /// if a migration step fails (already-moved files stay moved).
    /// Corrupt *contents* never error — they quarantine.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<RunStore> {
        let dir = dir.as_ref();
        let segments = SegmentStore::open(dir.join("segments"))?;
        let (migrated, legacy_quarantined) = migrate_legacy(dir, &segments)?;
        Ok(RunStore {
            segments: Arc::new(segments),
            migrated,
            legacy_quarantined,
        })
    }

    /// The old name of [`RunStore::open`]; `benchmark/` still calls it
    /// (the benchmark PR deferred since PR 17 removes both).
    #[doc(hidden)]
    pub fn open_segmented(dir: impl AsRef<Path>) -> std::io::Result<RunStore> {
        Self::open(dir)
    }

    /// Attaches a fault-injection plan to the segment store (its
    /// `StoreWrite`/`SegmentTorn`/`StoreRename`/`IndexRename` sites).
    /// Test-only machinery — exists solely behind the `faults` feature.
    #[cfg(feature = "faults")]
    #[must_use]
    pub fn with_fault_plan(self, plan: Arc<atscale_faults::FaultPlan>) -> Self {
        self.segments.set_fault_plan(plan);
        self
    }

    /// Stable cache key for a run: content hash of the spec and machine
    /// configuration (any config change invalidates the cache).
    pub fn key(spec: &RunSpec, config: &MachineConfig) -> String {
        format!("{:016x}", Self::key_hash(spec, config))
    }

    /// The raw 64-bit record hash behind [`RunStore::key`] — the sharding
    /// seam: the serve tier's shard router consistent-hashes this value,
    /// so shard placement and cache identity are the same function by
    /// construction (a record can never land on a shard whose store would
    /// file it under a different key).
    ///
    /// The hashed bytes are the canonical JSON of `(spec, config)`. Each
    /// thread keeps the JSON of the last config it keyed, so a key costs
    /// one spec serialisation, not a config serialisation as well.
    pub fn key_hash(spec: &RunSpec, config: &MachineConfig) -> u64 {
        thread_local! {
            static CONFIG_JSON: RefCell<Option<(MachineConfig, String)>> =
                const { RefCell::new(None) };
        }
        let spec_json = serde_json::to_string(spec).expect("specs serialize");
        CONFIG_JSON.with_borrow_mut(|memo| {
            let config_json = match memo {
                Some((seen, json)) if same_bits(seen, config) => json,
                _ => {
                    let json = serde_json::to_string(config).expect("configs serialize");
                    &memo.insert((*config, json)).1
                }
            };
            // FNV-1a over `[spec,config]`, finished with splitmix64.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for part in ["[", &spec_json, ",", config_json, "]"] {
                for b in part.bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            splitmix64(h)
        })
    }

    /// The cached record's bytes, unparsed, if present: the
    /// `serde_json::to_vec` output [`RunStore::save`] stored, bit for bit.
    /// Corruption is only ever a miss: the segment store quarantines what
    /// fails its CRC when it opens. Nothing checks that the bytes still
    /// parse as today's [`RunRecord`]; a change to the record's shape must
    /// change its key.
    pub fn load_raw(&self, key: &str) -> Option<Vec<u8>> {
        self.segments.load(key)
    }

    /// Loads a cached record, if present: [`RunStore::load_raw`], parsed.
    /// Bytes that do not parse are a miss.
    pub fn load(&self, key: &str) -> Option<RunRecord> {
        serde_json::from_slice(&self.load_raw(key)?).ok()
    }

    /// Saves a record under `key` (see
    /// [`atscale_results::SegmentStore::append`]).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the record cannot be written; callers
    /// treat the cache as advisory.
    pub fn save(&self, key: &str, record: &RunRecord) -> std::io::Result<()> {
        let json = serde_json::to_vec(record).expect("records serialize");
        self.save_encoded(key, record, &json)
    }

    /// [`RunStore::save`] for a caller that already holds the record's
    /// JSON, `serde_json::to_vec(record)`: those bytes are stored as given.
    ///
    /// # Errors
    ///
    /// As [`RunStore::save`].
    pub fn save_encoded(&self, key: &str, record: &RunRecord, json: &[u8]) -> std::io::Result<()> {
        debug_assert_eq!(
            serde_json::to_vec(record).ok().as_deref(),
            Some(json),
            "stored bytes are the record's canonical JSON"
        );
        self.segments.append(key, hot_row(record), json)
    }

    /// Entry count, bytes on disk, and what opening the store had to clean
    /// up — what an operator needs to size `results/runs` — answered from
    /// the segment store's in-memory counters, never a directory walk.
    pub fn stats(&self) -> StoreStats {
        let seg = self.segments.seg_stats();
        StoreStats {
            entries: seg.live_rows,
            bytes: seg.disk_bytes,
            tmp_files: self.segments.tmp_collected(),
            corrupt_files: seg.quarantined + self.legacy_quarantined,
        }
    }

    /// Number of cached records.
    pub fn len(&self) -> usize {
        self.segments.live_len() as usize
    }

    /// `true` if no records are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Legacy `.json` records this handle's [`RunStore::open`] folded into
    /// the segment store; 0 on every open after the first.
    pub fn migrated(&self) -> u64 {
        self.migrated
    }

    /// Answers an aggregate query from the segment store's live state —
    /// `O(matching groups)`, no record replay.
    pub fn query(&self, filter: &QueryFilter) -> QueryResult {
        self.segments.query(filter)
    }

    /// The segment store's occupancy counters.
    pub fn seg_stats(&self) -> SegStats {
        self.segments.seg_stats()
    }

    /// Rewrites the store down to a single live-rows-only segment (see
    /// [`atscale_results::SegmentStore::compact`]).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn compact(&self) -> std::io::Result<CompactStats> {
        self.segments.compact()
    }

    /// Seals the WAL into a columnar segment now.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn seal(&self) -> std::io::Result<()> {
        self.segments.seal()
    }

    /// Sets the seal threshold (rows per segment).
    pub fn set_seal_threshold(&self, rows: usize) {
        self.segments.set_seal_threshold(rows);
    }

    /// Visits every live record (key, hot columns, raw JSON bytes) in
    /// deterministic order — the verification path for diffing online
    /// aggregates against a from-raw recomputation.
    pub fn for_each_live_record<F: FnMut(&str, &HotRow, Vec<u8>)>(&self, f: F) {
        self.segments.for_each_live(f);
    }
}

/// `a == b` with its float fields compared bit for bit: `PartialEq` calls
/// `0.0` and `-0.0` equal, but they serialise, and so key, differently.
/// `keys_tell_signed_zeros_apart` counts the config's floats, so a new one
/// cannot be missed here.
fn same_bits(a: &MachineConfig, b: &MachineConfig) -> bool {
    let floats = |c: &MachineConfig| {
        [
            c.spec.wrong_path_locality.to_bits(),
            c.spec.clear_stall_coupling.to_bits(),
        ]
    };
    a == b && floats(a) == floats(b)
}

/// [`RunStore::open`]'s migration pass over the legacy `{key}.json` files
/// in `dir`; returns how many it migrated and how many it quarantined.
fn migrate_legacy(dir: &Path, segments: &SegmentStore) -> std::io::Result<(u64, u64)> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let (mut migrated, mut quarantined) = (0, 0);
    for path in paths {
        let Some(key) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let bytes = fs::read(&path)?;
        let Ok(record) = serde_json::from_slice::<RunRecord>(&bytes) else {
            let mut quarantine = path.clone().into_os_string();
            quarantine.push(".corrupt");
            if fs::rename(&path, &quarantine).is_ok() {
                quarantined += 1;
            }
            continue;
        };
        if !segments.contains(key) {
            // Canonical bytes, not the file's: a hit splices the row into
            // a one-line frame, so a newline in the file would split it.
            let json = serde_json::to_vec(&record).expect("records serialize");
            segments.append(key, hot_row(&record), &json)?;
            migrated += 1;
        }
        fs::remove_file(&path)?;
    }
    if migrated > 0 {
        segments.seal()?;
    }
    Ok((migrated, quarantined))
}

/// Extracts the segment store's fixed hot-column schema from a record:
/// the fig1 axes, the WCPI/regressor fixed-point values, and the Table VI
/// walk counters. Rows are tagged `source: "sim"` — simulator records are
/// the only kind the store holds; the column stays so the segment format
/// and the results-plane group key are unchanged.
pub fn hot_row(record: &RunRecord) -> HotRow {
    let counters = &record.result.counters;
    HotRow {
        workload: record.spec.workload.to_string(),
        footprint_mb: record.spec.nominal_footprint >> 20,
        page_size: match record.spec.page_size {
            PageSize::Size4K => "4K",
            PageSize::Size2M => "2M",
            PageSize::Size1G => "1G",
        }
        .to_string(),
        seed: record.spec.seed,
        source: "sim".to_string(),
        arch: record.spec.arch.to_string(),
        wcpi_fp: value_fp(counters.wcpi()),
        x_fp: x_fp(record.log10_footprint_kb()),
        walk_duration_cycles: counters.walk_duration_cycles,
        inst_retired: counters.inst_retired,
        cycles: counters.cycles,
        walks_initiated: counters.walks_initiated(),
        walks_completed: counters.walks_completed(),
        walks_retired: counters.walks_retired(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atscale_vm::PageSize;
    use atscale_workloads::WorkloadId;

    fn spec() -> RunSpec {
        RunSpec {
            workload: WorkloadId::parse("tc-kron").unwrap(),
            nominal_footprint: 8 << 20,
            page_size: PageSize::Size4K,
            seed: 1,
            warmup_instr: 1000,
            budget_instr: 30_000,
            arch: crate::ArchKind::Baseline,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("atscale-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn temp_store(tag: &str) -> RunStore {
        RunStore::open(temp_dir(tag)).unwrap()
    }

    /// A directory as the per-file JSON store left it: one `{key}.json`
    /// per entry, nothing else.
    fn legacy_dir(tag: &str, files: &[(&str, &[u8])]) -> PathBuf {
        let dir = temp_dir(tag);
        fs::create_dir_all(&dir).unwrap();
        for (key, bytes) in files {
            fs::write(dir.join(format!("{key}.json")), bytes).unwrap();
        }
        dir
    }

    fn json_files(dir: &Path) -> usize {
        fs::read_dir(dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .count()
    }

    #[test]
    fn save_load_roundtrip() {
        let store = temp_store("roundtrip");
        let config = MachineConfig::haswell();
        let record = crate::execute_run(&spec(), &config);
        let key = RunStore::key(&spec(), &config);
        assert!(store.load(&key).is_none());
        store.save(&key, &record).unwrap();
        let loaded = store.load(&key).expect("cached");
        assert_eq!(loaded.result.counters, record.result.counters);
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn keys_separate_specs_and_configs() {
        let config = MachineConfig::haswell();
        let a = RunStore::key(&spec(), &config);
        let mut other_spec = spec();
        other_spec.seed += 1;
        let b = RunStore::key(&other_spec, &config);
        let mut other_config = config;
        other_config.tlb.l2_hit_penalty += 1;
        let c = RunStore::key(&spec(), &other_config);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, RunStore::key(&spec(), &config), "keys are stable");
    }

    /// Literal keys: a codec change that moved them would orphan every
    /// stored record while every in-process comparison stayed green.
    #[test]
    fn keys_are_pinned() {
        let sweep = crate::SweepConfig::test();
        let base = sweep.spec(
            WorkloadId::parse("cc-urand").unwrap(),
            sweep.footprints()[0],
        );
        let haswell = MachineConfig::haswell();
        let tiny = MachineConfig::tiny_test();
        for (spec, config, want) in [
            (base, &haswell, "4157ad30115ffd8d"),
            (
                base.with_page_size(PageSize::Size2M),
                &haswell,
                "e7e9c9ace8d41040",
            ),
            (
                base.with_arch(crate::ArchKind::Victima),
                &haswell,
                "c5c17ffa54210b0a",
            ),
            (base, &tiny, "559cc2efba05b4ba"),
        ] {
            assert_eq!(RunStore::key(&spec, config), want, "{}", spec.label());
        }
    }

    /// The per-thread config memo keys exactly as serialising `(spec,
    /// config)` afresh does — with configs alternating on one thread, and
    /// for two configs `==` calls equal whose JSON differs in a zero's sign.
    #[test]
    fn keys_tell_signed_zeros_apart() {
        let fresh = |config: &MachineConfig| {
            let payload = serde_json::to_string(&(spec(), config)).unwrap();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in payload.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            splitmix64(h)
        };
        let mut zero = MachineConfig::haswell();
        zero.spec.clear_stall_coupling = 0.0;
        let mut negative_zero = zero;
        negative_zero.spec.clear_stall_coupling = -0.0;
        assert_eq!(zero, negative_zero);
        for config in [zero, negative_zero, MachineConfig::tiny_test(), zero, zero] {
            assert_eq!(RunStore::key_hash(&spec(), &config), fresh(&config));
        }
        assert_ne!(
            RunStore::key(&spec(), &zero),
            RunStore::key(&spec(), &negative_zero)
        );
        fn floats(v: &serde::Value) -> usize {
            match v {
                serde::Value::F64(_) => 1,
                serde::Value::Seq(items) => items.iter().map(floats).sum(),
                serde::Value::Map(entries) => entries.iter().map(|(_, v)| floats(v)).sum(),
                _ => 0,
            }
        }
        assert_eq!(
            floats(&MachineConfig::haswell().to_value()),
            2,
            "`same_bits` compares every float field of a MachineConfig"
        );
    }

    #[test]
    fn corrupt_cache_entries_are_ignored() {
        let key = "deadbeefdeadbeef";
        let store = RunStore::open(legacy_dir("corrupt", &[(key, b"not json")])).unwrap();
        assert!(store.load(key).is_none());
        assert_eq!(store.migrated(), 0);
    }

    #[test]
    fn corrupt_records_are_quarantined_and_recomputable() {
        let config = MachineConfig::haswell();
        let record = crate::execute_run(&spec(), &config);
        let key = RunStore::key(&spec(), &config);
        let pristine = serde_json::to_vec(&record).unwrap();

        // A torn legacy record: opening is a miss, the evidence moves to
        // a `.corrupt` sidecar, and a re-save round-trips byte-identically.
        let dir = legacy_dir("quarantine", &[(&key, &pristine[..pristine.len() / 2])]);
        let store = RunStore::open(&dir).unwrap();
        assert!(store.load(&key).is_none(), "torn record is a miss");
        assert!(
            dir.join(format!("{key}.json.corrupt")).exists(),
            "evidence quarantined"
        );
        assert_eq!(json_files(&dir), 0);
        assert_eq!(store.stats().corrupt_files, 1);
        assert_eq!(store.stats().entries, 0);

        store.save(&key, &record).unwrap();
        let recomputed = serde_json::to_vec(&store.load(&key).unwrap()).unwrap();
        assert_eq!(recomputed, pristine, "recomputed record is byte-identical");
        assert_eq!(store.stats().entries, 1);
    }

    /// A legacy file that parses but is not canonical JSON — here a
    /// newline after its first `{` — migrates as `save` would have written
    /// it, under the same key.
    #[test]
    fn migration_stores_canonical_bytes() {
        let config = MachineConfig::haswell();
        let record = crate::execute_run(&spec(), &config);
        let key = RunStore::key(&spec(), &config);
        let canonical = serde_json::to_vec(&record).unwrap();
        let mut spaced = b"{\n".to_vec();
        spaced.extend_from_slice(&canonical[1..]);
        let store = RunStore::open(legacy_dir("canonical", &[(&key, &spaced)])).unwrap();
        assert_eq!(store.migrated(), 1);
        assert_eq!(store.load_raw(&key), Some(canonical));
    }

    #[test]
    fn empty_records_are_quarantined() {
        let key = "feedfacefeedface";
        let store = RunStore::open(legacy_dir("empty", &[(key, b"")])).unwrap();
        assert!(store.load(key).is_none());
        assert_eq!(store.stats().corrupt_files, 1);
    }

    #[test]
    fn stats_report_entries_bytes_and_droppings() {
        let dir = temp_dir("stats");
        let store = RunStore::open(&dir).unwrap();
        let empty = store.stats();
        assert_eq!(
            (empty.entries, empty.tmp_files, empty.corrupt_files),
            (0, 0, 0)
        );
        let config = MachineConfig::haswell();
        let record = crate::execute_run(&spec(), &config);
        store.save("a", &record).unwrap();
        store.save("b", &record).unwrap();
        store.seal().unwrap();
        let stats = store.stats();
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes > empty.bytes);
        drop(store);
        // A write that crashed before its rename leaves a dropping; the
        // next open removes it and says so.
        let dropping = dir.join("segments").join(".seg-000001.seg.9.tmp");
        fs::write(&dropping, b"crashed seal").unwrap();
        let reopened = RunStore::open(&dir).unwrap();
        assert!(!dropping.exists());
        assert_eq!(reopened.stats().tmp_files, 1);
        assert_eq!(reopened.stats().entries, 2);
        assert_eq!(reopened.stats().bytes, stats.bytes);
    }

    #[test]
    fn stats_take_one_scan_per_open_not_per_call() {
        let dir = temp_dir("onescan");
        let store = RunStore::open(&dir).unwrap();
        let config = MachineConfig::haswell();
        let record = crate::execute_run(&spec(), &config);
        store.save("a", &record).unwrap();
        assert_eq!(store.stats().entries, 1);
        // A legacy file smuggled in behind the store's back is NOT picked
        // up by stats() or load() — the directory is read once, at open.
        let raw = serde_json::to_vec(&record).unwrap();
        fs::write(dir.join("smuggled.json"), &raw).unwrap();
        assert_eq!(store.stats().entries, 1, "no rescan on stats()");
        assert!(store.load("smuggled").is_none());
        // Overwrites keep entries exact, not double-counted.
        store.save("a", &record).unwrap();
        assert_eq!(store.stats().entries, 1);
        drop(store);
        // Re-opening migrates it.
        let reopened = RunStore::open(&dir).unwrap();
        assert_eq!(reopened.migrated(), 1);
        assert_eq!(reopened.stats().entries, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_saves_of_one_key_never_collide() {
        let dir = temp_dir("race");
        let store = RunStore::open(&dir).unwrap();
        store.set_seal_threshold(4);
        let config = MachineConfig::haswell();
        let record = crate::execute_run(&spec(), &config);
        let key = RunStore::key(&spec(), &config);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..16 {
                        store.save(&key, &record).unwrap();
                    }
                });
            }
        });
        let loaded = store.load(&key).expect("entry survives the stampede");
        assert_eq!(loaded.result.counters, record.result.counters);
        assert_eq!(store.stats().entries, 1, "racing saves count the key once");
        drop(store);
        let reopened = RunStore::open(&dir).unwrap();
        assert_eq!(reopened.stats().tmp_files, 0, "no .tmp droppings");
        assert_eq!(reopened.stats().entries, 1);
    }

    #[test]
    fn segmented_store_roundtrips_and_answers_queries() {
        let dir = temp_dir("segmented");
        let store = RunStore::open(&dir).unwrap();
        store.set_seal_threshold(2);
        let config = MachineConfig::haswell();
        let mut keys = Vec::new();
        for seed in 1..=3u64 {
            let mut s = spec();
            s.seed = seed;
            let record = crate::execute_run(&s, &config);
            let key = RunStore::key(&s, &config);
            store.save(&key, &record).unwrap();
            keys.push((key, record));
        }
        // Loads are byte-equivalent to what was saved.
        for (key, record) in &keys {
            let loaded = store.load(key).expect("segment hit");
            assert_eq!(
                serde_json::to_vec(&loaded).unwrap(),
                serde_json::to_vec(record).unwrap(),
                "bit-for-bit replay"
            );
        }
        assert_eq!(store.stats().entries, 3);
        // The query plane answers without replaying records.
        let q = store.query(&QueryFilter::default());
        assert_eq!(q.count, 3);
        assert!(q.mean_wcpi >= 0.0);
        let seg = store.seg_stats();
        assert_eq!(seg.live_rows, 3);
        assert!(seg.segments >= 1, "threshold 2 sealed at least once");
        assert_eq!(json_files(&dir), 0, "no per-record files");
        // And survives reopen.
        drop(store);
        let store = RunStore::open(&dir).unwrap();
        assert_eq!(
            store.query(&QueryFilter::default()),
            q,
            "aggregates identical after reopen"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn migrate_legacy_preserves_keys_and_bytes_and_aggregates() {
        let config = MachineConfig::haswell();
        // A legacy directory: three records plus one torn file.
        let mut expected = Vec::new();
        for seed in 1..=3u64 {
            let mut s = spec();
            s.seed = seed;
            let record = crate::execute_run(&s, &config);
            expected.push((
                RunStore::key(&s, &config),
                serde_json::to_vec(&record).unwrap(),
            ));
        }
        let mut files: Vec<(&str, &[u8])> =
            expected.iter().map(|(k, b)| (&k[..], &b[..])).collect();
        files.push(("0000000000000bad", b"{torn"));
        let dir = legacy_dir("migrate", &files);

        let store = RunStore::open(&dir).unwrap();
        assert_eq!(store.migrated(), 3);
        assert!(
            dir.join("0000000000000bad.json.corrupt").exists(),
            "unparseable legacy record quarantined, not migrated"
        );
        assert_eq!(store.stats().corrupt_files, 1);
        assert_eq!(store.seg_stats().wal_rows, 0, "migrated rows are sealed");
        // Keys unchanged, raw bytes bit-for-bit, files gone.
        assert_eq!(json_files(&dir), 0);
        for (key, bytes) in &expected {
            let loaded = store.load(key).expect("migrated hit");
            assert_eq!(&serde_json::to_vec(&loaded).unwrap(), bytes);
        }
        // Aggregates from the store equal a from-raw recomputation.
        let mut recomputed = atscale_results::AggState::new();
        store.for_each_live_record(|key, hot, raw| {
            let record: RunRecord = serde_json::from_slice(&raw).expect("raw parses");
            assert_eq!(&hot_row(&record), hot, "stored hot row matches raw");
            assert!(expected.iter().any(|(k, b)| k == key && b == &raw));
            recomputed.add(hot);
        });
        let q = store.query(&QueryFilter::default());
        assert_eq!(q.count, 3);
        assert_eq!(q, recomputed.query(&QueryFilter::default()));
        // Compaction is aggregate-neutral and dedup keys still hit.
        store.compact().unwrap();
        assert_eq!(store.query(&QueryFilter::default()), q);
        assert!(store.load(&expected[1].0).is_some());
        drop(store);

        // A pass that died between an append and its remove left the file
        // behind: the next open drops it without a second row. After
        // that there is nothing left to migrate.
        let (key, bytes) = &expected[0];
        fs::write(dir.join(format!("{key}.json")), bytes).unwrap();
        let resumed = RunStore::open(&dir).unwrap();
        assert_eq!(resumed.migrated(), 0);
        assert_eq!(json_files(&dir), 0);
        assert_eq!(resumed.query(&QueryFilter::default()), q, "no double count");
        assert_eq!(resumed.seg_stats().dead_rows, 0);
        drop(resumed);
        assert_eq!(RunStore::open(&dir).unwrap().migrated(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
