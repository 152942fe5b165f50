//! On-disk run cache.
//!
//! Every figure and table harness shares runs: Figure 1's sweep contains
//! Figure 2's `cc-urand` series, Table IV refits Figure 1's points, and so
//! on. Caching each completed [`RunRecord`] keyed by a hash of
//! `(spec, machine config)` means `atscale run fig4_wcpi_scatter` after
//! `atscale run fig1_overhead_vs_footprint` costs seconds, not a
//! re-simulation.
//!
//! This module owns what only the simulator knows — key derivation, the
//! record's JSON serialization, and the [`hot_row`] column extraction.
//! How a record is laid out on disk is [`atscale_results::SegmentStore`]'s
//! business alone: every [`RunStore`] keeps its records in the segment
//! store under `dir/segments`, and loads return the saved bytes bit for
//! bit. Nothing else in `dir` is read: a directory written before the
//! segment store existed (one `{key}.json` file per record) opens as an
//! empty cache, its files left as they are, and its runs are recomputed.
//!
//! A store directory has one owner at a time — one `open`, cloned as
//! often as needed within the process. [`atscale_results::store`] says
//! what two simultaneous owners get (lost cache rows; never a wrong
//! record, never a panic).

use crate::run::page_label;
use crate::{RunRecord, RunSpec};
use atscale_gen::splitmix64;
use atscale_mmu::MachineConfig;
use atscale_results::{
    value_fp, x_fp, CompactStats, HotRow, QueryFilter, QueryResult, SegStats, SegmentStore,
};
use std::cell::RefCell;
use std::path::Path;
use std::sync::Arc;

/// A directory of cached run records. See the module docs.
#[derive(Debug, Clone)]
pub struct RunStore {
    segments: Arc<SegmentStore>,
}

impl RunStore {
    /// Opens (creating if needed) the store at `dir`: the segment store
    /// under `dir/segments`, which recovers from torn WAL tails, corrupt
    /// segments and `*.tmp` droppings as it opens.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if a directory cannot be created or read.
    /// Corrupt *contents* never error — they quarantine.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<RunStore> {
        let segments = SegmentStore::open(dir.as_ref().join("segments"))?;
        Ok(RunStore {
            segments: Arc::new(segments),
        })
    }

    /// The old name of [`RunStore::open`]; `benchmark/` still calls it
    /// (the benchmark PR deferred since PR 17 removes both).
    #[doc(hidden)]
    pub fn open_segmented(dir: impl AsRef<Path>) -> std::io::Result<RunStore> {
        Self::open(dir)
    }

    /// Attaches a fault-injection plan to the segment store (its
    /// `StoreWrite`/`SegmentTorn`/`StoreRename` sites).
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
        self.save_encoded(key, hot_row(record), &json)
    }

    /// [`RunStore::save`] for the harness, which has just serialised the
    /// record for its caller: `json` is `serde_json::to_vec(record)` and
    /// `row` is [`hot_row`]`(record)`. Crate-private, so every record a
    /// store holds went through [`RunStore::save`] or the harness.
    pub(crate) fn save_encoded(&self, key: &str, row: HotRow, json: &[u8]) -> std::io::Result<()> {
        self.segments.append(key, row, json)
    }

    /// Number of cached records.
    pub fn len(&self) -> usize {
        self.segments.live_len() as usize
    }

    /// `true` if no records are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Answers an aggregate query from the segment store's live state —
    /// `O(matching groups)`, no record replay.
    pub fn query(&self, filter: &QueryFilter) -> QueryResult {
        self.segments.query(filter)
    }

    /// Occupancy and what opening the store had to clean up — what an
    /// operator needs to size `results/runs` — answered from the segment
    /// store's in-memory counters, never a directory walk.
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

/// Extracts the segment store's hot columns from a record: the axes a
/// query groups on (workload, footprint, page size, architecture) and the
/// WCPI / regressor fixed-point values it fits.
pub fn hot_row(record: &RunRecord) -> HotRow {
    HotRow {
        workload: record.spec.workload.to_string(),
        footprint_mb: record.spec.nominal_footprint >> 20,
        page_size: page_label(record.spec.page_size).to_string(),
        arch: record.spec.arch.to_string(),
        wcpi_fp: value_fp(record.result.counters.wcpi()),
        x_fp: x_fp(record.log10_footprint_kb()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atscale_vm::PageSize;
    use atscale_workloads::WorkloadId;
    use serde::Serialize;
    use std::fs;
    use std::path::PathBuf;

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
    fn stats_report_entries_bytes_and_droppings() {
        let dir = temp_dir("stats");
        let store = RunStore::open(&dir).unwrap();
        let empty = store.seg_stats();
        assert_eq!(
            (empty.live_rows, empty.tmp_files, empty.quarantined),
            (0, 0, 0)
        );
        let config = MachineConfig::haswell();
        let record = crate::execute_run(&spec(), &config);
        store.save("a", &record).unwrap();
        store.save("b", &record).unwrap();
        store.seal().unwrap();
        let stats = store.seg_stats();
        assert_eq!(stats.live_rows, 2);
        assert!(stats.disk_bytes > empty.disk_bytes);
        drop(store);
        // A write that crashed before its rename leaves a dropping; the
        // next open removes it and says so.
        let dropping = dir.join("segments").join(".seg-000001.seg.9.tmp");
        fs::write(&dropping, b"crashed seal").unwrap();
        let reopened = RunStore::open(&dir).unwrap();
        assert!(!dropping.exists());
        assert_eq!(reopened.seg_stats().tmp_files, 1);
        assert_eq!(reopened.seg_stats().live_rows, 2);
        assert_eq!(reopened.seg_stats().disk_bytes, stats.disk_bytes);
    }

    #[test]
    fn stats_take_one_scan_per_open_not_per_call() {
        let dir = temp_dir("onescan");
        let store = RunStore::open(&dir).unwrap();
        let config = MachineConfig::haswell();
        let record = crate::execute_run(&spec(), &config);
        store.save("a", &record).unwrap();
        assert_eq!(store.seg_stats().live_rows, 1);
        // A per-record file smuggled in behind the store's back is NOT
        // picked up by seg_stats() or load() — no call rescans a directory.
        let raw = serde_json::to_vec(&record).unwrap();
        fs::write(dir.join("smuggled.json"), &raw).unwrap();
        assert_eq!(store.seg_stats().live_rows, 1, "no rescan on seg_stats()");
        assert!(store.load("smuggled").is_none());
        // Overwrites keep live rows exact, not double-counted.
        store.save("a", &record).unwrap();
        assert_eq!(store.seg_stats().live_rows, 1);
        drop(store);
        // Re-opening reads only `segments/`: the file stays unread and
        // untouched.
        let reopened = RunStore::open(&dir).unwrap();
        assert_eq!(reopened.seg_stats().live_rows, 1);
        assert!(reopened.load("smuggled").is_none());
        assert_eq!(fs::read(dir.join("smuggled.json")).unwrap(), raw);
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
        assert_eq!(
            store.seg_stats().live_rows,
            1,
            "racing saves count the key once"
        );
        drop(store);
        let reopened = RunStore::open(&dir).unwrap();
        assert_eq!(reopened.seg_stats().tmp_files, 0, "no .tmp droppings");
        assert_eq!(reopened.seg_stats().live_rows, 1);
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

    /// The paper fits its scaling law over the 4K runs; the 2M and 1G
    /// runs of the same points are only the overhead baseline. A query
    /// pinning `4K` must fit exactly those runs, not all three pooled.
    #[test]
    fn a_4k_query_fits_the_4k_runs_alone() {
        let dir = temp_dir("pagesize");
        let store = RunStore::open(&dir).unwrap();
        let config = MachineConfig::haswell();
        let mut four_k = Vec::new();
        for mb in [8u64, 16, 32] {
            for page_size in PageSize::ALL {
                let mut s = spec().with_page_size(page_size);
                s.nominal_footprint = mb << 20;
                let record = crate::execute_run(&s, &config);
                store.save(&RunStore::key(&s, &config), &record).unwrap();
                if page_size == PageSize::Size4K {
                    four_k.push(record);
                }
            }
        }
        let q = store.query(&QueryFilter {
            workload: Some("tc-kron".to_string()),
            page_size: Some("4K".to_string()),
            ..QueryFilter::default()
        });
        assert_eq!(q.count, four_k.len() as u64);
        assert_eq!(q.groups.len(), 3, "one group per footprint");
        assert!(q.groups.iter().all(|g| g.page_size == "4K" && g.count == 1));
        let x: Vec<f64> = four_k.iter().map(RunRecord::log10_footprint_kb).collect();
        let y: Vec<f64> = four_k.iter().map(|r| r.result.counters.wcpi()).collect();
        let fit = atscale_stats::ols(&x, &y).unwrap();
        let close = |got: Option<f64>, want: f64| {
            let got = got.expect("three footprints fit");
            assert!(
                (got - want).abs() <= 1e-5 * (1.0 + want.abs()),
                "{got} vs {want}"
            );
        };
        close(q.beta, fit.slope);
        close(q.intercept, fit.intercept);
        assert_eq!(
            store.query(&QueryFilter::default()).count,
            9,
            "all three pooled"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
