//! The sweep harness: parallel, cached execution of footprint sweeps.

use crate::{OverheadPoint, RunRecord, RunSpec, RunStore};
use atscale_mmu::{MachineConfig, TelemetryHandle};
use atscale_telemetry::{LatencyMetric, Progress, Sample};
use atscale_vm::PageSize;
use atscale_workloads::WorkloadId;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Footprint-sweep parameters.
///
/// The paper sweeps ~250 MB to ~600 GB on 768 GB machines over multi-day
/// runs; the reproduction's default covers 256 MB to 16 GB (2.1 decades
/// of log-footprint, enough to fit and test the paper's log-linear laws)
/// and can be widened via [`SweepConfig::full`] when more wall-clock time
/// is available.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Smallest nominal footprint (bytes).
    pub min_footprint: u64,
    /// Largest nominal footprint (bytes).
    pub max_footprint: u64,
    /// Number of log-spaced sweep points.
    pub points: usize,
    /// Warm-up instructions per run.
    pub warmup_instr: u64,
    /// Measured instructions per run.
    pub budget_instr: u64,
    /// Base seed (each workload/footprint derives its own).
    pub seed: u64,
}

impl SweepConfig {
    /// The default sweep: 256 MB → 16 GB, 7 points.
    pub fn quick() -> Self {
        SweepConfig {
            min_footprint: 256 << 20,
            max_footprint: 16 << 30,
            points: 7,
            warmup_instr: 200_000,
            budget_instr: 2_000_000,
            seed: 42,
        }
    }

    /// A wider sweep: 256 MB → 64 GB, 9 points, longer measurement.
    pub fn full() -> Self {
        SweepConfig {
            min_footprint: 256 << 20,
            max_footprint: 64 << 30,
            points: 9,
            warmup_instr: 500_000,
            budget_instr: 4_000_000,
            seed: 42,
        }
    }

    /// A tiny sweep for tests: 16 MB → 128 MB, 3 points, short runs.
    pub fn test() -> Self {
        SweepConfig {
            min_footprint: 16 << 20,
            max_footprint: 128 << 20,
            points: 3,
            warmup_instr: 10_000,
            budget_instr: 120_000,
            seed: 42,
        }
    }

    /// The log-spaced footprints of this sweep.
    pub fn footprints(&self) -> Vec<u64> {
        assert!(self.points >= 2, "a sweep needs at least two points");
        assert!(self.min_footprint < self.max_footprint);
        let lo = (self.min_footprint as f64).ln();
        let hi = (self.max_footprint as f64).ln();
        (0..self.points)
            .map(|i| {
                let t = i as f64 / (self.points - 1) as f64;
                (lo + t * (hi - lo)).exp().round() as u64
            })
            .collect()
    }

    /// The 4 KB [`RunSpec`] for one workload at one sweep point.
    pub fn spec(&self, workload: WorkloadId, footprint: u64) -> RunSpec {
        RunSpec {
            workload,
            nominal_footprint: footprint,
            page_size: PageSize::Size4K,
            // Seed varies per instance, as the paper's generated inputs do.
            seed: self.seed ^ atscale_gen::splitmix64(footprint),
            warmup_instr: self.warmup_instr,
            budget_instr: self.budget_instr,
            arch: crate::ArchKind::Baseline,
        }
    }

    /// The fig1 spec set: every workload at every sweep point at 4 KB,
    /// 2 MB and 1 GB pages, in that order (workload-major, then
    /// footprint, then page size) — what [`Harness::sweep_many`] runs.
    pub fn specs(&self, workloads: &[WorkloadId]) -> Vec<RunSpec> {
        let footprints = self.footprints();
        workloads
            .iter()
            .flat_map(|&w| footprints.iter().map(move |&fp| self.spec(w, fp)))
            .flat_map(|base| OverheadPoint::specs(&base))
            .collect()
    }

    /// The inverse of [`SweepConfig::specs`]: `records`, in that spec
    /// order, regrouped as one [`OverheadPoint`] per sweep point, one
    /// vector per workload.
    ///
    /// # Panics
    ///
    /// Panics unless `records` holds whole workloads' worth of points.
    pub fn points(&self, records: Vec<RunRecord>) -> Vec<Vec<OverheadPoint>> {
        let per_workload = self.points * PageSize::ALL.len();
        assert!(
            records.len().is_multiple_of(per_workload),
            "{} records are not whole sweeps of {per_workload}",
            records.len()
        );
        let workloads = records.len() / per_workload;
        let mut records = records.into_iter();
        let mut next = || records.next().expect("length checked");
        let mut point = || OverheadPoint::from_records(std::array::from_fn(|_| next()));
        (0..workloads)
            .map(|_| (0..self.points).map(|_| point()).collect())
            .collect()
    }
}

/// Parallel, cached experiment driver.
///
/// # Example
///
/// ```no_run
/// use atscale::{Harness, RunStore, SweepConfig};
/// use atscale_workloads::WorkloadId;
///
/// # fn main() -> std::io::Result<()> {
/// let harness = Harness::new().with_store(RunStore::open("results/runs")?);
/// let sweep = SweepConfig::quick();
/// let points = harness.sweep(WorkloadId::parse("cc-urand").unwrap(), &sweep);
/// for p in &points {
///     println!("{:>12.0} KB  {:+.3}", p.footprint_kb(), p.relative_overhead());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Harness {
    config: MachineConfig,
    store: Option<RunStore>,
    threads: usize,
    telemetry: Option<TelemetryHandle>,
    progress: bool,
}

impl Harness {
    /// A harness on the paper's Table III machine, no cache, one thread
    /// per available CPU (capped at 8 to bound memory).
    pub fn new() -> Harness {
        let threads = std::thread::available_parallelism()
            .map_or(4, std::num::NonZero::get)
            .min(8);
        Harness {
            config: MachineConfig::haswell(),
            store: None,
            threads,
            telemetry: None,
            progress: false,
        }
    }

    /// Replaces the machine configuration (ablations).
    pub fn with_config(mut self, config: MachineConfig) -> Harness {
        self.config = config;
        self
    }

    /// Attaches a run cache.
    pub fn with_store(mut self, store: RunStore) -> Harness {
        self.store = Some(store);
        self
    }

    /// Sets the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Harness {
        self.threads = threads.max(1);
        self
    }

    /// Attaches telemetry: every run records walk/TLB-fill/wall-clock
    /// latencies into the handle's sink, interval-samples the counter
    /// file at the handle's cadence, and replays sampled series into the
    /// sink (cache hits included, so consumers see a uniform stream).
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Harness {
        self.telemetry = Some(telemetry);
        self
    }

    /// Enables stderr progress: [`Harness::run_many`] prints a one-line
    /// [`Progress`] event per finished run (an attached sink receives
    /// every event either way).
    pub fn with_progress(mut self, progress: bool) -> Harness {
        self.progress = progress;
        self
    }

    /// The machine configuration in use.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Runs one spec, consulting the cache first.
    pub fn run(&self, spec: &RunSpec) -> RunRecord {
        self.run_detailed(spec).0
    }

    /// Like [`Harness::run`], but also reports whether the record was
    /// served from the cache.
    pub fn run_detailed(&self, spec: &RunSpec) -> (RunRecord, bool) {
        let (run, cached) = self.run_timed(spec, None, self.telemetry.as_ref(), Lookup::Record);
        (run.into_record(), cached)
    }

    /// Like [`Harness::run_detailed`], for the serving daemon, which holds
    /// `spec`'s [`RunStore::key`] under this harness's config: returns the
    /// record's JSON (`serde_json::to_vec`), its samples, and whether it
    /// was a hit. A plain hit's stored bytes come back unparsed. A nonzero
    /// `sample_interval` samples in place of attached telemetry; a hit is
    /// then parsed once, and one without samples re-runs and replaces its
    /// row. `no_cache` skips the lookup and replaces the row.
    pub fn run_json(
        &self,
        spec: &RunSpec,
        key: &str,
        no_cache: bool,
        sample_interval: u64,
    ) -> (Vec<u8>, Vec<Sample>, bool) {
        let sampling =
            (sample_interval > 0).then(|| TelemetryHandle::sampling_only(sample_interval));
        let telemetry = sampling.as_ref().or(self.telemetry.as_ref());
        let lookup = if no_cache { Lookup::Skip } else { Lookup::Json };
        let (run, cached) = self.run_timed(spec, Some(key), telemetry, lookup);
        let (json, samples) = run.into_json();
        (json, samples, cached)
    }

    /// Runs one spec, records its wall-clock into `telemetry`'s sink as
    /// [`LatencyMetric::RunWallNanos`], and replays the record's sampled
    /// series into that sink. Returns the run and whether it was served
    /// from the cache.
    fn run_timed(
        &self,
        spec: &RunSpec,
        key: Option<&str>,
        telemetry: Option<&TelemetryHandle>,
        lookup: Lookup,
    ) -> (Obtained, bool) {
        // analyze:allow(determinism): run wall-clock feeds the latency histogram (operator telemetry), never the RunRecord or its key
        let start = Instant::now();
        let (run, cached) = self.obtain(spec, key, telemetry, lookup);
        if let Some(sink) = telemetry.and_then(TelemetryHandle::sink) {
            let wall = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            sink.latency(LatencyMetric::RunWallNanos, wall);
            // With telemetry attached, `obtain` always parses.
            if let Obtained::Record(record, _) = &run {
                let label = spec.label();
                for sample in &record.result.samples {
                    sink.sample(&label, sample);
                }
            }
        }
        (run, cached)
    }

    /// The one choice between a cache hit, a re-run and a bypass, and the
    /// only code that writes a record it serialised to the store. `key` is `spec`'s
    /// [`RunStore::key`] when the caller already holds it. A hit is parsed
    /// unless `lookup` is [`Lookup::Json`] and no telemetry is attached,
    /// and then bytes that do not parse are a miss; otherwise it is the
    /// stored bytes as they are.
    fn obtain(
        &self,
        spec: &RunSpec,
        key: Option<&str>,
        telemetry: Option<&TelemetryHandle>,
        lookup: Lookup,
    ) -> (Obtained, bool) {
        let execute = || crate::execute_run_with_telemetry(spec, &self.config, telemetry);
        let Some(store) = &self.store else {
            return (Obtained::Record(execute(), None), false);
        };
        let key = key.map_or_else(
            || Cow::Owned(RunStore::key(spec, &self.config)),
            Cow::Borrowed,
        );
        let stored = (lookup != Lookup::Skip).then(|| store.load_raw(&key));
        if let Some(json) = stored.flatten() {
            if lookup == Lookup::Json && telemetry.is_none() {
                return (Obtained::Stored(json), true);
            }
            // A cached record without a sampled series cannot satisfy a
            // sampling run: fall through, re-run, and overwrite.
            let sampling = telemetry.is_some_and(|h| h.sample_interval() > 0);
            if let Ok(record) = serde_json::from_slice::<RunRecord>(&json) {
                if !sampling || !record.result.samples.is_empty() {
                    return (Obtained::Record(record, Some(json)), true);
                }
            }
        }
        let record = execute();
        let json = serde_json::to_vec(&record).expect("records serialize");
        let _ = store.save_encoded(&key, crate::hot_row(&record), &json); // a failed write is a later miss
        (Obtained::Record(record, Some(json)), false)
    }

    fn emit_progress(&self, event: &Progress) {
        if self.progress {
            eprintln!("{}", event.render());
        }
        if let Some(sink) = self.telemetry.as_ref().and_then(TelemetryHandle::sink) {
            sink.progress(event);
        }
    }

    /// Runs many specs in parallel (work-stealing over `threads` workers),
    /// returning records in spec order.
    pub fn run_many(&self, specs: &[RunSpec]) -> Vec<RunRecord> {
        if specs.is_empty() {
            return Vec::new();
        }
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        // One slot per spec: each worker writes only the slot it owns, so
        // result publication never contends on a shared lock (the spec index
        // from `next` hands out exclusive ownership of slot `i`).
        let results: Vec<Mutex<Option<RunRecord>>> =
            specs.iter().map(|_| Mutex::new(None)).collect();
        let workers = self.threads.min(specs.len());
        crossbeam::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|_| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= specs.len() {
                        break;
                    }
                    // analyze:allow(determinism): per-run wall-clock is progress metadata for operators, never part of a record
                    let start = Instant::now();
                    let (record, cached) = self.run_detailed(&specs[i]);
                    self.emit_progress(&Progress {
                        completed: done.fetch_add(1, Ordering::Relaxed) + 1,
                        total: specs.len(),
                        label: specs[i].label(),
                        wall_ms: u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX),
                        cached,
                    });
                    *results[i].lock() = Some(record);
                });
            }
        })
        .expect("worker threads do not panic");
        results
            .into_iter()
            .map(|slot| slot.into_inner().expect("all specs were executed"))
            .collect()
    }

    /// Measures one workload instance at all three page sizes (in
    /// parallel, cache first), forming an [`OverheadPoint`].
    ///
    /// # Panics
    ///
    /// Panics unless `spec_4k` is a 4 KB spec.
    pub fn overhead_point(&self, spec_4k: &RunSpec) -> OverheadPoint {
        let records = self.run_many(&OverheadPoint::specs(spec_4k));
        OverheadPoint::from_records(records.try_into().expect("three records"))
    }

    /// Runs a full footprint sweep for one workload.
    pub fn sweep(&self, workload: WorkloadId, sweep: &SweepConfig) -> Vec<OverheadPoint> {
        self.sweep_many(&[workload], sweep).remove(0)
    }

    /// Runs sweeps for many workloads with one shared worker pool,
    /// returning per-workload point vectors in input order.
    pub fn sweep_many(
        &self,
        workloads: &[WorkloadId],
        sweep: &SweepConfig,
    ) -> Vec<Vec<OverheadPoint>> {
        sweep.points(self.run_many(&sweep.specs(workloads)))
    }
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

/// What [`Harness::obtain`] does with the store: parse a hit, hand it
/// back as stored bytes unless telemetry must see the record, or skip the
/// lookup and replace the row.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Lookup {
    Record,
    Json,
    Skip,
}

/// A run as [`Harness::obtain`] found or made it.
// `Record` dominates the size because `RunRecord` carries full counter
// state; a value lives only until its caller unwraps it, so boxing would
// buy an allocation per run and save nothing.
#[allow(clippy::large_enum_variant)]
enum Obtained {
    /// A cache hit's stored bytes, unparsed.
    Stored(Vec<u8>),
    /// A parsed hit or an execution, with the record's JSON when a store
    /// holds it.
    Record(RunRecord, Option<Vec<u8>>),
}

impl Obtained {
    fn into_record(self) -> RunRecord {
        match self {
            Obtained::Record(record, _) => record,
            // Unreached: the typed callers ask `obtain` to parse.
            Obtained::Stored(json) => serde_json::from_slice(&json).expect("stored records parse"),
        }
    }

    /// The record's JSON and its sampled series (none for stored bytes,
    /// which are returned only when nothing samples).
    fn into_json(self) -> (Vec<u8>, Vec<Sample>) {
        match self {
            Obtained::Stored(json) => (json, Vec::new()),
            Obtained::Record(mut record, json) => {
                let json =
                    json.unwrap_or_else(|| serde_json::to_vec(&record).expect("records serialize"));
                (json, std::mem::take(&mut record.result.samples))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprints_are_log_spaced() {
        let sweep = SweepConfig::quick();
        let fps = sweep.footprints();
        assert_eq!(fps.len(), 7);
        assert_eq!(fps[0], 256 << 20);
        // Ratios between consecutive points are constant (±rounding).
        let r01 = fps[1] as f64 / fps[0] as f64;
        let r56 = fps[6] as f64 / fps[5] as f64;
        assert!((r01 - r56).abs() < 0.01 * r01);
        assert!((fps[6] as f64 - (16u64 << 30) as f64).abs() < 1e7);
    }

    #[test]
    fn points_inverts_specs() {
        let sweep = SweepConfig::test();
        let workloads = ["cc-urand", "bfs-urand"].map(|w| WorkloadId::parse(w).unwrap());
        let specs = sweep.specs(&workloads);
        let record = crate::execute_run(&specs[0], &MachineConfig::haswell());
        let records = specs
            .iter()
            .map(|&spec| RunRecord {
                spec,
                ..record.clone()
            })
            .collect();
        let points = sweep.points(records);
        assert_eq!(points.len(), workloads.len());
        for (&w, series) in workloads.iter().zip(&points) {
            assert_eq!(series.len(), sweep.points);
            for (p, fp) in series.iter().zip(sweep.footprints()) {
                let spec = sweep.spec(w, fp);
                assert_eq!(p.run_4k.spec, spec);
                assert_eq!(p.run_2m.spec, spec.with_page_size(PageSize::Size2M));
                assert_eq!(p.run_1g.spec, spec.with_page_size(PageSize::Size1G));
            }
        }
    }

    #[test]
    fn run_many_preserves_order_and_parallelises() {
        let harness = Harness::new().with_threads(4);
        let sweep = SweepConfig::test();
        let w = WorkloadId::parse("cc-urand").unwrap();
        let specs: Vec<RunSpec> = sweep
            .footprints()
            .into_iter()
            .map(|fp| sweep.spec(w, fp))
            .collect();
        let records = harness.run_many(&specs);
        assert_eq!(records.len(), 3);
        for (spec, record) in specs.iter().zip(&records) {
            assert_eq!(&record.spec, spec, "order preserved");
        }
        // Footprints grow along the sweep.
        assert!(records[2].result.footprint_bytes() > records[0].result.footprint_bytes());
    }

    #[test]
    fn cached_runs_are_identical_to_fresh_ones() {
        let dir = std::env::temp_dir().join(format!("atscale-harness-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = RunStore::open(&dir).unwrap();
        let harness = Harness::new().with_store(store);
        let sweep = SweepConfig::test();
        let spec = sweep.spec(WorkloadId::parse("tc-kron").unwrap(), 16 << 20);
        let fresh = harness.run(&spec);
        let cached = harness.run(&spec);
        assert_eq!(fresh.result.counters, cached.result.counters);
    }

    /// `run_json` hands back a hit's stored bytes, and they are the JSON of
    /// the record `run` returns.
    #[test]
    fn run_json_hits_are_the_stored_bytes() {
        let dir = std::env::temp_dir().join(format!("atscale-run-json-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let harness = Harness::new().with_store(RunStore::open(&dir).unwrap());
        let spec = SweepConfig::test().spec(WorkloadId::parse("tc-kron").unwrap(), 16 << 20);
        let key = RunStore::key(&spec, harness.config());
        let (fresh, samples, cached) = harness.run_json(&spec, &key, false, 0);
        assert!(!cached);
        assert!(samples.is_empty());
        assert_eq!(
            harness.run_json(&spec, &key, false, 0),
            (fresh.clone(), Vec::new(), true)
        );
        assert_eq!(serde_json::to_vec(&harness.run(&spec)).unwrap(), fresh);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The daemon's three cache rules, all decided in `obtain`: a bypass
    /// executes and writes back under the plain key, a plain call is then
    /// a hit on those bytes, and a sampling call on a row without samples
    /// re-runs and replaces that row.
    #[test]
    fn run_json_bypasses_hits_and_resamples() {
        let dir = std::env::temp_dir().join(format!("atscale-cache-first-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = RunStore::open(&dir).unwrap();
        let harness = Harness::new().with_store(store.clone());
        let spec = SweepConfig::test().spec(WorkloadId::parse("cc-urand").unwrap(), 16 << 20);
        let key = RunStore::key(&spec, harness.config());

        let (bypassed, samples, cached) = harness.run_json(&spec, &key, true, 0);
        assert!(!cached);
        assert!(samples.is_empty());
        assert_eq!(
            store.load_raw(&key).as_ref(),
            Some(&bypassed),
            "written back"
        );

        let hit = harness.run_json(&spec, &key, false, 0);
        assert_eq!(hit, (bypassed.clone(), Vec::new(), true));

        let (sampled, samples, cached) = harness.run_json(&spec, &key, false, 5_000);
        assert!(!cached, "a sample-less row cannot answer a sampling call");
        assert!(!samples.is_empty());
        assert_eq!(
            store.load_raw(&key).as_ref(),
            Some(&sampled),
            "row replaced"
        );
        let record: RunRecord = serde_json::from_slice(&sampled).unwrap();
        assert_eq!(record.result.samples, samples);
        assert_eq!(
            harness.run_json(&spec, &key, false, 5_000),
            (sampled, samples, true)
        );

        // A bypass skips even a row that would answer it.
        let (again, _, cached) = harness.run_json(&spec, &key, true, 0);
        assert!(!cached);
        assert_eq!(again, bypassed, "same spec, same record");
        assert_eq!(store.load_raw(&key), Some(bypassed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_flows_through_the_harness() {
        use atscale_telemetry::TelemetrySink;
        use std::sync::Arc;

        let sink = Arc::new(TelemetrySink::new());
        let harness = Harness::new()
            .with_threads(2)
            .with_telemetry(TelemetryHandle::new(sink.clone(), 10_000));
        let sweep = SweepConfig::test();
        let w = WorkloadId::parse("cc-urand").unwrap();
        let specs: Vec<RunSpec> = sweep
            .footprints()
            .into_iter()
            .map(|fp| sweep.spec(w, fp))
            .collect();
        let records = harness.run_many(&specs);
        assert_eq!(records.len(), 3);
        assert!(records.iter().all(|r| !r.result.samples.is_empty()));
        // One progress event and one wall-clock observation per run, and
        // every run's sampled series replayed into the sink.
        assert_eq!(sink.progress_count(), 3);
        assert_eq!(sink.histogram(LatencyMetric::RunWallNanos).count(), 3);
        assert!(sink.sample_count() >= 3);
        assert!(sink.histogram(LatencyMetric::WalkCycles).count() > 0);
        assert!(sink.histogram(LatencyMetric::TlbFillCycles).count() > 0);
    }

    #[test]
    fn sampled_series_are_deterministic() {
        let sweep = SweepConfig::test();
        let spec = sweep.spec(WorkloadId::parse("pr-urand").unwrap(), 32 << 20);
        let harness = Harness::new().with_telemetry(TelemetryHandle::sampling_only(5_000));
        let a = harness.run(&spec);
        let b = harness.run(&spec);
        assert!(!a.result.samples.is_empty());
        assert_eq!(a.result.samples, b.result.samples, "same seed, same series");
    }

    #[test]
    fn sampling_harness_refreshes_sample_less_cache_entries() {
        let dir = std::env::temp_dir().join(format!("atscale-tel-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = SweepConfig::test().spec(WorkloadId::parse("cc-urand").unwrap(), 16 << 20);

        let plain = Harness::new().with_store(RunStore::open(&dir).unwrap());
        let first = plain.run(&spec);
        assert!(first.result.samples.is_empty(), "no telemetry, no series");

        // A clone shares the store handle (a directory has one owner).
        let sampling = plain
            .clone()
            .with_telemetry(TelemetryHandle::sampling_only(5_000));
        let refreshed = sampling.run(&spec);
        assert!(!refreshed.result.samples.is_empty(), "cache entry re-run");
        assert_eq!(first.result.counters, refreshed.result.counters);

        // The refreshed record replaced the cache entry, so even a plain
        // harness now sees the sampled series.
        let again = plain.run(&spec);
        assert!(!again.result.samples.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overhead_point_runs_three_page_sizes() {
        let harness = Harness::new();
        let sweep = SweepConfig::test();
        let spec = sweep.spec(WorkloadId::parse("pr-urand").unwrap(), 32 << 20);
        let point = harness.overhead_point(&spec);
        assert_eq!(point.run_4k.spec.page_size, PageSize::Size4K);
        assert_eq!(point.run_2m.spec.page_size, PageSize::Size2M);
        assert_eq!(point.run_1g.spec.page_size, PageSize::Size1G);
        assert!(point.baseline_cycles() > 0);
    }
}
