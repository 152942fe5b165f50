//! The execution engine: drives the full translation stack from a workload
//! access stream and accounts cycles.
//!
//! ## Cycle model
//!
//! The engine is *cycle-approximate*, not cycle-accurate: it charges each
//! retired instruction its workload-profile base CPI, then adds the
//! **exposed** part of every memory and translation stall:
//!
//! * data-cache misses expose `(latency − l1_latency) / mlp` cycles, where
//!   `mlp` is the workload's memory-level parallelism;
//! * L2-TLB hits expose `penalty / mlp`;
//! * page-table walks expose `walk_cycles / mlp` (stores scaled by the
//!   profile's store-walk exposure, since store-buffer drains mostly hide
//!   them).
//!
//! The `dtlb_misses.walk_duration` counter, by contrast, records **full**
//! walk cycles — exactly what the hardware event counts — so WCPI is a
//! counter-derived metric while runtime reflects overlap, preserving the
//! paper's distinction between *pressure* (WCPI) and *overhead* (runtime
//! difference).
//!
//! ## Demand paging
//!
//! First touches map pages but charge no cycles: the paper's workloads are
//! long-running and warmed (60 s dry runs), so OS fault cost is noise there;
//! charging it here would pollute the 4 KB-vs-2 MB comparison with a
//! fault-count artefact instead of a translation effect.

use crate::arch::{BaselineArch, TranslationArchitecture};
use crate::result::{arch_event_pairs, RunResult};
use crate::telemetry::{MachineTelemetry, TelemetryHandle};
use crate::{
    AccessOp, AccessSink, ArchLookup, Counters, MachineConfig, PageTableWalker,
    PagingStructureCaches, SpecEvent, SpeculationModel, TlbHierarchy, WorkloadProfile,
};
use atscale_cache::{AccessKind, CacheHierarchy};
use atscale_telemetry::LatencyMetric;
use atscale_vm::{
    invariant, AddressSpace, BackingPolicy, CheckInvariants, PageSize, PhysAddr, ProbeResult,
    VirtAddr,
};

mod reference;

pub use reference::ReferenceMachine;

/// Interval (in retired instructions) between speculation-pressure updates.
const PRESSURE_WINDOW: u64 = 4096;

/// The simulated machine: address space + caches + TLBs + walker +
/// speculation + counters, driven through [`AccessSink`].
///
/// Generic over the [`TranslationArchitecture`] mediating the translate
/// path. Dispatch is monomorphic — each architecture compiles its own copy
/// of the per-access pipeline, so [`Machine`] (the [`BaselineArch`] alias)
/// keeps the restructured L1-hit fast path with zero indirection.
///
/// See the crate-level example for typical use. Construct, let the workload
/// allocate via [`Machine::space_mut`] and push its access stream, then call
/// [`Machine::finish`].
#[derive(Debug)]
pub struct ArchMachine<A: TranslationArchitecture> {
    config: MachineConfig,
    profile: WorkloadProfile,
    space: AddressSpace,
    caches: CacheHierarchy,
    tlbs: TlbHierarchy,
    psc: PagingStructureCaches,
    walker: PageTableWalker,
    spec: SpeculationModel,
    counters: Counters,
    /// Counter snapshot from the previous invariant sweep, for the
    /// debug-build monotonicity check (counters must never decrease).
    last_checked: Counters,
    cycles_f: f64,
    stall_window: f64,
    walk_stall_window: f64,
    window_start_cycles: f64,
    next_pressure_update: u64,
    total_retired: u64,
    warmup_instrs: u64,
    budget_instrs: u64,
    warmed: bool,
    telemetry: MachineTelemetry,
    /// The translation architecture's private state (extension arrays,
    /// stacked-cache directory, …). Zero-sized for [`BaselineArch`].
    arch: A,
}

/// The default machine: the paper's Table III design behind the
/// architecture seam ([`BaselineArch`] — proven bit-identical to the
/// pre-trait engine by the conformance suite).
pub type Machine = ArchMachine<BaselineArch>;

impl<A: TranslationArchitecture> ArchMachine<A> {
    /// Builds a machine with the given configuration, page-backing policy
    /// and workload profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails validation (see
    /// [`WorkloadProfile::validate`]).
    pub fn new(config: MachineConfig, policy: BackingPolicy, profile: WorkloadProfile) -> Self {
        profile.validate();
        ArchMachine {
            arch: A::new(&config),
            config,
            profile,
            space: AddressSpace::new(policy),
            caches: CacheHierarchy::new(config.hierarchy),
            tlbs: TlbHierarchy::new(config.tlb),
            psc: PagingStructureCaches::new(config.psc),
            walker: PageTableWalker::new(config.walker),
            spec: SpeculationModel::new(config.spec, &profile),
            counters: Counters::new(),
            last_checked: Counters::new(),
            cycles_f: 0.0,
            stall_window: 0.0,
            walk_stall_window: 0.0,
            window_start_cycles: 0.0,
            next_pressure_update: PRESSURE_WINDOW,
            total_retired: 0,
            warmup_instrs: 0,
            budget_instrs: 0,
            warmed: true,
            telemetry: MachineTelemetry::default(),
        }
    }

    /// Sets the measurement window: `warmup` retired instructions are
    /// simulated with full microarchitectural effect but no counting (the
    /// paper's dry-run analogue), then counters run until `budget` measured
    /// instructions. A `budget` of 0 means unlimited (the workload decides
    /// when to stop).
    pub fn set_limits(&mut self, warmup: u64, budget: u64) {
        self.warmup_instrs = warmup;
        self.budget_instrs = budget;
        self.warmed = warmup == 0;
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The workload profile.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Mutable access to the address space, for workload setup
    /// (allocating segments).
    pub fn space_mut(&mut self) -> &mut AddressSpace {
        &mut self.space
    }

    /// Read access to the address space.
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Attaches telemetry: a latency recorder and/or an interval-sampling
    /// cadence. Must be called before the workload runs; the sampler starts
    /// counting from the current measurement position.
    pub fn set_telemetry(&mut self, handle: TelemetryHandle) {
        self.telemetry.install(handle);
    }

    /// Snapshot of the counters so far (cycles and minor faults synced, the
    /// same way [`Machine::finish`] syncs them — so interval samples taken
    /// from this snapshot reconcile with end-of-run totals).
    pub fn counters(&self) -> Counters {
        let mut c = self.counters;
        c.cycles = self.cycles_f as u64;
        c.minor_faults = self.space.stats().minor_faults;
        c
    }

    /// Total instructions retired including warm-up.
    pub fn total_retired(&self) -> u64 {
        self.total_retired
    }

    /// Finishes the run and extracts all measurements.
    ///
    /// In debug builds this runs the full invariant sweep — counter
    /// identities, cross-structure couplings, and the structural scans of
    /// every cache and TLB array — before the result is extracted.
    pub fn finish(mut self) -> RunResult {
        if cfg!(debug_assertions) {
            self.check_invariants();
        }
        let mut counters = self.counters;
        counters.cycles = self.cycles_f as u64;
        counters.minor_faults = self.space.stats().minor_faults;
        let hierarchy = *self.caches.stats();
        // Final sample from the fully-synced counter file, so the last
        // entry of the series reconciles exactly with `counters`.
        self.telemetry.take_final_sample(&counters, &hierarchy.pte);
        let mean_pte_latency = hierarchy.mean_pte_latency(&self.config.hierarchy.latency);
        RunResult {
            counters,
            tlb: self.tlbs.stats(),
            hierarchy,
            space: self.space.stats(),
            psc_hits: self.psc.hit_counts(),
            psc_lookups: self.psc.lookups(),
            page_size: self.space.policy().requested(),
            mean_pte_latency,
            samples: std::mem::take(&mut self.telemetry).into_samples(),
            arch_events: arch_event_pairs(self.arch.extra_counters()),
        }
    }

    fn on_retired_instructions(&mut self, n: u64) {
        self.total_retired += n;
        if !self.warmed && self.total_retired >= self.warmup_instrs {
            self.reset_measurement();
            self.warmed = true;
        }
        if let Some(event) = self.spec.advance(n) {
            self.run_wrong_path(event);
        }
        if self.warmed && self.telemetry.sample_due(self.counters.inst_retired) {
            let snapshot = self.counters();
            let pte = self.caches.stats().pte;
            self.telemetry.take_sample(&snapshot, &pte);
        }
        if self.total_retired >= self.next_pressure_update {
            self.next_pressure_update = self.total_retired + PRESSURE_WINDOW;
            let window_cycles = (self.cycles_f - self.window_start_cycles).max(1.0);
            // Machine clears couple to *walk* pressure (paper Fig. 9): the
            // fraction of cycles stalled on translation.
            self.spec
                .set_pressure(self.walk_stall_window / window_cycles);
            self.stall_window = 0.0;
            self.walk_stall_window = 0.0;
            self.window_start_cycles = self.cycles_f;
            if cfg!(debug_assertions) {
                self.debug_check_window();
            }
        }
    }

    /// Debug-cadence invariant sweep, run once per pressure window: the
    /// counter identities and cross-structure couplings (cheap), plus the
    /// monotonicity check against the previous window's snapshot. The full
    /// structural scan of cache/TLB arrays runs only in [`Machine::finish`].
    fn debug_check_window(&mut self) {
        let snapshot = self.counters();
        invariant!(
            snapshot
                .first_regression_since(&self.last_checked)
                .is_none(),
            "counter {} decreased between invariant sweeps",
            snapshot
                .first_regression_since(&self.last_checked)
                .unwrap_or("<none>")
        );
        snapshot.check_invariants();
        self.check_counter_couplings(&snapshot);
        self.last_checked = snapshot;
    }

    /// Invariants tying the counter file to the structures that feed it.
    fn check_counter_couplings(&self, c: &Counters) {
        let tlb = self.tlbs.stats();
        invariant!(
            tlb.misses == c.walks_initiated(),
            "every TLB miss initiates exactly one walk: {} misses, {} walks",
            tlb.misses,
            c.walks_initiated()
        );
        invariant!(
            tlb.l2_hits >= c.stlb_hit_loads + c.stlb_hit_stores,
            "retired STLB hits ({}) exceed all L2 TLB hits ({})",
            c.stlb_hit_loads + c.stlb_hit_stores,
            tlb.l2_hits
        );
        invariant!(
            self.caches.stats().pte.total() == c.pt_accesses,
            "walker PTE fetches ({}) diverge from hierarchy PTE accesses ({})",
            c.pt_accesses,
            self.caches.stats().pte.total()
        );
        let o = c.walk_outcomes();
        let setup = self.config.walker.setup_cycles as u64;
        let min_completed = setup + self.config.hierarchy.latency.l1 as u64;
        invariant!(
            c.walk_duration_cycles >= o.completed * min_completed + o.aborted * setup,
            "walk duration ({}) below the floor for {} completed + {} aborted walks",
            c.walk_duration_cycles,
            o.completed,
            o.aborted
        );
    }

    /// Records one latency observation, suppressed during warm-up so the
    /// histograms cover the same window as the counter file.
    #[inline]
    fn record_latency(&self, metric: LatencyMetric, value: u64) {
        if self.warmed {
            self.telemetry.latency(metric, value);
        }
    }

    fn reset_measurement(&mut self) {
        self.counters = Counters::new();
        self.last_checked = Counters::new();
        self.telemetry.reset();
        self.cycles_f = 0.0;
        self.stall_window = 0.0;
        self.walk_stall_window = 0.0;
        self.window_start_cycles = 0.0;
        self.caches.reset_stats();
        self.tlbs.reset_stats();
        self.psc.reset_stats();
    }

    fn run_wrong_path(&mut self, event: SpecEvent) {
        match event {
            SpecEvent::Mispredict => self.counters.branch_mispredicts += 1,
            SpecEvent::MachineClear => self.counters.machine_clears += 1,
        }
        let instr = self.counters.inst_retired.max(1) as f64;
        let api = (self.counters.accesses_retired() as f64 / instr).clamp(0.01, 1.0);
        let plan = self.spec.plan(event, api, self.profile.base_cpi);
        let mut elapsed = 0u64;
        for _ in 0..plan.accesses {
            if elapsed >= plan.squash_budget {
                break;
            }
            let Some(va) = self.spec.sample_wrong_path(self.space.segments()) else {
                break;
            };
            if !matches!(self.arch.lookup(&mut self.tlbs, va), ArchLookup::Miss) {
                continue;
            }
            // Speculative TLB miss: a walk is initiated but never retires.
            self.counters.walk_initiated_loads += 1;
            let budget = plan.squash_budget - elapsed;
            let walk = match self.space.probe_walk(va) {
                ProbeResult::Mapped(path) => {
                    let arch = &mut self.arch;
                    let w = self.walker.walk(
                        va,
                        &path,
                        &mut self.psc,
                        &mut self.caches,
                        Some(budget),
                        |paddr, response| arch.pte_fetch_latency(paddr, response),
                    );
                    if w.completed {
                        self.arch.fill(
                            &mut self.tlbs,
                            va,
                            path.page_size,
                            path.frame_base.as_u64(),
                        );
                    }
                    w
                }
                ProbeResult::NotPresent { fetched } => {
                    let arch = &mut self.arch;
                    self.walker.walk_prefix(
                        fetched.steps(),
                        &mut self.caches,
                        Some(budget),
                        |paddr, response| arch.pte_fetch_latency(paddr, response),
                    )
                }
            };
            self.counters.walk_duration_cycles += walk.cycles;
            self.counters.pt_accesses += walk.accesses as u64;
            self.record_latency(LatencyMetric::WalkCycles, walk.cycles);
            elapsed += walk.cycles;
            invariant!(
                walk.cycles >= self.config.walker.setup_cycles as u64,
                "walk consumed fewer cycles than walker setup"
            );
            if walk.completed {
                self.counters.walk_completed_loads += 1;
                self.counters.truth_wrong_path_walks += 1;
            } else {
                self.counters.truth_aborted_walks += 1;
                // The squash that killed this walk kills the rest too.
                break;
            }
        }
    }
}

impl<A: TranslationArchitecture> CheckInvariants for ArchMachine<A> {
    fn check_invariants(&self) {
        let snapshot = self.counters();
        snapshot.check_invariants();
        self.check_counter_couplings(&snapshot);
        self.tlbs.check_invariants();
        self.psc.check_invariants();
        self.caches.check_invariants();
        self.space.check_invariants();
        self.telemetry.check_invariants();
    }
}

impl<A: TranslationArchitecture> ArchMachine<A> {
    /// The data-cache access every retired memory op performs after
    /// translation, plus the load-dependent stall accounting. Identical for
    /// every TLB outcome; `translation_cycles` is the translation-side
    /// latency the access suffered first (feeds branch-resolution windows).
    #[inline]
    fn finish_data_access(
        &mut self,
        op: AccessOp,
        va: VirtAddr,
        translation_cycles: u64,
        frame_base: PhysAddr,
        page_size: PageSize,
    ) {
        let paddr = frame_base.add(va.page_offset(page_size));
        let response = self.caches.access(paddr, AccessKind::Data);
        if op == AccessOp::Load {
            // A dependent branch waits for translation + data.
            self.spec
                .note_data_latency((translation_cycles + response.latency as u64) as f64);
            let l1 = self.config.hierarchy.latency.l1;
            if response.latency > l1 {
                let exposed = (response.latency - l1) as f64 / self.profile.mlp;
                self.cycles_f += exposed;
                self.stall_window += exposed;
            }
        }
    }

    /// The second-level-hit leg of the pipeline: retired-STLB-hit counters
    /// plus the exposed part of the architecture-chosen penalty (the shared
    /// L2 TLB penalty for baseline; an extension level's latency otherwise).
    fn access_l2_hit(
        &mut self,
        op: AccessOp,
        va: VirtAddr,
        size: PageSize,
        frame: u64,
        penalty: u32,
    ) {
        match op {
            AccessOp::Load => self.counters.stlb_hit_loads += 1,
            AccessOp::Store => self.counters.stlb_hit_stores += 1,
        }
        let translation_cycles = penalty as u64;
        self.record_latency(LatencyMetric::TlbFillCycles, translation_cycles);
        let exposed = penalty as f64 / self.profile.mlp;
        self.cycles_f += exposed;
        self.stall_window += exposed;
        self.finish_data_access(op, va, translation_cycles, PhysAddr::new(frame), size);
    }

    /// The full-miss leg: demand-touch the page, walk the table through the
    /// caches, refill the TLBs (with the frame payload the fast path relies
    /// on), and expose the walk stall.
    fn access_miss(&mut self, op: AccessOp, va: VirtAddr) {
        match op {
            AccessOp::Load => {
                self.counters.stlb_miss_loads += 1;
                self.counters.walk_initiated_loads += 1;
                self.counters.walk_completed_loads += 1;
            }
            AccessOp::Store => {
                self.counters.stlb_miss_stores += 1;
                self.counters.walk_initiated_stores += 1;
                self.counters.walk_completed_stores += 1;
            }
        }
        self.counters.truth_retired_walks += 1;
        let touch = self
            .space
            .touch(va)
            .unwrap_or_else(|err| panic!("workload accessed invalid memory: {err}"));
        let walk = {
            let arch = &mut self.arch;
            self.walker.walk(
                va,
                &touch.path,
                &mut self.psc,
                &mut self.caches,
                None,
                |paddr, response| arch.pte_fetch_latency(paddr, response),
            )
        };
        invariant!(walk.completed, "retired walks always complete");
        invariant!(
            walk.accesses >= 1,
            "a completed walk fetches at least the leaf PTE"
        );
        self.counters.walk_duration_cycles += walk.cycles;
        self.counters.pt_accesses += walk.accesses as u64;
        self.record_latency(LatencyMetric::WalkCycles, walk.cycles);
        self.record_latency(LatencyMetric::TlbFillCycles, walk.cycles);
        self.arch.fill(
            &mut self.tlbs,
            va,
            touch.path.page_size,
            touch.path.frame_base.as_u64(),
        );
        let exposure = match op {
            AccessOp::Load => 1.0,
            AccessOp::Store => self.profile.store_walk_exposure,
        };
        let exposed = walk.cycles as f64 * exposure / self.profile.mlp;
        self.cycles_f += exposed;
        self.walk_stall_window += exposed;
        self.stall_window += exposed;
        self.finish_data_access(
            op,
            va,
            walk.cycles,
            touch.path.frame_base,
            touch.path.page_size,
        );
    }
}

impl<A: TranslationArchitecture> AccessSink for ArchMachine<A> {
    /// The per-access pipeline, restructured around the TLB outcome.
    ///
    /// The dominant L1-hit case reads the frame base straight out of the
    /// TLB entry and touches only the TLB array, the counter struct, the
    /// cycle accumulator and the data cache — no page-table consultation at
    /// all. This is bit-for-bit equivalent to the reference pipeline
    /// ([`ReferenceMachine`], the only other per-access pipeline there is)
    /// because (a) a mapped translation is immutable, so the payload
    /// installed at fill time is always current, (b) `AddressSpace::touch`
    /// on a mapped page is a pure read with no observable effect, and (c)
    /// every state mutation the two pipelines share happens in the same
    /// order with the same f64 values. The golden test in `atscale-core`
    /// enforces this equivalence over every workload.
    ///
    /// Translation routes through the [`TranslationArchitecture`] — for
    /// [`BaselineArch`] the lookup inlines to exactly
    /// [`TlbHierarchy::lookup`] plus the miss count (the conformance suite
    /// proves the byte-identity; the benchmark's `sim_minstr_per_s` reports
    /// the cost).
    #[inline]
    fn access(&mut self, op: AccessOp, va: VirtAddr) {
        self.counters.inst_retired += 1;
        match op {
            AccessOp::Load => self.counters.loads_retired += 1,
            AccessOp::Store => self.counters.stores_retired += 1,
        }
        self.cycles_f += self.profile.base_cpi;
        self.spec.note_retired(va);

        match self.arch.lookup(&mut self.tlbs, va) {
            ArchLookup::L1 { size, frame } => {
                self.finish_data_access(op, va, 0, PhysAddr::new(frame), size);
            }
            ArchLookup::L2 {
                size,
                frame,
                penalty,
            } => self.access_l2_hit(op, va, size, frame, penalty),
            ArchLookup::Miss => self.access_miss(op, va),
        }

        self.on_retired_instructions(1);
    }

    fn instructions(&mut self, n: u64) {
        self.counters.inst_retired += n;
        self.cycles_f += n as f64 * self.profile.base_cpi;
        self.on_retired_instructions(n);
    }

    fn done(&self) -> bool {
        self.budget_instrs != 0 && self.total_retired >= self.warmup_instrs + self.budget_instrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atscale_vm::Segment;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn machine(policy_size: PageSize) -> Machine {
        Machine::new(
            MachineConfig::haswell(),
            BackingPolicy::uniform(policy_size),
            WorkloadProfile::default(),
        )
    }

    fn random_workload(m: &mut Machine, seg: &Segment, accesses: u64, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..accesses {
            let off = rng.gen_range(0..seg.len() / 8) * 8;
            m.load(seg.base().add(off));
            m.instructions(2);
        }
    }

    #[test]
    fn sequential_scan_mostly_hits_tlb() {
        let mut m = machine(PageSize::Size4K);
        let seg = m.space_mut().alloc_heap("a", 1 << 20).unwrap();
        for i in 0..16384u64 {
            m.load(seg.base().add(i * 64));
        }
        let r = m.finish();
        // 256 pages touched sequentially: one walk per page (plus a few).
        assert!(r.counters.truth_retired_walks >= 256);
        assert!(r.counters.truth_retired_walks < 600);
        assert!(r.tlb.miss_ratio() < 0.05);
        r.counters.assert_consistent();
    }

    #[test]
    fn random_large_footprint_pressures_tlb() {
        let mut m = machine(PageSize::Size4K);
        let seg = m.space_mut().alloc_heap("a", 256 << 20).unwrap();
        random_workload(&mut m, &seg, 50_000, 7);
        let r = m.finish();
        assert!(
            r.counters.walk_outcomes().retired > 40_000,
            "random accesses over 256 MiB nearly always miss the TLB"
        );
        assert!(r.counters.wcpi() > 0.1);
        r.counters.assert_consistent();
    }

    #[test]
    fn superpages_slash_walk_pressure() {
        let run = |size| {
            let mut m = machine(size);
            let seg = m.space_mut().alloc_heap("a", 64 << 20).unwrap();
            random_workload(&mut m, &seg, 40_000, 11);
            m.finish()
        };
        let base = run(PageSize::Size4K);
        let huge = run(PageSize::Size2M);
        assert!(huge.counters.walks_retired() < base.counters.walks_retired() / 10);
        assert!(huge.counters.wcpi() < base.counters.wcpi() / 5.0);
        assert!(huge.runtime_cycles() < base.runtime_cycles());
    }

    #[test]
    fn wrong_path_and_aborted_walks_appear_under_pressure() {
        let mut m = machine(PageSize::Size4K);
        let seg = m.space_mut().alloc_heap("a", 512 << 20).unwrap();
        random_workload(&mut m, &seg, 200_000, 13);
        let r = m.finish();
        let o = r.counters.walk_outcomes();
        assert!(o.wrong_path > 0, "expected wrong-path walks");
        assert!(o.aborted > 0, "expected aborted walks");
        assert!(o.retired > 0);
        r.counters.assert_consistent();
    }

    #[test]
    fn disabling_speculation_removes_non_retired_walks() {
        let mut config = MachineConfig::haswell();
        config.spec = crate::SpecConfig::disabled();
        let mut m = Machine::new(
            config,
            BackingPolicy::uniform(PageSize::Size4K),
            WorkloadProfile::default(),
        );
        let seg = m.space_mut().alloc_heap("a", 128 << 20).unwrap();
        random_workload(&mut m, &seg, 50_000, 17);
        let r = m.finish();
        let o = r.counters.walk_outcomes();
        assert_eq!(o.wrong_path, 0);
        assert_eq!(o.aborted, 0);
        assert_eq!(o.initiated, o.retired);
    }

    #[test]
    fn warmup_excludes_cold_effects_from_counters() {
        let mut m = machine(PageSize::Size4K);
        let seg = m.space_mut().alloc_heap("a", 4 << 20).unwrap();
        m.set_limits(50_000, 0);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..60_000 {
            let off = rng.gen_range(0..seg.len() / 8) * 8;
            m.load(seg.base().add(off));
        }
        let r = m.finish();
        // Only ~10k of the 60k accesses are measured.
        assert!(r.counters.inst_retired < 15_000);
        assert!(r.counters.inst_retired > 5_000);
        // The 4 MiB working set was fully faulted during warm-up, so the
        // measured region has warm TLBs relative to a cold start.
        r.counters.assert_consistent();
    }

    #[test]
    fn eq1_identity_holds_exactly() {
        // WCPI == (A/I)·(M/A)·(P/M)·(C/P) when every factor uses counters
        // consistently (M = walks initiated, P = PTE fetches, C = walk cycles).
        let mut m = machine(PageSize::Size4K);
        let seg = m.space_mut().alloc_heap("a", 64 << 20).unwrap();
        random_workload(&mut m, &seg, 30_000, 23);
        let r = m.finish();
        let c = &r.counters;
        let product = (c.accesses_retired() as f64 / c.inst_retired as f64)
            * (c.walks_initiated() as f64 / c.accesses_retired() as f64)
            * (c.pt_accesses as f64 / c.walks_initiated() as f64)
            * (c.walk_duration_cycles as f64 / c.pt_accesses as f64);
        let wcpi = c.wcpi();
        assert!(
            (product - wcpi).abs() < 1e-9 * wcpi.max(1.0),
            "Eq. 1 identity: product {product} vs wcpi {wcpi}"
        );
    }

    #[test]
    fn accesses_per_walk_stay_in_paper_range() {
        let mut m = machine(PageSize::Size4K);
        let seg = m.space_mut().alloc_heap("a", 128 << 20).unwrap();
        random_workload(&mut m, &seg, 60_000, 29);
        let r = m.finish();
        let per_walk = r.counters.pt_accesses as f64 / r.counters.walks_initiated() as f64;
        assert!(
            (1.0..=2.5).contains(&per_walk),
            "accesses per walk = {per_walk}, paper reports 1–2"
        );
    }

    #[test]
    fn one_gig_fallback_hurts_small_footprints() {
        // §III-B: with a 1 GB policy, a 256 MiB segment is backed by 4 KB
        // pages, so it performs like the 4 KB policy — while 2 MB backs fine.
        let run = |size| {
            let mut m = machine(size);
            let seg = m.space_mut().alloc_heap("a", 256 << 20).unwrap();
            random_workload(&mut m, &seg, 30_000, 31);
            m.finish()
        };
        let two_m = run(PageSize::Size2M);
        let one_g = run(PageSize::Size1G);
        assert!(one_g.runtime_cycles() > two_m.runtime_cycles());
    }

    #[test]
    #[should_panic(expected = "invalid memory")]
    fn out_of_segment_access_panics() {
        let mut m = machine(PageSize::Size4K);
        m.load(VirtAddr::new(0x1234));
    }

    #[test]
    fn runs_without_telemetry_carry_no_samples() {
        let mut m = machine(PageSize::Size4K);
        let seg = m.space_mut().alloc_heap("a", 1 << 20).unwrap();
        m.load(seg.base());
        assert!(m.finish().samples.is_empty());
    }

    #[test]
    fn interval_samples_reconcile_with_final_counters() {
        let mut m = machine(PageSize::Size4K);
        m.set_telemetry(TelemetryHandle::sampling_only(1000));
        let seg = m.space_mut().alloc_heap("a", 64 << 20).unwrap();
        random_workload(&mut m, &seg, 20_000, 41);
        let r = m.finish();
        // 20k loads + 40k bulk instructions at a 1k cadence.
        assert!(r.samples.len() >= 20, "{} samples", r.samples.len());
        for pair in r.samples.windows(2) {
            assert!(pair[0].instr < pair[1].instr, "samples must advance");
        }
        let last = r.samples.last().unwrap();
        assert_eq!(last.instr, r.counters.inst_retired);
        assert_eq!(last.cycles, r.counters.cycles);
        for (name, value) in r
            .counters
            .events()
            .into_iter()
            .chain(r.counters.truth_events())
        {
            assert_eq!(last.counter(name), Some(value), "final sample vs {name}");
        }
        assert!(r.counters.truth_retired_walks > 0, "the run must walk");
    }

    #[test]
    fn warmup_restarts_the_sampler() {
        let mut m = machine(PageSize::Size4K);
        m.set_telemetry(TelemetryHandle::sampling_only(500));
        let seg = m.space_mut().alloc_heap("a", 8 << 20).unwrap();
        // Sampled instructions before the window moves, more of them than
        // the measured window will hold: the warm-up boundary must discard
        // them.
        random_workload(&mut m, &seg, 15_000, 42);
        m.set_limits(m.total_retired() + 20_000, 0);
        random_workload(&mut m, &seg, 15_000, 43);
        let r = m.finish();
        // Samples cover only the measured region, never warm-up totals.
        assert!(!r.samples.is_empty());
        assert!(r.samples.iter().all(|s| s.instr <= r.counters.inst_retired));
        assert!(r.samples.windows(2).all(|w| w[0].instr < w[1].instr));
        assert_eq!(r.samples.last().unwrap().instr, r.counters.inst_retired);
    }

    #[test]
    fn counters_snapshot_syncs_cycles() {
        let mut m = machine(PageSize::Size4K);
        let seg = m.space_mut().alloc_heap("a", 1 << 20).unwrap();
        m.load(seg.base());
        let c = m.counters();
        assert!(c.cycles > 0);
        assert_eq!(c.inst_retired, 1);
    }
}
