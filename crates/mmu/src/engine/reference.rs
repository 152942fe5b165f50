//! The reference oracle: the pre-restructuring per-access pipeline as its
//! own, baseline-only type.
//!
//! [`ReferenceMachine`] wraps a [`Machine`] and drives its structures
//! through the frozen pipeline instead of the production one. It is what the
//! golden-equivalence and architecture-conformance suites compare the
//! production engine against — the thing a measurement is allowed to
//! refute — and has no other use.
//!
//! Which pipeline runs is decided by the type, not by a flag: the wrapper
//! offers no `Deref`, no `machine_mut()` and no other route to the inner
//! machine's own [`AccessSink`], so an oracle run cannot fall onto the fast
//! path, and the production [`ArchMachine`](super::ArchMachine) carries no
//! trace of the oracle. Living in a child module of `engine` lets it reach
//! the machine's private state without widening any visibility.

use super::Machine;
use crate::result::RunResult;
use crate::{AccessOp, AccessSink, MachineConfig, TlbHit, WorkloadProfile};
use atscale_telemetry::LatencyMetric;
use atscale_vm::{invariant, AddressSpace, BackingPolicy, CheckInvariants, VirtAddr};

/// The baseline machine driven through the frozen reference pipeline.
///
/// Construct, let the workload allocate via
/// [`space_mut`](Self::space_mut), push its access stream, then call
/// [`finish`](Self::finish) — the same protocol as [`Machine`], of which
/// only the set-up and tear-down halves are forwarded.
#[derive(Debug)]
pub struct ReferenceMachine(Machine);

impl ReferenceMachine {
    /// Builds the oracle; arguments and panics as [`Machine::new`].
    pub fn new(config: MachineConfig, policy: BackingPolicy, profile: WorkloadProfile) -> Self {
        ReferenceMachine(Machine::new(config, policy, profile))
    }

    /// See [`Machine::space_mut`].
    pub fn space_mut(&mut self) -> &mut AddressSpace {
        self.0.space_mut()
    }

    /// See [`Machine::set_limits`].
    pub fn set_limits(&mut self, warmup: u64, budget: u64) {
        self.0.set_limits(warmup, budget);
    }

    /// See [`Machine::finish`] (which runs the full invariant sweep in
    /// debug builds).
    pub fn finish(self) -> RunResult {
        self.0.finish()
    }
}

impl CheckInvariants for ReferenceMachine {
    fn check_invariants(&self) {
        self.0.check_invariants();
    }
}

impl AccessSink for ReferenceMachine {
    /// The pre-restructuring access pipeline, kept verbatim as the reference
    /// implementation for the golden-equivalence test: it consults the page
    /// table on *every* access (bypassing the translation memo via
    /// [`AddressSpace::touch_uncached`]) and never reads the TLB frame
    /// payloads. Do not "optimise" this function — its whole value is that
    /// it stays the original, obviously-correct pipeline.
    fn access(&mut self, op: AccessOp, va: VirtAddr) {
        self.0.counters.inst_retired += 1;
        match op {
            AccessOp::Load => self.0.counters.loads_retired += 1,
            AccessOp::Store => self.0.counters.stores_retired += 1,
        }
        self.0.cycles_f += self.0.profile.base_cpi;
        self.0.spec.note_retired(va);

        let touch = self
            .0
            .space
            .touch_uncached(va)
            .unwrap_or_else(|err| panic!("workload accessed invalid memory: {err}"));

        // Translation-side latency this access suffers before its data can
        // load; fed into the speculation model's branch-resolution windows
        // (a branch waiting on a TLB-missing load waits for its walk too).
        let mut translation_cycles = 0u64;
        match self.0.tlbs.lookup(va) {
            TlbHit::L1(_) => {}
            TlbHit::L2(_) => {
                match op {
                    AccessOp::Load => self.0.counters.stlb_hit_loads += 1,
                    AccessOp::Store => self.0.counters.stlb_hit_stores += 1,
                }
                translation_cycles = self.0.tlbs.l2_hit_penalty() as u64;
                self.0
                    .record_latency(LatencyMetric::TlbFillCycles, translation_cycles);
                let exposed = self.0.tlbs.l2_hit_penalty() as f64 / self.0.profile.mlp;
                self.0.cycles_f += exposed;
                self.0.stall_window += exposed;
            }
            TlbHit::Miss => {
                match op {
                    AccessOp::Load => {
                        self.0.counters.stlb_miss_loads += 1;
                        self.0.counters.walk_initiated_loads += 1;
                        self.0.counters.walk_completed_loads += 1;
                    }
                    AccessOp::Store => {
                        self.0.counters.stlb_miss_stores += 1;
                        self.0.counters.walk_initiated_stores += 1;
                        self.0.counters.walk_completed_stores += 1;
                    }
                }
                self.0.counters.truth_retired_walks += 1;
                let walk =
                    self.0
                        .walker
                        .walk(va, &touch.path, &mut self.0.psc, &mut self.0.caches, None);
                invariant!(walk.completed, "retired walks always complete");
                invariant!(
                    walk.accesses >= 1,
                    "a completed walk fetches at least the leaf PTE"
                );
                self.0.counters.walk_duration_cycles += walk.cycles;
                self.0.counters.pt_accesses += walk.accesses as u64;
                self.0
                    .record_latency(LatencyMetric::WalkCycles, walk.cycles);
                self.0
                    .record_latency(LatencyMetric::TlbFillCycles, walk.cycles);
                self.0
                    .tlbs
                    .fill(va, touch.path.page_size, touch.path.frame_base.as_u64());
                translation_cycles = walk.cycles;
                let exposure = match op {
                    AccessOp::Load => 1.0,
                    AccessOp::Store => self.0.profile.store_walk_exposure,
                };
                let exposed = walk.cycles as f64 * exposure / self.0.profile.mlp;
                self.0.cycles_f += exposed;
                self.0.walk_stall_window += exposed;
                self.0.stall_window += exposed;
            }
        }

        self.0.finish_data_access(
            op,
            va,
            translation_cycles,
            touch.path.frame_base,
            touch.path.page_size,
        );
        self.0.on_retired_instructions(1);
    }

    fn instructions(&mut self, n: u64) {
        self.0.instructions(n);
    }

    fn done(&self) -> bool {
        self.0.done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atscale_cache::{HitLevel, LevelCounts};
    use atscale_vm::PageSize;

    fn build<M>(new: fn(MachineConfig, BackingPolicy, WorkloadProfile) -> M) -> M {
        new(
            MachineConfig::haswell(),
            BackingPolicy::uniform(PageSize::Size4K),
            WorkloadProfile::default(),
        )
    }

    /// Warms `va`'s translation and cache line through `sink`, so the next
    /// load of `va` hits the L1 TLB and the L1 data cache.
    fn warm(sink: &mut impl AccessSink, va: VirtAddr) {
        sink.load(va);
        sink.load(va);
    }

    /// Overwrites the frame payload the TLBs hold for `va` with a frame far
    /// above anything the allocator has handed out.
    fn poison(machine: &mut Machine, va: VirtAddr) {
        machine.tlbs.fill(va, PageSize::Size4K, 1 << 40);
    }

    fn data(machine: &Machine) -> LevelCounts {
        machine.caches.stats().data
    }

    /// Non-vacuity of the oracle: the two pipelines are separable by a
    /// fault only the fast path can see. This fails if
    /// `ReferenceMachine::access` ever delegates to the inner `access`.
    #[test]
    fn a_poisoned_tlb_payload_misleads_the_fast_path_but_not_the_oracle() {
        let mut fast = build(Machine::new);
        let mut oracle = build(ReferenceMachine::new);
        let va = fast.space_mut().alloc_heap("a", 1 << 20).unwrap().base();
        assert_eq!(
            oracle.space_mut().alloc_heap("a", 1 << 20).unwrap().base(),
            va
        );
        warm(&mut fast, va);
        warm(&mut oracle, va);
        assert_eq!(data(&fast), data(&oracle.0), "identical up to the fault");
        let before = data(&fast);

        poison(&mut fast, va);
        poison(&mut oracle.0, va);
        fast.load(va);
        oracle.load(va);

        // The fast path trusts the payload and fetches a line of the bogus
        // frame from memory; the oracle re-derives the frame from the page
        // table and hits the line it warmed.
        let (fast, oracle) = (data(&fast), data(&oracle.0));
        assert_eq!(
            fast.at(HitLevel::Memory),
            before.at(HitLevel::Memory) + 1,
            "fast path must read the TLB payload"
        );
        assert_eq!(
            oracle.at(HitLevel::Memory),
            before.at(HitLevel::Memory),
            "oracle must never read the TLB payload"
        );
        assert_eq!(oracle.at(HitLevel::L1), before.at(HitLevel::L1) + 1);
    }
}
