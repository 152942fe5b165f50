//! Property tests for cross-architecture invariants.
//!
//! Each pluggable [`TranslationArchitecture`] makes a falsifiable claim
//! relative to the baseline — Victima only *removes* walks, the DRAM cache
//! only *cheapens* them, no-TLB walks on *every* translation — and every
//! architecture must keep the Table VI outcome arithmetic and the counter
//! coupling invariants intact. These properties drive all four
//! architectures over identical randomized traces on the tiny test
//! geometry (so misses and evictions appear within a few hundred accesses)
//! and check the claims counter-by-counter.

use atscale_mmu::{
    AccessSink, ArchKind, ArchMachine, BaselineArch, DramCacheArch, MachineConfig, NoTlbArch,
    RunResult, SpecConfig, TranslationArchitecture, VictimaArch, WorkloadProfile,
};
use atscale_vm::{BackingPolicy, PageSize};
use proptest::prelude::*;

/// One randomized memory access: load/store, an offset selector, and how
/// many plain instructions retire after it.
type Step = (bool, u64, u64);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((prop::bool::ANY, 0u64..u64::MAX, 0u64..6), 50..300)
}

/// Drives one architecture through the trace on the tiny geometry. With
/// `speculate` off the lookup stream is exactly the trace — the setting
/// for cross-architecture *equality* claims, since speculative wrong-path
/// accesses are latency-coupled and diverge once an architecture changes
/// any latency.
fn run_trace<A: TranslationArchitecture>(
    steps: &[Step],
    page: PageSize,
    speculate: bool,
) -> RunResult {
    let mut config = MachineConfig::tiny_test();
    if !speculate {
        config.spec = SpecConfig::disabled();
    }
    let mut m: ArchMachine<A> = ArchMachine::new(
        config,
        BackingPolicy::uniform(page),
        WorkloadProfile::default(),
    );
    let seg = m.space_mut().alloc_heap("prop", 16 << 20).unwrap();
    let slots = seg.len() / 8;
    for &(is_load, off, gap) in steps {
        let va = seg.base().add((off % slots) * 8);
        if is_load {
            m.load(va);
        } else {
            m.store(va);
        }
        if gap > 0 {
            m.instructions(gap);
        }
    }
    m.finish()
}

/// Each architecture's counter schema, pinned as literals. No `_` arm: a
/// new architecture does not compile here until it has one.
fn schema(kind: ArchKind) -> Vec<&'static str> {
    match kind {
        ArchKind::Baseline | ArchKind::NoTlb => Vec::new(),
        ArchKind::Victima => vec!["victima.hits", "victima.fills", "victima.evictions"],
        ArchKind::DramCache => vec!["dram_cache.pte_hits", "dram_cache.pte_misses"],
    }
}

/// Runs the trace on every architecture, in [`ArchKind::ALL`] order.
fn run_all(steps: &[Step], page: PageSize) -> [RunResult; 4] {
    [
        run_trace::<BaselineArch>(steps, page, true),
        run_trace::<VictimaArch>(steps, page, true),
        run_trace::<DramCacheArch>(steps, page, true),
        run_trace::<NoTlbArch>(steps, page, true),
    ]
}

proptest! {
    /// Victima extends TLB reach: on any speculation-free trace it
    /// initiates at most as many walks as the baseline (exact saved-walk
    /// accounting is impossible — extension hits promote into L1, which
    /// perturbs LRU trajectories — but the direction is an invariant). Each
    /// extension hit is counted as an L2 hit per the lookup contract.
    #[test]
    fn victima_walks_never_exceed_baseline(steps in steps()) {
        let base = run_trace::<BaselineArch>(&steps, PageSize::Size4K, false);
        let vict = run_trace::<VictimaArch>(&steps, PageSize::Size4K, false);
        let base_walks = base.counters.walks_initiated();
        let vict_walks = vict.counters.walks_initiated();
        prop_assert!(
            vict_walks <= base_walks,
            "victima walked more than baseline: {vict_walks} > {base_walks}"
        );
        let ext_hits = vict
            .arch_events
            .iter()
            .find(|(n, _)| n == "victima.hits")
            .map_or(0, |&(_, v)| v);
        prop_assert!(
            vict.tlb.l2_hits >= ext_hits,
            "extension hits must be counted as L2 hits"
        );
    }

    /// The no-TLB limit study walks on every translation: zero TLB hits at
    /// any level, and walks initiated equals the lookup count exactly.
    #[test]
    fn no_tlb_walks_every_translation(steps in steps(), page_idx in 0usize..2) {
        let result = run_trace::<NoTlbArch>(&steps, PageSize::ALL[page_idx], true);
        prop_assert_eq!(result.tlb.l1_hits + result.tlb.l2_hits, 0u64);
        prop_assert_eq!(result.counters.stlb_hit_loads + result.counters.stlb_hit_stores, 0u64);
        prop_assert_eq!(result.counters.walks_initiated(), result.tlb.misses);
    }

    /// The DRAM cache is invisible to the TLBs: on a speculation-free
    /// trace (so the lookup stream is identical), walk *counts* and TLB
    /// statistics are bit-identical to baseline; only walk cycles (and
    /// hence total cycles) may shrink, never grow.
    #[test]
    fn dram_cache_only_cheapens_walks(steps in steps()) {
        let base = run_trace::<BaselineArch>(&steps, PageSize::Size4K, false);
        let dram = run_trace::<DramCacheArch>(&steps, PageSize::Size4K, false);
        prop_assert_eq!(base.tlb, dram.tlb);
        prop_assert_eq!(base.counters.walks_initiated(), dram.counters.walks_initiated());
        prop_assert_eq!(base.counters.walk_outcomes().completed, dram.counters.walk_outcomes().completed);
        prop_assert_eq!(base.counters.pt_accesses, dram.counters.pt_accesses);
        prop_assert!(dram.counters.walk_duration_cycles <= base.counters.walk_duration_cycles);
        prop_assert!(dram.counters.cycles <= base.counters.cycles);
        prop_assert_eq!(base.counters.inst_retired, dram.counters.inst_retired);
    }

    /// Every architecture keeps the Table VI arithmetic honest: the
    /// counter-derived outcomes match the simulator's ground truth, the
    /// outcomes partition the initiated walks, and the full counter
    /// coupling set ([`Counters::assert_consistent`]) holds.
    #[test]
    fn table_vi_outcomes_hold_for_every_arch(steps in steps(), page_idx in 0usize..2) {
        let results = run_all(&steps, PageSize::ALL[page_idx]);
        for (result, kind) in results.iter().zip(ArchKind::ALL) {
            result.counters.assert_consistent();
            let o = result.counters.walk_outcomes();
            prop_assert_eq!(o.retired, result.counters.truth_retired_walks, "{}", kind);
            prop_assert_eq!(o.wrong_path, result.counters.truth_wrong_path_walks, "{}", kind);
            prop_assert_eq!(o.aborted, result.counters.truth_aborted_walks, "{}", kind);
            prop_assert_eq!(o.initiated, o.retired + o.wrong_path + o.aborted, "{}", kind);
            // The lookup counting contract: every miss any architecture
            // reports initiates exactly one walk.
            prop_assert_eq!(o.initiated, result.tlb.misses, "{}", kind);
        }
    }

    /// `arch_events` carries exactly the architecture's counter schema, in
    /// schema order — nothing extra, nothing missing, on any trace.
    #[test]
    fn arch_events_match_declared_schemas(steps in steps()) {
        let results = run_all(&steps, PageSize::Size4K);
        for (result, kind) in results.iter().zip(ArchKind::ALL) {
            let produced: Vec<&str> = result.arch_events.iter().map(|(n, _)| n.as_str()).collect();
            prop_assert_eq!(produced, schema(kind), "{}", kind);
        }
    }
}
