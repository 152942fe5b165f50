//! The four benchmark workloads: which `RunSpec`s round `r` of a run serves.
//!
//! All four run the same stages; only the *mix* differs, chosen so a
//! different layer dominates each (README "Workloads"). A mix is a pure
//! function of `(workload, seed, round)`: every round's specs carry seeds
//! the store and run cache have never seen, and the same `--seed` always
//! produces the same specs.
//!
//! `memcached-uniform` is in no mix: its model writes a value up to 960
//! bytes past a uniformly drawn item address, so any seed can run off the
//! end of the slab segment and panic (5 of 450 seeds did at the test
//! sweep's sizes). The benchmark may not touch `crates/workloads`, and a
//! workload must not fail, so the other twelve stand in.

use crate::cal::mix64;
use atscale::{ArchKind, RunSpec, SweepConfig};
use atscale_results::QueryFilter;
use atscale_vm::PageSize;
use atscale_workloads::WorkloadId;

/// Index, in every mix, of the spec the per-layer probes reuse and whose
/// workload the `query` stage filters on. Further model instances of it are
/// set up each traced round, so every mix lists first the representative
/// spec whose fault-in is cheapest.
pub const PROBE_INDEX: usize = 0;

/// One of the four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Large 4 KiB-paged random-access footprints: walker, PSC, cache.
    WalkHeavy,
    /// Footprints inside TLB reach: L1-hit fast path and the generators.
    TlbResident,
    /// Huge footprints, short drives: `build_model` and fault-in.
    SetupHeavy,
    /// 42 tiny specs: serialisation, store, wire, scheduler.
    ManySmall,
}

impl Mix {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Mix; 4] = [
        Mix::WalkHeavy,
        Mix::TlbResident,
        Mix::SetupHeavy,
        Mix::ManySmall,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Mix::WalkHeavy => "walk_heavy",
            Mix::TlbResident => "tlb_resident",
            Mix::SetupHeavy => "setup_heavy",
            Mix::ManySmall => "many_small",
        }
    }

    /// One line on why the workload exists (`BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Mix::WalkHeavy => "1 GiB random-access footprints on 4 KiB pages, ~130 walks per kinstr: walker, PSC and cache hierarchy do the work; fault-in, build and serve do little",
            Mix::TlbResident => "footprints inside TLB reach (small or 2 MiB-paged), almost no walks: the L1-TLB-hit fast path and the generators dominate; the bypass workload for walker and cache changes",
            Mix::SetupHeavy => "up to 16 GiB footprints with 200 k-instruction drives: build_model and page-table fault-in dominate, so vm is used for mapping where walk_heavy uses it for walking",
            Mix::ManySmall => "42 tiny specs a round (12 workloads x 3 test footprints, plus 6 on victima, dram-cache, no-tlb): fixed per-spec costs dominate - serialisation, store append, wire, scheduler",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Mix> {
        Mix::ALL.into_iter().find(|m| m.name() == name)
    }

    /// The specs of round `round` under run seed `seed`.
    pub fn specs(self, seed: u64, round: u64) -> Vec<RunSpec> {
        let round_seed = mix64(mix64(seed) ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let spec = |i: usize, label: &str, footprint: u64, page_size, budget: u64| RunSpec {
            workload: WorkloadId::parse(label).expect("mix names a known workload"),
            nominal_footprint: footprint,
            page_size,
            seed: round_seed.wrapping_add(i as u64),
            warmup_instr: budget / 10,
            budget_instr: budget,
            arch: ArchKind::Baseline,
        };
        const MIB: u64 = 1 << 20;
        const GIB: u64 = 1 << 30;
        match self {
            Mix::WalkHeavy => vec![
                spec(0, "pr-urand", GIB, PageSize::Size4K, 1_500_000),
                spec(1, "cc-urand", GIB, PageSize::Size4K, 1_500_000),
                spec(2, "bc-urand", 512 * MIB, PageSize::Size4K, 1_500_000),
                spec(3, "mcf-rand", GIB, PageSize::Size4K, 1_500_000),
            ],
            Mix::TlbResident => vec![
                spec(
                    0,
                    "streamcluster-rand",
                    32 * MIB,
                    PageSize::Size4K,
                    3_000_000,
                ),
                spec(1, "tc-kron", 64 * MIB, PageSize::Size2M, 3_000_000),
                spec(2, "cc-urand", 256 * MIB, PageSize::Size2M, 3_000_000),
                spec(3, "pr-urand", GIB, PageSize::Size2M, 3_000_000),
            ],
            Mix::SetupHeavy => {
                // A per-round nudge of the bfs-kron footprint changes its
                // vertex count, so the process-wide zeta memo misses and
                // `build_model` pays its first-use cost (about 100 ms of
                // `powf`) in every round's `direct`, not only in round 0.
                let nudge = (round_seed % 8192) * 4096;
                vec![
                    spec(0, "mcf-rand", 256 * MIB, PageSize::Size4K, 200_000),
                    spec(1, "bc-urand", 16 * GIB, PageSize::Size4K, 200_000),
                    spec(2, "cc-kron", 8 * GIB, PageSize::Size4K, 200_000),
                    spec(3, "bfs-kron", GIB + nudge, PageSize::Size4K, 200_000),
                ]
            }
            Mix::ManySmall => {
                let sweep = SweepConfig::test();
                let mut specs = Vec::new();
                for workload in safe_workloads() {
                    for footprint in sweep.footprints() {
                        let i = specs.len();
                        specs.push(RunSpec {
                            seed: round_seed.wrapping_add(i as u64),
                            ..sweep.spec(workload, footprint)
                        });
                    }
                }
                for label in ["cc-urand", "pr-kron"] {
                    for arch in [ArchKind::Victima, ArchKind::DramCache, ArchKind::NoTlb] {
                        let i = specs.len();
                        let base = spec(i, label, 45 * MIB, PageSize::Size4K, sweep.budget_instr);
                        specs.push(RunSpec {
                            warmup_instr: sweep.warmup_instr,
                            ..base.with_arch(arch)
                        });
                    }
                }
                specs
            }
        }
    }

    /// The filter the `query` stage sends: one workload of the mix, so the
    /// daemon answers from a subset of its groups.
    pub fn query_filter(self) -> QueryFilter {
        let label = self.specs(0, 0)[PROBE_INDEX].workload.to_string();
        QueryFilter {
            workload: Some(label),
            ..QueryFilter::default()
        }
    }
}

/// The twelve workloads whose models cannot run off their segments.
pub fn safe_workloads() -> Vec<WorkloadId> {
    WorkloadId::all()
        .into_iter()
        .filter(|w| w.to_string() != "memcached-uniform")
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn a_mix_is_a_pure_function_of_workload_seed_and_round() {
        for mix in Mix::ALL {
            assert_eq!(mix.specs(7, 3), mix.specs(7, 3));
            assert_ne!(mix.specs(7, 3), mix.specs(8, 3), "{mix:?}: seed matters");
            assert_ne!(mix.specs(7, 3), mix.specs(7, 4), "{mix:?}: round matters");
        }
    }

    #[test]
    fn no_spec_repeats_within_a_run() {
        for mix in Mix::ALL {
            let mut seen = HashSet::new();
            for round in 0..64 {
                for spec in mix.specs(42, round) {
                    assert!(seen.insert(spec), "{mix:?} round {round}: {spec:?}");
                }
            }
        }
    }

    #[test]
    fn mixes_have_the_documented_shape() {
        assert_eq!(Mix::WalkHeavy.specs(1, 0).len(), 4);
        assert_eq!(Mix::TlbResident.specs(1, 0).len(), 4);
        assert_eq!(Mix::SetupHeavy.specs(1, 0).len(), 4);
        let small = Mix::ManySmall.specs(1, 0);
        assert_eq!(small.len(), 12 * 3 + 6);
        assert_eq!(
            small
                .iter()
                .filter(|s| s.arch != ArchKind::Baseline)
                .count(),
            6
        );
        for mix in Mix::ALL {
            for spec in mix.specs(1, 0) {
                assert_ne!(spec.workload.to_string(), "memcached-uniform");
            }
            assert_eq!(Mix::parse(mix.name()), Some(mix));
        }
        assert_eq!(Mix::parse("nope"), None);
    }

    #[test]
    fn setup_heavy_nudges_only_the_bfs_kron_footprint() {
        let a = Mix::SetupHeavy.specs(5, 1);
        let b = Mix::SetupHeavy.specs(5, 2);
        assert_ne!(a[3].nominal_footprint, b[3].nominal_footprint);
        for i in 0..3 {
            assert_eq!(a[i].nominal_footprint, b[i].nominal_footprint);
        }
    }
}
