//! The cc-urand model against a real connected-components kernel
//! ([`cc_kernel`]): where both can run (small footprints), the translation
//! metrics must agree in magnitude and direction.

mod cc_kernel;

use atscale::Decomposition;
use atscale_gen::urand::{edges, UrandConfig};
use atscale_mmu::{AccessSink, Machine, MachineConfig, RunResult};
use atscale_vm::{BackingPolicy, PageSize};
use atscale_workloads::meta;
use atscale_workloads::WorkloadId;
use cc_kernel::{connected_components, CsrGraph, SimArray};

/// Runs the real CC kernel on an actual urand graph through the MMU sim.
fn run_real_cc(scale: u32, budget: u64) -> RunResult {
    let mut machine = Machine::new(
        MachineConfig::haswell(),
        BackingPolicy::uniform(PageSize::Size4K),
        meta::graph_profile(),
    );
    let cfg = UrandConfig::new(scale, 3);
    let n = cfg.vertices() as usize;
    let graph = CsrGraph::build(machine.space_mut(), n, edges(cfg)).expect("alloc");
    let mut comp =
        SimArray::from_vec(machine.space_mut(), "cc.comp", (0..n as u64).collect()).expect("alloc");
    machine.set_limits(50_000, budget);
    // Iterate until the budget is consumed (label propagation converges
    // and restarts, like repeated trials).
    while !machine.done() {
        connected_components(&graph, &mut comp, &mut machine);
        for v in 0..n {
            comp.set_silent(v, v as u64);
        }
    }
    machine.finish()
}

/// Runs the CC *model* at a matching footprint.
fn run_model_cc(footprint: u64, budget: u64) -> RunResult {
    let id = WorkloadId::parse("cc-urand").expect("known workload");
    let mut model = id.build_model(footprint, 3);
    let mut machine = Machine::new(
        MachineConfig::haswell(),
        BackingPolicy::uniform(PageSize::Size4K),
        model.profile(),
    );
    model.setup(machine.space_mut()).expect("alloc");
    machine.set_limits(50_000, budget);
    model.run(&mut machine);
    machine.finish()
}

#[test]
fn model_matches_kernel_translation_magnitudes() {
    // Scale 17 urand: ~128K vertices, ~2M directed edges ≈ 18 MB CSR +
    // labels. Model sized to the kernel's measured footprint.
    let real = run_real_cc(17, 400_000);
    let model = run_model_cc(real.footprint_bytes(), 400_000);

    let d_real = Decomposition::from_counters(&real.counters);
    let d_model = Decomposition::from_counters(&model.counters);

    // TLB miss-per-access within a factor of 4 of the real kernel.
    let ratio = d_model.misses_per_access / d_real.misses_per_access.max(1e-9);
    assert!(
        (0.25..=4.0).contains(&ratio),
        "miss/access: model {} vs kernel {} (ratio {ratio})",
        d_model.misses_per_access,
        d_real.misses_per_access
    );

    // Both see the paging-structure caches working. At these small
    // footprints the TLB covers most pages, so the *residue* reaching the
    // caches is locality-poor (the paper's filtering effect) — walks can
    // exceed the large-footprint 1–2 range slightly.
    for (who, d) in [("kernel", &d_real), ("model", &d_model)] {
        assert!(
            (1.0..=3.2).contains(&d.ptw_accesses_per_walk),
            "{who}: accesses/walk {}",
            d.ptw_accesses_per_walk
        );
    }
}

#[test]
fn model_and_kernel_scale_in_the_same_direction() {
    let real_small = run_real_cc(15, 250_000);
    let real_large = run_real_cc(18, 250_000);
    let model_small = run_model_cc(real_small.footprint_bytes(), 250_000);
    let model_large = run_model_cc(real_large.footprint_bytes(), 250_000);

    let wcpi = |r: &RunResult| r.counters.wcpi();
    assert!(
        wcpi(&real_large) > wcpi(&real_small),
        "kernel wcpi must grow: {} -> {}",
        wcpi(&real_small),
        wcpi(&real_large)
    );
    assert!(
        wcpi(&model_large) > wcpi(&model_small),
        "model wcpi must grow: {} -> {}",
        wcpi(&model_small),
        wcpi(&model_large)
    );
}
