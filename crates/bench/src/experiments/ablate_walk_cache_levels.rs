//! **Ablation** — How many paging-structure cache levels matter?
//!
//! The paper cites RevAnC's finding that the CPU "likely has at least two
//! levels of page table walk caches" to explain the unpredictability of
//! accesses-per-walk. This ablation compares all levels vs PDE-only vs
//! none at one instance per workload.

use super::Ctx;
use atscale::report::{fmt, Table};
use atscale::Decomposition;
use atscale_mmu::{MachineConfig, MmuCacheConfig, PscLevels};

pub(super) fn run(ctx: &Ctx) {
    let fp = ctx.opts.sweep.footprints()[ctx.opts.sweep.points / 2];
    println!(
        "Ablation: PSC levels (All / PdeOnly / None) at {}",
        atscale::report::human_bytes(fp)
    );

    let variants: [(&str, PscLevels); 3] = [
        ("all", PscLevels::All),
        ("pde-only", PscLevels::PdeOnly),
        ("none", PscLevels::None),
    ];
    let mut table = Table::new(&["workload", "psc", "acc_per_walk", "wcpi", "walk_cycles"]);
    for id in ["cc-urand", "mcf-rand", "tc-kron"].map(super::workload) {
        for (label, levels) in variants {
            let mut cfg = MachineConfig::haswell();
            cfg.psc = MmuCacheConfig {
                levels,
                ..MmuCacheConfig::haswell()
            };
            let record = ctx.harness.clone().with_config(cfg).run(&ctx.opts.sweep.spec(id, fp));
            let d = Decomposition::from_counters(&record.result.counters);
            table.row_owned(vec![
                id.to_string(),
                label.to_string(),
                fmt(d.ptw_accesses_per_walk, 3),
                fmt(d.wcpi, 3),
                record.result.counters.walk_duration_cycles.to_string(),
            ]);
        }
    }
    ctx.publish(&table, &[]);
}
