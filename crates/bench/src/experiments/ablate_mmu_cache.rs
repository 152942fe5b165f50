//! **Ablation** — Paging-structure (MMU) caches on vs off.
//!
//! The paper attributes the "accesses per walk lies within 1 and 2" result
//! (§V-C) to the page-walk caches doing a good job. This ablation disables
//! them: every walk must start at the root, so accesses/walk snaps to the
//! full radix depth and WCPI inflates accordingly.

use super::Ctx;
use atscale::report::{fmt, human_bytes, Table};
use atscale::Decomposition;
use atscale_mmu::{MachineConfig, MmuCacheConfig};

pub(super) fn run(ctx: &Ctx) {
    let id = super::workload("cc-urand");
    println!("Ablation: paging-structure caches on/off for {id}");

    let on = &ctx.harness;
    let mut off_cfg = MachineConfig::haswell();
    off_cfg.psc = MmuCacheConfig::disabled();
    let off = on.clone().with_config(off_cfg);

    let mut table = Table::new(&[
        "footprint",
        "acc/walk_on",
        "acc/walk_off",
        "wcpi_on",
        "wcpi_off",
        "overhead_on",
        "overhead_off",
    ]);
    for fp in ctx.opts.sweep.footprints() {
        let spec = ctx.opts.sweep.spec(id, fp);
        let p_on = on.overhead_point(&spec);
        let p_off = off.overhead_point(&spec);
        let d_on = Decomposition::from_counters(&p_on.run_4k.result.counters);
        let d_off = Decomposition::from_counters(&p_off.run_4k.result.counters);
        table.row_owned(vec![
            human_bytes(fp),
            fmt(d_on.ptw_accesses_per_walk, 3),
            fmt(d_off.ptw_accesses_per_walk, 3),
            fmt(d_on.wcpi, 3),
            fmt(d_off.wcpi, 3),
            fmt(p_on.relative_overhead(), 3),
            fmt(p_off.relative_overhead(), 3),
        ]);
    }
    ctx.publish(&table, &[]);
}
