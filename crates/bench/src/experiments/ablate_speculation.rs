//! **Ablation** — Speculation on vs off (§V-D).
//!
//! With speculation disabled every initiated walk retires, so the Table VI
//! outcome decomposition collapses to `retired == completed == initiated`.
//! Comparing counters across the two configurations isolates how much of
//! the measured walk traffic (and cache pressure) is speculative waste.

use super::Ctx;
use atscale::report::{fmt, human_bytes, Table};
use atscale_mmu::{MachineConfig, SpecConfig};

pub(super) fn run(ctx: &Ctx) {
    let id = super::workload("bc-urand");
    println!("Ablation: speculation on/off for {id}");

    let on = &ctx.harness;
    let mut off_cfg = MachineConfig::haswell();
    off_cfg.spec = SpecConfig::disabled();
    let off = on.clone().with_config(off_cfg);

    let mut table = Table::new(&[
        "footprint",
        "walks_on",
        "walks_off",
        "waste_frac",
        "pte_fetch_on",
        "pte_fetch_off",
    ]);
    for fp in ctx.opts.sweep.footprints() {
        let spec = ctx.opts.sweep.spec(id, fp);
        let r_on = on.run(&spec);
        let r_off = off.run(&spec);
        let c_on = &r_on.result.counters;
        let c_off = &r_off.result.counters;
        let waste = 1.0 - c_off.walks_initiated() as f64 / c_on.walks_initiated().max(1) as f64;
        table.row_owned(vec![
            human_bytes(fp),
            c_on.walks_initiated().to_string(),
            c_off.walks_initiated().to_string(),
            fmt(waste, 3),
            c_on.pt_accesses.to_string(),
            c_off.pt_accesses.to_string(),
        ]);
    }
    ctx.publish(
        &table,
        &["waste_frac = fraction of initiated walks that exist only due to speculation".into()],
    );
}
