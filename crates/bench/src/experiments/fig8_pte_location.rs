//! **Figure 8** — Distribution of PTE access location (L1/L2/L3/memory)
//! as a function of input size, for `pr-kron`.
//!
//! Paper expectations: at the smallest footprints most PTEs are found in
//! L1/L2; around 10⁶ KB the L1/L2 share *jumps* (the TLB stops filtering
//! the PTE stream as its miss rate rises, making PTEs hotter); further
//! growth pushes PTEs outward into L3 and then memory, where even a small
//! DRAM fraction dominates average walk latency.

use super::Ctx;
use atscale::report::{fmt, human_bytes, Table};

pub(super) fn run(ctx: &Ctx) {
    let id = super::workload("pr-kron");
    println!("Figure 8: PTE access-location distribution vs footprint for {id}");
    let points = ctx.harness.sweep(id, &ctx.opts.sweep);

    let mut table = Table::new(&[
        "footprint",
        "footprint_kb",
        "L1",
        "L2",
        "L3",
        "Mem",
        "mean_pte_latency",
    ]);
    for p in &points {
        let d = p.run_4k.result.pte_location();
        table.row_owned(vec![
            human_bytes(p.run_4k.spec.nominal_footprint),
            fmt(p.footprint_kb(), 0),
            fmt(d.l1, 3),
            fmt(d.l2, 3),
            fmt(d.l3, 3),
            fmt(d.memory, 3),
            fmt(p.run_4k.result.mean_pte_latency, 1),
        ]);
    }
    ctx.publish(&table, &[]);
}
