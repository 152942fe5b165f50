//! **Figure 10** — Key address-translation metrics for `bc-urand` with
//! 2 MB superpages, compared with 4 KB pages: WCPI, TLB misses per access,
//! mean walk latency, and the walk-outcome distribution.
//!
//! Paper expectations: 2 MB pages carry far lower WCPI and miss rates, but
//! the 2 MB TLB miss rate starts rising sharply at the largest footprints;
//! wrong-path + aborted walks remain present (≈20 % at the top) though
//! much reduced vs 4 KB.

use super::Ctx;
use atscale::report::{fmt, human_bytes, Table};

pub(super) fn run(ctx: &Ctx) {
    let id = super::workload("bc-urand");
    println!("Figure 10: {id} with 2MB superpages (vs 4KB)");
    let points = ctx.harness.sweep(id, &ctx.opts.sweep);

    let mut table = Table::new(&[
        "footprint",
        "wcpi_4k",
        "wcpi_2m",
        "miss/acc_4k",
        "miss/acc_2m",
        "walklat_4k",
        "walklat_2m",
        "noncorrect_4k",
        "noncorrect_2m",
    ]);
    for p in &points {
        let c4 = &p.run_4k.result.counters;
        let c2 = &p.run_2m.result.counters;
        let miss = |c: &atscale_mmu::Counters| {
            c.walks_initiated() as f64 / c.accesses_retired().max(1) as f64
        };
        let walklat = |c: &atscale_mmu::Counters| {
            c.walk_duration_cycles as f64 / c.walks_initiated().max(1) as f64
        };
        table.row_owned(vec![
            human_bytes(p.run_4k.spec.nominal_footprint),
            fmt(c4.wcpi(), 4),
            fmt(c2.wcpi(), 4),
            fmt(miss(c4), 4),
            fmt(miss(c2), 5),
            fmt(walklat(c4), 1),
            fmt(walklat(c2), 1),
            fmt(c4.walk_outcomes().non_correct_fraction(), 3),
            fmt(c2.walk_outcomes().non_correct_fraction(), 3),
        ]);
    }
    ctx.publish(&table, &[]);
}
