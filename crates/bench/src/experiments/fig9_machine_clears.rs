//! **Figure 9** — Non-correct-path walk fraction vs machine clears per
//! instruction, for `bc-kron` across the footprint sweep.
//!
//! Paper expectation: an increase in machine clears per instruction is
//! associated with an increase in the combined misspeculated/aborted walk
//! fraction (no clear relationship exists with branch mispredicts).

use super::Ctx;
use atscale::report::{fmt, human_bytes, Table};
use atscale_stats::{pearson, spearman};

pub(super) fn run(ctx: &Ctx) {
    let id = super::workload("bc-kron");
    println!("Figure 9: non-correct-path walk fraction vs machine clears for {id}");
    let points = ctx.harness.sweep(id, &ctx.opts.sweep);

    let mut table = Table::new(&[
        "footprint",
        "clears_per_kinstr",
        "mispredicts_per_kinstr",
        "non_correct_frac",
    ]);
    let mut clears = Vec::new();
    let mut fracs = Vec::new();
    for p in &points {
        let c = &p.run_4k.result.counters;
        let o = c.walk_outcomes();
        let cpk = c.machine_clears as f64 * 1000.0 / c.inst_retired as f64;
        clears.push(cpk);
        fracs.push(o.non_correct_fraction());
        table.row_owned(vec![
            human_bytes(p.run_4k.spec.nominal_footprint),
            fmt(cpk, 3),
            fmt(
                c.branch_mispredicts as f64 * 1000.0 / c.inst_retired as f64,
                3,
            ),
            fmt(o.non_correct_fraction(), 3),
        ]);
    }
    let correlation = match (pearson(&clears, &fracs), spearman(&clears, &fracs)) {
        (Ok(r), Ok(rho)) => vec![format!(
            "clears vs non-correct fraction: Pearson {r:.3}, Spearman {rho:.3}"
        )],
        _ => Vec::new(),
    };
    ctx.publish(&table, &correlation);
}
