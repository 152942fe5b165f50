//! **Figure 5** — Relationship between AT overhead and WCPI for
//! `bc-urand`, each point labelled by memory footprint.
//!
//! Paper expectations: a monotonically increasing, nonlinear relationship
//! (intra-workload Spearman rank 1.0 for most workloads).

use super::Ctx;
use atscale::report::{fmt, human_bytes, Table};
use atscale::PressureMetric;
use atscale_stats::spearman;

pub(super) fn run(ctx: &Ctx) {
    let id = super::workload("bc-urand");
    println!("Figure 5: AT overhead vs WCPI for {id}, labelled by footprint");
    let points = ctx.harness.sweep(id, &ctx.opts.sweep);

    let mut table = Table::new(&["footprint", "wcpi", "rel_overhead"]);
    let mut wcpis = Vec::new();
    let mut overheads = Vec::new();
    for p in &points {
        let wcpi = PressureMetric::Wcpi.value(&p.run_4k);
        wcpis.push(wcpi);
        overheads.push(p.relative_overhead());
        table.row_owned(vec![
            human_bytes(p.run_4k.spec.nominal_footprint),
            fmt(wcpi, 4),
            fmt(p.relative_overhead(), 4),
        ]);
    }
    let rho = spearman(&wcpis, &overheads).expect("non-degenerate sweep");
    ctx.publish(
        &table,
        &[format!(
            "intra-workload Spearman rank = {rho:.3}  (paper: 1.0 for seven workloads)"
        )],
    );
}
