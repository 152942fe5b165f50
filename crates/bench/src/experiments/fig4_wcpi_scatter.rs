//! **Figure 4** — Relationship between relative AT overhead and walk
//! cycles per instruction, grouped by workload (AT-sensitive combinations
//! only).
//!
//! Paper expectation: a clear positive association, with nonlinearity both
//! across workloads (different dynamics) and within them.

use super::Ctx;
use atscale::report::{fmt, Table};
use atscale::PressureMetric;
use atscale_workloads::WorkloadId;

pub(super) fn run(ctx: &Ctx) {
    let workloads = WorkloadId::all();
    println!("Figure 4: relative AT overhead vs WCPI (all workloads)");
    let all_points = ctx.harness.sweep_many(&workloads, &ctx.opts.sweep);

    let mut table = Table::new(&["workload", "wcpi", "rel_overhead"]);
    for (id, points) in workloads.iter().zip(&all_points) {
        for p in points.iter().filter(|p| p.is_at_sensitive()) {
            table.row_owned(vec![
                id.to_string(),
                fmt(PressureMetric::Wcpi.value(&p.run_4k), 4),
                fmt(p.relative_overhead(), 4),
            ]);
        }
    }
    ctx.publish(&table, &[]);
}
