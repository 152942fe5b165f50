//! **Figure 1** — Relationship between relative AT overhead and memory
//! footprint, grouped by workload.
//!
//! Runs the full footprint sweep for all 13 workloads at 4 KB / 2 MB / 1 GB
//! page sizes and prints the overhead series per workload.
//!
//! Paper expectation: a positive inter-workload correlation between
//! footprint and relative AT overhead with large per-workload variation.

use super::Ctx;
use atscale_workloads::WorkloadId;

pub(super) fn run(ctx: &Ctx) {
    let workloads = WorkloadId::all();
    println!(
        "Figure 1: relative AT overhead vs memory footprint ({} workloads x {} points)",
        workloads.len(),
        ctx.opts.sweep.points
    );
    let all_points = ctx.harness.sweep_many(&workloads, &ctx.opts.sweep);
    let (table, pearson) = super::overhead_series(&workloads, &all_points);
    ctx.publish(&table, &[]);
    println!("{pearson}");
    println!("{}", ctx.invariant_summary());
}
