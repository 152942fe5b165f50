//! **Figure 3** — Relative AT overhead vs footprint for the four workloads
//! with weaker log-linear correlations: `mcf-rand`, `memcached-uniform`,
//! `streamcluster-rand` and `tc-kron`.
//!
//! Paper expectations: mcf's overhead grows slowly then explodes;
//! memcached is nonlinear because its cache hit rate tracks footprint;
//! streamcluster shows no clear pattern; tc-kron levels off (≈15 %) thanks
//! to its scale-free-graph optimisation.

use super::Ctx;

const EXCEPTIONS: [&str; 4] = [
    "mcf-rand",
    "memcached-uniform",
    "streamcluster-rand",
    "tc-kron",
];

pub(super) fn run(ctx: &Ctx) {
    let workloads = EXCEPTIONS.map(super::workload);
    println!("Figure 3: the four exception workloads");
    let all_points = ctx.harness.sweep_many(&workloads, &ctx.opts.sweep);

    ctx.publish(&super::overhead_series(&workloads, &all_points).0, &[]);
}
