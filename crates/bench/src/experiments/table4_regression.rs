//! **Table IV** — Regression results for the model
//! `relative AT overhead = β₀ + β₁·log10(M) + ε`, per workload.
//!
//! Paper expectation: strong linear correlation (adj. R² > 0.9) for most
//! workloads with a mean log-footprint coefficient ≈ 0.13 among the
//! well-correlated ones; weak fits for `mcf-rand` (superlinear),
//! `memcached-uniform` (hit-rate dynamics), `streamcluster-rand` (no
//! trend) and `tc-kron` (plateau).

use super::Ctx;
use atscale::fit_overhead_scaling;
use atscale::report::{fmt, Table};
use atscale_workloads::WorkloadId;

pub(super) fn run(ctx: &Ctx) {
    let workloads = WorkloadId::all();
    println!("Table IV: overhead = b0 + b1*log10(M_KB) per workload");
    let all_points = ctx.harness.sweep_many(&workloads, &ctx.opts.sweep);

    let mut table = Table::new(&["workload", "const", "log10M", "adj_R2"]);
    let mut strong_slopes = Vec::new();
    for (id, points) in workloads.iter().zip(&all_points) {
        match fit_overhead_scaling(points) {
            Ok(fit) => {
                if fit.fit.adj_r_squared > 0.9 {
                    strong_slopes.push(fit.fit.slope);
                }
                table.row_owned(vec![
                    id.to_string(),
                    fmt(fit.fit.intercept, 3),
                    fmt(fit.fit.slope, 3),
                    fmt(fit.fit.adj_r_squared, 3),
                ]);
            }
            Err(e) => {
                table.row_owned(vec![
                    id.to_string(),
                    "-".into(),
                    "-".into(),
                    format!("({e})"),
                ]);
            }
        }
    }
    let mut findings = Vec::new();
    if !strong_slopes.is_empty() {
        let mean = strong_slopes.iter().sum::<f64>() / strong_slopes.len() as f64;
        findings.push(format!(
            "mean log10(M) coefficient among fits with adj R^2 > 0.9: {mean:.3}  (paper: 0.13)"
        ));
    }
    ctx.publish(&table, &findings);
}
