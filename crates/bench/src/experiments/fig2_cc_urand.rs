//! **Figure 2** — Relative AT overhead vs memory footprint for `cc-urand`,
//! the paper's illustrative example of log-linear scaling.
//!
//! Prints the series plus the fitted `β₀ + β₁·log10(M)` line.
//!
//! Paper expectation: a visually linear relationship between overhead and
//! the *logarithm* of footprint (paper fit for cc-urand:
//! β₁ = 0.135, adj. R² = 0.973).

use super::Ctx;
use atscale::fit_overhead_scaling;
use atscale::report::{fmt, human_bytes, Table};

pub(super) fn run(ctx: &Ctx) {
    let id = super::workload("cc-urand");
    println!("Figure 2: relative AT overhead vs footprint for {id}");
    let points = ctx.harness.sweep(id, &ctx.opts.sweep);

    let fit = fit_overhead_scaling(&points).expect("sweep has enough points");
    let mut table = Table::new(&["footprint", "footprint_kb", "rel_overhead", "fit"]);
    for p in &points {
        table.row_owned(vec![
            human_bytes(p.run_4k.spec.nominal_footprint),
            fmt(p.footprint_kb(), 0),
            fmt(p.relative_overhead(), 4),
            fmt(fit.fit.predict(p.footprint_kb().log10()), 4),
        ]);
    }
    ctx.publish(
        &table,
        &[format!(
            "fit: overhead = {:+.3} + {:.3}*log10(M_KB)   adj R^2 = {:.3}   (paper: -0.695 + 0.135*log10 M, R^2 0.973)",
            fit.fit.intercept, fit.fit.slope, fit.fit.adj_r_squared
        )],
    );
}
