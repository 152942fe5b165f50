//! **Table V** — Strength of correlations between each AT-pressure proxy
//! metric and relative AT overhead, across all AT-sensitive
//! workload–input-size combinations.
//!
//! Paper expectations: WCPI has the best Pearson correlation (0.567) and
//! near-best Spearman rank (0.768, just behind walk-cycles-per-access at
//! 0.769); TLB-misses-per-kilo-instruction is worst on both.

use super::Ctx;
use atscale::report::{fmt, Table};
use atscale::{OverheadPoint, PressureMetric};
use atscale_stats::{pearson, spearman};
use atscale_workloads::WorkloadId;

pub(super) fn run(ctx: &Ctx) {
    let workloads = WorkloadId::all();
    println!("Table V: metric vs relative AT overhead correlations (inter-workload)");
    let all_points: Vec<OverheadPoint> = ctx
        .harness
        .sweep_many(&workloads, &ctx.opts.sweep)
        .into_iter()
        .flatten()
        .collect();

    // The paper excludes combinations with negative measured overhead
    // (not AT-sensitive) from this analysis.
    let sensitive: Vec<&OverheadPoint> =
        all_points.iter().filter(|p| p.is_at_sensitive()).collect();
    println!(
        "{} of {} workload-size combinations are AT-sensitive",
        sensitive.len(),
        all_points.len()
    );
    let overheads: Vec<f64> = sensitive.iter().map(|p| p.relative_overhead()).collect();

    let mut table = Table::new(&["AT pressure metric", "Pearson", "Spearman"]);
    let mut results = Vec::new();
    for metric in PressureMetric::ALL {
        let values: Vec<f64> = sensitive.iter().map(|p| metric.value(&p.run_4k)).collect();
        let r = pearson(&values, &overheads).expect("non-degenerate series");
        let rho = spearman(&values, &overheads).expect("non-degenerate series");
        results.push((metric, r, rho));
        table.row_owned(vec![metric.label().to_string(), fmt(r, 3), fmt(rho, 3)]);
    }

    let best_pearson = results
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("five metrics");
    ctx.publish(
        &table,
        &[format!(
            "best Pearson: {} ({:.3})   (paper: walk cycles per instruction, 0.567)",
            best_pearson.0, best_pearson.1
        )],
    );
}
