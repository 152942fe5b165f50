//! **§V-B intra-workload analysis** — Spearman rank correlation between
//! WCPI and relative AT overhead *within* each workload's footprint sweep.
//!
//! Paper expectations: seven workloads at exactly 1.0, three between 0.9
//! and 1.0, and three below 0.9 (mcf-urand [sic], streamcluster-rand,
//! cc-kron) where WCPI appears almost uncorrelated with overhead.

use super::Ctx;
use atscale::report::{fmt, Table};
use atscale::PressureMetric;
use atscale_stats::spearman;
use atscale_workloads::WorkloadId;

pub(super) fn run(ctx: &Ctx) {
    let workloads = WorkloadId::all();
    println!("Intra-workload Spearman rank between WCPI and relative AT overhead");
    let all_points = ctx.harness.sweep_many(&workloads, &ctx.opts.sweep);

    let mut table = Table::new(&["workload", "spearman_rank", "band"]);
    let mut exactly_one = 0;
    let mut above_09 = 0;
    let mut below_09 = 0;
    for (id, points) in workloads.iter().zip(&all_points) {
        let wcpi: Vec<f64> = points
            .iter()
            .map(|p| PressureMetric::Wcpi.value(&p.run_4k))
            .collect();
        let overheads: Vec<f64> = points
            .iter()
            .map(atscale::OverheadPoint::relative_overhead)
            .collect();
        match spearman(&wcpi, &overheads) {
            Ok(rho) => {
                let band = if rho > 0.9999 {
                    exactly_one += 1;
                    "= 1.0"
                } else if rho >= 0.9 {
                    above_09 += 1;
                    "0.9..1.0"
                } else {
                    below_09 += 1;
                    "< 0.9"
                };
                table.row_owned(vec![id.to_string(), fmt(rho, 3), band.into()]);
            }
            Err(e) => {
                below_09 += 1;
                table.row_owned(vec![id.to_string(), "-".into(), format!("({e})")]);
            }
        }
    }
    ctx.publish(
        &table,
        &[format!(
            "bands: {exactly_one} at 1.0, {above_09} in [0.9, 1.0), {below_09} below 0.9 \
             (paper: 7 / 3 / 3)"
        )],
    );
}
