//! **Figure 7** — Walk-outcome distribution (retired / wrong-path /
//! aborted, per Table VI) as a function of memory footprint, for
//! `bc-urand`, `streamcluster-rand` and `mcf-rand`.
//!
//! Paper expectations: most workloads look like bc-urand — ≈10 % combined
//! non-correct-path walks at small footprints, growing dramatically
//! (bc-urand approaches 50 %); streamcluster is high (up to 57 %) across
//! the range; mcf *decreases* with footprint.

use super::Ctx;
use atscale::report::{fmt, human_bytes, Table};

const SUBJECTS: [&str; 3] = ["bc-urand", "streamcluster-rand", "mcf-rand"];

pub(super) fn run(ctx: &Ctx) {
    let workloads = SUBJECTS.map(super::workload);
    println!("Figure 7: walk-outcome distribution vs footprint (Table VI accounting)");
    let all_points = ctx.harness.sweep_many(&workloads, &ctx.opts.sweep);

    let mut table = Table::new(&[
        "workload",
        "footprint",
        "initiated",
        "retired_frac",
        "wrong_path_frac",
        "aborted_frac",
    ]);
    for (id, points) in workloads.iter().zip(&all_points) {
        for p in points {
            let o = p.run_4k.result.counters.walk_outcomes();
            table.row_owned(vec![
                id.to_string(),
                human_bytes(p.run_4k.spec.nominal_footprint),
                o.initiated.to_string(),
                fmt(o.retired_fraction(), 3),
                fmt(o.wrong_path_fraction(), 3),
                fmt(o.aborted_fraction(), 3),
            ]);
        }
    }
    ctx.publish(&table, &[]);
    println!("{}", ctx.invariant_summary());
}
