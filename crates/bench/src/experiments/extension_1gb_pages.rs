//! **Extension** — the 1 GB-page crossover (§III-B made visible).
//!
//! The paper justifies its `min(t_2MB, t_1GB)` baseline by noting that
//! 1 GB pages can *lose* to 2 MB pages at small footprints (regions under
//! 1 GB fall back to base pages) while winning or tying at large ones.
//! This study plots that crossover directly: per footprint, the runtimes
//! of the three page sizes and which superpage size wins the baseline.

use super::Ctx;
use atscale::report::{fmt, human_bytes, Table};

pub(super) fn run(ctx: &Ctx) {
    let id = super::workload("cc-urand");
    println!("Extension: 1GB vs 2MB crossover for {id}");

    let mut table = Table::new(&[
        "footprint",
        "t_4k",
        "t_2m",
        "t_1g",
        "1g_vs_2m",
        "baseline",
        "fallback_faults_1g",
    ]);
    for fp in ctx.opts.sweep.footprints() {
        let point = ctx.harness.overhead_point(&ctx.opts.sweep.spec(id, fp));
        let (t4, t2, t1) = (
            point.run_4k.runtime_cycles(),
            point.run_2m.runtime_cycles(),
            point.run_1g.runtime_cycles(),
        );
        table.row_owned(vec![
            human_bytes(fp),
            t4.to_string(),
            t2.to_string(),
            t1.to_string(),
            fmt(t1 as f64 / t2 as f64, 3),
            if t2 <= t1 { "2MB" } else { "1GB" }.into(),
            point.run_1g.result.space.fallback_faults.to_string(),
        ]);
    }
    ctx.publish(
        &table,
        &[
            "1g_vs_2m > 1 means 1GB pages lose; fallback faults show why (sub-1GB".into(),
            "regions backed by 4KB pages under the 1GB policy)".into(),
        ],
    );
}
