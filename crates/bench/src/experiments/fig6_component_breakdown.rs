//! **Figure 6** — Component-wise breakdown of scaling behaviour for four
//! workloads: `bfs-urand`, `mcf-rand`, `pr-kron`, `tc-kron`.
//!
//! For every sweep point, prints the five rows of the paper's figure: WCPI
//! and the four Equation 1 factors (accesses/instruction, TLB
//! misses/access, PTW accesses/walk, cycles/PTW access).
//!
//! Paper expectations: WCPI grows ≈ log(M) except tc-kron (flat);
//! accesses/instruction stable except tc-kron; mcf's TLB miss rate keeps
//! rising; accesses/walk stays within 1–2 and often *falls* when the miss
//! rate jumps (the TLB filtering effect); latency/PTW-access rises with
//! footprint except mcf.

use super::Ctx;
use atscale::report::{fmt, human_bytes, Table};
use atscale::Decomposition;

const SUBJECTS: [&str; 4] = ["bfs-urand", "mcf-rand", "pr-kron", "tc-kron"];

pub(super) fn run(ctx: &Ctx) {
    let workloads = SUBJECTS.map(super::workload);
    println!("Figure 6: Equation 1 component breakdown");
    let all_points = ctx.harness.sweep_many(&workloads, &ctx.opts.sweep);

    let mut table = Table::new(&[
        "workload",
        "footprint",
        "wcpi",
        "acc_per_instr",
        "miss_per_acc",
        "acc_per_walk",
        "cyc_per_ptw_acc",
    ]);
    for (id, points) in workloads.iter().zip(&all_points) {
        for p in points {
            let d = Decomposition::from_counters(&p.run_4k.result.counters);
            d.assert_identity(1e-9);
            table.row_owned(vec![
                id.to_string(),
                human_bytes(p.run_4k.spec.nominal_footprint),
                fmt(d.wcpi, 4),
                fmt(d.accesses_per_instr, 4),
                fmt(d.misses_per_access, 4),
                fmt(d.ptw_accesses_per_walk, 3),
                fmt(d.cycles_per_ptw_access, 1),
            ]);
        }
    }
    ctx.publish(&table, &[]);
}
