//! **Tables I–III** — The experimental inventory: workloads and their
//! suites/generators (Table I/II) and the simulated machine configuration
//! (Table III). Purely descriptive; runs no simulation.

use super::Ctx;
use atscale::report::Table;
use atscale_workloads::WorkloadId;

pub(super) fn run(ctx: &Ctx) {
    println!("Table I/II: workloads and input generators");
    let mut t1 = Table::new(&["workload", "suite", "program", "generator"]);
    for id in WorkloadId::all() {
        t1.row_owned(vec![
            id.to_string(),
            id.program().suite().to_string(),
            id.program().name().to_string(),
            id.generator().name().to_string(),
        ]);
    }
    println!("{}", t1.render());

    println!("Table III: simulated system (one core of 2x6c Xeon E5-2680 v3)");
    let cfg = ctx.harness.config();
    let (h, tlb, psc) = (&cfg.hierarchy, &cfg.tlb, &cfg.psc);
    let (l1, l2, l3) = (&h.l1, &h.l2, &h.l3);
    let components = [
        (
            "L1D",
            format!(
                "{} KB, {}-way, {} B lines, {} cyc",
                l1.size_bytes >> 10,
                l1.ways,
                l1.line_bytes,
                h.latency.l1
            ),
        ),
        (
            "L2",
            format!("{} KB, {}-way, {} cyc", l2.size_bytes >> 10, l2.ways, h.latency.l2),
        ),
        (
            "L3",
            format!("{} MB shared, {}-way, {} cyc", l3.size_bytes >> 20, l3.ways, h.latency.l3),
        ),
        ("DRAM", format!("{} cyc", h.latency.memory)),
        (
            "TLB-L1D",
            format!(
                "{}x4KB, {}x2MB, {}x1GB",
                tlb.l1_4k.entries, tlb.l1_2m.entries, tlb.l1_1g.entries
            ),
        ),
        (
            "TLB-L2",
            format!("{} x shared 4KB/2MB pages, +{} cyc", tlb.l2.entries, tlb.l2_hit_penalty),
        ),
        (
            "PSC",
            format!(
                "PML4E x{}, PDPTE x{}, PDE x{} ({}-way)",
                psc.pml4e.entries, psc.pdpte.entries, psc.pde.entries, psc.pde.ways
            ),
        ),
        (
            "Walker",
            format!("1 page table walker, {} cyc setup", cfg.walker.setup_cycles),
        ),
    ];
    let mut t3 = Table::new(&["component", "description"]);
    for (component, description) in components {
        t3.row_owned(vec![component.into(), description]);
    }
    println!("{}", t3.render());
}
