//! **Ablation** — Paging-structure (MMU) caches on vs off.
//!
//! The paper attributes the "accesses per walk lies within 1 and 2" result
//! (§V-C) to the page-walk caches doing a good job. This ablation disables
//! them: every walk must start at the root, so accesses/walk snaps to the
//! full radix depth and WCPI inflates accordingly.

use atscale::report::{fmt, human_bytes, Table};
use atscale::Decomposition;
use atscale_bench::HarnessOptions;
use atscale_mmu::{MachineConfig, MmuCacheConfig};
use atscale_workloads::WorkloadId;

fn main() {
    let opts = HarnessOptions::from_args();
    let _telemetry = opts.telemetry("ablate_mmu_cache");
    let id = WorkloadId::parse("cc-urand").expect("known workload");
    println!("Ablation: paging-structure caches on/off for {id}");

    let on = opts.harness();
    let mut off_cfg = MachineConfig::haswell();
    off_cfg.psc = MmuCacheConfig::disabled();
    // The run store keys on the config, so both variants cache side by side
    // through one shared handle (a store directory has one owner).
    let off = on.clone().with_config(off_cfg);

    let mut table = Table::new(&[
        "footprint",
        "acc/walk_on",
        "acc/walk_off",
        "wcpi_on",
        "wcpi_off",
        "overhead_on",
        "overhead_off",
    ]);
    for fp in opts.sweep.footprints() {
        let spec = opts.sweep.spec(id, fp);
        let p_on = on.overhead_point(&spec);
        let p_off = off.overhead_point(&spec);
        let d_on = Decomposition::from_counters(&p_on.run_4k.result.counters);
        let d_off = Decomposition::from_counters(&p_off.run_4k.result.counters);
        table.row_owned(vec![
            human_bytes(fp),
            fmt(d_on.ptw_accesses_per_walk, 3),
            fmt(d_off.ptw_accesses_per_walk, 3),
            fmt(d_on.wcpi, 3),
            fmt(d_off.wcpi, 3),
            fmt(p_on.relative_overhead(), 3),
            fmt(p_off.relative_overhead(), 3),
        ]);
    }
    println!("{}", table.render());
    let csv = opts.csv_path("ablate_mmu_cache");
    table.write_csv(&csv).expect("write csv");
    println!("wrote {}", csv.display());
}
