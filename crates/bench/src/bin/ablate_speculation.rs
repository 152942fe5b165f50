//! **Ablation** — Speculation on vs off (§V-D).
//!
//! With speculation disabled every initiated walk retires, so the Table VI
//! outcome decomposition collapses to `retired == completed == initiated`.
//! Comparing counters across the two configurations isolates how much of
//! the measured walk traffic (and cache pressure) is speculative waste.

use atscale::report::{fmt, human_bytes, Table};
use atscale_bench::HarnessOptions;
use atscale_mmu::{MachineConfig, SpecConfig};
use atscale_workloads::WorkloadId;

fn main() {
    let opts = HarnessOptions::from_args();
    let _telemetry = opts.telemetry("ablate_speculation");
    let id = WorkloadId::parse("bc-urand").expect("known workload");
    println!("Ablation: speculation on/off for {id}");

    let on = opts.harness();
    let mut off_cfg = MachineConfig::haswell();
    off_cfg.spec = SpecConfig::disabled();
    // The clone shares `on`'s store handle (a directory has one owner).
    let off = on.clone().with_config(off_cfg);

    let mut table = Table::new(&[
        "footprint",
        "walks_on",
        "walks_off",
        "waste_frac",
        "pte_fetch_on",
        "pte_fetch_off",
    ]);
    for fp in opts.sweep.footprints() {
        let spec = opts.sweep.spec(id, fp);
        let r_on = on.run(&spec);
        let r_off = off.run(&spec);
        let c_on = &r_on.result.counters;
        let c_off = &r_off.result.counters;
        let waste = 1.0 - c_off.walks_initiated() as f64 / c_on.walks_initiated().max(1) as f64;
        table.row_owned(vec![
            human_bytes(fp),
            c_on.walks_initiated().to_string(),
            c_off.walks_initiated().to_string(),
            fmt(waste, 3),
            c_on.pt_accesses.to_string(),
            c_off.pt_accesses.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("waste_frac = fraction of initiated walks that exist only due to speculation");
    let csv = opts.csv_path("ablate_speculation");
    table.write_csv(&csv).expect("write csv");
    println!("wrote {}", csv.display());
}
