//! Quickstart: measure the address-translation overhead of one workload.
//!
//! Runs the `cc-urand` model at a 512 MB footprint under 4 KB, 2 MB and
//! 1 GB pages — the paper's §III-A protocol — and prints the overhead plus
//! the WCPI decomposition (Equation 1).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use atscale::{Decomposition, Harness, RunSpec};
use atscale_vm::PageSize;
use atscale_workloads::WorkloadId;

fn main() {
    let spec = RunSpec {
        workload: WorkloadId::parse("cc-urand").expect("known workload"),
        nominal_footprint: 512 << 20,
        page_size: PageSize::Size4K,
        seed: 42,
        warmup_instr: 100_000,
        budget_instr: 1_000_000,
        arch: atscale::ArchKind::Baseline,
    };
    println!(
        "measuring {} at 512MB under 4KB/2MB/1GB pages...",
        spec.workload
    );
    let point = Harness::new().overhead_point(&spec);

    println!("\nruntimes (cycles):");
    println!("  t_4KB      = {:>12}", point.run_4k.runtime_cycles());
    println!("  t_2MB      = {:>12}", point.run_2m.runtime_cycles());
    println!("  t_1GB      = {:>12}", point.run_1g.runtime_cycles());
    println!(
        "  t_baseline = {:>12}  (min of 2MB/1GB)",
        point.baseline_cycles()
    );
    println!(
        "\nrelative AT overhead = {:.1}%",
        100.0 * point.relative_overhead()
    );

    let d = Decomposition::from_counters(&point.run_4k.result.counters);
    d.assert_identity(1e-9);
    println!("\nEquation 1 decomposition (4KB run):");
    println!(
        "  accesses / instruction   = {:.4}   [program]",
        d.accesses_per_instr
    );
    println!(
        "  TLB misses / access      = {:.4}   [TLB]",
        d.misses_per_access
    );
    println!(
        "  PTW accesses / walk      = {:.4}   [MMU caches]",
        d.ptw_accesses_per_walk
    );
    println!(
        "  cycles / PTW access      = {:.2}    [cache hierarchy]",
        d.cycles_per_ptw_access
    );
    println!("  => walk cycles / instr   = {:.4}   (WCPI)", d.wcpi);

    println!("\nselected hardware-counter events (4KB run):");
    for (name, value) in point.run_4k.result.counters.events().into_iter().take(12) {
        println!("  {name:<42} {value:>14}");
    }
}
