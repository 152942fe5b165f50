//! **Ablation** — The TLB filtering effect (§V-C).
//!
//! The paper hypothesises that *higher* TLB hit rates cause *longer* page
//! table walks: the TLB filters the page-level access pattern, so the MMU
//! caches see a locality-poor residue. This ablation sweeps the L2 TLB
//! size at a fixed workload instance: growing the TLB should raise its hit
//! rate while *increasing* accesses per walk — the filtering signature.

use super::Ctx;
use atscale::report::{fmt, Table};
use atscale::Decomposition;
use atscale_mmu::{MachineConfig, TlbGeometry};

pub(super) fn run(ctx: &Ctx) {
    // pr-kron at a small footprint: the Zipf-hot vertex set straddles the
    // TLB reach, so TLB capacity materially changes what the paging
    // structure caches get to see.
    let id = super::workload("pr-kron");
    let fp = ctx.opts.sweep.footprints()[0];
    println!(
        "Ablation: TLB filtering — L2 TLB size sweep for {id} at {}",
        atscale::report::human_bytes(fp)
    );

    let mut table = Table::new(&["l2_tlb_entries", "tlb_miss_ratio", "acc_per_walk", "wcpi"]);
    for entries in [64u32, 256, 1024, 4096, 16384] {
        let mut cfg = MachineConfig::haswell();
        cfg.tlb.l2 = TlbGeometry::new(entries, 8);
        let record = ctx.harness.clone().with_config(cfg).run(&ctx.opts.sweep.spec(id, fp));
        let d = Decomposition::from_counters(&record.result.counters);
        table.row_owned(vec![
            entries.to_string(),
            fmt(record.result.tlb.miss_ratio(), 4),
            fmt(d.ptw_accesses_per_walk, 3),
            fmt(d.wcpi, 3),
        ]);
    }
    ctx.publish(
        &table,
        &["filtering signature: larger TLB -> lower miss ratio but MORE accesses per walk".into()],
    );
}
