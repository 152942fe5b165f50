//! Seed-swept bounds check: every workload model, at every test-sweep
//! footprint, over many seeds, must only ever touch addresses inside the
//! segments its own `setup` allocated.
//!
//! The machine panics on an out-of-segment access, and the committed
//! sweeps fix one seed per (workload, footprint) — so a generator that
//! leaves its segment on 1 % of seeds passes every other test. This one
//! drives the models into a sink that checks each address and names the
//! workload, footprint, seed and address of every stray.

use atscale_mmu::{AccessOp, AccessSink};
use atscale_vm::{AddressSpace, BackingPolicy, PageSize, VirtAddr};
use atscale_workloads::WorkloadId;

/// `SweepConfig::test()`'s three log-spaced footprints (16 MiB → 128 MiB)
/// and its warm-up + measured instruction budget; `atscale` depends on
/// this crate, so the numbers are restated here.
const FOOTPRINTS: [u64; 3] = [16 << 20, 47_453_133, 128 << 20];
const BUDGET_INSTR: u64 = 10_000 + 120_000;
const SEEDS: u64 = 64;

/// Retires instructions like the machine does (one per access, `n` per
/// `instructions(n)`) and stops at the budget or at the first address
/// outside every segment.
struct BoundsSink {
    segments: Vec<std::ops::Range<u64>>,
    retired: u64,
    stray: Option<VirtAddr>,
}

impl AccessSink for BoundsSink {
    fn access(&mut self, _op: AccessOp, va: VirtAddr) {
        self.retired += 1;
        if self.stray.is_none() && !self.segments.iter().any(|s| s.contains(&va.as_u64())) {
            self.stray = Some(va);
        }
    }

    fn instructions(&mut self, n: u64) {
        self.retired += n;
    }

    fn done(&self) -> bool {
        self.done_after(0)
    }

    fn done_after(&self, pending: u64) -> bool {
        self.stray.is_some() || self.retired + pending >= BUDGET_INSTR
    }
}

/// Every workload × `SEEDS` seeds at one footprint (one test per footprint,
/// so the harness runs them side by side).
fn sweep(footprint: u64) {
    let mut strays = Vec::new();
    for workload in WorkloadId::all() {
        for seed in 0..SEEDS {
            let mut model = workload.build_model(footprint, seed);
            let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
            model.setup(&mut space).expect("setup allocates");
            let mut sink = BoundsSink {
                segments: space
                    .segments()
                    .iter()
                    .map(|s| s.base().as_u64()..s.base().as_u64() + s.len())
                    .collect(),
                retired: 0,
                stray: None,
            };
            model.run(&mut sink);
            if let Some(va) = sink.stray {
                strays.push(format!(
                    "{workload} footprint={footprint} seed={seed} address={:#x} \
                     (after {} instructions)",
                    va.as_u64(),
                    sink.retired
                ));
            }
        }
    }
    assert!(
        strays.is_empty(),
        "{} run(s) left their segments:\n{}",
        strays.len(),
        strays.join("\n")
    );
}

#[test]
fn every_workload_stays_inside_its_segments_at_16_mib() {
    sweep(FOOTPRINTS[0]);
}

#[test]
fn every_workload_stays_inside_its_segments_at_45_mib() {
    sweep(FOOTPRINTS[1]);
}

#[test]
fn every_workload_stays_inside_its_segments_at_128_mib() {
    sweep(FOOTPRINTS[2]);
}
