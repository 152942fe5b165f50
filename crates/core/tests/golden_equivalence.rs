//! Golden equivalence: the optimised hot path must be *bit-for-bit*
//! indistinguishable from the reference pipeline.
//!
//! The serve daemon's single-flight dedup and the run-cache layer both key
//! on serialized [`RunRecord`]s, so the PR-4 hot-path restructuring
//! (batched sink API, TLB frame payloads, adaptive translation memo,
//! page-table chain memo, zeta memoisation) is only admissible if it
//! changes *nothing* observable. These tests run every workload through
//! both pipelines and compare the serialized bytes — not approximate
//! equality, not counter-by-counter: bytes.

use atscale::{execute_run, execute_run_reference, Harness, RunSpec, SweepConfig};
use atscale_vm::PageSize;
use atscale_workloads::WorkloadId;

fn record_bytes(record: &atscale::RunRecord) -> Vec<u8> {
    serde_json::to_vec(record).expect("RunRecord serializes")
}

/// Every workload, every sweep footprint: the batched fast path and the
/// force-slow reference pipeline produce byte-identical records.
#[test]
fn fast_path_matches_reference_for_every_workload() {
    let sweep = SweepConfig::test();
    let config = atscale_mmu::MachineConfig::haswell();
    for workload in WorkloadId::all() {
        for footprint in sweep.footprints() {
            let spec = sweep.spec(workload, footprint);
            let fast = record_bytes(&execute_run(&spec, &config));
            let reference = record_bytes(&execute_run_reference(&spec, &config));
            assert_eq!(
                fast, reference,
                "pipelines diverged for {workload} at {footprint} bytes"
            );
        }
    }
}

/// The equivalence must hold for superpage-backed runs too — they exercise
/// the 2 MB L1 TLB, the size-tagged L2 entries and the shorter walk paths.
#[test]
fn fast_path_matches_reference_across_page_sizes() {
    let sweep = SweepConfig::test();
    let config = atscale_mmu::MachineConfig::haswell();
    for page_size in [PageSize::Size2M, PageSize::Size1G] {
        for workload in [
            WorkloadId::parse("cc-urand").unwrap(),
            WorkloadId::parse("streamcluster-rand").unwrap(),
        ] {
            let spec = sweep.spec(workload, 64 << 20).with_page_size(page_size);
            let fast = record_bytes(&execute_run(&spec, &config));
            let reference = record_bytes(&execute_run_reference(&spec, &config));
            assert_eq!(
                fast, reference,
                "pipelines diverged for {workload} at {page_size}"
            );
        }
    }
}

/// `run_many` returns byte-identical records whether the specs are executed
/// on one worker thread or several: per-slot result publication and
/// work-stealing order must not leak into the records.
#[test]
fn run_many_is_thread_count_invariant() {
    let sweep = SweepConfig::test();
    let specs: Vec<RunSpec> = WorkloadId::all()
        .into_iter()
        .take(6)
        .map(|w| sweep.spec(w, 32 << 20))
        .collect();
    let single: Vec<Vec<u8>> = Harness::new()
        .with_threads(1)
        .run_many(&specs)
        .iter()
        .map(record_bytes)
        .collect();
    let parallel: Vec<Vec<u8>> = Harness::new()
        .with_threads(4)
        .run_many(&specs)
        .iter()
        .map(record_bytes)
        .collect();
    assert_eq!(single, parallel);
}

/// Records are pinned across commits, not only across pipelines: both
/// pipelines above share `Workload::setup`, so a change to how set-up
/// faults pages in (frame order, fallback accounting, page-table node
/// order) moves both sides together and the comparisons above cannot see
/// it. The digests — serialized length plus CRC-32 of the bytes — were taken
/// at PR 17, when set-up still touched every 4 KiB step through
/// `AddressSpace::touch`; they cover each backing shape (4 KiB, 2 MiB with
/// fallback tails, 1 GiB with and without a segment that large), a Zipf
/// sum per θ family (kron, mcf) and two non-baseline architectures.
#[test]
fn records_match_digests_pinned_at_pr17() {
    use atscale::ArchKind::{Baseline, NoTlb, Victima};
    use PageSize::{Size1G, Size2M, Size4K};
    const MIB: u64 = 1 << 20;
    // Not a round number of anything: every array ends in a fallback tail.
    const ODD: u64 = 64 * MIB + 12_288;
    let pinned = [
        ("cc-urand", 64 * MIB, Size4K, Baseline, 1106, 3334630744u32),
        ("cc-urand", ODD, Size2M, Baseline, 1089, 3268618513),
        ("pr-urand", 2304 * MIB, Size1G, Baseline, 1137, 135421694),
        ("cc-urand", 256 * MIB, Size1G, Baseline, 1119, 738659181),
        ("bfs-kron", 96 * MIB, Size4K, Baseline, 1114, 2782700811),
        ("mcf-rand", 48 * MIB, Size4K, Baseline, 1110, 1861195672),
        ("pr-kron", 32 * MIB, Size4K, Victima, 1185, 3537449761),
        ("cc-urand", 32 * MIB, Size4K, NoTlb, 1125, 3134576481),
    ];
    let config = atscale_mmu::MachineConfig::haswell();
    for (label, footprint, page_size, arch, len, crc) in pinned {
        let spec = RunSpec {
            workload: WorkloadId::parse(label).expect("known workload"),
            nominal_footprint: footprint,
            page_size,
            seed: 17,
            warmup_instr: 10_000,
            budget_instr: 60_000,
            arch,
        };
        let bytes = record_bytes(&execute_run(&spec, &config));
        assert_eq!(
            (bytes.len(), atscale::results::codec::crc32(&bytes)),
            (len, crc),
            "{} drifted from its PR 17 record",
            spec.label()
        );
    }
}
