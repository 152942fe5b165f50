//! Integration tests asserting the paper's qualitative findings hold in
//! the reproduction, end to end (workload models → machine → counters →
//! analysis). Footprints are kept small so the suite runs in debug mode;
//! the full-scale shapes are exercised by the `atscale-bench` binaries.

use atscale::{Decomposition, Harness, OverheadPoint, PressureMetric, RunSpec, SweepConfig};
use atscale_mmu::MachineConfig;
use atscale_vm::PageSize;
use atscale_workloads::WorkloadId;
use serde::{Serialize, Value};

fn spec(workload: &str, footprint: u64, budget: u64) -> RunSpec {
    RunSpec {
        workload: WorkloadId::parse(workload).expect("known workload"),
        nominal_footprint: footprint,
        page_size: PageSize::Size4K,
        seed: 77,
        warmup_instr: 20_000,
        budget_instr: budget,
        arch: atscale::ArchKind::Baseline,
    }
}

fn overhead(workload: &str, footprint: u64) -> OverheadPoint {
    OverheadPoint::measure(
        &spec(workload, footprint, 250_000),
        &MachineConfig::haswell(),
    )
}

/// §V-A: overhead grows with footprint for AT-intensive workloads.
#[test]
fn overhead_grows_with_footprint_for_graph_workloads() {
    let small = overhead("cc-urand", 16 << 20);
    let large = overhead("cc-urand", 256 << 20);
    assert!(
        large.relative_overhead() > small.relative_overhead(),
        "cc-urand: {} -> {}",
        small.relative_overhead(),
        large.relative_overhead()
    );
    assert!(large.relative_overhead() > 0.02);
}

/// §V-A: tc-kron is the exception — overhead stays comparatively low
/// thanks to hub concentration.
#[test]
fn tc_kron_is_translation_friendlier_than_tc_urand() {
    let kron = overhead("tc-kron", 128 << 20);
    let urand = overhead("tc-urand", 128 << 20);
    assert!(
        kron.relative_overhead() < urand.relative_overhead(),
        "tc-kron {} vs tc-urand {}",
        kron.relative_overhead(),
        urand.relative_overhead()
    );
}

/// §V-A: streamcluster shows near-zero overhead at any footprint.
#[test]
fn streamcluster_overhead_is_negligible() {
    let p = overhead("streamcluster-rand", 128 << 20);
    assert!(
        p.relative_overhead().abs() < 0.05,
        "streamcluster overhead {}",
        p.relative_overhead()
    );
}

/// §III-A: superpages approximate the no-translation baseline.
#[test]
fn superpages_beat_base_pages_for_random_access() {
    let p = overhead("pr-urand", 128 << 20);
    assert!(p.run_2m.runtime_cycles() < p.run_4k.runtime_cycles());
    let wcpi_4k = p.run_4k.result.counters.wcpi();
    let wcpi_2m = p.run_2m.result.counters.wcpi();
    assert!(
        wcpi_2m < wcpi_4k / 5.0,
        "2MB wcpi {wcpi_2m} should be far below 4KB wcpi {wcpi_4k}"
    );
}

/// §III-B: the 1 GB policy loses to 2 MB at small footprints because
/// sub-1 GB regions fall back to base pages.
#[test]
fn one_gig_pages_lose_at_small_footprints() {
    let p = overhead("cc-urand", 64 << 20);
    assert!(
        p.run_1g.runtime_cycles() > p.run_2m.runtime_cycles(),
        "1GB {} vs 2MB {}",
        p.run_1g.runtime_cycles(),
        p.run_2m.runtime_cycles()
    );
    assert_eq!(p.baseline_cycles(), p.run_2m.runtime_cycles());
    // Why it loses is on the record: `RunResult.space` carries the
    // *effective* page-size mix. No cc-urand array reaches 1 GiB at this
    // footprint, so the 1 GB request got base pages only, each one a
    // fallback fault — while the 2 MB run did get its superpages.
    let space_1g = p.run_1g.result.space;
    let base_pages = space_1g.table.pages_by_size[0];
    assert!(base_pages > 0);
    assert_eq!(space_1g.table.pages_by_size, [base_pages, 0, 0]);
    assert_eq!(space_1g.fallback_faults, space_1g.minor_faults);
    assert_eq!(space_1g.minor_faults, base_pages);
    let space_2m = p.run_2m.result.space;
    assert!(space_2m.table.pages_by_size[1] > 0);
    assert!(space_2m.fallback_faults < space_2m.minor_faults);
}

/// Equation 1 telescopes exactly on every workload.
#[test]
fn equation_1_identity_holds_for_every_workload() {
    for id in WorkloadId::all() {
        let record = atscale::execute_run(
            &spec(&id.to_string(), 32 << 20, 120_000),
            &MachineConfig::haswell(),
        );
        let d = Decomposition::from_counters(&record.result.counters);
        d.assert_identity(1e-9);
        record.result.counters.assert_consistent();
    }
}

/// Every field of the counter file is produced: each one, read off the
/// serialised `Counters` (so a field the `counters!` declaration adds is
/// covered with no edit here), is non-zero in at least one of a few runs.
#[test]
fn every_counter_is_produced() {
    let runs = [
        spec("bc-urand", 128 << 20, 300_000),
        spec("memcached-uniform", 64 << 20, 100_000),
    ];
    let maps: Vec<Vec<(String, Value)>> = runs
        .iter()
        .map(|run| {
            let record = atscale::execute_run(run, &MachineConfig::haswell());
            match record.result.counters.to_value() {
                Value::Map(fields) => fields,
                other => panic!("Counters serialises as a map, not {other:?}"),
            }
        })
        .collect();
    let silent: Vec<&str> = maps[0]
        .iter()
        .enumerate()
        .filter(|(i, _)| maps.iter().all(|m| matches!(m[*i].1, Value::U64(0))))
        .map(|(_, (name, _))| name.as_str())
        .collect();
    assert!(silent.is_empty(), "counters no run produces: {silent:?}");
}

/// §V-C: accesses per walk stay within the paper's 1–2 range (the paging
/// structure caches work).
#[test]
fn accesses_per_walk_in_paper_range() {
    for workload in ["bc-urand", "mcf-rand", "pr-kron"] {
        let record = atscale::execute_run(
            &spec(workload, 64 << 20, 200_000),
            &MachineConfig::haswell(),
        );
        let d = Decomposition::from_counters(&record.result.counters);
        // Aborted walks can be squashed before issuing any PTE fetch, so
        // the ratio can dip fractionally below 1 at small footprints.
        assert!(
            (0.9..=2.6).contains(&d.ptw_accesses_per_walk),
            "{workload}: accesses/walk {}",
            d.ptw_accesses_per_walk
        );
    }
}

/// §V-D: speculative walks exist and the Table VI decomposition accounts
/// for every initiated walk.
#[test]
fn walk_outcomes_partition_initiated_walks() {
    let record = atscale::execute_run(
        &spec("bc-urand", 128 << 20, 300_000),
        &MachineConfig::haswell(),
    );
    let o = record.result.counters.walk_outcomes();
    assert!(o.wrong_path > 0, "wrong-path walks expected");
    assert!(o.aborted > 0, "aborted walks expected");
    assert_eq!(o.retired + o.wrong_path + o.aborted, o.initiated);
    assert!(o.non_correct_fraction() > 0.02);
}

/// §V-B: within a workload, WCPI orders sweep points like overhead does
/// (high Spearman rank).
#[test]
fn wcpi_tracks_overhead_within_a_workload() {
    let harness = Harness::new();
    let sweep = SweepConfig {
        min_footprint: 16 << 20,
        max_footprint: 256 << 20,
        points: 4,
        warmup_instr: 20_000,
        budget_instr: 250_000,
        seed: 5,
    };
    let points = harness.sweep(WorkloadId::parse("cc-urand").unwrap(), &sweep);
    let wcpi: Vec<f64> = points
        .iter()
        .map(|p| PressureMetric::Wcpi.value(&p.run_4k))
        .collect();
    let overheads: Vec<f64> = points
        .iter()
        .map(OverheadPoint::relative_overhead)
        .collect();
    let rho = atscale_stats::spearman(&wcpi, &overheads).expect("non-degenerate");
    assert!(rho > 0.7, "Spearman(WCPI, overhead) = {rho}");
}

/// The measured footprint tracks the nominal instance size (models fault
/// in their working sets during setup).
#[test]
fn measured_footprint_tracks_nominal() {
    for workload in ["pr-urand", "mcf-rand", "memcached-uniform"] {
        let record =
            atscale::execute_run(&spec(workload, 96 << 20, 50_000), &MachineConfig::haswell());
        let measured = record.result.footprint_bytes() as f64;
        let nominal = (96 << 20) as f64;
        assert!(
            measured > 0.8 * nominal && measured < 1.3 * nominal,
            "{workload}: measured {measured} vs nominal {nominal}"
        );
    }
}

/// Determinism: identical specs give identical counter files.
#[test]
fn runs_are_reproducible() {
    let s = spec("bfs-kron", 32 << 20, 100_000);
    let a = atscale::execute_run(&s, &MachineConfig::haswell());
    let b = atscale::execute_run(&s, &MachineConfig::haswell());
    assert_eq!(a.result.counters, b.result.counters);
    assert_eq!(a.result.tlb, b.result.tlb);
    assert_eq!(a.result.space, b.result.space);
}
