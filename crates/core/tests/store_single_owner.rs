//! The single-owner concurrency contract of a run-store directory: two
//! handles opened on one directory at once lose rows, but every load is a
//! miss or the saved bytes — never a wrong record, never a panic.

use atscale::{RunRecord, RunSpec, RunStore};
use atscale_mmu::MachineConfig;
use atscale_vm::PageSize;
use atscale_workloads::WorkloadId;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Three real records with their keys and canonical bytes.
fn baseline() -> &'static [(String, RunRecord, Vec<u8>)] {
    static BASELINE: OnceLock<Vec<(String, RunRecord, Vec<u8>)>> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let config = MachineConfig::haswell();
        (11..14)
            .map(|seed| {
                let spec = RunSpec {
                    workload: WorkloadId::parse("cc-urand").unwrap(),
                    nominal_footprint: 16 << 20,
                    page_size: PageSize::Size4K,
                    seed,
                    warmup_instr: 1_000,
                    budget_instr: 20_000,
                    arch: atscale::ArchKind::Baseline,
                };
                let record = atscale::execute_run(&spec, &config);
                let bytes = serde_json::to_vec(&record).expect("records serialize");
                (RunStore::key(&spec, &config), record, bytes)
            })
            .collect()
    })
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("atscale-store-owners-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The concurrency contract of a store directory: it has one owner. Two
/// handles opened on one directory at once lose each other's rows (each
/// seal truncates the shared WAL and reuses the other's segment ids), but
/// whatever a later open finds is CRC-framed and content-keyed: every
/// load is a miss or byte-identical, never a wrong record, never a panic.
#[test]
fn two_owners_lose_rows_but_never_serve_a_wrong_record() {
    let dir = scratch_dir();
    let a = RunStore::open(&dir).expect("first owner");
    let b = RunStore::open(&dir).expect("second owner");
    a.set_seal_threshold(2);
    b.set_seal_threshold(3);
    // 3 records x 4 rounds of distinct keys, saves alternating between
    // the owners with their seals (and one compaction) interleaved.
    let keyed: Vec<(String, &RunRecord, &Vec<u8>)> = (0..4)
        .flat_map(|round| {
            baseline()
                .iter()
                .map(move |(key, record, bytes)| (format!("{key}-{round}"), record, bytes))
        })
        .collect();
    for (i, (key, record, bytes)) in keyed.iter().enumerate() {
        let (owner, other) = if i % 2 == 0 { (&a, &b) } else { (&b, &a) };
        // Saves may fail (the other owner's open or seal can pull a file
        // out from under this one); they must not panic.
        let _ = owner.save(key, record);
        if i % 5 == 4 {
            let _ = other.seal();
        }
        if i == 7 {
            let _ = a.compact();
        }
        // Each owner's own view stays coherent.
        if let Some(loaded) = owner.load(key) {
            assert_eq!(&serde_json::to_vec(&loaded).expect("serializes"), *bytes);
        }
    }
    drop(a);
    drop(b);

    let reopened = RunStore::open(&dir).expect("reopen after two owners");
    let mut hits = 0;
    for (key, _, bytes) in &keyed {
        if let Some(loaded) = reopened.load(key) {
            assert_eq!(&serde_json::to_vec(&loaded).expect("serializes"), *bytes);
            hits += 1;
        }
    }
    assert_eq!(reopened.len(), hits, "no rows under unknown keys");
    assert!(
        hits < keyed.len(),
        "two owners are expected to lose rows; if none were lost the contract \
         in crates/results/src/store.rs should be strengthened"
    );
    // The store is fully serviceable afterwards.
    for (key, record, bytes) in &keyed {
        reopened.save(key, record).expect("re-save");
        let back = reopened.load(key).expect("re-saved row loads");
        assert_eq!(&serde_json::to_vec(&back).expect("serializes"), *bytes);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
