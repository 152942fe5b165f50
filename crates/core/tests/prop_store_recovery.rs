//! Property tests for `RunStore::open`'s migration pass, the one place
//! the store still reads input it cannot checksum: a directory of legacy
//! `{key}.json` records, one of them damaged arbitrarily (truncated at any
//! offset, any single bit flipped). Opening must never panic, must
//! quarantine anything unparseable into a `.corrupt` sidecar and report a
//! miss, must serve every intact record byte-identically, and must leave
//! the store able to recompute and round-trip the damaged one. A second
//! test pins the single-owner concurrency contract.

use atscale::results::{AggState, QueryFilter};
use atscale::{hot_row, RunRecord, RunSpec, RunStore};
use atscale_mmu::MachineConfig;
use atscale_vm::PageSize;
use atscale_workloads::WorkloadId;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Three real records with their keys and canonical bytes, computed once:
/// the damage is the variable under test, not the simulation.
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
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "atscale-prop-store-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn legacy_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.json"))
}

/// A directory as the per-file JSON store left it — every baseline record
/// as `serde_json::to_vec(record)` in `{key}.json` — with record 0's file
/// replaced by `damaged`.
fn legacy_dir(damaged: &[u8]) -> PathBuf {
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for (key, _, bytes) in baseline() {
        std::fs::write(legacy_path(&dir, key), bytes).expect("legacy file");
    }
    std::fs::write(legacy_path(&dir, &baseline()[0].0), damaged).expect("damage");
    dir
}

/// The checks every damaged directory must pass once opened. `victim` is
/// what the damaged file parsed as, if it still parsed.
fn check_opened(dir: &Path, store: &RunStore, victim: Option<&RunRecord>) {
    let [(victim_key, victim_record, victim_bytes), intact @ ..] = baseline() else {
        unreachable!("three baseline records");
    };
    let json_left = std::fs::read_dir(dir)
        .expect("list")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .count();
    assert_eq!(json_left, 0, "every legacy file was migrated or set aside");
    let sidecar = dir.join(format!("{victim_key}.json.corrupt"));
    match victim {
        Some(parsed) => {
            // Still-parseable damage (a lucky flip inside a number or
            // string) is undetectable in a checksum-less format: it
            // migrates as what it parsed as.
            assert!(!sidecar.exists());
            assert_eq!(store.migrated(), 3);
            assert_eq!(store.stats().corrupt_files, 0);
            let loaded = store.load(victim_key).expect("parseable damage migrates");
            assert_eq!(
                serde_json::to_vec(&loaded).expect("serializes"),
                serde_json::to_vec(parsed).expect("serializes")
            );
        }
        None => {
            assert!(sidecar.exists(), "quarantine sidecar exists");
            assert_eq!(store.migrated(), 2);
            assert_eq!(store.stats().corrupt_files, 1);
            assert!(store.load(victim_key).is_none(), "damaged record is a miss");
        }
    }
    for (key, _, bytes) in intact {
        let loaded = store.load(key).expect("intact record migrates");
        assert_eq!(&serde_json::to_vec(&loaded).expect("serializes"), bytes);
    }

    // Recompute-and-save restores byte-identical service of the victim,
    // and the online aggregates equal a from-raw recomputation.
    store.save(victim_key, victim_record).expect("re-save");
    let back = store.load(victim_key).expect("recovered record loads");
    assert_eq!(
        &serde_json::to_vec(&back).expect("serializes"),
        victim_bytes
    );
    let mut recomputed = AggState::new();
    store.for_each_live_record(|_, hot, raw| {
        let record: RunRecord = serde_json::from_slice(&raw).expect("stored raw parses");
        assert_eq!(&hot_row(&record), hot);
        recomputed.add(hot);
    });
    let all = QueryFilter::default();
    assert_eq!(store.query(&all).count, 3);
    assert_eq!(store.query(&all), recomputed.query(&all));
}

/// Opens `dir`, checks it, then checks that a second open migrates
/// nothing and that a migration which died between an append and its
/// remove (the file is back, the row is in) does not double-count.
fn open_check_reopen(dir: &Path, victim: Option<&RunRecord>) {
    let store = RunStore::open(dir).expect("a damaged directory still opens");
    check_opened(dir, &store, victim);
    let all = QueryFilter::default();
    let settled = store.query(&all);
    drop(store);

    let (key, _, bytes) = &baseline()[1];
    std::fs::write(legacy_path(dir, key), bytes).expect("resurrect a migrated file");
    let resumed = RunStore::open(dir).expect("reopen");
    assert_eq!(resumed.migrated(), 0, "the row was already in");
    assert!(!legacy_path(dir, key).exists());
    assert_eq!(resumed.query(&all), settled, "no double count");
    drop(resumed);
    let again = RunStore::open(dir).expect("third open");
    assert_eq!(again.migrated(), 0, "nothing left to migrate");
    assert_eq!(again.query(&all), settled);
    let _ = std::fs::remove_dir_all(dir);
}

proptest! {
    /// A legacy file truncated to any strict prefix (including empty) is
    /// detected at open: a miss and a `.corrupt` sidecar, never a panic.
    #[test]
    fn truncation_at_any_offset_quarantines_and_recomputes(cut_frac in 0.0f64..1.0) {
        let bytes = &baseline()[0].2;
        // Strict prefix: cut < len, so the JSON document never closes.
        let cut = (((bytes.len() as f64) * cut_frac) as usize).min(bytes.len() - 1);
        let dir = legacy_dir(&bytes[..cut]);
        open_check_reopen(&dir, None);
    }

    /// Flipping any single bit anywhere in a legacy file never panics an
    /// open: the damage either still parses (migrated as-is) or is
    /// quarantined as a miss. Either way every other record is served
    /// byte-identically and a re-save round-trips.
    #[test]
    fn any_single_bit_flip_is_survived(byte_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = baseline()[0].2.clone();
        let pos = (((bytes.len() as f64) * byte_frac) as usize).min(bytes.len() - 1);
        bytes[pos] ^= 1 << bit;
        let parsed: Option<RunRecord> = serde_json::from_slice(&bytes).ok();
        let dir = legacy_dir(&bytes);
        open_check_reopen(&dir, parsed.as_ref());
    }
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
