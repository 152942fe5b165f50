//! Property tests for `SegmentStore` corruption recovery: arbitrary on-disk
//! damage (truncation at any offset, any single bit flip, a torn WAL tail) must
//! never panic a reopen, must quarantine what cannot be trusted, and must
//! leave the store able to recompute and serve the records
//! byte-identically — with the query answer equal to one over the
//! surviving rows.

use atscale_results::{query, value_fp, x_fp, HotRow, QueryFilter, QueryResult, SegmentStore};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// A deterministic synthetic row: the damage is the variable under test,
/// not the data.
fn mk_row(i: u64) -> (String, HotRow, Vec<u8>) {
    let mb = 16 << (i % 4);
    let wcpi = 0.25 + i as f64 * 0.125;
    let hot = HotRow {
        workload: "cc-urand".to_string(),
        footprint_mb: mb,
        page_size: "4K".to_string(),
        arch: if i.is_multiple_of(4) {
            "victima"
        } else {
            "baseline"
        }
        .to_string(),
        wcpi_fp: value_fp(wcpi),
        x_fp: x_fp((mb as f64 * 1024.0).log10()),
    };
    let raw = format!("{{\"run\":{i},\"wcpi\":{wcpi}}}").into_bytes();
    (format!("key-{i:04}"), hot, raw)
}

/// The answer over `rows` alone, to compare a store's with.
fn recompute(rows: &[(String, HotRow, Vec<u8>)]) -> QueryResult {
    query(rows.iter().map(|(_, hot, _)| hot), &QueryFilter::default())
}

fn answer(store: &SegmentStore) -> QueryResult {
    store.query(&QueryFilter::default())
}

/// A unique scratch directory per case.
fn scratch_dir() -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "atscale-prop-seg-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const ROWS: u64 = 4;

/// Seals `ROWS` rows into `seg-000000.seg` and returns the rows.
fn seed_sealed_segment(dir: &std::path::Path) -> Vec<(String, HotRow, Vec<u8>)> {
    let store = SegmentStore::open(dir).expect("open store");
    store.set_seal_threshold(ROWS as usize);
    let rows: Vec<_> = (0..ROWS).map(mk_row).collect();
    for (key, hot, raw) in &rows {
        store.append(key, hot.clone(), raw).expect("append");
    }
    let stats = store.seg_stats();
    assert_eq!(stats.segments, 1, "rows sealed into one segment");
    assert_eq!(stats.wal_rows, 0);
    rows
}

proptest! {
    /// Truncating the sealed segment to any strict prefix (including
    /// empty) is detected on reopen: the segment is quarantined wholesale
    /// to a `.corrupt` sidecar, every row becomes a recomputable miss,
    /// and re-appending restores byte-identical service with the query
    /// answer equal to one over the re-appended rows.
    #[test]
    fn segment_truncation_quarantines_and_recomputes(cut_frac in 0.0f64..1.0) {
        let dir = scratch_dir();
        let rows = seed_sealed_segment(&dir);

        let seg = dir.join("seg-000000.seg");
        let bytes = std::fs::read(&seg).expect("sealed segment");
        let cut = (((bytes.len() as f64) * cut_frac) as usize).min(bytes.len() - 1);
        std::fs::write(&seg, &bytes[..cut]).expect("tear the segment");

        let store = SegmentStore::open(&dir).expect("reopen never errors on corruption");
        let stats = store.seg_stats();
        prop_assert_eq!(stats.quarantined, 1, "torn segment quarantined");
        prop_assert_eq!(stats.segments, 0);
        prop_assert_eq!(stats.live_rows, 0);
        prop_assert!(!seg.exists(), "the torn file was moved aside");
        prop_assert!(
            dir.join("seg-000000.seg.corrupt").exists(),
            "quarantine sidecar exists"
        );
        for (key, _, _) in &rows {
            prop_assert!(store.load(key).is_none(), "quarantined rows are misses");
        }
        prop_assert_eq!(answer(&store), recompute(&[]));

        // Recompute-and-append restores byte-identical service.
        for (key, hot, raw) in &rows {
            store.append(key, hot.clone(), raw).expect("re-append");
        }
        for (key, _, raw) in &rows {
            prop_assert_eq!(store.load(key).expect("recovered row loads"), raw.clone());
        }
        prop_assert_eq!(answer(&store), recompute(&rows));

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping any single bit anywhere in the sealed segment never
    /// panics a reopen: the damage is either still decodable (served
    /// byte-identically) or the segment is quarantined as misses. Either
    /// way the store stays serviceable and re-appending round-trips.
    #[test]
    fn any_single_bit_flip_is_survived(byte_frac in 0.0f64..1.0, bit in 0u8..8) {
        let dir = scratch_dir();
        let rows = seed_sealed_segment(&dir);

        let seg = dir.join("seg-000000.seg");
        let mut bytes = std::fs::read(&seg).expect("sealed segment");
        let pos = (((bytes.len() as f64) * byte_frac) as usize).min(bytes.len() - 1);
        bytes[pos] ^= 1 << bit;
        std::fs::write(&seg, &bytes).expect("flip a bit");

        // The contract under test: no panic, and a coherent verdict.
        let store = SegmentStore::open(&dir).expect("reopen never errors on corruption");
        let stats = store.seg_stats();
        if stats.quarantined == 0 {
            // A flip the checksums did not catch must not have changed
            // what is served (covers flips in dead padding, if any).
            prop_assert_eq!(stats.live_rows, ROWS);
            for (key, _, raw) in &rows {
                prop_assert_eq!(store.load(key).expect("row loads"), raw.clone());
            }
            prop_assert_eq!(answer(&store), recompute(&rows));
        } else {
            prop_assert_eq!(stats.quarantined, 1);
            prop_assert!(dir.join("seg-000000.seg.corrupt").exists());
            for (key, _, _) in &rows {
                prop_assert!(store.load(key).is_none());
            }
            for (key, hot, raw) in &rows {
                store.append(key, hot.clone(), raw).expect("re-append");
            }
            for (key, _, raw) in &rows {
                prop_assert_eq!(store.load(key).expect("recovered row loads"), raw.clone());
            }
            prop_assert_eq!(answer(&store), recompute(&rows));
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncating the WAL at any offset keeps exactly the whole frames
    /// before the cut: reopen quarantines the torn tail (when one exists)
    /// to `wal.corrupt`, serves the surviving rows byte-identically, and
    /// re-appending the lost rows restores the full answer.
    #[test]
    fn wal_truncation_keeps_exactly_the_whole_frames(
        n in 1u64..6,
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = scratch_dir();
        let rows: Vec<_> = (0..n).map(mk_row).collect();
        let wal = dir.join("wal.log");
        // High threshold: everything stays in the WAL; record each
        // frame's end offset as it lands.
        let mut ends: Vec<u64> = Vec::new();
        {
            let store = SegmentStore::open(&dir).expect("open store");
            store.set_seal_threshold(1024);
            for (key, hot, raw) in &rows {
                store.append(key, hot.clone(), raw).expect("append");
                ends.push(std::fs::metadata(&wal).expect("wal exists").len());
            }
        }
        let total = *ends.last().expect("at least one frame");
        let cut = (((total as f64) * cut_frac) as u64).min(total);
        {
            let file = std::fs::OpenOptions::new().write(true).open(&wal).expect("open wal");
            file.set_len(cut).expect("truncate wal");
        }
        let surviving = ends.iter().filter(|&&e| e <= cut).count();
        let boundary = if surviving == 0 { 0 } else { ends[surviving - 1] };
        let torn = cut > boundary;

        let store = SegmentStore::open(&dir).expect("reopen never errors on corruption");
        let stats = store.seg_stats();
        prop_assert_eq!(stats.live_rows, surviving as u64, "whole frames survive");
        prop_assert_eq!(stats.quarantined, u64::from(torn));
        prop_assert_eq!(dir.join("wal.corrupt").exists(), torn);
        for (i, (key, _, raw)) in rows.iter().enumerate() {
            if i < surviving {
                prop_assert_eq!(store.load(key).expect("surviving row loads"), raw.clone());
            } else {
                prop_assert!(store.load(key).is_none(), "cut rows are misses");
            }
        }
        prop_assert_eq!(answer(&store), recompute(&rows[..surviving]));

        // Re-appending the lost tail restores the full answer.
        for (key, hot, raw) in &rows[surviving..] {
            store.append(key, hot.clone(), raw).expect("re-append");
        }
        for (key, _, raw) in &rows {
            prop_assert_eq!(store.load(key).expect("row loads"), raw.clone());
        }
        prop_assert_eq!(answer(&store), recompute(&rows));

        let _ = std::fs::remove_dir_all(&dir);
    }
}
