//! A store written in the previous on-disk format still opens.
//!
//! `tests/fixtures/v2_store` was written once by the last `SegmentStore`
//! that wrote format-v2 segments and an `index.bin`: six appends at seal
//! threshold 4 — one sealed v2 segment holding rows on two architectures,
//! then a WAL tail whose first row supersedes a sealed one. The query
//! answer below is that store's own answer, pinned as literals when the
//! fixture was written.

use atscale_results::{
    value_fp, x_fp, AggState, GroupSummary, HotRow, QueryFilter, QueryResult, SegmentStore,
};
use std::path::{Path, PathBuf};

fn hot(workload: &str, mb: u64, seed: u64, wcpi: f64, arch: &str) -> HotRow {
    HotRow {
        workload: workload.to_string(),
        footprint_mb: mb,
        page_size: "4K".to_string(),
        seed,
        source: "sim".to_string(),
        arch: arch.to_string(),
        wcpi_fp: value_fp(wcpi),
        x_fp: x_fp((mb as f64 * 1024.0).log10()),
        walk_duration_cycles: (wcpi * 1e5) as u64,
        inst_retired: 100_000,
        cycles: 150_000 + seed,
        walks_initiated: 90 + seed,
        walks_completed: 80 + seed,
        walks_retired: 70 + seed,
    }
}

/// The fixture's appends, in order: `(key, hot row, raw record bytes)`.
fn appends() -> Vec<(&'static str, HotRow, &'static str)> {
    vec![
        (
            "00000000000000a1",
            hot("cc-urand", 16, 1, 0.125, "baseline"),
            r#"{"run":"a1","v":1}"#,
        ),
        (
            "00000000000000b2",
            hot("cc-urand", 64, 2, 0.5, "baseline"),
            r#"{"run":"b2","v":1}"#,
        ),
        (
            "00000000000000c3",
            hot("cc-urand", 16, 3, 0.0625, "victima"),
            r#"{"run":"c3","v":1}"#,
        ),
        (
            "00000000000000d4",
            hot("bfs-urand", 256, 4, 0.75, "victima"),
            r#"{"run":"d4","v":1}"#,
        ),
        (
            "00000000000000a1",
            hot("cc-urand", 16, 1, 0.25, "baseline"),
            r#"{"run":"a1","v":2}"#,
        ),
        (
            "00000000000000e5",
            hot("cc-urand", 256, 5, 1.5, "baseline"),
            r#"{"run":"e5","v":1}"#,
        ),
    ]
}

fn group(workload: &str, mb: u64, arch: &str, mean: f64, quantile: f64) -> GroupSummary {
    GroupSummary {
        workload: workload.to_string(),
        footprint_mb: mb,
        source: "sim".to_string(),
        arch: arch.to_string(),
        count: 1,
        mean_wcpi: mean,
        p50_wcpi: quantile,
        p99_wcpi: quantile,
    }
}

/// `query(&QueryFilter::default())` as the writing store answered it.
fn pinned_answer() -> QueryResult {
    QueryResult {
        count: 5,
        mean_wcpi: 0.6125,
        p50_wcpi: 0.5221368912137069,
        p99_wcpi: 1.4768261459394993,
        beta: Some(0.8045294488921371),
        intercept: Some(-3.2625),
        groups: vec![
            group("bfs-urand", 256, "victima", 0.75, 0.7384130729697497),
            group("cc-urand", 16, "baseline", 0.25, 0.26106844560685344),
            group("cc-urand", 16, "victima", 0.0625, 0.06526711140171336),
            group("cc-urand", 64, "baseline", 0.5, 0.5221368912137069),
            group("cc-urand", 256, "baseline", 1.5, 1.4768261459394993),
        ],
    }
}

/// Copies the fixture into a fresh scratch directory.
fn fixture_copy(tag: &str) -> PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2_store");
    let dir = std::env::temp_dir().join(format!("atscale-v2-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(&src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    dir
}

/// The last write of each key: what a reopened store must serve.
fn live_rows() -> Vec<(&'static str, HotRow, &'static str)> {
    let mut live: Vec<(&'static str, HotRow, &'static str)> = Vec::new();
    for row in appends() {
        live.retain(|(key, _, _)| *key != row.0);
        live.push(row);
    }
    live
}

#[test]
fn a_v2_store_opens_and_answers_as_its_writer_did() {
    let dir = fixture_copy("open");
    let store = SegmentStore::open(&dir).unwrap();
    let stats = store.seg_stats();
    assert_eq!(stats.quarantined, 0);
    assert_eq!((stats.segments, stats.wal_rows), (1, 2));
    assert_eq!((stats.live_rows, stats.dead_rows), (5, 1));
    let live = live_rows();
    for (key, _, raw) in &live {
        assert_eq!(store.load(key).unwrap(), raw.as_bytes(), "{key}");
    }
    let mut recomputed = AggState::new();
    for (_, hot, _) in &live {
        recomputed.add(hot);
    }
    assert_eq!(store.aggregate(), recomputed);
    assert_eq!(store.query(&QueryFilter::default()), pinned_answer());

    // New segments are v3 beside the v2 one; a reopen serves both.
    store.seal().unwrap();
    drop(store);
    let store = SegmentStore::open(&dir).unwrap();
    assert_eq!(store.seg_stats().segments, 2);
    assert_eq!(store.query(&QueryFilter::default()), pinned_answer());
    for (key, _, raw) in &live {
        assert_eq!(store.load(key).unwrap(), raw.as_bytes(), "{key}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flipped_bit_in_the_skipped_v2_aggregate_block_still_quarantines() {
    let dir = fixture_copy("flip");
    let seg = dir.join("seg-000000.seg");
    let mut bytes = std::fs::read(&seg).unwrap();
    // Walk the 16 column and raw blocks; the 17th is the aggregate block.
    let mut pos = 12;
    for _ in 0..16 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    assert_eq!(pos + 8 + len, bytes.len(), "the aggregate block is last");
    bytes[pos + 8 + len / 2] ^= 0x04;
    std::fs::write(&seg, &bytes).unwrap();

    let store = SegmentStore::open(&dir).unwrap();
    assert_eq!(store.seg_stats().quarantined, 1);
    assert!(dir.join("seg-000000.seg.corrupt").exists());
    // The WAL tail survives; the sealed rows are misses.
    let wal_rows = &appends()[4..];
    for (key, _, raw) in wal_rows {
        assert_eq!(store.load(key).unwrap(), raw.as_bytes(), "{key}");
    }
    for key in ["00000000000000b2", "00000000000000c3", "00000000000000d4"] {
        assert!(store.load(key).is_none(), "{key}");
    }
    let mut recomputed = AggState::new();
    for (_, hot, _) in wal_rows {
        recomputed.add(hot);
    }
    assert_eq!(store.aggregate(), recomputed);
    let _ = std::fs::remove_dir_all(&dir);
}
