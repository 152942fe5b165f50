//! A store written in an older on-disk format opens as an empty cache.
//!
//! `tests/fixtures/v2_store` was written once by the last `SegmentStore`
//! that wrote format-v2 segments and an `index.bin`: six appends at seal
//! threshold 4 — one sealed v2 segment, then a WAL tail of two `"AWL2"`
//! frames. The store reads format-v4 segments and `"AWL3"` frames only, so
//! both files take the path of any undecodable file: quarantined (renamed
//! aside), counted, and their rows recomputed on their next miss. A record
//! is a pure function of its spec, so an old store costs recompute time and
//! never a wrong result.

use atscale_results::{value_fp, x_fp, AggState, HotRow, QueryFilter, SegmentStore};
use std::path::{Path, PathBuf};

/// The fixture's keys: every one was live in the writing store.
const FIXTURE_KEYS: [&str; 5] = [
    "00000000000000a1",
    "00000000000000b2",
    "00000000000000c3",
    "00000000000000d4",
    "00000000000000e5",
];

fn hot(mb: u64, page_size: &str, wcpi: f64) -> HotRow {
    HotRow {
        workload: "cc-urand".to_string(),
        footprint_mb: mb,
        page_size: page_size.to_string(),
        arch: "baseline".to_string(),
        wcpi_fp: value_fp(wcpi),
        x_fp: x_fp((mb as f64 * 1024.0).log10()),
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

#[test]
fn a_v2_store_is_quarantined_and_recomputed() {
    let dir = fixture_copy("quarantine");
    let store = SegmentStore::open(&dir).unwrap();
    let stats = store.seg_stats();
    assert_eq!(stats.live_rows, 0, "{stats}");
    assert_eq!(
        stats.quarantined, 2,
        "the v2 segment and the v2 WAL: {stats}"
    );
    assert_eq!((stats.segments, stats.wal_rows), (0, 0), "{stats}");
    assert!(dir.join("seg-000000.seg.corrupt").exists());
    assert!(dir.join("wal.corrupt").exists());
    for key in FIXTURE_KEYS {
        assert!(store.load(key).is_none(), "{key} is a miss");
    }
    assert_eq!(store.query(&QueryFilter::default()).count, 0);

    // The recompute path: fresh rows land in the same directory, seal
    // beside the quarantined files, and answer queries.
    let rows = [
        ("00000000000000a1", hot(16, "4K", 0.25)),
        ("00000000000000b2", hot(64, "4K", 0.5)),
        ("00000000000000f6", hot(64, "2M", 0.0625)),
    ];
    for (key, hot) in &rows {
        store.append(key, hot.clone(), key.as_bytes()).unwrap();
    }
    store.seal().unwrap();
    store
        .append("00000000000000e5", hot(256, "4K", 1.5), b"e5")
        .unwrap();
    drop(store);

    let store = SegmentStore::open(&dir).unwrap();
    let stats = store.seg_stats();
    assert_eq!(stats.quarantined, 0, "a clean reopen: {stats}");
    assert_eq!((stats.segments, stats.wal_rows, stats.live_rows), (1, 1, 4));
    for (key, _) in &rows {
        assert_eq!(store.load(key).unwrap(), key.as_bytes(), "{key}");
    }
    assert_eq!(store.load("00000000000000e5").unwrap(), b"e5");
    let mut expect = AggState::new();
    for (_, hot) in &rows {
        expect.add(hot);
    }
    expect.add(&hot(256, "4K", 1.5));
    assert_eq!(store.aggregate(), expect);
    let four_k = QueryFilter {
        page_size: Some("4K".to_string()),
        ..QueryFilter::default()
    };
    let answer = store.query(&four_k);
    assert_eq!(answer, expect.query(&four_k));
    assert_eq!((answer.count, answer.groups.len()), (3, 3));
    assert!(answer.beta.is_some(), "three 4K footprints fit");
    let _ = std::fs::remove_dir_all(&dir);
}
