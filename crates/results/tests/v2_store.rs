//! Stores written by older `SegmentStore`s: a file in an older on-disk
//! format opens as a miss, and a file in the current format opens live.
//!
//! Both fixtures hold six appends of the keys in [`FIXTURE_KEYS`] at seal
//! threshold 4 — one sealed segment, then a WAL tail of two frames:
//!
//! * `tests/fixtures/v2_store` was written by the last store that wrote
//!   format-v2 segments and an `index.bin`; its WAL frames are `"AWL2"`.
//! * `tests/fixtures/v4_store` was written by commit `936ae90`, the last
//!   store that wrote column-major format-v4 segments; its WAL frames are
//!   `"AWL3"`, the frames this store still writes: `e5`, then a re-append
//!   of `b2`, whose first row is in the segment.
//!
//! `tests/fixtures/v5_store` was written by commit `96a636c`, in the
//! format this store reads and writes: see [`a_v5_store_opens_clean`].
//!
//! The store reads format-v5 segments and `"AWL3"` frames only, so any
//! other file takes the path of any undecodable file: quarantined (renamed
//! aside), counted, and its rows recomputed on their next miss. A record
//! is a pure function of its spec, so an old store costs recompute time and
//! never a wrong result.

use atscale_results::{query, value_fp, x_fp, HotRow, QueryFilter, SegmentStore};
use std::path::{Path, PathBuf};

/// The fixtures' keys: every one was live in the writing store.
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

/// Copies `tests/fixtures/{fixture}` into a fresh scratch directory.
fn fixture_copy(fixture: &str) -> PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let dir = std::env::temp_dir().join(format!("atscale-{fixture}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(&src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    dir
}

/// A row: key, hot columns, raw record bytes.
type Row = (&'static str, HotRow, Vec<u8>);

/// Opens a copy of `fixture`: exactly the files in `quarantined` are set
/// aside, the rows in `kept` stay live and load bit for bit, and every
/// other fixture key is a miss. Then the recompute path: the missed keys
/// land again and seal beside the quarantined files as a v5 segment, one
/// new row stays in the WAL, and a reopen is clean and answers queries
/// over exactly those rows.
fn quarantines_and_recomputes(fixture: &str, quarantined: &[&str], kept: &[Row]) {
    let dir = fixture_copy(fixture);
    let store = SegmentStore::open(&dir).unwrap();
    let stats = store.seg_stats();
    assert_eq!(stats.quarantined, quarantined.len() as u64, "{stats}");
    for file in quarantined {
        assert!(dir.join(file).exists(), "{file}");
    }
    let n = kept.len() as u64;
    assert_eq!(
        (
            stats.segments,
            stats.wal_rows,
            stats.live_rows,
            stats.dead_rows
        ),
        (0, n, n, 0),
        "{stats}"
    );
    let missed: Vec<Row> = FIXTURE_KEYS
        .iter()
        .zip(0u32..)
        .filter(|(key, _)| kept.iter().all(|(k, _, _)| k != *key))
        .map(|(&key, i)| {
            let wcpi = 0.25 * f64::from(i + 1);
            (key, hot(16 << (2 * i), "4K", wcpi), key.as_bytes().to_vec())
        })
        .collect();
    for (key, _, raw) in kept {
        assert_eq!(store.load(key).as_ref(), Some(raw), "{key} stays live");
    }
    for (key, _, _) in &missed {
        assert!(store.load(key).is_none(), "{key} is a miss");
    }
    let all = QueryFilter::default();
    assert_eq!(store.query(&all), query(kept.iter().map(|r| &r.1), &all));

    for (key, hot, raw) in &missed {
        store.append(key, hot.clone(), raw).unwrap();
    }
    store.seal().unwrap();
    let f6: Row = ("00000000000000f6", hot(64, "2M", 0.0625), b"f6".to_vec());
    store.append(f6.0, f6.1.clone(), &f6.2).unwrap();
    drop(store);
    let image = std::fs::read(dir.join("seg-000000.seg")).unwrap();
    assert_eq!(image[4..8], 5u32.to_le_bytes(), "sealed as format v5");

    let store = SegmentStore::open(&dir).unwrap();
    let stats = store.seg_stats();
    assert_eq!(stats.quarantined, 0, "a clean reopen: {stats}");
    assert_eq!((stats.segments, stats.wal_rows, stats.live_rows), (1, 1, 6));
    let live: Vec<&Row> = kept.iter().chain(&missed).chain([&f6]).collect();
    for (key, _, raw) in &live {
        assert_eq!(store.load(key).as_ref(), Some(raw), "{key}");
    }
    let four_k = QueryFilter {
        page_size: Some("4K".to_string()),
        ..QueryFilter::default()
    };
    for filter in [&all, &four_k] {
        assert_eq!(
            store.query(filter),
            query(live.iter().map(|r| &r.1), filter)
        );
    }
    assert_eq!(store.query(&four_k).count, 5);
    assert!(store.query(&four_k).beta.is_some(), "the 4K footprints fit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_v2_store_is_quarantined_and_recomputed() {
    quarantines_and_recomputes("v2_store", &["seg-000000.seg.corrupt", "wal.corrupt"], &[]);
}

#[test]
fn a_v4_segment_is_quarantined_and_its_wal_rows_stay_live() {
    // The raw bytes the fixture's writer appended as its `i`-th row.
    let raw = |key: &str, i: u32| {
        format!(r#"{{"fixture":"v4_store","key":"{key}","append":{i}}}"#).into_bytes()
    };
    let kept = [
        (
            "00000000000000e5",
            hot(1024, "4K", 2.0),
            raw("00000000000000e5", 4),
        ),
        (
            "00000000000000b2",
            hot(64, "4K", 0.75),
            raw("00000000000000b2", 5),
        ),
    ];
    quarantines_and_recomputes("v4_store", &["seg-000000.seg.corrupt"], &kept);
}

/// `tests/fixtures/v5_store` holds 18 appends at seal threshold 16: keys
/// `1..=16` (as 16-digit hex) sealed into one segment, then a WAL tail of
/// two `"AWL3"` frames, key `17` and a re-append of key `2`. Append `i`
/// stored these raw bytes, with hot columns `cc-urand` (even `i`) or
/// `bfs-urand`, `16 << (i % 4)` MiB, `2M` pages when `i % 3 == 2` else
/// `4K`, `baseline`, and WCPI `0.125 · (i + 1)`.
fn v5_raw(key: &str, i: u32) -> Vec<u8> {
    format!(r#"{{"fixture":"v5_store","key":"{key}","append":{i}}}"#).into_bytes()
}

/// A wrong CRC does not fail loudly — the store quarantines the file and
/// recomputes its rows — so this pins that every frame a current-format
/// store wrote, the segment's multi-kilobyte block included, still passes
/// its CRC: nothing is quarantined, and every row and answer is as written.
#[test]
fn a_v5_store_opens_clean() {
    let dir = fixture_copy("v5_store");
    let store = SegmentStore::open(&dir).unwrap();
    let stats = store.seg_stats();
    assert_eq!(stats.quarantined, 0, "{stats}");
    assert_eq!(
        (
            stats.segments,
            stats.segment_rows,
            stats.wal_rows,
            stats.live_rows,
            stats.dead_rows
        ),
        (1, 16, 2, 17, 1),
        "{stats}"
    );
    for k in 1..=17u32 {
        let key = format!("{k:016x}");
        let append = if k == 2 { 17 } else { k - 1 };
        assert_eq!(store.load(&key), Some(v5_raw(&key, append)), "{key}");
    }

    let all = store.query(&QueryFilter::default());
    assert_eq!(
        (all.count, all.mean_wcpi, all.p50_wcpi, all.p99_wcpi),
        (17, 1.242_647_058_823_529_4, 1.25, 2.25)
    );
    assert_eq!(all.beta, Some(0.026_504_745_056_158_255));
    assert_eq!(all.intercept, Some(1.119_680_851_063_829_9));
    assert_eq!(all.groups.len(), 8);
    let four_k = store.query(&QueryFilter {
        page_size: Some("4K".to_string()),
        ..QueryFilter::default()
    });
    assert_eq!(
        (four_k.count, four_k.beta, four_k.intercept),
        (
            11,
            Some(-0.013_689_263_930_103_715),
            Some(1.267_857_142_857_142_8)
        )
    );
    drop(store);

    // Opening read the files and rewrote neither.
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v5_store");
    for file in ["seg-000000.seg", "wal.log"] {
        let written = std::fs::read(fixture.join(file)).unwrap();
        assert_eq!(std::fs::read(dir.join(file)).unwrap(), written, "{file}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
