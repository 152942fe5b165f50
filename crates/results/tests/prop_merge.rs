//! Property coverage for the query contract the segment store leans on:
//! what a store answers — after appends, re-appends that supersede rows in
//! earlier segments, seals and a reopen — equals [`query`] over the last
//! write of each key, exactly, and its quantiles are the exact
//! nearest-rank order statistics of the rows' fixed-point WCPI.

use atscale_results::{query, value_fp, x_fp, HotRow, QueryFilter, SegmentStore, VALUE_SCALE};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

const WORKLOADS: [&str; 3] = ["cc-urand", "bfs-urand", "tc-kron"];
const FOOTPRINTS: [u64; 4] = [16, 64, 256, 1024];
/// Distinct keys the appends draw from: few enough that most draws
/// re-append a key sealed in an earlier segment.
const KEYS: usize = 12;

/// The raw draw for one row: workload pick, footprint pick, seed, WCPI
/// (from well under a zero-adjacent value up to pathological walk-bound
/// ones).
type RowDraw = (usize, usize, u64, f64);

fn row_draw() -> impl Strategy<Value = RowDraw> {
    (
        0..WORKLOADS.len(),
        0..FOOTPRINTS.len(),
        0u64..1 << 16,
        1e-6f64..50.0,
    )
}

fn row_strategy() -> impl Strategy<Value = Vec<RowDraw>> {
    prop::collection::vec(row_draw(), 0..120)
}

fn hot_row(&(w, f, seed, wcpi): &RowDraw) -> HotRow {
    let mb = FOOTPRINTS[f];
    HotRow {
        workload: WORKLOADS[w].to_string(),
        footprint_mb: mb,
        page_size: ["4K", "2M", "1G"][(seed / 3 % 3) as usize].to_string(),
        arch: if seed % 3 == 0 { "no-tlb" } else { "baseline" }.to_string(),
        wcpi_fp: value_fp(wcpi),
        x_fp: x_fp((mb as f64 * 1024.0).log10()),
    }
}

fn materialize(draws: &[RowDraw]) -> Vec<HotRow> {
    draws.iter().map(hot_row).collect()
}

/// A unique scratch directory per case.
fn scratch_dir() -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "atscale-prop-merge-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every row the store holds is live or dead, and sealed or in the WAL.
fn rows_balance(store: &SegmentStore) -> Result<(), TestCaseError> {
    let stats = store.seg_stats();
    prop_assert_eq!(
        stats.live_rows + stats.dead_rows,
        stats.segment_rows + stats.wal_rows,
        "{}",
        stats
    );
    Ok(())
}

proptest! {
    /// Appends with re-appended keys, sealed at a drawn threshold so a
    /// key's superseded row often sits in an earlier segment, with an
    /// explicit seal or compaction drawn after some appends, then a
    /// reopen: the store's query answers equal [`query`] over each key's
    /// last write, and every key loads its last write's bytes. After every
    /// step each row the store holds is either live or dead.
    #[test]
    fn reopen_equals_one_pass_over_the_last_write_of_each_key(
        appends in prop::collection::vec((0..KEYS, row_draw(), 0u8..8), 0..60),
        seal_threshold in 1usize..8,
    ) {
        let dir = scratch_dir();
        let mut last: BTreeMap<String, (HotRow, Vec<u8>)> = BTreeMap::new();
        {
            let store = SegmentStore::open(&dir).expect("open store");
            store.set_seal_threshold(seal_threshold);
            for (i, (key, draw, then)) in appends.iter().enumerate() {
                let key = format!("key-{key:02}");
                let hot = hot_row(draw);
                let raw = format!("{{\"append\":{i}}}").into_bytes();
                store.append(&key, hot.clone(), &raw).expect("append");
                last.insert(key, (hot, raw));
                rows_balance(&store)?;
                match then {
                    0 => store.seal().expect("seal"),
                    1 => {
                        store.compact().expect("compact");
                    }
                    _ => continue,
                }
                rows_balance(&store)?;
            }
        }
        let store = SegmentStore::open(&dir).expect("reopen");
        prop_assert_eq!(store.seg_stats().quarantined, 0);
        rows_balance(&store)?;
        prop_assert_eq!(store.live_len(), last.len() as u64);
        for filter in [
            QueryFilter::default(),
            QueryFilter {
                arch: Some("no-tlb".to_string()),
                ..QueryFilter::default()
            },
            QueryFilter {
                page_size: Some("4K".to_string()),
                ..QueryFilter::default()
            },
        ] {
            let expect = query(last.values().map(|(hot, _)| hot), &filter);
            prop_assert_eq!(store.query(&filter), expect);
        }
        for (key, (_, raw)) in &last {
            prop_assert_eq!(&store.load(key).expect("live key loads"), raw);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// p50/p99 are the exact nearest-rank order statistics (rank
    /// `ceil(q·n)` clamped to `[1, n]`) of the rows' fixed-point WCPI, over
    /// all rows and within each group.
    #[test]
    fn quantiles_are_exact_nearest_rank(
        draws in row_strategy(),
    ) {
        let rows = materialize(&draws);
        let rank = |values: &mut Vec<i64>, p: f64| -> f64 {
            values.sort_unstable();
            let idx = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len().max(1)) - 1;
            values.get(idx).map_or(0.0, |&fp| fp as f64 / VALUE_SCALE)
        };
        let got = query(&rows, &QueryFilter::default());
        let mut all: Vec<i64> = rows.iter().map(|r| r.wcpi_fp).collect();
        prop_assert_eq!(got.p50_wcpi, rank(&mut all, 0.5));
        prop_assert_eq!(got.p99_wcpi, rank(&mut all, 0.99));
        for group in &got.groups {
            let mut values: Vec<i64> = rows
                .iter()
                .filter(|r| {
                    (r.workload.as_str(), r.footprint_mb, r.page_size.as_str(), r.arch.as_str())
                        == (group.workload.as_str(), group.footprint_mb, group.page_size.as_str(), group.arch.as_str())
                })
                .map(|r| r.wcpi_fp)
                .collect();
            prop_assert_eq!(group.count, values.len() as u64);
            prop_assert_eq!(group.p50_wcpi, rank(&mut values, 0.5));
            prop_assert_eq!(group.p99_wcpi, rank(&mut values, 0.99));
        }
    }
}
