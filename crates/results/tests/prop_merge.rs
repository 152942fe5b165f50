//! Property coverage for the aggregation contract the segment store
//! leans on: the live aggregate a store holds — after appends, re-appends
//! that supersede rows in earlier segments, seals and a reopen — equals a
//! one-pass aggregate over the last write of each key. Exactly, for
//! everything except quantiles; within the documented relative error
//! bound for quantiles.

use atscale_results::{
    value_fp, x_fp, AggState, HotRow, QueryFilter, SegmentStore, QUANTILE_RELATIVE_ERROR,
    VALUE_SCALE,
};
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

fn aggregate<'a>(rows: impl IntoIterator<Item = &'a HotRow>) -> AggState {
    let mut state = AggState::new();
    for row in rows {
        state.add(row);
    }
    state
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

proptest! {
    /// Appends with re-appended keys, sealed at a drawn threshold so a
    /// key's superseded row often sits in an earlier segment, then a
    /// reopen: the store's aggregate and query answers equal a one-pass
    /// aggregate over each key's last write, and every key loads its last
    /// write's bytes.
    #[test]
    fn reopen_equals_one_pass_over_the_last_write_of_each_key(
        appends in prop::collection::vec((0..KEYS, row_draw()), 0..60),
        seal_threshold in 1usize..8,
    ) {
        let dir = scratch_dir();
        let mut last: BTreeMap<String, (HotRow, Vec<u8>)> = BTreeMap::new();
        {
            let store = SegmentStore::open(&dir).expect("open store");
            store.set_seal_threshold(seal_threshold);
            for (i, (key, draw)) in appends.iter().enumerate() {
                let key = format!("key-{key:02}");
                let hot = hot_row(draw);
                let raw = format!("{{\"append\":{i}}}").into_bytes();
                store.append(&key, hot.clone(), &raw).expect("append");
                last.insert(key, (hot, raw));
            }
        }
        let store = SegmentStore::open(&dir).expect("reopen");
        let expect = aggregate(last.values().map(|(hot, _)| hot));
        prop_assert_eq!(store.seg_stats().quarantined, 0);
        prop_assert_eq!(store.live_len(), last.len() as u64);
        prop_assert_eq!(&store.aggregate(), &expect);
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
            prop_assert_eq!(store.query(&filter), expect.query(&filter));
        }
        for (key, (_, raw)) in &last {
            prop_assert_eq!(&store.load(key).expect("live key loads"), raw);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Retraction is an exact inverse regardless of interleaving:
    /// add everything, retract a subset, equals aggregating the rest.
    #[test]
    fn remove_equals_never_added(
        draws in row_strategy(),
        mask in 0u64..u64::MAX,
    ) {
        let rows = materialize(&draws);
        let mut state = aggregate(&rows);
        let mut kept: Vec<HotRow> = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            if mask >> (i % 64) & 1 == 1 {
                state.remove(row);
            } else {
                kept.push(row.clone());
            }
        }
        prop_assert_eq!(state, aggregate(&kept));
    }

    /// Sketch quantiles stay within the documented relative error of the
    /// true order statistic of the ingested values.
    #[test]
    fn quantiles_are_within_documented_error(
        draws in row_strategy(),
    ) {
        prop_assume!(!draws.is_empty());
        let rows = materialize(&draws);
        let got = aggregate(&rows).query(&QueryFilter::default());
        let mut values: Vec<f64> = rows.iter().map(|r| r.wcpi_fp as f64 / VALUE_SCALE).collect();
        values.sort_by(f64::total_cmp);
        // Same rank convention as Sketch::quantile: ceil(q·n) clamped.
        let rank = |p: f64| -> f64 {
            let idx = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len()) - 1;
            values[idx]
        };
        for (p, answer) in [(0.5, got.p50_wcpi), (0.99, got.p99_wcpi)] {
            let truth = rank(p);
            let err = (answer - truth).abs() / truth;
            prop_assert!(
                err <= QUANTILE_RELATIVE_ERROR + 1e-12,
                "q{}: got {}, truth {}, rel err {}", p, answer, truth, err
            );
        }
    }
}
