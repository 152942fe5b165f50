//! The hot-column row schema and the per-group aggregate state, plus the
//! wire-facing query types the serving protocol re-exports.
//!
//! Grouping is per `(workload, footprint MB, page size, arch)` — the
//! paper's fig1 axes plus the translation-architecture scenario axis. Each
//! group carries a WCPI [`Sketch`] and a [`Regress`] accumulator over
//! `(log10 footprint_KB, WCPI)`; a footprint-range query merges the
//! matching groups' regression states, which *is* the fig1 β/c fit over
//! those runs — per page size and per architecture, when the filter pins
//! them. All per-group state is integral, so adding and retracting rows is
//! exact and the query's merge is exactly associative.
//!
//! The state lives in memory only: the segment store rebuilds it from
//! the rows' hot columns at open.

use crate::codec::{Dec, DecResult, Enc};
use crate::regress::Regress;
use crate::sketch::Sketch;
use serde::{Deserialize, Serialize};

/// The hot columns of one `RunRecord`: exactly what a [`QueryFilter`]
/// groups and fits on, without touching the raw JSON sidecar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotRow {
    /// Workload id string, e.g. `cc-urand`.
    pub workload: String,
    /// Nominal footprint in MiB (the sweep axis).
    pub footprint_mb: u64,
    /// Page size label (`4K` / `2M` / `1G`).
    pub page_size: String,
    /// Translation architecture label (`baseline` / `victima` /
    /// `dram-cache` / `no-tlb`).
    pub arch: String,
    /// WCPI at [`crate::sketch::VALUE_SCALE`] fixed point.
    pub wcpi_fp: i64,
    /// `log10(measured footprint KB)` at [`crate::regress::X_SCALE`]
    /// fixed point — Table IV's regressor.
    pub x_fp: i64,
}

impl HotRow {
    /// The group this row aggregates under.
    pub fn group_key(&self) -> GroupKey {
        GroupKey {
            workload: self.workload.clone(),
            footprint_mb: self.footprint_mb,
            page_size: self.page_size.clone(),
            arch: self.arch.clone(),
        }
    }

    pub(crate) fn encode(&self, enc: &mut Enc) {
        enc.str(&self.workload);
        enc.u64(self.footprint_mb);
        enc.str(&self.page_size);
        enc.str(&self.arch);
        enc.i64(self.wcpi_fp);
        enc.i64(self.x_fp);
    }

    pub(crate) fn decode(dec: &mut Dec<'_>) -> DecResult<HotRow> {
        Ok(HotRow {
            workload: dec.str()?,
            footprint_mb: dec.u64()?,
            page_size: dec.str()?,
            arch: dec.str()?,
            wcpi_fp: dec.i64()?,
            x_fp: dec.i64()?,
        })
    }
}

/// Aggregation group identity: the fig1 axes plus the architecture axis.
/// Derived `Ord` compares fields in declaration order, and that order is
/// the order of [`QueryResult::groups`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct GroupKey {
    /// Workload id string.
    pub workload: String,
    /// Nominal footprint in MiB.
    pub footprint_mb: u64,
    /// Page size label.
    pub page_size: String,
    /// Translation architecture label.
    pub arch: String,
}

/// Per-group aggregate: WCPI sketch and β/c regression state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupAgg {
    /// WCPI distribution.
    pub sketch: Sketch,
    /// `(log10 footprint_KB, WCPI)` OLS state.
    pub regress: Regress,
}

impl GroupAgg {
    fn add(&mut self, row: &HotRow) {
        self.sketch.add_fp(row.wcpi_fp);
        self.regress.add(row.x_fp, row.wcpi_fp);
    }

    fn remove(&mut self, row: &HotRow) {
        self.sketch.remove_fp(row.wcpi_fp);
        self.regress.remove(row.x_fp, row.wcpi_fp);
    }

    fn is_empty(&self) -> bool {
        self.sketch.is_empty() && self.regress.count() == 0
    }
}

/// The full aggregate state: groups kept sorted by key (the canonical
/// form `PartialEq` compares), empty groups dropped on removal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AggState {
    groups: Vec<(GroupKey, GroupAgg)>,
}

impl AggState {
    /// An empty state.
    pub fn new() -> AggState {
        AggState::default()
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// `true` when no rows have been observed.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    fn slot(&mut self, key: GroupKey) -> &mut GroupAgg {
        match self.groups.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => &mut self.groups[i].1,
            Err(i) => {
                self.groups.insert(i, (key, GroupAgg::default()));
                &mut self.groups[i].1
            }
        }
    }

    /// Folds one row in.
    pub fn add(&mut self, row: &HotRow) {
        self.slot(row.group_key()).add(row);
    }

    /// Retracts one previously-added row, exactly; the group disappears
    /// when its last row is retracted (restoring canonical form).
    pub fn remove(&mut self, row: &HotRow) {
        let key = row.group_key();
        if let Ok(i) = self.groups.binary_search_by(|(k, _)| k.cmp(&key)) {
            self.groups[i].1.remove(row);
            if self.groups[i].1.is_empty() {
                self.groups.remove(i);
            }
        }
    }

    /// Answers a filter in `O(matching groups)`: merges the matching
    /// groups' sketches and regression states and summarizes.
    pub fn query(&self, filter: &QueryFilter) -> QueryResult {
        let mut sketch = Sketch::new();
        let mut regress = Regress::new();
        let mut groups = Vec::new();
        for (key, agg) in &self.groups {
            if !filter.matches(key) {
                continue;
            }
            sketch.merge(&agg.sketch);
            regress.merge(&agg.regress);
            groups.push(GroupSummary {
                workload: key.workload.clone(),
                footprint_mb: key.footprint_mb,
                page_size: key.page_size.clone(),
                arch: key.arch.clone(),
                count: agg.sketch.count(),
                mean_wcpi: agg.sketch.mean(),
                p50_wcpi: agg.sketch.quantile(0.5),
                p99_wcpi: agg.sketch.quantile(0.99),
            });
        }
        let fit = regress.fit();
        QueryResult {
            count: sketch.count(),
            mean_wcpi: sketch.mean(),
            p50_wcpi: sketch.quantile(0.5),
            p99_wcpi: sketch.quantile(0.99),
            beta: fit.map(|f| f.beta),
            intercept: fit.map(|f| f.intercept),
            groups,
        }
    }
}

/// A `Query` request's filter: every field is optional, `None` matches
/// everything (wire type, protocol v5; `arch` added in v7, `page_size`
/// in v9).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryFilter {
    /// Restrict to one workload id.
    pub workload: Option<String>,
    /// Restrict to one page size (`4K` / `2M` / `1G`) — the paper's
    /// scaling law is fitted over the 4K runs alone.
    pub page_size: Option<String>,
    /// Restrict to one translation architecture (`baseline` / `victima` /
    /// `dram-cache` / `no-tlb`).
    pub arch: Option<String>,
    /// Inclusive lower footprint bound, MiB.
    pub min_footprint_mb: Option<u64>,
    /// Inclusive upper footprint bound, MiB.
    pub max_footprint_mb: Option<u64>,
}

impl QueryFilter {
    /// Whether `key` passes the filter.
    pub fn matches(&self, key: &GroupKey) -> bool {
        self.workload.as_ref().is_none_or(|w| *w == key.workload)
            && self.page_size.as_ref().is_none_or(|p| *p == key.page_size)
            && self.arch.as_ref().is_none_or(|a| *a == key.arch)
            && self.min_footprint_mb.is_none_or(|m| key.footprint_mb >= m)
            && self.max_footprint_mb.is_none_or(|m| key.footprint_mb <= m)
    }
}

/// One group's summary inside a [`QueryResult`] (wire type).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupSummary {
    /// Workload id.
    pub workload: String,
    /// Nominal footprint, MiB.
    pub footprint_mb: u64,
    /// Page size label.
    pub page_size: String,
    /// Translation architecture label.
    pub arch: String,
    /// Runs in the group.
    pub count: u64,
    /// Exact mean WCPI.
    pub mean_wcpi: f64,
    /// Median WCPI (sketch-bounded, see [`crate::sketch`]).
    pub p50_wcpi: f64,
    /// 99th-percentile WCPI (sketch-bounded).
    pub p99_wcpi: f64,
}

/// The aggregate answer to a `Query` (wire type): totals over the
/// matching groups plus the per-group breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResult {
    /// Total matching runs.
    pub count: u64,
    /// Exact mean WCPI over matching runs.
    pub mean_wcpi: f64,
    /// Median WCPI (sketch-bounded).
    pub p50_wcpi: f64,
    /// 99th-percentile WCPI (sketch-bounded).
    pub p99_wcpi: f64,
    /// Fitted β of `WCPI = β·log10(M_KB) + c` over matching runs; `None`
    /// without at least two distinct footprints.
    pub beta: Option<f64>,
    /// Fitted intercept c; `None` exactly when `beta` is.
    pub intercept: Option<f64>,
    /// Per-group breakdown, sorted by `(workload, footprint, page_size, arch)`.
    pub groups: Vec<GroupSummary>,
}

/// Segment-store occupancy (wire type, the `StoreSegStats` reply).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegStats {
    /// Sealed segment files.
    pub segments: u64,
    /// Rows across sealed segments (live + superseded).
    pub segment_rows: u64,
    /// Rows in the active WAL.
    pub wal_rows: u64,
    /// Live (queryable) rows.
    pub live_rows: u64,
    /// Superseded rows awaiting compaction.
    pub dead_rows: u64,
    /// On-disk bytes across segments and the WAL.
    pub disk_bytes: u64,
    /// Corrupt files or torn WAL tails quarantined since open.
    pub quarantined: u64,
    /// `*.tmp` droppings of crashed writes removed at open; a healthy
    /// store reports none.
    pub tmp_files: u64,
}

impl std::fmt::Display for SegStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} segments ({} rows) + {} WAL rows | {} live, {} dead | {} bytes on disk | \
             {} quarantined, {} tmp droppings",
            self.segments,
            self.segment_rows,
            self.wal_rows,
            self.live_rows,
            self.dead_rows,
            self.disk_bytes,
            self.quarantined,
            self.tmp_files
        )
    }
}

/// What a `Compact` did (wire type).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompactStats {
    /// Sealed segments before compaction (WAL rows are folded in but the
    /// active WAL is not counted as a segment).
    pub segments_before: u64,
    /// Sealed segments after (0 or 1).
    pub segments_after: u64,
    /// Live rows carried into the compacted segment.
    pub live_rows: u64,
    /// Superseded rows dropped.
    pub dead_rows_dropped: u64,
    /// On-disk bytes before.
    pub bytes_before: u64,
    /// On-disk bytes after.
    pub bytes_after: u64,
}

impl std::fmt::Display for CompactStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} -> {} segments | {} live rows kept, {} dead dropped | {} -> {} bytes",
            self.segments_before,
            self.segments_after,
            self.live_rows,
            self.dead_rows_dropped,
            self.bytes_before,
            self.bytes_after
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regress::x_fp;
    use crate::sketch::value_fp;

    fn row(workload: &str, mb: u64, wcpi: f64) -> HotRow {
        HotRow {
            workload: workload.to_string(),
            footprint_mb: mb,
            page_size: "4K".to_string(),
            arch: "baseline".to_string(),
            wcpi_fp: value_fp(wcpi),
            x_fp: x_fp((mb as f64 * 1024.0).log10()),
        }
    }

    #[test]
    fn add_groups_by_workload_footprint_page_size() {
        let mut state = AggState::new();
        state.add(&row("cc-urand", 16, 0.1));
        state.add(&row("cc-urand", 16, 0.2));
        state.add(&row("cc-urand", 64, 0.4));
        state.add(&row("bfs-urand", 16, 0.3));
        let mut huge = row("cc-urand", 16, 0.01);
        huge.page_size = "2M".to_string();
        state.add(&huge);
        assert_eq!(
            state.len(),
            4,
            "same axes, distinct page size: distinct groups"
        );
        let all = state.query(&QueryFilter::default());
        assert_eq!(all.count, 5);
        let cc16 = state.query(&QueryFilter {
            workload: Some("cc-urand".to_string()),
            page_size: Some("4K".to_string()),
            max_footprint_mb: Some(16),
            ..QueryFilter::default()
        });
        assert_eq!(cc16.count, 2);
        assert!((cc16.mean_wcpi - 0.15).abs() < 1e-9);
        assert_eq!(cc16.beta, None, "one footprint: no slope");
    }

    #[test]
    fn range_query_fits_across_footprints() {
        let mut state = AggState::new();
        for (mb, wcpi) in [(16u64, 0.1), (32, 0.2), (64, 0.4), (128, 0.7)] {
            state.add(&row("cc-urand", mb, wcpi));
        }
        let q = state.query(&QueryFilter {
            workload: Some("cc-urand".to_string()),
            ..QueryFilter::default()
        });
        let beta = q.beta.expect("four footprints fit");
        assert!(beta > 0.0, "WCPI grows with footprint: {beta}");
        assert_eq!(q.groups.len(), 4);
    }

    #[test]
    fn remove_is_exact_inverse() {
        let mut state = AggState::new();
        state.add(&row("cc-urand", 16, 0.1));
        let before = state.clone();
        let extra = row("cc-urand", 16, 0.9);
        state.add(&extra);
        state.remove(&extra);
        assert_eq!(state, before);
        let lone = row("tc-kron", 512, 2.0);
        state.add(&lone);
        state.remove(&lone);
        assert_eq!(state, before, "emptied group disappears");
    }

    #[test]
    fn hot_row_codec_roundtrip() {
        let r = row("pr-urand", 256, 1.25);
        let mut enc = Enc::new();
        r.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        assert_eq!(HotRow::decode(&mut dec).unwrap(), r);
    }

    fn arch_row(workload: &str, mb: u64, wcpi: f64, arch: &str) -> HotRow {
        let mut r = row(workload, mb, wcpi);
        r.arch = arch.to_string();
        r
    }

    #[test]
    fn architectures_group_separately_and_filter() {
        let mut state = AggState::new();
        state.add(&row("cc-urand", 16, 0.4));
        state.add(&arch_row("cc-urand", 16, 0.1, "victima"));
        state.add(&arch_row("cc-urand", 16, 3.0, "no-tlb"));
        assert_eq!(state.len(), 3, "same axes, distinct arch: distinct groups");
        let victima = state.query(&QueryFilter {
            arch: Some("victima".to_string()),
            ..QueryFilter::default()
        });
        assert_eq!(victima.count, 1);
        assert!((victima.mean_wcpi - 0.1).abs() < 1e-6);
        assert_eq!(victima.groups[0].arch, "victima");
        let all = state.query(&QueryFilter::default());
        assert_eq!(all.count, 3, "no arch filter matches every architecture");
    }

    #[test]
    fn arch_filtered_range_query_fits_per_architecture() {
        let mut state = AggState::new();
        for (mb, base, vict) in [(16u64, 0.2, 0.1), (64, 0.5, 0.2), (256, 1.1, 0.35)] {
            state.add(&row("cc-urand", mb, base));
            state.add(&arch_row("cc-urand", mb, vict, "victima"));
        }
        let fit = |arch: &str| {
            state
                .query(&QueryFilter {
                    arch: Some(arch.to_string()),
                    ..QueryFilter::default()
                })
                .beta
                .expect("three footprints fit")
        };
        assert!(
            fit("victima") < fit("baseline"),
            "victima's extended reach must flatten the slope"
        );
    }
}
