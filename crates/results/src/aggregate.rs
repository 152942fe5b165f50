//! The hot-column row schema, the one function that answers a `Query`
//! from rows, and the wire-facing query types the serving protocol
//! re-exports.
//!
//! [`query`] groups the matching rows per `(workload, footprint MB, page
//! size, arch)` — the paper's fig1 axes plus the translation-architecture
//! scenario axis — and fits `(log10 footprint_KB, WCPI)` over all of them
//! with a [`Regress`] accumulator, which *is* the fig1 β/c fit over those
//! runs (per page size and per architecture, when the filter pins them).
//! Counts, means and the fit come from integer fixed-point sums and the
//! quantiles from sorted fixed-point values, so the answer depends only
//! on the multiset of rows, never on the order they are visited in.

use crate::codec::{Dec, DecResult, Enc};
use crate::regress::Regress;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Fixed-point scale for WCPI values: 1 unit = 1e-9.
pub const VALUE_SCALE: f64 = 1e9;

/// Quantizes a WCPI value to fixed point.
pub fn value_fp(v: f64) -> i64 {
    let scaled = v * VALUE_SCALE;
    debug_assert!(scaled.abs() < 9.0e18, "value {v} overflows fixed point");
    scaled.round() as i64
}

/// The hot columns of one `RunRecord`: exactly what a [`QueryFilter`]
/// selects and [`query`] groups and fits on, without touching the raw
/// JSON sidecar.
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
    /// WCPI at [`VALUE_SCALE`] fixed point.
    pub wcpi_fp: i64,
    /// `log10(measured footprint KB)` at [`crate::regress::X_SCALE`]
    /// fixed point — Table IV's regressor.
    pub x_fp: i64,
}

impl HotRow {
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

/// Answers `filter` over `rows`: totals over the matching rows, their β/c
/// fit, and one summary per group, in `(workload, footprint, page_size,
/// arch)` order. See the module docs for why the answer is independent of
/// the order of `rows`.
pub fn query<'a>(rows: impl IntoIterator<Item = &'a HotRow>, filter: &QueryFilter) -> QueryResult {
    let mut regress = Regress::new();
    let mut groups: BTreeMap<(&str, u64, &str, &str), Vec<i64>> = BTreeMap::new();
    for row in rows.into_iter().filter(|row| filter.matches(row)) {
        regress.add(row.x_fp, row.wcpi_fp);
        let key = (
            row.workload.as_str(),
            row.footprint_mb,
            row.page_size.as_str(),
            row.arch.as_str(),
        );
        groups.entry(key).or_default().push(row.wcpi_fp);
    }
    let mut all: Vec<i64> = groups.values().flatten().copied().collect();
    let total = WcpiStats::of(&mut all);
    let groups = groups
        .into_iter()
        .map(|((workload, footprint_mb, page_size, arch), mut wcpi)| {
            let stats = WcpiStats::of(&mut wcpi);
            GroupSummary {
                workload: workload.to_string(),
                footprint_mb,
                page_size: page_size.to_string(),
                arch: arch.to_string(),
                count: stats.count,
                mean_wcpi: stats.mean,
                p50_wcpi: stats.p50,
                p99_wcpi: stats.p99,
            }
        })
        .collect();
    let fit = regress.fit();
    QueryResult {
        count: total.count,
        mean_wcpi: total.mean,
        p50_wcpi: total.p50,
        p99_wcpi: total.p99,
        beta: fit.map(|f| f.beta),
        intercept: fit.map(|f| f.intercept),
        groups,
    }
}

/// Count, exact mean and nearest-rank p50/p99 of fixed-point WCPI values.
struct WcpiStats {
    count: u64,
    mean: f64,
    p50: f64,
    p99: f64,
}

impl WcpiStats {
    /// Sorts `values` and summarizes them; all zeros when empty.
    fn of(values: &mut [i64]) -> WcpiStats {
        values.sort_unstable();
        let sum: i128 = values.iter().map(|&v| i128::from(v)).sum();
        let count = values.len() as u64;
        WcpiStats {
            count,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / VALUE_SCALE / count as f64
            },
            p50: nearest_rank(values, 0.5),
            p99: nearest_rank(values, 0.99),
        }
    }
}

/// The `q`-quantile of `sorted` by nearest rank: the value at rank
/// `ceil(q·n)`, clamped to `[1, n]`. A value ≤ 0 (an idle run's WCPI) and
/// an empty slice report `0.0`.
fn nearest_rank(sorted: &[i64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted
        .get(rank - 1)
        .map_or(0.0, |&fp| fp.max(0) as f64 / VALUE_SCALE)
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
    /// Whether `row` passes the filter.
    pub fn matches(&self, row: &HotRow) -> bool {
        self.workload.as_ref().is_none_or(|w| *w == row.workload)
            && self.page_size.as_ref().is_none_or(|p| *p == row.page_size)
            && self.arch.as_ref().is_none_or(|a| *a == row.arch)
            && self.min_footprint_mb.is_none_or(|m| row.footprint_mb >= m)
            && self.max_footprint_mb.is_none_or(|m| row.footprint_mb <= m)
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
    /// Median WCPI (nearest rank, exact).
    pub p50_wcpi: f64,
    /// 99th-percentile WCPI (nearest rank, exact).
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
    /// Median WCPI (nearest rank, exact).
    pub p50_wcpi: f64,
    /// 99th-percentile WCPI (nearest rank, exact).
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

    fn all(rows: &[HotRow]) -> QueryResult {
        query(rows, &QueryFilter::default())
    }

    #[test]
    fn add_groups_by_workload_footprint_page_size() {
        let mut huge = row("cc-urand", 16, 0.01);
        huge.page_size = "2M".to_string();
        let rows = [
            row("cc-urand", 16, 0.1),
            row("cc-urand", 16, 0.2),
            row("cc-urand", 64, 0.4),
            row("bfs-urand", 16, 0.3),
            huge,
        ];
        let answer = all(&rows);
        assert_eq!(answer.count, 5);
        assert_eq!(
            answer.groups.len(),
            4,
            "same axes, distinct page size: distinct groups"
        );
        let cc16 = query(
            &rows,
            &QueryFilter {
                workload: Some("cc-urand".to_string()),
                page_size: Some("4K".to_string()),
                max_footprint_mb: Some(16),
                ..QueryFilter::default()
            },
        );
        assert_eq!(cc16.count, 2);
        assert!((cc16.mean_wcpi - 0.15).abs() < 1e-9);
        assert_eq!(cc16.beta, None, "one footprint: no slope");
    }

    #[test]
    fn range_query_fits_across_footprints() {
        let rows: Vec<HotRow> = [(16u64, 0.1), (32, 0.2), (64, 0.4), (128, 0.7)]
            .into_iter()
            .map(|(mb, wcpi)| row("cc-urand", mb, wcpi))
            .collect();
        let q = query(
            &rows,
            &QueryFilter {
                workload: Some("cc-urand".to_string()),
                ..QueryFilter::default()
            },
        );
        let beta = q.beta.expect("four footprints fit");
        assert!(beta > 0.0, "WCPI grows with footprint: {beta}");
        assert_eq!(q.groups.len(), 4);
    }

    #[test]
    fn nearest_rank_of_a_single_row_is_that_row() {
        let answer = all(&[row("cc-urand", 16, 0.75)]);
        assert_eq!((answer.p50_wcpi, answer.p99_wcpi), (0.75, 0.75));
        assert_eq!(answer.groups[0].p50_wcpi, 0.75);
        let empty = all(&[]);
        assert_eq!((empty.count, empty.p50_wcpi, empty.p99_wcpi), (0, 0.0, 0.0));
        assert_eq!(empty.mean_wcpi, 0.0);
        assert!(empty.groups.is_empty());
    }

    #[test]
    fn nearest_rank_takes_tied_values_and_the_ceiling_rank() {
        // n = 4: p50 is rank ceil(2.0) = 2, p99 is rank ceil(3.96) = 4.
        let rows = [
            row("cc-urand", 16, 0.5),
            row("cc-urand", 16, 0.25),
            row("cc-urand", 16, 0.25),
            row("cc-urand", 16, 2.0),
        ];
        let answer = all(&rows);
        assert_eq!((answer.p50_wcpi, answer.p99_wcpi), (0.25, 2.0));
        // n = 5: p50 is rank ceil(2.5) = 3, the third of the sorted values.
        let mut five = rows.to_vec();
        five.push(row("cc-urand", 16, 0.5));
        assert_eq!(all(&five).p50_wcpi, 0.5);
    }

    #[test]
    fn zero_wcpi_rows_rank_first_and_report_zero() {
        let mut negative = row("cc-urand", 16, 0.0);
        negative.wcpi_fp = -3;
        let rows = [
            row("cc-urand", 16, 0.0),
            negative,
            row("cc-urand", 16, 0.0),
            row("cc-urand", 16, 1.5),
        ];
        let answer = all(&rows);
        assert_eq!(answer.p50_wcpi, 0.0, "rank 2 of four is a zero row");
        assert_eq!(answer.p99_wcpi, 1.5);
        let zeros = all(&rows[..3]);
        assert_eq!((zeros.p50_wcpi, zeros.p99_wcpi), (0.0, 0.0));
    }

    #[test]
    fn the_answer_does_not_depend_on_row_order() {
        let mut rows: Vec<HotRow> = (0..24u32)
            .map(|i| {
                let mut r = row(
                    ["cc-urand", "bfs-urand"][i as usize % 2],
                    16 << (i % 3),
                    0.1 * f64::from(i * 7 % 11),
                );
                r.arch = ["baseline", "victima"][i as usize / 12].to_string();
                r
            })
            .collect();
        let forward = all(&rows);
        rows.reverse();
        rows.swap(3, 17);
        assert_eq!(all(&rows), forward);
        assert_eq!(forward.count, 24);
        assert_eq!(forward.groups.len(), 12);
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
        let rows = [
            row("cc-urand", 16, 0.4),
            arch_row("cc-urand", 16, 0.1, "victima"),
            arch_row("cc-urand", 16, 3.0, "no-tlb"),
        ];
        let everything = all(&rows);
        assert_eq!(
            everything.groups.len(),
            3,
            "same axes, distinct arch: distinct groups"
        );
        assert_eq!(
            everything.count, 3,
            "no arch filter matches every architecture"
        );
        let victima = query(
            &rows,
            &QueryFilter {
                arch: Some("victima".to_string()),
                ..QueryFilter::default()
            },
        );
        assert_eq!(victima.count, 1);
        assert!((victima.mean_wcpi - 0.1).abs() < 1e-6);
        assert_eq!(victima.groups[0].arch, "victima");
    }

    #[test]
    fn arch_filtered_range_query_fits_per_architecture() {
        let mut rows = Vec::new();
        for (mb, base, vict) in [(16u64, 0.2, 0.1), (64, 0.5, 0.2), (256, 1.1, 0.35)] {
            rows.push(row("cc-urand", mb, base));
            rows.push(arch_row("cc-urand", mb, vict, "victima"));
        }
        let fit = |arch: &str| {
            query(
                &rows,
                &QueryFilter {
                    arch: Some(arch.to_string()),
                    ..QueryFilter::default()
                },
            )
            .beta
            .expect("three footprints fit")
        };
        assert!(
            fit("victima") < fit("baseline"),
            "victima's extended reach must flatten the slope"
        );
    }
}
