//! The hot-column row schema and the mergeable per-group aggregate state,
//! plus the wire-facing query types the serving protocol re-exports.
//!
//! Grouping is per `(workload, footprint MB, source, arch)` — the paper's
//! fig1 axes plus the translation-architecture scenario axis. Each group
//! carries a WCPI [`Sketch`] and a [`Regress`] accumulator over
//! `(log10 footprint_KB, WCPI)`; a footprint-range query merges the
//! matching groups' regression states, which *is* the fig1 β/c fit over
//! those runs — per architecture, when the filter pins one. All per-group
//! state is integral, so group merge inherits the exact associativity of
//! its parts.
//!
//! Rows and aggregates encoded before the arch axis existed (WAL v1
//! frames, segment v1 files) decode with `arch = "baseline"`, which is
//! exactly what those records measured.

use crate::codec::{Corrupt, Dec, DecResult, Enc};
use crate::regress::Regress;
use crate::sketch::Sketch;
use serde::{Deserialize, Serialize};

/// The fixed hot-field schema extracted from one `RunRecord` — everything
/// a fig1/Table VI aggregate query needs without touching the raw JSON
/// sidecar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotRow {
    /// Workload id string, e.g. `cc-urand`.
    pub workload: String,
    /// Nominal footprint in MiB (the sweep axis).
    pub footprint_mb: u64,
    /// Page size label (`4K` / `2M` / `1G`).
    pub page_size: String,
    /// Workload seed.
    pub seed: u64,
    /// Record provenance, mirroring the telemetry schema-v3 source tag;
    /// always `sim`.
    pub source: String,
    /// Translation architecture label (`baseline` / `victima` /
    /// `dram-cache` / `no-tlb`). Rows from pre-arch stores decode as
    /// `baseline`.
    pub arch: String,
    /// WCPI at [`crate::sketch::VALUE_SCALE`] fixed point.
    pub wcpi_fp: i64,
    /// `log10(measured footprint KB)` at [`crate::regress::X_SCALE`]
    /// fixed point — Table IV's regressor.
    pub x_fp: i64,
    /// `dtlb_misses.walk_duration` cycles.
    pub walk_duration_cycles: u64,
    /// `inst_retired.any`.
    pub inst_retired: u64,
    /// `cpu_clk_unhalted.thread` cycles.
    pub cycles: u64,
    /// Table VI "Initiated" walks.
    pub walks_initiated: u64,
    /// Table VI "Completed" walks.
    pub walks_completed: u64,
    /// Table VI "Retired" walks.
    pub walks_retired: u64,
}

impl HotRow {
    /// The group this row aggregates under.
    pub fn group_key(&self) -> GroupKey {
        GroupKey {
            workload: self.workload.clone(),
            footprint_mb: self.footprint_mb,
            source: self.source.clone(),
            arch: self.arch.clone(),
        }
    }

    pub(crate) fn encode(&self, enc: &mut Enc) {
        enc.str(&self.workload);
        enc.u64(self.footprint_mb);
        enc.str(&self.page_size);
        enc.u64(self.seed);
        enc.str(&self.source);
        enc.str(&self.arch);
        enc.i64(self.wcpi_fp);
        enc.i64(self.x_fp);
        enc.u64(self.walk_duration_cycles);
        enc.u64(self.inst_retired);
        enc.u64(self.cycles);
        enc.u64(self.walks_initiated);
        enc.u64(self.walks_completed);
        enc.u64(self.walks_retired);
    }

    pub(crate) fn decode(dec: &mut Dec<'_>) -> DecResult<HotRow> {
        Self::decode_with(dec, true)
    }

    /// Decodes a row written before the arch column existed (WAL v1
    /// frames), defaulting `arch = "baseline"`.
    pub(crate) fn decode_v1(dec: &mut Dec<'_>) -> DecResult<HotRow> {
        Self::decode_with(dec, false)
    }

    fn decode_with(dec: &mut Dec<'_>, with_arch: bool) -> DecResult<HotRow> {
        Ok(HotRow {
            workload: dec.str()?,
            footprint_mb: dec.u64()?,
            page_size: dec.str()?,
            seed: dec.u64()?,
            source: dec.str()?,
            arch: if with_arch {
                dec.str()?
            } else {
                "baseline".to_string()
            },
            wcpi_fp: dec.i64()?,
            x_fp: dec.i64()?,
            walk_duration_cycles: dec.u64()?,
            inst_retired: dec.u64()?,
            cycles: dec.u64()?,
            walks_initiated: dec.u64()?,
            walks_completed: dec.u64()?,
            walks_retired: dec.u64()?,
        })
    }
}

/// Aggregation group identity: the fig1 axes plus the architecture axis.
/// `arch` is deliberately the *last* field: derived `Ord` compares fields
/// in declaration order, so pre-arch states (all `baseline`) keep their
/// exact sorted order and the canonical-form check accepts them unchanged.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct GroupKey {
    /// Workload id string.
    pub workload: String,
    /// Nominal footprint in MiB.
    pub footprint_mb: u64,
    /// Record provenance.
    pub source: String,
    /// Translation architecture label.
    pub arch: String,
}

/// Per-group mergeable aggregate: WCPI sketch, β/c regression state, and
/// exact walk-cycle / instruction sums.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupAgg {
    /// WCPI distribution.
    pub sketch: Sketch,
    /// `(log10 footprint_KB, WCPI)` OLS state.
    pub regress: Regress,
    /// Σ `walk_duration_cycles` (exact).
    pub walk_cycles: u128,
    /// Σ `inst_retired` (exact).
    pub instructions: u128,
}

impl GroupAgg {
    fn add(&mut self, row: &HotRow) {
        self.sketch.add_fp(row.wcpi_fp);
        self.regress.add(row.x_fp, row.wcpi_fp);
        self.walk_cycles += u128::from(row.walk_duration_cycles);
        self.instructions += u128::from(row.inst_retired);
    }

    fn remove(&mut self, row: &HotRow) {
        self.sketch.remove_fp(row.wcpi_fp);
        self.regress.remove(row.x_fp, row.wcpi_fp);
        self.walk_cycles -= u128::from(row.walk_duration_cycles);
        self.instructions -= u128::from(row.inst_retired);
    }

    fn merge(&mut self, other: &GroupAgg) {
        self.sketch.merge(&other.sketch);
        self.regress.merge(&other.regress);
        self.walk_cycles += other.walk_cycles;
        self.instructions += other.instructions;
    }

    fn is_empty(&self) -> bool {
        self.sketch.is_empty() && self.regress.count() == 0
    }

    fn encode(&self, enc: &mut Enc) {
        self.sketch.encode(enc);
        self.regress.encode(enc);
        enc.u128(self.walk_cycles);
        enc.u128(self.instructions);
    }

    fn decode(dec: &mut Dec<'_>) -> DecResult<GroupAgg> {
        Ok(GroupAgg {
            sketch: Sketch::decode(dec)?,
            regress: Regress::decode(dec)?,
            walk_cycles: dec.u128()?,
            instructions: dec.u128()?,
        })
    }
}

/// The full aggregate state: groups kept sorted by key (the canonical
/// form `PartialEq` compares), empty groups dropped on removal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AggState {
    groups: Vec<(GroupKey, GroupAgg)>,
}

impl AggState {
    /// An empty state (the merge identity).
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

    /// The groups, sorted by key.
    pub fn groups(&self) -> &[(GroupKey, GroupAgg)] {
        &self.groups
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

    /// Merges `other` in. Exactly associative and commutative, with
    /// [`AggState::new`] as identity — pinned by `tests/prop_merge.rs`.
    pub fn merge(&mut self, other: &AggState) {
        for (key, agg) in &other.groups {
            self.slot(key.clone()).merge(agg);
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
                source: key.source.clone(),
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

    /// Serializes into `enc`.
    pub fn encode(&self, enc: &mut Enc) {
        enc.u32(u32::try_from(self.groups.len()).expect("group count fits u32"));
        for (key, agg) in &self.groups {
            enc.str(&key.workload);
            enc.u64(key.footprint_mb);
            enc.str(&key.source);
            enc.str(&key.arch);
            agg.encode(enc);
        }
    }

    /// Deserializes a state, validating the sorted canonical form.
    pub fn decode(dec: &mut Dec<'_>) -> DecResult<AggState> {
        Self::decode_with(dec, true)
    }

    /// Decodes a state written before the arch axis existed (segment v1
    /// aggregate blocks), defaulting every key's `arch` to `baseline`.
    /// `arch` is `GroupKey`'s last `Ord` field, so the stored sort order
    /// is still canonical after the default is applied.
    pub(crate) fn decode_v1(dec: &mut Dec<'_>) -> DecResult<AggState> {
        Self::decode_with(dec, false)
    }

    fn decode_with(dec: &mut Dec<'_>, with_arch: bool) -> DecResult<AggState> {
        let n = dec.u32()? as usize;
        let mut groups = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let key = GroupKey {
                workload: dec.str()?,
                footprint_mb: dec.u64()?,
                source: dec.str()?,
                arch: if with_arch {
                    dec.str()?
                } else {
                    "baseline".to_string()
                },
            };
            if groups
                .last()
                .is_some_and(|(prev, _): &(GroupKey, _)| prev >= &key)
            {
                return Err(Corrupt);
            }
            let agg = GroupAgg::decode(dec)?;
            groups.push((key, agg));
        }
        Ok(AggState { groups })
    }
}

/// A `Query` request's filter: every field is optional, `None` matches
/// everything (wire type, protocol v5; `arch` added in v7).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryFilter {
    /// Restrict to one workload id.
    pub workload: Option<String>,
    /// Restrict to one provenance tag (every row is `sim`).
    pub source: Option<String>,
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
            && self.source.as_ref().is_none_or(|s| *s == key.source)
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
    /// Record provenance.
    pub source: String,
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
    /// Per-group breakdown, sorted by `(workload, footprint, source, arch)`.
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
    /// On-disk bytes across segments, WAL, and index.
    pub disk_bytes: u64,
    /// Corrupt files or torn WAL tails quarantined since open.
    pub quarantined: u64,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regress::x_fp;
    use crate::sketch::value_fp;

    pub(crate) fn row(workload: &str, mb: u64, seed: u64, wcpi: f64) -> HotRow {
        HotRow {
            workload: workload.to_string(),
            footprint_mb: mb,
            page_size: "4K".to_string(),
            seed,
            source: "sim".to_string(),
            arch: "baseline".to_string(),
            wcpi_fp: value_fp(wcpi),
            x_fp: x_fp((mb as f64 * 1024.0).log10()),
            walk_duration_cycles: (wcpi * 1e5) as u64,
            inst_retired: 100_000,
            cycles: 150_000,
            walks_initiated: 900,
            walks_completed: 800,
            walks_retired: 700,
        }
    }

    #[test]
    fn add_groups_by_workload_footprint_source() {
        let mut state = AggState::new();
        state.add(&row("cc-urand", 16, 1, 0.1));
        state.add(&row("cc-urand", 16, 2, 0.2));
        state.add(&row("cc-urand", 64, 1, 0.4));
        state.add(&row("bfs-urand", 16, 1, 0.3));
        assert_eq!(state.len(), 3);
        let all = state.query(&QueryFilter::default());
        assert_eq!(all.count, 4);
        let cc16 = state.query(&QueryFilter {
            workload: Some("cc-urand".to_string()),
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
            state.add(&row("cc-urand", mb, 7, wcpi));
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
        state.add(&row("cc-urand", 16, 1, 0.1));
        let before = state.clone();
        let extra = row("cc-urand", 16, 2, 0.9);
        state.add(&extra);
        state.remove(&extra);
        assert_eq!(state, before);
        let lone = row("tc-kron", 512, 3, 2.0);
        state.add(&lone);
        state.remove(&lone);
        assert_eq!(state, before, "emptied group disappears");
    }

    #[test]
    fn merge_matches_concatenation_and_identity() {
        let rows = [
            row("cc-urand", 16, 1, 0.1),
            row("cc-urand", 64, 1, 0.4),
            row("bfs-urand", 16, 2, 0.3),
        ];
        let mut left = AggState::new();
        left.add(&rows[0]);
        let mut right = AggState::new();
        right.add(&rows[1]);
        right.add(&rows[2]);
        let mut merged = left.clone();
        merged.merge(&right);
        let mut all = AggState::new();
        for r in &rows {
            all.add(r);
        }
        assert_eq!(merged, all);
        let mut with_identity = all.clone();
        with_identity.merge(&AggState::new());
        assert_eq!(with_identity, all);
    }

    #[test]
    fn codec_roundtrip_rejects_unsorted_state() {
        let mut state = AggState::new();
        state.add(&row("cc-urand", 16, 1, 0.1));
        state.add(&row("bfs-urand", 64, 2, 0.5));
        let mut enc = Enc::new();
        state.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        assert_eq!(AggState::decode(&mut dec).unwrap(), state);
        assert!(dec.done().is_ok());
    }

    #[test]
    fn hot_row_codec_roundtrip() {
        let r = row("pr-urand", 256, 9, 1.25);
        let mut enc = Enc::new();
        r.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        assert_eq!(HotRow::decode(&mut dec).unwrap(), r);
    }

    pub(crate) fn arch_row(workload: &str, mb: u64, seed: u64, wcpi: f64, arch: &str) -> HotRow {
        let mut r = row(workload, mb, seed, wcpi);
        r.arch = arch.to_string();
        r
    }

    #[test]
    fn architectures_group_separately_and_filter() {
        let mut state = AggState::new();
        state.add(&row("cc-urand", 16, 1, 0.4));
        state.add(&arch_row("cc-urand", 16, 1, 0.1, "victima"));
        state.add(&arch_row("cc-urand", 16, 1, 3.0, "no-tlb"));
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
            state.add(&row("cc-urand", mb, 7, base));
            state.add(&arch_row("cc-urand", mb, 7, vict, "victima"));
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

    #[test]
    fn v1_state_decodes_with_baseline_arch() {
        // A hand-rolled v1 aggregate image: keys without the arch string.
        let mut expect = AggState::new();
        expect.add(&row("bfs-urand", 64, 2, 0.5));
        expect.add(&row("cc-urand", 16, 1, 0.1));
        let mut enc = Enc::new();
        enc.u32(2);
        for (key, agg) in expect.groups() {
            enc.str(&key.workload);
            enc.u64(key.footprint_mb);
            enc.str(&key.source);
            agg.encode(&mut enc);
        }
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        let decoded = AggState::decode_v1(&mut dec).unwrap();
        assert!(dec.done().is_ok());
        assert_eq!(decoded, expect, "v1 keys default to arch=baseline");
    }

    #[test]
    fn v1_hot_row_decodes_with_baseline_arch() {
        let expect = row("pr-urand", 256, 9, 1.25);
        // Encode without the arch column, as v1 WAL frames did.
        let mut enc = Enc::new();
        enc.str(&expect.workload);
        enc.u64(expect.footprint_mb);
        enc.str(&expect.page_size);
        enc.u64(expect.seed);
        enc.str(&expect.source);
        enc.i64(expect.wcpi_fp);
        enc.i64(expect.x_fp);
        enc.u64(expect.walk_duration_cycles);
        enc.u64(expect.inst_retired);
        enc.u64(expect.cycles);
        enc.u64(expect.walks_initiated);
        enc.u64(expect.walks_completed);
        enc.u64(expect.walks_retired);
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        assert_eq!(HotRow::decode_v1(&mut dec).unwrap(), expect);
        assert!(dec.done().is_ok());
    }
}
