//! The paper's address-translation overhead protocol (§III-A/B).

use crate::{RunRecord, RunSpec};
use atscale_vm::PageSize;
use serde::{Deserialize, Serialize};

/// One workload instance measured at all three page sizes.
///
/// The paper approximates the zero-translation runtime by backing the heap
/// with superpages, taking `t_baseline = min(t_2MB, t_1GB)` (the 1 GB
/// configuration can lose at small footprints because sub-1 GB regions
/// fall back to base pages — §III-B), and defines:
///
/// ```text
/// AT overhead          = t_4KB − t_baseline
/// relative AT overhead = (t_4KB − t_baseline) / t_baseline
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverheadPoint {
    /// The 4 KB run.
    pub run_4k: RunRecord,
    /// The 2 MB run.
    pub run_2m: RunRecord,
    /// The 1 GB run.
    pub run_1g: RunRecord,
}

impl OverheadPoint {
    /// The three specs a point is measured from: `spec_4k` at 4 KB, 2 MB
    /// and 1 GB pages, in that order. Panics unless `spec_4k` is 4 KB.
    pub(crate) fn specs(spec_4k: &RunSpec) -> [RunSpec; 3] {
        assert_eq!(
            spec_4k.page_size,
            PageSize::Size4K,
            "overhead protocol starts from the 4KB spec"
        );
        PageSize::ALL.map(|size| spec_4k.with_page_size(size))
    }

    /// The point whose runs are the records of [`OverheadPoint::specs`],
    /// in that order.
    pub(crate) fn from_records([run_4k, run_2m, run_1g]: [RunRecord; 3]) -> OverheadPoint {
        OverheadPoint {
            run_4k,
            run_2m,
            run_1g,
        }
    }

    /// The workload label.
    pub fn workload(&self) -> String {
        self.run_4k.spec.workload.to_string()
    }

    /// Measured footprint (KB) of the 4 KB configuration — the paper's
    /// x-axis quantity.
    pub fn footprint_kb(&self) -> f64 {
        self.run_4k.footprint_kb()
    }

    /// `t_baseline = min(t_2MB, t_1GB)` in cycles.
    pub fn baseline_cycles(&self) -> u64 {
        self.run_2m
            .runtime_cycles()
            .min(self.run_1g.runtime_cycles())
    }

    /// Absolute AT overhead in cycles (can be negative when superpages do
    /// not help — the paper keeps such points, flagging them as not
    /// AT-sensitive for the Table V analysis).
    pub fn at_overhead_cycles(&self) -> i64 {
        self.run_4k.runtime_cycles() as i64 - self.baseline_cycles() as i64
    }

    /// Relative AT overhead: `(t_4KB − t_baseline) / t_baseline`.
    pub fn relative_overhead(&self) -> f64 {
        self.at_overhead_cycles() as f64 / self.baseline_cycles() as f64
    }

    /// The paper's AT-sensitivity filter: points with negative measured
    /// overhead are excluded from correlation analysis (§V-B).
    pub fn is_at_sensitive(&self) -> bool {
        self.at_overhead_cycles() >= 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Harness;
    use atscale_workloads::WorkloadId;

    fn point(workload: &str, footprint: u64) -> OverheadPoint {
        let spec = RunSpec {
            workload: WorkloadId::parse(workload).unwrap(),
            nominal_footprint: footprint,
            page_size: PageSize::Size4K,
            seed: 7,
            warmup_instr: 20_000,
            budget_instr: 150_000,
            arch: crate::ArchKind::Baseline,
        };
        Harness::new().overhead_point(&spec)
    }

    #[test]
    fn random_graph_workload_has_positive_overhead() {
        let p = point("cc-urand", 64 << 20);
        assert!(
            p.relative_overhead() > 0.02,
            "cc-urand at 64MB should show overhead, got {}",
            p.relative_overhead()
        );
        assert!(p.is_at_sensitive());
        assert_eq!(p.workload(), "cc-urand");
        assert!(p.footprint_kb() > 0.0);
    }

    #[test]
    fn baseline_picks_the_better_superpage_run() {
        let p = point("pr-urand", 48 << 20);
        assert_eq!(
            p.baseline_cycles(),
            p.run_2m.runtime_cycles().min(p.run_1g.runtime_cycles())
        );
        // At 48 MB the 1 GB policy falls back to 4 KB pages (§III-B), so
        // the 2 MB run must win the baseline.
        assert!(p.run_2m.runtime_cycles() < p.run_1g.runtime_cycles());
    }

    #[test]
    #[should_panic(expected = "starts from the 4KB spec")]
    fn non_4k_spec_is_rejected() {
        let spec = RunSpec {
            workload: WorkloadId::parse("cc-urand").unwrap(),
            nominal_footprint: 1 << 20,
            page_size: PageSize::Size2M,
            seed: 1,
            warmup_instr: 0,
            budget_instr: 1000,
            arch: crate::ArchKind::Baseline,
        };
        Harness::new().overhead_point(&spec);
    }
}
