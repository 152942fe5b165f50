//! Software performance counters mirroring the paper's hardware events.
//!
//! The paper's entire methodology consumes Intel PMU events; this module is
//! the reproduction's substitute. Counter fields carry the Intel event names
//! in their documentation and in [`Counters::events`], and the Table VI
//! walk-outcome arithmetic is implemented verbatim in
//! [`Counters::walk_outcomes`].
//!
//! Because this is a simulator, we *also* record ground truth for walk
//! outcomes (which walks actually retired / completed on a wrong path /
//! were squashed). Unit and property tests assert that Table VI's
//! counter-derived outcomes equal the ground truth — a consistency check a
//! real machine cannot offer.

use atscale_vm::{invariant, CheckInvariants};
use serde::{Deserialize, Serialize};

/// The software performance-counter file.
///
/// All fields are cumulative event counts since the last reset. Events
/// suffixed `_loads` / `_stores` mirror Intel's split DTLB event pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// `inst_retired.any` — retired instructions.
    pub inst_retired: u64,
    /// `cpu_clk_unhalted.thread` — core cycles.
    pub cycles: u64,
    /// `mem_uops_retired.all_loads`.
    pub loads_retired: u64,
    /// `mem_uops_retired.all_stores`.
    pub stores_retired: u64,
    /// `mem_uops_retired.stlb_miss_loads` — retired loads that missed the
    /// second-level TLB (and therefore walked).
    pub stlb_miss_loads: u64,
    /// `mem_uops_retired.stlb_miss_stores`.
    pub stlb_miss_stores: u64,
    /// `dtlb_load_misses.stlb_hit` — loads that missed the L1 DTLB but hit
    /// the shared L2 TLB.
    pub stlb_hit_loads: u64,
    /// `dtlb_store_misses.stlb_hit`.
    pub stlb_hit_stores: u64,
    /// `dtlb_load_misses.miss_causes_a_walk` — load walks *initiated*,
    /// speculative or not.
    pub walk_initiated_loads: u64,
    /// `dtlb_store_misses.miss_causes_a_walk`.
    pub walk_initiated_stores: u64,
    /// `dtlb_load_misses.walk_completed` — load walks that ran to
    /// completion (retired *or* wrong-path).
    pub walk_completed_loads: u64,
    /// `dtlb_store_misses.walk_completed`.
    pub walk_completed_stores: u64,
    /// `dtlb_load_misses.walk_duration` + store counterpart — cycles with a
    /// walk outstanding (includes cycles spent on walks later aborted).
    pub walk_duration_cycles: u64,
    /// `page_walker_loads` total — PTE fetches issued by the walker.
    pub pt_accesses: u64,
    /// `machine_clears.count`.
    pub machine_clears: u64,
    /// `br_misp_retired.all_branches`.
    pub branch_mispredicts: u64,
    /// Demand-paging minor faults (OS-level, `perf`'s `minor-faults`).
    pub minor_faults: u64,

    // ---- simulator ground truth (no hardware equivalent) ----
    /// Ground truth: walks whose instruction retired.
    pub truth_retired_walks: u64,
    /// Ground truth: walks that completed on a squashed (wrong) path.
    pub truth_wrong_path_walks: u64,
    /// Ground truth: walks squashed before completion.
    pub truth_aborted_walks: u64,
}

/// Walk-outcome decomposition per the paper's Table VI.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalkOutcomes {
    /// `dtlb_load_misses.miss_causes_a_walk + dtlb_store_misses.miss_causes_a_walk`.
    pub initiated: u64,
    /// `dtlb_load_misses.walk_completed + dtlb_store_misses.walk_completed`.
    pub completed: u64,
    /// `mem_uops_retired.stlb_miss_loads + mem_uops_retired.stlb_miss_stores`.
    pub retired: u64,
    /// `initiated - completed`.
    pub aborted: u64,
    /// `completed - retired`.
    pub wrong_path: u64,
}

impl WalkOutcomes {
    /// Fraction of initiated walks that were aborted (0 when idle).
    pub fn aborted_fraction(&self) -> f64 {
        ratio(self.aborted, self.initiated)
    }

    /// Fraction of initiated walks that completed on a wrong path.
    pub fn wrong_path_fraction(&self) -> f64 {
        ratio(self.wrong_path, self.initiated)
    }

    /// Fraction of initiated walks that retired.
    pub fn retired_fraction(&self) -> f64 {
        ratio(self.retired, self.initiated)
    }

    /// Combined non-correct-path fraction (the paper's Figure 9 y-axis).
    pub fn non_correct_fraction(&self) -> f64 {
        ratio(self.aborted + self.wrong_path, self.initiated)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Counters {
    /// Creates a zeroed counter file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total walks initiated (loads + stores), Table VI "Initiated".
    pub fn walks_initiated(&self) -> u64 {
        self.walk_initiated_loads + self.walk_initiated_stores
    }

    /// Total walks completed, Table VI "Completed".
    pub fn walks_completed(&self) -> u64 {
        self.walk_completed_loads + self.walk_completed_stores
    }

    /// Total retired STLB-missing memory uops, Table VI "Retired".
    pub fn walks_retired(&self) -> u64 {
        self.stlb_miss_loads + self.stlb_miss_stores
    }

    /// Total retired memory uops.
    pub fn accesses_retired(&self) -> u64 {
        self.loads_retired + self.stores_retired
    }

    /// The Table VI walk-outcome decomposition.
    pub fn walk_outcomes(&self) -> WalkOutcomes {
        let initiated = self.walks_initiated();
        let completed = self.walks_completed();
        let retired = self.walks_retired();
        WalkOutcomes {
            initiated,
            completed,
            retired,
            aborted: initiated.saturating_sub(completed),
            wrong_path: completed.saturating_sub(retired),
        }
    }

    /// Walk cycles per instruction — the paper's headline WCPI metric.
    pub fn wcpi(&self) -> f64 {
        ratio(self.walk_duration_cycles, self.inst_retired)
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        ratio(self.cycles, self.inst_retired)
    }

    /// The counter file as `(intel_event_name, value)` pairs, for report
    /// output that looks like `perf stat`.
    pub fn events(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("inst_retired.any", self.inst_retired),
            ("cpu_clk_unhalted.thread", self.cycles),
            ("mem_uops_retired.all_loads", self.loads_retired),
            ("mem_uops_retired.all_stores", self.stores_retired),
            ("mem_uops_retired.stlb_miss_loads", self.stlb_miss_loads),
            ("mem_uops_retired.stlb_miss_stores", self.stlb_miss_stores),
            ("dtlb_load_misses.stlb_hit", self.stlb_hit_loads),
            ("dtlb_store_misses.stlb_hit", self.stlb_hit_stores),
            (
                "dtlb_load_misses.miss_causes_a_walk",
                self.walk_initiated_loads,
            ),
            (
                "dtlb_store_misses.miss_causes_a_walk",
                self.walk_initiated_stores,
            ),
            ("dtlb_load_misses.walk_completed", self.walk_completed_loads),
            (
                "dtlb_store_misses.walk_completed",
                self.walk_completed_stores,
            ),
            ("dtlb_misses.walk_duration", self.walk_duration_cycles),
            ("page_walker_loads.total", self.pt_accesses),
            ("machine_clears.count", self.machine_clears),
            ("br_misp_retired.all_branches", self.branch_mispredicts),
            ("minor-faults", self.minor_faults),
        ]
    }

    /// Returns the event name of the first counter that is *smaller* than in
    /// `prev`. Counters are cumulative: between two snapshots of the same
    /// measurement window every field must be monotonically non-decreasing.
    /// Returns `None` when no counter regressed.
    pub fn first_regression_since(&self, prev: &Counters) -> Option<&'static str> {
        let truth = |c: &Counters| {
            [
                ("truth.retired_walks", c.truth_retired_walks),
                ("truth.wrong_path_walks", c.truth_wrong_path_walks),
                ("truth.aborted_walks", c.truth_aborted_walks),
            ]
        };
        self.events()
            .into_iter()
            .chain(truth(self))
            .zip(prev.events().into_iter().chain(truth(prev)))
            .find(|((_, now), (_, before))| now < before)
            .map(|((name, _), _)| name)
    }

    /// Checks the internal consistency invariants that hold by
    /// construction on real hardware and must hold in the simulator:
    /// `retired ≤ completed ≤ initiated`, and Table VI outcomes must match
    /// the simulator's ground truth.
    ///
    /// Returns **every** violated invariant, not just the first — when a
    /// counter-plumbing bug breaks several outcomes at once, one report
    /// shows the whole blast radius instead of forcing a fix-rerun loop
    /// per message (the same one-pass discipline `telemetry_validate`
    /// follows).
    pub fn consistency_errors(&self) -> Vec<String> {
        let o = self.walk_outcomes();
        let mut errs = Vec::new();
        if o.retired > o.completed {
            errs.push(format!(
                "retired walks (mem_uops_retired.stlb_miss_*: {}) exceed completed walks \
                 (dtlb_*_misses.walk_completed: {})",
                o.retired, o.completed
            ));
        }
        if o.completed > o.initiated {
            errs.push(format!(
                "completed walks (dtlb_*_misses.walk_completed: {}) exceed initiated walks \
                 (dtlb_*_misses.miss_causes_a_walk: {})",
                o.completed, o.initiated
            ));
        }
        if o.retired != self.truth_retired_walks {
            errs.push(format!(
                "Table VI retired walks (mem_uops_retired.stlb_miss_*: {}) diverge from retired \
                 ground truth (truth.retired_walks: {})",
                o.retired, self.truth_retired_walks
            ));
        }
        if o.wrong_path != self.truth_wrong_path_walks {
            errs.push(format!(
                "Table VI wrong-path walks (completed - retired: {}) diverge from wrong-path \
                 ground truth (truth.wrong_path_walks: {})",
                o.wrong_path, self.truth_wrong_path_walks
            ));
        }
        if o.aborted != self.truth_aborted_walks {
            errs.push(format!(
                "Table VI aborted walks (initiated - completed: {}) diverge from aborted \
                 ground truth (truth.aborted_walks: {})",
                o.aborted, self.truth_aborted_walks
            ));
        }
        let truth_total =
            self.truth_retired_walks + self.truth_wrong_path_walks + self.truth_aborted_walks;
        if o.initiated != truth_total {
            errs.push(format!(
                "walk outcome partition: initiated walks (dtlb_*_misses.miss_causes_a_walk: {}) \
                 != retired {} + wrong-path {} + aborted {} ground truth",
                o.initiated,
                self.truth_retired_walks,
                self.truth_wrong_path_walks,
                self.truth_aborted_walks
            ));
        }
        errs
    }

    /// Asserts [`Counters::consistency_errors`] is empty.
    ///
    /// Unlike [`CheckInvariants::check_invariants`], these assertions are
    /// active in **all** build profiles — tests and experiment binaries call
    /// this on final results regardless of optimisation level.
    ///
    /// # Panics
    ///
    /// Panics with **all** violated invariants joined, one per line.
    pub fn assert_consistent(&self) {
        let errs = self.consistency_errors();
        assert!(
            errs.is_empty(),
            "counter consistency violated ({} invariant(s)):\n  {}",
            errs.len(),
            errs.join("\n  ")
        );
    }
}

impl CheckInvariants for Counters {
    fn check_invariants(&self) {
        let o = self.walk_outcomes();
        invariant!(
            o.retired <= o.completed && o.completed <= o.initiated,
            "Table VI ordering: retired {} <= completed {} <= initiated {}",
            o.retired,
            o.completed,
            o.initiated
        );
        invariant!(
            o.retired == self.truth_retired_walks,
            "counter-derived retired walks ({}) diverge from ground truth ({})",
            o.retired,
            self.truth_retired_walks
        );
        invariant!(
            o.wrong_path == self.truth_wrong_path_walks,
            "counter-derived wrong-path walks ({}) diverge from ground truth ({})",
            o.wrong_path,
            self.truth_wrong_path_walks
        );
        invariant!(
            o.aborted == self.truth_aborted_walks,
            "counter-derived aborted walks ({}) diverge from ground truth ({})",
            o.aborted,
            self.truth_aborted_walks
        );
        invariant!(
            o.initiated
                == self.truth_retired_walks
                    + self.truth_wrong_path_walks
                    + self.truth_aborted_walks,
            "walk accounting: initiated ({}) != retired + wrong-path + squashed ({})",
            o.initiated,
            self.truth_retired_walks + self.truth_wrong_path_walks + self.truth_aborted_walks
        );
        invariant!(
            self.accesses_retired() <= self.inst_retired,
            "retired memory uops ({}) exceed retired instructions ({})",
            self.accesses_retired(),
            self.inst_retired
        );
        invariant!(
            self.stlb_miss_loads <= self.loads_retired && self.stlb_hit_loads <= self.loads_retired,
            "STLB load events ({} miss / {} hit) exceed retired loads ({})",
            self.stlb_miss_loads,
            self.stlb_hit_loads,
            self.loads_retired
        );
        invariant!(
            self.stlb_miss_stores <= self.stores_retired
                && self.stlb_hit_stores <= self.stores_retired,
            "STLB store events ({} miss / {} hit) exceed retired stores ({})",
            self.stlb_miss_stores,
            self.stlb_hit_stores,
            self.stores_retired
        );
        invariant!(
            self.pt_accesses >= o.completed,
            "every completed walk fetches at least one PTE: {} accesses, {} completed",
            self.pt_accesses,
            o.completed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Counters {
        Counters {
            inst_retired: 1000,
            cycles: 1500,
            loads_retired: 300,
            stores_retired: 100,
            stlb_miss_loads: 30,
            stlb_miss_stores: 10,
            stlb_hit_loads: 50,
            stlb_hit_stores: 12,
            walk_initiated_loads: 70,
            walk_initiated_stores: 20,
            walk_completed_loads: 50,
            walk_completed_stores: 15,
            walk_duration_cycles: 900,
            pt_accesses: 130,
            machine_clears: 3,
            branch_mispredicts: 7,
            truth_retired_walks: 40,
            truth_wrong_path_walks: 25,
            truth_aborted_walks: 25,
            ..Default::default()
        }
    }

    #[test]
    fn table_vi_arithmetic() {
        let o = sample().walk_outcomes();
        assert_eq!(o.initiated, 90);
        assert_eq!(o.completed, 65);
        assert_eq!(o.retired, 40);
        assert_eq!(o.aborted, 25);
        assert_eq!(o.wrong_path, 25);
        assert!((o.non_correct_fraction() - 50.0 / 90.0).abs() < 1e-12);
        assert!(
            (o.retired_fraction() + o.aborted_fraction() + o.wrong_path_fraction() - 1.0).abs()
                < 1e-12
        );
    }

    #[test]
    fn consistency_check_accepts_valid_counters() {
        sample().assert_consistent();
        sample().check_invariants();
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "invariants compile out in release")]
    #[should_panic(expected = "aborted walks")]
    fn invariant_check_catches_unaccounted_walks() {
        let mut c = sample();
        c.walk_initiated_loads += 1; // initiated with no matching outcome
        c.check_invariants();
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "invariants compile out in release")]
    #[should_panic(expected = "at least one PTE")]
    fn invariant_check_catches_missing_pte_fetches() {
        let mut c = sample();
        c.pt_accesses = 1;
        c.check_invariants();
    }

    #[test]
    #[should_panic(expected = "wrong-path ground truth")]
    fn consistency_check_catches_drift() {
        let mut c = sample();
        c.truth_wrong_path_walks += 1;
        c.truth_aborted_walks -= 1;
        c.assert_consistent();
    }

    #[test]
    fn consistency_check_reports_every_violation_in_one_pass() {
        // Break three independent invariants at once: the report must name
        // all of them, not stop at the first.
        let mut c = sample();
        c.truth_retired_walks += 1; // retired truth drift
        c.truth_wrong_path_walks -= 1; // wrong-path truth drift
        c.walk_initiated_loads += 5; // aborted drift + partition no longer sums
        let errs = c.consistency_errors();
        assert_eq!(errs.len(), 4, "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("retired ground truth")));
        assert!(errs.iter().any(|e| e.contains("wrong-path ground truth")));
        assert!(errs.iter().any(|e| e.contains("aborted ground truth")));
        assert!(errs.iter().any(|e| e.contains("walk outcome partition")));
        assert!(sample().consistency_errors().is_empty());
    }

    #[test]
    fn regression_detection_names_the_shrinking_counter() {
        let a = sample();
        assert_eq!(a.first_regression_since(&a), None);
        let mut later = a;
        later.inst_retired += 10;
        assert_eq!(later.first_regression_since(&a), None);
        let mut broken = a;
        broken.pt_accesses -= 1;
        assert_eq!(
            broken.first_regression_since(&a),
            Some("page_walker_loads.total")
        );
        let mut truth_broken = a;
        truth_broken.truth_aborted_walks -= 1;
        assert_eq!(
            truth_broken.first_regression_since(&a),
            Some("truth.aborted_walks")
        );
    }

    #[test]
    fn wcpi_and_cpi() {
        let c = sample();
        assert!((c.wcpi() - 0.9).abs() < 1e-12);
        assert!((c.cpi() - 1.5).abs() < 1e-12);
        assert_eq!(Counters::default().wcpi(), 0.0);
    }

    #[test]
    fn event_names_cover_table_vi_inputs() {
        let events = sample().events();
        let names: Vec<&str> = events.iter().map(|(n, _)| *n).collect();
        for required in [
            "dtlb_load_misses.miss_causes_a_walk",
            "dtlb_store_misses.miss_causes_a_walk",
            "dtlb_load_misses.walk_completed",
            "dtlb_store_misses.walk_completed",
            "mem_uops_retired.stlb_miss_loads",
            "mem_uops_retired.stlb_miss_stores",
        ] {
            assert!(names.contains(&required), "missing {required}");
        }
    }

    #[test]
    fn speculation_events_are_reported() {
        let c = sample();
        let events = c.events();
        assert!(events.contains(&("machine_clears.count", c.machine_clears)));
        assert!(events.contains(&("br_misp_retired.all_branches", c.branch_mispredicts)));
        assert!(events.contains(&("mem_uops_retired.stlb_miss_loads", c.stlb_miss_loads)));
        assert!(events.contains(&("dtlb_load_misses.stlb_hit", c.stlb_hit_loads)));
        assert!(events.contains(&("dtlb_store_misses.stlb_hit", c.stlb_hit_stores)));
    }

    #[test]
    fn fractions_of_idle_counters_are_zero() {
        let o = Counters::default().walk_outcomes();
        assert_eq!(o.non_correct_fraction(), 0.0);
        assert_eq!(o.retired_fraction(), 0.0);
    }
}
