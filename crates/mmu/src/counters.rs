//! Software performance counters mirroring the paper's hardware events.
//!
//! The paper's entire methodology consumes Intel PMU events; this module is
//! the reproduction's substitute. One `counters!` declaration pairs each
//! field with its Intel event name, so a field cannot be added that
//! [`Counters::events`] (or, for ground truth, [`Counters::truth_events`])
//! does not export and interval samples do not carry. The Table VI
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

/// Declares the counter file once — each field's doc, identifier and event
/// name, in two groups — and emits [`Counters`] (fields in declaration
/// order, which is the serialised order), [`Counters::events`] over the
/// `pmu` group and [`Counters::truth_events`] over the `truth` group. A
/// field without an event name, or a name without a field, does not parse.
///
/// Only `ident` and `literal` fragments reach the struct, and `pub`/`u64`
/// are written out: the vendored `serde_derive` walks raw tokens, and
/// `vis`/`ty` fragments would reach it wrapped in invisible groups.
macro_rules! counters {
    (
        pmu { $($(#[doc = $doc:literal])* $field:ident => $event:literal,)+ }
        truth { $($(#[doc = $tdoc:literal])* $tfield:ident => $tevent:literal,)+ }
    ) => {
        /// The software performance-counter file.
        ///
        /// All fields are cumulative event counts since the last reset. Events
        /// suffixed `_loads` / `_stores` mirror Intel's split DTLB event pairs;
        /// the `truth_*` fields are simulator ground truth with no hardware
        /// equivalent.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct Counters {
            $(
                $(#[doc = $doc])*
                #[doc = concat!("\n\nEvent `", $event, "`.")]
                pub $field: u64,
            )+
            $(
                $(#[doc = $tdoc])*
                #[doc = concat!("\n\nSampled as `", $tevent, "`.")]
                pub $tfield: u64,
            )+
        }

        impl Counters {
            /// The hardware events as `(intel_event_name, value)` pairs, in
            /// declaration order, for report output that looks like `perf stat`.
            pub fn events(&self) -> Vec<(&'static str, u64)> {
                vec![$(($event, self.$field),)+]
            }

            /// The ground-truth fields as `(name, value)` pairs: the `truth.*`
            /// names interval samples carry next to [`Counters::events`].
            pub fn truth_events(&self) -> Vec<(&'static str, u64)> {
                vec![$(($tevent, self.$tfield),)+]
            }
        }
    };
}

counters! {
    pmu {
        /// Retired instructions.
        inst_retired => "inst_retired.any",
        /// Core cycles.
        cycles => "cpu_clk_unhalted.thread",
        /// Retired loads.
        loads_retired => "mem_uops_retired.all_loads",
        /// Retired stores.
        stores_retired => "mem_uops_retired.all_stores",
        /// Retired loads that missed the second-level TLB (and therefore
        /// walked).
        stlb_miss_loads => "mem_uops_retired.stlb_miss_loads",
        /// Retired stores that missed the second-level TLB.
        stlb_miss_stores => "mem_uops_retired.stlb_miss_stores",
        /// Loads that missed the L1 DTLB but hit the shared L2 TLB.
        stlb_hit_loads => "dtlb_load_misses.stlb_hit",
        /// Stores that missed the L1 DTLB but hit the shared L2 TLB.
        stlb_hit_stores => "dtlb_store_misses.stlb_hit",
        /// Load walks *initiated*, speculative or not.
        walk_initiated_loads => "dtlb_load_misses.miss_causes_a_walk",
        /// Store walks initiated.
        walk_initiated_stores => "dtlb_store_misses.miss_causes_a_walk",
        /// Load walks that ran to completion (retired *or* wrong-path).
        walk_completed_loads => "dtlb_load_misses.walk_completed",
        /// Store walks that ran to completion.
        walk_completed_stores => "dtlb_store_misses.walk_completed",
        /// Cycles with a walk outstanding, loads and stores (includes cycles
        /// spent on walks later aborted).
        walk_duration_cycles => "dtlb_misses.walk_duration",
        /// PTE fetches issued by the walker.
        pt_accesses => "page_walker_loads.total",
        /// Machine clears.
        machine_clears => "machine_clears.count",
        /// Retired mispredicted branches.
        branch_mispredicts => "br_misp_retired.all_branches",
        /// Demand-paging minor faults (OS-level, as `perf` counts them).
        minor_faults => "minor-faults",
    }
    truth {
        /// Ground truth: walks whose instruction retired.
        truth_retired_walks => "truth.retired_walks",
        /// Ground truth: walks that completed on a squashed (wrong) path.
        truth_wrong_path_walks => "truth.wrong_path_walks",
        /// Ground truth: walks squashed before completion.
        truth_aborted_walks => "truth.aborted_walks",
    }
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

    /// Returns the event name of the first counter that is *smaller* than in
    /// `prev`. Counters are cumulative: between two snapshots of the same
    /// measurement window every field must be monotonically non-decreasing.
    /// Returns `None` when no counter regressed.
    pub fn first_regression_since(&self, prev: &Counters) -> Option<&'static str> {
        self.events()
            .into_iter()
            .chain(self.truth_events())
            .zip(prev.events().into_iter().chain(prev.truth_events()))
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
        // In `truth` declaration order: retired, wrong-path, aborted.
        let derived = [
            ("retired", "mem_uops_retired.stlb_miss_*", o.retired),
            ("wrong-path", "completed - retired", o.wrong_path),
            ("aborted", "initiated - completed", o.aborted),
        ];
        for ((outcome, formula, value), (name, truth)) in
            derived.into_iter().zip(self.truth_events())
        {
            if value != truth {
                errs.push(format!(
                    "Table VI {outcome} walks ({formula}: {value}) diverge from {outcome} \
                     ground truth ({name}: {truth})"
                ));
            }
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
            self.consistency_errors().is_empty(),
            "{}",
            self.consistency_errors().join("; ")
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
    use serde::Value;

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
    fn truth_field_must_feed_consistency_checks() {
        // Bump each serialised `truth_*` field alone in a consistent file:
        // a ground-truth field no consistency check reads passes here.
        let Value::Map(fields) = serde::to_value(&sample()) else {
            panic!("Counters serialises as a map");
        };
        let truth: Vec<&str> = fields
            .iter()
            .map(|(name, _)| name.as_str())
            .filter(|name| name.starts_with("truth_"))
            .collect();
        assert_eq!(truth.len(), sample().truth_events().len());
        for field in truth {
            let bumped = fields
                .iter()
                .map(|(name, value)| match value {
                    Value::U64(n) if name == field => (name.clone(), Value::U64(n + 1)),
                    _ => (name.clone(), value.clone()),
                })
                .collect();
            let c: Counters = serde::from_value(&Value::Map(bumped)).unwrap();
            assert!(
                !c.consistency_errors().is_empty(),
                "`{field}` bumped alone passes every consistency check"
            );
        }
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
