//! Rule 2 — invariant annotations.
//!
//! The simulator's state-bearing types live in `atscale-vm`, `atscale-cache`
//! and `atscale-mmu`. Every type there exposing a `pub fn` that takes
//! `&mut self` — i.e. every public mutator of counter, TLB, or cache
//! state — must be covered by the debug-build invariant layer: either the
//! type implements `CheckInvariants`, or each mutator's body performs its
//! own `invariant!` / `debug_assert!` checks, or the type is on the
//! documented indirect-coverage allowlist (its state is validated through
//! the invariants of the structure that owns it).
//!
//! The rule also verifies the wiring: `Machine::finish` must run a full
//! sweep and the pressure-window path must run the O(1) counter checks, so
//! the layer cannot silently fall out of the hot paths.
//!
//! Everything is read off the item model ([`crate::model::FnItem`]): a
//! mutator is a non-test `is_pub && mut_self` method of an inherent impl,
//! and a covered type is one with a non-test `impl CheckInvariants`.

use crate::graph::Analysis;
use crate::model::CallKind;
use crate::Audit;

const RULE: &str = "invariant-annotation";

/// Crates whose mutable state the invariant layer must cover.
const STATE_CRATES: [&str; 3] = ["crates/vm/src/", "crates/cache/src/", "crates/mmu/src/"];

/// Types whose state is validated through the invariants of an owning
/// structure rather than a `CheckInvariants` impl of their own. Each entry
/// carries the justification the audit report shows on demand.
pub const COVERED_INDIRECTLY: [(&str, &str); 5] = [
    (
        "LevelCounts",
        "a pure tally with no internal invariant of its own; its consistency \
         against cumulative per-cache counters is checked by \
         CacheHierarchy::check_invariants",
    ),
    (
        "HierarchyStats",
        "aggregate of LevelCounts tallies; validated against cumulative L1 \
         accesses by CacheHierarchy::check_invariants",
    ),
    (
        "FrameAllocator",
        "byte accounting is checked by AddressSpace::check_invariants \
         (data_bytes / table_node_bytes equalities)",
    ),
    (
        "HeapLayout",
        "segment placement is checked by AddressSpace::check_invariants \
         (sorted, disjoint, allocated-byte accounting)",
    ),
    (
        "SpeculationModel",
        "its observable effect — wrong-path and squashed walks — is checked by \
         Counters::check_invariants ground-truth equalities and the engine's \
         coupling checks",
    ),
];

/// Runs the invariant-annotation rule over the workspace.
pub fn audit_invariant_annotations(a: &Analysis) -> Audit {
    let mut audit = Audit::new(RULE);
    // The non-test fns of the state crates, each with its file.
    let fns = || {
        a.files
            .iter()
            .filter(|f| STATE_CRATES.iter().any(|c| f.path.contains(c)))
            .flat_map(|f| f.fns.iter().filter(|g| !g.in_tests).map(move |g| (f, g)))
    };

    // Pass 1: which types implement CheckInvariants?
    let mut covered: Vec<&str> = fns()
        .filter(|(_, g)| g.impl_trait.as_deref() == Some("CheckInvariants"))
        .filter_map(|(_, g)| g.impl_type.as_deref())
        .collect();
    covered.extend(COVERED_INDIRECTLY.iter().map(|(t, _)| *t));

    // Pass 2: every public mutator of an inherent impl must be covered
    // (trait methods follow the trait's contract).
    for (file, f) in fns().filter(|(_, f)| f.is_pub && f.mut_self && f.impl_trait.is_none()) {
        let Some(ty) = f.impl_type.as_deref() else {
            continue;
        };
        audit.check();
        let inline = file.calls_of(f).iter().any(|c| {
            c.name == "check_invariants"
                || c.kind == CallKind::Macro
                    && (c.name == "invariant" || c.name.starts_with("debug_assert"))
        });
        if !covered.contains(&ty) && !inline {
            audit.fail(
                &file.path,
                format!(
                    "`{ty}::{}` mutates state but `{ty}` neither implements \
                     `CheckInvariants` nor performs inline invariant checks \
                     (and is not on the indirect-coverage allowlist)",
                    f.name
                ),
            );
        }
    }

    check_engine_wiring(&mut audit, a);
    audit
}

/// The engine hot paths must actually invoke the layer.
fn check_engine_wiring(audit: &mut Audit, a: &Analysis) {
    const ENGINE: &str = "crates/mmu/src/engine.rs";
    let Some(engine) = a.file(ENGINE) else {
        audit.fail(ENGINE, format!("{ENGINE} not found in workspace"));
        return;
    };
    for (needle, words, why) in [
        (
            "self.check_invariants()",
            &["self", ".", "check_invariants", "(", ")"][..],
            "Machine::finish must run a full invariant sweep in debug builds",
        ),
        (
            "debug_check_window",
            &["debug_check_window"][..],
            "the pressure-window path must run the O(1) counter checks in debug builds",
        ),
    ] {
        audit.check();
        if !engine.non_test_code().any(|i| engine.spells(i, words)) {
            audit.fail(ENGINE, format!("missing `{needle}` — {why}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::analysis_from;

    /// Engine stub satisfying the wiring checks.
    const ENGINE: &str = "
        impl CheckInvariants for Machine {
            fn check_invariants(&self) {}
        }
        impl Machine {
            pub fn finish(&mut self) { self.check_invariants() }
            fn debug_check_window(&mut self) {}
        }
    ";

    #[test]
    fn type_with_check_invariants_impl_passes() {
        let src = "
            impl Tlb {
                pub fn fill(&mut self, tag: u64) { self.tags.push(tag) }
            }
            impl CheckInvariants for Tlb {
                fn check_invariants(&self) {}
            }
        ";
        let a = analysis_from(&[
            ("crates/mmu/src/tlb.rs", src),
            ("crates/mmu/src/engine.rs", ENGINE),
        ]);
        assert_eq!(audit_invariant_annotations(&a).violations, Vec::new());
    }

    #[test]
    fn uncovered_mutator_is_flagged() {
        let src = "
            impl Rogue {
                pub fn mutate(&mut self) { self.state += 1 }
            }
        ";
        let a = analysis_from(&[
            ("crates/cache/src/rogue.rs", src),
            ("crates/mmu/src/engine.rs", ENGINE),
        ]);
        let audit = audit_invariant_annotations(&a);
        assert_eq!(audit.violations.len(), 1);
        assert!(audit.violations[0].message.contains("`Rogue::mutate`"));
    }

    #[test]
    fn inline_invariant_checks_count_as_coverage() {
        let src = "
            impl Lone {
                pub fn bump(&mut self) {
                    self.n += 1;
                    invariant!(self.n > 0, \"n must grow\");
                }
            }
        ";
        let a = analysis_from(&[
            ("crates/vm/src/lone.rs", src),
            ("crates/mmu/src/engine.rs", ENGINE),
        ]);
        assert_eq!(audit_invariant_annotations(&a).violations, Vec::new());
    }

    #[test]
    fn read_only_methods_need_no_coverage() {
        let src = "
            impl Viewer {
                pub fn stats(&self) -> u64 { self.n }
            }
        ";
        let a = analysis_from(&[
            ("crates/vm/src/viewer.rs", src),
            ("crates/mmu/src/engine.rs", ENGINE),
        ]);
        assert_eq!(audit_invariant_annotations(&a).violations, Vec::new());
    }

    #[test]
    fn allowlisted_types_pass_with_justification() {
        let src = "
            impl FrameAllocator {
                pub fn alloc_page(&mut self) -> u64 { 0 }
            }
        ";
        let a = analysis_from(&[
            ("crates/vm/src/frame.rs", src),
            ("crates/mmu/src/engine.rs", ENGINE),
        ]);
        assert_eq!(audit_invariant_annotations(&a).violations, Vec::new());
    }

    #[test]
    fn missing_engine_wiring_is_flagged() {
        let a = analysis_from(&[(
            "crates/mmu/src/engine.rs",
            "impl Machine { pub fn finish(&mut self) { invariant!(true) } }",
        )]);
        let audit = audit_invariant_annotations(&a);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.message.contains("debug_check_window")));
        assert!(audit
            .violations
            .iter()
            .any(|v| v.message.contains("self.check_invariants()")));
    }

    #[test]
    fn other_crates_are_out_of_scope() {
        let src = "
            impl Unrelated {
                pub fn mutate(&mut self) { self.n += 1 }
            }
        ";
        let a = analysis_from(&[
            ("crates/stats/src/lib.rs", src),
            ("crates/mmu/src/engine.rs", ENGINE),
        ]);
        assert_eq!(audit_invariant_annotations(&a).violations, Vec::new());
    }
}
