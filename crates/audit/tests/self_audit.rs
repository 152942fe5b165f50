//! The audit's acceptance tests, run against the *real* workspace.
//!
//! The positive half pins the contract: the shipped tree has zero
//! violations, and `run_full` runs exactly the seven rules, so a rule
//! dropped by accident fails here. The negative half doctors the real tree
//! in memory and asserts the rules still trip on it.

use atscale_audit::{run_all, run_full, SourceFile, Workspace};
use std::path::Path;

fn real_workspace() -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    Workspace::load(&root).expect("workspace loads")
}

#[test]
fn the_shipped_workspace_is_clean() {
    let ws = real_workspace();
    for audit in run_all(&ws) {
        assert!(
            audit.violations.is_empty(),
            "rule `{}` found violations:\n{}",
            audit.rule,
            audit
                .violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(audit.checked > 0, "rule `{}` ran no checks", audit.rule);
    }
}

#[test]
fn run_full_runs_exactly_the_seven_rules_in_order() {
    let rules: Vec<&str> = run_full(&real_workspace())
        .rules
        .iter()
        .map(|a| a.rule)
        .collect();
    assert_eq!(
        rules,
        [
            "invariant-annotation",
            "lint-wiring",
            "hot-path-allocation",
            "determinism-taint",
            "lock-discipline",
            "panic-surface",
            "analyze-allowlist",
        ]
    );
}

#[test]
fn the_analysis_passes_are_not_vacuous() {
    // A clean audit is only meaningful if the passes actually found their
    // anchors in the real tree: the determinism sinks resolved, functions
    // are tainted by them, locks were discovered, and the panic roots
    // exist with real catch_unwind containment behind them. If a rename
    // silently broke an anchor, the passes would pass on an empty graph.
    let outcome = run_full(&real_workspace());
    let r = &outcome;
    assert!(
        r.determinism.sinks.len() >= 2,
        "determinism sinks did not resolve: {:?}",
        r.determinism.sinks
    );
    assert!(
        r.determinism.tainted.len() >= 5,
        "almost nothing reaches the determinism sinks: {:?}",
        r.determinism.tainted
    );
    assert!(
        !r.determinism.allows.is_empty(),
        "the tree carries determinism allows; the pass saw none"
    );
    assert!(
        r.locks.declared.iter().any(|l| l.contains("SchedState"))
            || r.locks.declared.iter().any(|l| l.contains("Scheduler")),
        "the scheduler state lock was not discovered: {:?}",
        r.locks.declared
    );
    assert!(
        !r.locks.edges.is_empty(),
        "no lock-order edges found — nested acquisition exists in the tree"
    );
    assert!(r.locks.cycles.is_empty(), "cycles: {:?}", r.locks.cycles);
    assert!(
        !r.panics.roots.is_empty(),
        "no panic roots resolved — the worker/connection entry points moved"
    );
    assert!(
        r.panics.contained > 0,
        "no panic site is contained by catch_unwind — the containment \
         detection or the scheduler boundary broke"
    );
}

#[test]
fn removing_the_lint_opt_in_is_caught() {
    let mut ws = real_workspace();
    let file = ws
        .files
        .iter_mut()
        .find(|f| f.path == "crates/mmu/Cargo.toml")
        .expect("mmu manifest present");
    file.text = file.text.replace("[lints]\nworkspace = true", "");
    let violations: Vec<String> = run_all(&ws)
        .into_iter()
        .flat_map(|a| a.violations)
        .map(|v| v.to_string())
        .collect();
    assert!(
        violations
            .iter()
            .any(|v| v.contains("crates/mmu/Cargo.toml") && v.contains("[lints]")),
        "missing lint-wiring violation in {violations:?}"
    );
}

#[test]
fn an_uncovered_state_mutator_is_caught() {
    let mut ws = real_workspace();
    ws.files.push(SourceFile {
        path: "crates/mmu/src/rogue.rs".to_string(),
        text: "impl RogueState { pub fn mutate(&mut self) { self.n += 1; } }".to_string(),
    });
    let violations: Vec<String> = run_all(&ws)
        .into_iter()
        .flat_map(|a| a.violations)
        .map(|v| v.to_string())
        .collect();
    assert!(
        violations.iter().any(|v| v.contains("RogueState::mutate")),
        "missing invariant-annotation violation in {violations:?}"
    );
}

#[test]
fn the_tree_carries_exactly_five_determinism_allows() {
    // Each determinism allow lets nondeterminism touch a path to a record,
    // its key or a telemetry sample. Pinning the count keeps a new one
    // from landing silently: raise it only for an allow that meets the bar
    // in DESIGN §14.4.
    let outcome = run_full(&real_workspace());
    let allows: Vec<String> = outcome
        .determinism
        .allows
        .iter()
        .filter(|a| a.tag == "determinism" && !a.file.starts_with("crates/audit/"))
        .map(|a| format!("{}:{}: {}", a.file, a.line, a.justification))
        .collect();
    assert_eq!(allows.len(), 5, "{allows:#?}");
}

#[test]
fn uncontained_compaction_is_caught() {
    // The daemon compacts on a reactor thread inside `catch_unwind`.
    // Without it, every panic site under `SegmentStore::compact` would
    // unwind a reactor shard, and panic-surface must say so.
    let mut ws = real_workspace();
    let file = ws
        .files
        .iter_mut()
        .find(|f| f.path == "crates/serve/src/server.rs")
        .expect("server.rs present");
    let contained = "std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.compact()))";
    assert!(file.text.contains(contained), "Compact arm moved");
    file.text = file.text.replace(contained, "Ok(store.compact())");
    let found = run_all(&ws)
        .into_iter()
        .flat_map(|a| a.violations)
        .any(|v| v.rule == "panic-surface" && v.message.contains("`SegmentStore::compact`"));
    assert!(found, "panic-surface missed uncontained compaction");
}
