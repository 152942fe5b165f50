//! The golden fixture corpus: every lint is pinned by positive fixtures
//! (deliberately-violating sources with exact expected findings) and
//! negative fixtures (near-miss sources that must stay clean).
//!
//! Each directory under `tests/fixtures/` is one case. Every file in it
//! except `expected.txt` becomes one workspace file; the workspace path is
//! the filename with `__` decoded to `/` (so `crates__serve__src__x.rs`
//! lands at `crates/serve/src/x.rs` — directives inside the sources would
//! shift line numbers, filenames don't). `expected.txt` starts with a
//! `#!rules: a,b` header naming the rules to run, followed by the exact
//! `Violation` display strings the case must produce — nothing more
//! (false positives fail the corpus), nothing less (false negatives too).

use atscale_audit::graph::Analysis;
use atscale_audit::{audit_hot_path_allocation, audit_invariant_annotations, audit_lint_wiring};
use atscale_audit::{passes, Audit, SourceFile, Workspace};
use std::fs;
use std::path::{Path, PathBuf};

/// Every rule `run_full` runs, in its order.
const RULES: [&str; 7] = [
    "invariant-annotation",
    "lint-wiring",
    "hot-path-allocation",
    "determinism-taint",
    "lock-discipline",
    "panic-surface",
    "analyze-allowlist",
];

fn run_rule(rule: &str, ws: &Workspace, a: &Analysis) -> Audit {
    match rule {
        "invariant-annotation" => audit_invariant_annotations(a),
        "lint-wiring" => audit_lint_wiring(ws, a),
        "hot-path-allocation" => audit_hot_path_allocation(a),
        "determinism-taint" => passes::determinism_taint(a).0,
        "lock-discipline" => passes::lock_discipline(a).0,
        "panic-surface" => passes::panic_surface(a).0,
        "analyze-allowlist" => passes::allow_exemptions(a),
        other => panic!("unknown rule `{other}` in a fixture header"),
    }
}

fn case_dirs() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut dirs: Vec<PathBuf> = fs::read_dir(&root)
        .expect("tests/fixtures exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    assert!(!dirs.is_empty(), "fixture corpus is empty");
    dirs
}

fn run_case(dir: &Path) -> Result<(), String> {
    let mut files = Vec::new();
    let mut expected_text = None;
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .expect("case dir readable")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().expect("file name").to_string_lossy();
        let text = fs::read_to_string(&path).expect("fixture file readable");
        if name == "expected.txt" {
            expected_text = Some(text);
        } else {
            files.push(SourceFile {
                path: name.replace("__", "/"),
                text,
            });
        }
    }
    let expected_text = expected_text.expect("case has an expected.txt");
    let mut lines = expected_text.lines();
    let rules: Vec<&str> = lines
        .next()
        .and_then(|h| h.strip_prefix("#!rules:"))
        .expect("expected.txt starts with `#!rules: ...`")
        .split(',')
        .map(str::trim)
        .filter(|r| !r.is_empty())
        .collect();
    assert!(!rules.is_empty(), "{}: no rules named", dir.display());
    let mut want: Vec<String> = lines
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect();
    let ws = Workspace {
        root: dir.to_path_buf(),
        files,
    };
    let analysis = Analysis::build(&ws);
    let mut got = Vec::new();
    for rule in rules {
        let audit = run_rule(rule, &ws, &analysis);
        assert!(
            audit.checked > 0,
            "{}: rule `{rule}` ran no checks",
            dir.display()
        );
        got.extend(audit.violations.iter().map(ToString::to_string));
    }
    got.sort();
    want.sort();
    if got == want {
        return Ok(());
    }
    let missing: Vec<&String> = want.iter().filter(|w| !got.contains(w)).collect();
    let extra: Vec<&String> = got.iter().filter(|g| !want.contains(g)).collect();
    Err(format!(
        "case {}:\n  false negatives (expected, not found):\n{}\n  \
         false positives (found, not expected):\n{}",
        dir.display(),
        missing
            .iter()
            .map(|m| format!("    {m}"))
            .collect::<Vec<_>>()
            .join("\n"),
        extra
            .iter()
            .map(|e| format!("    {e}"))
            .collect::<Vec<_>>()
            .join("\n"),
    ))
}

#[test]
fn golden_fixture_corpus() {
    let mut failures = Vec::new();
    for dir in case_dirs() {
        if let Err(report) = run_case(&dir) {
            failures.push(report);
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n\n"));
}

#[test]
fn every_lint_has_positive_and_negative_coverage() {
    // The corpus must stay two-sided: for every rule exercised anywhere,
    // at least one case expects findings from it and at least one case
    // runs it expecting none.
    let mut has_positive = std::collections::BTreeMap::new();
    let mut has_negative = std::collections::BTreeMap::new();
    for dir in case_dirs() {
        let text = fs::read_to_string(dir.join("expected.txt")).expect("expected.txt");
        let mut lines = text.lines();
        let rules: Vec<String> = lines
            .next()
            .and_then(|h| h.strip_prefix("#!rules:"))
            .expect("header")
            .split(',')
            .map(|r| r.trim().to_string())
            .collect();
        let findings: Vec<&str> = lines
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .collect();
        for rule in rules {
            let fired = findings.iter().any(|f| f.starts_with(&format!("[{rule}]")));
            if fired {
                has_positive.insert(rule, true);
            } else {
                has_negative.insert(rule, true);
            }
        }
    }
    for rule in RULES {
        assert!(
            has_positive.contains_key(rule),
            "no positive fixture for `{rule}`"
        );
        assert!(
            has_negative.contains_key(rule),
            "no negative fixture for `{rule}`"
        );
    }
}
