//! # atscale-audit — workspace static-analysis pass
//!
//! A self-contained consistency checker for the atscale workspace, run in
//! CI as `cargo run -p atscale-audit`. It enforces five rules that rustc,
//! clippy and the type system cannot express, in this order (numbered as
//! introduced; each module documents its rule, DESIGN.md §14 the whole):
//!
//! 2. [`audit_invariant_annotations`] — public state mutators in `vm`,
//!    `cache` and `mmu` are covered by the debug-build invariant layer, and
//!    the layer stays wired into the MMU engine;
//! 6. [`audit_hot_path_allocation`] — the per-access modules do not
//!    allocate or format outside `#[cold]` fns, constructors and panic
//!    messages;
//! 8. [`passes::determinism_taint`], 9. [`passes::lock_discipline`] and
//!    10. [`passes::panic_surface`] — the call-graph passes. Each of them
//!    honours a justified `// analyze:allow(tag): why` and fails on one
//!    without the why.
//!
//! All of them read one front end: each Rust source under `crates/` is
//! lexed once ([`lex`]) into a token stream and an item model ([`model`]),
//! which also feed the call graph ([`graph`]). The audit reads no other
//! file. The offline build vendors no `syn`, so the model reads only the
//! shapes under audit (impl headers, `fn` signatures, attributes, calls),
//! which rustfmt keeps canonical. Every rule is pinned by the golden
//! fixture corpus under `tests/fixtures/`, positive and negative per rule.
//! The workspace lint policy (`[lints]` opt-ins, `forbid(unsafe_code)`
//! roots) is textual and is checked by a CI step, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod hotpath;
pub mod invariants;
pub mod lex;
pub mod model;
pub mod passes;
pub mod report;

pub use hotpath::audit_hot_path_allocation;
pub use invariants::audit_invariant_annotations;

use serde::Serialize;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// One audited source file, held in memory.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Raw file contents.
    pub text: String,
}

/// The loaded workspace: every Rust source under `crates/`.
#[derive(Debug)]
pub struct Workspace {
    /// Filesystem root the files were loaded from.
    pub root: PathBuf,
    /// All loaded files.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Loads every `.rs` file under `root/crates/`, skipping build output
    /// and the fixture corpus.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut files = Vec::new();
        collect(root, &root.join("crates"), &mut files)?;
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
        })
    }
}

/// Recursively collects `.rs` files under `dir`.
fn collect(root: &Path, dir: &Path, files: &mut Vec<SourceFile>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures/` holds the golden corpus for the analysis passes —
            // deliberately-violating sources that must not be audited as
            // workspace code.
            if name != "target" && name != "fixtures" && !name.starts_with('.') {
                collect(root, &path, files)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(&path)?;
            files.push(SourceFile { path: rel, text });
        }
    }
    Ok(())
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Violation {
    /// The rule that fired (e.g. `panic-surface`).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// Human-readable description of the defect.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.rule, self.file, self.message)
    }
}

/// The outcome of one rule: how many individual checks ran and which failed.
#[derive(Debug, Serialize)]
pub struct Audit {
    /// The rule's name.
    pub rule: &'static str,
    /// Number of individual checks executed.
    pub checked: usize,
    /// Checks that failed.
    pub violations: Vec<Violation>,
}

impl Audit {
    /// Starts an empty tally for `rule`.
    pub fn new(rule: &'static str) -> Self {
        Audit {
            rule,
            checked: 0,
            violations: Vec::new(),
        }
    }

    /// Records one executed check.
    pub fn check(&mut self) {
        self.checked += 1;
    }

    /// Records a failed check.
    pub fn fail(&mut self, file: impl Into<String>, message: impl Into<String>) {
        self.violations.push(Violation {
            rule: self.rule,
            file: file.into(),
            message: message.into(),
        });
    }
}

/// The outcome of a full analysis run: the per-rule audits plus the pass
/// data. Serialized, it is the `analysis_report.json` document
/// ([`report`]).
#[derive(Debug, Serialize)]
pub struct AnalysisOutcome {
    /// The document's schema tag, [`report::SCHEMA`].
    pub schema: &'static str,
    /// Per-rule outcomes, in the order above.
    pub rules: Vec<Audit>,
    /// Determinism-taint pass output.
    pub determinism: passes::DeterminismReport,
    /// Lock-discipline pass output.
    pub locks: passes::LockReport,
    /// Panic-surface pass output.
    pub panics: passes::PanicReport,
}

/// Runs every rule on one lexed model of the workspace and returns the
/// audits together with the report data.
pub fn run_full(ws: &Workspace) -> AnalysisOutcome {
    let analysis = graph::Analysis::build(ws);
    let (det_audit, determinism) = passes::determinism_taint(&analysis);
    let (lock_audit, locks) = passes::lock_discipline(&analysis);
    let (panic_audit, panics) = passes::panic_surface(&analysis);
    let rules = vec![
        audit_invariant_annotations(&analysis),
        audit_hot_path_allocation(&analysis),
        det_audit,
        lock_audit,
        panic_audit,
    ];
    AnalysisOutcome {
        schema: report::SCHEMA,
        rules,
        determinism,
        locks,
        panics,
    }
}

/// Runs every rule and returns the per-rule outcomes.
pub fn run_all(ws: &Workspace) -> Vec<Audit> {
    run_full(ws).rules
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::{graph::Analysis, SourceFile, Workspace};
    use std::path::PathBuf;

    /// Builds an in-memory workspace from `(path, contents)` pairs — the
    /// doctored-source harness the negative tests feed.
    pub fn workspace_from(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            root: PathBuf::from("<memory>"),
            files: files
                .iter()
                .map(|(p, t)| SourceFile {
                    path: (*p).to_string(),
                    text: (*t).to_string(),
                })
                .collect(),
        }
    }

    /// The analysis of [`workspace_from`]'s workspace.
    pub fn analysis_from(files: &[(&str, &str)]) -> Analysis {
        Analysis::build(&workspace_from(files))
    }
}
