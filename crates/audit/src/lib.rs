//! # atscale-audit — workspace static-analysis pass
//!
//! A self-contained consistency checker for the atscale workspace, run in
//! CI as `cargo run -p atscale-audit`. It enforces seven rules that rustc,
//! clippy and the type system cannot express — three text-scan rules plus
//! four passes built on the `atscale-analyze` lexer/call-graph engine (see
//! [`lex`], [`model`], [`graph`], [`passes`] and DESIGN.md §14). Rules keep
//! the numbers they were introduced under:
//!
//! 2. **Invariant annotations** ([`audit_invariant_annotations`]) — every
//!    public mutator of counter/TLB/cache state in `atscale-vm`,
//!    `atscale-cache`, and `atscale-mmu` is covered by the debug-build
//!    invariant layer (`CheckInvariants` impl, inline `invariant!` checks,
//!    or the documented indirect-coverage allowlist), and the layer stays
//!    wired into the MMU engine's hot paths.
//! 3. **Lint wiring** ([`audit_lint_wiring`]) — the `[workspace.lints]`
//!    policy exists, every member crate opts in, and every crate root
//!    carries `#![forbid(unsafe_code)]`. One documented FFI exception:
//!    `crates/serve` (the raw `epoll`/`eventfd` reactor shim) must carry
//!    `#![deny(unsafe_code)]` at its root instead, and any
//!    `allow(unsafe_code)` / `unsafe` token inside that crate may appear
//!    only in its syscall shim module `src/sys.rs`.
//! 6. **Hot-path allocation freedom** ([`audit_hot_path_allocation`]) — the
//!    per-access modules (MMU engine, TLB arrays, walker, set-associative
//!    cache) contain no allocating or formatting calls outside `#[cold]`
//!    functions, constructors, and panic messages, so the throughput the
//!    perf gate defends cannot be eroded by a stray `format!`.
//! 8. **Determinism taint** ([`passes::determinism_taint`]) — no
//!    wall-clock, thread-identity, environment, entropy, or
//!    `HashMap`/`HashSet` iteration in any function that can reach
//!    `RunRecord` serialization (`RunStore::save`/`key`) or the telemetry
//!    JSONL stream (`TelemetrySink::sample`).
//! 9. **Lock discipline** ([`passes::lock_discipline`]) — the
//!    lock-acquisition order graph must be acyclic, and locks held across
//!    blocking I/O are flagged.
//! 10. **Panic surface** ([`passes::panic_surface`]) — panic-capable sites
//!     reachable from the server worker/connection threads must be
//!     contained by the scheduler's `catch_unwind` boundary.
//! 11. **Exemption audit** ([`passes::allow_exemptions`]) — every
//!     `// analyze:allow(tag): why` carries a known tag and a
//!     justification, and determinism allows match `ANALYZE_ALLOWLIST.md`
//!     bidirectionally.
//!
//! Rules 1, 4, 5 and 7 (counter, telemetry, protocol and fault-site
//! coverage) are gone: `counters!` and `fault_sites!` declarations, an
//! exhaustive frame `match` and the chaos matrix now make what they
//! scanned for true by construction or checked by a test (DESIGN §14).
//!
//! The text-scan rules work on comment-stripped source with a small brace
//! matcher (see [`source`]) rather than a full parser: the offline build
//! vendors no `syn`, and the shapes under audit — impl headers, `pub fn`
//! signatures, manifests — are kept canonical by rustfmt. The call-graph
//! passes work on the lexed token stream and a name-resolved call graph;
//! resolution over-approximates (the safe direction for taint and panic
//! analysis), with the precision filters documented in [`graph`]. Every
//! rule is pinned by the golden fixture corpus under `tests/fixtures/` —
//! exact expected-findings snapshots, positive and negative per rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod hotpath;
pub mod invariants;
pub mod lex;
pub mod lints;
pub mod model;
pub mod passes;
pub mod report;
pub mod source;

pub use hotpath::audit_hot_path_allocation;
pub use invariants::audit_invariant_annotations;
pub use lints::audit_lint_wiring;

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// One audited source file, held in memory with a pre-stripped copy.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Raw file contents.
    pub text: String,
    /// Comment-stripped contents for `.rs` files (identical to `text`
    /// otherwise).
    pub stripped: String,
    /// Code-only view for `.rs` files: comments *and* the contents of
    /// string/char literals blanked, so pattern scans cannot be tripped by
    /// text inside messages (identical to `text` otherwise).
    pub code: String,
}

impl SourceFile {
    /// Builds a file entry, stripping comments when the path is Rust source.
    pub fn new(path: String, text: String) -> Self {
        let (stripped, code) = if path.ends_with(".rs") {
            (
                source::strip_comments(&text),
                source::strip_comments_and_literals(&text),
            )
        } else {
            (text.clone(), text.clone())
        };
        SourceFile {
            path,
            text,
            stripped,
            code,
        }
    }
}

/// The loaded workspace: root manifest plus everything under `crates/`.
#[derive(Debug)]
pub struct Workspace {
    /// Filesystem root the files were loaded from.
    pub root: PathBuf,
    /// All loaded files.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Loads the root `Cargo.toml` and every `.rs` / `Cargo.toml` under
    /// `root/crates/`, skipping build output.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut files = Vec::new();
        let root_manifest = root.join("Cargo.toml");
        files.push(SourceFile::new(
            "Cargo.toml".to_string(),
            std::fs::read_to_string(&root_manifest)?,
        ));
        // The determinism-exemption allowlist lives at the workspace root;
        // absent is fine (the exemption audit then requires zero allows).
        if let Ok(text) = std::fs::read_to_string(root.join("ANALYZE_ALLOWLIST.md")) {
            files.push(SourceFile::new("ANALYZE_ALLOWLIST.md".to_string(), text));
        }
        collect(root, &root.join("crates"), &mut files)?;
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
        })
    }

    /// The file whose workspace-relative path ends with `suffix`.
    pub fn file(&self, suffix: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| {
            f.path == suffix || f.path.ends_with(&format!("/{suffix}")) || f.path.ends_with(suffix)
        })
    }

    /// All Rust sources.
    pub fn rust_sources(&self) -> impl Iterator<Item = &SourceFile> {
        self.files.iter().filter(|f| f.path.ends_with(".rs"))
    }

    /// Member-crate manifests (`crates/*/Cargo.toml`).
    pub fn crate_manifests(&self) -> impl Iterator<Item = &SourceFile> {
        self.files
            .iter()
            .filter(|f| f.path.starts_with("crates/") && f.path.ends_with("/Cargo.toml"))
    }

    /// Each member crate's root source file: `src/lib.rs`, or `src/main.rs`
    /// for binary-only crates.
    pub fn crate_roots(&self) -> Vec<&SourceFile> {
        self.crate_manifests()
            .filter_map(|m| {
                let dir = m.path.trim_end_matches("/Cargo.toml");
                self.file(&format!("{dir}/src/lib.rs"))
                    .or_else(|| self.file(&format!("{dir}/src/main.rs")))
            })
            .collect()
    }
}

/// Recursively collects `.rs` and `Cargo.toml` files under `dir`.
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
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(SourceFile::new(rel, std::fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule that fired (e.g. `lint-wiring`).
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
#[derive(Debug)]
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

/// The outcome of a full analysis run: per-rule audits plus the report
/// data behind `analysis_report.json`.
#[derive(Debug)]
pub struct AnalysisOutcome {
    /// Per-rule outcomes, legacy rules first, then the call-graph passes.
    pub audits: Vec<Audit>,
    /// Machine-readable report data.
    pub report: report::Report,
}

/// Runs every rule — the three text-scan rules plus the four call-graph
/// passes — and returns the audits together with the report data.
pub fn run_full(ws: &Workspace) -> AnalysisOutcome {
    let analysis = graph::Analysis::build(ws);
    let (det_audit, determinism) = passes::determinism_taint(&analysis);
    let (lock_audit, locks) = passes::lock_discipline(&analysis);
    let (panic_audit, panics) = passes::panic_surface(&analysis);
    let allow_audit = passes::allow_exemptions(ws, &analysis);
    let audits = vec![
        audit_invariant_annotations(ws),
        audit_lint_wiring(ws),
        audit_hot_path_allocation(ws),
        det_audit,
        lock_audit,
        panic_audit,
        allow_audit,
    ];
    AnalysisOutcome {
        audits,
        report: report::Report {
            determinism,
            locks,
            panics,
        },
    }
}

/// Runs every rule and returns the per-rule outcomes.
pub fn run_all(ws: &Workspace) -> Vec<Audit> {
    run_full(ws).audits
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::{SourceFile, Workspace};
    use std::path::PathBuf;

    /// Builds an in-memory workspace from `(path, contents)` pairs — the
    /// doctored-source harness the negative tests feed.
    pub fn workspace_from(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            root: PathBuf::from("<memory>"),
            files: files
                .iter()
                .map(|(p, t)| SourceFile::new((*p).to_string(), (*t).to_string()))
                .collect(),
        }
    }
}
