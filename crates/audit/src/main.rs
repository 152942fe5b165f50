//! CLI entry point: `cargo run -p atscale-audit [workspace-root] [--report PATH]`.
//!
//! Exits non-zero when any rule reports a violation, so CI can gate on
//! it. `--report PATH` additionally writes the machine-readable
//! `analysis_report.json` (see [`atscale_audit::report`]).

#![forbid(unsafe_code)]

use atscale_audit::{run_full, Workspace};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--report" => match args.next() {
                Some(p) => report_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("atscale-audit: --report requires a path");
                    return ExitCode::FAILURE;
                }
            },
            _ if root.is_none() => root = Some(PathBuf::from(arg)),
            _ => {
                eprintln!("atscale-audit: unexpected argument `{arg}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let root = root.unwrap_or_else(find_workspace_root);
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!(
                "atscale-audit: cannot load workspace at {}: {e}",
                root.display()
            );
            return ExitCode::FAILURE;
        }
    };
    println!(
        "atscale-audit: scanning {} files under {}",
        ws.files.len(),
        ws.root.display()
    );
    let outcome = run_full(&ws);
    let mut failed = false;
    for audit in &outcome.rules {
        println!(
            "  {:<22} {:>3} checks, {} violation{}",
            audit.rule,
            audit.checked,
            audit.violations.len(),
            if audit.violations.len() == 1 { "" } else { "s" }
        );
        failed |= !audit.violations.is_empty();
    }
    for audit in &outcome.rules {
        for v in &audit.violations {
            eprintln!("{v}");
        }
    }
    if let Some(path) = report_path {
        let json = outcome.to_json();
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("atscale-audit: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("atscale-audit: report written to {}", path.display());
    }
    if failed {
        eprintln!("atscale-audit: FAILED");
        ExitCode::FAILURE
    } else {
        println!("atscale-audit: OK");
        ExitCode::SUCCESS
    }
}

/// Walks upward from the current directory to the first `Cargo.toml`
/// declaring `[workspace]`, falling back to the compile-time layout.
fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            // `crates/audit` → workspace root, resolved at compile time.
            return PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
        }
    }
}
