//! CLI JSONL schema validator: `telemetry_validate <stream.jsonl>...`.
//!
//! Reports **every** schema violation in each stream (not just the first)
//! and exits 1 if any stream has one or cannot be read, so CI can gate the
//! telemetry smoke jobs on emitted streams staying well-formed, and a
//! schema diff is debuggable in a single run. No path at all is a bad
//! command line: usage, exit 2.

#![forbid(unsafe_code)]

use atscale_telemetry::schema::validate_stream_all;
use atscale_telemetry::SCHEMA_VERSION;
use std::process::ExitCode;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: telemetry_validate <stream.jsonl>...");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        let (summary, violations) = validate_stream_all(&text);
        if violations.is_empty() {
            let counts: Vec<String> = summary
                .by_type
                .iter()
                .map(|(t, n)| format!("{t}={n}"))
                .collect();
            println!(
                "{path}: OK (schema v{SCHEMA_VERSION}, {} events: {})",
                summary.lines,
                counts.join(" ")
            );
        } else {
            for (line, msg) in &violations {
                eprintln!("{path}:{line}: schema violation: {msg}");
            }
            eprintln!("{path}: {} violation(s)", violations.len());
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
