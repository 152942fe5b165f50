//! The machine-readable `analysis_report.json` artifact, written with the
//! workspace's vendored `serde_json`. Schema (`atscale-analyze/v2`):
//!
//! ```json
//! {
//!   "schema": "atscale-analyze/v2",
//!   "rules": [{"rule": "...", "checked": 0,
//!              "violations": [{"rule": "...", "file": "...", "message": "..."}]}],
//!   "determinism": {
//!     "sinks": ["RunStore::save", ...],
//!     "tainted": ["Scheduler::worker_loop", ...],
//!     "allows": [{"file": "...", "line": 0, "tag": "...", "justification": "..."}]
//!   },
//!   "locks": {
//!     "declared": ["Scheduler.state", ...],
//!     "edges": [{"from": "...", "to": "...", "file": "...", "line": 0}],
//!     "cycles": [["A", "B", "A"]]
//!   },
//!   "panics": {
//!     "roots": ["Scheduler::worker_loop", ...],
//!     "sites": [{"function": "...", "file": "...", "line": 0, "kind": "...", "allowed": true}],
//!     "contained": 0
//!   }
//! }
//! ```
//!
//! Arrays are emitted in deterministic (sorted or source) order, so the
//! artifact diffs cleanly between CI runs.

use crate::AnalysisOutcome;

/// The report's schema tag.
pub const SCHEMA: &str = "atscale-analyze/v2";

impl AnalysisOutcome {
    /// Renders the full JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("the report is plain strings, numbers and arrays")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{
        AllowRecord, DeterminismReport, LockEdge, LockReport, PanicReport, PanicSiteRecord,
    };
    use crate::Audit;
    use serde::{Serialize, Value};

    #[test]
    fn report_renders_valid_shape_and_escapes() {
        let mut audit = Audit::new("determinism-taint");
        audit.fail("f.rs", "say \"no\"");
        let outcome = AnalysisOutcome {
            schema: SCHEMA,
            rules: vec![audit],
            determinism: DeterminismReport {
                sinks: vec!["RunStore::save".to_string()],
                tainted: vec!["a".to_string(), "b\"quote".to_string()],
                allows: vec![AllowRecord {
                    file: "crates/x/src/lib.rs".to_string(),
                    line: 3,
                    tag: "determinism".to_string(),
                    justification: "wall\tclock".to_string(),
                }],
            },
            locks: LockReport {
                declared: vec!["S.state".to_string()],
                edges: vec![LockEdge {
                    from: "S.state".to_string(),
                    to: "static G".to_string(),
                    file: "f.rs".to_string(),
                    line: 9,
                }],
                cycles: vec![],
            },
            panics: PanicReport {
                roots: vec!["worker_loop".to_string()],
                sites: vec![PanicSiteRecord {
                    function: "f".to_string(),
                    file: "f.rs".to_string(),
                    line: 1,
                    kind: ".unwrap()".to_string(),
                    allowed: false,
                }],
                contained: 7,
            },
        };
        let json = outcome.to_json();
        assert!(json.starts_with(r#"{"schema":"atscale-analyze/v2","rules":[{"rule":"#));
        assert!(json.contains(r#""b\"quote""#) && json.contains(r#""wall\tclock""#));
        // It parses back to exactly the document it was written from.
        let doc: Value = serde_json::from_str(&json).expect("the report is valid JSON");
        assert_eq!(doc, outcome.to_value());
    }
}
