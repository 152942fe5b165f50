//! The telemetry sink: in-memory aggregation plus an optional JSONL event
//! stream.

use crate::{LatencyMetric, LogHistogram, Progress, Sample};
use parking_lot::Mutex;
use serde::{Serialize, Value};
use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// JSONL schema version emitted in the `meta` event and checked by the
/// schema validator.
///
/// Version history: 1 — initial stream; 2 — added the `fault` event
/// (deterministic fault-injection observations from chaos runs); 3 —
/// every event carries a `source` tag; 4 — the `span` event,
/// `summary.spans` and the `source` tag are gone.
pub const SCHEMA_VERSION: u64 = 4;

struct JsonlWriter {
    path: PathBuf,
    file: BufWriter<File>,
    write_errors: u64,
}

impl JsonlWriter {
    fn write_event(&mut self, value: &Value) {
        let mut line = serde_json::to_string(value).unwrap_or_default();
        line.push('\n');
        if self.file.write_all(line.as_bytes()).is_err() {
            self.write_errors += 1;
        }
    }
}

#[derive(Default)]
struct SinkState {
    hists: Vec<LogHistogram>,
    samples: usize,
    /// Distinct run labels among the samples.
    runs: BTreeSet<String>,
    progress_events: u64,
    fault_events: u64,
    jsonl: Option<JsonlWriter>,
    finished: bool,
}

/// The standard telemetry sink: aggregates latency histograms and counts
/// sampled series in memory, optionally streaming every event as a JSON
/// line.
///
/// All mutation happens under one internal lock; the instrumented hot
/// paths only reach it on walk-level events and per-interval samples, not
/// per instruction.
pub struct TelemetrySink {
    state: Mutex<SinkState>,
}

impl std::fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("TelemetrySink")
            .field("samples", &state.samples)
            .field("progress_events", &state.progress_events)
            .field("jsonl", &state.jsonl.as_ref().map(|j| j.path.clone()))
            .finish_non_exhaustive()
    }
}

impl Default for TelemetrySink {
    fn default() -> Self {
        Self::new()
    }
}

/// One event: `type`, the `head` fields, then `body`'s fields when it is
/// a map.
fn tagged(event_type: &str, head: Vec<(String, Value)>, body: Value) -> Value {
    let mut entries = vec![("type".to_string(), Value::Str(event_type.to_string()))];
    entries.extend(head);
    if let Value::Map(fields) = body {
        entries.extend(fields);
    }
    Value::Map(entries)
}

impl TelemetrySink {
    /// An in-memory sink with no JSONL stream.
    pub fn new() -> TelemetrySink {
        TelemetrySink {
            state: Mutex::new(SinkState {
                hists: vec![LogHistogram::new(); LatencyMetric::ALL.len()],
                ..SinkState::default()
            }),
        }
    }

    /// Attaches a JSONL stream at `path` (parent directories are created)
    /// and writes the `meta` header event.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created.
    pub fn with_jsonl(self, path: impl AsRef<Path>) -> std::io::Result<TelemetrySink> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut writer = JsonlWriter {
            file: BufWriter::new(File::create(&path)?),
            path,
            write_errors: 0,
        };
        writer.write_event(&tagged(
            "meta",
            vec![
                ("schema".to_string(), Value::U64(SCHEMA_VERSION)),
                (
                    "stream".to_string(),
                    Value::Str("atscale-telemetry".to_string()),
                ),
            ],
            Value::Null,
        ));
        self.state.lock().jsonl = Some(writer);
        Ok(self)
    }

    /// Snapshot of one latency histogram.
    pub fn histogram(&self, metric: LatencyMetric) -> LogHistogram {
        self.state.lock().hists[metric.index()].clone()
    }

    /// Number of samples delivered so far.
    pub fn sample_count(&self) -> usize {
        self.state.lock().samples
    }

    /// Number of progress events delivered so far.
    pub fn progress_count(&self) -> u64 {
        self.state.lock().progress_events
    }

    /// Records one injected-fault firing (from a chaos-test
    /// `FaultPlan` observer): `site` is the fault-site name, `hit` the
    /// site-local arrival ordinal that fired.
    pub fn fault(&self, site: &str, hit: u64) {
        let mut state = self.state.lock();
        state.fault_events += 1;
        let event = tagged(
            "fault",
            vec![
                ("site".to_string(), Value::Str(site.to_string())),
                ("hit".to_string(), Value::U64(hit)),
            ],
            Value::Null,
        );
        if let Some(writer) = state.jsonl.as_mut() {
            // analyze:allow(lock-io): JSONL events are written under the state lock so the stream order is total; the writer is buffered
            writer.write_event(&event);
        }
    }

    /// Number of fault events delivered so far.
    pub fn fault_count(&self) -> u64 {
        self.state.lock().fault_events
    }

    /// Finalizes the stream: emits `hist` events for every non-empty
    /// metric and a trailing `summary` event, then flushes. Idempotent —
    /// only the first call writes. Returns the JSONL path, if streaming
    /// was enabled.
    pub fn finish(&self) -> Option<PathBuf> {
        let mut state = self.state.lock();
        let path = state.jsonl.as_ref().map(|j| j.path.clone());
        if state.finished {
            return path;
        }
        state.finished = true;
        let hist_events: Vec<Value> = LatencyMetric::ALL
            .into_iter()
            .filter(|m| !state.hists[m.index()].is_empty())
            .map(|m| {
                tagged(
                    "hist",
                    vec![
                        ("metric".to_string(), Value::Str(m.name().to_string())),
                        ("unit".to_string(), Value::Str(m.unit().to_string())),
                    ],
                    state.hists[m.index()].snapshot().to_value(),
                )
            })
            .collect();
        let summary = tagged(
            "summary",
            vec![
                ("samples".to_string(), Value::U64(state.samples as u64)),
                ("progress".to_string(), Value::U64(state.progress_events)),
            ],
            Value::Null,
        );
        if let Some(writer) = state.jsonl.as_mut() {
            for event in &hist_events {
                // analyze:allow(lock-io): finalization writes under the state lock so no sample can interleave into the hist/summary tail
                writer.write_event(event);
            }
            // analyze:allow(lock-io): the summary must be the last event before the flush; the lock guarantees that ordering
            writer.write_event(&summary);
            // analyze:allow(lock-io): final flush of a finished stream — nothing else will take this lock for writing afterwards
            let _ = writer.file.flush();
        }
        path
    }

    /// Renders the human `--telemetry-summary` report: one line per
    /// non-empty latency histogram, then the sample and progress counts.
    pub fn summary(&self) -> String {
        let state = self.state.lock();
        let mut out = String::from("== telemetry: latency histograms ==\n");
        out.push_str(&format!(
            "{:<16} {:>10} {:>12} {:>10} {:>10} {:>10} {:>8}\n",
            "metric", "count", "mean", "p50", "p99", "max", "unit"
        ));
        for m in LatencyMetric::ALL {
            let h = &state.hists[m.index()];
            if h.is_empty() {
                continue;
            }
            out.push_str(&format!(
                "{:<16} {:>10} {:>12.1} {:>10} {:>10} {:>10} {:>8}\n",
                m.name(),
                h.count(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max(),
                m.unit()
            ));
        }
        out.push_str(&format!(
            "\n{} interval samples from {} runs, {} progress events\n",
            state.samples,
            state.runs.len(),
            state.progress_events
        ));
        out
    }

    /// Delivers one interval sample for the run labelled `run`.
    pub fn sample(&self, run: &str, sample: &Sample) {
        let mut state = self.state.lock();
        let event = tagged(
            "sample",
            vec![("run".to_string(), Value::Str(run.to_string()))],
            sample.to_value(),
        );
        if let Some(writer) = state.jsonl.as_mut() {
            // analyze:allow(lock-io): samples stream under the state lock so concurrent runs cannot interleave half-ordered events; the writer is buffered
            writer.write_event(&event);
        }
        state.samples += 1;
        if !state.runs.contains(run) {
            state.runs.insert(run.to_string());
        }
    }

    /// Records one latency observation into the metric's histogram.
    pub fn latency(&self, metric: LatencyMetric, value: u64) {
        self.state.lock().hists[metric.index()].record(value);
    }

    /// Delivers a sweep-progress event.
    pub fn progress(&self, event: &Progress) {
        let mut state = self.state.lock();
        state.progress_events += 1;
        let line = tagged("progress", Vec::new(), event.to_value());
        if let Some(writer) = state.jsonl.as_mut() {
            // analyze:allow(lock-io): progress events share the ordered JSONL stream; the buffered write stays under the state lock by design
            writer.write_event(&line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Sample {
        Sample {
            instr: 100,
            cycles: 220,
            counters: vec![("inst_retired.any".into(), 100)],
            rates: vec![("wcpi".into(), 0.5)],
        }
    }

    #[test]
    fn sink_aggregates_latencies_and_samples() {
        let sink = TelemetrySink::new();
        sink.latency(LatencyMetric::WalkCycles, 30);
        sink.latency(LatencyMetric::WalkCycles, 90);
        sink.sample("run-a", &sample());
        sink.progress(&Progress {
            completed: 1,
            total: 2,
            label: "run-a".into(),
            wall_ms: 5,
            cached: false,
        });
        assert_eq!(sink.histogram(LatencyMetric::WalkCycles).count(), 2);
        assert!(sink.histogram(LatencyMetric::RunWallNanos).is_empty());
        assert_eq!(sink.sample_count(), 1);
        assert_eq!(sink.progress_count(), 1);
        sink.fault("StoreTorn", 0);
        assert_eq!(sink.fault_count(), 1);
        let summary = sink.summary();
        assert!(summary.contains("walk_cycles"));
        assert!(summary.contains("1 interval samples from 1 runs"));
        sink.sample("run-a", &sample());
        sink.sample("run-b", &sample());
        assert!(sink.summary().contains("3 interval samples from 2 runs"));
        assert!(format!("{sink:?}").contains("samples: 3"));
    }

    #[test]
    fn jsonl_stream_contains_all_event_types() {
        let path = std::env::temp_dir().join(format!("atscale-sink-{}.jsonl", std::process::id()));
        let sink = TelemetrySink::new().with_jsonl(&path).unwrap();
        sink.sample("r", &sample());
        sink.latency(LatencyMetric::TlbFillCycles, 12);
        sink.fault("WorkerPanic", 3);
        sink.progress(&Progress {
            completed: 1,
            total: 1,
            label: "r".into(),
            wall_ms: 1,
            cached: false,
        });
        assert_eq!(sink.finish().as_deref(), Some(path.as_path()));
        assert_eq!(sink.finish().as_deref(), Some(path.as_path()), "idempotent");
        let text = std::fs::read_to_string(&path).unwrap();
        for needle in [
            "\"type\":\"meta\"",
            "\"type\":\"sample\"",
            "\"type\":\"fault\"",
            "\"type\":\"hist\"",
            "\"type\":\"progress\"",
            "\"type\":\"summary\"",
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
        assert!(!text.contains("\"source\""), "schema v4 has no source tag");
        assert!(!text.contains("\"span"), "schema v4 has no spans");
        let _ = std::fs::remove_file(&path);
    }
}
