//! Golden test for the JSONL telemetry schema.
//!
//! Generates a real stream through [`TelemetrySink`] — one of every event
//! type it emits — then (a) runs the shipped validator over it and (b)
//! pins the exact key set of every event type. (`native_unavailable`, which
//! no emitter in the tree writes any more, is pinned by the validator's
//! own unit tests.) Any schema drift (added, renamed, or
//! dropped keys) fails here first and must be an explicit, reviewed change
//! alongside a `SCHEMA_VERSION` bump or validator update.

use atscale_telemetry::schema::{validate_stream, REQUIRED_COUNTERS, REQUIRED_RATES};
use atscale_telemetry::{
    reset_spans, span, LatencyMetric, Progress, Recorder, Sample, TelemetrySink,
};
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};

/// The schema under pin: every event type and its exact key set.
fn golden_keys() -> BTreeMap<&'static str, BTreeSet<&'static str>> {
    let pairs: [(&str, &[&str]); 7] = [
        ("meta", &["type", "source", "schema", "stream"]),
        ("fault", &["type", "source", "site", "hit"]),
        (
            "sample",
            &[
                "type", "source", "run", "instr", "cycles", "counters", "rates",
            ],
        ),
        (
            "hist",
            &[
                "type", "source", "metric", "unit", "count", "sum", "min", "max", "buckets",
            ],
        ),
        (
            "span",
            &[
                "type", "source", "path", "count", "total_ns", "max_ns", "threads",
            ],
        ),
        (
            "progress",
            &[
                "type",
                "source",
                "completed",
                "total",
                "label",
                "wall_ms",
                "cached",
            ],
        ),
        (
            "summary",
            &["type", "source", "samples", "progress", "spans"],
        ),
    ];
    pairs
        .into_iter()
        .map(|(t, keys)| (t, keys.iter().copied().collect()))
        .collect()
}

/// Serializes the tests: they share the global span registry and one
/// temp-file path.
static STREAM_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Emits one of every event type through a real sink and returns the
/// stream text.
fn generate_stream() -> String {
    let _lock = STREAM_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    reset_spans();
    let path = std::env::temp_dir().join(format!("atscale-schema-{}.jsonl", std::process::id()));
    let sink = TelemetrySink::new().with_jsonl(&path).unwrap();
    {
        let _guard = span("golden");
    }
    let mut counters: Vec<(String, u64)> = REQUIRED_COUNTERS
        .iter()
        .map(|name| ((*name).to_string(), 7))
        .collect();
    counters.push(("truth.retired_walks".to_string(), 2));
    let rates = REQUIRED_RATES
        .iter()
        .map(|name| ((*name).to_string(), 0.25))
        .collect();
    sink.sample(
        "cc-urand 64MB 4K",
        &Sample {
            instr: 1000,
            cycles: 2600,
            counters,
            rates,
        },
    );
    sink.latency(LatencyMetric::WalkCycles, 37);
    sink.latency(LatencyMetric::RunWallNanos, 5_000_000);
    sink.fault("WorkerPanic", 2);
    sink.progress(&Progress {
        completed: 1,
        total: 1,
        label: "cc-urand 64MB 4K".to_string(),
        wall_ms: 5,
        cached: false,
    });
    assert_eq!(sink.finish().as_deref(), Some(path.as_path()));
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    text
}

#[test]
fn generated_stream_passes_the_shipped_validator() {
    let text = generate_stream();
    let summary = validate_stream(&text).unwrap_or_else(|(line, e)| {
        panic!("stream invalid at line {line}: {e}\n--- stream ---\n{text}")
    });
    // One of each: meta, sample, 2 hists, the span, progress, summary.
    assert_eq!(summary.by_type.get("meta"), Some(&1));
    assert_eq!(summary.by_type.get("sample"), Some(&1));
    assert_eq!(summary.by_type.get("hist"), Some(&2));
    assert_eq!(summary.by_type.get("span"), Some(&1));
    assert_eq!(summary.by_type.get("fault"), Some(&1));
    assert_eq!(summary.by_type.get("progress"), Some(&1));
    assert_eq!(summary.by_type.get("summary"), Some(&1));
}

#[test]
fn event_key_sets_match_the_golden_schema() {
    let text = generate_stream();
    let golden = golden_keys();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for (i, line) in text.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        let value: Value = serde_json::from_str(line).unwrap();
        let map = value
            .as_map()
            .unwrap_or_else(|_| panic!("line {i} not an object"));
        let keys: BTreeSet<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
        let event_type = map
            .iter()
            .find(|(k, _)| k == "type")
            .and_then(|(_, v)| match v {
                Value::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .unwrap_or_else(|| panic!("line {i} has no type: {line}"));
        let expected = golden
            .get(event_type)
            .unwrap_or_else(|| panic!("unpinned event type `{event_type}`"));
        let expected: BTreeSet<&str> = expected.iter().copied().collect();
        assert_eq!(
            keys, expected,
            "key set drift in `{event_type}` event (line {i}): {line}"
        );
        seen.insert(event_type.to_string());
    }
    assert_eq!(
        seen.len(),
        golden.len(),
        "stream did not exercise every pinned event type: {seen:?}"
    );
}

#[test]
fn sample_events_preserve_emission_order() {
    // The counters/rates pair lists are ordered; serialization must not
    // reorder them (consumers join on position for plotting).
    let text = generate_stream();
    let sample_line = text
        .lines()
        .find(|l| l.contains("\"type\":\"sample\""))
        .expect("sample event present");
    let idx = |needle: &str| {
        sample_line
            .find(needle)
            .unwrap_or_else(|| panic!("`{needle}` missing from {sample_line}"))
    };
    assert!(idx(REQUIRED_COUNTERS[0]) < idx("truth.retired_walks"));
    let rate_positions: Vec<usize> = REQUIRED_RATES.iter().map(|r| idx(r)).collect();
    assert!(
        rate_positions.windows(2).all(|w| w[0] < w[1]),
        "rates reordered in {sample_line}"
    );
}
