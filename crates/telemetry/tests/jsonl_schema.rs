//! Golden test for the JSONL telemetry schema.
//!
//! Generates a real stream through [`TelemetrySink`] — one of every event
//! type it emits — then (a) runs the shipped validator over it and (b)
//! pins the exact key set of every event type. Any schema drift (added,
//! renamed, or dropped keys) fails here first and must be an explicit,
//! reviewed change alongside a `SCHEMA_VERSION` bump or validator update.

use atscale_telemetry::schema::{validate_stream_all, REQUIRED_COUNTERS, REQUIRED_RATES};
use atscale_telemetry::{LatencyMetric, Progress, Sample, TelemetrySink};
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};

/// The schema under pin: every event type and its exact key set.
fn golden_keys() -> BTreeMap<&'static str, BTreeSet<&'static str>> {
    let pairs: [(&str, &[&str]); 6] = [
        ("meta", &["type", "schema", "stream"]),
        ("fault", &["type", "site", "hit"]),
        (
            "sample",
            &["type", "run", "instr", "cycles", "counters", "rates"],
        ),
        (
            "hist",
            &[
                "type", "metric", "unit", "count", "sum", "min", "max", "buckets",
            ],
        ),
        (
            "progress",
            &["type", "completed", "total", "label", "wall_ms", "cached"],
        ),
        ("summary", &["type", "samples", "progress"]),
    ];
    pairs
        .into_iter()
        .map(|(t, keys)| (t, keys.iter().copied().collect()))
        .collect()
}

/// Emits one of every event type through a real sink streaming to a temp
/// file named after `test`, and returns the stream text.
fn generate_stream(test: &str) -> String {
    let path = std::env::temp_dir().join(format!(
        "atscale-schema-{test}-{}.jsonl",
        std::process::id()
    ));
    let sink = TelemetrySink::new().with_jsonl(&path).unwrap();
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
    let text = generate_stream("validator");
    let (summary, violations) = validate_stream_all(&text);
    assert_eq!(violations, [], "--- stream ---\n{text}");
    // One of each, and two hists: meta, sample, hist ×2, fault, progress,
    // summary.
    let by_type: Vec<(&str, usize)> = summary
        .by_type
        .iter()
        .map(|(t, n)| (t.as_str(), *n))
        .collect();
    assert_eq!(
        by_type,
        [
            ("fault", 1),
            ("hist", 2),
            ("meta", 1),
            ("progress", 1),
            ("sample", 1),
            ("summary", 1)
        ]
    );
    assert_eq!(summary.lines, 7);
}

#[test]
fn event_key_sets_match_the_golden_schema() {
    let text = generate_stream("golden");
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
    let text = generate_stream("order");
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

#[test]
fn the_validator_exits_2_on_a_bad_command_line_and_1_on_a_bad_stream() {
    let validate = |args: &[&std::path::Path]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_telemetry_validate"))
            .args(args)
            .output()
            .expect("launch telemetry_validate");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (code, stderr) = validate(&[]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("usage: telemetry_validate"), "{stderr}");

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let good = dir.join(format!("atscale-validate-good-{pid}.jsonl"));
    let bad = dir.join(format!("atscale-validate-bad-{pid}.jsonl"));
    let missing = dir.join(format!("atscale-validate-missing-{pid}.jsonl"));
    std::fs::write(&good, generate_stream("cli")).unwrap();
    std::fs::write(&bad, "{\"type\":\"sample\"\n").unwrap();
    assert_eq!(validate(&[&good]).0, Some(0));
    let (code, stderr) = validate(&[&good, &bad]);
    assert_eq!(code, Some(1), "an invalid stream: {stderr}");
    let (code, stderr) = validate(&[&missing]);
    assert_eq!(code, Some(1), "an unreadable stream: {stderr}");
    let v3 = dir.join(format!("atscale-validate-v3-{pid}.jsonl"));
    std::fs::write(
        &v3,
        "{\"type\":\"meta\",\"schema\":3,\"source\":\"sim\",\"stream\":\"atscale-telemetry\"}\n",
    )
    .unwrap();
    let (code, stderr) = validate(&[&v3]);
    assert_eq!(code, Some(1), "a v3 stream: {stderr}");
    assert!(
        stderr.contains("meta.schema 3 is not the supported version 4"),
        "{stderr}"
    );
    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&bad);
    let _ = std::fs::remove_file(&v3);
}
