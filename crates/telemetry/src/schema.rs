//! JSONL schema validation for the telemetry event stream.
//!
//! The stream is newline-delimited JSON objects, each carrying a `type`
//! discriminator. The schema is versioned by the leading `meta` event
//! ([`crate::SCHEMA_VERSION`]); [`validate_stream_all`] enforces both the
//! per-event shapes and the stream-level protocol (meta first, exactly one
//! trailing `summary`). CI runs this validator over the real `fig1` and
//! served-sweep streams, and the golden-schema test pins the exact key
//! sets so schema drift is an explicit, reviewed change.
//!
//! ## Versions
//!
//! * **v1** — initial stream (meta/sample/hist/span/progress/summary).
//! * **v2** — added the `fault` event (deterministic fault injection).
//! * **v3** — every event carries a `source` tag (always `"sim"` once the
//!   hardware-counter harness was retired).
//! * **v4** — the `span` event, `summary.spans` and the constant `source`
//!   tag are gone: the stream carries samples, histograms, faults and
//!   progress, and nothing else.
//!
//! Only the current version is accepted: no emitter in the tree writes
//! anything else, so a stream announcing another version is outside input
//! and is rejected at its meta event.
//!
//! Validation reports **every** violation it can find in one pass
//! ([`validate_line_all`], [`validate_stream_all`]), not just the first —
//! a schema diff must be debuggable in a single run.

use crate::{LatencyMetric, SCHEMA_VERSION};
use serde::Value;
use std::collections::BTreeMap;

/// Rates every `sample` event must carry — the interval series the paper
/// reproduction is observed through.
pub const REQUIRED_RATES: [&str; 3] = ["wcpi", "stlb_mpki", "aborted_frac"];

/// Counters every `sample` event must carry (cumulative values).
pub const REQUIRED_COUNTERS: [&str; 2] = ["inst_retired.any", "dtlb_misses.walk_duration"];

fn field<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn need<'a>(map: &'a [(String, Value)], key: &str, event: &str) -> Result<&'a Value, String> {
    field(map, key).ok_or_else(|| format!("{event} event missing required key `{key}`"))
}

fn as_u64(v: &Value, what: &str) -> Result<u64, String> {
    match v {
        Value::U64(n) => Ok(*n),
        Value::I64(n) if *n >= 0 => Ok(*n as u64),
        other => Err(format!(
            "{what} must be a non-negative integer, got {other:?}"
        )),
    }
}

fn as_str<'a>(v: &'a Value, what: &str) -> Result<&'a str, String> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(format!("{what} must be a string, got {other:?}")),
    }
}

fn as_f64(v: &Value, what: &str) -> Result<f64, String> {
    match v {
        Value::F64(x) => Ok(*x),
        Value::U64(n) => Ok(*n as f64),
        Value::I64(n) => Ok(*n as f64),
        // Non-finite floats serialize as null in JSON.
        Value::Null => Ok(f64::NAN),
        other => Err(format!("{what} must be a number, got {other:?}")),
    }
}

/// Pushes the error of a failed check, keeping the pass going.
fn check<T>(errs: &mut Vec<String>, result: Result<T, String>) -> Option<T> {
    match result {
        Ok(v) => Some(v),
        Err(e) => {
            errs.push(e);
            None
        }
    }
}

/// Required `u64` key: records the error and keeps scanning.
fn need_u64(map: &[(String, Value)], key: &str, event: &str, errs: &mut Vec<String>) {
    let checked =
        need(map, key, event).and_then(|v| as_u64(v, &format!("{event}.{key}")).map(|_| ()));
    check(errs, checked);
}

/// Required string key: records the error and keeps scanning.
fn need_str(map: &[(String, Value)], key: &str, event: &str, errs: &mut Vec<String>) {
    let checked =
        need(map, key, event).and_then(|v| as_str(v, &format!("{event}.{key}")).map(|_| ()));
    check(errs, checked);
}

/// Validates a `[[name, value], ...]` pair list, returning the names it
/// could parse and recording every malformed entry.
fn pair_names(v: &Value, what: &str, numeric: bool, errs: &mut Vec<String>) -> Vec<String> {
    let Some(items) = check(
        errs,
        v.as_seq()
            .map_err(|_| format!("{what} must be an array of [name, value] pairs")),
    ) else {
        return Vec::new();
    };
    let mut names = Vec::with_capacity(items.len());
    for item in items {
        let Some(pair) = check(
            errs,
            item.as_seq()
                .map_err(|_| format!("{what} entries must be [name, value] pairs")),
        ) else {
            continue;
        };
        if pair.len() != 2 {
            errs.push(format!("{what} entries must have exactly 2 elements"));
            continue;
        }
        let Some(name) = check(errs, as_str(&pair[0], &format!("{what} entry name"))) else {
            continue;
        };
        if numeric {
            check(errs, as_f64(&pair[1], &format!("{what} `{name}` value")));
        } else {
            check(errs, as_u64(&pair[1], &format!("{what} `{name}` value")));
        }
        names.push(name.to_string());
    }
    names
}

fn validate_sample(map: &[(String, Value)], errs: &mut Vec<String>) {
    need_str(map, "run", "sample", errs);
    need_u64(map, "instr", "sample", errs);
    need_u64(map, "cycles", "sample", errs);
    if let Some(v) = check(errs, need(map, "counters", "sample")) {
        let counters = pair_names(v, "sample.counters", false, errs);
        for required in REQUIRED_COUNTERS {
            if !counters.iter().any(|n| n == required) {
                errs.push(format!("sample.counters missing required `{required}`"));
            }
        }
    }
    if let Some(v) = check(errs, need(map, "rates", "sample")) {
        let rates = pair_names(v, "sample.rates", true, errs);
        for required in REQUIRED_RATES {
            if !rates.iter().any(|n| n == required) {
                errs.push(format!("sample.rates missing required `{required}`"));
            }
        }
    }
}

fn validate_hist(map: &[(String, Value)], errs: &mut Vec<String>) {
    if let Some(metric) =
        check(errs, need(map, "metric", "hist")).and_then(|v| check(errs, as_str(v, "hist.metric")))
    {
        if LatencyMetric::parse(metric).is_none() {
            errs.push(format!(
                "hist.metric `{metric}` is not a known LatencyMetric"
            ));
        }
    }
    need_str(map, "unit", "hist", errs);
    let count =
        check(errs, need(map, "count", "hist")).and_then(|v| check(errs, as_u64(v, "hist.count")));
    need_u64(map, "sum", "hist", errs);
    need_u64(map, "min", "hist", errs);
    need_u64(map, "max", "hist", errs);
    let Some(buckets) = check(errs, need(map, "buckets", "hist")).and_then(|v| {
        check(
            errs,
            v.as_seq()
                .map_err(|_| "hist.buckets must be an array".to_string()),
        )
    }) else {
        return;
    };
    let mut total = 0u64;
    for b in buckets {
        let Some(entries) = check(
            errs,
            b.as_map()
                .map_err(|_| "hist bucket must be an object".to_string()),
        ) else {
            continue;
        };
        let lo = check(errs, need(entries, "lo", "hist bucket"))
            .and_then(|v| check(errs, as_u64(v, "bucket.lo")));
        let hi = check(errs, need(entries, "hi", "hist bucket"))
            .and_then(|v| check(errs, as_u64(v, "bucket.hi")));
        if let (Some(lo), Some(hi)) = (lo, hi) {
            if lo > hi {
                errs.push(format!("hist bucket has lo {lo} > hi {hi}"));
            }
        }
        if let Some(n) = check(errs, need(entries, "count", "hist bucket"))
            .and_then(|v| check(errs, as_u64(v, "bucket.count")))
        {
            total += n;
        }
    }
    if let Some(count) = count {
        if total != count {
            errs.push(format!(
                "hist bucket counts sum to {total} but count says {count}"
            ));
        }
    }
}

fn validate_fault(map: &[(String, Value)], errs: &mut Vec<String>) {
    need_str(map, "site", "fault", errs);
    need_u64(map, "hit", "fault", errs);
}

fn validate_progress(map: &[(String, Value)], errs: &mut Vec<String>) {
    need_u64(map, "completed", "progress", errs);
    need_u64(map, "total", "progress", errs);
    need_str(map, "label", "progress", errs);
    need_u64(map, "wall_ms", "progress", errs);
}

fn validate_meta(map: &[(String, Value)], errs: &mut Vec<String>) {
    let schema = check(errs, need(map, "schema", "meta"))
        .and_then(|v| check(errs, as_u64(v, "meta.schema")));
    if let Some(schema) = schema.filter(|&v| v != SCHEMA_VERSION) {
        errs.push(format!(
            "meta.schema {schema} is not the supported version {SCHEMA_VERSION}"
        ));
    }
    need_str(map, "stream", "meta", errs);
}

fn validate_summary(map: &[(String, Value)], errs: &mut Vec<String>) {
    need_u64(map, "samples", "summary", errs);
    need_u64(map, "progress", "summary", errs);
}

/// Validates one JSONL line, returning the event type (when one could be
/// read at all) plus **every** violation found — missing keys are reported
/// together, not one per run.
pub fn validate_line_all(line: &str) -> (Option<String>, Vec<String>) {
    let mut errs = Vec::new();
    let value: Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => {
            errs.push(format!("line is not valid JSON: {e:?}"));
            return (None, errs);
        }
    };
    let Some(map) = check(
        &mut errs,
        value
            .as_map()
            .map_err(|_| "event must be a JSON object".to_string()),
    ) else {
        return (None, errs);
    };
    let Some(event_type) = check(&mut errs, need(map, "type", "event"))
        .and_then(|v| check(&mut errs, as_str(v, "event.type")))
        .map(ToString::to_string)
    else {
        return (None, errs);
    };
    match event_type.as_str() {
        "meta" => validate_meta(map, &mut errs),
        "sample" => validate_sample(map, &mut errs),
        "hist" => validate_hist(map, &mut errs),
        "fault" => validate_fault(map, &mut errs),
        "progress" => validate_progress(map, &mut errs),
        "summary" => validate_summary(map, &mut errs),
        other => errs.push(format!("unknown event type `{other}`")),
    }
    (Some(event_type), errs)
}

/// Per-type event counts of a validated stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Non-empty lines validated.
    pub lines: usize,
    /// Events per `type` discriminator.
    pub by_type: BTreeMap<String, usize>,
}

/// Validates a whole JSONL stream, collecting **every** violation: every
/// line must pass [`validate_line_all`], the first event must be `meta`
/// (announcing [`SCHEMA_VERSION`]), and the last must be `summary`.
/// Returns the best-effort summary together with all violations as
/// `(line_number, description)` pairs (1-based; stream-level violations
/// report line 0).
pub fn validate_stream_all(text: &str) -> (StreamSummary, Vec<(usize, String)>) {
    let mut summary = StreamSummary::default();
    let mut violations = Vec::new();
    let mut last_type = String::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (event_type, errs) = validate_line_all(line);
        violations.extend(errs.into_iter().map(|e| (i + 1, e)));
        let Some(event_type) = event_type else {
            continue;
        };
        if summary.lines == 0 && event_type != "meta" {
            violations.push((
                i + 1,
                format!("stream must open with a meta event, got `{event_type}`"),
            ));
        }
        summary.lines += 1;
        *summary.by_type.entry(event_type.clone()).or_default() += 1;
        last_type = event_type;
    }
    if summary.lines == 0 {
        violations.push((0, "stream contains no events".to_string()));
    } else if last_type != "summary" {
        violations.push((
            0,
            format!("stream must end with a summary event, got `{last_type}`"),
        ));
    }
    (summary, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    const META: &str = r#"{"type":"meta","schema":4,"stream":"atscale-telemetry"}"#;
    const SUMMARY: &str = r#"{"type":"summary","samples":0,"progress":0}"#;

    /// The violations of one line, asserting it has a type.
    fn line_errors(line: &str, expected_type: &str) -> Vec<String> {
        let (event_type, errs) = validate_line_all(line);
        assert_eq!(event_type.as_deref(), Some(expected_type), "{errs:?}");
        errs
    }

    #[test]
    fn meta_line_validates() {
        assert_eq!(line_errors(META, "meta"), Vec::<String>::new());
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let line = r#"{"type":"meta","schema":99,"stream":"atscale-telemetry"}"#;
        assert_eq!(
            line_errors(line, "meta"),
            ["meta.schema 99 is not the supported version 4"]
        );
        let line = r#"{"type":"meta","schema":2,"stream":"atscale-telemetry"}"#;
        let errs = line_errors(line, "meta");
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(
            errs[0].contains("meta.schema 2")
                && errs[0].contains(&format!("version {SCHEMA_VERSION}")),
            "the message must name both versions, got: {errs:?}"
        );
    }

    #[test]
    fn sample_requires_the_headline_rates() {
        let line = r#"{"type":"sample","run":"r","instr":10,"cycles":20,
            "counters":[["inst_retired.any",10],["dtlb_misses.walk_duration",4]],
            "rates":[["wcpi",0.4],["stlb_mpki",1.0]]}"#
            .replace('\n', " ");
        assert_eq!(
            line_errors(&line, "sample"),
            ["sample.rates missing required `aborted_frac`"]
        );
    }

    #[test]
    fn all_violations_are_reported_in_one_pass() {
        // Missing both counters AND two of the three rates: every one of
        // the four defects must surface in a single validation.
        let line = r#"{"type":"sample","run":"r","instr":10,"cycles":20,
            "counters":[],"rates":[["wcpi",0.4]]}"#
            .replace('\n', " ");
        assert_eq!(
            line_errors(&line, "sample"),
            [
                "sample.counters missing required `inst_retired.any`",
                "sample.counters missing required `dtlb_misses.walk_duration`",
                "sample.rates missing required `stlb_mpki`",
                "sample.rates missing required `aborted_frac`",
            ]
        );
    }

    #[test]
    fn hist_bucket_counts_must_reconcile() {
        let line = r#"{"type":"hist","metric":"walk_cycles","unit":"cycles",
            "count":3,"sum":10,"min":1,"max":5,"buckets":[{"lo":1,"hi":1,"count":1}]}"#
            .replace('\n', " ");
        assert_eq!(
            line_errors(&line, "hist"),
            ["hist bucket counts sum to 1 but count says 3"]
        );
    }

    #[test]
    fn v2_streams_are_rejected_at_their_meta_event() {
        let v2 = concat!(
            r#"{"type":"meta","schema":2,"stream":"atscale-telemetry"}"#,
            "\n",
            r#"{"type":"fault","site":"StoreTorn","hit":0}"#,
            "\n",
            r#"{"type":"summary","samples":0,"progress":0,"spans":0}"#,
            "\n"
        );
        let (summary, violations) = validate_stream_all(v2);
        assert_eq!(summary.lines, 3, "the whole stream is still scanned");
        assert_eq!(
            violations,
            [(
                1,
                "meta.schema 2 is not the supported version 4".to_string()
            )]
        );
    }

    #[test]
    fn v3_streams_are_rejected_at_their_meta_event() {
        // A v3 stream: `source` on every event and a `span` event, which v4
        // no longer defines.
        let v3 = concat!(
            r#"{"type":"meta","schema":3,"source":"sim","stream":"atscale-telemetry"}"#,
            "\n",
            r#"{"type":"span","source":"sim","path":"run","count":1,"total_ns":5,"max_ns":5,"threads":1}"#,
            "\n",
            r#"{"type":"summary","source":"sim","samples":0,"progress":0,"spans":1}"#,
            "\n"
        );
        let (summary, violations) = validate_stream_all(v3);
        assert_eq!(summary.lines, 3);
        assert_eq!(
            violations,
            [
                (
                    1,
                    "meta.schema 3 is not the supported version 4".to_string()
                ),
                (2, "unknown event type `span`".to_string()),
            ]
        );
    }

    #[test]
    fn stream_protocol_is_enforced() {
        let good = format!("{META}\n{SUMMARY}\n");
        let (s, violations) = validate_stream_all(&good);
        assert_eq!(violations, []);
        assert_eq!(s.lines, 2);
        assert_eq!(s.by_type.get("meta"), Some(&1));

        let (_, violations) = validate_stream_all(SUMMARY);
        assert_eq!(
            violations,
            [(
                1,
                "stream must open with a meta event, got `summary`".to_string()
            )]
        );

        let (_, violations) = validate_stream_all(META);
        assert_eq!(
            violations,
            [(
                0,
                "stream must end with a summary event, got `meta`".to_string()
            )]
        );

        let (_, violations) = validate_stream_all("");
        assert_eq!(violations, [(0, "stream contains no events".to_string())]);
    }
}
