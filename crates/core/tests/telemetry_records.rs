//! Telemetry observes a run; it never changes one.
//!
//! Every architecture runs two test-sweep specs three ways: plain
//! `execute_run`, sampling only (no sink), and with a full
//! `TelemetrySink` recording walk latencies. The counters must be
//! identical in all three, and the two sampling runs must produce the
//! same series. A sweep streamed to JSONL once fresh and once from the
//! store must stream the same samples.

use atscale::telemetry::schema::validate_stream_all;
use atscale::telemetry::{LatencyMetric, TelemetrySink};
use atscale::{execute_run, execute_run_with_telemetry, ArchKind, Harness, RunStore, SweepConfig};
use atscale_mmu::{MachineConfig, TelemetryHandle};
use atscale_workloads::WorkloadId;
use std::sync::Arc;

const SAMPLE_INTERVAL: u64 = 10_000;

#[test]
fn telemetry_never_changes_a_record() {
    let sweep = SweepConfig::test();
    let footprints = sweep.footprints();
    let config = MachineConfig::haswell();
    let specs = [
        sweep.spec(WorkloadId::parse("cc-urand").unwrap(), footprints[0]),
        sweep.spec(WorkloadId::parse("mcf-rand").unwrap(), footprints[1]),
    ];
    for arch in ArchKind::ALL {
        for spec in specs.map(|spec| spec.with_arch(arch)) {
            let what = spec.label();
            let plain = execute_run(&spec, &config);
            let sampling = TelemetryHandle::sampling_only(SAMPLE_INTERVAL);
            let sampled = execute_run_with_telemetry(&spec, &config, Some(&sampling));
            let sink = Arc::new(TelemetrySink::new());
            let full = TelemetryHandle::new(sink.clone(), SAMPLE_INTERVAL);
            let recorded = execute_run_with_telemetry(&spec, &config, Some(&full));

            assert!(plain.result.samples.is_empty(), "{what}: plain run sampled");
            assert!(!sampled.result.samples.is_empty(), "{what}: no samples");
            assert_eq!(plain.result.counters, sampled.result.counters, "{what}");
            assert_eq!(plain.result.counters, recorded.result.counters, "{what}");
            assert_eq!(sampled.result.samples, recorded.result.samples, "{what}");
            assert!(
                !sink.histogram(LatencyMetric::WalkCycles).is_empty(),
                "{what}: the sink recorded no walk"
            );
        }
    }
}

/// JSONL consumers see identical sample streams from fresh and cached runs:
/// a hit replays the stored series into the sink.
#[test]
fn fresh_and_cached_runs_stream_the_same_samples() {
    let dir = std::env::temp_dir().join(format!("atscale-tel-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let specs = SweepConfig::test().specs(&[WorkloadId::parse("cc-urand").unwrap()]);
    let harness = Harness::new()
        .with_threads(1)
        .with_store(RunStore::open(dir.join("runs")).unwrap());
    // Each call streams the sweep through its own sink on the same store.
    let stream = |name: &str| {
        let path = dir.join(format!("{name}.jsonl"));
        let sink = Arc::new(TelemetrySink::new().with_jsonl(&path).unwrap());
        harness
            .clone()
            .with_telemetry(TelemetryHandle::new(sink.clone(), SAMPLE_INTERVAL))
            .run_many(&specs);
        sink.finish();
        std::fs::read_to_string(&path).unwrap()
    };
    let fresh = stream("fresh");
    let cached = stream("cached");

    let lines = |text: &str, event: &str| -> Vec<String> {
        let tag = format!("{{\"type\":\"{event}\"");
        text.lines()
            .filter(|l| l.starts_with(&tag))
            .map(str::to_string)
            .collect()
    };
    for (text, hit) in [(&fresh, false), (&cached, true)] {
        let (_, violations) = validate_stream_all(text);
        assert_eq!(violations, [], "{text}");
        assert!(!text.contains("\"span"), "{text}");
        assert!(!text.contains("\"source\""), "{text}");
        let progress = lines(text, "progress");
        assert_eq!(progress.len(), specs.len());
        let flag = format!("\"cached\":{hit}");
        assert!(progress.iter().all(|l| l.contains(&flag)), "{progress:?}");
    }
    let samples = lines(&fresh, "sample");
    assert!(samples.len() >= specs.len(), "every run samples");
    assert_eq!(samples, lines(&cached, "sample"));
    let _ = std::fs::remove_dir_all(&dir);
}
