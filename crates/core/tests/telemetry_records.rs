//! Telemetry observes a run; it never changes one.
//!
//! Every architecture runs two test-sweep specs three ways: plain
//! `execute_run`, sampling only (no recorder), and with a full
//! `TelemetrySink` recording walk latencies. The counters must be
//! identical in all three, and the two sampling runs must produce the
//! same series.

use atscale::telemetry::{LatencyMetric, TelemetrySink};
use atscale::{execute_run, execute_run_with_telemetry, ArchKind, SweepConfig};
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
