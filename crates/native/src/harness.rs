//! The native profiling harness: runs the `SimAlloc`-free mini-kernels
//! under the perf counter group and streams schema-v3 telemetry with
//! `source: "native"`, interval samples reconciling exactly against
//! end-of-run totals.
//!
//! Skip semantics (the degrade-gracefully contract CI relies on): when
//! `perf_event_open` is denied or absent the harness emits a single
//! explicit `native_unavailable` event into an otherwise-valid stream and
//! reports [`NativeOutcome::Unavailable`] — the `perf_native` binary then
//! exits 0, so locked-down runners and non-Linux hosts stay green while
//! remaining distinguishable from "the harness broke".

use crate::sampler::{run_sampled, PerfReader, SkippedEvents};
use atscale_telemetry::{LatencyMetric, Progress, Recorder, Sample, TelemetrySink};
use atscale_workloads::NativeKernel;
use std::path::PathBuf;
use std::time::Instant;

/// Footprints (MB) of the `--quick` profile. Chosen to coincide with
/// `SweepConfig::test()`'s sweep points so a `fig1 --test` sim stream and
/// a `perf_native --quick` native stream pair run-for-run in `xval`
/// (asserted by a cross-crate test in `atscale-bench`).
pub const QUICK_FOOTPRINTS_MB: [u64; 3] = [16, 45, 128];

/// Footprints (MB) of the `--full` profile.
pub const FULL_FOOTPRINTS_MB: [u64; 4] = [64, 128, 256, 512];

/// One native profiling campaign.
#[derive(Debug, Clone)]
pub struct NativeRunConfig {
    /// Footprints to sweep, in MB.
    pub footprints_mb: Vec<u64>,
    /// Measured kernel passes per run.
    pub passes: u32,
    /// Passes between interval samples.
    pub interval: u32,
    /// Base seed (each run derives its own).
    pub seed: u64,
    /// JSONL stream destination.
    pub out: PathBuf,
}

impl NativeRunConfig {
    /// The `--quick` profile: small sweep, few passes — CI-sized.
    pub fn quick() -> NativeRunConfig {
        NativeRunConfig {
            footprints_mb: QUICK_FOOTPRINTS_MB.to_vec(),
            passes: 6,
            interval: 2,
            seed: 42,
            out: PathBuf::from("results/telemetry/native.jsonl"),
        }
    }

    /// The `--full` profile: wider sweep, more passes per run.
    pub fn full() -> NativeRunConfig {
        NativeRunConfig {
            footprints_mb: FULL_FOOTPRINTS_MB.to_vec(),
            passes: 12,
            interval: 3,
            ..NativeRunConfig::quick()
        }
    }

    /// The run label for one `(kernel, footprint)` point — same
    /// `"{workload} {mb}MB {suffix}"` shape as the simulator's
    /// `RunSpec::label()`, with `native` where the page size would be.
    pub fn label(kernel: NativeKernel, mb: u64) -> String {
        format!("{} {mb}MB native", kernel.sim_workload())
    }
}

/// What a harness invocation did.
#[derive(Debug)]
pub enum NativeOutcome {
    /// Counters ran; the stream holds real samples.
    Completed {
        /// `(kernel, footprint)` runs executed.
        runs: usize,
        /// Interval samples emitted across all runs.
        samples: usize,
        /// Per-event skips (raw encodings the PMU rejected).
        skipped_events: SkippedEvents,
        /// Reconciliation violations observed (0 in any healthy run).
        reconcile_errors: usize,
    },
    /// `perf_event_open` is unavailable; the stream holds the explicit
    /// skip marker and nothing else.
    Unavailable {
        /// The classified reason (errno text included).
        reason: String,
    },
}

/// Runs the full campaign, streaming telemetry to `config.out`.
///
/// # Errors
///
/// Only I/O errors opening the JSONL stream; counter unavailability is
/// the [`NativeOutcome::Unavailable`] value, not an error.
pub fn run(config: &NativeRunConfig) -> std::io::Result<NativeOutcome> {
    let sink = TelemetrySink::new()
        .with_source("native")
        .with_jsonl(&config.out)?;
    // Probe once up front: if the subsystem is off-limits, emit the
    // explicit skip marker and finish a valid (meta + skip + summary)
    // stream.
    let skipped_events = match PerfReader::open() {
        Err(reason) => {
            sink.native_unavailable(&reason);
            sink.finish();
            return Ok(NativeOutcome::Unavailable { reason });
        }
        Ok((_probe, skipped)) => skipped,
    };

    let total_runs = NativeKernel::ALL.len() * config.footprints_mb.len();
    let mut runs = 0usize;
    let mut samples = 0usize;
    let mut reconcile_errors = 0usize;
    for kernel in NativeKernel::ALL {
        for &mb in &config.footprints_mb {
            let label = NativeRunConfig::label(kernel, mb);
            let seed = config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(mb);
            // analyze:allow(determinism): native profiling measures real wall time by design; the timestamp feeds RunWallNanos/progress metadata, never a RunRecord or cache key
            let started = Instant::now();
            let mut prepared = kernel.prepare((mb as usize) << 20, seed);
            // Warm-up pass outside the counters: touch every page so the
            // measured phase sees steady-state translation behaviour, as
            // the simulator's warm-up budget does.
            std::hint::black_box(prepared.run());
            // Fresh fds per run so cumulative counts start near zero at
            // the measured phase. The probe succeeded, so a failure here
            // is transient; skip the run rather than abort the campaign.
            let Ok((mut reader, _)) = PerfReader::open() else {
                continue;
            };
            let mut checksum = 0u64;
            let series = run_sampled(&mut reader, config.passes, config.interval, &mut |_| {
                checksum ^= prepared.run();
            });
            std::hint::black_box(checksum);
            let errs = series.reconciliation_errors();
            if !errs.is_empty() {
                reconcile_errors += errs.len();
                eprintln!(
                    "[perf_native] {label}: reconciliation violations:\n  {}",
                    errs.join("\n  ")
                );
            }
            for row in &series.samples {
                sink.sample(&label, &telemetry_sample(&series.names, row));
                samples += 1;
            }
            let wall = started.elapsed();
            sink.latency(LatencyMetric::RunWallNanos, wall.as_nanos() as u64);
            runs += 1;
            sink.progress(&Progress {
                completed: runs,
                total: total_runs,
                label,
                wall_ms: wall.as_millis() as u64,
                cached: false,
            });
        }
    }
    sink.finish();
    Ok(NativeOutcome::Completed {
        runs,
        samples,
        skipped_events,
        reconcile_errors,
    })
}

fn value_of(names: &[&'static str], values: &[u64], name: &str) -> u64 {
    names
        .iter()
        .position(|n| *n == name)
        .map_or(0, |i| values[i])
}

/// Converts one cumulative counter row into the telemetry [`Sample`]
/// shape, deriving the simulator's rate names where the native counters
/// support them. `aborted_frac` is always 0: retired-stream PMU counts
/// carry no wrong-path work by definition (the schema requires the key
/// on every sample, so it is emitted explicitly rather than omitted).
pub fn telemetry_sample(names: &[&'static str], values: &[u64]) -> Sample {
    let get = |name: &str| value_of(names, values, name);
    let instr = get("inst_retired.any");
    let cycles = get("cpu_clk_unhalted.thread");
    let per = |num: u64| {
        if instr == 0 {
            0.0
        } else {
            num as f64 / instr as f64
        }
    };
    let pki = |num: u64| per(num) * 1000.0;
    let stlb_misses =
        get("mem_uops_retired.stlb_miss_loads") + get("mem_uops_retired.stlb_miss_stores");
    let walks =
        get("dtlb_load_misses.miss_causes_a_walk") + get("dtlb_store_misses.miss_causes_a_walk");
    let rates = vec![
        ("wcpi".to_string(), per(get("dtlb_misses.walk_duration"))),
        ("cpi".to_string(), per(cycles)),
        ("stlb_mpki".to_string(), pki(stlb_misses)),
        ("walks_pki".to_string(), pki(walks)),
        ("aborted_frac".to_string(), 0.0),
        ("minor_faults_pki".to_string(), pki(get("minor-faults"))),
    ];
    Sample {
        instr,
        cycles,
        counters: names
            .iter()
            .zip(values)
            .map(|(n, v)| ((*n).to_string(), *v))
            .collect(),
        rates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::MAPPED;
    use atscale_telemetry::schema::{validate_stream_all, REQUIRED_COUNTERS, REQUIRED_RATES};

    #[test]
    fn telemetry_samples_carry_every_required_key() {
        let names: Vec<&'static str> = MAPPED.iter().map(|e| e.sim_name).collect();
        let values: Vec<u64> = (1..=names.len() as u64).collect();
        let sample = telemetry_sample(&names, &values);
        for required in REQUIRED_COUNTERS {
            assert!(
                sample.counters.iter().any(|(n, _)| n == required),
                "missing required counter {required}"
            );
        }
        for required in REQUIRED_RATES {
            assert!(
                sample.rates.iter().any(|(n, _)| n == required),
                "missing required rate {required}"
            );
        }
        assert_eq!(sample.instr, values[0], "instructions is MAPPED[0]");
    }

    #[test]
    fn rates_divide_by_instructions() {
        let names = vec!["inst_retired.any", "dtlb_misses.walk_duration"];
        let sample = telemetry_sample(&names, &[1000, 250]);
        let wcpi = sample.rates.iter().find(|(n, _)| n == "wcpi").unwrap().1;
        assert!((wcpi - 0.25).abs() < 1e-12);
        // Zero instructions must not divide by zero.
        let degenerate = telemetry_sample(&names, &[0, 250]);
        assert_eq!(degenerate.rates[0].1, 0.0);
    }

    #[test]
    fn labels_match_the_sim_label_shape() {
        let label = NativeRunConfig::label(NativeKernel::Bfs, 64);
        assert_eq!(label, "bfs-urand 64MB native");
        let parts: Vec<&str> = label.split(' ').collect();
        assert_eq!(parts.len(), 3, "workload, footprint, suffix");
        assert!(parts[1].ends_with("MB"));
    }

    #[test]
    fn harness_always_produces_a_valid_v3_stream() {
        // Environment-agnostic end-to-end: with or without perf access,
        // the emitted stream must pass the shipped validator, and the
        // outcome must match the stream contents.
        let out = std::env::temp_dir().join(format!(
            "atscale-native-harness-{}.jsonl",
            std::process::id()
        ));
        let config = NativeRunConfig {
            footprints_mb: vec![8],
            passes: 2,
            interval: 1,
            seed: 7,
            out: out.clone(),
        };
        let outcome = run(&config).unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let (summary, violations) = validate_stream_all(&text);
        assert!(violations.is_empty(), "invalid stream: {violations:?}");
        match outcome {
            NativeOutcome::Completed {
                runs,
                samples,
                reconcile_errors,
                ..
            } => {
                assert_eq!(runs, NativeKernel::ALL.len());
                assert!(samples >= runs, "at least the final sample per run");
                assert_eq!(reconcile_errors, 0);
                assert_eq!(summary.by_type.get("sample"), Some(&samples));
            }
            NativeOutcome::Unavailable { reason } => {
                assert!(!reason.is_empty());
                assert_eq!(summary.by_type.get("native_unavailable"), Some(&1));
                assert_eq!(summary.by_type.get("sample"), None);
            }
        }
        let _ = std::fs::remove_file(&out);
    }
}
