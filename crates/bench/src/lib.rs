//! # atscale-bench — figure/table regeneration harness
//!
//! One binary per table and figure of the paper (see `src/bin/`), plus
//! Criterion micro-benchmarks of the simulator components (`benches/`).
//! Shared command-line handling and output plumbing live here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use atscale::telemetry::{span, SpanGuard, TelemetrySink};
use atscale::{Harness, SweepConfig};
use std::path::PathBuf;
use std::sync::Arc;

/// Default interval-sampling cadence (retired instructions) when telemetry
/// is enabled without an explicit `--sample-interval`.
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 100_000;

/// Common options for figure/table binaries.
///
/// Usage: every harness binary accepts `--full` (wider, longer sweep),
/// `--quick` (the default), `--test` (tiny), `--threads N`, `--progress`
/// (stderr one-liner per run), and the telemetry switches:
/// `--telemetry-summary` (print the phase/histogram report and stream
/// JSONL), `--telemetry-jsonl` (stream JSONL only), `--sample-interval N`
/// (counter-sampling cadence in retired instructions).
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// The sweep parameters.
    pub sweep: SweepConfig,
    /// Worker threads.
    pub threads: Option<usize>,
    /// Output directory for CSV series.
    pub out_dir: PathBuf,
    /// Print the human telemetry report (implies the JSONL stream).
    pub telemetry_summary: bool,
    /// Stream telemetry events as JSON lines under `out_dir/telemetry/`.
    pub telemetry_jsonl: bool,
    /// Counter-sampling cadence override (`--sample-interval N`).
    pub sample_interval: Option<u64>,
    /// Emit one progress line per finished run.
    pub progress: bool,
}

impl HarnessOptions {
    /// Parses options from `std::env::args`, rejecting positional
    /// arguments.
    pub fn from_args() -> HarnessOptions {
        let (opts, positionals) = Self::from_args_with_positionals();
        if let Some(stray) = positionals.first() {
            panic!(
                "unknown option {stray} (try --full, --quick, --threads N, \
                 --telemetry-summary, --telemetry-jsonl, --sample-interval N, --progress)"
            );
        }
        opts
    }

    /// Like [`HarnessOptions::from_args`], but returns non-flag arguments
    /// in order instead of rejecting them — for binaries that take
    /// positional arguments (e.g. `calibrate <workload>`).
    pub fn from_args_with_positionals() -> (HarnessOptions, Vec<String>) {
        let args: Vec<String> = std::env::args().collect();
        let mut opts = HarnessOptions::default();
        let mut positionals = Vec::new();
        let mut iter = args.iter().skip(1);
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--full" => opts.sweep = SweepConfig::full(),
                "--quick" => opts.sweep = SweepConfig::quick(),
                "--test" => opts.sweep = SweepConfig::test(),
                "--threads" => {
                    opts.threads = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .or_else(|| panic!("--threads needs a number"));
                }
                "--telemetry-summary" => opts.telemetry_summary = true,
                "--telemetry-jsonl" => opts.telemetry_jsonl = true,
                "--sample-interval" => {
                    opts.sample_interval = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .or_else(|| panic!("--sample-interval needs a number"));
                }
                "--progress" => opts.progress = true,
                other if other.starts_with("--") => panic!(
                    "unknown option {other} (try --full, --quick, --threads N, \
                     --telemetry-summary, --telemetry-jsonl, --sample-interval N, --progress)"
                ),
                positional => positionals.push(positional.to_string()),
            }
        }
        let base = std::env::var("ATSCALE_RESULTS").unwrap_or_else(|_| "results".into());
        opts.out_dir = PathBuf::from(base);
        (opts, positionals)
    }

    /// Whether any telemetry exporter was requested.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry_summary || self.telemetry_jsonl
    }

    /// The counter-sampling cadence in effect: the explicit override, or
    /// [`DEFAULT_SAMPLE_INTERVAL`] when telemetry is on, or 0 (disabled).
    pub fn effective_sample_interval(&self) -> u64 {
        self.sample_interval.unwrap_or(if self.telemetry_enabled() {
            DEFAULT_SAMPLE_INTERVAL
        } else {
            0
        })
    }

    /// Sets up telemetry for a binary named `name`: installs a process-
    /// global [`TelemetrySink`] streaming to `out_dir/telemetry/{name}.jsonl`
    /// (when enabled) and opens a root span named `name`. Call **before**
    /// [`HarnessOptions::harness`] and keep the guard alive for the whole
    /// run — dropping it finalizes the stream and prints the summary.
    pub fn telemetry(&self, name: &str) -> TelemetryScope {
        let sink = if self.telemetry_enabled() {
            let path = self.out_dir.join("telemetry").join(format!("{name}.jsonl"));
            match TelemetrySink::new().with_jsonl(&path) {
                Ok(sink) => {
                    let sink = Arc::new(sink);
                    atscale::telemetry::install(Arc::clone(&sink));
                    Some(sink)
                }
                Err(e) => {
                    eprintln!(
                        "[atscale] cannot open telemetry stream {}: {e}",
                        path.display()
                    );
                    None
                }
            }
        } else {
            None
        };
        TelemetryScope {
            sink,
            summary: self.telemetry_summary,
            span: Some(span(name)),
        }
    }

    /// Builds the cached, parallel harness these options describe, attached
    /// to the installed telemetry sink (if any) at the effective sampling
    /// cadence.
    pub fn harness(&self) -> Harness {
        let mut harness = Harness::new()
            .with_default_store()
            .with_installed_telemetry(self.effective_sample_interval())
            .with_progress(self.progress);
        if let Some(t) = self.threads {
            harness = harness.with_threads(t);
        }
        harness
    }

    /// Path for a named CSV output.
    pub fn csv_path(&self, name: &str) -> PathBuf {
        self.out_dir.join(format!("{name}.csv"))
    }
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            sweep: SweepConfig::quick(),
            threads: None,
            out_dir: PathBuf::from("results"),
            telemetry_summary: false,
            telemetry_jsonl: false,
            sample_interval: None,
            progress: false,
        }
    }
}

/// Scope guard returned by [`HarnessOptions::telemetry`]: keeps the
/// binary's root span open and, on drop, finalizes the JSONL stream,
/// prints the human summary when `--telemetry-summary` was given, and
/// uninstalls the global sink.
#[derive(Debug)]
pub struct TelemetryScope {
    sink: Option<Arc<TelemetrySink>>,
    summary: bool,
    span: Option<SpanGuard>,
}

impl TelemetryScope {
    /// The sink this scope installed, if telemetry was enabled.
    pub fn sink(&self) -> Option<&Arc<TelemetrySink>> {
        self.sink.as_ref()
    }
}

impl Drop for TelemetryScope {
    fn drop(&mut self) {
        // Close the root span first so its timing reaches the span events.
        drop(self.span.take());
        if let Some(sink) = self.sink.take() {
            let path = sink.finish();
            if self.summary {
                println!("{}", sink.summary());
            }
            if let Some(path) = path {
                eprintln!("[atscale] telemetry stream: {}", path.display());
            }
            atscale::telemetry::uninstall();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_quick_profile() {
        let opts = HarnessOptions::default();
        assert_eq!(opts.sweep, SweepConfig::quick());
        assert_eq!(opts.threads, None);
        assert_eq!(opts.out_dir, PathBuf::from("results"));
    }

    #[test]
    fn csv_paths_land_in_the_output_directory() {
        let opts = HarnessOptions::default();
        assert_eq!(opts.csv_path("fig1"), PathBuf::from("results/fig1.csv"));
    }

    #[test]
    fn harness_builds_with_requested_threads() {
        let opts = HarnessOptions {
            threads: Some(2),
            ..HarnessOptions::default()
        };
        // Opening the default store creates files: point it away from the
        // source tree (no other test in this binary reads the variable).
        let scratch =
            std::env::temp_dir().join(format!("atscale-bench-lib-test-{}", std::process::id()));
        std::env::set_var("ATSCALE_RESULTS", &scratch);
        // Building the harness must not panic and must honour the config.
        let harness = opts.harness();
        assert_eq!(harness.config(), &atscale_mmu::MachineConfig::haswell());
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
