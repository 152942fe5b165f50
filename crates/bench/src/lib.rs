//! # atscale-bench — experiment registry and regeneration harness
//!
//! Every table, figure, ablation and extension of the reproduction is one
//! entry of [`experiments::REGISTRY`], a view of the one footprint sweep.
//! The `atscale` binary is the single entry point to all of them
//! (`atscale list`, `atscale run <experiment>…`, `atscale run all`); the
//! other binaries in `src/bin/` are tools with their own command lines.
//! Simulator and daemon speed is measured by the repo benchmark
//! (`bash benchmark/run.sh`), not here. Command-line options and telemetry
//! scoping live here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use atscale::telemetry::TelemetrySink;
use atscale::{Harness, RunStore, SweepConfig};
use atscale_mmu::TelemetryHandle;
use std::path::PathBuf;
use std::sync::Arc;

/// Default interval-sampling cadence (retired instructions) when telemetry
/// is enabled without an explicit `--sample-interval`.
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 100_000;

/// The flags [`HarnessOptions::parse`] accepts, for usage messages.
pub const OPTIONS_USAGE: &str = "[--full | --quick | --test] [--threads N] [--progress] \
     [--telemetry-summary] [--telemetry-jsonl] [--sample-interval N]";

/// Common options of every `atscale` subcommand.
///
/// `--full` (wider, longer sweep), `--quick` (the default), `--test`
/// (tiny), `--threads N`, `--progress` (stderr one-liner per run), and the
/// telemetry switches: `--telemetry-summary` (print the histogram report
/// and stream JSONL), `--telemetry-jsonl` (stream JSONL only),
/// `--sample-interval N` (counter-sampling cadence in retired
/// instructions). Output goes under `$ATSCALE_RESULTS` (default
/// `results`).
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// The sweep parameters.
    pub sweep: SweepConfig,
    /// Worker threads.
    pub threads: Option<usize>,
    /// Output directory: CSV series, `telemetry/` streams, and the run
    /// store under `runs/`.
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
    /// Parses `args` (without the program name) into options and the
    /// non-flag arguments, in order.
    ///
    /// # Errors
    ///
    /// Names the unknown flag, or the flag whose number is missing.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(HarnessOptions, Vec<String>), String> {
        fn number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
            value
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{flag} needs a number"))
        }
        let mut opts = HarnessOptions::default();
        let mut positionals = Vec::new();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--full" => opts.sweep = SweepConfig::full(),
                "--quick" => opts.sweep = SweepConfig::quick(),
                "--test" => opts.sweep = SweepConfig::test(),
                "--threads" => opts.threads = Some(number(&arg, iter.next())?),
                "--telemetry-summary" => opts.telemetry_summary = true,
                "--telemetry-jsonl" => opts.telemetry_jsonl = true,
                "--sample-interval" => opts.sample_interval = Some(number(&arg, iter.next())?),
                "--progress" => opts.progress = true,
                other if other.starts_with("--") => return Err(format!("unknown option {other}")),
                _ => positionals.push(arg),
            }
        }
        let base = std::env::var("ATSCALE_RESULTS").unwrap_or_else(|_| "results".into());
        opts.out_dir = PathBuf::from(base);
        Ok((opts, positionals))
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

    /// Sets up telemetry for a scope named `name`: a [`TelemetrySink`]
    /// streaming to `out_dir/telemetry/{name}.jsonl` (when enabled).
    /// [`TelemetryScope::attach`] hands the sink to a harness; keep the
    /// guard alive for the whole scope — dropping it finalizes the stream
    /// and prints the summary, so scopes follow one another but never
    /// nest.
    pub fn telemetry(&self, name: &str) -> TelemetryScope {
        let sink = if self.telemetry_enabled() {
            let path = self.out_dir.join("telemetry").join(format!("{name}.jsonl"));
            match TelemetrySink::new().with_jsonl(&path) {
                Ok(sink) => Some(Arc::new(sink)),
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
            sample_interval: self.effective_sample_interval(),
            summary: self.telemetry_summary,
        }
    }

    /// A harness with `--threads` and `--progress` applied, over the run
    /// store in `out_dir/runs`, with no telemetry. A store directory has
    /// one owner: open it once per process and `clone()` the harness
    /// (panics only on I/O errors creating the directory, which is fatal
    /// for a harness run).
    pub fn harness(&self) -> Harness {
        let store = RunStore::open(self.out_dir.join("runs")).expect("create the run store");
        let harness = Harness::new()
            .with_progress(self.progress)
            .with_store(store);
        match self.threads {
            Some(t) => harness.with_threads(t),
            None => harness,
        }
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

/// Scope guard returned by [`HarnessOptions::telemetry`]: on drop,
/// finalizes the JSONL stream and prints the human summary when
/// `--telemetry-summary` was given.
#[derive(Debug)]
pub struct TelemetryScope {
    sink: Option<Arc<TelemetrySink>>,
    /// [`HarnessOptions::effective_sample_interval`].
    sample_interval: u64,
    summary: bool,
}

impl TelemetryScope {
    /// `harness` reporting to this scope: its sink, sampling at the
    /// options' cadence. With no sink a non-zero cadence still samples
    /// (series land in [`atscale::RunRecord`]s); zero leaves the harness
    /// untouched.
    pub fn attach(&self, harness: Harness) -> Harness {
        match &self.sink {
            Some(sink) => {
                harness.with_telemetry(TelemetryHandle::new(Arc::clone(sink), self.sample_interval))
            }
            None if self.sample_interval > 0 => {
                harness.with_telemetry(TelemetryHandle::sampling_only(self.sample_interval))
            }
            None => harness,
        }
    }
}

impl Drop for TelemetryScope {
    fn drop(&mut self) {
        if let Some(sink) = self.sink.take() {
            let path = sink.finish();
            if self.summary {
                println!("{}", sink.summary());
            }
            if let Some(path) = path {
                eprintln!("[atscale] telemetry stream: {}", path.display());
            }
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
        // Opening a store creates files: point it away from the source tree.
        let scratch =
            std::env::temp_dir().join(format!("atscale-bench-lib-test-{}", std::process::id()));
        let opts = HarnessOptions {
            threads: Some(2),
            out_dir: scratch.clone(),
            ..HarnessOptions::default()
        };
        let harness = opts.harness();
        assert_eq!(harness.config(), &atscale_mmu::MachineConfig::haswell());
        assert!(scratch.join("runs/segments").is_dir());
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
