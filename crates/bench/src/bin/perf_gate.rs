//! Simulator-throughput gate: measures simulated instructions per second
//! for every workload and compares against a committed baseline.
//!
//! Each workload's sweep specs are executed serially (no worker pool — the
//! point is per-run throughput, not parallel speedup) and timed with a
//! monotonic clock. Results land in a JSON report:
//!
//! ```json
//! {
//!   "schema": "atscale-perf-gate-v1",
//!   "sweep": "quick",
//!   "total_wall_seconds": 41.2,
//!   "workloads": [
//!     { "label": "bc-kron", "instructions": 15400000,
//!       "wall_seconds": 2.1, "instr_per_sec": 7333333.0 }
//!   ]
//! }
//! ```
//!
//! With `--baseline OLD.json`, per-workload `instr_per_sec` is compared and
//! the process exits non-zero if any workload regressed by more than
//! `--threshold` percent (default 25). CI runs this on every push; the
//! committed `BENCH_PR4.json` at the repo root is the reference point.
//!
//! Usage:
//!   perf_gate [--test|--quick|--full] [--out PATH] [--baseline PATH]
//!             [--threshold PCT] [--repeat N] [--arch NAME]
//!
//! `--arch NAME` measures on one of the pluggable translation
//! architectures (`baseline`, `victima`, `dram-cache`, `no-tlb`). Workload
//! labels get an `@arch` suffix off-baseline, so an A/B report never
//! silently compares against baseline numbers; the default (baseline)
//! keeps labels — and hence `BENCH_PR4.json` comparisons — unchanged.
//!
//! `--repeat N` measures every workload N times and reports each one's best
//! pass — the standard defence against noisy-neighbour machines, where a
//! single pass can swing ±15% and a throughput *gate* must not flake.

use atscale::mmu::MachineConfig;
use atscale::{execute_run, ArchKind, RunSpec, SweepConfig};
use atscale_workloads::WorkloadId;
use std::process::ExitCode;
use std::time::Instant;

#[derive(serde::Serialize, serde::Deserialize)]
struct WorkloadThroughput {
    /// Workload label (`cc-urand`, `mcf-rand`, …).
    label: String,
    /// Total simulated instructions retired across the workload's specs.
    instructions: u64,
    /// Wall-clock seconds spent simulating them.
    wall_seconds: f64,
    /// The headline number: simulated instructions per wall-clock second.
    instr_per_sec: f64,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct Report {
    /// Format tag; bump when fields change meaning.
    schema: String,
    /// Which sweep sized the runs (`test`, `quick` or `full`).
    sweep: String,
    /// Wall-clock seconds for the whole measurement.
    total_wall_seconds: f64,
    /// Per-workload throughput, in [`WorkloadId::all`] order.
    workloads: Vec<WorkloadThroughput>,
}

struct Options {
    sweep: SweepConfig,
    sweep_name: String,
    out: String,
    baseline: Option<String>,
    threshold_pct: f64,
    repeat: u32,
    workloads: Option<Vec<WorkloadId>>,
    arch: ArchKind,
}

fn parse_args() -> Options {
    let mut opts = Options {
        sweep: SweepConfig::quick(),
        sweep_name: "quick".to_string(),
        out: "BENCH_PR4.json".to_string(),
        baseline: None,
        threshold_pct: 25.0,
        repeat: 1,
        workloads: None,
        arch: ArchKind::Baseline,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--test" => {
                opts.sweep = SweepConfig::test();
                opts.sweep_name = "test".to_string();
            }
            "--quick" => {
                opts.sweep = SweepConfig::quick();
                opts.sweep_name = "quick".to_string();
            }
            "--full" => {
                opts.sweep = SweepConfig::full();
                opts.sweep_name = "full".to_string();
            }
            "--out" => opts.out = args.next().expect("--out takes a path"),
            "--baseline" => opts.baseline = Some(args.next().expect("--baseline takes a path")),
            "--threshold" => {
                opts.threshold_pct = args
                    .next()
                    .expect("--threshold takes a percentage")
                    .parse()
                    .expect("--threshold must be a number");
            }
            "--repeat" => {
                opts.repeat = args
                    .next()
                    .expect("--repeat takes a count")
                    .parse()
                    .expect("--repeat must be a positive integer");
                assert!(opts.repeat >= 1, "--repeat must be at least 1");
            }
            "--workloads" => {
                let list = args
                    .next()
                    .expect("--workloads takes a comma-separated list");
                opts.workloads = Some(
                    list.split(',')
                        .map(|l| {
                            WorkloadId::parse(l.trim())
                                .unwrap_or_else(|| panic!("unknown workload: {l}"))
                        })
                        .collect(),
                );
            }
            "--arch" => {
                let name = args.next().expect("--arch takes a name");
                opts.arch = name.parse().unwrap_or_else(|e: String| panic!("{e}"));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: perf_gate [--test|--quick|--full] [--out PATH] \
                     [--baseline PATH] [--threshold PCT] [--repeat N] [--arch NAME]"
                );
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Minimum wall time one measured pass must accumulate. Test-sweep specs
/// finish in ~10 ms, where timer and scheduler noise swamp the signal; a
/// pass keeps re-running its spec list until it has at least this much
/// wall time behind its instr/s figure. Quick and full sweeps take seconds
/// per pass and run the list exactly once.
const MIN_PASS_SECONDS: f64 = 0.25;

fn measure(opts: &Options) -> Report {
    let config = MachineConfig::haswell();
    let mut workloads = Vec::new();
    let total_start = Instant::now();
    let selected = opts
        .workloads
        .clone()
        .unwrap_or_else(|| WorkloadId::all().into_iter().collect());
    for workload in selected {
        let specs: Vec<RunSpec> = opts
            .sweep
            .footprints()
            .into_iter()
            .map(|fp| opts.sweep.spec(workload, fp).with_arch(opts.arch))
            .collect();
        let label = if opts.arch == ArchKind::Baseline {
            workload.to_string()
        } else {
            format!("{workload}@{}", opts.arch)
        };
        let mut best: Option<WorkloadThroughput> = None;
        for _ in 0..opts.repeat {
            let start = Instant::now();
            let mut instructions = 0u64;
            loop {
                for spec in &specs {
                    let record = execute_run(spec, &config);
                    instructions += record.result.counters.inst_retired;
                }
                if start.elapsed().as_secs_f64() >= MIN_PASS_SECONDS {
                    break;
                }
            }
            let wall_seconds = start.elapsed().as_secs_f64();
            let instr_per_sec = instructions as f64 / wall_seconds.max(1e-9);
            if best
                .as_ref()
                .is_none_or(|b| instr_per_sec > b.instr_per_sec)
            {
                best = Some(WorkloadThroughput {
                    label: label.clone(),
                    instructions,
                    wall_seconds,
                    instr_per_sec,
                });
            }
        }
        let best = best.expect("at least one repeat");
        eprintln!(
            "{:<22} {:>12} instr  {:>7.2} s  {:>12.0} instr/s",
            best.label, best.instructions, best.wall_seconds, best.instr_per_sec
        );
        workloads.push(best);
    }
    Report {
        schema: "atscale-perf-gate-v1".to_string(),
        sweep: opts.sweep_name.clone(),
        total_wall_seconds: total_start.elapsed().as_secs_f64(),
        workloads,
    }
}

/// Compares against a baseline report; returns the labels that regressed
/// beyond the threshold.
fn regressions(report: &Report, baseline: &Report, threshold_pct: f64) -> Vec<String> {
    let floor = 1.0 - threshold_pct / 100.0;
    let mut failed = Vec::new();
    for old in &baseline.workloads {
        let Some(new) = report.workloads.iter().find(|w| w.label == old.label) else {
            eprintln!(
                "warning: baseline workload {} missing from this run",
                old.label
            );
            continue;
        };
        let ratio = new.instr_per_sec / old.instr_per_sec.max(1e-9);
        let verdict = if ratio < floor { "REGRESSED" } else { "ok" };
        eprintln!(
            "{:<22} baseline {:>12.0}  now {:>12.0}  ratio {ratio:>5.2}x  {verdict}",
            old.label, old.instr_per_sec, new.instr_per_sec
        );
        if ratio < floor {
            failed.push(old.label.clone());
        }
    }
    failed
}

fn main() -> ExitCode {
    let opts = parse_args();
    let report = measure(&opts);
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&opts.out, json + "\n").expect("write report");
    eprintln!(
        "wrote {} ({} workloads, {:.1} s total)",
        opts.out,
        report.workloads.len(),
        report.total_wall_seconds
    );
    if let Some(path) = &opts.baseline {
        let text = std::fs::read_to_string(path).expect("read baseline");
        let baseline: Report = serde_json::from_str(&text).expect("parse baseline");
        let failed = regressions(&report, &baseline, opts.threshold_pct);
        if !failed.is_empty() {
            eprintln!(
                "perf gate FAILED: {} workload(s) regressed more than {}%: {}",
                failed.len(),
                opts.threshold_pct,
                failed.join(", ")
            );
            return ExitCode::FAILURE;
        }
        eprintln!("perf gate passed (threshold {}%)", opts.threshold_pct);
    }
    ExitCode::SUCCESS
}
