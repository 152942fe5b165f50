//! `atscale` — the one entry point to every experiment of the reproduction.
//!
//! ```text
//! atscale list                          the experiments, in DESIGN §3 order
//! atscale run <experiment>... [options] regenerate the named tables/figures
//! atscale run all [options]             regenerate every one, in order
//! atscale run all-served [options]      the same, sweep warmed via atscale-serve
//! atscale calibrate [workload] [options] throughput/shape probe (dev tool)
//! ```
//!
//! Every experiment renders from the shared run cache under
//! `$ATSCALE_RESULTS/runs` (default `results/runs`), so a sweep is
//! simulated once and every later view of it costs nothing. `run` opens
//! that store once and loops over the registry in-process.
//!
//! `all-served` first spawns a sibling `atscale-serve` on a private Unix
//! socket, submits the full fig1 spec set as one batch (exercising
//! admission, single-flight dedup, and the streamed protocol end to end),
//! pulls the fig1 aggregates per workload straight from the daemon's
//! online per-group state via the v5 `Query` verb (O(groups), no record
//! replay), and shuts the daemon down gracefully; only then does this
//! process open the store — a store directory has one owner.
//!
//! `calibrate` is not one of the paper's figures: it bypasses the cache
//! and reports simulator throughput and first-order scaling shapes on its
//! own fixed sweep, so sweep budgets and model constants can be chosen
//! sensibly.

use atscale::{ArchKind, Decomposition, RunSpec, SweepConfig};
use atscale_bench::experiments::{Experiment, REGISTRY};
use atscale_bench::{HarnessOptions, OPTIONS_USAGE};
use atscale_serve::protocol::{QueryFilter, QueryResult};
use atscale_serve::{Client, SubmitOptions};
use atscale_vm::PageSize;
use atscale_workloads::WorkloadId;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

fn usage() -> String {
    format!(
        "usage: atscale list\n       \
                atscale run <experiment>... | all | all-served  [options]\n       \
                atscale calibrate [workload]  [options, its sweep is fixed]\n\
         options: {OPTIONS_USAGE}\n\n\
         experiments:\n{}",
        list()
    )
}

fn list() -> String {
    REGISTRY
        .iter()
        .map(|e| format!("  {:<28} {}\n", e.name, e.title))
        .collect()
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("atscale: {message}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

fn dispatch(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let command = args.next().ok_or("no command given")?;
    match command.as_str() {
        "list" => match args.next() {
            None => print!("{}", list()),
            Some(extra) => return Err(format!("list takes no argument, got {extra}")),
        },
        "run" => {
            let (opts, names) = HarnessOptions::parse(args)?;
            run(&opts, &names)?;
        }
        "calibrate" => {
            let args: Vec<String> = args.collect();
            // The probe runs its own fixed sweep; a profile flag would be
            // accepted and ignored.
            if let Some(flag) = args
                .iter()
                .find(|a| matches!(a.as_str(), "--full" | "--quick" | "--test"))
            {
                return Err(format!(
                    "calibrate has a fixed sweep, {flag} does not apply"
                ));
            }
            let (opts, positionals) = HarnessOptions::parse(args)?;
            let workload = match positionals.as_slice() {
                [] => None,
                [name] => Some(
                    WorkloadId::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
                ),
                [_, extra, ..] => return Err(format!("calibrate takes one workload, got {extra}")),
            };
            calibrate(&opts, workload);
        }
        other => return Err(format!("unknown command {other}")),
    }
    Ok(())
}

/// Runs the named experiments in the order given, as if each were its own
/// program; `all` / `all-served` run the whole registry under
/// `=== name ===` separators.
fn run(opts: &HarnessOptions, names: &[String]) -> Result<(), String> {
    let registry = || REGISTRY.iter().collect::<Vec<&Experiment>>();
    let (selected, done) = match names {
        [] => return Err("run needs an experiment name, all, or all-served".into()),
        [all] if all == "all" => (registry(), Some("all figures and tables regenerated")),
        [all] if all == "all-served" => {
            warm_through_daemon(opts);
            let done = "all figures and tables regenerated through the serving daemon";
            (registry(), Some(done))
        }
        names => {
            let named = names.iter().map(|name| {
                REGISTRY
                    .iter()
                    .find(|e| e.name == name)
                    .ok_or_else(|| format!("unknown experiment {name}"))
            });
            (named.collect::<Result<_, _>>()?, None)
        }
    };
    let harness = opts.harness();
    for experiment in selected {
        if done.is_some() {
            println!("\n=== {} ===", experiment.name);
        }
        experiment.run(opts, &harness);
    }
    if let Some(done) = done {
        println!("\n{done}");
    }
    Ok(())
}

fn print_fit(label: &str, answer: &QueryResult) {
    match (answer.beta, answer.intercept) {
        (Some(beta), Some(c)) => println!(
            "  {label:<12} {} run(s) | WCPI = {beta:.4} * log10(M_KB) + {c:.4}",
            answer.count
        ),
        _ => println!(
            "  {label:<12} {} run(s) | fit n/a (needs >= 2 footprints)",
            answer.count
        ),
    }
}

/// Warms the run cache under `opts.out_dir` through a sibling
/// `atscale-serve`, and returns once that daemon has exited.
fn warm_through_daemon(opts: &HarnessOptions) {
    // What fig1 needs: every point at the three page sizes.
    let specs = opts.sweep.specs(&WorkloadId::all());
    // The scenario matrix's off-baseline wing: every alternative
    // translation architecture over the same points, 4 KB pages only (the
    // per-architecture β/c fit needs the footprint axis, not the superpage
    // axis — baseline already covers 2M/1G for the figures).
    let arch_specs: Vec<RunSpec> = ArchKind::ALL
        .iter()
        .filter(|&&arch| arch != ArchKind::Baseline)
        .flat_map(|&arch| {
            specs
                .iter()
                .filter(|spec| spec.page_size == PageSize::Size4K)
                .map(move |spec| spec.with_arch(arch))
        })
        .collect();
    let socket = std::env::temp_dir().join(format!("atscale-make-all-{}.sock", std::process::id()));
    let self_path = std::env::current_exe().expect("own path");
    let mut daemon = Command::new(self_path.with_file_name("atscale-serve"))
        .arg("--socket")
        .arg(&socket)
        .arg("--store")
        .arg(opts.out_dir.join("runs"))
        // Size the admission queue to the larger batch so each is one
        // `run_many` submission (admission is whole-batch-atomic; an
        // undersized queue would reject it Overloaded).
        .arg("--queue")
        .arg(specs.len().max(arch_specs.len()).to_string())
        .spawn()
        .expect("launch atscale-serve");
    let target = format!("unix:{}", socket.display());
    let mut client = loop {
        match Client::connect(&target) {
            Ok(client) => break client,
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let welcome = client.hello().expect("handshake");
    println!("warming cache via {} ({})", welcome.server, target);
    let records = client
        .run_many(&specs, SubmitOptions::default())
        .expect("sweep batch");
    println!("daemon resolved {} specs", records.len());

    // Fig1 aggregates straight from the daemon's online per-group state:
    // one Query verb per workload, answered in O(groups) without touching
    // the raw records we just submitted.
    println!("\nfig1 aggregates via the results plane:");
    for &w in &WorkloadId::all() {
        let filter = QueryFilter {
            workload: Some(w.to_string()),
            ..QueryFilter::default()
        };
        print_fit(&w.to_string(), &client.query(&filter).expect("fig1 query"));
    }

    // The served scenario matrix: the same footprint ladder on every
    // alternative translation architecture, then one arch-filtered Query
    // per architecture for the fig1-style per-arch β/c fit.
    let arch_records = client
        .run_many(&arch_specs, SubmitOptions::default())
        .expect("arch-matrix batch");
    println!(
        "\narch matrix: daemon resolved {} off-baseline specs",
        arch_records.len()
    );
    println!("per-architecture fig1 fits (4K, all workloads):");
    for &arch in &ArchKind::ALL {
        let filter = QueryFilter {
            arch: Some(arch.to_string()),
            ..QueryFilter::default()
        };
        print_fit(arch.as_str(), &client.query(&filter).expect("arch query"));
    }
    client.shutdown().expect("graceful shutdown");
    let status = daemon.wait().expect("daemon exit status");
    assert!(status.success(), "daemon exited non-zero");
}

/// One row per (workload, footprint): the named workload over five
/// footprints, or all 13 over three.
fn calibrate(opts: &HarnessOptions, workload: Option<WorkloadId>) {
    let telemetry = opts.telemetry("calibrate");
    let harness = telemetry.attach(opts.uncached_harness());
    let (workloads, points) = match workload {
        Some(workload) => (vec![workload], 5),
        None => (WorkloadId::all().to_vec(), 3),
    };
    let sweep = SweepConfig {
        min_footprint: 256 << 20,
        max_footprint: 16 << 30,
        points,
        warmup_instr: 100_000,
        budget_instr: 1_000_000,
        seed: 42,
    };
    println!(
        "{:<20} {:>9} {:>7} {:>8} {:>8} {:>9} {:>9} {:>8} {:>8} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "workload", "footprint", "t_wall", "overhead", "wcpi", "miss/acc", "acc/instr", "acc/walk",
        "lat/acc", "Minstr/s", "cpi4k", "cpi2m", "cpi1g", "wcpi2m", "wp%", "abort%"
    );
    for id in workloads {
        for fp in sweep.footprints() {
            let t0 = Instant::now();
            let point = harness.overhead_point(&sweep.spec(id, fp));
            let elapsed = t0.elapsed().as_secs_f64();
            let c = &point.run_4k.result.counters;
            let d = Decomposition::from_counters(c);
            let o = c.walk_outcomes();
            println!(
                "{:<20} {:>9} {:>7.2} {:>8.3} {:>8.3} {:>9.4} {:>9.3} {:>8.3} {:>8.1} {:>9.1} {:>7.2} {:>7.2} {:>7.2} {:>7.3} {:>6.1}% {:>6.1}%",
                id.to_string(),
                atscale::report::human_bytes(fp),
                elapsed,
                point.relative_overhead(),
                d.wcpi,
                d.misses_per_access,
                d.accesses_per_instr,
                d.ptw_accesses_per_walk,
                d.cycles_per_ptw_access,
                (c.inst_retired as f64 * 3.0 / 1e6) / elapsed,
                c.cpi(),
                point.run_2m.result.counters.cpi(),
                point.run_1g.result.counters.cpi(),
                point.run_2m.result.counters.wcpi(),
                100.0 * o.wrong_path_fraction(),
                100.0 * o.aborted_fraction(),
            );
        }
    }
}
