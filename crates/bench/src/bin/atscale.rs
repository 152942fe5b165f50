//! `atscale` — the one entry point to every experiment of the reproduction.
//!
//! ```text
//! atscale list                          the experiments, in DESIGN §3 order
//! atscale run <experiment>... [options] regenerate the named tables/figures
//! atscale run all [options]             regenerate every one, in order
//! ```
//!
//! Every experiment renders from the shared run cache under
//! `$ATSCALE_RESULTS/runs` (default `results/runs`), so a sweep is
//! simulated once and every later view of it costs nothing. `run` opens
//! that store once and loops over the registry in-process.
//!
//! To warm that cache through the serving daemon instead, point
//! `atscale-serve --store` at it, run `atscale-client sweep`, shut the
//! daemon down with `atscale-client shutdown`, then `atscale run all` — a
//! store directory has one owner at a time.

use atscale_bench::experiments::{Experiment, REGISTRY};
use atscale_bench::{HarnessOptions, OPTIONS_USAGE};
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: atscale list\n       \
                atscale run <experiment>... | all  [options]\n\
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
        other => return Err(format!("unknown command {other}")),
    }
    Ok(())
}

/// Runs the named experiments in the order given, as if each were its own
/// program; `all` runs the whole registry under `=== name ===` separators.
fn run(opts: &HarnessOptions, names: &[String]) -> Result<(), String> {
    let (selected, all) = match names {
        [] => return Err("run needs an experiment name or all".into()),
        [all] if all == "all" => (REGISTRY.iter().collect(), true),
        names => {
            let named = names.iter().map(|name| {
                REGISTRY
                    .iter()
                    .find(|e| e.name == name)
                    .ok_or_else(|| format!("unknown experiment {name}"))
            });
            (named.collect::<Result<Vec<&Experiment>, _>>()?, false)
        }
    };
    let harness = opts.harness();
    for experiment in selected {
        if all {
            println!("\n=== {} ===", experiment.name);
        }
        experiment.run(opts, &harness);
    }
    if all {
        println!("\nall figures and tables regenerated");
    }
    Ok(())
}
