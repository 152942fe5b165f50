//! The repo benchmark: one named workload per invocation, driven through
//! the stack's public functions only, every host-time metric reported in
//! calibrated units. See `README.md` for the protocol and the glossary.
//!
//! ```text
//! atscale-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                   [--out <dir>] [--explore <0|1>] [--aa <runs-per-set>]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`.

mod aa;
mod cal;
mod estimate;
mod heap;
mod layers;
mod metrics;
mod mix;
mod run;
mod stages;
mod trace;

use mix::Mix;
use std::path::PathBuf;

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which mix to run.
    pub workload: Mix,
    /// Input seed: the same seed gives the same specs.
    pub seed: u64,
    /// How long to measure, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// Directory for store directories and the trace file; emptied first.
    pub out: PathBuf,
    /// Also print every host-time end-to-end metric under all four
    /// normalisers (`name@raw`, `@walk`, `@fault`, `@sum`): how the
    /// stage → calibrator table in `AA_REPORT.md` was chosen.
    pub explore: bool,
    /// `--aa N`: run two alternating sets of N child runs and report.
    pub aa: Option<usize>,
}

fn usage() -> String {
    let names: Vec<&str> = Mix::ALL.iter().map(|m| m.name()).collect();
    format!(
        "usage: atscale-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--out <dir>] [--explore <0|1>] [--aa <runs-per-set>] | --manifest",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Mix::WalkHeavy,
        seed: 1,
        seconds: 0.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        explore: false,
        aa: None,
    };
    let mut seen_workload = false;
    let flag = |v: &str, name: &str| match v {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{name} takes 0 or 1, not {v:?}")),
    };
    let mut it = argv.iter();
    while let Some(name) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{name} needs a value\n{}", usage()))?;
        match name.as_str() {
            "--workload" => {
                args.workload = Mix::parse(value)
                    .ok_or_else(|| format!("unknown workload {value:?}\n{}", usage()))?;
                seen_workload = true;
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = flag(value, "--trace")?,
            "--explore" => args.explore = flag(value, "--explore")?,
            "--out" => args.out = PathBuf::from(value),
            "--aa" => args.aa = Some(value.parse().map_err(|e| format!("--aa: {e}"))?),
            _ => return Err(format!("unknown argument {name:?}\n{}", usage())),
        }
    }
    if !seen_workload {
        return Err(format!("--workload is required\n{}", usage()));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600]\n{}", usage()));
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--manifest") {
        print!("{}", run::manifest());
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.aa {
        Some(runs) => aa::run(&args, runs),
        None => run::run(&args).map(|report| {
            report.print();
            report.correct()
        }),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("atscale-benchmark: {e}");
            std::process::exit(3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload many_small --seed 9 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Mix::ManySmall);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 20.0, true));
        assert!(!a.explore && a.aa.is_none());
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--seed 1 --seconds 5 --trace 0",
            "--workload nope --seconds 5",
            "--workload many_small --seconds 0",
            "--workload many_small --seconds 5 --trace 2",
            "--workload many_small --seconds",
            "--workload many_small --seconds 5 --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
