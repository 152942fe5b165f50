//! `store_compact` — compact a results directory's segment store down
//! to its live rows.
//!
//! ```text
//! store_compact [--dir DIR] [--verify] [--stats-out PATH]
//! ```
//!
//! Opens the segment store under `DIR` (default: the store `atscale run`
//! fills, `$ATSCALE_RESULTS/runs`, or `results/runs`), then compacts.
//! With `--verify`, every live row's hot columns are checked against a
//! recomputation from its raw record, both before and after compaction;
//! a mismatch, a stored record that does not parse, or a live row that
//! cannot be read at all is a failure.
//! `--stats-out` writes the final segment-store occupancy as JSON (the CI
//! results-smoke artifact). A bad command line prints the usage and exits
//! 2; a failure at run time exits 1.

use atscale::{hot_row, RunRecord, RunStore};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    dir: Option<PathBuf>,
    verify: bool,
    stats_out: Option<PathBuf>,
}

const USAGE: &str = "usage: store_compact [--dir DIR] [--verify] [--stats-out PATH]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        dir: None,
        verify: false,
        stats_out: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--dir" => {
                opts.dir = Some(PathBuf::from(iter.next().ok_or("--dir needs a path")?));
            }
            "--verify" => opts.verify = true,
            "--stats-out" => {
                opts.stats_out = Some(PathBuf::from(
                    iter.next().ok_or("--stats-out needs a path")?,
                ));
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(opts)
}

/// Checks every live row against its raw record: the record's JSON must
/// parse, and [`hot_row`] of it must equal the stored hot columns — the
/// rows every `Query` is answered from. The rows visited must number the
/// store's live rows, so a row whose raw bytes cannot be read fails too.
fn verify(store: &RunStore, phase: &str) -> Result<(), String> {
    let mut rows = 0u64;
    let mut failure = None;
    store.for_each_live_record(|key, hot, raw| {
        rows += 1;
        if failure.is_some() {
            return;
        }
        match serde_json::from_slice::<RunRecord>(&raw) {
            Ok(record) => {
                let want = hot_row(&record);
                if *hot != want {
                    failure = Some(format!(
                        "{phase}: stored hot columns of {key} differ from its record's\n\
                         stored:   {hot:?}\nfrom-raw: {want:?}"
                    ));
                }
            }
            Err(e) => failure = Some(format!("{phase}: stored record {key} does not parse: {e}")),
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    let live = store.seg_stats().live_rows;
    if rows != live {
        return Err(format!(
            "{phase}: read {rows} of {live} live rows; the rest do not decompress"
        ));
    }
    println!("verify ({phase}): {rows} rows, hot columns == from-raw recomputation");
    Ok(())
}

fn run(opts: &Options) -> Result<(), String> {
    let dir = opts.dir.clone().unwrap_or_else(|| {
        let base = std::env::var("ATSCALE_RESULTS").unwrap_or_else(|_| "results".into());
        PathBuf::from(base).join("runs")
    });
    let store = RunStore::open(dir).map_err(|e| format!("cannot open store: {e}"))?;

    println!("opened: {} live row(s)", store.seg_stats().live_rows);
    if opts.verify {
        verify(&store, "pre-compact")?;
    }

    let compacted = store
        .compact()
        .map_err(|e| format!("compaction failed: {e}"))?;
    println!("compacted: {compacted}");
    if opts.verify {
        verify(&store, "post-compact")?;
    }

    let stats = store.seg_stats();
    println!("segment store: {stats}");
    if let Some(path) = &opts.stats_out {
        let text = serde_json::to_string(&stats).expect("seg stats serialize");
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("store_compact: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("store_compact: {e}");
            ExitCode::FAILURE
        }
    }
}
