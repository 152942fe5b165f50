//! `store_compact` — compact a results directory's segment store down
//! to its live rows.
//!
//! ```text
//! store_compact [--dir DIR] [--verify] [--stats-out PATH]
//! ```
//!
//! Opens `DIR` (default: the store `atscale run` fills,
//! `$ATSCALE_RESULTS/runs`, or `results/runs`) — which, like every open,
//! folds any legacy per-file `.json` records into the segment store with
//! their keys and raw bytes preserved exactly — then compacts. With `--verify`,
//! the store's online aggregates are diffed against a recomputation from
//! the raw records both before and after compaction; any mismatch is a
//! hard failure. `--stats-out` writes the final segment-store occupancy
//! as JSON (the CI results-smoke artifact).

use atscale::results::{AggState, QueryFilter};
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
            other => return Err(format!("unknown option {other}\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// Diffs the store's online aggregates against a from-raw recomputation:
/// replay every live record's JSON through [`hot_row`] into a fresh
/// [`AggState`] and require the full query answer — count, mean, sketch
/// quantiles, and the fig1 β/c fit — to match exactly. Both sides use
/// the same sketch, so agreement is bit-for-bit, not approximate.
fn verify(store: &RunStore, phase: &str) -> Result<(), String> {
    let mut recomputed = AggState::new();
    let mut rows = 0u64;
    store.for_each_live_record(|key, _hot, raw| {
        let record: RunRecord = serde_json::from_slice(&raw)
            .unwrap_or_else(|e| panic!("stored record {key} does not parse: {e}"));
        recomputed.add(&hot_row(&record));
        rows += 1;
    });
    let all = QueryFilter::default();
    let want = recomputed.query(&all);
    let got = store.query(&all);
    if got != want {
        return Err(format!(
            "{phase}: online aggregates diverge from the from-raw recomputation\n\
             online:   {got:?}\nfrom-raw: {want:?}"
        ));
    }
    println!("verify ({phase}): {rows} rows, online aggregates == from-raw recomputation");
    Ok(())
}

fn run(opts: &Options) -> Result<(), String> {
    let dir = opts.dir.clone().unwrap_or_else(|| {
        let base = std::env::var("ATSCALE_RESULTS").unwrap_or_else(|_| "results".into());
        PathBuf::from(base).join("runs")
    });
    let store = RunStore::open(dir).map_err(|e| format!("cannot open store: {e}"))?;

    println!(
        "opened: {} live row(s), {} legacy record(s) migrated by this open",
        store.seg_stats().live_rows,
        store.migrated()
    );
    if opts.verify {
        verify(&store, "pre-compact")?;
    }

    let compacted = store
        .compact()
        .map_err(|e| format!("compaction failed: {e}"))?;
    println!(
        "compacted: {} -> {} segments | {} live rows kept, {} dead dropped | {} -> {} bytes",
        compacted.segments_before,
        compacted.segments_after,
        compacted.live_rows,
        compacted.dead_rows_dropped,
        compacted.bytes_before,
        compacted.bytes_after
    );
    if opts.verify {
        verify(&store, "post-compact")?;
    }

    let stats = store.seg_stats();
    println!(
        "segment store: {} segments ({} rows) + {} WAL rows | {} live, {} dead | \
         {} bytes on disk | {} quarantined",
        stats.segments,
        stats.segment_rows,
        stats.wal_rows,
        stats.live_rows,
        stats.dead_rows,
        stats.disk_bytes,
        stats.quarantined
    );
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
            eprintln!("store_compact: {e}");
            return ExitCode::FAILURE;
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
