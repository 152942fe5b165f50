//! `atscale-client` — command-line client for the `atscale-serve` daemon.
//!
//! ```text
//! atscale-client [--connect unix:/tmp/atscale.sock | --connect HOST:PORT] COMMAND
//!
//! commands:
//!   ping                  handshake; print the server banner
//!   sweep                 run the fig1-style footprint sweep through the
//!                         daemon (records identical to the in-process
//!                         harness) and print the overhead table
//!   server-stats          scheduler counters
//!   query                 aggregate statistics (count, mean/p50/p99 WCPI,
//!                         fitted β/c) from the segment store's online
//!                         per-group state — O(groups), no record replay
//!   compact               rewrite the segment store down to live rows
//!   seg-stats             segment-store occupancy
//!   shutdown              ask the daemon to drain and exit
//!
//! query options:
//!   --workload NAME                restrict to one workload
//!   --arch NAME                    restrict to one translation architecture
//!                                  (baseline/victima/dram-cache/no-tlb)
//!   --page-size 4K|2M|1G           restrict to one page size (the paper
//!                                  fits its scaling law over the 4K runs)
//!   --min-footprint-mb N           inclusive lower footprint bound
//!   --max-footprint-mb N           inclusive upper footprint bound
//!   --jsonl PATH                   write per-group summaries as JSON lines
//!   --csv PATH                     write the per-group table as CSV
//!
//! sweep options:
//!   --test | --quick | --full      sweep profile (default --quick)
//!   --workloads a,b,c              subset of workloads (default: all 13)
//!   --arch NAME                    simulate every spec on this translation
//!                                  architecture (default baseline)
//!   --no-cache                     force fresh executions
//!   --deadline-ms N                per-request deadline
//!   --sample-interval N            stream interval samples every N instrs
//!   --jsonl PATH                   write streamed telemetry as JSONL
//!                                  (validated by `telemetry_validate`)
//!   --csv PATH                     write the overhead series as CSV
//!   --progress                     one stderr line per resolved spec
//! ```
//!
//! A bad command line prints the usage and exits 2; a failure at run time
//! exits 1.

use atscale::report::{fmt, Table};
use atscale::telemetry::TelemetrySink;
use atscale::{ArchKind, RunSpec, SweepConfig};
use atscale_bench::experiments::overhead_series;
use atscale_serve::protocol::{QueryFilter, Reply};
use atscale_serve::{Client, ShardedClient, SubmitOptions};
use atscale_workloads::WorkloadId;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    connect: String,
    command: String,
    sweep: SweepConfig,
    workloads: Vec<WorkloadId>,
    no_cache: bool,
    deadline_ms: Option<u64>,
    sample_interval: u64,
    jsonl: Option<PathBuf>,
    csv: Option<PathBuf>,
    progress: bool,
    filter: QueryFilter,
    arch: ArchKind,
}

const USAGE: &str = "usage: atscale-client [--connect TARGET] \
                     (ping|sweep|server-stats|query|compact|seg-stats|shutdown) \
                     [sweep/query options]";

const COMMANDS: [&str; 7] = [
    "ping",
    "sweep",
    "server-stats",
    "query",
    "compact",
    "seg-stats",
    "shutdown",
];

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        connect: "unix:/tmp/atscale.sock".to_string(),
        command: String::new(),
        sweep: SweepConfig::quick(),
        workloads: WorkloadId::all().to_vec(),
        no_cache: false,
        deadline_ms: None,
        sample_interval: 0,
        jsonl: None,
        csv: None,
        progress: false,
        filter: QueryFilter::default(),
        arch: ArchKind::Baseline,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--connect" => {
                opts.connect = iter.next().ok_or("--connect needs a target")?.clone();
            }
            "--test" => opts.sweep = SweepConfig::test(),
            "--quick" => opts.sweep = SweepConfig::quick(),
            "--full" => opts.sweep = SweepConfig::full(),
            "--workloads" => {
                let list = iter.next().ok_or("--workloads needs a list")?;
                opts.workloads = list
                    .split(',')
                    .map(|name| {
                        WorkloadId::parse(name).ok_or_else(|| format!("unknown workload {name}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--no-cache" => opts.no_cache = true,
            "--deadline-ms" => {
                opts.deadline_ms = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--deadline-ms needs a number")?,
                );
            }
            "--sample-interval" => {
                opts.sample_interval = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--sample-interval needs a number")?;
            }
            "--jsonl" => {
                opts.jsonl = Some(PathBuf::from(iter.next().ok_or("--jsonl needs a path")?));
            }
            "--csv" => {
                opts.csv = Some(PathBuf::from(iter.next().ok_or("--csv needs a path")?));
            }
            "--progress" => opts.progress = true,
            "--workload" => {
                opts.filter.workload = Some(iter.next().ok_or("--workload needs a name")?.clone());
            }
            "--arch" => {
                let name = iter.next().ok_or("--arch needs a name")?;
                let arch: ArchKind = name.parse()?;
                // One flag, both roles: sweeps simulate on it, queries
                // restrict to it.
                opts.arch = arch;
                opts.filter.arch = Some(arch.to_string());
            }
            "--page-size" => {
                let size = iter.next().ok_or("--page-size needs 4K, 2M or 1G")?;
                if !matches!(size.as_str(), "4K" | "2M" | "1G") {
                    return Err(format!("unknown page size {size} (4K, 2M or 1G)"));
                }
                opts.filter.page_size = Some(size.clone());
            }
            "--min-footprint-mb" => {
                opts.filter.min_footprint_mb = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--min-footprint-mb needs a number")?,
                );
            }
            "--max-footprint-mb" => {
                opts.filter.max_footprint_mb = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--max-footprint-mb needs a number")?,
                );
            }
            command if !command.starts_with("--") && opts.command.is_empty() => {
                opts.command = command.to_string();
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if opts.command.is_empty() {
        return Err("no command given".to_string());
    }
    if !COMMANDS.contains(&opts.command.as_str()) {
        return Err(format!("unknown command {}", opts.command));
    }
    Ok(opts)
}

fn run_sweep(client: &mut ShardedClient, opts: &Options) -> Result<(), String> {
    let specs: Vec<RunSpec> = opts
        .sweep
        .specs(&opts.workloads)
        .into_iter()
        .map(|spec| spec.with_arch(opts.arch))
        .collect();
    println!(
        "sweep[{}]: {} workloads x {} points x 3 page sizes = {} specs via {} ({} shard(s))",
        opts.arch,
        opts.workloads.len(),
        opts.sweep.points,
        specs.len(),
        opts.connect,
        client.shards()
    );
    if let Some(capacity) = client.server_capacity() {
        if specs.len() as u64 > capacity {
            eprintln!(
                "[atscale-client] {} specs exceed the server's admission \
                 capacity of {capacity}; submitting in chunks",
                specs.len()
            );
        }
    }
    let sink = match &opts.jsonl {
        Some(path) => Some(
            TelemetrySink::new()
                .with_jsonl(path)
                .map_err(|e| format!("cannot open {}: {e}", path.display()))?,
        ),
        None => None,
    };
    let submit = SubmitOptions {
        deadline_ms: opts.deadline_ms,
        no_cache: opts.no_cache,
        sample_interval: opts.sample_interval,
    };
    let progress = opts.progress;
    // Chunked so sweeps larger than the admission queue (the default
    // 13-workload sweep is hundreds of specs) are split and retried
    // instead of rejected Overloaded outright.
    let records = client
        .run_chunked_with(&specs, submit, |reply| match reply {
            Reply::Sample(s) => {
                if let Some(sink) = &sink {
                    sink.sample(&s.run, &s.sample);
                }
            }
            Reply::Progress(p) => {
                if let Some(sink) = &sink {
                    sink.progress(&p.progress);
                }
                if progress {
                    eprintln!("{}", p.progress.render());
                }
            }
            _ => {}
        })
        .map_err(|e| e.to_string())?;
    if let Some(sink) = &sink {
        if let Some(path) = sink.finish() {
            eprintln!("[atscale-client] telemetry stream: {}", path.display());
        }
    }

    let (table, pearson) = overhead_series(&opts.workloads, &opts.sweep.points(records));
    println!("{}", table.render());
    if let Some(csv) = &opts.csv {
        table
            .write_csv(csv)
            .map_err(|e| format!("cannot write {}: {e}", csv.display()))?;
        println!("wrote {}", csv.display());
    }
    println!("{pearson}");
    Ok(())
}

fn run_query(client: &mut Client, opts: &Options) -> Result<(), String> {
    let result = client.query(&opts.filter).map_err(|e| e.to_string())?;
    println!(
        "matching runs: {} | mean WCPI {} | p50 {} | p99 {}",
        result.count,
        fmt(result.mean_wcpi, 4),
        fmt(result.p50_wcpi, 4),
        fmt(result.p99_wcpi, 4)
    );
    match (result.beta, result.intercept) {
        (Some(beta), Some(c)) => {
            println!("fig1 fit: WCPI = {beta:.4} * log10(M_KB) + {c:.4}");
        }
        _ => println!("fig1 fit: n/a (need at least two distinct footprints)"),
    }
    let mut table = Table::new(&[
        "workload",
        "footprint_mb",
        "page_size",
        "arch",
        "count",
        "mean_wcpi",
        "p50_wcpi",
        "p99_wcpi",
    ]);
    for g in &result.groups {
        table.row_owned(vec![
            g.workload.clone(),
            g.footprint_mb.to_string(),
            g.page_size.clone(),
            g.arch.clone(),
            g.count.to_string(),
            fmt(g.mean_wcpi, 4),
            fmt(g.p50_wcpi, 4),
            fmt(g.p99_wcpi, 4),
        ]);
    }
    println!("{}", table.render());
    if let Some(csv) = &opts.csv {
        table
            .write_csv(csv)
            .map_err(|e| format!("cannot write {}: {e}", csv.display()))?;
        println!("wrote {}", csv.display());
    }
    if let Some(path) = &opts.jsonl {
        let mut text = String::new();
        for g in &result.groups {
            text.push_str(&serde_json::to_string(g).expect("group summaries serialize"));
            text.push('\n');
        }
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn run(opts: &Options) -> Result<(), String> {
    // Sweeps go through the topology-aware client: one persistent framed
    // connection per shard, reused across every chunk (reconnect-on-drop
    // under the idempotent retry policy), specs routed to the shard that
    // owns their record hash. Against a standalone daemon this degrades
    // to exactly one connection.
    if opts.command == "sweep" {
        let mut client = ShardedClient::connect(&opts.connect)
            .map_err(|e| format!("cannot connect to {}: {e}", opts.connect))?;
        return run_sweep(&mut client, opts);
    }
    let mut client = Client::connect(&opts.connect)
        .map_err(|e| format!("cannot connect to {}: {e}", opts.connect))?;
    let welcome = client.hello().map_err(|e| e.to_string())?;
    match opts.command.as_str() {
        "ping" => {
            println!(
                "{} (protocol {}, {} workers, archs: {}) at {}",
                welcome.server,
                welcome.protocol,
                welcome.workers,
                welcome.architectures.join(","),
                opts.connect
            );
            Ok(())
        }
        "server-stats" => {
            let s = client.server_stats().map_err(|e| e.to_string())?;
            println!(
                "executions {} | cache hits {} | dedup hits {} | overloaded {} | \
                 expired {} | failed {} | queued {} | running {} | completed {} | draining {}",
                s.executions,
                s.cache_hits,
                s.dedup_hits,
                s.overloaded,
                s.expired,
                s.failed,
                s.queued,
                s.running,
                s.completed,
                s.draining
            );
            Ok(())
        }
        "query" => run_query(&mut client, opts),
        "compact" => {
            let c = client.compact().map_err(|e| e.to_string())?;
            println!("compacted: {c}");
            Ok(())
        }
        "seg-stats" => {
            let s = client.seg_stats().map_err(|e| e.to_string())?;
            println!("segment store: {s}");
            Ok(())
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("server acknowledged shutdown; it will drain and exit");
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("atscale-client: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("atscale-client: {e}");
            ExitCode::FAILURE
        }
    }
}
