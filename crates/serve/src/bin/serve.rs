//! `atscale-serve` — the experiment-serving daemon.
//!
//! ```text
//! atscale-serve --socket /tmp/atscale.sock [--tcp 127.0.0.1:7719]
//!               [--workers N] [--queue N] [--store DIR | --no-store]
//!               [--reactors N]
//!               [--shard I --topology ADDR,ADDR,...]
//!               [--fault-spec SPEC --fault-seed N]   (faults builds only)
//! ```
//!
//! Binds the requested endpoints, serves until a client sends a
//! `Shutdown` frame, drains in-flight work, and exits 0. Cache-first by
//! default: runs are answered from (and written back to) the run store,
//! so repeated figure regenerations cost one simulation each. Opening
//! the store folds any legacy per-file `.json` records into the columnar
//! segment store, and the v5 results-plane verbs
//! (`Query`/`Compact`/`StoreSegStats`) are served from its online
//! aggregates.
//!
//! Every endpoint is served by the epoll reactor (non-blocking framed
//! I/O, per-connection write backpressure); `--reactors` overrides its
//! shard count (default: one per core). `--shard`/`--topology` declare
//! this daemon's place in a sharded topology, advertised to clients in
//! the v6 `Welcome` handshake so any member bootstraps full-topology
//! routing.

use atscale::RunStore;
use atscale_serve::{ServeConfig, Server};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    socket: Option<PathBuf>,
    tcp: Option<String>,
    workers: Option<usize>,
    queue: Option<usize>,
    store_dir: Option<PathBuf>,
    no_store: bool,
    reactors: Option<usize>,
    shard: u64,
    topology: Vec<String>,
    fault_spec: Option<String>,
    fault_seed: u64,
}

const USAGE: &str = "usage: atscale-serve [--socket PATH] [--tcp ADDR] \
                     [--workers N] [--queue N] [--store DIR | --no-store] \
                     [--reactors N] \
                     [--shard I --topology ADDR,ADDR,...] \
                     [--fault-spec SPEC --fault-seed N]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        socket: None,
        tcp: None,
        workers: None,
        queue: None,
        store_dir: None,
        no_store: false,
        reactors: None,
        shard: 0,
        topology: Vec::new(),
        fault_spec: None,
        fault_seed: 0,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--socket" => {
                opts.socket = Some(PathBuf::from(iter.next().ok_or("--socket needs a path")?));
            }
            "--tcp" => {
                opts.tcp = Some(iter.next().ok_or("--tcp needs an address")?.clone());
            }
            "--workers" => {
                opts.workers = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--workers needs a number")?,
                );
            }
            "--queue" => {
                opts.queue = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--queue needs a number")?,
                );
            }
            "--store" => {
                opts.store_dir = Some(PathBuf::from(iter.next().ok_or("--store needs a dir")?));
            }
            "--no-store" => opts.no_store = true,
            "--reactors" => {
                opts.reactors = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--reactors needs a number")?,
                );
            }
            "--shard" => {
                opts.shard = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--shard needs a number")?;
            }
            "--topology" => {
                opts.topology = iter
                    .next()
                    .ok_or("--topology needs a comma-separated address list")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--fault-spec" => {
                opts.fault_spec = Some(iter.next().ok_or("--fault-spec needs a spec")?.clone());
            }
            "--fault-seed" => {
                opts.fault_seed = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--fault-seed needs a number")?;
            }
            other => return Err(format!("unknown option {other}\n{USAGE}")),
        }
    }
    if opts.socket.is_none() && opts.tcp.is_none() {
        return Err(format!("no endpoint given\n{USAGE}"));
    }
    if opts.no_store && opts.store_dir.is_some() {
        return Err("--store and --no-store are mutually exclusive".to_string());
    }
    if !opts.topology.is_empty() && opts.shard as usize >= opts.topology.len() {
        return Err(format!(
            "--shard {} outside the {}-entry topology",
            opts.shard,
            opts.topology.len()
        ));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("atscale-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let store = if opts.no_store {
        None
    } else {
        // Without `--store`, the store `atscale run` fills:
        // `$ATSCALE_RESULTS/runs` (default `results/runs`).
        let dir = opts.store_dir.clone().unwrap_or_else(|| {
            let base = std::env::var("ATSCALE_RESULTS").unwrap_or_else(|_| "results".into());
            PathBuf::from(base).join("runs")
        });
        match RunStore::open(dir) {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!("atscale-serve: cannot open run store: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let mut config = ServeConfig {
        store,
        shard: opts.shard,
        topology: opts.topology.clone(),
        ..ServeConfig::default()
    };
    if let Some(workers) = opts.workers {
        config.workers = workers.max(1);
    }
    if let Some(queue) = opts.queue {
        config.queue_capacity = queue;
    }
    if let Some(reactors) = opts.reactors {
        config.reactors = reactors;
    }
    // Chaos machinery: a spec-string fault plan lets the soak CI job run
    // real daemon processes under the same deterministic injection the
    // in-process chaos suite uses. Only builds with the `faults` feature
    // carry injection branches; a release binary refuses the flag instead
    // of silently serving fault-free.
    #[cfg(feature = "faults")]
    if let Some(spec) = &opts.fault_spec {
        match atscale_faults::FaultPlan::parse(opts.fault_seed, spec) {
            Ok(plan) => config.faults = Some(std::sync::Arc::new(plan)),
            Err(e) => {
                eprintln!("atscale-serve: bad --fault-spec: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    #[cfg(not(feature = "faults"))]
    if opts.fault_spec.is_some() {
        let _ = opts.fault_seed;
        eprintln!(
            "atscale-serve: --fault-spec needs a daemon built with the `faults` \
             feature (cargo build -p atscale-serve --features faults)"
        );
        return ExitCode::FAILURE;
    }
    let workers = config.workers;
    let queue = config.queue_capacity;
    let server = match Server::start(config, opts.tcp.as_deref(), opts.socket.as_deref()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("atscale-serve: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(addr) = server.tcp_addr() {
        println!("atscale-serve: listening on tcp {addr}");
    }
    if let Some(path) = &opts.socket {
        println!("atscale-serve: listening on unix {}", path.display());
    }
    println!(
        "atscale-serve: {workers} workers, queue capacity {queue}; send a Shutdown frame to stop"
    );
    server.join();
    println!("atscale-serve: drained, bye");
    ExitCode::SUCCESS
}
