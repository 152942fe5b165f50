//! `loadgen` — the open-loop serve-tier benchmark and CI gate.
//!
//! Spawns a local shard topology of sibling `atscale-serve` daemons
//! (`--spawn N`, each with its own temp run store, advertising the full
//! topology in its v6 `Welcome`), pre-warms a small spec pool through a
//! [`ShardedClient`] so the measured path is the cached-answer path, then
//! drives a Poisson arrival schedule across thousands of concurrent
//! non-blocking connections with [`atscale_serve::loadgen`] and reports
//! p50/p99/p999 latency, goodput, and Overloaded-rate as the
//! `atscale-serve-loadgen-v1` JSON schema.
//!
//! ```text
//! loadgen [--quick|--soak] [--spawn N]
//!         [--connections N] [--requests N] [--rate R] [--seed S]
//!         [--pool K] [--workers N] [--queue N]
//!         [--addr HOST:PORT]            # use an existing topology
//!         [--out PATH] [--baseline PATH] [--threshold PCT]
//!         [--fault-spec SPEC] [--fault-seed N]   # soak under fault plans
//! ```
//!
//! With `--baseline OLD.json` the run becomes a gate: it fails (exit 1)
//! if cached-answer p99 worsened by more than `--threshold` percent or
//! goodput dropped by more than the same margin. CI runs
//! `loadgen --quick` against the committed `BENCH_SERVE_BASELINE.json`.
//! An unknown flag, a missing or malformed value, or `--spawn 0` prints
//! the usage line and exits 2 before anything is spawned.

use atscale::mmu::MachineConfig;
use atscale::RunSpec;
use atscale_serve::loadgen::{self, LoadgenConfig, LoadgenReport};
use atscale_serve::{Client, ShardedClient, SubmitOptions};
use atscale_vm::PageSize;
use atscale_workloads::WorkloadId;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode};
use std::time::{Duration, Instant};

struct Options {
    spawn: usize,
    connections: usize,
    requests: usize,
    rate: f64,
    seed: u64,
    pool: usize,
    workers: usize,
    queue: usize,
    addr: Option<String>,
    out: String,
    baseline: Option<String>,
    threshold_pct: f64,
    fault_spec: Option<String>,
    fault_seed: u64,
}

const USAGE: &str = "usage: loadgen [--quick|--soak] [--spawn N] [--connections N] \
                     [--requests N] [--rate R] [--seed S] [--pool K] [--workers N] \
                     [--queue N] [--addr HOST:PORT] [--out PATH] [--baseline PATH] \
                     [--threshold PCT] [--fault-spec SPEC] [--fault-seed N]";

/// Parses the command line; `Err` carries the complaint printed above the
/// usage line.
fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        spawn: 4,
        connections: 10_000,
        requests: 20_000,
        rate: 2_000.0,
        seed: 0x10ad_6e4e,
        pool: 16,
        workers: 2,
        queue: 1024,
        addr: None,
        out: "BENCH_SERVE.json".to_string(),
        baseline: None,
        threshold_pct: 50.0,
        fault_spec: None,
        fault_seed: 0xc4a0_5000,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            // CI smoke: small enough for a shared runner, same code path.
            "--quick" => {
                opts.spawn = 2;
                opts.connections = 256;
                opts.requests = 2_000;
                opts.rate = 500.0;
            }
            // Nightly soak: the full 10k-connection proof.
            "--soak" => {
                opts.spawn = 4;
                opts.connections = 10_000;
                opts.requests = 20_000;
                opts.rate = 2_000.0;
            }
            "--spawn" => opts.spawn = number(flag, value()?)?,
            "--connections" => opts.connections = number(flag, value()?)?,
            "--requests" => opts.requests = number(flag, value()?)?,
            "--rate" => opts.rate = number(flag, value()?)?,
            "--seed" => opts.seed = number(flag, value()?)?,
            "--pool" => opts.pool = number(flag, value()?)?,
            "--workers" => opts.workers = number(flag, value()?)?,
            "--queue" => opts.queue = number(flag, value()?)?,
            "--addr" => opts.addr = Some(value()?),
            "--out" => opts.out = value()?,
            "--baseline" => opts.baseline = Some(value()?),
            "--threshold" => opts.threshold_pct = number(flag, value()?)?,
            // Forwarded to every spawned daemon: the nightly soak runs the
            // topology under the chaos suite's fault plans. Needs daemons
            // built with the serve crate's `faults` feature.
            "--fault-spec" => opts.fault_spec = Some(value()?),
            "--fault-seed" => opts.fault_seed = number(flag, value()?)?,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if opts.spawn == 0 {
        return Err("--spawn must be at least 1".to_string());
    }
    Ok(opts)
}

/// `value` parsed as the number `flag` takes.
fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} needs a number, got {value:?}"))
}

/// The pre-warmed spec pool: tiny cc-urand runs differing only by seed,
/// so they hash across shards while each costs ~10 ms to warm.
fn spec_pool(size: usize) -> Vec<RunSpec> {
    let workload = WorkloadId::parse("cc-urand").expect("cc-urand exists");
    (0..size as u64)
        .map(|i| RunSpec {
            workload,
            nominal_footprint: 16 << 20,
            page_size: PageSize::Size4K,
            seed: 9_000 + i,
            warmup_instr: 1_000,
            budget_instr: 20_000,
            arch: atscale::ArchKind::Baseline,
        })
        .collect()
}

/// Reserves `n` distinct loopback ports by binding and dropping
/// listeners. A tiny race against other processes, acceptable for a
/// local benchmark topology.
fn free_ports(n: usize) -> Vec<u16> {
    let holds: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    holds
        .iter()
        .map(|l| l.local_addr().expect("local addr").port())
        .collect()
}

struct Topology {
    addrs: Vec<String>,
    daemons: Vec<Child>,
    store_root: Option<PathBuf>,
}

/// Spawns `--spawn` sibling daemons as one topology, each owning its own
/// temp run store; waits until every member accepts connections.
fn spawn_topology(opts: &Options) -> Topology {
    let self_path = std::env::current_exe().expect("own path");
    let bin_dir = self_path.parent().expect("target dir").to_path_buf();
    let store_root = std::env::temp_dir().join(format!("atscale-loadgen-{}", std::process::id()));
    let addrs: Vec<String> = free_ports(opts.spawn)
        .into_iter()
        .map(|p| format!("127.0.0.1:{p}"))
        .collect();
    let topology_arg = addrs.join(",");
    let mut daemons = Vec::with_capacity(opts.spawn);
    for (shard, addr) in addrs.iter().enumerate() {
        let store = store_root.join(format!("shard-{shard}"));
        std::fs::create_dir_all(&store).expect("create shard store");
        let mut cmd = Command::new(bin_dir.join("atscale-serve"));
        cmd.arg("--tcp")
            .arg(addr)
            .arg("--workers")
            .arg(opts.workers.to_string())
            .arg("--queue")
            .arg(opts.queue.to_string())
            .arg("--store")
            .arg(&store)
            .arg("--shard")
            .arg(shard.to_string())
            .arg("--topology")
            .arg(&topology_arg)
            .stdout(std::process::Stdio::null());
        if let Some(spec) = &opts.fault_spec {
            cmd.arg("--fault-spec")
                .arg(spec)
                .arg("--fault-seed")
                // Distinct per-shard seeds keep the fault schedules
                // decorrelated across the topology.
                .arg((opts.fault_seed.wrapping_add(shard as u64)).to_string());
        }
        daemons.push(cmd.spawn().expect("launch atscale-serve"));
    }
    // Ready-wait: every member must accept and answer a handshake.
    let deadline = Instant::now() + Duration::from_secs(30);
    for addr in &addrs {
        loop {
            let up = Client::connect(addr)
                .map_err(|e| e.to_string())
                .and_then(|mut c| c.hello().map(|_| ()).map_err(|e| e.to_string()));
            match up {
                Ok(()) => break,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => panic!("shard {addr} never came up: {e}"),
            }
        }
    }
    Topology {
        addrs,
        daemons,
        store_root: Some(store_root),
    }
}

impl Topology {
    /// Graceful shutdown: one `Shutdown` frame per member, then reap.
    fn shutdown(mut self) {
        for addr in &self.addrs {
            if let Ok(mut client) = Client::connect(addr) {
                let _ = client.shutdown();
            }
        }
        for daemon in &mut self.daemons {
            let _ = daemon.wait();
        }
        if let Some(root) = &self.store_root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

/// Gate comparison: p99 must not worsen, goodput must not drop, beyond
/// the threshold. Returns the failures.
fn regressions(
    report: &LoadgenReport,
    baseline: &LoadgenReport,
    threshold_pct: f64,
) -> Vec<String> {
    let mut failed = Vec::new();
    let worse = 1.0 + threshold_pct / 100.0;
    let floor = 1.0 - threshold_pct / 100.0;
    let p99_limit = (baseline.p99_us as f64 * worse).max(baseline.p99_us as f64 + 500.0);
    eprintln!(
        "p99      baseline {:>9} us  now {:>9} us  limit {:>9.0} us",
        baseline.p99_us, report.p99_us, p99_limit
    );
    if (report.p99_us as f64) > p99_limit {
        failed.push(format!(
            "p99 {} us exceeds limit {:.0} us",
            report.p99_us, p99_limit
        ));
    }
    let goodput_floor = baseline.goodput_per_s * floor;
    eprintln!(
        "goodput  baseline {:>9.1}/s  now {:>9.1}/s  floor {:>9.1}/s",
        baseline.goodput_per_s, report.goodput_per_s, goodput_floor
    );
    if report.goodput_per_s < goodput_floor {
        failed.push(format!(
            "goodput {:.1}/s under floor {:.1}/s",
            report.goodput_per_s, goodput_floor
        ));
    }
    failed
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(complaint) => {
            eprintln!("{complaint}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let machine = MachineConfig::haswell();
    let pool = spec_pool(opts.pool);

    let (topology, spawned) = match &opts.addr {
        Some(seed) => {
            // Discover an existing topology from any member's Welcome.
            let client = ShardedClient::connect(seed).expect("connect seed");
            (client.topology().to_vec(), None)
        }
        None => {
            let t = spawn_topology(&opts);
            (t.addrs.clone(), Some(t))
        }
    };
    eprintln!(
        "topology: {} shard(s) [{}]",
        topology.len(),
        topology.join(", ")
    );

    // Pre-warm: one routed pass caches every pool spec on its owning
    // shard, so the measured load is the cached-answer path.
    let mut warm = ShardedClient::connect(topology.first().expect("non-empty topology"))
        .expect("connect for warmup");
    let warm_start = Instant::now();
    warm.run_chunked(&pool, SubmitOptions::default())
        .expect("pre-warm pool");
    eprintln!(
        "pre-warmed {} spec(s) in {:.1} s",
        pool.len(),
        warm_start.elapsed().as_secs_f64()
    );

    let config = LoadgenConfig {
        topology: topology.clone(),
        connections: opts.connections,
        requests: opts.requests,
        rate_per_sec: opts.rate,
        seed: opts.seed,
    };
    eprintln!(
        "driving {} connection(s), {} request(s) at {:.0} req/s (seed {:#x})",
        opts.connections, opts.requests, opts.rate, opts.seed
    );
    let report = loadgen::run(&config, &pool, &machine).expect("loadgen run");

    if let Some(t) = spawned {
        t.shutdown();
    }

    eprintln!(
        "sent {}  completed {}  overloaded {}  errors {}  timed_out {}",
        report.sent, report.completed, report.overloaded, report.errors, report.timed_out
    );
    eprintln!(
        "latency p50 {} us  p99 {} us  p999 {} us  max {} us",
        report.p50_us, report.p99_us, report.p999_us, report.max_us
    );
    eprintln!(
        "goodput {:.1}/s over {:.1} s  overloaded rate {:.4}",
        report.goodput_per_s, report.duration_s, report.overloaded_rate
    );

    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&opts.out, json + "\n").expect("write report");
    eprintln!("wrote {}", opts.out);

    if let Some(path) = &opts.baseline {
        let text = std::fs::read_to_string(path).expect("read baseline");
        let baseline: LoadgenReport = serde_json::from_str(&text).expect("parse baseline");
        assert_eq!(baseline.schema, LoadgenReport::SCHEMA, "baseline schema");
        let failed = regressions(&report, &baseline, opts.threshold_pct);
        if !failed.is_empty() {
            eprintln!("serve-perf gate FAILED: {}", failed.join("; "));
            return ExitCode::FAILURE;
        }
        eprintln!("serve-perf gate passed (threshold {}%)", opts.threshold_pct);
    }
    ExitCode::SUCCESS
}
