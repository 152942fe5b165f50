//! The six stages every round runs, each through public functions only:
//! `restart`, `direct`, `cold`, `warm`, `req`, `query`.
//!
//! Closed loop: one client connection, one reactor shard, one scheduler
//! worker, so at most two threads are runnable at a time — sized for the
//! two cores the benchmark box has.

use crate::trace::Tracer;
use atscale::{execute_run, RunRecord, RunSpec, RunStore};
use atscale_mmu::MachineConfig;
use atscale_results::QueryFilter;
use atscale_serve::protocol::ServerStatsReply;
use atscale_serve::{Client, ServeConfig, Server, SubmitOptions};
use std::path::Path;
use std::time::Instant;

/// Single-spec cached requests per round.
pub const REQS_PER_ROUND: usize = 100;
/// `Query` round trips per round.
pub const QUERIES_PER_ROUND: usize = 50;
/// `server_stats` round trips per round (traced runs only).
pub const PINGS_PER_ROUND: usize = 20;

/// Counts every check the benchmark makes on the program's outputs. A
/// refused or errored request is a failed operation and never contributes a
/// latency sample.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// The first few failures, for the operator.
    pub notes: Vec<String>,
}

impl Checks {
    /// Records one operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
        ok
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Canonical bytes of a record: what the store keeps and what "records are
/// byte-identical" compares.
pub fn record_bytes(record: &RunRecord) -> Vec<u8> {
    serde_json::to_vec(record).expect("records serialize")
}

/// A running in-process daemon on the run's store directory, plus the one
/// client connection every stage uses.
pub struct Daemon {
    server: Server,
    /// The connection (after `hello`).
    pub client: Client,
}

/// How long each part of the `restart` stage took.
#[derive(Debug, Clone, Copy)]
pub struct RestartTimes {
    /// `RunStore::open_segmented` over the populated directory: segment
    /// scan, WAL recovery, index rebuild.
    pub open_ms: f64,
    /// `Server::start_epoll_sharded`: bind, reactor shard, worker.
    pub start_ms: f64,
    /// `Client::connect_tcp` + `hello`. Not part of `setup_s`: the daemon's
    /// acceptor polls every 25 ms, so whether the first connection waits
    /// out a poll is a race this number is bimodal on.
    pub connect_ms: f64,
}

impl RestartTimes {
    /// Store open + daemon start: what `setup_s` reports.
    pub fn setup_ms(&self) -> f64 {
        self.open_ms + self.start_ms
    }
}

impl Daemon {
    /// The `restart` stage: opens the populated store directory, starts a
    /// daemon on it (epoll tier, 1 reactor shard, 1 worker, ephemeral
    /// loopback port), connects and shakes hands.
    ///
    /// # Errors
    ///
    /// Any failure is returned as text; the run cannot continue without a
    /// daemon.
    pub fn restart(
        dir: &Path,
        machine: MachineConfig,
        tracer: &mut Tracer,
    ) -> Result<(Daemon, RestartTimes), String> {
        tracer.span("restart", |tracer| {
            let (store, open_ms) = tracer.timed("results.open", |_| RunStore::open_segmented(dir));
            let store = store.map_err(|e| format!("open store {}: {e}", dir.display()))?;
            let config = ServeConfig {
                machine,
                store: Some(store),
                workers: 1,
                ..ServeConfig::default()
            };
            let (server, start_ms) = tracer.timed("serve.start", |_| {
                Server::start_epoll_sharded(config, "127.0.0.1:0", 1)
            });
            let server = server.map_err(|e| format!("start daemon: {e}"))?;
            let addr = server.tcp_addr().ok_or("daemon bound no TCP address")?;
            let (client, connect_ms) = tracer.timed("serve.connect", |_| {
                let mut client =
                    Client::connect_tcp(&addr.to_string()).map_err(|e| format!("connect: {e}"))?;
                client.hello().map_err(|e| format!("hello: {e}"))?;
                Ok::<_, String>(client)
            });
            let client = client?;
            Ok((
                Daemon { server, client },
                RestartTimes {
                    open_ms,
                    start_ms,
                    connect_ms,
                },
            ))
        })
    }

    /// Asks the daemon to shut down and waits until every thread it started
    /// has ended (which also drops its store handle).
    ///
    /// # Errors
    ///
    /// Returns the client's error text if the shutdown request failed; the
    /// daemon is stopped through its handle regardless.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self.client.shutdown().map_err(|e| format!("shutdown: {e}"));
        self.server.shutdown_and_join();
        asked
    }

    /// The scheduler's counters, over the wire.
    ///
    /// # Errors
    ///
    /// Returns the client's error text.
    pub fn stats(&mut self) -> Result<ServerStatsReply, String> {
        self.client.server_stats().map_err(|e| e.to_string())
    }
}

/// What the `direct` stage produced.
pub struct Direct {
    /// One record per spec, in spec order.
    pub records: Vec<RunRecord>,
    /// [`record_bytes`] of each.
    pub bytes: Vec<Vec<u8>>,
    /// Pages mapped when `Workload::setup` returned, summed over the specs
    /// (traced runs only; 0 otherwise).
    pub pages_mapped: u64,
    /// Milliseconds the stage took (serialisation excluded).
    pub ms: f64,
}

/// The `direct` stage: every spec executed in-process — by `execute_run`,
/// or in a traced run by its public-API body with a span per layer
/// ([`crate::layers::traced_run`]). Either way it is the first execution of
/// the round's specs, so it pays whatever first-use costs there are.
pub fn direct(
    specs: &[RunSpec],
    machine: &MachineConfig,
    tracer: &mut Tracer,
    traced: bool,
) -> Direct {
    let mut pages_mapped = 0;
    let (records, ms) = tracer.timed("direct", |tracer| {
        let run_one = |spec| {
            if traced {
                let run = crate::layers::traced_run(spec, machine, tracer);
                pages_mapped += run.pages_mapped;
                run.record
            } else {
                execute_run(spec, machine)
            }
        };
        specs.iter().map(run_one).collect::<Vec<RunRecord>>()
    });
    let bytes = records.iter().map(record_bytes).collect();
    Direct {
        records,
        bytes,
        pages_mapped,
        ms,
    }
}

/// Submits `specs` as one batch and checks every returned record against
/// `expect`, byte for byte. Returns the batch's milliseconds, or `None`
/// (and failed checks, one per spec) if the request itself failed.
pub fn batch(
    stage: &'static str,
    daemon: &mut Daemon,
    specs: &[RunSpec],
    expect: &[Vec<u8>],
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> Option<f64> {
    let (reply, ms) = tracer.timed(stage, |_| {
        daemon.client.run_many(specs, SubmitOptions::default())
    });
    match reply {
        Ok(records) => {
            for (i, record) in records.iter().enumerate() {
                checks.check(record_bytes(record) == expect[i], || {
                    format!("{stage}: record {i} ({}) differs", specs[i].label())
                });
            }
            Some(ms)
        }
        Err(e) => {
            for _ in specs {
                checks.check(false, || format!("{stage}: batch failed: {e}"));
            }
            None
        }
    }
}

/// Makes `n` calls inside one span, timing each; `verify` (untimed) says what
/// was wrong with a reply, if anything. Returns one latency sample (µs) per
/// call that passed: a failed call is a failed check and no sample.
fn samples<R>(
    stage: &'static str,
    n: usize,
    checks: &mut Checks,
    tracer: &mut Tracer,
    mut call: impl FnMut(usize) -> R,
    verify: impl Fn(usize, &R) -> Result<(), String>,
) -> Vec<f64> {
    tracer.span(stage, |_| {
        let mut samples = Vec::with_capacity(n);
        for k in 0..n {
            let t = Instant::now();
            let reply = call(k);
            let us = ms_since(t) * 1e3;
            let verdict = verify(k, &reply);
            if checks.check(verdict.is_ok(), || {
                format!("{stage}: {}", verdict.unwrap_err())
            }) {
                samples.push(us);
            }
        }
        samples
    })
}

/// The `req` stage: [`REQS_PER_ROUND`] single-spec requests, every one a
/// cache hit. Returns latency samples (µs).
pub fn req(
    daemon: &mut Daemon,
    specs: &[RunSpec],
    expect: &[Vec<u8>],
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> Vec<f64> {
    let spec_of = |k: usize| k % specs.len();
    samples(
        "req",
        REQS_PER_ROUND,
        checks,
        tracer,
        |k| {
            let i = spec_of(k);
            daemon
                .client
                .run_many(&specs[i..=i], SubmitOptions::default())
        },
        |k, reply| match reply {
            Ok(r) if r.len() == 1 && record_bytes(&r[0]) == expect[spec_of(k)] => Ok(()),
            Ok(_) => Err(format!("{} differs", specs[spec_of(k)].label())),
            Err(e) => Err(format!("{}: {e}", specs[spec_of(k)].label())),
        },
    )
}

/// The `query` stage: [`QUERIES_PER_ROUND`] `Query` round trips with the
/// workload's filter, each checked against `expect_rows` (the records the
/// store must hold for that filter). Returns latency samples (µs).
pub fn query(
    daemon: &mut Daemon,
    filter: &QueryFilter,
    expect_rows: u64,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> Vec<f64> {
    samples(
        "query",
        QUERIES_PER_ROUND,
        checks,
        tracer,
        |_| daemon.client.query(filter),
        |_, reply| match reply {
            Ok(r) if r.count == expect_rows => Ok(()),
            Ok(r) => Err(format!("{} rows, expected {expect_rows}", r.count)),
            Err(e) => Err(e.to_string()),
        },
    )
}

/// [`PINGS_PER_ROUND`] `server_stats` round trips: wire and reactor with no
/// store behind them. Returns latency samples (µs).
pub fn ping(daemon: &mut Daemon, checks: &mut Checks, tracer: &mut Tracer) -> Vec<f64> {
    samples(
        "serve.ping",
        PINGS_PER_ROUND,
        checks,
        tracer,
        |_| daemon.stats(),
        |_, reply| reply.as_ref().map(|_| ()).map_err(Clone::clone),
    )
}

/// Bytes of every regular file under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Records in the seed store every round's daemon restarts over: one
/// sealed segment's worth at the store's default seal threshold.
pub const SEED_RECORDS: usize = 256;

/// Builds the seed store under `dir`: [`SEED_RECORDS`] real records of tiny
/// specs (the twelve safe workloads in turn, 16 MiB, 20 k instructions),
/// saved through `RunStore` so the directory holds one sealed segment.
/// Returns how many of them `filter` matches.
///
/// # Errors
///
/// Returns text if the store cannot be created or a save fails.
pub fn build_seed_store(
    dir: &Path,
    seed: u64,
    machine: &MachineConfig,
    filter: &QueryFilter,
) -> Result<u64, String> {
    let store = RunStore::open_segmented(dir).map_err(|e| format!("seed store: {e}"))?;
    let workloads = crate::mix::safe_workloads();
    let mut matching = 0;
    for i in 0..SEED_RECORDS {
        let spec = RunSpec {
            workload: workloads[i % workloads.len()],
            nominal_footprint: 16 << 20,
            page_size: atscale_vm::PageSize::Size4K,
            seed: crate::cal::mix64(seed ^ 0x5eed).wrapping_add(i as u64),
            warmup_instr: 2_000,
            budget_instr: 20_000,
            arch: atscale::ArchKind::Baseline,
        };
        let record = execute_run(&spec, machine);
        store
            .save(&RunStore::key(&spec, machine), &record)
            .map_err(|e| format!("seed store save: {e}"))?;
        if filter.workload.as_deref() == Some(&spec.workload.to_string()[..]) {
            matching += 1;
        }
    }
    store.seal().map_err(|e| format!("seed store seal: {e}"))?;
    Ok(matching)
}

/// Copies directory `from` to a fresh `to`, recursively.
///
/// # Errors
///
/// Returns the first I/O error.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
