//! Chaos suite: deterministic fault injection across the serve/store
//! path.
//!
//! Every scenario drives a real server over real sockets with a seeded
//! [`FaultPlan`] armed at one or more sites, then asserts the recovery
//! contract: every client call terminates with `Ok` or an explicit typed
//! error (never a hang, never a wedged subscriber), the server stays
//! healthy for the next client, and every record that is delivered is
//! byte-identical to a fault-free run.
//!
//! Determinism is the point: a scenario's observable outcome — the
//! classification, the fired-site signature, and the record digests — is
//! a pure function of its seed. The matrix test runs every scenario
//! twice per seed and requires the rendered outcome lines to match
//! exactly, and every `FaultSite` to fire in at least one scenario; CI
//! then runs the whole suite twice and diffs the emitted line files. Reproduce any CI failure locally with
//! `CHAOS_SEEDS=<seed> cargo test -p atscale-serve --test chaos -- --nocapture`.

#![cfg(feature = "faults")]

use atscale::{RunRecord, RunSpec, RunStore};
use atscale_faults::{FaultPlan, FaultRule, FaultSite};
use atscale_mmu::MachineConfig;
use atscale_serve::{
    Client, ClientError, RetryPolicy, ServeConfig, Server, ShardedClient, SubmitOptions,
};
use atscale_telemetry::schema::validate_stream_all;
use atscale_telemetry::TelemetrySink;
use atscale_vm::PageSize;
use atscale_workloads::WorkloadId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

// ---------------------------------------------------------------------
// Harness plumbing
// ---------------------------------------------------------------------

/// Injected panics are expected noise: filter them from stderr so a
/// passing chaos run reads clean, while genuine panics still print.
fn quiet_injected_panics() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .map(String::from)
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .is_some_and(|m| m.contains("injected fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

fn tiny_spec(seed: u64) -> RunSpec {
    RunSpec {
        workload: WorkloadId::parse("cc-urand").unwrap(),
        nominal_footprint: 16 << 20,
        page_size: PageSize::Size4K,
        seed,
        warmup_instr: 1_000,
        budget_instr: 20_000,
        arch: atscale::ArchKind::Baseline,
    }
}

/// Unique scratch directory per scenario run (the matrix runs every
/// scenario twice per seed; runs must never share store state).
fn scratch_dir(tag: &str, seed: u64) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "atscale-chaos-{tag}-{seed:x}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(config: ServeConfig) -> (Server, String) {
    let server = Server::start(config, Some("127.0.0.1:0"), None).expect("bind");
    let addr = server.tcp_addr().expect("tcp endpoint").to_string();
    (server, addr)
}

/// FNV-1a over a record's canonical JSON: the byte-identity fingerprint
/// carried in outcome lines.
fn digest(record: &RunRecord) -> u64 {
    let bytes = serde_json::to_vec(record).expect("records serialize");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fault-free reference digest for `tiny_spec(seed)`, computed once per
/// process (scenarios re-run per seed; the baseline never changes).
fn baseline_digest(seed: u64) -> u64 {
    static CACHE: OnceLock<Mutex<HashMap<u64, u64>>> = OnceLock::new();
    let cache = CACHE.get_or_init(Mutex::default);
    if let Some(d) = cache.lock().unwrap().get(&seed) {
        return *d;
    }
    let record = atscale::execute_run(&tiny_spec(seed), &MachineConfig::haswell());
    let d = digest(&record);
    cache.lock().unwrap().insert(seed, d);
    d
}

/// Checks delivered records against the fault-free baseline and returns
/// their digests for the outcome line.
fn assert_byte_identical(records: &[RunRecord], seed: u64, context: &str) -> Vec<u64> {
    let want = baseline_digest(seed);
    records
        .iter()
        .map(|r| {
            let got = digest(r);
            assert_eq!(got, want, "{context}: record diverges from fault-free run");
            got
        })
        .collect()
}

/// A scenario's observable result, rendered to one stable line.
struct Outcome {
    name: &'static str,
    seed: u64,
    classification: String,
    /// Every plan the scenario armed, in the order their fire signatures
    /// join on the outcome line.
    plans: Vec<Arc<FaultPlan>>,
    digests: Vec<u64>,
}

impl Outcome {
    fn line(&self) -> String {
        let digests: Vec<String> = self.digests.iter().map(|d| format!("{d:016x}")).collect();
        let fires: Vec<String> = self.plans.iter().map(|p| p.signature()).collect();
        format!(
            "{} seed={:#x} outcome={} fires=[{}] digests=[{}]",
            self.name,
            self.seed,
            self.classification,
            fires.join("|"),
            digests.join(",")
        )
    }
}

fn expect_io(err: &ClientError, context: &str) {
    assert!(
        matches!(err, ClientError::Io(_)),
        "{context}: expected ClientError::Io, got {err}"
    );
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// Failed cache writes (a WAL append error, then a seal whose segment
/// rename fails) are non-fatal: every record still streams, no tmp
/// droppings survive, and the row lands.
fn store_write_and_rename_failures_are_nonfatal(seed: u64) -> Outcome {
    let plan = Arc::new(
        FaultPlan::new(seed)
            .with_rule(FaultSite::StoreWrite, FaultRule::always().max_fires(1))
            .with_rule(FaultSite::StoreRename, FaultRule::always().max_fires(1)),
    );
    let dir = scratch_dir("nonfatal", seed);
    let store = RunStore::open(&dir)
        .expect("open store")
        .with_fault_plan(Arc::clone(&plan));
    // Seal after every row so the second save reaches the segment rename
    // the fault is armed at.
    store.set_seal_threshold(1);
    let (server, addr) = start_server(ServeConfig {
        store: Some(store),
        workers: 1,
        faults: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    });

    let mut client = Client::connect(&addr).expect("connect");
    let spec = [tiny_spec(seed)];
    let mut records = Vec::new();
    // Save 1 dies at the WAL write: nothing commits, so submission 2
    // executes again. Save 2 commits its WAL row, then its seal dies at
    // the rename: the save reports failure but the row is durable, so
    // submissions 3 and 4 are cache hits.
    for _ in 0..4 {
        records.extend(
            client
                .run_many(&spec, SubmitOptions::default())
                .expect("failed cache writes are invisible to clients"),
        );
    }
    let digests = assert_byte_identical(&records, seed, "store_write_and_rename");

    assert_eq!(plan.fires(FaultSite::StoreWrite), 1);
    assert_eq!(plan.fires(FaultSite::StoreRename), 1);
    let stats = client.server_stats().expect("server stats");
    assert_eq!(stats.executions, 2);
    assert_eq!(stats.cache_hits, 2);
    let seg = client.seg_stats().expect("seg stats");
    assert_eq!(seg.live_rows, 1);
    assert_eq!(
        (seg.segments, seg.wal_rows),
        (0, 1),
        "the failed seal kept the row in the WAL"
    );
    server.shutdown_and_join();

    // A reopen finds the row, nothing to quarantine and no dropping from
    // the failed rename.
    let reopened = RunStore::open(&dir).expect("reopen").seg_stats();
    assert_eq!(reopened.live_rows, 1);
    assert_eq!(reopened.tmp_files, 0, "failed saves leave no droppings");
    assert_eq!(reopened.quarantined, 0);

    let _ = std::fs::remove_dir_all(&dir);
    Outcome {
        name: "store_write_and_rename_failures_are_nonfatal",
        seed,
        classification: "records-delivered-despite-save-failures".to_string(),
        plans: vec![plan],
        digests,
    }
}

/// A worker panic mid-job must fail *its subscribers* — both coalesced
/// clients get an explicit `Failed` frame plus `BatchDone` — without
/// killing the worker or wedging the single-flight entry: an immediate
/// resubmission re-executes and succeeds.
fn worker_panic_contained(seed: u64) -> Outcome {
    quiet_injected_panics();
    let plan = Arc::new(
        FaultPlan::new(seed).with_rule(FaultSite::WorkerPanic, FaultRule::always().max_fires(1)),
    );
    let (server, addr) = start_server(ServeConfig {
        store: None,
        workers: 2,
        start_paused: true,
        faults: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    });
    let scheduler = server.handle().scheduler().clone();

    // Two clients coalesce onto the one job that will panic.
    let submit = |addr: String| {
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            client.run_many(&[tiny_spec(seed)], SubmitOptions::default())
        })
    };
    let first = submit(addr.clone());
    while scheduler.stats_reply().queued == 0 {
        std::thread::sleep(Duration::from_millis(2));
    }
    let second = submit(addr.clone());
    while scheduler.stats_reply().dedup_hits == 0 {
        std::thread::sleep(Duration::from_millis(2));
    }
    scheduler.resume();

    // Both subscribers terminate with the explicit failure — joining at
    // all is the no-wedged-subscriber assertion.
    for handle in [first, second] {
        match handle.join().expect("client thread survives") {
            Err(ClientError::Failed(jobs)) => {
                assert_eq!(jobs.len(), 1);
                assert_eq!(jobs[0].0, 0);
                assert!(
                    jobs[0].1.contains("injected fault: WorkerPanic"),
                    "{jobs:?}"
                );
            }
            other => panic!("expected ClientError::Failed, got {other:?}"),
        }
    }
    let stats = scheduler.stats_reply();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.executions, 0);

    // The single-flight entry is gone: resubmission re-executes cleanly.
    let mut client = Client::connect(&addr).expect("connect");
    let records = client
        .run_many(&[tiny_spec(seed)], SubmitOptions::default())
        .expect("resubmission after a contained panic succeeds");
    let digests = assert_byte_identical(&records, seed, "worker_panic_contained");
    assert_eq!(scheduler.stats_reply().executions, 1);

    server.shutdown_and_join();
    Outcome {
        name: "worker_panic_contained",
        seed,
        classification: "both-subscribers-failed-then-resubmit-ok".to_string(),
        plans: vec![plan],
        digests,
    }
}

/// Injected admission pressure: the sharded client retries rejected
/// chunks under its policy and wins once the pressure lifts; a client
/// whose attempt budget is smaller than the pressure gives up with the
/// explicit `Overloaded` error.
fn queue_pressure_backoff_retry(seed: u64) -> Outcome {
    let fast_retry = RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        jitter_seed: seed,
    };

    // Pressure 3 < budget 8: the 4th admission succeeds.
    let plan = Arc::new(
        FaultPlan::new(seed).with_rule(FaultSite::QueuePressure, FaultRule::always().max_fires(3)),
    );
    let (server, addr) = start_server(ServeConfig {
        store: None,
        workers: 1,
        faults: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    });
    let mut client = ShardedClient::connect(&addr)
        .expect("connect")
        .with_retry_policy(fast_retry);
    let records = client
        .run_chunked(&[tiny_spec(seed)], SubmitOptions::default())
        .expect("retry outlasts the injected pressure");
    let digests = assert_byte_identical(&records, seed, "queue_pressure_backoff_retry");
    let mut stats_client = Client::connect(&addr).expect("connect");
    let stats = stats_client.server_stats().expect("server stats");
    assert_eq!(stats.overloaded, 3, "every injected rejection was counted");
    server.shutdown_and_join();

    // Pressure 5 > budget 2: the client surfaces Overloaded, explicitly.
    let stubborn = Arc::new(
        FaultPlan::new(seed).with_rule(FaultSite::QueuePressure, FaultRule::always().max_fires(5)),
    );
    let (server2, addr2) = start_server(ServeConfig {
        store: None,
        workers: 1,
        faults: Some(Arc::clone(&stubborn)),
        ..ServeConfig::default()
    });
    let mut impatient = ShardedClient::connect(&addr2)
        .expect("connect")
        .with_retry_policy(RetryPolicy {
            max_attempts: 2,
            ..fast_retry
        });
    let err = impatient
        .run_chunked(&[tiny_spec(seed)], SubmitOptions::default())
        .expect_err("attempt budget smaller than the pressure");
    assert!(matches!(err, ClientError::Overloaded(_)), "{err}");
    let mut stats_client = Client::connect(&addr2).expect("connect");
    assert_eq!(stats_client.server_stats().expect("stats").overloaded, 2);
    server2.shutdown_and_join();

    Outcome {
        name: "queue_pressure_backoff_retry",
        seed,
        classification: "retried-to-success-and-gave-up-on-budget".to_string(),
        plans: vec![plan, stubborn],
        digests,
    }
}

/// A server-side socket write failure kills that connection's replies;
/// with a read timeout armed the client surfaces an explicit I/O error
/// instead of hanging, and the server keeps serving other clients.
fn server_write_faults_surface_as_client_errors(seed: u64) -> Outcome {
    let plan = Arc::new(
        FaultPlan::new(seed)
            // `after(1)` lets the Welcome through; the next reply write
            // on that connection dies.
            .with_rule(
                FaultSite::ServerWrite,
                FaultRule::always().after(1).max_fires(1),
            ),
    );
    let (server, addr) = start_server(ServeConfig {
        store: None,
        workers: 1,
        faults: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    });

    let mut doomed = Client::connect(&addr).expect("connect");
    doomed.hello().expect("welcome passes the after-gate");
    doomed
        .set_read_timeout(Some(Duration::from_millis(300)))
        .expect("socket timeout");
    let err = doomed
        .run_many(&[tiny_spec(seed)], SubmitOptions::default())
        .expect_err("replies died server-side");
    // The dead writer either closes the connection (EOF → `Protocol`)
    // or leaves the client to hit its read timeout (`Io`): both are the
    // explicit, non-hanging termination the contract demands.
    assert!(
        matches!(err, ClientError::Io(_) | ClientError::Protocol(_)),
        "server_write_faults: expected Io or Protocol, got {err}"
    );

    // The fault was connection-local: a fresh client gets full service.
    let mut healthy = Client::connect(&addr).expect("connect");
    let records = healthy
        .run_many(&[tiny_spec(seed)], SubmitOptions::default())
        .expect("server outlives a dead connection");
    let digests = assert_byte_identical(&records, seed, "server_write_faults");

    server.shutdown_and_join();
    Outcome {
        name: "server_write_faults_surface_as_client_errors",
        seed,
        classification: "io-error-surfaced-and-server-healthy".to_string(),
        plans: vec![plan],
        digests,
    }
}

/// Server-side reply stalls slow the stream down but corrupt nothing:
/// every record arrives and matches the fault-free run.
fn server_stalls_are_survived(seed: u64) -> Outcome {
    let plan = Arc::new(FaultPlan::new(seed).with_rule(
        FaultSite::ServerStall,
        FaultRule::always().stall_ms(15).max_fires(4),
    ));
    let (server, addr) = start_server(ServeConfig {
        store: None,
        workers: 1,
        faults: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    });

    let mut client = Client::connect(&addr).expect("connect");
    let records = client
        .run_many(
            &[tiny_spec(seed), tiny_spec(seed.wrapping_add(1))],
            SubmitOptions::default(),
        )
        .expect("stalled replies still arrive");
    assert_eq!(records.len(), 2);
    let mut digests = assert_byte_identical(&records[..1], seed, "server_stalls");
    digests.extend(assert_byte_identical(
        &records[1..],
        seed.wrapping_add(1),
        "server_stalls",
    ));
    assert_eq!(plan.fires(FaultSite::ServerStall), 4);

    server.shutdown_and_join();
    Outcome {
        name: "server_stalls_are_survived",
        seed,
        classification: "all-records-delivered-through-stalls".to_string(),
        plans: vec![plan],
        digests,
    }
}

/// Reactor-loop stalls (a shard's event loop pausing mid-cycle,
/// the moral equivalent of an overloaded I/O thread) delay frames but
/// corrupt nothing: every record arrives through the stalled reactor and
/// matches the fault-free run, and shutdown still drains.
fn reactor_stalls_are_survived(seed: u64) -> Outcome {
    let plan = Arc::new(FaultPlan::new(seed).with_rule(
        FaultSite::ReactorStall,
        FaultRule::always().stall_ms(15).max_fires(3),
    ));
    let (server, addr) = start_server(ServeConfig {
        store: None,
        workers: 1,
        reactors: 1,
        faults: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    });

    let mut client = Client::connect(&addr).expect("connect");
    let records = client
        .run_many(
            &[tiny_spec(seed), tiny_spec(seed.wrapping_add(1))],
            SubmitOptions::default(),
        )
        .expect("stalled reactor still answers");
    assert_eq!(records.len(), 2);
    let mut digests = assert_byte_identical(&records[..1], seed, "reactor_stalls");
    digests.extend(assert_byte_identical(
        &records[1..],
        seed.wrapping_add(1),
        "reactor_stalls",
    ));
    assert_eq!(plan.fires(FaultSite::ReactorStall), 3);

    server.shutdown_and_join();
    Outcome {
        name: "reactor_stalls_are_survived",
        seed,
        classification: "all-records-delivered-through-reactor-stalls".to_string(),
        plans: vec![plan],
        digests,
    }
}

/// Client-side socket faults (write failure, stall, read failure)
/// terminate the call with an explicit I/O error — and never poison the
/// server: a clean client gets full service afterwards.
fn client_socket_faults_terminate(seed: u64) -> Outcome {
    let (server, addr) = start_server(ServeConfig {
        store: None,
        workers: 1,
        ..ServeConfig::default()
    });

    // Write path: the very first frame send fails.
    let write_plan = Arc::new(
        FaultPlan::new(seed).with_rule(FaultSite::ClientWrite, FaultRule::always().max_fires(1)),
    );
    let mut write_victim = Client::connect(&addr)
        .expect("connect")
        .with_fault_plan(Arc::clone(&write_plan));
    let err = write_victim.hello().expect_err("hello send dies");
    expect_io(&err, "client write fault");

    // Read path: the Welcome read survives one stall, the next read dies.
    let read_plan = Arc::new(
        FaultPlan::new(seed)
            .with_rule(
                FaultSite::ClientStall,
                FaultRule::always().stall_ms(10).max_fires(1),
            )
            .with_rule(
                FaultSite::ClientRead,
                FaultRule::always().after(1).max_fires(1),
            ),
    );
    let mut read_victim = Client::connect(&addr)
        .expect("connect")
        .with_fault_plan(Arc::clone(&read_plan));
    read_victim
        .hello()
        .expect("welcome read survives the stall");
    let err = read_victim
        .run_many(&[tiny_spec(seed)], SubmitOptions::default())
        .expect_err("reply read dies");
    expect_io(&err, "client read fault");

    // Neither client-side failure hurt the server.
    let mut healthy = Client::connect(&addr).expect("connect");
    let records = healthy
        .run_many(&[tiny_spec(seed)], SubmitOptions::default())
        .expect("server unaffected by client-side faults");
    let digests = assert_byte_identical(&records, seed, "client_socket_faults");

    server.shutdown_and_join();
    Outcome {
        name: "client_socket_faults_terminate",
        seed,
        classification: "write-io-read-io-server-healthy".to_string(),
        plans: vec![write_plan, read_plan],
        digests,
    }
}

/// Forced deadline expiry sheds the job and answers `Deadline` frames
/// (surfaced as `ClientError::Expired`); once the fault is spent, the
/// same spec resubmits and completes.
fn forced_deadline_expiry(seed: u64) -> Outcome {
    let plan = Arc::new(
        FaultPlan::new(seed).with_rule(FaultSite::DeadlineExpiry, FaultRule::always().max_fires(1)),
    );
    let (server, addr) = start_server(ServeConfig {
        store: None,
        workers: 1,
        faults: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    });
    let scheduler = server.handle().scheduler().clone();

    let mut client = Client::connect(&addr).expect("connect");
    match client.run_many(&[tiny_spec(seed)], SubmitOptions::default()) {
        Err(ClientError::Expired(indices)) => assert_eq!(indices, vec![0]),
        other => panic!("expected Expired, got {other:?}"),
    }
    assert_eq!(scheduler.stats_reply().expired, 1);
    assert_eq!(
        scheduler.stats_reply().executions,
        0,
        "the shed job never executed"
    );

    let records = client
        .run_many(&[tiny_spec(seed)], SubmitOptions::default())
        .expect("resubmission after the expiry succeeds");
    let digests = assert_byte_identical(&records, seed, "forced_deadline_expiry");

    server.shutdown_and_join();
    Outcome {
        name: "forced_deadline_expiry",
        seed,
        classification: "expired-then-resubmit-ok".to_string(),
        plans: vec![plan],
        digests,
    }
}

/// A torn segment-WAL append (the crash model: a strict prefix of the
/// frame reaches disk, the row never commits in memory) must be
/// quarantined on reopen; the next request recomputes and the rewritten
/// row serves byte-identically from then on.
fn segment_torn_append_recovers(seed: u64) -> Outcome {
    let plan = Arc::new(
        FaultPlan::new(seed).with_rule(FaultSite::SegmentTorn, FaultRule::always().max_fires(1)),
    );
    let dir = scratch_dir("seg-torn", seed);
    let store = RunStore::open(&dir)
        .expect("open store")
        .with_fault_plan(Arc::clone(&plan));
    let (server, addr) = start_server(ServeConfig {
        store: Some(store),
        workers: 1,
        faults: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    });

    let spec = [tiny_spec(seed)];
    let mut records = Vec::new();
    let mut client = Client::connect(&addr).expect("connect");
    // Executes; the WAL append tears mid-frame. The client still gets the
    // in-memory record, but nothing committed to the store.
    records.extend(
        client
            .run_many(&spec, SubmitOptions::default())
            .expect("torn segment appends are invisible to clients"),
    );
    let seg = client.seg_stats().expect("seg stats");
    assert_eq!(seg.live_rows, 0, "the torn row never committed");
    server.shutdown_and_join();

    // Reopen — the crash-recovery path: the torn tail is quarantined and
    // the WAL truncated back to its intact prefix.
    let reopened = RunStore::open(&dir).expect("reopen");
    let quarantined = reopened.seg_stats().quarantined;
    assert_eq!(quarantined, 1, "reopen quarantined the torn tail");
    let (server, addr) = start_server(ServeConfig {
        store: Some(reopened),
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    // Miss → recompute → clean append; then a genuine cache hit.
    for _ in 0..2 {
        records.extend(
            client
                .run_many(&spec, SubmitOptions::default())
                .expect("recompute after quarantine"),
        );
    }
    let digests = assert_byte_identical(&records, seed, "segment_torn_append_recovers");
    let stats = client.server_stats().expect("server stats");
    assert_eq!(stats.executions, 1, "quarantine forced one recompute");
    assert_eq!(stats.cache_hits, 1, "the rewritten row serves");
    let seg = client.seg_stats().expect("seg stats");
    assert_eq!(seg.live_rows, 1);
    assert_eq!(seg.quarantined, 1);

    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
    Outcome {
        name: "segment_torn_append_recovers",
        seed,
        classification: "torn-tail-quarantined-then-recompute-ok".to_string(),
        plans: vec![plan],
        digests,
    }
}

// ---------------------------------------------------------------------
// The matrix
// ---------------------------------------------------------------------

type Scenario = fn(u64) -> Outcome;

const SCENARIOS: [(&str, Scenario); 9] = [
    (
        "store_write_and_rename_failures_are_nonfatal",
        store_write_and_rename_failures_are_nonfatal,
    ),
    ("worker_panic_contained", worker_panic_contained),
    ("queue_pressure_backoff_retry", queue_pressure_backoff_retry),
    (
        "server_write_faults_surface_as_client_errors",
        server_write_faults_surface_as_client_errors,
    ),
    ("server_stalls_are_survived", server_stalls_are_survived),
    ("reactor_stalls_are_survived", reactor_stalls_are_survived),
    (
        "client_socket_faults_terminate",
        client_socket_faults_terminate,
    ),
    ("forced_deadline_expiry", forced_deadline_expiry),
    ("segment_torn_append_recovers", segment_torn_append_recovers),
];

fn parse_seed(text: &str) -> u64 {
    let text = text.trim();
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    }
    .unwrap_or_else(|_| panic!("CHAOS_SEEDS entry `{text}` is not a u64"))
}

/// Seeds under test: `CHAOS_SEEDS=0xa1,7,...` overrides the default
/// four-seed matrix.
fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(list) => list.split(',').map(parse_seed).collect(),
        Err(_) => vec![0xA1, 0xB2, 0xC3, 0xD4],
    }
}

fn run_matrix(seeds: &[u64]) {
    quiet_injected_panics();
    let mut lines = Vec::new();
    let mut fired = [0u64; FaultSite::ALL.len()];
    for (name, scenario) in SCENARIOS {
        for &seed in seeds {
            let first = scenario(seed);
            let second = scenario(seed);
            assert_eq!(
                first.line(),
                second.line(),
                "scenario `{name}` is not deterministic for seed {seed:#x}"
            );
            lines.push(first.line());
            for plan in &first.plans {
                for site in FaultSite::ALL {
                    fired[site.index()] += plan.fires(site);
                }
            }
        }
    }
    // A site that fired is both wired into library code and armed by a
    // scenario; one that never fires is dead chaos surface or untested
    // recovery code.
    for site in FaultSite::ALL {
        assert!(
            fired[site.index()] > 0,
            "fault site {site} never fired in the chaos matrix"
        );
    }
    lines.sort();
    if let Ok(path) = std::env::var("CHAOS_OUT") {
        let mut text = lines.join("\n");
        text.push('\n');
        std::fs::write(&path, text).expect("write CHAOS_OUT");
    }
}

/// The seeded chaos matrix: every scenario × every seed, each run twice
/// with the rendered outcome lines required to match. With `CHAOS_OUT`
/// set, the sorted lines are written there for cross-process diffing
/// (CI runs the suite twice and diffs the two files).
#[test]
fn chaos_matrix() {
    run_matrix(&seeds());
}

/// Extended matrix for scheduled runs: a wider deterministic seed set,
/// derived (not random — the suite forbids ambient entropy) from a
/// fixed base. Run with `--ignored`.
#[test]
#[ignore = "extended matrix for scheduled chaos runs"]
fn chaos_matrix_extended() {
    let wide: Vec<u64> = (0..12u64)
        .map(|i| 0x5eed_c0de_0000_0000u64 ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    run_matrix(&wide);
}

// ---------------------------------------------------------------------
// Fault telemetry
// ---------------------------------------------------------------------

/// Fault fires stream into the telemetry JSONL as `fault` events, and
/// the resulting stream still passes the shipped schema validator.
#[test]
fn fault_fires_stream_to_telemetry_jsonl() {
    let plan = Arc::new(
        FaultPlan::new(7).with_rule(FaultSite::SegmentTorn, FaultRule::always().max_fires(1)),
    );
    let path = std::env::temp_dir().join(format!(
        "atscale-chaos-telemetry-{}.jsonl",
        std::process::id()
    ));
    let sink = Arc::new(TelemetrySink::new().with_jsonl(&path).expect("jsonl"));
    {
        let sink = Arc::clone(&sink);
        plan.set_observer(Box::new(move |site, hit| sink.fault(site.name(), hit)));
    }

    let dir = scratch_dir("telemetry", 7);
    let store = RunStore::open(&dir)
        .expect("open store")
        .with_fault_plan(Arc::clone(&plan));
    let record = atscale::execute_run(&tiny_spec(7), &MachineConfig::haswell());
    store
        .save("deadbeef", &record)
        .expect("a torn append still reports success");
    assert!(store.load("deadbeef").is_none(), "torn row never committed");

    assert_eq!(sink.fault_count(), 1);
    sink.finish();
    let text = std::fs::read_to_string(&path).expect("stream file");
    let (summary, violations) = validate_stream_all(&text);
    assert_eq!(violations, [], "{text}");
    assert_eq!(summary.by_type.get("fault"), Some(&1));
    assert_eq!(summary.lines, 3, "meta, the fault, summary: {text}");
    assert!(text.contains("\"site\":\"SegmentTorn\""), "{text}");

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&dir);
}
