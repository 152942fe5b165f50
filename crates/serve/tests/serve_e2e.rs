//! End-to-end daemon tests over real sockets: fig1-sweep parity with the
//! in-process harness, explicit overload replies, deadline expiry, cache
//! stats over the wire, drain-on-shutdown, and the bounds a misbehaving
//! peer meets (never reading, never sending a newline, nesting too deep).

use atscale::{Harness, RunSpec, RunStore, SweepConfig};
use atscale_mmu::MachineConfig;
use atscale_serve::protocol::{self, Reply, Request, Submit};
use atscale_serve::{Client, ClientError, ServeConfig, Server, ShardedClient, SubmitOptions};
use atscale_vm::PageSize;
use atscale_workloads::WorkloadId;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

fn temp_store(tag: &str) -> (std::path::PathBuf, RunStore) {
    let dir = std::env::temp_dir().join(format!("atscale-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (dir.clone(), RunStore::open(dir).unwrap())
}

fn start_server(config: ServeConfig) -> (Server, String) {
    let server = Server::start(config, Some("127.0.0.1:0"), None).expect("bind");
    let addr = server.tcp_addr().expect("tcp endpoint").to_string();
    (server, addr)
}

/// A daemon on a private Unix socket, one reactor shard (so every
/// connection of the test shares it).
fn start_unix_server(tag: &str, store: Option<RunStore>) -> (Server, std::path::PathBuf) {
    let path = std::env::temp_dir().join(format!("atscale-e2e-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let config = ServeConfig {
        store,
        workers: 2,
        reactors: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(config, None, Some(&path)).expect("bind");
    (server, path)
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

/// The fig1 sweep submitted through the daemon must reproduce the direct
/// in-process harness bit for bit.
#[test]
fn fig1_sweep_through_the_daemon_matches_the_harness_bit_for_bit() {
    let (dir, store) = temp_store("parity");
    let (server, addr) = start_server(ServeConfig {
        store: Some(store),
        workers: 4,
        ..ServeConfig::default()
    });

    // The fig1 spec set (one workload, test profile): every footprint at
    // all three page sizes, exactly as `Harness::sweep_many` builds it.
    let sweep = SweepConfig::test();
    let workload = WorkloadId::parse("cc-urand").unwrap();
    let mut specs = Vec::new();
    for fp in sweep.footprints() {
        let base = sweep.spec(workload, fp);
        specs.push(base);
        specs.push(base.with_page_size(PageSize::Size2M));
        specs.push(base.with_page_size(PageSize::Size1G));
    }

    let mut client = Client::connect(&addr).expect("connect");
    client.hello().expect("handshake");
    let served = client
        .run_many(&specs, SubmitOptions::default())
        .expect("served sweep");

    let direct = Harness::new()
        .with_config(MachineConfig::haswell())
        .run_many(&specs);

    assert_eq!(served.len(), direct.len());
    for (s, d) in served.iter().zip(&direct) {
        assert_eq!(
            serde_json::to_vec(s).unwrap(),
            serde_json::to_vec(d).unwrap(),
            "daemon record diverges from direct harness for {}",
            d.spec.label()
        );
    }

    // Store occupancy over the wire reflects the sweep.
    let stats = client.seg_stats().expect("seg stats");
    assert_eq!(stats.live_rows, specs.len() as u64);
    assert_eq!(stats.tmp_files, 0);
    assert!(stats.disk_bytes > 0);

    // Second submission is answered from the cache: no new executions.
    let before = client.server_stats().expect("stats").executions;
    let again = client
        .run_many(&specs, SubmitOptions::default())
        .expect("cached sweep");
    let after = client.server_stats().expect("stats");
    assert_eq!(after.executions, before, "cache-first: no re-execution");
    assert_eq!(after.cache_hits, specs.len() as u64);
    for (s, d) in again.iter().zip(&direct) {
        assert_eq!(
            serde_json::to_vec(s).unwrap(),
            serde_json::to_vec(d).unwrap()
        );
    }

    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A full queue rejects the whole batch with a structured reply — never a
/// hang, never a silent drop — and the server stays usable.
#[test]
fn full_queue_rejects_with_explicit_overloaded_reply() {
    let (server, addr) = start_server(ServeConfig {
        store: None,
        workers: 1,
        queue_capacity: 1,
        start_paused: true,
        ..ServeConfig::default()
    });
    let scheduler = server.handle().scheduler().clone();

    // Fill the queue: one spec sits queued behind paused workers.
    let blocked = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut client = Client::connect(&addr).expect("connect");
            client.run_many(&[tiny_spec(1)], SubmitOptions::default())
        }
    });
    while scheduler.stats_reply().queued == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }

    // A two-spec batch cannot fit: rejected atomically, nothing enqueued.
    let mut client = Client::connect(&addr).expect("connect");
    let err = client
        .run_many(&[tiny_spec(2), tiny_spec(3)], SubmitOptions::default())
        .expect_err("queue is full");
    match err {
        ClientError::Overloaded(o) => {
            assert_eq!(o.queued, 1);
            assert_eq!(o.capacity, 1);
        }
        other => panic!("expected Overloaded, got {other}"),
    }
    let stats = scheduler.stats_reply();
    assert_eq!(stats.queued, 1, "rejected batch enqueued nothing");
    assert_eq!(stats.overloaded, 1);

    // An identical spec still coalesces — dedup consumes no capacity.
    let coalesced = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut client = Client::connect(&addr).expect("connect");
            client.run_many(&[tiny_spec(1)], SubmitOptions::default())
        }
    });
    while scheduler.stats_reply().dedup_hits == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }

    scheduler.resume();
    let first = blocked.join().unwrap().expect("blocked batch completes");
    let second = coalesced
        .join()
        .unwrap()
        .expect("coalesced batch completes");
    assert_eq!(
        serde_json::to_vec(&first[0]).unwrap(),
        serde_json::to_vec(&second[0]).unwrap()
    );
    assert_eq!(scheduler.stats().executions(), 1);

    server.shutdown_and_join();
}

/// A batch larger than the whole admission queue can never be admitted in
/// one piece — `ShardedClient::run_chunked` must split it (sized from the
/// advertised capacity in `Welcome`) and still return every record in
/// spec order.
#[test]
fn run_chunked_resolves_batches_larger_than_the_queue() {
    let (server, addr) = start_server(ServeConfig {
        store: None,
        workers: 2,
        queue_capacity: 4,
        ..ServeConfig::default()
    });
    let scheduler = server.handle().scheduler().clone();

    let specs: Vec<RunSpec> = (0..10u64).map(tiny_spec).collect();
    let mut client = Client::connect(&addr).expect("connect");
    let welcome = client.hello().expect("handshake");
    assert_eq!(welcome.queue_capacity, 4);

    // One batch is impossible by construction…
    let err = client
        .run_many(&specs, SubmitOptions::default())
        .expect_err("10 fresh jobs cannot fit a 4-slot queue");
    assert!(matches!(err, ClientError::Overloaded(_)), "{err}");

    // …but the chunked path resolves all of it, in order.
    let records = ShardedClient::connect(&addr)
        .expect("connect")
        .run_chunked(&specs, SubmitOptions::default())
        .expect("chunked batch resolves");
    assert_eq!(records.len(), specs.len());
    for (record, spec) in records.iter().zip(&specs) {
        assert_eq!(record.spec.seed, spec.seed, "records are in spec order");
    }
    assert_eq!(scheduler.stats().executions(), specs.len() as u64);

    server.shutdown_and_join();
}

/// Binding a Unix socket a live daemon is serving must fail loudly
/// instead of silently stealing the endpoint; a genuinely stale socket
/// file is reclaimed.
#[cfg(unix)]
#[test]
fn unix_bind_refuses_a_live_daemon_and_reclaims_a_stale_socket() {
    let path = std::env::temp_dir().join(format!("atscale-e2e-steal-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let first = Server::start(
        ServeConfig {
            store: None,
            ..ServeConfig::default()
        },
        None,
        Some(&path),
    )
    .expect("first daemon binds");

    let stolen = Server::start(
        ServeConfig {
            store: None,
            ..ServeConfig::default()
        },
        None,
        Some(&path),
    );
    match stolen {
        Err(e) => assert_eq!(e.kind(), ErrorKind::AddrInUse, "{e}"),
        Ok(_) => panic!("second daemon stole a live socket"),
    }
    first.shutdown_and_join();

    // Shutdown unlinked the socket; simulate a crash leaving a stale file
    // behind and check the next daemon reclaims it.
    std::fs::write(&path, b"").expect("plant stale file");
    let reclaimed = Server::start(
        ServeConfig {
            store: None,
            ..ServeConfig::default()
        },
        None,
        Some(&path),
    )
    .expect("stale socket file is reclaimed");
    reclaimed.shutdown_and_join();
    let _ = std::fs::remove_file(&path);
}

/// Specs resolving past their deadline yield `Deadline` frames (surfaced
/// as `ClientError::Expired`), and the expiry is counted.
#[test]
fn missed_deadlines_yield_deadline_frames() {
    let (server, addr) = start_server(ServeConfig {
        store: None,
        workers: 1,
        start_paused: true,
        ..ServeConfig::default()
    });
    let scheduler = server.handle().scheduler().clone();

    let submitted = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut client = Client::connect(&addr).expect("connect");
            client.run_many(
                &[tiny_spec(10), tiny_spec(11)],
                SubmitOptions {
                    deadline_ms: Some(0),
                    ..SubmitOptions::default()
                },
            )
        }
    });
    while scheduler.stats_reply().queued < 2 {
        std::thread::sleep(Duration::from_millis(5));
    }
    // The deadline (admission + 0 ms) has passed before workers resume.
    std::thread::sleep(Duration::from_millis(10));
    scheduler.resume();

    match submitted.join().unwrap() {
        Err(ClientError::Expired(indices)) => assert_eq!(indices, vec![0, 1]),
        other => panic!("expected Expired, got {other:?}"),
    }
    assert_eq!(scheduler.stats_reply().expired, 2);
    assert_eq!(
        scheduler.stats().executions(),
        0,
        "fully-abandoned jobs are shed without executing"
    );

    server.shutdown_and_join();
}

/// Graceful shutdown drains: batches admitted before the shutdown frame
/// still deliver every record, then the server exits.
#[test]
fn shutdown_drains_admitted_work_before_exiting() {
    let (server, addr) = start_server(ServeConfig {
        store: None,
        workers: 2,
        start_paused: true,
        ..ServeConfig::default()
    });
    let scheduler = server.handle().scheduler().clone();

    let pending = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut client = Client::connect(&addr).expect("connect");
            client.run_many(
                &[tiny_spec(20), tiny_spec(21), tiny_spec(22)],
                SubmitOptions::default(),
            )
        }
    });
    while scheduler.stats_reply().queued < 3 {
        std::thread::sleep(Duration::from_millis(5));
    }

    // Shutdown while the whole batch is still queued; drain un-pauses.
    let mut control = Client::connect(&addr).expect("connect");
    control.shutdown().expect("acknowledged");

    let records = pending.join().unwrap().expect("admitted batch drains");
    assert_eq!(records.len(), 3);

    // New submissions after the drain began are rejected explicitly.
    let mut late = Client::connect(&addr).ok();
    if let Some(late) = late.as_mut() {
        match late.run_many(&[tiny_spec(23)], SubmitOptions::default()) {
            Err(ClientError::Server(msg)) => assert!(msg.contains("draining"), "{msg}"),
            Err(ClientError::Io(_) | ClientError::Protocol(_)) => {} // listener already gone
            other => panic!("expected draining rejection, got {other:?}"),
        }
    }

    server.join();
}

/// A connected client that stops reading must not hold shutdown: once
/// its socket is full its buffered replies make no write progress, and
/// after a fixed grace the daemon sheds it and exits — while a client
/// that does read gets every record of a batch admitted before the
/// shutdown.
#[test]
fn a_client_that_stops_reading_cannot_hold_shutdown() {
    const SUBMITS: u64 = 400;
    let (dir, store) = temp_store("stalled");
    let (server, path) = start_unix_server("stalled", Some(store));
    let target = format!("unix:{}", path.display());
    let scheduler = server.handle().scheduler().clone();

    let cached: Vec<RunSpec> = (300..304).map(tiny_spec).collect();
    let mut reader = Client::connect(&target).expect("connect");
    reader.hello().expect("handshake");
    reader
        .run_many(&cached, SubmitOptions::default())
        .expect("warm the cache");

    // ~17 KiB of frames per submit against a ~200 KiB socket buffer:
    // almost all of it stays in the daemon's outbound buffer.
    let mut stalled = UnixStream::connect(&path).expect("connect");
    for id in 1..=SUBMITS {
        let mut line = protocol::encode(&Request::Submit(Submit {
            id,
            specs: cached.clone(),
            deadline_ms: None,
            no_cache: false,
            sample_interval: 0,
        }));
        line.push('\n');
        stalled
            .write_all(line.as_bytes())
            .expect("pipelined submit");
    }
    let answered = || {
        let stats = scheduler.stats_reply();
        stats.cache_hits + stats.dedup_hits >= SUBMITS * cached.len() as u64
            && stats.queued == 0
            && stats.running == 0
    };
    while !answered() {
        std::thread::sleep(Duration::from_millis(5));
    }

    // A batch admitted before the shutdown, by a client that reads.
    scheduler.pause();
    let fresh: Vec<RunSpec> = (310..313).map(tiny_spec).collect();
    let pending = std::thread::spawn({
        let fresh = fresh.clone();
        move || reader.run_many(&fresh, SubmitOptions::default())
    });
    while scheduler.stats_reply().queued < fresh.len() as u64 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut control = Client::connect(&target).expect("connect");
    control.shutdown().expect("acknowledged");
    let requested = Instant::now();

    let records = pending.join().unwrap().expect("the reading client");
    assert_eq!(
        records.len(),
        fresh.len(),
        "the reading client lost nothing"
    );
    server.join();
    assert!(
        requested.elapsed() < Duration::from_secs(10),
        "join waited {:?} on a client that never reads",
        requested.elapsed()
    );

    // The stalled connection was closed, not left open: what the kernel
    // still held drains, then the stream ends.
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("socket timeout");
    if let Err(e) = stalled.read_to_end(&mut Vec::new()) {
        assert_eq!(e.kind(), ErrorKind::ConnectionReset, "{e}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A peer that never sends a newline buys bounded memory: the daemon
/// buffers a partial line up to the reactor's 64 MiB `HIGH_WATER`, then
/// closes the connection, and keeps serving everyone else.
#[test]
fn a_line_that_never_ends_is_cut_off() {
    const HIGH_WATER: usize = 64 << 20;
    let (server, path) = start_unix_server("flood", None);

    let mut flood = UnixStream::connect(&path).expect("connect");
    let chunk = vec![b'x'; 1 << 20];
    let mut sent = 0usize;
    let cut = loop {
        match flood.write(&chunk) {
            Ok(n) => sent += n,
            Err(e) => break e,
        }
        // The kernel's socket buffers add well under a MiB of slack.
        assert!(
            sent <= HIGH_WATER + (16 << 20),
            "the daemon is still buffering a newline-free line after {sent} bytes"
        );
    };
    assert!(
        matches!(
            cut.kind(),
            ErrorKind::BrokenPipe | ErrorKind::ConnectionReset
        ),
        "{cut}"
    );
    assert!(
        sent >= HIGH_WATER,
        "cut off after only {sent} bytes: a long frame must still fit"
    );

    let mut healthy = Client::connect(&format!("unix:{}", path.display())).expect("connect");
    healthy.hello().expect("the daemon outlives the flood");
    server.shutdown_and_join();
}

/// One line of deep nesting is a bad frame, not a crash: the codec's
/// nesting bound answers it with an `Error` frame from the shard thread
/// that decodes it, the connection keeps answering, and the daemon keeps
/// welcoming other clients.
#[test]
fn a_deeply_nested_line_is_a_bad_frame() {
    let (server, path) = start_unix_server("nesting", None);
    let mut stream = UnixStream::connect(&path).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("socket timeout");
    let mut replies = BufReader::new(stream.try_clone().expect("clone")).lines();
    let mut ask = |line: &str| {
        stream.write_all(line.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send");
        let reply = replies.next().expect("a reply").expect("read");
        protocol::decode::<Reply>(&reply).expect("a frame")
    };

    match ask(&"[".repeat(100_000)) {
        Reply::Error(e) => assert!(
            e.message.contains("nesting deeper than 128"),
            "{}",
            e.message
        ),
        other => panic!("expected an Error frame, got {other:?}"),
    }
    let stats = ask(&protocol::encode(&Request::ServerStats));
    assert!(matches!(stats, Reply::ServerStats(_)), "{stats:?}");

    let mut second = Client::connect(&format!("unix:{}", path.display())).expect("connect");
    second.hello().expect("a second client is welcomed");
    server.shutdown_and_join();
}
