//! End-to-end tests for the reactor shards and the shard router: wire
//! parity between the Unix socket, TCP and the in-process harness,
//! per-shard placement and single-flight dedup, topology discovery from
//! any member, and drain-on-shutdown through the reactor.

use atscale::{Harness, RunSpec, RunStore, SweepConfig};
use atscale_mmu::MachineConfig;
use atscale_serve::{Client, ServeConfig, Server, ShardMap, ShardedClient, SubmitOptions};
use atscale_vm::PageSize;
use atscale_workloads::WorkloadId;
use std::net::TcpListener;

fn temp_store(tag: &str) -> (std::path::PathBuf, RunStore) {
    let dir =
        std::env::temp_dir().join(format!("atscale-sharded-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (dir.clone(), RunStore::open(dir).unwrap())
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

/// Reserves distinct loopback ports so a topology's addresses are known
/// before its members bind them.
fn reserve_addrs(n: usize) -> Vec<String> {
    let holds: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    holds
        .iter()
        .map(|l| format!("127.0.0.1:{}", l.local_addr().unwrap().port()))
        .collect()
}

/// A fig1 `--test` sweep through two reactor shards must yield the exact
/// records of the in-process harness whichever socket family carries it:
/// first over `unix:` (executing), then over TCP on the same daemon
/// (answered from cache). Shutdown then drains through the reactor.
#[test]
fn epoll_tier_serves_records_bit_for_bit_and_drains() {
    let (dir, store) = temp_store("epoll");
    let socket = std::env::temp_dir().join(format!("atscale-sharded-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let server = Server::start(
        ServeConfig {
            store: Some(store),
            workers: 2,
            reactors: 2,
            ..ServeConfig::default()
        },
        Some("127.0.0.1:0"),
        Some(&socket),
    )
    .expect("bind both endpoints");
    let addr = server.tcp_addr().expect("tcp endpoint").to_string();

    // The fig1 spec set (one workload, test profile), exactly as
    // `Harness::sweep_many` builds it.
    let sweep = SweepConfig::test();
    let workload = WorkloadId::parse("cc-urand").unwrap();
    let mut specs = Vec::new();
    for fp in sweep.footprints() {
        let base = sweep.spec(workload, fp);
        specs.push(base);
        specs.push(base.with_page_size(PageSize::Size2M));
        specs.push(base.with_page_size(PageSize::Size1G));
    }
    let direct = Harness::new()
        .with_config(MachineConfig::haswell())
        .run_many(&specs);

    // Connections go to the shards round-robin: the Unix client lands on
    // one, the TCP client on the other.
    let mut over_unix =
        Client::connect(&format!("unix:{}", socket.display())).expect("connect unix");
    let welcome = over_unix.hello().expect("handshake");
    assert_eq!(welcome.shard, 0, "standalone daemon is shard 0");
    assert_eq!(welcome.shards, 1);
    assert!(welcome.topology.is_empty());
    let mut over_tcp = Client::connect(&addr).expect("connect tcp");
    over_tcp.hello().expect("handshake");

    let served = over_unix
        .run_many(&specs, SubmitOptions::default())
        .expect("sweep over unix");
    let executions = over_unix.server_stats().expect("stats").executions;
    let again = over_tcp
        .run_many(&specs, SubmitOptions::default())
        .expect("sweep over tcp");
    assert_eq!(served.len(), direct.len());
    assert_eq!(again.len(), direct.len());
    for ((u, t), d) in served.iter().zip(&again).zip(&direct) {
        let want = serde_json::to_vec(d).unwrap();
        for (transport, got) in [("unix", u), ("tcp", t)] {
            assert_eq!(
                serde_json::to_vec(got).unwrap(),
                want,
                "record over {transport} diverges from the harness for {}",
                d.spec.label()
            );
        }
    }

    // The second pass was cache-first: zero new executions.
    let after = over_tcp.server_stats().expect("stats");
    assert_eq!(
        after.executions, executions,
        "cache-first through the reactor"
    );
    assert_eq!(after.cache_hits, specs.len() as u64);

    // Shutdown drains: a batch submitted just before the Shutdown frame
    // must still be fully answered (reactor flushes outbufs before exit).
    let late_specs: Vec<RunSpec> = (100..104).map(tiny_spec).collect();
    let answered = over_unix
        .run_many(&late_specs, SubmitOptions::default())
        .expect("late batch answered");
    assert_eq!(answered.len(), late_specs.len());
    server.shutdown_and_join();
    assert!(!socket.exists(), "join unlinks the socket");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 4-shard topology must produce byte-identical records to a single
/// daemon, place every record only on its owning shard (cache identity =
/// placement), keep single-flight dedup exact per shard, and advertise
/// the full topology from any member.
#[test]
fn sharded_sweep_matches_single_daemon_and_places_records_per_shard() {
    let shards = 4usize;
    let addrs = reserve_addrs(shards);
    let topology_cfg: Vec<String> = addrs.clone();
    let mut servers = Vec::new();
    let mut dirs = Vec::new();
    for (i, addr) in addrs.iter().enumerate() {
        let (dir, store) = temp_store(&format!("shard{i}"));
        dirs.push(dir);
        servers.push(
            Server::start(
                ServeConfig {
                    store: Some(store),
                    workers: 2,
                    reactors: 1,
                    shard: i as u64,
                    topology: topology_cfg.clone(),
                    ..ServeConfig::default()
                },
                Some(addr),
                None,
            )
            .expect("bind shard"),
        );
    }

    // Duplicates included: dedup must stay exact per shard.
    let mut specs: Vec<RunSpec> = (0..12).map(tiny_spec).collect();
    specs.push(tiny_spec(0));
    specs.push(tiny_spec(5));

    // Connect to a NON-zero member: discovery must still yield the full
    // topology in shard order.
    let mut client = ShardedClient::connect(&addrs[2]).expect("connect member 2");
    assert_eq!(client.shards(), shards);
    assert_eq!(client.topology(), addrs.as_slice());

    let sharded = client
        .run_chunked(&specs, SubmitOptions::default())
        .expect("sharded sweep");

    // Reference: the same sweep through one standalone daemon.
    let (single_dir, single_store) = temp_store("single");
    let single = Server::start(
        ServeConfig {
            store: Some(single_store),
            workers: 2,
            ..ServeConfig::default()
        },
        Some("127.0.0.1:0"),
        None,
    )
    .expect("bind single daemon");
    let single_addr = single.tcp_addr().unwrap().to_string();
    let mut single_client = Client::connect(&single_addr).expect("connect single");
    single_client.hello().expect("handshake");
    let reference = single_client
        .run_many(&specs, SubmitOptions::default())
        .expect("single-daemon sweep");

    assert_eq!(sharded.len(), reference.len());
    for (s, r) in sharded.iter().zip(&reference) {
        assert_eq!(
            serde_json::to_vec(s).unwrap(),
            serde_json::to_vec(r).unwrap(),
            "sharded record diverges from single daemon for {}",
            r.spec.label()
        );
    }

    // Placement: each shard's cache holds exactly the specs the router
    // assigns it, and its execution counter shows per-shard single-flight
    // (duplicates never re-executed).
    let machine = MachineConfig::haswell();
    let map = ShardMap::new(shards);
    let mut expected: Vec<std::collections::BTreeSet<String>> = vec![Default::default(); shards];
    for spec in &specs {
        let shard = map.shard_for(spec, &machine);
        expected[shard].insert(RunStore::key(spec, &machine));
    }
    let mut total_executions = 0u64;
    for (i, addr) in addrs.iter().enumerate() {
        let mut probe = Client::connect(addr).expect("connect shard");
        let welcome = probe.hello().expect("handshake");
        assert_eq!(welcome.shard, i as u64, "member knows its shard index");
        assert_eq!(welcome.shards, shards as u64);
        assert_eq!(welcome.topology, addrs, "every member advertises all");
        let stats = probe.cache_stats().expect("cache stats");
        assert_eq!(
            stats.entries,
            expected[i].len() as u64,
            "shard {i} holds exactly its routed records"
        );
        let server_stats = probe.server_stats().expect("server stats");
        assert_eq!(
            server_stats.executions,
            expected[i].len() as u64,
            "shard {i} executed each owned spec exactly once"
        );
        total_executions += server_stats.executions;
    }
    let unique: std::collections::BTreeSet<String> =
        specs.iter().map(|s| RunStore::key(s, &machine)).collect();
    assert_eq!(
        total_executions,
        unique.len() as u64,
        "whole topology executed each unique spec exactly once"
    );

    single.shutdown_and_join();
    for server in servers {
        server.shutdown_and_join();
    }
    for dir in dirs.iter().chain(std::iter::once(&single_dir)) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Reconnect-on-drop: killing a shard's connection mid-session must be
/// transparent — the sharded client re-dials and the resubmitted
/// partition returns byte-identical records (deterministic + cache-first).
#[test]
fn sharded_client_survives_a_dropped_connection() {
    let (dir, store) = temp_store("redial");
    let server = Server::start(
        ServeConfig {
            store: Some(store),
            workers: 2,
            reactors: 1,
            ..ServeConfig::default()
        },
        Some("127.0.0.1:0"),
        None,
    )
    .expect("bind");
    let addr = server.tcp_addr().unwrap().to_string();

    let specs: Vec<RunSpec> = (200..204).map(tiny_spec).collect();
    let mut client = ShardedClient::connect(&addr).expect("connect");
    let first = client
        .run_chunked(&specs, SubmitOptions::default())
        .expect("first pass");

    // Second sharded client, dropped after its handshake, proves the
    // server tears dead connections down; then the surviving client runs
    // again — whatever happened to its socket in between, records match.
    drop(ShardedClient::connect(&addr).expect("transient client"));
    let second = client
        .run_chunked(&specs, SubmitOptions::default())
        .expect("second pass");
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(
            serde_json::to_vec(a).unwrap(),
            serde_json::to_vec(b).unwrap()
        );
    }
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}
