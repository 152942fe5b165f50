//! End-to-end results plane: the v5 `Query`/`Compact`/`StoreSegStats`
//! verbs over a real socket against a segment-backed store.
//!
//! The load-bearing assertion is the results plane's contract: `query`
//! aggregates must equal aggregates recomputed from the raw `RunRecord`s
//! — exactly for count and the β/c fit (both are integer-sum state, so
//! insertion order cannot perturb them), and within the documented sketch
//! error for quantiles — before and after an over-the-wire `Compact`.

use atscale::results::{AggState, QueryFilter, QUANTILE_RELATIVE_ERROR};
use atscale::{hot_row, RunSpec, RunStore, SweepConfig};
use atscale_serve::{Client, ClientError, ServeConfig, Server, SubmitOptions};
use atscale_workloads::WorkloadId;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "atscale-results-plane-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(config: ServeConfig) -> (Server, String) {
    let server = Server::start(config, Some("127.0.0.1:0"), None).expect("bind");
    let addr = server.tcp_addr().expect("tcp endpoint").to_string();
    (server, addr)
}

/// Sweep specs for `workloads`: every test-profile footprint at 4 KB.
fn sweep_specs(workloads: &[&str]) -> Vec<RunSpec> {
    let sweep = SweepConfig::test();
    let mut specs = Vec::new();
    for name in workloads {
        let workload = WorkloadId::parse(name).expect("known workload");
        for fp in sweep.footprints() {
            specs.push(sweep.spec(workload, fp));
        }
    }
    specs
}

#[test]
fn query_matches_from_raw_recomputation_before_and_after_compact() {
    let dir = temp_dir("query");
    let store = RunStore::open(&dir).expect("open store");
    // A tiny seal threshold so the sweep (2 workloads x the test-profile
    // footprints) spans a sealed segment plus a WAL tail — the query must
    // merge across both.
    store.set_seal_threshold(4);
    let (server, addr) = start_server(ServeConfig {
        store: Some(store),
        workers: 4,
        ..ServeConfig::default()
    });

    let specs = sweep_specs(&["cc-urand", "bfs-urand"]);
    let mut client = Client::connect(&addr).expect("connect");
    client.hello().expect("handshake");
    let records = client
        .run_many(&specs, SubmitOptions::default())
        .expect("sweep resolves");

    // From-raw recomputation: fold every returned record's hot columns
    // into a fresh aggregate, exactly as the store does on commit.
    let mut recomputed = AggState::new();
    for record in &records {
        recomputed.add(&hot_row(record));
    }

    let all = QueryFilter::default();
    let served = client.query(&all).expect("query");
    assert_eq!(served.count, specs.len() as u64);
    assert_eq!(
        served,
        recomputed.query(&all),
        "online aggregates must equal the from-raw recomputation"
    );
    assert!(
        served.beta.is_some(),
        "multiple footprints fit a fig1 slope"
    );

    // Quantiles stay within the sketch's documented relative error of the
    // true rank statistics over the raw WCPI values.
    let mut wcpis: Vec<f64> = records.iter().map(|r| r.result.counters.wcpi()).collect();
    wcpis.sort_by(f64::total_cmp);
    for (q, got) in [(0.5, served.p50_wcpi), (0.99, served.p99_wcpi)] {
        let rank = ((q * wcpis.len() as f64).ceil() as usize).clamp(1, wcpis.len()) - 1;
        let truth = wcpis[rank];
        assert!(
            (got - truth).abs() <= truth.abs() * QUANTILE_RELATIVE_ERROR + 1e-12,
            "p{q}: sketch {got} vs truth {truth} exceeds the documented bound"
        );
    }

    // Filtered queries answer from the matching groups alone.
    let filtered = QueryFilter {
        workload: Some("cc-urand".to_string()),
        ..QueryFilter::default()
    };
    assert_eq!(
        client.query(&filtered).expect("filtered query"),
        recomputed.query(&filtered)
    );

    // Occupancy over the wire: everything live, several sealed segments.
    let stats = client.seg_stats().expect("seg stats");
    assert_eq!(stats.live_rows, specs.len() as u64);
    assert!(
        stats.segments >= 1,
        "threshold 4 sealed a segment: {stats:?}"
    );
    assert!(
        stats.wal_rows > 0,
        "a WAL tail is part of the query: {stats:?}"
    );
    assert!(stats.disk_bytes > 0);

    // Resubmitting the identical sweep is answered from the cache — the
    // dedup keys hit, no rows are added, aggregates are unchanged.
    let again = client
        .run_many(&specs, SubmitOptions::default())
        .expect("cached sweep");
    assert_eq!(again.len(), specs.len());
    assert_eq!(
        client.query(&all).expect("query after cache hits"),
        served,
        "cache hits must not grow the aggregate"
    );

    // Compaction over the wire is aggregate-neutral.
    let compacted = client.compact().expect("compact");
    assert_eq!(compacted.live_rows, specs.len() as u64);
    assert_eq!(compacted.segments_after, 1);
    assert_eq!(
        client.query(&all).expect("query after compact"),
        served,
        "compaction must not change any aggregate answer"
    );
    let after = client.seg_stats().expect("seg stats after compact");
    assert_eq!(after.dead_rows, 0);
    assert_eq!(after.live_rows, specs.len() as u64);

    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The results-plane verbs are the run store's: a store-less daemon
/// answers every one of them with an explicit error, and the connection
/// stays usable.
#[test]
fn results_plane_verbs_error_explicitly_without_a_store() {
    let (server, addr) = start_server(ServeConfig {
        store: None,
        ..ServeConfig::default()
    });

    let mut client = Client::connect(&addr).expect("connect");
    client.hello().expect("handshake");
    match client.query(&QueryFilter::default()) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("no run store"), "{msg}"),
        other => panic!("expected a server error, got {other:?}"),
    }
    match client.compact() {
        Err(ClientError::Server(msg)) => assert!(msg.contains("no run store"), "{msg}"),
        other => panic!("expected a server error, got {other:?}"),
    }
    match client.seg_stats() {
        Err(ClientError::Server(msg)) => assert!(msg.contains("no run store"), "{msg}"),
        other => panic!("expected a server error, got {other:?}"),
    }
    // The connection survives the rejections.
    assert!(client.server_stats().is_ok());

    server.shutdown_and_join();
}

/// An old results directory — one JSON file per record, one of them torn —
/// handed to the daemon: opening the store migrates it, so every intact
/// record is a cache hit served byte-identically, the torn one is
/// quarantined and recomputed, and the next open has nothing to migrate.
#[test]
fn legacy_directory_is_migrated_at_open_and_served_from_cache() {
    let dir = temp_dir("legacy");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let machine = ServeConfig::default().machine;
    let specs = sweep_specs(&["cc-urand"]);
    let mut expected = Vec::new();
    for spec in &specs {
        let bytes = serde_json::to_vec(&atscale::execute_run(spec, &machine)).expect("serializes");
        let path = dir.join(format!("{}.json", RunStore::key(spec, &machine)));
        std::fs::write(path, &bytes).expect("legacy file");
        expected.push(bytes);
    }
    let torn = dir.join(format!("{}.json", RunStore::key(&specs[0], &machine)));
    std::fs::write(&torn, &expected[0][..expected[0].len() / 2]).expect("tear one");

    let store = RunStore::open(&dir).expect("open migrates");
    assert_eq!(store.migrated(), specs.len() as u64 - 1);
    let (server, addr) = start_server(ServeConfig {
        store: Some(store),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    client.hello().expect("handshake");
    let records = client
        .run_many(&specs, SubmitOptions::default())
        .expect("sweep resolves");
    for (record, bytes) in records.iter().zip(&expected) {
        assert_eq!(&serde_json::to_vec(record).expect("serializes"), bytes);
    }
    let stats = client.server_stats().expect("server stats");
    assert_eq!(stats.cache_hits, specs.len() as u64 - 1);
    assert_eq!(stats.executions, 1, "only the torn record is recomputed");
    let cache = client.cache_stats().expect("cache stats");
    assert_eq!(cache.entries, specs.len() as u64);
    assert_eq!(cache.corrupt_files, 1);
    let all = client.query(&QueryFilter::default()).expect("query");
    assert_eq!(all.count, specs.len() as u64);
    server.shutdown_and_join();

    assert!(torn.with_extension("json.corrupt").exists());
    let reopened = RunStore::open(&dir).expect("reopen");
    assert_eq!(reopened.migrated(), 0);
    assert_eq!(reopened.len(), specs.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A legacy record that parses but is not canonical JSON — a newline
/// after its first `{` — migrates re-serialised: its hit is spliced into a
/// one-line `Record` frame, and the client receives the canonical bytes.
#[test]
fn a_legacy_record_with_a_newline_is_served_canonical() {
    let dir = temp_dir("newline");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let machine = ServeConfig::default().machine;
    let spec = sweep_specs(&["cc-urand"])[0];
    let canonical = serde_json::to_vec(&atscale::execute_run(&spec, &machine)).expect("serializes");
    let mut spaced = b"{\n".to_vec();
    spaced.extend_from_slice(&canonical[1..]);
    let path = dir.join(format!("{}.json", RunStore::key(&spec, &machine)));
    std::fs::write(path, &spaced).expect("legacy file");

    let store = RunStore::open(&dir).expect("open migrates");
    assert_eq!(store.migrated(), 1);
    let (server, addr) = start_server(ServeConfig {
        store: Some(store),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    client.hello().expect("handshake");
    let records = client
        .run_many(&[spec], SubmitOptions::default())
        .expect("the hit is one frame");
    assert_eq!(
        serde_json::to_vec(&records[0]).expect("serializes"),
        canonical
    );
    let stats = client.server_stats().expect("server stats");
    assert_eq!((stats.executions, stats.cache_hits), (0, 1));
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}
