//! A cache hit is bytes end to end: the daemon splices a stored row into
//! its `Record` frame without parsing it. These tests pin what that
//! relies on — a spliced frame is byte-identical to the typed frame, a
//! store written through `RunStore::save` is served with hits only, a
//! corrupt row is re-executed rather than spliced, and requests that need
//! the record itself (sampling) or no cache at all still get it.

use atscale::{ArchKind, Harness, RunRecord, RunSpec, RunStore, SweepConfig};
use atscale_mmu::MachineConfig;
use atscale_serve::protocol::{encode, encode_record, RecordDone, Reply, ServerStatsReply};
use atscale_serve::{Client, ServeConfig, Server, SubmitOptions};
use atscale_vm::PageSize;
use atscale_workloads::WorkloadId;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("atscale-raw-hits-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every workload at every test-profile footprint, on every architecture;
/// on the baseline at all three page sizes, so the set holds the whole
/// `atscale-client sweep --test`.
fn specs() -> Vec<RunSpec> {
    let sweep = SweepConfig::test();
    let mut specs = Vec::new();
    for arch in ArchKind::ALL {
        for workload in WorkloadId::all() {
            for fp in sweep.footprints() {
                let base = sweep.spec(workload, fp).with_arch(arch);
                specs.push(base);
                if arch == ArchKind::Baseline {
                    specs.push(base.with_page_size(PageSize::Size2M));
                    specs.push(base.with_page_size(PageSize::Size1G));
                }
            }
        }
    }
    specs
}

/// [`specs`]' records with their JSON, executed once per test process.
fn records() -> &'static [(RunRecord, Vec<u8>)] {
    static RECORDS: OnceLock<Vec<(RunRecord, Vec<u8>)>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        Harness::new()
            .run_many(&specs())
            .into_iter()
            .map(|record| {
                let json = serde_json::to_vec(&record).expect("records serialize");
                (record, json)
            })
            .collect()
    })
}

/// For every record of the test sweep on every architecture, and every
/// `cached`/`deduped` state, the spliced frame is the typed frame: no
/// field changes on a parse → serialise round trip.
#[test]
fn spliced_frames_equal_typed_frames() {
    for (record, json) in records() {
        for (id, index, cached, deduped) in [
            (0, 0, false, false),
            (7, 41, true, false),
            (12, 3, false, true),
            (u64::MAX, 155, true, true),
        ] {
            let typed = encode(&Reply::Record(RecordDone {
                id,
                index,
                cached,
                deduped,
                source: "sim".to_string(),
                arch: record.spec.arch.to_string(),
                record: serde_json::from_slice(json).expect("records parse"),
            }));
            let spliced = encode_record(id, index, cached, deduped, record.spec.arch, json);
            assert_eq!(
                String::from_utf8(spliced).expect("UTF-8"),
                typed,
                "{}",
                record.spec.label()
            );
        }
    }
}

/// Opens the store at `dir` behind a daemon, submits every spec of
/// [`records`] as one batch, requires each record byte-identical to its
/// direct execution, and returns the daemon's counters.
fn serve_all(dir: &Path) -> ServerStatsReply {
    let store = RunStore::open(dir).expect("open store");
    let server = Server::start(
        ServeConfig {
            store: Some(store),
            workers: 2,
            ..ServeConfig::default()
        },
        Some("127.0.0.1:0"),
        None,
    )
    .expect("bind");
    let mut client =
        Client::connect(&server.tcp_addr().expect("tcp").to_string()).expect("connect");
    client.hello().expect("handshake");
    let specs: Vec<RunSpec> = records().iter().map(|(r, _)| r.spec).collect();
    let served = client
        .run_many(&specs, SubmitOptions::default())
        .expect("batch resolves");
    for (got, (record, json)) in served.iter().zip(records()) {
        assert_eq!(
            &serde_json::to_vec(got).expect("serializes"),
            json,
            "{}",
            record.spec.label()
        );
    }
    let stats = client.server_stats().expect("server stats");
    server.shutdown_and_join();
    stats
}

/// A store written with the typed path (`RunStore::save`) is served with
/// hits only. Then one bit of a sealed segment flips: that segment holds
/// one row, which is quarantined at open and re-executed — it never
/// reaches the client as a hit.
#[test]
fn saved_rows_are_hits_and_a_flipped_bit_is_never_one() {
    let dir = temp_dir("saved");
    let machine = MachineConfig::haswell();
    let (last, rest) = records().split_last().expect("records");
    let store = RunStore::open(&dir).expect("open store");
    for (record, _) in rest {
        store
            .save(&RunStore::key(&record.spec, &machine), record)
            .expect("save");
    }
    store.seal().expect("seal");
    // The last row alone in the newest segment.
    store
        .save(&RunStore::key(&last.0.spec, &machine), &last.0)
        .expect("save");
    store.seal().expect("seal");
    drop(store);

    let stats = serve_all(&dir);
    assert_eq!(stats.executions, 0);
    assert_eq!(stats.cache_hits, records().len() as u64);

    let newest = std::fs::read_dir(dir.join("segments"))
        .expect("segments")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .max()
        .expect("a sealed segment");
    let mut bytes = std::fs::read(&newest).expect("read segment");
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x10;
    std::fs::write(&newest, bytes).expect("write segment");

    let stats = serve_all(&dir);
    assert_eq!(stats.executions, 1, "the corrupt row is re-executed");
    assert_eq!(stats.cache_hits, records().len() as u64 - 1);
    assert_eq!(RunStore::open(&dir).expect("reopen").len(), records().len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The requests that bypass a raw hit: `no_cache` executes and writes back
/// under the plain store key (so the next plain request hits), and a
/// sampling request re-runs a sample-less hit to get its series.
#[test]
fn no_cache_and_sampling_requests_still_get_their_record() {
    let dir = temp_dir("fresh");
    let server = Server::start(
        ServeConfig {
            store: Some(RunStore::open(&dir).expect("open store")),
            workers: 1,
            ..ServeConfig::default()
        },
        Some("127.0.0.1:0"),
        None,
    )
    .expect("bind");
    let mut client =
        Client::connect(&server.tcp_addr().expect("tcp").to_string()).expect("connect");
    client.hello().expect("handshake");
    let spec = [RunSpec {
        workload: WorkloadId::parse("cc-urand").expect("known workload"),
        nominal_footprint: 16 << 20,
        page_size: PageSize::Size4K,
        seed: 5,
        warmup_instr: 1_000,
        budget_instr: 20_000,
        arch: ArchKind::Baseline,
    }];
    let direct = serde_json::to_vec(&atscale::execute_run(&spec[0], &MachineConfig::haswell()))
        .expect("serializes");
    let mut run = |opts: SubmitOptions| {
        let records = client.run_many(&spec, opts).expect("resolves");
        let stats = client.server_stats().expect("server stats");
        (records, (stats.executions, stats.cache_hits))
    };

    let fresh = SubmitOptions {
        no_cache: true,
        ..SubmitOptions::default()
    };
    let (records, counts) = run(fresh);
    assert_eq!(serde_json::to_vec(&records[0]).expect("serializes"), direct);
    assert_eq!(counts, (1, 0));
    let (records, counts) = run(SubmitOptions::default());
    assert_eq!(serde_json::to_vec(&records[0]).expect("serializes"), direct);
    assert_eq!(counts, (1, 1), "no_cache wrote back under the store key");

    let sampling = SubmitOptions {
        sample_interval: 5_000,
        ..SubmitOptions::default()
    };
    let (records, counts) = run(sampling);
    assert!(!records[0].result.samples.is_empty());
    assert_eq!(counts, (2, 1), "a sample-less hit cannot answer it");
    let (again, counts) = run(sampling);
    assert_eq!(counts, (2, 2), "the sampled record replaced the row");
    assert_eq!(
        serde_json::to_vec(&again[0]).expect("serializes"),
        serde_json::to_vec(&records[0]).expect("serializes")
    );

    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}
