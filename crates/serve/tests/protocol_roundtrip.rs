//! Every protocol frame variant must survive encode → decode unchanged.
//!
//! [`requests`] and [`replies`] hold the samples, and each `*_roundtrips`
//! test round-trips one variant's. [`request_variant`] and
//! [`reply_variant`] list every variant once, in a `match` with no `_`
//! arm: a new variant does not compile until it is listed, and fails
//! `every_variant_has_a_roundtrip_sample` until it has a sample. The
//! results-plane verbs (`Query`, `Compact`, `StoreSegStats`) cannot be
//! dropped either: `atscale-client` and `results_plane_e2e` build them.

use atscale::{RunRecord, RunSpec};
use atscale_mmu::MachineConfig;
use atscale_serve::protocol::{
    decode, encode, encode_record, Accepted, BatchDone, CompactStats, DeadlineExceeded, ErrorReply,
    GroupSummary, Hello, JobFailed, Overloaded, ProgressEvent, QueryFilter, QueryResult,
    RecordDone, Reply, Request, SampleEvent, SegStats, ServerStatsReply, Submit, Welcome,
    PROTOCOL_VERSION,
};
use atscale_telemetry::{Progress, Sample};
use atscale_vm::PageSize;
use atscale_workloads::WorkloadId;
use std::sync::OnceLock;

fn spec() -> RunSpec {
    RunSpec {
        workload: WorkloadId::parse("cc-urand").unwrap(),
        nominal_footprint: 16 << 20,
        page_size: PageSize::Size4K,
        seed: 7,
        warmup_instr: 1_000,
        budget_instr: 20_000,
        arch: atscale::ArchKind::Baseline,
    }
}

/// One real record, executed once per test process.
fn record() -> RunRecord {
    static RECORD: OnceLock<RunRecord> = OnceLock::new();
    RECORD
        .get_or_init(|| atscale::execute_run(&spec(), &MachineConfig::haswell()))
        .clone()
}

/// `(position, count)`: where `frame`'s variant sits in one list of
/// variant patterns, and how long the list is. The list also expands into
/// a `match` with no `_` arm, so a variant missing from it does not compile.
macro_rules! variant_position {
    ($frame:expr, $($variant:pat),+ $(,)?) => {{
        let frame = $frame;
        match frame {
            $($variant => {})+
        }
        let mut position = None;
        let mut count = 0;
        $(
            if position.is_none() && matches!(frame, $variant) {
                position = Some(count);
            }
            count += 1;
        )+
        (position.expect("the match above is exhaustive"), count)
    }};
}

fn request_variant(frame: &Request) -> (usize, usize) {
    variant_position!(
        frame,
        Request::Hello(_),
        Request::Submit(_),
        Request::ServerStats,
        Request::Query(_),
        Request::Compact,
        Request::StoreSegStats,
        Request::Shutdown,
    )
}

fn reply_variant(frame: &Reply) -> (usize, usize) {
    variant_position!(
        frame,
        Reply::Welcome(_),
        Reply::Accepted(_),
        Reply::Overloaded(_),
        Reply::Record(_),
        Reply::Deadline(_),
        Reply::Failed(_),
        Reply::BatchDone(_),
        Reply::Progress(_),
        Reply::Sample(_),
        Reply::ServerStats(_),
        Reply::QueryResult(_),
        Reply::Compacted(_),
        Reply::StoreSegStats(_),
        Reply::Error(_),
        Reply::ShuttingDown,
    )
}

/// The variant positions `samples` cover, and the variant count.
fn covered<T>(samples: &[T], variant: fn(&T) -> (usize, usize)) -> (Vec<usize>, usize) {
    let mut positions: Vec<usize> = Vec::new();
    let mut count = 0;
    for frame in samples {
        let (position, n) = variant(frame);
        positions.push(position);
        count = n;
    }
    positions.sort_unstable();
    positions.dedup();
    (positions, count)
}

fn requests() -> Vec<Request> {
    vec![
        Request::Hello(Hello {
            protocol: PROTOCOL_VERSION,
        }),
        // Mixed-architecture batch: the off-baseline spec carries its `arch`
        // tag on the wire (v7); the baseline spec omits it (byte-stable v6
        // shape).
        Request::Submit(Submit {
            id: 3,
            specs: vec![spec(), spec().with_arch(atscale::ArchKind::Victima)],
            deadline_ms: Some(1500),
            no_cache: true,
            sample_interval: 100_000,
        }),
        // `Option` must round-trip in its `None` shape too.
        Request::Submit(Submit {
            id: 4,
            specs: Vec::new(),
            deadline_ms: None,
            no_cache: false,
            sample_interval: 0,
        }),
        Request::ServerStats,
        Request::Shutdown,
        Request::Query(QueryFilter {
            workload: Some("cc-urand".to_string()),
            source: Some("sim".to_string()),
            arch: Some("victima".to_string()),
            min_footprint_mb: Some(16),
            max_footprint_mb: Some(1024),
        }),
        // The all-`None` filter (match everything) must round-trip too.
        Request::Query(QueryFilter::default()),
        Request::Compact,
        Request::StoreSegStats,
    ]
}

fn replies() -> Vec<Reply> {
    vec![
        // Sharded shape: the v6 topology fields populated.
        Reply::Welcome(Welcome {
            protocol: PROTOCOL_VERSION,
            server: "atscale-serve/test".to_string(),
            workers: 4,
            queue_capacity: 1024,
            shard: 2,
            shards: 4,
            topology: vec![
                "127.0.0.1:7001".to_string(),
                "127.0.0.1:7002".to_string(),
                "127.0.0.1:7003".to_string(),
                "127.0.0.1:7004".to_string(),
            ],
            architectures: atscale::ArchKind::ALL
                .iter()
                .map(ToString::to_string)
                .collect(),
        }),
        // Standalone shape: shard 0 of 1, empty address list.
        Reply::Welcome(Welcome {
            protocol: PROTOCOL_VERSION,
            server: "atscale-serve/test".to_string(),
            workers: 4,
            queue_capacity: 1024,
            shard: 0,
            shards: 1,
            topology: Vec::new(),
            architectures: vec!["baseline".to_string()],
        }),
        Reply::Accepted(Accepted {
            id: 9,
            total: 12,
            enqueued: 5,
            deduped: 7,
        }),
        Reply::Overloaded(Overloaded {
            id: 9,
            queued: 256,
            capacity: 256,
        }),
        Reply::Record({
            let record = record();
            RecordDone {
                id: 2,
                index: 1,
                cached: true,
                deduped: false,
                source: "sim".to_string(),
                arch: record.spec.arch.to_string(),
                record,
            }
        }),
        // The daemon splices its record frames: one built as it builds
        // them must decode, and re-encode to the same line.
        decode(
            std::str::from_utf8(&encode_record(
                5,
                2,
                false,
                true,
                atscale::ArchKind::Baseline,
                &serde_json::to_vec(&record()).unwrap(),
            ))
            .unwrap(),
        )
        .expect("a spliced record frame decodes"),
        Reply::Deadline(DeadlineExceeded {
            id: 2,
            index: 4,
            label: "cc-urand 16MB 4K".to_string(),
        }),
        Reply::Failed(JobFailed {
            id: 2,
            index: 3,
            label: "cc-urand 16MB 4K".to_string(),
            message: "injected fault: WorkerPanic mid-job".to_string(),
        }),
        Reply::BatchDone(BatchDone {
            id: 2,
            delivered: 10,
            expired: 2,
            failed: 1,
        }),
        Reply::Progress(ProgressEvent {
            id: 6,
            progress: Progress {
                completed: 3,
                total: 9,
                label: "bfs-urand 64MB 2M".to_string(),
                wall_ms: 41,
                cached: false,
            },
        }),
        Reply::Sample(SampleEvent {
            id: 6,
            run: "cc-urand 16MB 4K".to_string(),
            source: "sim".to_string(),
            sample: Sample {
                instr: 50_000,
                cycles: 220_000,
                counters: vec![("inst_retired.any".to_string(), 50_000)],
                rates: vec![("wcpi".to_string(), 0.125)],
            },
        }),
        Reply::ServerStats(ServerStatsReply {
            executions: 100,
            cache_hits: 40,
            dedup_hits: 63,
            overloaded: 2,
            expired: 1,
            failed: 1,
            queued: 5,
            running: 4,
            completed: 140,
            draining: true,
        }),
        Reply::QueryResult(QueryResult {
            count: 27,
            mean_wcpi: 0.21,
            p50_wcpi: 0.19,
            p99_wcpi: 0.74,
            beta: Some(0.31),
            intercept: Some(-1.2),
            groups: vec![GroupSummary {
                workload: "cc-urand".to_string(),
                footprint_mb: 64,
                source: "sim".to_string(),
                arch: "victima".to_string(),
                count: 9,
                mean_wcpi: 0.2,
                p50_wcpi: 0.18,
                p99_wcpi: 0.6,
            }],
        }),
        // `None` fit (fewer than two distinct footprints) must round-trip.
        Reply::QueryResult(QueryResult {
            count: 0,
            mean_wcpi: 0.0,
            p50_wcpi: 0.0,
            p99_wcpi: 0.0,
            beta: None,
            intercept: None,
            groups: Vec::new(),
        }),
        Reply::Compacted(CompactStats {
            segments_before: 4,
            segments_after: 1,
            live_rows: 351,
            dead_rows_dropped: 12,
            bytes_before: 90_000,
            bytes_after: 64_000,
        }),
        Reply::StoreSegStats(SegStats {
            segments: 3,
            segment_rows: 300,
            wal_rows: 51,
            live_rows: 339,
            dead_rows: 12,
            disk_bytes: 90_000,
            quarantined: 1,
            tmp_files: 2,
        }),
        Reply::Error(ErrorReply {
            id: 0,
            message: "bad frame".to_string(),
        }),
        Reply::ShuttingDown,
    ]
}

/// Round-trips a request (`Request` implements `PartialEq`).
fn roundtrip_request(frame: &Request) {
    let line = encode(frame);
    assert!(!line.contains('\n'), "frames are single lines: {line}");
    let back: Request = decode(&line).expect("decodes");
    assert_eq!(&back, frame, "{line}");
}

/// Round-trips a reply (no `PartialEq`: it may carry a `RunRecord`) by
/// comparing re-encoded bytes.
fn roundtrip_reply(frame: &Reply) {
    let line = encode(frame);
    assert!(!line.contains('\n'), "frames are single lines: {line}");
    let back: Reply = decode(&line).expect("decodes");
    assert_eq!(encode(&back), line);
}

/// Round-trips the request samples of one variant; there must be one.
fn roundtrip_requests(variant: fn(&Request) -> bool) {
    let samples: Vec<Request> = requests().into_iter().filter(variant).collect();
    assert!(!samples.is_empty(), "no sample of this variant");
    samples.iter().for_each(roundtrip_request);
}

/// Round-trips the reply samples of one variant; there must be one.
fn roundtrip_replies(variant: fn(&Reply) -> bool) {
    let samples: Vec<Reply> = replies().into_iter().filter(variant).collect();
    assert!(!samples.is_empty(), "no sample of this variant");
    samples.iter().for_each(roundtrip_reply);
}

#[test]
fn every_variant_has_a_roundtrip_sample() {
    let requests = requests();
    requests.iter().for_each(roundtrip_request);
    let (seen, count) = covered(&requests, request_variant);
    assert_eq!(
        seen,
        (0..count).collect::<Vec<_>>(),
        "requests with no sample"
    );
    let replies = replies();
    replies.iter().for_each(roundtrip_reply);
    let (seen, count) = covered(&replies, reply_variant);
    assert_eq!(
        seen,
        (0..count).collect::<Vec<_>>(),
        "replies with no sample"
    );
}

#[test]
fn request_hello_roundtrips() {
    roundtrip_requests(|f| matches!(f, Request::Hello(_)));
}

#[test]
fn request_submit_roundtrips() {
    roundtrip_requests(|f| matches!(f, Request::Submit(_)));
}

#[test]
fn request_server_stats_roundtrips() {
    roundtrip_requests(|f| matches!(f, Request::ServerStats));
}

#[test]
fn request_shutdown_roundtrips() {
    roundtrip_requests(|f| matches!(f, Request::Shutdown));
}

#[test]
fn request_query_roundtrips() {
    roundtrip_requests(|f| matches!(f, Request::Query(_)));
}

#[test]
fn request_compact_roundtrips() {
    roundtrip_requests(|f| matches!(f, Request::Compact));
}

#[test]
fn request_store_seg_stats_roundtrips() {
    roundtrip_requests(|f| matches!(f, Request::StoreSegStats));
}

#[test]
fn reply_welcome_roundtrips() {
    roundtrip_replies(|f| matches!(f, Reply::Welcome(_)));
}

#[test]
fn reply_accepted_roundtrips() {
    roundtrip_replies(|f| matches!(f, Reply::Accepted(_)));
}

#[test]
fn reply_overloaded_roundtrips() {
    roundtrip_replies(|f| matches!(f, Reply::Overloaded(_)));
}

#[test]
fn reply_record_roundtrips() {
    roundtrip_replies(|f| matches!(f, Reply::Record(_)));
    let frame = replies()
        .into_iter()
        .find(|f| matches!(f, Reply::Record(_)))
        .expect("a record sample");
    let encoded = encode(&frame);
    assert!(
        encoded.contains("\"source\":\"sim\""),
        "v4 record frames carry the provenance tag on the wire"
    );
    assert!(
        encoded.contains("\"arch\":\"baseline\""),
        "v7 record frames carry the architecture tag on the wire"
    );
}

#[test]
fn reply_deadline_roundtrips() {
    roundtrip_replies(|f| matches!(f, Reply::Deadline(_)));
}

#[test]
fn reply_failed_roundtrips() {
    roundtrip_replies(|f| matches!(f, Reply::Failed(_)));
}

#[test]
fn reply_batch_done_roundtrips() {
    roundtrip_replies(|f| matches!(f, Reply::BatchDone(_)));
}

#[test]
fn reply_progress_roundtrips() {
    roundtrip_replies(|f| matches!(f, Reply::Progress(_)));
}

#[test]
fn reply_sample_roundtrips() {
    roundtrip_replies(|f| matches!(f, Reply::Sample(_)));
}

#[test]
fn reply_server_stats_roundtrips() {
    roundtrip_replies(|f| matches!(f, Reply::ServerStats(_)));
}

#[test]
fn reply_query_result_roundtrips() {
    roundtrip_replies(|f| matches!(f, Reply::QueryResult(_)));
}

#[test]
fn reply_compacted_roundtrips() {
    roundtrip_replies(|f| matches!(f, Reply::Compacted(_)));
}

#[test]
fn reply_store_seg_stats_roundtrips() {
    roundtrip_replies(|f| matches!(f, Reply::StoreSegStats(_)));
}

#[test]
fn reply_error_roundtrips() {
    roundtrip_replies(|f| matches!(f, Reply::Error(_)));
}

#[test]
fn reply_shutting_down_roundtrips() {
    roundtrip_replies(|f| matches!(f, Reply::ShuttingDown));
}
