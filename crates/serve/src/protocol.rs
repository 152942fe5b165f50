//! The wire protocol: newline-delimited JSON frames.
//!
//! Every frame is one JSON object (or bare string for unit requests) on one
//! line. Requests flow client → server, replies flow back; a connection
//! carries any number of requests, and replies to a submission are
//! *streamed*: `Accepted` first, then per spec as each completes — its
//! interval samples when the submission asked for them, its record (or a
//! deadline/failure frame), a progress event — closed by a batch-done
//! frame. Frames for concurrent requests on one connection are correlated
//! by the client-chosen request `id`.
//!
//! The enums serialize externally tagged (`{"Submit": {...}}`), matching
//! the vendored serde derive; every variant must round-trip.
//! `tests/protocol_roundtrip.rs` maps its samples to variants through an
//! exhaustive `match`, so a new variant does not compile there until it has
//! an arm, and fails the test until it has a sample.

use atscale::{ArchKind, RunRecord, RunSpec};
use atscale_telemetry::{Progress, Sample};
use serde::{Deserialize, Serialize};

pub use atscale::results::{CompactStats, GroupSummary, QueryFilter, QueryResult, SegStats};

/// Protocol revision carried in the hello/welcome handshake. Bump on any
/// frame-shape change.
///
/// v4: [`RecordDone`] and [`SampleEvent`] carry the telemetry schema-v3
/// `source` tag, always `"sim"`: the daemon only serves simulated runs.
/// The field stays on the wire until a format bump with another reason
/// to happen folds it away. The vendored
/// serde derive has no field defaulting, so v3 frames do not decode —
/// client and server are co-versioned in this repository and the handshake
/// rejects mismatches explicitly.
///
/// v5: results-plane verbs. [`Request::Query`] answers aggregate
/// statistics (count, mean/p50/p99 WCPI, fitted β/c) from a scan of the
/// segment store's live hot-column rows;
/// [`Request::Compact`] rewrites the store to its live rows;
/// [`Request::StoreSegStats`] reports segment-store occupancy. All three
/// answer [`Reply::Error`] on a store-less server.
///
/// v6: sharded topology in the handshake. [`Welcome`] carries the
/// answering daemon's shard index (`shard`), the topology size
/// (`shards`), and the full address list in shard order (`topology`), so
/// a client connecting to *any* member discovers the whole topology and
/// routes each spec to the shard that owns its record hash (see
/// [`crate::router::ShardMap`]). A standalone daemon answers
/// `shard = 0, shards = 1` with an empty address list. Routing is
/// advisory on the wire — a daemon executes whatever it is sent — but
/// the sharded client routes every spec, which is what keeps
/// single-flight dedup and the record cache exact per shard.
///
/// v7: the translation-architecture axis. [`Welcome`] lists the
/// architectures the server can simulate (`architectures`); submitted
/// [`RunSpec`]s carry an `arch` field (omitted when baseline, so v6-era
/// spec JSON still decodes); [`RecordDone`] echoes the resolved spec's
/// architecture (`arch`); [`QueryFilter`] accepts an `arch` restriction
/// and [`GroupSummary`] reports each group's architecture, making the
/// fig1-style β/c fit queryable per architecture.
///
/// v8: one occupancy verb. The run-cache occupancy request and its
/// reply are gone; [`Request::StoreSegStats`] is the store's only
/// occupancy report, and [`SegStats`] gained the `tmp_files` count only
/// the old reply carried. Every store verb now answers [`Reply::Error`] on
/// a store-less daemon, where the old verb answered zeros.
///
/// v9: the results plane groups by page size. [`QueryFilter`] and
/// [`GroupSummary`] carry `page_size` (`4K` / `2M` / `1G`) where they
/// carried the constant `source`, so a filter pinning `4K` fits the
/// paper's per-page-size scaling law instead of pooling the baseline
/// runs. [`RecordDone`] and [`SampleEvent`] keep their `source` tag.
pub const PROTOCOL_VERSION: u64 = 9;

/// Client → server handshake: announces the client's protocol revision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hello {
    /// The client's [`PROTOCOL_VERSION`].
    pub protocol: u64,
}

/// Client → server: submit a batch of runs ([`atscale::Harness::run_many`]
/// semantics over the wire — records stream back as they finish, labelled
/// with their spec index, so the client can reassemble input order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Submit {
    /// Client-chosen correlation id echoed on every reply frame.
    pub id: u64,
    /// The specs to run; a single run is a batch of one.
    pub specs: Vec<RunSpec>,
    /// Per-request deadline, milliseconds from admission. Runs completing
    /// after it yield [`DeadlineExceeded`] frames instead of records.
    pub deadline_ms: Option<u64>,
    /// Bypass the run cache (forces fresh execution; the record is still
    /// written back to the store unless the server runs cache-less).
    pub no_cache: bool,
    /// Interval-sampling cadence in retired instructions (0 = no sample
    /// stream). Each delivered record's series streams back just before
    /// it, as [`SampleEvent`] frames.
    pub sample_interval: u64,
}

/// All client → server frames.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Handshake; the server answers with [`Reply::Welcome`].
    Hello(Hello),
    /// Batch submission; answered by `Accepted` or `Overloaded`, then a
    /// reply stream closed by `BatchDone`.
    Submit(Submit),
    /// Scheduler counters; answered by [`Reply::ServerStats`].
    ServerStats,
    /// Aggregate query over the segment-backed results store; answered by
    /// [`Reply::QueryResult`], or [`Reply::Error`] when the server has no
    /// segment store (v5).
    Query(QueryFilter),
    /// Compact the segment-backed results store down to its live rows;
    /// answered by [`Reply::Compacted`], or [`Reply::Error`] when the
    /// server has no segment store (v5).
    Compact,
    /// Segment-store occupancy; answered by [`Reply::StoreSegStats`], or
    /// [`Reply::Error`] when the server has no segment store (v5).
    StoreSegStats,
    /// Graceful shutdown: drain in-flight jobs, reject new submissions,
    /// exit 0. Answered by [`Reply::ShuttingDown`].
    Shutdown,
}

/// Server → client handshake answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Welcome {
    /// The server's [`PROTOCOL_VERSION`].
    pub protocol: u64,
    /// Server identity string (name/version).
    pub server: String,
    /// Number of worker threads executing runs.
    pub workers: u64,
    /// Admission-queue capacity in unique jobs. Batches whose fresh-job
    /// count would overflow it are rejected `Overloaded`, so clients
    /// submitting more specs than this must chunk
    /// ([`crate::ShardedClient::run_chunked`] does).
    pub queue_capacity: u64,
    /// This daemon's shard index within its topology (v6; 0 standalone).
    pub shard: u64,
    /// Total shard count in the topology (v6; 1 standalone).
    pub shards: u64,
    /// Every shard's client-reachable address, in shard-index order (v6;
    /// empty standalone). Lets a client that connected to any one member
    /// build the full routing table.
    pub topology: Vec<String>,
    /// Translation architectures this server can simulate, in
    /// [`atscale::ArchKind::ALL`] order (v7).
    pub architectures: Vec<String>,
}

/// A submission passed admission control.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Accepted {
    /// Correlation id of the [`Submit`].
    pub id: u64,
    /// Specs in the batch.
    pub total: u64,
    /// Fresh jobs this submission enqueued.
    pub enqueued: u64,
    /// Specs coalesced onto already-queued/running identical jobs
    /// (single-flight dedup) or duplicated within the batch itself.
    pub deduped: u64,
}

/// A submission was rejected because the admission queue is full. The
/// whole batch is rejected atomically — nothing was enqueued.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Overloaded {
    /// Correlation id of the [`Submit`].
    pub id: u64,
    /// Jobs currently queued (excludes running jobs).
    pub queued: u64,
    /// The admission queue's capacity.
    pub capacity: u64,
}

/// One spec of a batch finished; `record` carries the full measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecordDone {
    /// Correlation id of the [`Submit`].
    pub id: u64,
    /// Index of this spec in the submitted batch (records stream in
    /// completion order; reassemble by index).
    pub index: u64,
    /// `true` if served from the on-disk run cache.
    pub cached: bool,
    /// `true` if this subscription coalesced onto a job another request
    /// (or another spec of this batch) put in flight.
    pub deduped: bool,
    /// Measurement provenance (telemetry schema v3): `"sim"` for records
    /// the daemon executed or served from its cache.
    pub source: String,
    /// Translation architecture the record was measured on (v7) —
    /// echoes the resolved spec's `arch` label.
    pub arch: String,
    /// The completed run.
    pub record: RunRecord,
}

/// A spec's result arrived after the request's deadline; the record is
/// withheld (it still lands in the cache for future requests).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeadlineExceeded {
    /// Correlation id of the [`Submit`].
    pub id: u64,
    /// Index of the expired spec in the submitted batch.
    pub index: u64,
    /// Human label of the expired spec.
    pub label: String,
}

/// A spec's job failed server-side — its worker panicked mid-run and the
/// panic was contained ([`crate::Scheduler`]'s `catch_unwind` layer). The
/// spec gets no record; resubmitting is safe and will re-execute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobFailed {
    /// Correlation id of the [`Submit`].
    pub id: u64,
    /// Index of the failed spec in the submitted batch.
    pub index: u64,
    /// Human label of the failed spec.
    pub label: String,
    /// The contained panic's message.
    pub message: String,
}

/// Every spec of a batch has been resolved (record, deadline, or failure).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchDone {
    /// Correlation id of the [`Submit`].
    pub id: u64,
    /// Records delivered.
    pub delivered: u64,
    /// Specs that missed their deadline.
    pub expired: u64,
    /// Specs whose jobs failed (contained worker panics).
    pub failed: u64,
}

/// A streamed sweep-progress event (one per resolved spec, mirroring the
/// harness's `run_many` progress stream).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgressEvent {
    /// Correlation id of the [`Submit`].
    pub id: u64,
    /// The progress payload (PR 2 telemetry schema).
    pub progress: Progress,
}

/// One interval sample of a delivered record, replayed from the record
/// in series order just before its [`RecordDone`] frame, for a submission
/// that set [`Submit::sample_interval`]. Cached, fresh and `no_cache`
/// records stream alike.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleEvent {
    /// Correlation id of the [`Submit`].
    pub id: u64,
    /// Label of the run the sample belongs to.
    pub run: String,
    /// Measurement provenance (telemetry schema v3): always `"sim"`.
    pub source: String,
    /// The sample payload (PR 2 telemetry schema).
    pub sample: Sample,
}

/// Scheduler/serving counters, for operators and the single-flight tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStatsReply {
    /// Fresh harness executions (cache hits and dedup subscriptions
    /// excluded) — the single-flight proof counter.
    pub executions: u64,
    /// Runs answered from the on-disk cache.
    pub cache_hits: u64,
    /// Specs coalesced onto in-flight identical jobs.
    pub dedup_hits: u64,
    /// Submissions rejected by admission control.
    pub overloaded: u64,
    /// Specs resolved past their deadline.
    pub expired: u64,
    /// Jobs that failed via contained worker panics.
    pub failed: u64,
    /// Jobs currently queued.
    pub queued: u64,
    /// Jobs currently executing.
    pub running: u64,
    /// Jobs fully resolved since startup.
    pub completed: u64,
    /// `true` once a shutdown has been requested.
    pub draining: bool,
}

/// A request failed server-side (bad frame, unknown workload, …). The
/// connection stays open.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorReply {
    /// Correlation id, when the failing request carried one (0 otherwise).
    pub id: u64,
    /// Human-readable description.
    pub message: String,
}

/// All server → client frames.
// `Record` dominates the size because `RunRecord` carries full counter
// state; boxing it is not an option (the vendored serde derive has no
// `Box<T>` impl), and reply frames are transient stack values.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Reply {
    /// Handshake answer.
    Welcome(Welcome),
    /// Submission admitted.
    Accepted(Accepted),
    /// Submission rejected: queue full. Explicit, never a hang.
    Overloaded(Overloaded),
    /// One spec resolved with a record.
    Record(RecordDone),
    /// One spec resolved past its deadline.
    Deadline(DeadlineExceeded),
    /// One spec's job failed (contained worker panic); no record follows.
    Failed(JobFailed),
    /// Batch fully resolved.
    BatchDone(BatchDone),
    /// Streamed progress.
    Progress(ProgressEvent),
    /// Streamed interval sample.
    Sample(SampleEvent),
    /// Scheduler counters.
    ServerStats(ServerStatsReply),
    /// Aggregate answer to a [`Request::Query`] (v5).
    QueryResult(QueryResult),
    /// What a [`Request::Compact`] did (v5).
    Compacted(CompactStats),
    /// Segment-store occupancy ([`atscale::RunStore::seg_stats`] over the
    /// wire, v5).
    StoreSegStats(SegStats),
    /// Request failed; connection stays usable.
    Error(ErrorReply),
    /// Shutdown acknowledged; the server drains and exits.
    ShuttingDown,
}

/// Encodes one frame as a JSON line (no trailing newline).
pub fn encode<T: Serialize>(frame: &T) -> String {
    serde_json::to_string(frame).expect("protocol frames serialize")
}

/// Encodes a [`Reply::Record`] frame around a record's JSON as the run
/// store holds it, `serde_json::to_vec` of a [`RunRecord`]: the frame's
/// fixed fields are written here and `record` is copied in unparsed, so a
/// cache hit is never parsed or serialised again. The vendored
/// `serde_json` has no `RawValue`, hence the hand-written prefix; it is
/// [`RecordDone`]'s fields in declaration order, and the result is
/// byte-identical to [`encode`] of the typed frame (pinned for every record
/// of the test sweep on every architecture by `tests/raw_hits.rs`).
pub fn encode_record(
    id: u64,
    index: u64,
    cached: bool,
    deduped: bool,
    arch: ArchKind,
    record: &[u8],
) -> Vec<u8> {
    let head = format!(
        "{{\"Record\":{{\"id\":{id},\"index\":{index},\"cached\":{cached},\
         \"deduped\":{deduped},\"source\":\"sim\",\"arch\":\"{arch}\",\"record\":"
    );
    let mut frame = Vec::with_capacity(head.len() + record.len() + 2);
    frame.extend_from_slice(head.as_bytes());
    frame.extend_from_slice(record);
    frame.extend_from_slice(b"}}");
    frame
}

/// Most bytes of a bad line, and of its parse error, that [`decode`]'s
/// error message quotes: a reply to one bad line stays small however long
/// the line was.
const ECHO_BYTES: usize = 128;

/// Decodes one JSON line into a frame.
///
/// # Errors
///
/// Returns a human-readable description when the line is not valid JSON or
/// not a known frame; it quotes at most `ECHO_BYTES` of the line and of
/// the parse error.
pub fn decode<T: Deserialize>(line: &str) -> Result<T, String> {
    serde_json::from_str(line).map_err(|e| {
        format!(
            "bad frame {:?} ({} bytes): {}",
            clip(line),
            line.len(),
            clip(&e.to_string())
        )
    })
}

/// The longest prefix of `s` of at most [`ECHO_BYTES`] bytes that ends on
/// a character boundary.
fn clip(s: &str) -> &str {
    let mut end = s.len().min(ECHO_BYTES);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    s.get(..end).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_single_lines() {
        let frame = Request::Submit(Submit {
            id: 7,
            specs: Vec::new(),
            deadline_ms: Some(250),
            no_cache: true,
            sample_interval: 10_000,
        });
        let line = encode(&frame);
        assert!(!line.contains('\n'));
        assert_eq!(decode::<Request>(&line).unwrap(), frame);
    }

    #[test]
    fn unit_requests_decode_from_bare_strings() {
        assert_eq!(
            decode::<Request>("\"Shutdown\"").unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            decode::<Request>(&encode(&Request::StoreSegStats)).unwrap(),
            Request::StoreSegStats
        );
    }

    #[test]
    fn junk_lines_are_rejected_with_context() {
        let err = decode::<Request>("{not json").unwrap_err();
        assert!(err.contains("bad frame"));
        let err = decode::<Request>("{\"Nope\":1}").unwrap_err();
        assert!(err.contains("Nope") || err.contains("variant"), "{err}");
    }

    #[test]
    fn bad_frames_echo_a_bounded_prefix() {
        // The parse error would quote the whole string back, too.
        let line = format!("\"{}\"", "é".repeat(100_000));
        let err = decode::<Request>(&line).unwrap_err();
        assert!(err.len() < 3 * ECHO_BYTES, "{} bytes", err.len());
        assert!(err.contains("(200002 bytes)"), "{err}");
        // Valid JSON of the wrong shape: a 1 MiB string where `id` wants a
        // number. The shape error itself is bounded where it is built.
        let line = format!("{{\"Submit\":{{\"id\":\"{}\"}}}}", "x".repeat(1 << 20));
        let err = decode::<Request>(&line).unwrap_err();
        assert!(err.len() < 3 * ECHO_BYTES, "{} bytes", err.len());
        assert!(err.contains("expected u64, found Str(\"xxx"), "{err}");
        let err = decode::<Request>(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
    }
}
