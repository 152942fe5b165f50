//! The blocking client: connect, submit, stream the reply frames.
//!
//! One [`Client`] is one connection: it sends one batch or one verb and
//! reads the reply, and never retries. Submissions stream back
//! `Accepted` → (`Sample` | `Progress` | `Record` | `Deadline` |
//! `Failed`)* → `BatchDone`, which [`Client::run_many`] folds back into
//! the harness's `run_many` contract: records in spec order.
//!
//! [`ShardedClient`] is the one retry loop: it splits a batch into chunks
//! each shard's admission queue can hold and, under a [`RetryPolicy`],
//! resubmits a chunk the server rejected `Overloaded` or whose connection
//! dropped. Everything else — protocol breaks, server errors, failed
//! jobs — surfaces at once as an explicit error, never a hang.

use crate::protocol::{
    self, CompactStats, Hello, Overloaded, QueryFilter, QueryResult, Reply, Request, SegStats,
    ServerStatsReply, Submit, Welcome, PROTOCOL_VERSION,
};
use crate::router::ShardMap;
use atscale::{RunRecord, RunSpec};
use atscale_mmu::MachineConfig;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// How [`ShardedClient::run_chunked`] retries a chunk: capped exponential
/// backoff with deterministic jitter derived from `jitter_seed` (the
/// chaos suite seeds it from the fault plan, so a replayed seed
/// reproduces the exact retry cadence), within one attempt budget per
/// chunk. Two failures share that budget: `Overloaded` (the chunk was
/// rejected atomically, nothing enqueued) and a dropped connection
/// (re-dialled; the resubmitted chunk replays byte-identically because
/// execution is deterministic and cache-first). Failed jobs and missed
/// deadlines are surfaced, not retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per chunk (first try included) before the last
    /// failure is surfaced.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter (each backoff lands in
    /// `[cap/2, cap)` of its exponential step).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 64,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            jitter_seed: 0x5eed_0000_5eed_0000,
        }
    }
}

impl RetryPolicy {
    /// The pause before retry number `attempt` (0-based): exponential
    /// from `base_backoff`, capped at `max_backoff`, jittered
    /// deterministically into `[cap/2, cap)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let doublings = attempt.min(16);
        let cap = self
            .base_backoff
            .saturating_mul(1u32 << doublings)
            .min(self.max_backoff);
        let nanos = u64::try_from(cap.as_nanos()).unwrap_or(u64::MAX);
        if nanos < 2 {
            return cap;
        }
        let z = atscale::gen::splitmix64(
            self.jitter_seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        Duration::from_nanos(nanos / 2 + ((nanos / 2) as f64 * unit) as u64)
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or dropped mid-stream.
    Io(std::io::Error),
    /// The server sent something outside the protocol.
    Protocol(String),
    /// The submission was rejected by admission control — back off and
    /// retry, the server is explicitly telling you it is full.
    Overloaded(Overloaded),
    /// The server reported a request error (draining, bad batch, …).
    Server(String),
    /// Some specs resolved past the request deadline; their batch indices
    /// are listed.
    Expired(Vec<u64>),
    /// Some specs' jobs failed server-side (contained worker panics);
    /// `(batch index, panic message)` per failed spec. Resubmitting is
    /// safe and will re-execute.
    Failed(Vec<(u64, String)>),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Overloaded(o) => write!(
                f,
                "server overloaded ({}/{} jobs queued)",
                o.queued, o.capacity
            ),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Expired(idx) => write!(f, "{} spec(s) missed the deadline", idx.len()),
            ClientError::Failed(jobs) => write!(
                f,
                "{} spec(s) failed server-side (first: {})",
                jobs.len(),
                jobs.first().map_or("", |(_, m)| m.as_str())
            ),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Per-submission options.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Deadline in milliseconds from admission (`None` = no deadline).
    pub deadline_ms: Option<u64>,
    /// Bypass the server's run cache.
    pub no_cache: bool,
    /// Interval-sampling cadence (0 = no sample stream).
    pub sample_interval: u64,
}

/// The connection's socket, kept for deadline control (the boxed
/// reader/writer halves cannot reach `set_read_timeout` through the trait
/// object).
enum Socket {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

/// A blocking connection to an `atscale-serve` daemon.
pub struct Client {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
    next_id: u64,
    /// The server's admission-queue capacity, learned from the `Welcome`
    /// handshake (0 until [`Client::hello`] has run). Sizes
    /// [`ShardedClient::run_chunked`] chunks.
    server_capacity: u64,
    /// Socket handle for [`Client::set_read_timeout`].
    socket: Socket,
    /// Fault plan driving the `ClientWrite`/`ClientRead`/`ClientStall`
    /// sites (chaos machinery).
    #[cfg(feature = "faults")]
    faults: Option<std::sync::Arc<atscale_faults::FaultPlan>>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("next_id", &self.next_id)
            .field("server_capacity", &self.server_capacity)
            .finish_non_exhaustive()
    }
}

impl Client {
    /// Connects to `target`: `unix:<path>` for a Unix socket, anything
    /// else as a TCP `host:port`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the connection cannot be established.
    pub fn connect(target: &str) -> std::io::Result<Client> {
        match target.strip_prefix("unix:") {
            Some(path) => Self::connect_unix(Path::new(path)),
            None => Self::connect_tcp(target),
        }
    }

    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the connection cannot be established.
    pub fn connect_tcp(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Frames are small and latency-bound; Nagle would add ~40 ms per
        // round-trip.
        stream.set_nodelay(true)?;
        Self::from_socket(Socket::Tcp(stream))
    }

    /// Connects over a Unix socket.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the connection cannot be established (or
    /// always, on non-Unix platforms).
    pub fn connect_unix(path: &Path) -> std::io::Result<Client> {
        #[cfg(unix)]
        {
            Self::from_socket(Socket::Unix(UnixStream::connect(path)?))
        }
        #[cfg(not(unix))]
        {
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                format!("unix sockets unavailable: {}", path.display()),
            ))
        }
    }

    /// A client on `socket`, reading and writing through clones of it.
    fn from_socket(socket: Socket) -> std::io::Result<Client> {
        let (read, write): (Box<dyn Read + Send>, Box<dyn Write + Send>) = match &socket {
            Socket::Tcp(s) => (Box::new(s.try_clone()?), Box::new(s.try_clone()?)),
            #[cfg(unix)]
            Socket::Unix(s) => (Box::new(s.try_clone()?), Box::new(s.try_clone()?)),
        };
        Ok(Client {
            reader: BufReader::new(read),
            writer: write,
            next_id: 1,
            server_capacity: 0,
            socket,
            #[cfg(feature = "faults")]
            faults: None,
        })
    }

    /// Attaches a fault-injection plan: subsequent socket traffic routes
    /// through the plan's `ClientWrite`/`ClientRead`/`ClientStall` sites.
    /// Chaos-test machinery.
    #[cfg(feature = "faults")]
    #[must_use]
    pub fn with_fault_plan(mut self, plan: std::sync::Arc<atscale_faults::FaultPlan>) -> Client {
        self.faults = Some(plan);
        self
    }

    /// Bounds how long any single reply read may block. With a timeout
    /// set, a stalled or dead-but-connected server surfaces as an
    /// explicit [`ClientError::Io`] instead of hanging the call forever.
    ///
    /// # Errors
    ///
    /// Fails with the socket's error.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match &self.socket {
            Socket::Tcp(stream) => stream.set_read_timeout(timeout),
            #[cfg(unix)]
            Socket::Unix(stream) => stream.set_read_timeout(timeout),
        }
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        #[cfg(feature = "faults")]
        if let Some(plan) = &self.faults {
            use atscale_faults::FaultSite;
            if plan.check(FaultSite::ClientWrite).is_some() {
                return Err(ClientError::Io(atscale_faults::injected_io_error(
                    FaultSite::ClientWrite,
                )));
            }
        }
        let mut line = protocol::encode(request);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    fn read_reply(&mut self) -> Result<Reply, ClientError> {
        #[cfg(feature = "faults")]
        if let Some(plan) = &self.faults {
            use atscale_faults::FaultSite;
            if let Some(rule) = plan.check(FaultSite::ClientStall) {
                std::thread::sleep(Duration::from_millis(rule.stall_ms));
            }
            if plan.check(FaultSite::ClientRead).is_some() {
                return Err(ClientError::Io(atscale_faults::injected_io_error(
                    FaultSite::ClientRead,
                )));
            }
        }
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(ClientError::Protocol(
                    "server closed the connection".to_string(),
                ));
            }
            if !line.trim().is_empty() {
                return protocol::decode(line.trim()).map_err(ClientError::Protocol);
            }
        }
    }

    /// One verb: sends `request` and reads its single reply, turning
    /// `Reply::Error` into [`ClientError::Server`].
    fn call(&mut self, request: &Request) -> Result<Reply, ClientError> {
        self.send(request)?;
        match self.read_reply()? {
            Reply::Error(e) => Err(ClientError::Server(e.message)),
            reply => Ok(reply),
        }
    }

    /// Performs the hello handshake.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, protocol mismatch, or an unexpected reply.
    pub fn hello(&mut self) -> Result<Welcome, ClientError> {
        let hello = Request::Hello(Hello {
            protocol: PROTOCOL_VERSION,
        });
        match self.call(&hello)? {
            Reply::Welcome(w) => {
                self.server_capacity = w.queue_capacity;
                Ok(w)
            }
            other => Err(unexpected("Welcome", &other)),
        }
    }

    /// The server's advertised admission-queue capacity (`None` before
    /// [`Client::hello`]).
    pub fn server_capacity(&self) -> Option<u64> {
        (self.server_capacity > 0).then_some(self.server_capacity)
    }

    /// Submits a batch and blocks until every spec resolves, returning
    /// records in spec order — `Harness::run_many` over the wire. The
    /// batch is one admission: it must fit the server's queue, or use
    /// [`ShardedClient::run_chunked`].
    ///
    /// # Errors
    ///
    /// Fails on rejection ([`ClientError::Overloaded`] /
    /// [`ClientError::Server`]), connection loss, or missed deadlines.
    pub fn run_many(
        &mut self,
        specs: &[RunSpec],
        opts: SubmitOptions,
    ) -> Result<Vec<RunRecord>, ClientError> {
        self.run_many_with(specs, opts, |_| {})
    }

    /// [`Client::run_many`] with a frame observer: every streamed reply
    /// (samples, progress, records) passes through `on_event` before the
    /// records are reassembled.
    ///
    /// # Errors
    ///
    /// As [`Client::run_many`].
    pub fn run_many_with(
        &mut self,
        specs: &[RunSpec],
        opts: SubmitOptions,
        mut on_event: impl FnMut(&Reply),
    ) -> Result<Vec<RunRecord>, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Request::Submit(Submit {
            id,
            specs: specs.to_vec(),
            deadline_ms: opts.deadline_ms,
            no_cache: opts.no_cache,
            sample_interval: opts.sample_interval,
        }))?;
        let mut slots: Vec<Option<RunRecord>> = vec![None; specs.len()];
        let mut expired: Vec<u64> = Vec::new();
        let mut failed: Vec<(u64, String)> = Vec::new();
        loop {
            let reply = self.read_reply()?;
            on_event(&reply);
            match reply {
                Reply::Accepted(a) if a.id == id => {}
                Reply::Overloaded(o) if o.id == id => return Err(ClientError::Overloaded(o)),
                Reply::Error(e) if e.id == id => return Err(ClientError::Server(e.message)),
                Reply::Record(r) if r.id == id => {
                    let index = usize::try_from(r.index)
                        .map_err(|_| ClientError::Protocol("index overflow".to_string()))?;
                    let slot = slots.get_mut(index).ok_or_else(|| {
                        ClientError::Protocol(format!("record index {index} out of range"))
                    })?;
                    *slot = Some(r.record);
                }
                Reply::Deadline(d) if d.id == id => expired.push(d.index),
                // Collected, not returned: the stream must drain to
                // `BatchDone` so the connection stays clean for the next
                // request.
                Reply::Failed(fail) if fail.id == id => failed.push((fail.index, fail.message)),
                Reply::BatchDone(b) if b.id == id => break,
                Reply::Sample(_) | Reply::Progress(_) => {}
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected frame mid-batch: {other:?}"
                    )))
                }
            }
        }
        if !failed.is_empty() {
            failed.sort_unstable_by_key(|(index, _)| *index);
            return Err(ClientError::Failed(failed));
        }
        if !expired.is_empty() {
            expired.sort_unstable();
            return Err(ClientError::Expired(expired));
        }
        slots
            .into_iter()
            .map(|s| {
                s.ok_or_else(|| ClientError::Protocol("batch done with missing record".to_string()))
            })
            .collect()
    }

    /// Fetches the scheduler's counters.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or an unexpected reply.
    pub fn server_stats(&mut self) -> Result<ServerStatsReply, ClientError> {
        match self.call(&Request::ServerStats)? {
            Reply::ServerStats(s) => Ok(s),
            other => Err(unexpected("ServerStats", &other)),
        }
    }

    /// Runs an aggregate query against the server's segment-backed results
    /// store: count, mean/p50/p99 WCPI, and the fitted β/c over the
    /// matching runs — the server scans its store's live hot-column rows,
    /// never replaying record JSON.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, an unexpected reply, or
    /// [`ClientError::Server`] when the server has no segment store.
    pub fn query(&mut self, filter: &QueryFilter) -> Result<QueryResult, ClientError> {
        match self.call(&Request::Query(filter.clone()))? {
            Reply::QueryResult(r) => Ok(r),
            other => Err(unexpected("QueryResult", &other)),
        }
    }

    /// Compacts the server's segment-backed results store down to its live
    /// rows.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, an unexpected reply, or
    /// [`ClientError::Server`] when the server has no segment store or the
    /// compaction itself failed.
    pub fn compact(&mut self) -> Result<CompactStats, ClientError> {
        match self.call(&Request::Compact)? {
            Reply::Compacted(stats) => Ok(stats),
            other => Err(unexpected("Compacted", &other)),
        }
    }

    /// Fetches the server's segment-store occupancy.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, an unexpected reply, or
    /// [`ClientError::Server`] when the server has no segment store.
    pub fn seg_stats(&mut self) -> Result<SegStats, ClientError> {
        match self.call(&Request::StoreSegStats)? {
            Reply::StoreSegStats(stats) => Ok(stats),
            other => Err(unexpected("StoreSegStats", &other)),
        }
    }

    /// Requests graceful shutdown; the server acknowledges, drains, and
    /// exits.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or an unexpected reply.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Reply::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

/// The [`ClientError::Protocol`] for a verb answered with the wrong frame.
fn unexpected(expected: &str, got: &Reply) -> ClientError {
    ClientError::Protocol(format!("expected {expected}, got {got:?}"))
}

/// A topology-aware client: one persistent framed connection per shard,
/// every spec routed to the shard that owns its record hash, and the one
/// place that chunks, backs off and re-dials.
///
/// Connect to *any* member of a topology; the v6 `Welcome` advertises the
/// full address list, and every subsequent batch is partitioned by
/// [`ShardMap`] over [`atscale::RunStore::key_hash`] — the same function
/// that names the record in each shard's store, so single-flight dedup
/// and the record cache stay exact per shard. Connections persist across
/// [`ShardedClient::run_chunked`] calls (no reconnect per chunk); a
/// dropped connection is re-dialled under the [`RetryPolicy`] and only
/// the interrupted chunk is resubmitted, which is safe because execution
/// is deterministic and cache-first — a replayed chunk returns
/// byte-identical records.
///
/// A standalone (pre-topology) daemon is a one-shard topology: exactly
/// one connection and no routing.
pub struct ShardedClient {
    /// Every shard's address, in shard-index order.
    topology: Vec<String>,
    map: ShardMap,
    /// Lazily-dialled persistent connection per shard.
    conns: Vec<Option<Client>>,
    retry: RetryPolicy,
    /// The machine keys are computed against: the daemons', which is
    /// always `ServeConfig`'s default, Haswell.
    machine: MachineConfig,
    #[cfg(feature = "faults")]
    faults: Option<std::sync::Arc<atscale_faults::FaultPlan>>,
}

impl std::fmt::Debug for ShardedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedClient")
            .field("topology", &self.topology)
            .finish_non_exhaustive()
    }
}

impl ShardedClient {
    /// Connects to one member of a topology and discovers the rest from
    /// its `Welcome`.
    ///
    /// # Errors
    ///
    /// Fails on connection or handshake errors against the seed address.
    pub fn connect(seed: &str) -> Result<ShardedClient, ClientError> {
        let mut first = Client::connect(seed)?;
        let welcome = first.hello()?;
        let topology = if welcome.topology.is_empty() {
            vec![seed.to_string()]
        } else {
            welcome.topology.clone()
        };
        let mut conns: Vec<Option<Client>> = Vec::new();
        conns.resize_with(topology.len(), || None);
        // Keep the seed connection in its shard's slot instead of
        // dialling it twice.
        if let Some(slot) = usize::try_from(welcome.shard)
            .ok()
            .and_then(|i| conns.get_mut(i))
        {
            *slot = Some(first);
        }
        Ok(ShardedClient {
            map: ShardMap::new(topology.len()),
            topology,
            conns,
            retry: RetryPolicy::default(),
            machine: MachineConfig::haswell(),
            #[cfg(feature = "faults")]
            faults: None,
        })
    }

    /// Replaces the retry policy: one attempt budget per chunk, shared by
    /// `Overloaded` backoff and reconnect-on-drop.
    #[must_use]
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> ShardedClient {
        self.retry = policy;
        self
    }

    /// Attaches a fault-injection plan to every per-shard connection, the
    /// seed connection included (chaos machinery).
    #[cfg(feature = "faults")]
    #[must_use]
    pub fn with_fault_plan(
        mut self,
        plan: std::sync::Arc<atscale_faults::FaultPlan>,
    ) -> ShardedClient {
        for slot in &mut self.conns {
            *slot = slot
                .take()
                .map(|conn| conn.with_fault_plan(std::sync::Arc::clone(&plan)));
        }
        self.faults = Some(plan);
        self
    }

    /// The topology size.
    pub fn shards(&self) -> usize {
        self.topology.len()
    }

    /// Every shard's address in shard order.
    pub fn topology(&self) -> &[String] {
        &self.topology
    }

    /// The persistent connection to `shard`, dialling (and handshaking)
    /// it on first use or after a drop.
    fn ensure_conn(&mut self, shard: usize) -> Result<&mut Client, ClientError> {
        let (Some(addr), Some(slot)) = (self.topology.get(shard), self.conns.get_mut(shard)) else {
            return Err(ClientError::Protocol(format!(
                "shard {shard} outside topology"
            )));
        };
        let client = match slot.take() {
            Some(client) => client,
            None => {
                #[allow(unused_mut)]
                let mut client = Client::connect(addr)?;
                #[cfg(feature = "faults")]
                if let Some(plan) = &self.faults {
                    client = client.with_fault_plan(std::sync::Arc::clone(plan));
                }
                client.hello()?;
                client
            }
        };
        Ok(slot.insert(client))
    }

    /// The seed shard's advertised admission capacity, dialling it if no
    /// connection is up yet. `None` when the topology is unreachable.
    pub fn server_capacity(&mut self) -> Option<u64> {
        self.ensure_conn(0).ok().and_then(|c| c.server_capacity())
    }

    /// [`Client::run_many`] for batches of any size, across the topology:
    /// specs partitioned by owning shard, each partition submitted in
    /// chunks of half that shard's advertised queue capacity on its
    /// persistent connection, records reassembled into spec order. A
    /// `deadline_ms` applies per chunk, from that chunk's admission.
    ///
    /// # Errors
    ///
    /// As [`Client::run_many`], except that `Overloaded` and connection
    /// drops surface only once a chunk has spent the [`RetryPolicy`]'s
    /// attempt budget, and `Expired`/`Failed` indices refer to the
    /// original batch.
    pub fn run_chunked(
        &mut self,
        specs: &[RunSpec],
        opts: SubmitOptions,
    ) -> Result<Vec<RunRecord>, ClientError> {
        self.run_chunked_with(specs, opts, |_| {})
    }

    /// [`ShardedClient::run_chunked`] with a frame observer, as
    /// [`Client::run_many_with`] — streamed `Sample`/`Progress` frames
    /// from every shard pass through the one observer (in shard order,
    /// since partitions run sequentially on this thread).
    ///
    /// # Errors
    ///
    /// As [`ShardedClient::run_chunked`].
    pub fn run_chunked_with(
        &mut self,
        specs: &[RunSpec],
        opts: SubmitOptions,
        mut on_event: impl FnMut(&Reply),
    ) -> Result<Vec<RunRecord>, ClientError> {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards()];
        for (i, spec) in specs.iter().enumerate() {
            let shard = self.map.shard_for(spec, &self.machine);
            if let Some(bucket) = by_shard.get_mut(shard) {
                bucket.push(i);
            }
        }
        let mut slots: Vec<Option<RunRecord>> = vec![None; specs.len()];
        for (shard, indices) in by_shard.iter().enumerate() {
            let shard_specs: Vec<RunSpec> = indices
                .iter()
                .filter_map(|&i| specs.get(i).copied())
                .collect();
            let records = self.run_shard(shard, &shard_specs, opts, indices, &mut on_event)?;
            for (&i, record) in indices.iter().zip(records) {
                if let Some(slot) = slots.get_mut(i) {
                    *slot = Some(record);
                }
            }
        }
        slots
            .into_iter()
            .map(|s| {
                s.ok_or_else(|| ClientError::Protocol("shard done with missing record".to_string()))
            })
            .collect()
    }

    /// One shard's partition, chunk by chunk on the persistent
    /// connection. A chunk is half the shard's advertised queue capacity
    /// (at least 1), leaving admission headroom for jobs already queued
    /// and for other clients. Each chunk gets the policy's attempt
    /// budget: `Overloaded` backs off and resubmits it; a dropped
    /// connection is re-dialled and the same chunk resubmitted. Answered
    /// chunks are never resubmitted, and error indices are mapped from
    /// chunk-local straight to `indices`, the original batch's.
    fn run_shard(
        &mut self,
        shard: usize,
        shard_specs: &[RunSpec],
        opts: SubmitOptions,
        indices: &[usize],
        on_event: &mut dyn FnMut(&Reply),
    ) -> Result<Vec<RunRecord>, ClientError> {
        let policy = self.retry;
        let mut records = Vec::with_capacity(shard_specs.len());
        let mut attempt = 0u32;
        while records.len() < shard_specs.len() {
            let done = records.len();
            let result = self.ensure_conn(shard).and_then(|conn| {
                let chunk =
                    usize::try_from(conn.server_capacity / 2).map_or(usize::MAX, |c| c.max(1));
                let end = done.saturating_add(chunk).min(shard_specs.len());
                let chunk_specs = shard_specs.get(done..end).unwrap_or_default();
                conn.run_many_with(chunk_specs, opts, &mut *on_event)
            });
            let to_batch = |local: u64| -> u64 {
                usize::try_from(local)
                    .ok()
                    .and_then(|i| indices.get(done + i))
                    .map_or(local, |&orig| orig as u64)
            };
            attempt += 1;
            match result {
                Ok(mut chunk_records) => {
                    records.append(&mut chunk_records);
                    attempt = 0;
                }
                Err(ClientError::Overloaded(_)) if attempt < policy.max_attempts => {
                    std::thread::sleep(policy.backoff(attempt - 1));
                }
                // Reconnect-on-drop: a dead socket costs the connection,
                // not the sweep.
                Err(ClientError::Io(_)) if attempt < policy.max_attempts => {
                    if let Some(slot) = self.conns.get_mut(shard) {
                        *slot = None;
                    }
                    std::thread::sleep(policy.backoff(attempt - 1));
                }
                Err(ClientError::Expired(local)) => {
                    return Err(ClientError::Expired(
                        local.into_iter().map(to_batch).collect(),
                    ));
                }
                Err(ClientError::Failed(jobs)) => {
                    return Err(ClientError::Failed(
                        jobs.into_iter().map(|(i, m)| (to_batch(i), m)).collect(),
                    ));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy {
            jitter_seed: 0xfeed,
            ..RetryPolicy::default()
        };
        for attempt in 0..24 {
            let a = policy.backoff(attempt);
            let b = policy.backoff(attempt);
            assert_eq!(a, b, "same attempt, same pause");
            let cap = policy
                .base_backoff
                .saturating_mul(1u32 << attempt.min(16))
                .min(policy.max_backoff);
            assert!(a < cap, "jitter stays under the exponential cap");
            assert!(a >= cap / 2, "jitter keeps at least half the cap");
        }
        assert!(policy.backoff(30) <= policy.max_backoff);
    }

    /// The jitter is `atscale::gen::splitmix64`; these pauses pin it, so
    /// the chaos suite's retry cadence cannot drift with the generator.
    #[test]
    fn backoff_is_pinned_for_the_default_seed() {
        let policy = RetryPolicy::default();
        let pauses: Vec<u128> = (0..3).map(|n| policy.backoff(n).as_nanos()).collect();
        assert_eq!(pauses, [31_528_396, 77_861_755, 131_916_948]);
    }

    #[test]
    fn different_seeds_give_different_jitter() {
        let a = RetryPolicy {
            jitter_seed: 1,
            ..RetryPolicy::default()
        };
        let b = RetryPolicy {
            jitter_seed: 2,
            ..RetryPolicy::default()
        };
        let differs = (0..8).any(|n| a.backoff(n) != b.backoff(n));
        assert!(differs, "seeds decorrelate retry cadence");
    }

    #[test]
    fn backoff_grows_geometrically_until_the_ceiling() {
        let policy = RetryPolicy::default();
        // The jittered pause for attempt n+2 always exceeds attempt n's
        // (a 4x cap beats any jitter down to 1/2), until the ceiling.
        for n in 0..4 {
            assert!(policy.backoff(n + 2) > policy.backoff(n));
        }
    }
}
