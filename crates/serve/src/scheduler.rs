//! The serving scheduler: single-flight deduplication, bounded admission,
//! deadlines, and drain-on-shutdown over the `atscale` harness.
//!
//! One `Job` is one unique `(spec, cache-mode)` unit of simulation work.
//! Submissions subscribe batches of specs to jobs: a spec whose job is
//! already queued *or running* coalesces onto it (single-flight — N
//! concurrent identical requests cost one execution, every subscriber
//! receives the same record). Fresh jobs pass admission control: a full
//! queue rejects the whole batch with an explicit overloaded reply, never
//! a hang or silent drop. Workers drain the queue; per-request deadlines
//! are enforced at pop time (a job every subscriber has abandoned is
//! skipped) and again at delivery.

use crate::protocol::{
    self, Accepted, BatchDone, DeadlineExceeded, JobFailed, Overloaded, ProgressEvent, Reply,
    SampleEvent, ServerStatsReply, Submit,
};
use atscale::{Harness, RunSpec, RunStore};
#[cfg(feature = "faults")]
use atscale_faults::{FaultPlan, FaultRule, FaultSite};
use atscale_mmu::MachineConfig;
use atscale_telemetry::{Progress, Sample};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Where replies for one connection go. Frames arrive encoded: one JSON
/// object, without its newline, from [`protocol::encode`] — or, for a
/// record, [`protocol::encode_record`]. The server implements this over a
/// connection's outbound buffer; tests implement it over in-memory
/// collectors that decode every frame.
pub trait ReplySink: Send + Sync {
    /// Delivers one encoded frame to the client (errors are the sink's
    /// problem — a dead connection swallows its frames).
    fn send(&self, frame: &[u8]);
}

/// Encodes `reply` and delivers it on `sink`.
pub(crate) fn send_reply(sink: &dyn ReplySink, reply: &Reply) {
    sink.send(protocol::encode(reply).as_bytes());
}

/// Marks a `no_cache` job's key: such a job neither coalesces with nor is
/// answered by cache-permitted work, and its record is stored under the
/// key without this suffix.
const FRESH: &str = "!fresh";

/// Serving-daemon configuration.
#[derive(Debug)]
pub struct ServeConfig {
    /// The machine every run simulates.
    pub machine: MachineConfig,
    /// The run cache; `None` serves cache-less (every run executes).
    pub store: Option<RunStore>,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Reactor shards (I/O threads) connections are spread over; default
    /// one per core. I/O-plane topology only: records are produced by the
    /// workers and are identical for any shard count.
    pub reactors: usize,
    /// Admission-queue capacity in unique jobs (running jobs have left the
    /// queue; dedup subscriptions consume no capacity).
    pub queue_capacity: usize,
    /// Start with workers paused (maintenance/test hook: admission works,
    /// execution waits for [`Scheduler::resume`]).
    pub start_paused: bool,
    /// This daemon's shard index within its topology (v6 handshake;
    /// 0 standalone).
    pub shard: u64,
    /// Every shard's client-reachable address in shard order (v6
    /// handshake; empty standalone). `topology.len()` is the shard count
    /// the routing table is built for.
    pub topology: Vec<String>,
    /// Fault-injection plan driving the scheduler/server sites
    /// (`WorkerPanic`, `QueuePressure`, `DeadlineExpiry`, `ServerWrite`,
    /// `ServerStall`). Chaos-test machinery; absent in release builds.
    #[cfg(feature = "faults")]
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(2, std::num::NonZero::get);
        ServeConfig {
            machine: MachineConfig::haswell(),
            store: None,
            workers: cores.min(4),
            reactors: cores,
            // Sized above the largest one-shot batch a stock client sends:
            // the full fig1 sweep is 13 workloads x 9 footprints x 3 page
            // sizes = 351 unique jobs.
            queue_capacity: 1024,
            start_paused: false,
            shard: 0,
            topology: Vec::new(),
            #[cfg(feature = "faults")]
            faults: None,
        }
    }
}

/// Monotonic serving counters (see [`ServerStatsReply`] for semantics).
#[derive(Debug, Default)]
pub struct ServeStats {
    executions: AtomicU64,
    cache_hits: AtomicU64,
    dedup_hits: AtomicU64,
    overloaded: AtomicU64,
    expired: AtomicU64,
    failed: AtomicU64,
    completed: AtomicU64,
}

impl ServeStats {
    /// Fresh harness executions so far — the single-flight proof counter.
    pub fn executions(&self) -> u64 {
        self.executions.load(Ordering::SeqCst)
    }
}

/// Delivery accounting for one [`Submit`]: counts resolved specs and
/// closes the stream with a `BatchDone` frame.
pub(crate) struct Batch {
    sink: Arc<dyn ReplySink>,
    id: u64,
    total: usize,
    /// Whether the submission asked for samples: each delivered record is
    /// then preceded by its sampled series, one `Sample` frame apiece.
    sampled: bool,
    delivered: AtomicUsize,
    expired: AtomicUsize,
    failed: AtomicUsize,
    resolved: AtomicUsize,
    /// Specs whose frames are all written; the last one closes the batch.
    announced: AtomicUsize,
    /// Set once the `Accepted` frame has been written. Workers delivering
    /// this batch's frames wait on it, so a cache-hit resolving faster
    /// than the admission path cannot put any frame before `Accepted` on
    /// the connection.
    ready: Mutex<bool>,
    ready_cv: Condvar,
}

impl Batch {
    fn new(sink: Arc<dyn ReplySink>, req: &Submit) -> Batch {
        Batch {
            sink,
            id: req.id,
            total: req.specs.len(),
            sampled: req.sample_interval > 0,
            delivered: AtomicUsize::new(0),
            expired: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            resolved: AtomicUsize::new(0),
            announced: AtomicUsize::new(0),
            ready: Mutex::new(false),
            ready_cv: Condvar::new(),
        }
    }

    /// The ready gate with poison recovery: the flag is a plain `bool`, so
    /// a panic in some other holder cannot leave it half-updated — taking
    /// the poisoned value is always sound, and it keeps a worker delivering
    /// frames alive instead of cascading the panic through the batch.
    fn ready_lock(&self) -> std::sync::MutexGuard<'_, bool> {
        self.ready
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn mark_ready(&self) {
        *self.ready_lock() = true;
        self.ready_cv.notify_all();
    }

    fn wait_ready(&self) {
        let mut ready = self.ready_lock();
        while !*ready {
            ready = self
                .ready_cv
                .wait(ready)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Streams the frames resolving spec `index` — for a sampled batch, a
    /// delivered record's samples first, replayed from the record as the
    /// harness replays them — then `BatchDone` once every spec of the
    /// batch is resolved. This is the only code that writes a batch's
    /// frames after `Accepted`, and it waits for that frame first. An
    /// expiry is counted into `stats` before its frame goes out, so a
    /// client that has read the frame never sees the counter lag behind it.
    fn resolve(&self, sub: &Subscriber, outcome: &JobOutcome, stats: &ServeStats) {
        self.wait_ready();
        let now = Instant::now();
        let label = outcome.spec.label();
        // A record-less outcome is either a contained worker panic
        // (`error` carries the panic message) or a shed job, which only
        // ever has expired subscribers: the worker removes it from the
        // dedup map under the scheduler lock before anyone else can join.
        let frame = match (&outcome.error, &outcome.record) {
            (Some(message), _) => {
                self.failed.fetch_add(1, Ordering::SeqCst);
                protocol::encode(&Reply::Failed(JobFailed {
                    id: self.id,
                    index: sub.index,
                    label: label.clone(),
                    message: message.clone(),
                }))
                .into_bytes()
            }
            (None, Some(record)) if sub.deadline.is_none_or(|d| now <= d) => {
                self.delivered.fetch_add(1, Ordering::SeqCst);
                if self.sampled {
                    for sample in &outcome.samples {
                        send_reply(
                            &*self.sink,
                            &Reply::Sample(SampleEvent {
                                id: self.id,
                                run: label.clone(),
                                source: "sim".to_string(),
                                sample: sample.clone(),
                            }),
                        );
                    }
                }
                protocol::encode_record(
                    self.id,
                    sub.index,
                    outcome.cached,
                    sub.deduped,
                    outcome.spec.arch,
                    record,
                )
            }
            (None, _) => {
                self.expired.fetch_add(1, Ordering::SeqCst);
                stats.expired.fetch_add(1, Ordering::SeqCst);
                protocol::encode(&Reply::Deadline(DeadlineExceeded {
                    id: self.id,
                    index: sub.index,
                    label: label.clone(),
                }))
                .into_bytes()
            }
        };
        self.sink.send(&frame);
        let resolved = self.resolved.fetch_add(1, Ordering::SeqCst) + 1;
        send_reply(
            &*self.sink,
            &Reply::Progress(ProgressEvent {
                id: self.id,
                progress: Progress {
                    completed: resolved,
                    total: self.total,
                    label,
                    wall_ms: outcome.wall_ms,
                    cached: outcome.cached,
                },
            }),
        );
        // Counted after the send, not with `resolved`: a worker preempted
        // before its `Progress` must not trail another worker's `BatchDone`.
        if self.announced.fetch_add(1, Ordering::SeqCst) + 1 == self.total {
            send_reply(
                &*self.sink,
                &Reply::BatchDone(BatchDone {
                    id: self.id,
                    delivered: self.delivered.load(Ordering::SeqCst) as u64,
                    expired: self.expired.load(Ordering::SeqCst) as u64,
                    failed: self.failed.load(Ordering::SeqCst) as u64,
                }),
            );
        }
    }
}

/// One batch spec's subscription to a job.
struct Subscriber {
    batch: Arc<Batch>,
    /// Spec index within the batch.
    index: u64,
    deadline: Option<Instant>,
    /// Whether this subscription coalesced onto a pre-existing job.
    deduped: bool,
}

/// One unique unit of simulation work and everyone waiting on it.
struct Job {
    spec: RunSpec,
    subscribers: Vec<Subscriber>,
    /// Widest sampling cadence requested by any subscriber (0 = none).
    /// Read once, when a worker pops the job: a sampled subscriber that
    /// coalesces onto a job already running without sampling gets its
    /// record and no samples.
    sample_interval: u64,
}

/// What resolving a job yields for its subscribers.
struct JobOutcome {
    /// The job's spec: its label and architecture go on the reply frames.
    spec: RunSpec,
    /// The record's JSON, as the run store holds it.
    record: Option<Vec<u8>>,
    /// The record's sampled series, taken for a sampling job only.
    samples: Vec<Sample>,
    /// The contained panic message when the job's worker panicked;
    /// `None` record + `None` error means the job was shed (all
    /// subscribers expired).
    error: Option<String>,
    cached: bool,
    wall_ms: u64,
}

impl JobOutcome {
    /// A record-less outcome: a shed job (`error` is `None`) or a failed one.
    fn unanswered(spec: RunSpec, error: Option<String>, wall_ms: u64) -> JobOutcome {
        JobOutcome {
            spec,
            record: None,
            samples: Vec::new(),
            error,
            cached: false,
            wall_ms,
        }
    }
}

#[derive(Default)]
struct SchedState {
    queue: VecDeque<String>,
    jobs: HashMap<String, Job>,
    running: usize,
    paused: bool,
    draining: bool,
}

/// The single-flight scheduler shared by every connection and worker.
pub struct Scheduler {
    config: ServeConfig,
    /// The cache-first harness every job runs through, built once:
    /// `Harness::new` asks the OS for the CPU count, which costs more than
    /// a cache hit.
    harness: Harness,
    state: Mutex<SchedState>,
    work: Condvar,
    idle: Condvar,
    stats: ServeStats,
}

/// Outcome of admitting one submission.
enum Admission {
    Accepted(Accepted, Arc<Batch>),
    Overloaded(Overloaded),
    Draining,
}

impl Scheduler {
    /// A scheduler with the given configuration (workers are spawned by
    /// the server, not here).
    pub fn new(config: ServeConfig) -> Scheduler {
        let paused = config.start_paused;
        let mut harness = Harness::new().with_config(config.machine);
        if let Some(store) = &config.store {
            harness = harness.with_store(store.clone());
        }
        Scheduler {
            config,
            harness,
            state: Mutex::new(SchedState {
                paused,
                ..SchedState::default()
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            stats: ServeStats::default(),
        }
    }

    /// The scheduler's monotonic counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The scheduler state with explicit poison recovery.
    ///
    /// Every mutation of `SchedState` is transactional — queue push plus
    /// job insert, or job removal plus counter update — and a worker panic
    /// between the two halves is already prevented by the `catch_unwind`
    /// boundary around job execution (the only code a worker runs that can
    /// panic while *not* holding this lock). Recovering from poison is
    /// therefore sound, and it keeps the server serving after a contained
    /// panic instead of wedging every connection on a poisoned mutex.
    fn locked(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Dedup key for one spec under this server's machine config: the run
    /// cache key, partitioned by cache mode (a `no_cache` submission must
    /// not coalesce onto — or be answered by — a cache-permitted job).
    /// It is the only key a served job computes: the worker's store lookup
    /// and `no_cache` write-back reuse it.
    fn job_key(&self, spec: &RunSpec, no_cache: bool) -> String {
        let base = RunStore::key(spec, &self.config.machine);
        if no_cache {
            base + FRESH
        } else {
            base
        }
    }

    /// Admits one submission atomically: either every spec is subscribed
    /// (new job or single-flight coalesce) or — when the fresh jobs needed
    /// would overflow the queue — nothing is and the whole batch is
    /// rejected. Replies (`Accepted`/`Overloaded`/`Error`) are sent on
    /// `sink`; the record stream follows asynchronously.
    pub fn submit(&self, req: &Submit, sink: Arc<dyn ReplySink>) {
        match self.admit(req, Arc::clone(&sink)) {
            Admission::Accepted(a, batch) => {
                send_reply(&*sink, &Reply::Accepted(a));
                // Only now may workers deliver this batch's record frames
                // (they wait on the gate), keeping per-connection order.
                batch.mark_ready();
            }
            Admission::Overloaded(o) => {
                self.stats.overloaded.fetch_add(1, Ordering::SeqCst);
                send_reply(&*sink, &Reply::Overloaded(o));
            }
            Admission::Draining => send_reply(
                &*sink,
                &Reply::Error(protocol::ErrorReply {
                    id: req.id,
                    message: "server is draining; submission rejected".to_string(),
                }),
            ),
        }
    }

    fn admit(&self, req: &Submit, sink: Arc<dyn ReplySink>) -> Admission {
        let deadline = req
            .deadline_ms
            // analyze:allow(determinism): deadlines are wall-clock by definition; they gate delivery and never enter a RunRecord or its cache key
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        // Keys depend on nothing the lock guards: compute them outside it.
        let batch_keys: Vec<String> = req
            .specs
            .iter()
            .map(|spec| self.job_key(spec, req.no_cache))
            .collect();
        let mut state = self.locked();
        if state.draining {
            return Admission::Draining;
        }
        #[cfg(feature = "faults")]
        if self.fault(FaultSite::QueuePressure).is_some() {
            // Injected pressure: reject exactly as a full queue would —
            // atomically, nothing enqueued, safe to retry.
            return Admission::Overloaded(Overloaded {
                id: req.id,
                queued: state.queue.len() as u64,
                capacity: self.config.queue_capacity as u64,
            });
        }
        // First pass: how many *fresh* jobs would this batch enqueue?
        let mut fresh = 0usize;
        for (i, key) in batch_keys.iter().enumerate() {
            if !state.jobs.contains_key(key) && batch_keys.iter().take(i).all(|k| k != key) {
                fresh += 1;
            }
        }
        if state.queue.len() + fresh > self.config.queue_capacity {
            return Admission::Overloaded(Overloaded {
                id: req.id,
                queued: state.queue.len() as u64,
                capacity: self.config.queue_capacity as u64,
            });
        }
        // Second pass: subscribe every spec.
        let batch = Arc::new(Batch::new(sink, req));
        let mut enqueued = 0u64;
        let mut deduped = 0u64;
        for (index, (spec, key)) in req.specs.iter().zip(batch_keys).enumerate() {
            let existed = state.jobs.contains_key(&key);
            let job = state.jobs.entry(key.clone()).or_insert_with(|| Job {
                spec: *spec,
                subscribers: Vec::new(),
                sample_interval: 0,
            });
            job.subscribers.push(Subscriber {
                batch: Arc::clone(&batch),
                index: index as u64,
                deadline,
                deduped: existed,
            });
            job.sample_interval = job.sample_interval.max(req.sample_interval);
            if existed {
                deduped += 1;
                self.stats.dedup_hits.fetch_add(1, Ordering::SeqCst);
            } else {
                enqueued += 1;
                state.queue.push_back(key);
            }
        }
        drop(state);
        self.work.notify_all();
        Admission::Accepted(
            Accepted {
                id: req.id,
                total: req.specs.len() as u64,
                enqueued,
                deduped,
            },
            batch,
        )
    }

    /// Defensive bookkeeping for a popped key whose map entry is missing —
    /// unreachable while the admission invariant holds (entry inserted
    /// before the key is enqueued; removal only by the popping worker).
    /// Undoes the `running` count and wakes drain waiters so
    /// [`Scheduler::wait_drained`] cannot wedge on the lost job.
    #[cold]
    fn abandon_lost_job(&self) {
        let mut state = self.locked();
        state.running -= 1;
        let drained = state.queue.is_empty() && state.running == 0;
        drop(state);
        if drained {
            self.idle.notify_all();
        }
    }

    /// One worker thread's loop: pop, execute, deliver — until drained.
    pub fn worker_loop(&self) {
        loop {
            let mut state = self.locked();
            let key = loop {
                if !state.paused {
                    if let Some(key) = state.queue.pop_front() {
                        break key;
                    }
                    if state.draining {
                        return;
                    }
                }
                state = self
                    .work
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            };
            // A job counts as `running` from pop until its replies are
            // delivered, so `wait_drained` cannot return while the final
            // frames of a drain are still being written.
            state.running += 1;
            // analyze:allow(determinism): deadline expiry check — wall-clock gates whether work is shed, never what a record contains
            let now = Instant::now();
            // `get` rather than indexing: a popped key always has a map
            // entry (admission inserts before enqueueing), but if that
            // invariant ever broke, a missing entry must not panic the
            // worker outside its containment boundary — treat it as shed.
            let all_expired = state.jobs.get(&key).is_none_or(|job| {
                job.subscribers
                    .iter()
                    .all(|s| s.deadline.is_some_and(|d| now > d))
            });
            // Injected expiry forces the shed path: every subscriber is
            // treated as having abandoned the job.
            #[cfg(feature = "faults")]
            let all_expired = all_expired || self.fault(FaultSite::DeadlineExpiry).is_some();
            let outcome;
            let job;
            if all_expired {
                // Every waiter has abandoned the job: shed it without
                // executing (the other half of admission control). Remove
                // it under the lock so nobody coalesces onto a job that
                // will never produce a record. A missing entry (possible
                // only if the admission invariant broke) is skipped, not
                // panicked on — workers must stay up.
                let Some(shed) = state.jobs.remove(&key) else {
                    drop(state);
                    self.abandon_lost_job();
                    continue;
                };
                job = shed;
                drop(state);
                outcome = JobOutcome::unanswered(job.spec, None, 0);
            } else {
                // Snapshot what execution needs; the job stays in the map
                // so single-flight covers running jobs too. Presence is
                // guaranteed by the admission invariant (insert before
                // enqueue); if it ever broke, skip rather than panic.
                let Some(queued) = state.jobs.get(&key) else {
                    drop(state);
                    self.abandon_lost_job();
                    continue;
                };
                let spec = queued.spec;
                let sample_interval = queued.sample_interval;
                drop(state);

                // analyze:allow(determinism): wall_ms is progress metadata on the reply stream, not part of the RunRecord or its key
                let start = Instant::now();
                // Contain worker panics: a panicking job must fail *its
                // subscribers* with an explicit `Failed` frame, not kill
                // the worker thread and strand the single-flight entry
                // (which would wedge every coalesced subscriber forever).
                let execution = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.execute(&spec, &key, sample_interval)
                }));
                let wall_ms = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
                outcome = match execution {
                    Ok((record, samples, cached)) => {
                        if cached {
                            self.stats.cache_hits.fetch_add(1, Ordering::SeqCst);
                        } else {
                            self.stats.executions.fetch_add(1, Ordering::SeqCst);
                        }
                        JobOutcome {
                            spec,
                            record: Some(record),
                            samples,
                            error: None,
                            cached,
                            wall_ms,
                        }
                    }
                    Err(panic) => {
                        self.stats.failed.fetch_add(1, Ordering::SeqCst);
                        JobOutcome::unanswered(spec, Some(panic_message(panic.as_ref())), wall_ms)
                    }
                };
                // Only the popping worker removes the key it popped, so
                // the entry is still there; if that single-flight
                // invariant ever broke, skip delivery rather than panic.
                job = match self.locked().jobs.remove(&key) {
                    Some(done) => done,
                    None => {
                        self.abandon_lost_job();
                        continue;
                    }
                };
            }
            for sub in &job.subscribers {
                sub.batch.resolve(sub, &outcome, &self.stats);
            }
            self.stats.completed.fetch_add(1, Ordering::SeqCst);
            let mut state = self.locked();
            state.running -= 1;
            let drained = state.queue.is_empty() && state.running == 0;
            drop(state);
            if drained {
                self.idle.notify_all();
            }
        }
    }

    /// Executes the job under `key` (its [`Scheduler::job_key`]) and
    /// returns the record's JSON, its samples when `sample_interval` asks
    /// for them, and whether it was a cache hit. The harness makes every
    /// cache choice: a `no_cache` job bypasses the lookup and its record
    /// replaces the row under the key without the `!fresh` suffix.
    fn execute(
        &self,
        spec: &RunSpec,
        key: &str,
        sample_interval: u64,
    ) -> (Vec<u8>, Vec<Sample>, bool) {
        #[cfg(feature = "faults")]
        if self.fault(FaultSite::WorkerPanic).is_some() {
            panic!("injected fault: WorkerPanic mid-job");
        }
        let (key, no_cache) = key
            .strip_suffix(FRESH)
            .map_or((key, false), |store_key| (store_key, true));
        self.harness.run_json(spec, key, no_cache, sample_interval)
    }

    /// Begins draining: new submissions are rejected, queued and running
    /// jobs complete and deliver. Idempotent.
    pub fn drain(&self) {
        let mut state = self.locked();
        state.draining = true;
        // A paused scheduler must still finish its backlog to drain.
        state.paused = false;
        drop(state);
        self.work.notify_all();
    }

    /// Blocks until the queue is empty and no job is running. Call after
    /// [`Scheduler::drain`] for graceful shutdown.
    pub fn wait_drained(&self) {
        let mut state = self.locked();
        while !state.queue.is_empty() || state.running > 0 {
            state = self
                .idle
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Pauses workers after their current job (maintenance/test hook:
    /// admission and dedup keep working, execution stalls).
    pub fn pause(&self) {
        self.locked().paused = true;
    }

    /// Resumes paused workers.
    pub fn resume(&self) {
        let mut state = self.locked();
        state.paused = false;
        drop(state);
        self.work.notify_all();
    }

    /// The run cache, if this server has one.
    pub fn store(&self) -> Option<&RunStore> {
        self.config.store.as_ref()
    }

    /// The configured fault-injection plan, if any (chaos machinery; the
    /// reactor hands it to connection sinks for the socket sites).
    #[cfg(feature = "faults")]
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.config.faults.as_ref()
    }

    /// Records an arrival at `site` against the configured plan.
    #[cfg(feature = "faults")]
    fn fault(&self, site: FaultSite) -> Option<FaultRule> {
        self.config
            .faults
            .as_ref()
            .and_then(|plan| plan.check(site))
    }

    /// Worker-thread count the server should spawn.
    pub fn workers(&self) -> usize {
        self.config.workers.max(1)
    }

    /// Admission-queue capacity, advertised to clients in the handshake so
    /// they can chunk oversized batches instead of getting `Overloaded`.
    pub fn queue_capacity(&self) -> usize {
        self.config.queue_capacity
    }

    /// This daemon's shard index (v6 handshake; 0 standalone).
    pub fn shard(&self) -> u64 {
        self.config.shard
    }

    /// The topology's shard count (v6 handshake; 1 standalone).
    pub fn shards(&self) -> u64 {
        (self.config.topology.len() as u64).max(1)
    }

    /// Every shard's address in shard order (v6 handshake; empty
    /// standalone).
    pub fn topology(&self) -> &[String] {
        &self.config.topology
    }

    /// Counter snapshot for the `server_stats` reply.
    pub fn stats_reply(&self) -> ServerStatsReply {
        let state = self.locked();
        ServerStatsReply {
            executions: self.stats.executions.load(Ordering::SeqCst),
            cache_hits: self.stats.cache_hits.load(Ordering::SeqCst),
            dedup_hits: self.stats.dedup_hits.load(Ordering::SeqCst),
            overloaded: self.stats.overloaded.load(Ordering::SeqCst),
            expired: self.stats.expired.load(Ordering::SeqCst),
            failed: self.stats.failed.load(Ordering::SeqCst),
            queued: state.queue.len() as u64,
            running: state.running as u64,
            completed: self.stats.completed.load(Ordering::SeqCst),
            draining: state.draining,
        }
    }
}

/// Extracts the human-readable message from a caught panic payload
/// (`panic!` with a string literal or a formatted message; anything else
/// gets a generic label).
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = panic.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = panic.downcast_ref::<String>() {
        message.clone()
    } else {
        "worker panicked (non-string payload)".to_string()
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.locked();
        f.debug_struct("Scheduler")
            .field("queued", &state.queue.len())
            .field("running", &state.running)
            .field("draining", &state.draining)
            .finish_non_exhaustive()
    }
}
