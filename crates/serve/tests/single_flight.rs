//! Single-flight correctness: N concurrent identical submissions cost one
//! execution, every subscriber gets the same bytes, and concurrent cache
//! write-backs leave no temp-file droppings.

use atscale::{RunSpec, RunStore};
use atscale_serve::protocol::{self, Reply, Submit};
use atscale_serve::{ReplySink, Scheduler, ServeConfig};
use atscale_vm::PageSize;
use atscale_workloads::WorkloadId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

fn spec(footprint_mb: u64, seed: u64) -> RunSpec {
    RunSpec {
        workload: WorkloadId::parse("cc-urand").unwrap(),
        nominal_footprint: footprint_mb << 20,
        page_size: PageSize::Size4K,
        seed,
        warmup_instr: 1_000,
        budget_instr: 20_000,
        arch: atscale::ArchKind::Baseline,
    }
}

/// Collects a connection's frames and signals when a `BatchDone` lands.
#[derive(Default)]
struct Collector {
    replies: Mutex<Vec<Reply>>,
    done: Condvar,
}

impl Collector {
    fn wait_batch_done(&self) -> Vec<Reply> {
        let mut replies = self.replies.lock().unwrap();
        while !replies.iter().any(|r| {
            matches!(
                r,
                Reply::BatchDone(_) | Reply::Overloaded(_) | Reply::Error(_)
            )
        }) {
            replies = self.done.wait(replies).unwrap();
        }
        replies.clone()
    }

    fn records(replies: &[Reply]) -> Vec<Vec<u8>> {
        replies
            .iter()
            .filter_map(|r| match r {
                Reply::Record(done) => Some(serde_json::to_vec(&done.record).unwrap()),
                _ => None,
            })
            .collect()
    }
}

/// Decodes one encoded frame, as a client would.
fn decode(frame: &[u8]) -> Reply {
    let line = std::str::from_utf8(frame).expect("frames are UTF-8");
    assert!(
        !line.contains('\n'),
        "frames reach the sink without newline"
    );
    protocol::decode(line).expect("frames decode")
}

impl ReplySink for Collector {
    fn send(&self, frame: &[u8]) {
        self.replies.lock().unwrap().push(decode(frame));
        self.done.notify_all();
    }
}

/// Spawns worker threads for `scheduler` and returns a join guard.
fn spawn_workers(scheduler: &Arc<Scheduler>) -> Vec<std::thread::JoinHandle<()>> {
    (0..scheduler.workers())
        .map(|_| {
            let scheduler = Arc::clone(scheduler);
            std::thread::spawn(move || scheduler.worker_loop())
        })
        .collect()
}

fn stop(scheduler: &Arc<Scheduler>, workers: Vec<std::thread::JoinHandle<()>>) {
    scheduler.drain();
    scheduler.wait_drained();
    for w in workers {
        w.join().unwrap();
    }
}

/// The acceptance-criteria proof: cache disabled, 64 concurrent identical
/// requests → exactly one harness execution and 64 byte-identical records.
#[test]
fn sixty_four_identical_requests_execute_once() {
    let scheduler = Arc::new(Scheduler::new(ServeConfig {
        store: None,
        workers: 4,
        start_paused: true,
        ..ServeConfig::default()
    }));
    let workers = spawn_workers(&scheduler);

    let sinks: Vec<Arc<Collector>> = (0..64).map(|_| Arc::new(Collector::default())).collect();
    std::thread::scope(|scope| {
        for (i, sink) in sinks.iter().enumerate() {
            let scheduler = &scheduler;
            scope.spawn(move || {
                scheduler.submit(
                    &Submit {
                        id: i as u64,
                        specs: vec![spec(16, 7)],
                        deadline_ms: None,
                        no_cache: false,
                        sample_interval: 0,
                    },
                    Arc::clone(sink) as Arc<dyn ReplySink>,
                );
            });
        }
    });
    // All 64 submissions are admitted and coalesced before any worker runs.
    scheduler.resume();

    let mut bytes: Vec<Vec<u8>> = Vec::new();
    for sink in &sinks {
        let replies = sink.wait_batch_done();
        let records = Collector::records(&replies);
        assert_eq!(records.len(), 1, "one record per subscriber");
        bytes.extend(records);
    }
    assert_eq!(
        scheduler.stats().executions(),
        1,
        "single-flight executed once"
    );
    assert!(
        bytes.windows(2).all(|w| w[0] == w[1]),
        "all 64 subscribers received byte-identical records"
    );

    stop(&scheduler, workers);
}

/// The within-batch variant: one submission repeating a spec dedups onto a
/// single job and still answers every index.
#[test]
fn duplicate_specs_within_one_batch_coalesce() {
    let scheduler = Arc::new(Scheduler::new(ServeConfig {
        store: None,
        workers: 2,
        ..ServeConfig::default()
    }));
    let workers = spawn_workers(&scheduler);

    let sink = Arc::new(Collector::default());
    scheduler.submit(
        &Submit {
            id: 1,
            specs: vec![spec(16, 7), spec(16, 7), spec(16, 7)],
            deadline_ms: None,
            no_cache: false,
            sample_interval: 0,
        },
        Arc::clone(&sink) as Arc<dyn ReplySink>,
    );
    let replies = sink.wait_batch_done();
    let records = Collector::records(&replies);
    assert_eq!(records.len(), 3, "every index resolved");
    assert_eq!(scheduler.stats().executions(), 1);
    assert!(records.windows(2).all(|w| w[0] == w[1]));

    stop(&scheduler, workers);
}

/// The ISSUE's stress test: 8 client threads submitting overlapping spec
/// sets against a shared store. Every unique spec executes exactly once
/// (single-flight while in flight, cache hits afterwards), every client
/// sees byte-identical records, and no `.tmp` droppings survive.
#[test]
fn stress_overlapping_batches_share_executions_and_leave_no_droppings() {
    let dir = std::env::temp_dir().join(format!("atscale-serve-stress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = RunStore::open(&dir).unwrap();
    let scheduler = Arc::new(Scheduler::new(ServeConfig {
        store: Some(store.clone()),
        workers: 4,
        ..ServeConfig::default()
    }));
    let workers = spawn_workers(&scheduler);

    // A pool of 6 unique specs; each of the 8 clients submits a rotated
    // overlapping window of 4, twice.
    let pool: Vec<RunSpec> = (0..6).map(|i| spec(8 + 4 * i, 100 + i)).collect();
    let sinks: Vec<Arc<Collector>> = (0..16).map(|_| Arc::new(Collector::default())).collect();
    std::thread::scope(|scope| {
        for client in 0..8 {
            for round in 0..2 {
                let sink = &sinks[client * 2 + round];
                let pool = &pool;
                let scheduler = &scheduler;
                scope.spawn(move || {
                    let specs: Vec<RunSpec> =
                        (0..4).map(|k| pool[(client + k) % pool.len()]).collect();
                    scheduler.submit(
                        &Submit {
                            id: (client * 2 + round) as u64,
                            specs,
                            deadline_ms: None,
                            no_cache: false,
                            sample_interval: 0,
                        },
                        Arc::clone(sink) as Arc<dyn ReplySink>,
                    );
                });
            }
        }
    });

    // Group every delivered record by its spec's cache key and require one
    // byte pattern per key across all clients.
    let mut by_key: HashMap<String, Vec<Vec<u8>>> = HashMap::new();
    for sink in &sinks {
        let replies = sink.wait_batch_done();
        let mut records = 0;
        for reply in &replies {
            if let Reply::Record(done) = reply {
                records += 1;
                by_key
                    .entry(done.record.spec.label())
                    .or_default()
                    .push(serde_json::to_vec(&done.record).unwrap());
            }
        }
        assert_eq!(records, 4, "every client resolved its full batch");
    }
    assert_eq!(by_key.len(), pool.len(), "all unique specs served");
    for (key, versions) in &by_key {
        assert!(
            versions.windows(2).all(|w| w[0] == w[1]),
            "divergent record bytes for {key}"
        );
    }
    assert_eq!(
        scheduler.stats().executions(),
        pool.len() as u64,
        "each unique spec executed exactly once"
    );
    let stats = store.stats();
    assert_eq!(stats.entries, pool.len() as u64);
    assert_eq!(stats.tmp_files, 0, "no temp-file droppings");

    stop(&scheduler, workers);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Holds the first `Progress` frame it is handed until released, so a test
/// can park one worker between counting its spec and announcing it.
#[derive(Default)]
struct HoldFirstProgress {
    frames: Collector,
    seen_progress: AtomicBool,
    released: Mutex<bool>,
    release_cv: Condvar,
}

impl HoldFirstProgress {
    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.release_cv.notify_all();
    }
}

impl ReplySink for HoldFirstProgress {
    fn send(&self, frame: &[u8]) {
        let first_progress = matches!(decode(frame), Reply::Progress(_))
            && !self.seen_progress.swap(true, Ordering::SeqCst);
        if first_progress {
            let mut released = self.released.lock().unwrap();
            while !*released {
                released = self.release_cv.wait(released).unwrap();
            }
        }
        self.frames.send(frame);
    }
}

/// `BatchDone` closes the stream: a worker that counted its spec early but
/// wrote its `Progress` late must not trail another worker's `BatchDone`
/// (the client stops reading at `BatchDone`, so a trailing frame would
/// answer the connection's *next* request).
#[test]
fn no_frame_trails_batch_done() {
    let scheduler = Arc::new(Scheduler::new(ServeConfig {
        store: None,
        workers: 2,
        start_paused: true,
        ..ServeConfig::default()
    }));
    let workers = spawn_workers(&scheduler);
    let sink = Arc::new(HoldFirstProgress::default());
    scheduler.submit(
        &Submit {
            id: 1,
            specs: vec![spec(16, 7), spec(16, 8)],
            deadline_ms: None,
            no_cache: false,
            sample_interval: 0,
        },
        Arc::clone(&sink) as Arc<dyn ReplySink>,
    );
    scheduler.resume();
    // One worker parks inside its `Progress` send; the other resolves its
    // spec completely. Only then is the parked frame let through.
    while scheduler.stats_reply().completed < 1 {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    sink.release();
    sink.frames.wait_batch_done();
    stop(&scheduler, workers);

    let replies = sink.frames.replies.lock().unwrap().clone();
    assert!(
        matches!(replies.last(), Some(Reply::BatchDone(_))),
        "frames after BatchDone: {replies:?}"
    );
    let progress = replies
        .iter()
        .filter(|r| matches!(r, Reply::Progress(_)))
        .count();
    assert_eq!(progress, 2);
}
