//! Criterion benchmarks for the serving layer: cached-request round-trip
//! rate through a live daemon (socket + protocol + store, no simulation),
//! and single-flight dedup fan-out (one spec, 64 subscribers).

use atscale::{RunSpec, RunStore};
use atscale_serve::protocol::{self, Reply, Submit};
use atscale_serve::{Client, ReplySink, Scheduler, ServeConfig, Server, SubmitOptions};
use atscale_vm::PageSize;
use atscale_workloads::WorkloadId;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::{Arc, Condvar, Mutex};

fn spec(seed: u64) -> RunSpec {
    RunSpec {
        workload: WorkloadId::parse("cc-urand").expect("known workload"),
        nominal_footprint: 16 << 20,
        page_size: PageSize::Size4K,
        seed,
        warmup_instr: 1_000,
        budget_instr: 20_000,
        arch: atscale::ArchKind::Baseline,
    }
}

fn temp_store(tag: &str) -> (std::path::PathBuf, RunStore) {
    let dir =
        std::env::temp_dir().join(format!("atscale-serve-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (dir.clone(), RunStore::open(dir).expect("temp store"))
}

/// Round-trips/sec for a cached single-spec request over a real TCP
/// connection: wire codec + scheduler + store load, no simulation.
fn bench_cached_roundtrip(c: &mut Criterion) {
    let (dir, store) = temp_store("roundtrip");
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
    let addr = server.tcp_addr().expect("tcp").to_string();
    let mut client = Client::connect(&addr).expect("connect");
    client.hello().expect("handshake");
    // Warm the cache: the first submission simulates, the rest are served.
    client
        .run_many(&[spec(1)], SubmitOptions::default())
        .expect("warm");

    let mut group = c.benchmark_group("serve_cached_roundtrip");
    group.sample_size(20);
    group.bench_with_input(BenchmarkId::from_parameter("tcp"), &(), |b, ()| {
        b.iter(|| {
            let records = client
                .run_many(&[spec(1)], SubmitOptions::default())
                .expect("cached");
            black_box(records)
        });
    });
    group.finish();

    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// In-memory sink counting delivered batches (no socket, isolates the
/// scheduler's fan-out cost).
#[derive(Default)]
struct CountingSink {
    batches: Mutex<usize>,
    done: Condvar,
}

impl CountingSink {
    fn wait_batches(&self, n: usize) {
        let mut batches = self.batches.lock().unwrap();
        while *batches < n {
            batches = self.done.wait(batches).unwrap();
        }
    }
}

impl ReplySink for CountingSink {
    fn send(&self, frame: &[u8]) {
        let line = std::str::from_utf8(frame).expect("frames are UTF-8");
        let reply: Reply = protocol::decode(line).expect("frames decode");
        if matches!(reply, Reply::BatchDone(_)) {
            *self.batches.lock().unwrap() += 1;
            self.done.notify_all();
        }
    }
}

/// Dedup fan-out: 64 subscribers coalescing onto one paused job, then one
/// execution delivering to all of them. Measures admission + subscription
/// + delivery, amortizing the single simulation across the fan-out.
fn bench_dedup_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_dedup_fanout");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::from_parameter("64_subscribers"),
        &64u64,
        |b, &n| {
            b.iter(|| {
                let scheduler = Arc::new(Scheduler::new(ServeConfig {
                    store: None,
                    workers: 2,
                    start_paused: true,
                    ..ServeConfig::default()
                }));
                let workers: Vec<_> = (0..scheduler.workers())
                    .map(|_| {
                        let scheduler = Arc::clone(&scheduler);
                        std::thread::spawn(move || scheduler.worker_loop())
                    })
                    .collect();
                let sink = Arc::new(CountingSink::default());
                for id in 0..n {
                    scheduler.submit(
                        &Submit {
                            id,
                            specs: vec![spec(2)],
                            deadline_ms: None,
                            no_cache: false,
                            sample_interval: 0,
                        },
                        Arc::clone(&sink) as Arc<dyn ReplySink>,
                    );
                }
                scheduler.resume();
                sink.wait_batches(n as usize);
                assert_eq!(scheduler.stats().executions(), 1, "single-flight");
                scheduler.drain();
                scheduler.wait_drained();
                for w in workers {
                    w.join().expect("worker joins");
                }
            });
        },
    );
    group.finish();
}

criterion_group!(serve, bench_cached_roundtrip, bench_dedup_fanout);
criterion_main!(serve);
