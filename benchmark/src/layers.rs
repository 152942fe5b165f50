//! The traced run's view of each layer, from outside.
//!
//! [`traced_run`] is `execute_run`'s public-API body (`build_model`,
//! `Machine::new`, `Workload::setup`, `Workload::run`, `Machine::finish`)
//! with a span around every call into a layer. The `probe_*` functions time
//! one layer at a time in isolation — the generator without the machine,
//! the machine without the generator, the cache hierarchy alone, the record
//! codec, the segment store, the wire codec — so a change to one layer has a
//! number of its own to move.

use crate::stages::{ms_since, record_bytes, Checks};
use crate::trace::Tracer;
use atscale::{
    execute_run, execute_run_with_telemetry, hot_row, ArchKind, Harness, RunRecord, RunSpec,
    RunStore,
};
use atscale_cache::{AccessKind, CacheHierarchy};
use atscale_mmu::{
    ArchMachine, BaselineArch, CountingSink, DramCacheArch, MachineConfig, NoTlbArch,
    RecordingSink, TelemetryHandle, TranslationArchitecture, VictimaArch,
};
use atscale_results::{QueryFilter, SegmentStore};
use atscale_serve::protocol::{self, RecordDone};
use atscale_serve::Reply;
use atscale_vm::{AddressSpace, BackingPolicy, PageSize, PhysAddr};
use atscale_workloads::WorkloadId;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// A 64-bit LCG (Knuth's MMIX constants): the fixed address stream of the
/// `vm.touch` and `cache.hier` probes.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }
}

/// What one traced run measured besides its record.
pub struct TracedRun {
    /// The record, byte-identical to `execute_run`'s.
    pub record: RunRecord,
    /// Pages the address space had mapped when `Workload::setup` returned.
    pub pages_mapped: u64,
    /// Milliseconds of the `sim.drive` span.
    pub drive_ms: f64,
}

/// `execute_run`, re-assembled from the layers' public functions with a
/// span around each.
pub fn traced_run(spec: &RunSpec, machine: &MachineConfig, tracer: &mut Tracer) -> TracedRun {
    match spec.arch {
        ArchKind::Baseline => traced_run_on::<BaselineArch>(spec, machine, tracer),
        ArchKind::Victima => traced_run_on::<VictimaArch>(spec, machine, tracer),
        ArchKind::DramCache => traced_run_on::<DramCacheArch>(spec, machine, tracer),
        ArchKind::NoTlb => traced_run_on::<NoTlbArch>(spec, machine, tracer),
    }
}

fn traced_run_on<A: TranslationArchitecture>(
    spec: &RunSpec,
    config: &MachineConfig,
    tracer: &mut Tracer,
) -> TracedRun {
    tracer.span("spec", |tracer| {
        let mut workload = tracer.span("workloads.build", |_| {
            spec.workload.build_model(spec.nominal_footprint, spec.seed)
        });
        let mut machine = tracer.span("mmu.machine_new", |_| {
            ArchMachine::<A>::new(
                *config,
                BackingPolicy::uniform(spec.page_size),
                workload.profile(),
            )
        });
        tracer.span("vm.fault_in", |_| {
            workload
                .setup(machine.space_mut())
                .expect("workload setup allocates within the simulated heap");
        });
        let pages_mapped = machine.space().stats().minor_faults;
        machine.set_limits(spec.warmup_instr, spec.budget_instr);
        let ((), drive_ms) = tracer.timed("sim.drive", |_| workload.run(&mut machine));
        let result = tracer.span("mmu.finish", |_| machine.finish());
        tracer.span("workloads.drop", |_| drop(workload));
        TracedRun {
            record: RunRecord {
                spec: *spec,
                result,
            },
            pages_mapped,
            drive_ms,
        }
    })
}

/// What a probe measured, keyed by the metric each value becomes.
#[derive(Default)]
pub struct Probes {
    /// Host times, to be calibrated by the brackets around the probe.
    pub timed: Vec<(&'static str, f64)>,
    /// Ratios and sizes, reported as they are.
    pub plain: Vec<(&'static str, f64)>,
}

impl Probes {
    /// The timed value named `metric` (0 if the probe never got that far).
    pub fn timed(&self, metric: &str) -> f64 {
        let found = self.timed.iter().find(|(name, _)| *name == metric);
        found.map_or(0.0, |&(_, v)| v)
    }
}

const TOUCHES: u64 = 200_000;
const HIER_ACCESSES: u64 = 300_000;
const HIER_SPAN_BYTES: u64 = 64 << 20;
const TELEMETRY_INTERVAL: u64 = 10_000;

/// Times the generator, `vm.touch`, the machine under replay and the cache
/// hierarchy for `spec` (a baseline spec), and what interval sampling and
/// tracing add to a run of it.
pub fn probe_sim(
    spec: &RunSpec,
    config: &MachineConfig,
    round: u64,
    tracer: &mut Tracer,
) -> Probes {
    tracer.span("probe.sim", |tracer| {
        let instr = spec.warmup_instr + spec.budget_instr;
        let policy = BackingPolicy::uniform(spec.page_size);

        // Generator alone: the model's access stream into a counting sink.
        let mut model = spec.workload.build_model(spec.nominal_footprint, spec.seed);
        let mut space = AddressSpace::new(policy);
        model.setup(&mut space).expect("probe setup allocates");
        let mut sink = CountingSink::with_budget(instr);
        let ((), gen_ms) = tracer.timed("workloads.gen", |_| model.run(&mut sink));
        let accesses = (sink.loads + sink.stores).max(1) as f64;

        // vm.touch on the space the model just faulted in.
        let segment = space
            .segments()
            .iter()
            .max_by_key(|s| s.len())
            .expect("a set-up model has segments")
            .clone();
        let mut lcg = Lcg(spec.seed);
        let ((), touch_ms) = tracer.timed("vm.touch", |_| {
            for _ in 0..TOUCHES {
                let va = segment.base().add(lcg.next() % segment.len());
                black_box(space.touch(va).expect("address inside the segment"));
            }
        });
        drop(space);

        // The machine without the generator: record the same stream once,
        // replay it into a fresh machine.
        let mut model = spec.workload.build_model(spec.nominal_footprint, spec.seed);
        let mut machine = ArchMachine::<BaselineArch>::new(*config, policy, model.profile());
        model
            .setup(machine.space_mut())
            .expect("probe setup allocates");
        let mut counting = CountingSink::with_budget(instr);
        let mut recorder = RecordingSink::new(&mut counting);
        model.run(&mut recorder);
        let trace = recorder.into_trace();
        machine.set_limits(spec.warmup_instr, spec.budget_instr);
        let (_, replay_ms) = tracer.timed("mmu.replay", |_| trace.replay(&mut machine));
        black_box(machine.finish());
        drop(trace);

        // The cache hierarchy alone.
        let mut caches = CacheHierarchy::new(config.hierarchy);
        let mut lcg = Lcg(1);
        let ((), hier_ms) = tracer.timed("cache.hier", |_| {
            for _ in 0..HIER_ACCESSES {
                let paddr = PhysAddr::new((lcg.next() % HIER_SPAN_BYTES) & !63);
                black_box(caches.access(paddr, AccessKind::Data));
            }
        });

        // The same spec three more ways: plain, with interval sampling on,
        // and as the traced body. Whichever runs first finds colder caches
        // and a colder allocator than the next (measured: 9-18 % slower), so
        // an untimed run goes first and the order of the three rotates with
        // the round; the medians over rounds then isolate what sampling and
        // tracing add.
        black_box(execute_run(spec, config));
        let handle = TelemetryHandle::sampling_only(TELEMETRY_INTERVAL);
        let mut run_ms = [0.0; 3];
        for k in 0..3 {
            let way = ((round + k) % 3) as usize;
            let t = Instant::now();
            match way {
                0 => drop(tracer.span("core.execute_run", |_| execute_run(spec, config))),
                1 => drop(tracer.span("telemetry.run", |_| {
                    execute_run_with_telemetry(spec, config, Some(&handle))
                })),
                _ => drop(traced_run(spec, config, tracer)),
            }
            run_ms[way] = ms_since(t);
        }
        let [plain_ms, telemetry_ms, traced_ms] = run_ms;

        let ns_each = |ms: f64, n: f64| ms * 1e6 / n;
        Probes {
            timed: vec![
                ("workloads.gen_ns_per_access", ns_each(gen_ms, accesses)),
                ("vm.touch_ns", ns_each(touch_ms, TOUCHES as f64)),
                ("mmu.replay_ns_per_access", ns_each(replay_ms, accesses)),
                (
                    "cache.hier_ns_per_access",
                    ns_each(hier_ms, HIER_ACCESSES as f64),
                ),
            ],
            plain: vec![
                (
                    "telemetry.enabled_overhead_share",
                    telemetry_ms / plain_ms - 1.0,
                ),
                ("trace.overhead_share", traced_ms / plain_ms - 1.0),
            ],
        }
    })
}

/// Drive-time ratio of each non-baseline architecture to the baseline on
/// one small fixed-shape spec.
pub fn probe_arch_ratios(seed: u64, config: &MachineConfig, tracer: &mut Tracer) -> Probes {
    tracer.span("probe.arch", |tracer| {
        let spec = RunSpec {
            workload: WorkloadId::parse("cc-urand").expect("known workload"),
            nominal_footprint: 45 << 20,
            page_size: PageSize::Size4K,
            seed,
            warmup_instr: 10_000,
            budget_instr: 120_000,
            arch: ArchKind::Baseline,
        };
        let mut drive = |arch| traced_run(&spec.with_arch(arch), config, tracer).drive_ms;
        let base = drive(ArchKind::Baseline);
        Probes {
            timed: Vec::new(),
            plain: vec![
                (
                    "mmu.arch_drive_ratio.victima",
                    drive(ArchKind::Victima) / base,
                ),
                (
                    "mmu.arch_drive_ratio.dram-cache",
                    drive(ArchKind::DramCache) / base,
                ),
                ("mmu.arch_drive_ratio.no-tlb", drive(ArchKind::NoTlb) / base),
            ],
        }
    })
}

/// Runs `f(i, item)` over `items` inside a span; returns the mean
/// microseconds per item.
fn each_us<T>(
    tracer: &mut Tracer,
    span: &'static str,
    items: &[T],
    mut f: impl FnMut(usize, &T),
) -> f64 {
    let ((), ms) = tracer.timed(span, |_| {
        for (i, item) in items.iter().enumerate() {
            f(i, item);
        }
    });
    ms * 1e3 / items.len().max(1) as f64
}

/// Times the record codec, a private segment store under `dir`, the cached
/// harness path and the wire codec on the round's `direct` records. Every
/// answer is checked; `dir` is removed again before returning.
pub fn probe_planes(
    records: &[RunRecord],
    config: &MachineConfig,
    dir: &Path,
    filter: &QueryFilter,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> Probes {
    tracer.span("probe.planes", |tracer| {
        let mut out = Probes::default();
        let n = records.len() as f64;

        // core: record codec and key.
        let mut bytes = Vec::with_capacity(records.len());
        let ser_us = each_us(tracer, "core.record_ser", records, |_, r| {
            bytes.push(record_bytes(r));
        });
        let de_us = each_us(tracer, "core.record_de", &bytes, |_, b| {
            black_box(serde_json::from_slice::<RunRecord>(b).expect("own bytes parse"));
        });
        let mut keys = Vec::with_capacity(records.len());
        let key_us = each_us(tracer, "core.key", records, |_, r| {
            keys.push(RunStore::key(&r.spec, config));
        });
        out.timed.extend([
            ("core.record_ser_us", ser_us),
            ("core.record_de_us", de_us),
            ("core.key_us", key_us),
        ]);
        let record_bytes_mean = bytes.iter().map(Vec::len).sum::<usize>() as f64 / n;
        out.plain.push(("core.record_bytes", record_bytes_mean));

        // results: a private segment store, then the cached harness path
        // over the same directory.
        let _ = std::fs::remove_dir_all(dir);
        let stored = StoreInputs {
            records,
            bytes: &bytes,
            keys: &keys,
        };
        if let Err(e) = probe_store(&mut out, &stored, config, dir, filter, checks, tracer) {
            checks.check(false, || e);
        }
        let _ = std::fs::remove_dir_all(dir);

        // serve: the wire codec on `Record` frames.
        let frames: Vec<Reply> = records
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Reply::Record(RecordDone {
                    id: 1,
                    index: i as u64,
                    cached: false,
                    deduped: false,
                    source: "sim".to_string(),
                    arch: r.spec.arch.to_string(),
                    record: r.clone(),
                })
            })
            .collect();
        let mut lines = Vec::with_capacity(frames.len());
        let encode_us = each_us(tracer, "serve.encode", &frames, |_, f| {
            lines.push(protocol::encode(f));
        });
        let mut decoded = true;
        let decode_us = each_us(tracer, "serve.decode", &lines, |_, l| {
            decoded &= matches!(protocol::decode::<Reply>(l), Ok(Reply::Record(_)));
        });
        checks.check(decoded, || {
            "wire codec: Record frame did not round-trip".to_string()
        });
        out.timed.extend([
            ("serve.encode_us", encode_us),
            ("serve.decode_us", decode_us),
        ]);
        let wire_bytes = lines.iter().map(|l| l.len() + 1).sum::<usize>() as f64 / n;
        out.plain.push(("serve.wire_bytes_per_record", wire_bytes));
        out
    })
}

/// The round's records with their serialised bytes and store keys.
struct StoreInputs<'a> {
    records: &'a [RunRecord],
    bytes: &'a [Vec<u8>],
    keys: &'a [String],
}

/// The `results.*` and `core.harness_hit_us` part of [`probe_planes`].
fn probe_store(
    out: &mut Probes,
    input: &StoreInputs<'_>,
    config: &MachineConfig,
    dir: &Path,
    filter: &QueryFilter,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let StoreInputs {
        records,
        bytes,
        keys,
    } = *input;
    let n = records.len() as f64;
    let seg_dir = dir.join("segments");
    let store_err = |what: &str, e: std::io::Error| format!("probe store {what}: {e}");
    let store = SegmentStore::open(&seg_dir).map_err(|e| store_err("open", e))?;

    let mut appended = true;
    let append_us = each_us(tracer, "results.append", records, |i, r| {
        appended &= store.append(&keys[i], hot_row(r), &bytes[i]).is_ok();
    });
    checks.check(appended, || "probe store: append failed".to_string());
    out.timed.push(("results.append_us", append_us));
    let wal_bytes = crate::stages::dir_bytes(&seg_dir) as f64 / n;
    out.plain.push(("results.wal_bytes_per_record", wal_bytes));

    let (sealed, seal_ms) = tracer.timed("results.seal", |_| store.seal());
    sealed.map_err(|e| store_err("seal", e))?;
    out.timed.push(("results.seal_ms", seal_ms));
    let seg_bytes: u64 = std::fs::read_dir(&seg_dir)
        .map_err(|e| store_err("list", e))?
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "seg"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    out.plain
        .push(("results.seg_bytes_per_record", seg_bytes as f64 / n));

    let mut loaded = true;
    let load_us = each_us(tracer, "results.load", keys, |i, k| {
        loaded &= store.load(k).as_deref() == Some(&bytes[i][..]);
    });
    checks.check(loaded, || {
        "probe store: load differs from append".to_string()
    });
    out.timed.push(("results.load_us", load_us));

    let expect_rows = records
        .iter()
        .filter(|r| filter.workload.as_deref() == Some(&r.spec.workload.to_string()[..]))
        .count() as u64;
    let mut counted = true;
    let query_us = each_us(tracer, "results.query", &[(); 10], |_, ()| {
        counted &= store.query(filter).count == expect_rows;
    });
    checks.check(counted, || "probe store: query row count".to_string());
    out.timed.push(("results.query_us", query_us));

    let (compacted, compact_ms) = tracer.timed("results.compact", |_| store.compact());
    compacted.map_err(|e| store_err("compact", e))?;
    out.timed.push(("results.compact_ms", compact_ms));
    drop(store);

    let (reopened, open_ms) = tracer.timed("results.open", |_| SegmentStore::open(&seg_dir));
    let reopened = reopened.map_err(|e| store_err("reopen", e))?;
    checks.check(reopened.live_len() == records.len() as u64, || {
        "probe store: rows lost across reopen".to_string()
    });
    out.timed.push(("results.open_ms", open_ms));
    drop(reopened);

    // core: the cached harness path over the same directory.
    let harness = Harness::new()
        .with_config(*config)
        .with_threads(1)
        .with_store(RunStore::open(dir).map_err(|e| store_err("harness open", e))?);
    let mut hits = true;
    let hit_us = each_us(tracer, "core.harness_hit", records, |_, r| {
        hits &= harness.run_detailed(&r.spec).1;
    });
    checks.check(hits, || {
        "probe store: harness missed a stored spec".to_string()
    });
    out.timed.push(("core.harness_hit_us", hit_us));
    Ok(())
}
