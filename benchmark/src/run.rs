//! One benchmark run: the round loop, the checks, and the metric report.

use crate::cal::{Bracket, Calibrator, Norm, CAL_VERSION};
use crate::estimate::{calibrate, estimate, median, quantile, Slice};
use crate::layers::{probe_arch_ratios, probe_planes, probe_sim};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::mix::{Mix, PROBE_INDEX};
use crate::stages::{self, Checks, Daemon};
use crate::trace::Tracer;
use crate::{heap, Args};
use atscale::{RunRecord, RunSpec, RunStore};
use atscale_mmu::MachineConfig;
use std::collections::BTreeMap;
use std::time::Instant;

/// The time series that are *not* divided by `walk + fault`, which is what
/// every other series uses (see `AA_REPORT.md`, "Stage → calibrator").
/// Opening a small store, spawning three threads, a TCP handshake and an
/// fsync are not memory-system work: dividing them by a memory-bound kernel
/// only adds the kernel's noise (`setup_s` over ten runs per workload: 6 %
/// spread raw, 8–9 % calibrated).
const RAW_SERIES: &[&str] = &[
    "setup_s",
    "serve.store_open_ms",
    "serve.start_ms",
    "serve.connect_us",
    "results.append_us",
    "results.seal_ms",
    "results.compact_ms",
];

/// Series kept per megainstruction of `direct`; `sim_minstr_per_s` and
/// `raw.sim_minstr_per_s` are its reciprocal.
const DIRECT_MS_PER_MINSTR: &str = "direct_ms_per_minstr";

fn norm_of(key: &str) -> Norm {
    if RAW_SERIES.contains(&key) {
        Norm::Raw
    } else {
        Norm::Sum
    }
}

/// Per-round time series, keyed by the metric they become, each slice with
/// the brackets taken around it.
#[derive(Default)]
struct Series(BTreeMap<&'static str, Vec<Slice>>);

impl Series {
    fn push(&mut self, key: &'static str, raw: f64, (before, after): (Bracket, Bracket)) {
        self.0
            .entry(key)
            .or_default()
            .push(Slice { raw, before, after });
    }

    fn slices(&self, key: &str) -> &[Slice] {
        self.0.get(key).map_or(&[], Vec::as_slice)
    }

    /// Median of ratios under the series' committed normaliser.
    fn cal(&self, key: &str) -> f64 {
        estimate(self.slices(key), norm_of(key)).value
    }

    fn raw(&self, key: &str) -> f64 {
        estimate(self.slices(key), Norm::Raw).value
    }

    /// Every slice as CSV (`--explore` writes it next to the trace file so
    /// a normaliser can be judged round by round).
    fn csv(&self) -> String {
        let mut out = String::from(
            "series,slice,raw,before_walk_ms,before_fault_ms,after_walk_ms,after_fault_ms\n",
        );
        for (key, slices) in &self.0 {
            for (i, s) in slices.iter().enumerate() {
                out.push_str(&format!(
                    "{key},{i},{},{},{},{},{}\n",
                    s.raw, s.before.walk_ms, s.before.fault_ms, s.after.walk_ms, s.after.fault_ms
                ));
            }
        }
        out
    }

    /// Slices dropped for bracket disagreement, and slices in all.
    fn discards(&self) -> (usize, usize) {
        self.0.iter().fold((0, 0), |(d, n), (key, slices)| {
            let est = estimate(slices, norm_of(key));
            (d + est.discarded, n + est.kept + est.discarded)
        })
    }
}

/// Exact counts summed over the measured rounds.
#[derive(Default)]
struct Counts {
    specs: u64,
    instr: u64,
    cycles: u64,
    accesses: u64,
    walks: u64,
    stlb_misses: u64,
    walk_cycles: u64,
    aborted_walks: u64,
    l3_misses: u64,
    pte_fetches: u64,
    pte_dram: u64,
    pages_mapped: u64,
    heap_allocs: u64,
    heap_bytes: u64,
    executions: u64,
    cache_hits: u64,
}

impl Counts {
    /// Adds one round's `direct` records; returns their retired instructions.
    fn add_records(&mut self, records: &[RunRecord]) -> u64 {
        use atscale_cache::HitLevel::Memory;
        let before = self.instr;
        self.specs += records.len() as u64;
        for r in records {
            let c = &r.result.counters;
            let h = &r.result.hierarchy;
            self.instr += c.inst_retired;
            self.cycles += c.cycles;
            self.accesses += c.accesses_retired();
            self.walks += c.walks_initiated();
            self.stlb_misses += c.walks_retired();
            self.walk_cycles += c.walk_duration_cycles;
            self.aborted_walks += c.walk_outcomes().aborted;
            self.l3_misses += h.data.at(Memory) + h.pte.at(Memory);
            self.pte_fetches += h.pte.total();
            self.pte_dram += h.pte.at(Memory);
            self.pages_mapped += r.result.space.minor_faults;
        }
        self.instr - before
    }
}

/// Everything the measured rounds of a run accumulate.
#[derive(Default)]
struct Tally {
    /// Host-time series: reported as the calibrated median over rounds.
    series: Series,
    /// Unitless or exact per-round values (ratios, shares, sizes), keyed by
    /// the metric they become: reported as the median over rounds.
    plain: BTreeMap<&'static str, Vec<f64>>,
    counts: Counts,
    /// Every bracket reading.
    brackets: Vec<Bracket>,
    /// Every calibrated `req` latency sample.
    req_samples: Vec<f64>,
    /// Highest live-heap reading at the end of any stage of any round.
    stage_peak: u64,
}

impl Tally {
    fn plain(&mut self, key: &'static str, v: f64) {
        self.plain.entry(key).or_default().push(v);
    }

    /// Every metric of both tables, by name.
    fn metrics(&self, round_ms: &[f64], wall_s: f64, cal_bytes: u64) -> BTreeMap<String, f64> {
        let mut values = BTreeMap::new();
        for key in self.series.0.keys() {
            values.insert((*key).to_string(), self.series.cal(key));
        }
        for (key, v) in &self.plain {
            values.insert((*key).to_string(), median(v));
        }
        let c = &self.counts;
        let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
        let kinstr = c.instr / 1000;
        let walk: Vec<f64> = self.brackets.iter().map(|b| b.walk_ms).collect();
        let fault: Vec<f64> = self.brackets.iter().map(|b| b.fault_ms).collect();
        let (discarded, slices) = self.series.discards();
        let peak = self.stage_peak.saturating_sub(cal_bytes);
        for (name, v) in [
            (
                "sim_minstr_per_s",
                1e3 / self.series.cal(DIRECT_MS_PER_MINSTR),
            ),
            ("peak_heap_mb", peak as f64 / (1 << 20) as f64),
            ("sim_cycles_per_kinstr", per(c.cycles, kinstr)),
            ("workloads.accesses_per_kinstr", per(c.accesses, kinstr)),
            ("vm.pages_mapped_per_spec", per(c.pages_mapped, c.specs)),
            ("mmu.walks_per_kinstr", per(c.walks, kinstr)),
            ("mmu.stlb_miss_per_kinstr", per(c.stlb_misses, kinstr)),
            ("mmu.walk_cycles_per_kinstr", per(c.walk_cycles, kinstr)),
            ("mmu.aborted_walk_share", per(c.aborted_walks, c.walks)),
            ("cache.l3_miss_per_kinstr", per(c.l3_misses, kinstr)),
            ("cache.pte_dram_share", per(c.pte_dram, c.pte_fetches)),
            ("serve.cached_req_p99_us", quantile(&self.req_samples, 0.99)),
            ("serve.cached_req_samples", self.req_samples.len() as f64),
            (
                "serve.cache_hit_share",
                per(c.cache_hits, c.cache_hits + c.executions),
            ),
            ("heap.allocs_per_spec", per(c.heap_allocs, c.specs)),
            ("heap.bytes_per_spec", per(c.heap_bytes, c.specs)),
            ("cal.walk_ms", median(&walk)),
            ("cal.fault_ms", median(&fault)),
            (
                "cal.drift_share",
                (quantile(&walk, 0.9) - quantile(&walk, 0.1)) / median(&walk),
            ),
            ("cal.discard_share", discarded as f64 / slices.max(1) as f64),
            (
                "raw.sim_minstr_per_s",
                1e3 / self.series.raw(DIRECT_MS_PER_MINSTR),
            ),
            ("raw.cold_spec_ms", self.series.raw("cold_spec_ms")),
            ("raw.cached_req_us", self.series.raw("cached_req_us")),
            ("raw.wall_s", wall_s),
            ("bench.first_round_ms", round_ms[0]),
            ("bench.rounds", round_ms.len() as f64),
        ] {
            values.insert(name.to_string(), v);
        }
        values
    }

    /// Every host-time end-to-end metric under all four normalisers.
    fn explore(&self) -> Vec<(String, f64, &'static str)> {
        let mut out = Vec::new();
        for m in END_TO_END {
            let key = match m.name {
                "sim_minstr_per_s" => DIRECT_MS_PER_MINSTR,
                name => name,
            };
            let slices = self.series.slices(key);
            if slices.is_empty() {
                continue; // not a host-time metric
            }
            for norm in Norm::ALL {
                let v = estimate(slices, norm).value;
                let v = if key == m.name { v } else { 1e3 / v };
                out.push((format!("{}@{}", m.name, norm.label()), v, m.unit));
            }
        }
        out
    }
}

/// A finished run's numbers.
pub struct Report {
    args: Args,
    checks: Checks,
    values: BTreeMap<String, f64>,
    explore: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn table(&self) -> &'static [MetricDef] {
        if self.args.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(f64::NAN)
    }

    /// No check failed and every metric of this run's table is a finite
    /// number.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.table().iter().all(|m| self.value(m.name).is_finite())
    }

    /// Prints every metric by name and unit, then the result line.
    pub fn print(&self) {
        println!(
            "# atscale-benchmark {CAL_VERSION}: workload={} seed={} seconds={} trace={} rounds={} wall={:.1}s",
            self.args.workload.name(),
            self.args.seed,
            self.args.seconds,
            u8::from(self.args.trace),
            self.value("bench.rounds"),
            self.value("raw.wall_s"),
        );
        let table = self
            .table()
            .iter()
            .map(|m| (m.name.to_string(), self.value(m.name), m.unit));
        let printed: Vec<_> = table.chain(self.explore.iter().cloned()).collect();
        for (name, v, unit) in &printed {
            println!("{name:<36} {v:>16.4} {unit}");
        }
        println!(
            "# checks: {} attempted, {} failed",
            self.checks.attempted, self.checks.failed
        );
        for note in &self.checks.notes {
            println!("# FAILED: {note}");
        }
        // A non-finite value already made `correct` false; JSON has no
        // spelling for it, so it prints as 0.
        let metrics: Vec<String> = printed
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.checks.attempted.max(1),
            self.checks.failed,
            metrics.join(", ")
        );
    }
}

/// `BENCHMARK.json`, generated from the tables so the two cannot drift.
pub fn manifest() -> String {
    let rows = |defs: &[MetricDef], bounded: bool| -> String {
        let rows: Vec<String> = defs
            .iter()
            .map(|m| {
                let bound = if bounded {
                    format!(", \"bound\": {:?}", m.bound)
                } else {
                    String::new()
                };
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    m.name,
                    m.unit,
                    m.better.label()
                )
            })
            .collect();
        rows.join(",\n")
    };
    let workloads: Vec<String> = Mix::ALL
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                m.name(),
                m.why()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        RUN_SECONDS,
        workloads.join(",\n"),
        rows(END_TO_END, true),
        rows(PER_LAYER, false),
    )
}

/// The spans each traced `direct` stage is made of, and the `direct.share.*`
/// metric each becomes.
const DIRECT_SPANS: &[(&str, &str)] = &[
    ("workloads.build", "direct.share.workloads_build"),
    ("mmu.machine_new", "direct.share.mmu_machine_new"),
    ("vm.fault_in", "direct.share.vm_fault_in"),
    ("sim.drive", "direct.share.sim_drive"),
    ("mmu.finish", "direct.share.mmu_finish"),
    ("workloads.drop", "direct.share.workloads_drop"),
];

/// Milliseconds of the spans recorded since index `from`, summed by name.
fn span_sums(tracer: &Tracer, from: usize) -> BTreeMap<&'static str, f64> {
    let mut sums = BTreeMap::new();
    for span in &tracer.spans()[from..] {
        *sums.entry(span.name).or_insert(0.0) += span.ns() as f64 / 1e6;
    }
    sums
}

/// Runs the benchmark once.
///
/// # Errors
///
/// Returns text for failures that leave nothing to report: the output
/// directory cannot be prepared, or a daemon cannot be started or stopped.
pub fn run(args: &Args) -> Result<Report, String> {
    let mix = args.workload;
    let machine = MachineConfig::haswell();
    let _ = std::fs::remove_dir_all(&args.out);
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let seed_dir = args.out.join(format!("seed-{}", mix.name()));
    let store_dir = args.out.join(format!("store-{}", mix.name()));
    let probe_dir = args.out.join(format!("probe-{}", mix.name()));
    let filter = mix.query_filter();
    let seed_rows = stages::build_seed_store(&seed_dir, args.seed, &machine, &filter)?;

    let mut cal = Calibrator::new();
    cal.bracket(); // first call faults the tables in; not a reading
    heap::reset_peak();
    let mut tracer = Tracer::new(args.trace);
    let mut checks = Checks::default();
    let mut tally = Tally::default();
    let mut round_ms: Vec<f64> = Vec::new();
    let mut round_one: Option<(Vec<RunSpec>, Vec<Vec<u8>>, f64)> = None;

    let started = Instant::now();
    loop {
        let round = round_ms.len() as u64;
        let round_started = Instant::now();
        tracer.set_round(round);
        let specs = mix.specs(args.seed, round);
        let m = specs.len() as f64;
        // Round 0 pays lazy set-up (allocator growth, memo fills); it is run
        // and checked like any other but feeds no median.
        let mut scratch = Tally::default();
        let t = if round == 0 { &mut scratch } else { &mut tally };
        // Peak heap is read at the end of each stage and reset after each
        // bracket, so the calibration kernels' own arena never counts as
        // the system's.
        let mut bracket = |t: &mut Tally| {
            t.stage_peak = t.stage_peak.max(heap::snapshot().peak);
            let b = cal.bracket();
            t.brackets.push(b);
            heap::reset_peak();
            b
        };

        // Every round restarts over a fresh copy of the same seed store, so
        // each round meets the same store and rounds can be compared.
        let _ = std::fs::remove_dir_all(&store_dir);
        stages::copy_dir(&seed_dir, &store_dir)
            .map_err(|e| format!("copy seed store to {}: {e}", store_dir.display()))?;

        // restart: open the populated store, start a daemon on it, connect.
        let b0 = bracket(t);
        let (mut daemon, restart) = Daemon::restart(&store_dir, machine, &mut tracer)?;
        let b1 = bracket(t);
        t.series.push("setup_s", restart.setup_ms() / 1e3, (b0, b1));
        t.series
            .push("serve.store_open_ms", restart.open_ms, (b0, b1));
        t.series.push("serve.start_ms", restart.start_ms, (b0, b1));
        t.series
            .push("serve.connect_us", restart.connect_ms * 1e3, (b0, b1));

        // direct: in-process execute_run (its traced body in a traced run).
        let first_span = tracer.spans().len();
        let heap_before = heap::snapshot();
        let direct = stages::direct(&specs, &machine, &mut tracer, args.trace);
        let heap_after = heap::snapshot();
        let b2 = bracket(t);
        let instr = t.counts.add_records(&direct.records);
        t.counts.heap_allocs += heap_after.allocs - heap_before.allocs;
        t.counts.heap_bytes += heap_after.bytes - heap_before.bytes;
        t.series.push(
            DIRECT_MS_PER_MINSTR,
            direct.ms / (instr as f64 / 1e6),
            (b1, b2),
        );

        // cold: the same specs through the daemon, none of them cached.
        let cold_ms = stages::batch(
            "cold",
            &mut daemon,
            &specs,
            &direct.bytes,
            &mut checks,
            &mut tracer,
        );
        let b3 = bracket(t);
        if let Some(ms) = cold_ms {
            t.series.push("cold_spec_ms", ms / m, (b2, b3));
        }
        let cold_specs = if cold_ms.is_some() { specs.len() } else { 0 };

        // warm: the same batch again, every spec a cache hit.
        let warm_ms = stages::batch(
            "warm",
            &mut daemon,
            &specs,
            &direct.bytes,
            &mut checks,
            &mut tracer,
        );
        let b4 = bracket(t);
        if let Some(ms) = warm_ms {
            t.series.push("warm_spec_us", ms * 1e3 / m, (b3, b4));
        }

        // req: single-spec cached requests.
        let reqs = stages::req(&mut daemon, &specs, &direct.bytes, &mut checks, &mut tracer);
        let b5 = bracket(t);
        if !reqs.is_empty() {
            t.series.push("cached_req_us", median(&reqs), (b4, b5));
            t.req_samples.extend(reqs.iter().filter_map(|&raw| {
                let slice = Slice {
                    raw,
                    before: b4,
                    after: b5,
                };
                calibrate(&slice, norm_of("cached_req_us"))
            }));
        }

        // query: aggregate round trips, answered from the store's groups.
        let matches_filter =
            |s: &&RunSpec| filter.workload.as_deref() == Some(&s.workload.to_string()[..]);
        let expect_rows =
            seed_rows + specs[..cold_specs].iter().filter(matches_filter).count() as u64;
        let queries = stages::query(&mut daemon, &filter, expect_rows, &mut checks, &mut tracer);
        let pings = if args.trace {
            stages::ping(&mut daemon, &mut checks, &mut tracer)
        } else {
            Vec::new()
        };
        let b6 = bracket(t);
        if !queries.is_empty() {
            t.series.push("query_us", median(&queries), (b5, b6));
        }
        if !pings.is_empty() {
            t.series.push("serve.ping_us", median(&pings), (b5, b6));
        }

        // The daemon's own accounting of what it just did.
        let stats = daemon.stats();
        let hits_expected = (specs.len() + reqs.len()) as u64;
        checks.check(
            matches!(&stats, Ok(s) if s.executions == specs.len() as u64),
            || format!("daemon executions != cold specs: {stats:?}"),
        );
        checks.check(
            matches!(&stats, Ok(s) if s.cache_hits == hits_expected && s.failed == 0),
            || format!("daemon cache hits != warm + req specs ({hits_expected}): {stats:?}"),
        );
        if let Ok(s) = &stats {
            t.counts.executions += s.executions;
            t.counts.cache_hits += s.cache_hits;
        }

        if args.trace {
            // Where the direct stage's time went, by span.
            let sums = span_sums(&tracer, first_span);
            let sum = |name: &str| sums.get(name).copied().unwrap_or(0.0);
            let direct_brackets = (b1, b2);
            t.series.push(
                "workloads.build_ms",
                sum("workloads.build") / m,
                direct_brackets,
            );
            t.series.push(
                "mmu.machine_new_ms",
                sum("mmu.machine_new") / m,
                direct_brackets,
            );
            t.series
                .push("vm.fault_in_ms", sum("vm.fault_in") / m, direct_brackets);
            t.series
                .push("mmu.finish_ms", sum("mmu.finish") / m, direct_brackets);
            t.series.push(
                "vm.fault_in_ns_per_page",
                sum("vm.fault_in") * 1e6 / direct.pages_mapped.max(1) as f64,
                direct_brackets,
            );
            for (span, metric) in DIRECT_SPANS {
                t.plain(metric, sum(span) / direct.ms);
            }
            let covered: f64 = DIRECT_SPANS.iter().map(|(span, _)| sum(span)).sum();
            t.plain("trace.direct_coverage_share", covered / direct.ms);

            // One layer at a time.
            let probe_spec = specs[PROBE_INDEX];
            let sim = probe_sim(&probe_spec, &machine, round, &mut tracer);
            let b7 = bracket(t);
            let planes = probe_planes(
                &direct.records,
                &machine,
                &probe_dir,
                &filter,
                &mut checks,
                &mut tracer,
            );
            let arch = probe_arch_ratios(probe_spec.seed, &machine, &mut tracer);
            let b8 = bracket(t);
            for (probe, brackets) in [(&sim, (b6, b7)), (&planes, (b7, b8)), (&arch, (b7, b8))] {
                for &(metric, v) in &probe.timed {
                    t.series.push(metric, v, brackets);
                }
                for &(metric, v) in &probe.plain {
                    t.plain(metric, v);
                }
            }
            if let Some(cold) = cold_ms {
                // Per spec: what serving added on top of executing. A
                // difference of two large numbers wherever specs are long;
                // `many_small` is where it reads cleanly.
                let overhead_us = (cold - direct.ms) * 1e3 / m;
                t.series.push(
                    "serve.cold_overhead_us",
                    overhead_us - planes.timed("results.append_us"),
                    (b2, b3),
                );
                t.plain("cold.share.execute", (direct.ms / cold).min(1.0));
                t.plain("cold.share.serve_store", (1.0 - direct.ms / cold).max(0.0));
            }
        }

        daemon.stop()?;

        // What the round left on disk, and whether a fresh open finds it all.
        let stored = (stages::SEED_RECORDS + cold_specs) as u64;
        let disk_bytes = stages::dir_bytes(&store_dir);
        let on_disk = RunStore::open(&store_dir).map(|s| s.len() as u64);
        checks.check(matches!(on_disk, Ok(n) if n == stored), || {
            format!("store holds {on_disk:?} records after the round, expected {stored}")
        });
        t.plain("store_bytes_per_record", disk_bytes as f64 / stored as f64);

        round_ms.push(stages::ms_since(round_started));
        if round == 1 {
            round_one = Some((specs, direct.bytes, direct.ms));
        }

        // Stop when the next round, plus the closing reproducibility pass,
        // would overrun `--seconds`; always measure at least two rounds.
        let typical_ms = median(&round_ms[round_ms.len().min(2) - 1..]);
        let closing_ms = round_one.as_ref().map_or(0.0, |r| r.2);
        let elapsed_ms = stages::ms_since(started);
        if round_ms.len() >= 3 && elapsed_ms + typical_ms + closing_ms > args.seconds * 1e3 {
            break;
        }
    }

    // Same spec, same bytes: round 1's direct records, executed again now.
    if let Some((specs, bytes, _)) = &round_one {
        let again = stages::direct(specs, &machine, &mut tracer, false);
        for (i, b) in again.bytes.iter().enumerate() {
            checks.check(b == &bytes[i], || {
                format!("re-running {} gave different bytes", specs[i].label())
            });
        }
    }
    let wall_s = started.elapsed().as_secs_f64();

    if args.trace {
        let path = args.out.join(format!("trace-{}.jsonl", mix.name()));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    if args.explore {
        let path = args.out.join(format!("rounds-{}.csv", mix.name()));
        std::fs::write(&path, tally.series.csv())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    for dir in [&seed_dir, &store_dir, &probe_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }

    let values = tally.metrics(&round_ms, wall_s, cal.table_bytes());
    let mut explore = Vec::new();
    if args.explore && !args.trace {
        explore = tally.explore();
        for name in ["cal.walk_ms", "cal.fault_ms", "bench.rounds", "raw.wall_s"] {
            let unit = PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map_or("", |m| m.unit);
            explore.push((name.to_string(), values[name], unit));
        }
    }
    Ok(Report {
        args: args.clone(),
        checks,
        values,
        explore,
    })
}
