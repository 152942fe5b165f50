//! Interval sampling of the counter file — the `perf stat -I` analogue.
//!
//! [`counter_sample`] turns two cumulative counter snapshots (now and at
//! the previous sample point) into one [`Sample`]: the full counter file
//! cumulatively, plus rates derived over the interval. The engine takes
//! these snapshots every [`TelemetryHandle::sample_interval`] retired
//! instructions, buffers them in [`MachineTelemetry`], and ships the series
//! out in [`crate::RunResult::samples`], so sampled series persist with run
//! records and reconcile exactly with end-of-run totals.

use crate::Counters;
use atscale_cache::{HitLevel, LevelCounts};
use atscale_telemetry::{LatencyMetric, Sample, TelemetrySink};
use atscale_vm::{invariant, CheckInvariants};
use std::fmt;
use std::sync::Arc;

/// Telemetry wiring for one [`crate::Machine`]: which sink receives latency
/// observations, and how often the counter file is sampled.
#[derive(Clone)]
pub struct TelemetryHandle {
    sink: Option<Arc<TelemetrySink>>,
    sample_interval: u64,
}

impl fmt::Debug for TelemetryHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetryHandle")
            .field("sink", &self.sink.is_some())
            .field("sample_interval", &self.sample_interval)
            .finish()
    }
}

impl TelemetryHandle {
    /// A handle delivering latency observations to `sink` and sampling
    /// the counter file every `sample_interval` retired instructions
    /// (0 disables sampling).
    pub fn new(sink: Arc<TelemetrySink>, sample_interval: u64) -> TelemetryHandle {
        TelemetryHandle {
            sink: Some(sink),
            sample_interval,
        }
    }

    /// A handle that samples but records no latencies (series-only use,
    /// e.g. determinism tests without a sink).
    pub fn sampling_only(sample_interval: u64) -> TelemetryHandle {
        TelemetryHandle {
            sink: None,
            sample_interval,
        }
    }

    /// The sink, if one is attached.
    pub fn sink(&self) -> Option<&Arc<TelemetrySink>> {
        self.sink.as_ref()
    }

    /// Sampling cadence in retired instructions (0 = sampling disabled).
    pub fn sample_interval(&self) -> u64 {
        self.sample_interval
    }
}

/// The fixed emission order of interval-rate names in a [`Sample`].
pub const RATE_NAMES: [&str; 11] = [
    "wcpi",
    "cpi",
    "stlb_mpki",
    "walks_pki",
    "aborted_frac",
    "wrong_path_frac",
    "minor_faults_pki",
    "pte_l1_frac",
    "pte_l2_frac",
    "pte_l3_frac",
    "pte_mem_frac",
];

fn per(delta: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        delta as f64 / base as f64
    }
}

/// Builds one interval sample from cumulative counter and PTE-location
/// snapshots taken now (`cur`) and at the previous sample point (`prev`).
///
/// The `counters` list carries every field of the counter file
/// cumulatively, [`Counters::events`] then [`Counters::truth_events`], so a
/// field the `counters!` declaration adds is sampled with no edit here;
/// `rates` carry the [`RATE_NAMES`] derived over the interval.
pub fn counter_sample(
    cur: &Counters,
    prev: &Counters,
    pte_cur: &LevelCounts,
    pte_prev: &LevelCounts,
) -> Sample {
    let counters = cur
        .events()
        .into_iter()
        .chain(cur.truth_events())
        .map(|(name, value)| (name.to_string(), value))
        .collect();

    let d_instr = cur.inst_retired.saturating_sub(prev.inst_retired);
    let d_cycles = cur.cycles.saturating_sub(prev.cycles);
    let d_walk_cycles = cur
        .walk_duration_cycles
        .saturating_sub(prev.walk_duration_cycles);
    let d_stlb_miss = cur.walks_retired().saturating_sub(prev.walks_retired());
    let d_initiated = cur.walks_initiated().saturating_sub(prev.walks_initiated());
    let cur_o = cur.walk_outcomes();
    let prev_o = prev.walk_outcomes();
    let d_aborted = cur_o.aborted.saturating_sub(prev_o.aborted);
    let d_wrong_path = cur_o.wrong_path.saturating_sub(prev_o.wrong_path);
    let d_faults = cur.minor_faults.saturating_sub(prev.minor_faults);
    let d_pte_total = pte_cur.total().saturating_sub(pte_prev.total());
    let pte_frac = |level: HitLevel| {
        per(
            pte_cur.at(level).saturating_sub(pte_prev.at(level)),
            d_pte_total,
        )
    };

    // Typed by `RATE_NAMES`: a name without a value does not compile.
    let values: [f64; RATE_NAMES.len()] = [
        per(d_walk_cycles, d_instr),
        per(d_cycles, d_instr),
        1000.0 * per(d_stlb_miss, d_instr),
        1000.0 * per(d_initiated, d_instr),
        per(d_aborted, d_initiated),
        per(d_wrong_path, d_initiated),
        1000.0 * per(d_faults, d_instr),
        pte_frac(HitLevel::L1),
        pte_frac(HitLevel::L2),
        pte_frac(HitLevel::L3),
        pte_frac(HitLevel::Memory),
    ];
    let rates = RATE_NAMES
        .iter()
        .zip(values)
        .map(|(name, value)| ((*name).to_string(), value))
        .collect();

    Sample {
        instr: cur.inst_retired,
        cycles: cur.cycles,
        counters,
        rates,
    }
}

/// Per-machine telemetry state: the engine's interval-sampler bookkeeping
/// and the buffered sample series.
#[derive(Default)]
pub(crate) struct MachineTelemetry {
    handle: Option<TelemetryHandle>,
    next_sample_at: u64,
    last_counters: Counters,
    last_pte: LevelCounts,
    samples: Vec<Sample>,
}

impl fmt::Debug for MachineTelemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MachineTelemetry")
            .field("handle", &self.handle)
            .field("samples", &self.samples.len())
            .finish_non_exhaustive()
    }
}

impl MachineTelemetry {
    pub(crate) fn install(&mut self, handle: TelemetryHandle) {
        self.next_sample_at = handle.sample_interval;
        self.handle = Some(handle);
    }

    /// The attached sink, for hot-path latency observations.
    #[inline]
    pub(crate) fn sink(&self) -> Option<&Arc<TelemetrySink>> {
        self.handle.as_ref().and_then(TelemetryHandle::sink)
    }

    /// Records a latency observation if a sink is attached.
    #[inline]
    pub(crate) fn latency(&self, metric: LatencyMetric, value: u64) {
        if let Some(sink) = self.sink() {
            sink.latency(metric, value);
        }
    }

    /// `true` once `instr_retired` has crossed the next sample boundary.
    #[inline]
    pub(crate) fn sample_due(&self, instr_retired: u64) -> bool {
        match &self.handle {
            Some(handle) => handle.sample_interval > 0 && instr_retired >= self.next_sample_at,
            None => false,
        }
    }

    /// Takes one sample from cumulative snapshots and advances the cadence
    /// past `counters.inst_retired` (bulk instruction retirement can cross
    /// several boundaries at once; they collapse into one sample).
    pub(crate) fn take_sample(&mut self, counters: &Counters, pte: &LevelCounts) {
        self.samples.push(counter_sample(
            counters,
            &self.last_counters,
            pte,
            &self.last_pte,
        ));
        self.last_counters = *counters;
        self.last_pte = *pte;
        if let Some(handle) = &self.handle {
            while self.next_sample_at <= counters.inst_retired {
                self.next_sample_at += handle.sample_interval;
            }
        }
    }

    /// Final sample at run end, unless the last boundary sample already
    /// sits exactly at the final instruction count.
    pub(crate) fn take_final_sample(&mut self, counters: &Counters, pte: &LevelCounts) {
        let sampling = self.handle.as_ref().is_some_and(|h| h.sample_interval > 0);
        if !sampling {
            return;
        }
        if self.samples.last().map(|s| s.instr) == Some(counters.inst_retired) {
            // Re-take it: `finish` syncs cycles/minor-faults that the
            // boundary snapshot may not have seen.
            self.samples.pop();
        }
        self.take_sample(counters, pte);
    }

    /// Restarts the sampler at the measurement boundary (end of warm-up).
    pub(crate) fn reset(&mut self) {
        self.samples.clear();
        self.last_counters = Counters::new();
        self.last_pte = LevelCounts::default();
        self.next_sample_at = self
            .handle
            .as_ref()
            .map_or(0, TelemetryHandle::sample_interval);
    }

    /// Hands the buffered series to [`crate::RunResult`].
    pub(crate) fn into_samples(self) -> Vec<Sample> {
        self.samples
    }
}

impl CheckInvariants for MachineTelemetry {
    fn check_invariants(&self) {
        invariant!(
            self.samples.windows(2).all(|w| w[0].instr < w[1].instr),
            "interval samples must be strictly increasing in retired instructions"
        );
        if let Some(last) = self.samples.last() {
            invariant!(
                last.instr == self.last_counters.inst_retired,
                "last sample at instr {} diverges from the sampler's snapshot at {}",
                last.instr,
                self.last_counters.inst_retired
            );
            invariant!(
                self.next_sample_at > last.instr,
                "sampler cadence ({}) has not advanced past the last sample (instr {})",
                self.next_sample_at,
                last.instr
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_carries_every_counter_and_rate() {
        let mut cur = Counters::new();
        cur.inst_retired = 1000;
        cur.cycles = 2000;
        cur.loads_retired = 400;
        cur.stlb_miss_loads = 40;
        cur.walk_initiated_loads = 50;
        cur.walk_completed_loads = 45;
        cur.walk_duration_cycles = 500;
        cur.truth_retired_walks = 40;
        cur.truth_wrong_path_walks = 5;
        cur.truth_aborted_walks = 5;
        let prev = Counters::new();
        let sample = counter_sample(
            &cur,
            &prev,
            &LevelCounts::default(),
            &LevelCounts::default(),
        );

        for (name, _) in cur.events() {
            assert!(
                sample.counter(name).is_some(),
                "event {name} missing from sample"
            );
        }
        assert_eq!(sample.counter("truth.retired_walks"), Some(40));
        assert_eq!(sample.counter("truth.aborted_walks"), Some(5));
        for name in RATE_NAMES {
            assert!(sample.rate(name).is_some(), "rate {name} missing");
        }
        assert_eq!(sample.rate("wcpi"), Some(0.5));
        assert_eq!(sample.rate("cpi"), Some(2.0));
        assert_eq!(sample.rate("stlb_mpki"), Some(40.0));
        assert_eq!(sample.rate("aborted_frac"), Some(0.1));
        assert_eq!(sample.rate("wrong_path_frac"), Some(0.1));
    }

    #[test]
    fn rates_are_interval_deltas_not_cumulative() {
        let mut prev = Counters::new();
        prev.inst_retired = 1000;
        prev.walk_duration_cycles = 900;
        let mut cur = prev;
        cur.inst_retired = 2000;
        cur.walk_duration_cycles = 1000;
        let s = counter_sample(
            &cur,
            &prev,
            &LevelCounts::default(),
            &LevelCounts::default(),
        );
        // Interval WCPI is 100/1000, not the cumulative 1000/2000.
        assert_eq!(s.rate("wcpi"), Some(0.1));
        assert_eq!(s.counter("dtlb_misses.walk_duration"), Some(1000));
    }

    #[test]
    fn sampler_cadence_collapses_bulk_retirement() {
        let mut t = MachineTelemetry::default();
        t.install(TelemetryHandle::sampling_only(100));
        assert!(!t.sample_due(99));
        assert!(t.sample_due(100));
        let mut c = Counters::new();
        c.inst_retired = 350; // one bulk jump across three boundaries
        t.take_sample(&c, &LevelCounts::default());
        assert!(!t.sample_due(399));
        assert!(t.sample_due(400));
        assert_eq!(t.into_samples().len(), 1);
    }
}
