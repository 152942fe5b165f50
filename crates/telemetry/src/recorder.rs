//! The event payloads a [`crate::TelemetrySink`] records.
//!
//! Instrumentation sites (the MMU engine, the sweep harness) hold an
//! `Option<Arc<TelemetrySink>>`: with no sink installed the hot path pays
//! one branch; with one installed, events go to the sink, which aggregates
//! under a lock. The payload types are plain data — serializable,
//! comparable — so sampled series can be persisted alongside run records
//! and replayed into sinks from cache.

use serde::{Deserialize, Serialize};

/// The latency distributions the stack records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyMetric {
    /// Page-table walk duration in cycles (retired, wrong-path and aborted
    /// walks alike — `dtlb_misses.walk_duration` semantics per walk).
    WalkCycles,
    /// Cycles to refill the L1 TLB after a miss: the L2 hit penalty on an
    /// STLB hit, or the full walk duration on an STLB miss.
    TlbFillCycles,
    /// Harness wall-clock per run in nanoseconds (cache hits included).
    RunWallNanos,
}

impl LatencyMetric {
    /// Every metric, in JSONL emission order.
    pub const ALL: [LatencyMetric; 3] = [
        LatencyMetric::WalkCycles,
        LatencyMetric::TlbFillCycles,
        LatencyMetric::RunWallNanos,
    ];

    /// Stable snake_case name used in JSONL `hist` events.
    pub fn name(self) -> &'static str {
        match self {
            LatencyMetric::WalkCycles => "walk_cycles",
            LatencyMetric::TlbFillCycles => "tlb_fill_cycles",
            LatencyMetric::RunWallNanos => "run_wall_nanos",
        }
    }

    /// The unit of recorded values, for summary rendering.
    pub fn unit(self) -> &'static str {
        match self {
            LatencyMetric::WalkCycles | LatencyMetric::TlbFillCycles => "cycles",
            LatencyMetric::RunWallNanos => "ns",
        }
    }

    /// Parses a [`LatencyMetric::name`] back to the metric.
    pub fn parse(name: &str) -> Option<LatencyMetric> {
        LatencyMetric::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Index into per-metric arrays.
    pub(crate) fn index(self) -> usize {
        match self {
            LatencyMetric::WalkCycles => 0,
            LatencyMetric::TlbFillCycles => 1,
            LatencyMetric::RunWallNanos => 2,
        }
    }
}

/// One interval sample: the cumulative counter file at a point in the
/// measured instruction stream, plus rates derived over the interval since
/// the previous sample.
///
/// Counter values are *cumulative since measurement start*, so the final
/// sample of a run reconciles exactly with the end-of-run totals; rates
/// are *per interval*, which is what makes phase changes within a run
/// visible (the `perf stat -I` model).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Measured instructions retired at this sample point (cumulative).
    pub instr: u64,
    /// Measured cycles at this sample point (cumulative).
    pub cycles: u64,
    /// Cumulative named counters, in a fixed emission order.
    pub counters: Vec<(String, u64)>,
    /// Interval-derived rates (WCPI, STLB MPKI, walk-outcome fractions,
    /// PTE-location mix), in a fixed emission order.
    pub rates: Vec<(String, f64)>,
}

impl Sample {
    /// The cumulative value of a named counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The value of a named interval rate, if present.
    pub fn rate(&self, name: &str) -> Option<f64> {
        self.rates.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// A sweep-progress event: one run finished.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Progress {
    /// Runs completed so far, including this one.
    pub completed: usize,
    /// Total runs in the batch.
    pub total: usize,
    /// Short human label for the finished run (workload/footprint/page).
    pub label: String,
    /// Wall-clock milliseconds this run took (0 for a cache hit measured
    /// below timer resolution).
    pub wall_ms: u64,
    /// `true` if the run was served from the on-disk run cache.
    pub cached: bool,
}

impl Progress {
    /// The one-line rendering `--progress` prints to stderr.
    pub fn render(&self) -> String {
        format!(
            "[atscale] run {}/{} {} ({} ms{})",
            self.completed,
            self.total,
            self.label,
            self.wall_ms,
            if self.cached { ", cached" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_roundtrip() {
        for m in LatencyMetric::ALL {
            assert_eq!(LatencyMetric::parse(m.name()), Some(m));
            assert!(!m.unit().is_empty());
        }
        assert_eq!(LatencyMetric::parse("nope"), None);
    }

    #[test]
    fn sample_lookup_and_serde_roundtrip() {
        let s = Sample {
            instr: 1000,
            cycles: 2000,
            counters: vec![("inst_retired.any".into(), 1000)],
            rates: vec![("wcpi".into(), 0.25)],
        };
        assert_eq!(s.counter("inst_retired.any"), Some(1000));
        assert_eq!(s.counter("missing"), None);
        assert_eq!(s.rate("wcpi"), Some(0.25));
        let back: Sample = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn progress_renders_one_line() {
        let p = Progress {
            completed: 3,
            total: 21,
            label: "cc-urand 256M 4K".into(),
            wall_ms: 120,
            cached: true,
        };
        let line = p.render();
        assert!(line.contains("3/21"));
        assert!(line.contains("cached"));
        assert!(!line.contains('\n'));
    }
}
