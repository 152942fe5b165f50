//! [`RunResult`] — everything measured by one simulated run — and its
//! hand-written wire encoding.
//!
//! This lives outside `engine.rs` deliberately: the engine module is on the
//! audit's hot-path allocation scan (rule 6), while building and encoding a
//! result is once-per-run reporting work that formats and allocates freely.

use crate::Counters;
use crate::TlbStats;
use atscale_cache::{HierarchyStats, PteLocationDistribution};
use atscale_telemetry::Sample;
use atscale_vm::{PageSize, SpaceStats};
use serde::{Deserialize, Serialize, Value};

/// Everything measured by one simulated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The software performance-counter file (Intel event semantics).
    pub counters: Counters,
    /// TLB hierarchy statistics (includes speculative lookups, like the
    /// hardware `dtlb_*` events).
    pub tlb: TlbStats,
    /// Cache-hierarchy statistics split by data/PTE.
    pub hierarchy: HierarchyStats,
    /// Address-space statistics (footprint, faults, page-table occupancy).
    pub space: SpaceStats,
    /// Paging-structure-cache hits `(pde, pdpte, pml4e)`.
    pub psc_hits: (u64, u64, u64),
    /// Paging-structure-cache lookups.
    pub psc_lookups: u64,
    /// The page size policy of the run.
    pub page_size: PageSize,
    /// Mean PTE fetch latency in cycles (Eq. 1 "walk cycles / PTW access").
    pub mean_pte_latency: f64,
    /// Interval-sampled counter series (empty unless the machine had a
    /// [`TelemetryHandle`](crate::TelemetryHandle) with a non-zero sample
    /// interval). The final sample's cumulative counters reconcile exactly
    /// with `counters`.
    pub samples: Vec<Sample>,
    /// Architecture-specific counters (`(name, value)` in the order the
    /// architecture's
    /// [`extra_counters`](crate::TranslationArchitecture::extra_counters)
    /// produces them). Empty for
    /// baseline-shaped designs — and omitted from the serialized record
    /// when empty, so baseline `RunRecord`s stay byte-identical to every
    /// pre-architecture store and benchmark baseline.
    pub arch_events: Vec<(String, u64)>,
}

/// Owns the `&'static str → String` conversion for
/// [`TranslationArchitecture::extra_counters`](crate::TranslationArchitecture::extra_counters)
/// output, keeping the allocation off the engine module's audited text.
pub(crate) fn arch_event_pairs(raw: Vec<(&'static str, u64)>) -> Vec<(String, u64)> {
    raw.into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect()
}

// Hand-written serde: identical to the former derive, except `arch_events`
// is skipped when empty (serialize) and defaulted when absent
// (deserialize). Byte-stability of baseline records is load-bearing: the
// record hash keys the store, and golden/chaos suites compare raw bytes.
impl Serialize for RunResult {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("counters".to_string(), self.counters.to_value()),
            ("tlb".to_string(), self.tlb.to_value()),
            ("hierarchy".to_string(), self.hierarchy.to_value()),
            ("space".to_string(), self.space.to_value()),
            ("psc_hits".to_string(), self.psc_hits.to_value()),
            ("psc_lookups".to_string(), self.psc_lookups.to_value()),
            ("page_size".to_string(), self.page_size.to_value()),
            (
                "mean_pte_latency".to_string(),
                self.mean_pte_latency.to_value(),
            ),
            ("samples".to_string(), self.samples.to_value()),
        ];
        if !self.arch_events.is_empty() {
            entries.push(("arch_events".to_string(), self.arch_events.to_value()));
        }
        Value::Map(entries)
    }
}

impl Deserialize for RunResult {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let entries = v.as_map()?;
        Ok(RunResult {
            counters: serde::field(entries, "counters")?,
            tlb: serde::field(entries, "tlb")?,
            hierarchy: serde::field(entries, "hierarchy")?,
            space: serde::field(entries, "space")?,
            psc_hits: serde::field(entries, "psc_hits")?,
            psc_lookups: serde::field(entries, "psc_lookups")?,
            page_size: serde::field(entries, "page_size")?,
            mean_pte_latency: serde::field(entries, "mean_pte_latency")?,
            samples: serde::field(entries, "samples")?,
            arch_events: match entries.iter().find(|(k, _)| k == "arch_events") {
                Some((_, v)) => Deserialize::from_value(v)?,
                None => Vec::new(),
            },
        })
    }
}

impl RunResult {
    /// Measured memory footprint in bytes (data + page tables actually
    /// touched) — the paper's x-axis quantity.
    pub fn footprint_bytes(&self) -> u64 {
        self.space.footprint_bytes()
    }

    /// Runtime of the measured region in cycles.
    pub fn runtime_cycles(&self) -> u64 {
        self.counters.cycles
    }

    /// Where the walker found PTEs (the paper's Figure 8 series).
    pub fn pte_location(&self) -> PteLocationDistribution {
        self.hierarchy.pte_location_distribution()
    }
}
