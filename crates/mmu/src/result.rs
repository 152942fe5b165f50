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
use serde::{Deserialize, Reader, Serialize, Writer};

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
    fn serialize(&self, out: &mut Writer) {
        let mut map = out.map();
        map.entry("counters", &self.counters);
        map.entry("tlb", &self.tlb);
        map.entry("hierarchy", &self.hierarchy);
        map.entry("space", &self.space);
        map.entry("psc_hits", &self.psc_hits);
        map.entry("psc_lookups", &self.psc_lookups);
        map.entry("page_size", &self.page_size);
        map.entry("mean_pte_latency", &self.mean_pte_latency);
        map.entry("samples", &self.samples);
        if !self.arch_events.is_empty() {
            map.entry("arch_events", &self.arch_events);
        }
        map.end();
    }
}

impl Deserialize for RunResult {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, serde::Error> {
        let (mut counters, mut tlb, mut hierarchy, mut space) = (None, None, None, None);
        let (mut psc_hits, mut psc_lookups, mut page_size) = (None, None, None);
        let (mut mean_pte_latency, mut samples, mut arch_events) = (None, None, None);
        input.map(|r, key| match key {
            "counters" => r.fill(&mut counters),
            "tlb" => r.fill(&mut tlb),
            "hierarchy" => r.fill(&mut hierarchy),
            "space" => r.fill(&mut space),
            "psc_hits" => r.fill(&mut psc_hits),
            "psc_lookups" => r.fill(&mut psc_lookups),
            "page_size" => r.fill(&mut page_size),
            "mean_pte_latency" => r.fill(&mut mean_pte_latency),
            "samples" => r.fill(&mut samples),
            "arch_events" => r.fill(&mut arch_events),
            _ => r.skip(),
        })?;
        Ok(RunResult {
            counters: serde::required(counters, "counters")?,
            tlb: serde::required(tlb, "tlb")?,
            hierarchy: serde::required(hierarchy, "hierarchy")?,
            space: serde::required(space, "space")?,
            psc_hits: serde::required(psc_hits, "psc_hits")?,
            psc_lookups: serde::required(psc_lookups, "psc_lookups")?,
            page_size: serde::required(page_size, "page_size")?,
            mean_pte_latency: serde::required(mean_pte_latency, "mean_pte_latency")?,
            samples: serde::required(samples, "samples")?,
            arch_events: arch_events.unwrap_or_default(),
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
