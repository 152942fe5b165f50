//! Pluggable translation architectures.
//!
//! The paper measures one hardwired MMU design (split L1 TLBs, shared L2,
//! paging-structure caches, 4-level walk). PR 10 turned that stack
//! into a *policy seam*: [`TranslationArchitecture`] abstracts the three
//! decision points of the per-access translate path — where a translation is
//! looked up, where a completed walk's result is installed, and what a PTE
//! fetch costs — so alternative designs from the related work can be swept
//! with the same engine, workloads and counters.
//!
//! Dispatch is **generic, not virtual**: the engine is
//! `ArchMachine<A: TranslationArchitecture>` and `Machine` is a type alias
//! for `ArchMachine<BaselineArch>`, so the monomorphic L1-hit fast path from
//! the hot-path restructuring compiles exactly as before (the repo
//! benchmark's `sim_minstr_per_s` reports its speed). The golden
//! conformance suite additionally proves the trait-dispatched baseline
//! produces byte-identical `RunRecord`s to the frozen reference pipeline.
//!
//! Four architectures ship:
//!
//! * [`BaselineArch`] — the paper's Table III design, bit-identical.
//! * [`VictimaArch`] — TLB-reach extension that repurposes L2 cache block
//!   capacity as a victim/extension TLB level (arxiv 2310.04158). Probed
//!   after the real hierarchy misses, at the L2 *cache* hit latency.
//! * [`DramCacheArch`] — a die-stacked DRAM cache level visible to the page
//!   walker (arxiv 2002.01073): PTE fetches that miss the SRAM hierarchy may
//!   hit in-package DRAM instead of paying the full off-package latency.
//! * [`NoTlbArch`] — software-managed limit study (arxiv 2009.06789): no
//!   TLB at all, every translation walks.
//!
//! Each architecture contributes its own counter schema, whose names are
//! written once, in its [`TranslationArchitecture::extra_counters`]; it
//! rides in `RunResult::arch_events`, and the tests pin each schema as
//! literals.

use crate::{MachineConfig, TlbHierarchy, TlbHit};
use atscale_cache::{CacheConfig, CacheResponse, HitLevel, SetAssocCache};
use atscale_vm::{PageSize, PhysAddr, VirtAddr};
use serde::{Deserialize, Serialize, Value};

/// Identifies a translation architecture in specs, records, wire messages
/// and store columns. The string forms are the stable external names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ArchKind {
    /// The paper's Table III design (the only pre-trait behaviour).
    #[default]
    Baseline,
    /// Victima-style TLB-reach extension backed by L2 cache blocks.
    Victima,
    /// Die-stacked DRAM cache under the page-table walker.
    DramCache,
    /// No TLB: software-managed translation limit study.
    NoTlb,
}

impl ArchKind {
    /// Every architecture, baseline first (sweep and report order).
    pub const ALL: [ArchKind; 4] = [
        ArchKind::Baseline,
        ArchKind::Victima,
        ArchKind::DramCache,
        ArchKind::NoTlb,
    ];

    /// The stable external name (`baseline`, `victima`, `dram-cache`,
    /// `no-tlb`) used in specs, protocol messages and store columns.
    pub const fn as_str(self) -> &'static str {
        match self {
            ArchKind::Baseline => "baseline",
            ArchKind::Victima => "victima",
            ArchKind::DramCache => "dram-cache",
            ArchKind::NoTlb => "no-tlb",
        }
    }
}

impl std::fmt::Display for ArchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for ArchKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ArchKind::ALL
            .into_iter()
            .find(|k| k.as_str() == s)
            .ok_or_else(|| {
                format!(
                    "unknown architecture `{s}` (expected one of: {})",
                    ArchKind::ALL.map(ArchKind::as_str).join(", ")
                )
            })
    }
}

// Hand-written serde: the wire/record form is the kebab-case external name,
// not the Rust variant name the derive would emit.
impl Serialize for ArchKind {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for ArchKind {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::Str(s) => s.parse().map_err(serde::Error::msg),
            other => Err(serde::Error::msg(format!(
                "expected architecture string, found {other:?}"
            ))),
        }
    }
}

/// Outcome of an architecture's translation lookup, mirroring [`TlbHit`]
/// but carrying the architecture-chosen second-level penalty so designs
/// with different second-level latencies share one engine leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchLookup {
    /// First-level hit: zero added translation latency.
    L1 {
        /// Page size of the hit entry.
        size: PageSize,
        /// Frame base payload of the hit entry.
        frame: u64,
    },
    /// Second-level hit (shared L2 TLB, or an architecture's extension
    /// level): costs `penalty` cycles, counts as a retired STLB hit.
    L2 {
        /// Page size of the hit entry.
        size: PageSize,
        /// Frame base payload of the hit entry.
        frame: u64,
        /// Extra translation cycles for this hit.
        penalty: u32,
    },
    /// Missed every level: a page-table walk is required.
    Miss,
}

/// A pluggable translation architecture: the policy seam between the
/// execution engine and the translation structures.
///
/// Implementations own any extra state their design needs (extension TLB
/// arrays, a die-stacked cache directory) and mediate three decision
/// points:
///
/// 1. [`lookup`](Self::lookup) — the per-access translate path. Counting
///    contract: exactly one of the hierarchy's `l1_hits` / `l2_hits` /
///    `misses` statistics must be incremented per call, because the engine's
///    counter couplings (`tlb.misses == walks initiated`, `tlb.l2_hits >=
///    retired STLB hits`) are checked for every architecture.
/// 2. [`fill`](Self::fill) — where a completed walk installs its result.
/// 3. [`pte_fetch_latency`](Self::pte_fetch_latency) — what each PTE fetch
///    costs, given the cache hierarchy's response (the walk driver seam).
///
/// The engine calls these through generic dispatch only; none of the methods
/// may assume a particular call site (retired vs wrong-path accesses both
/// route through the same `lookup`/`fill`).
pub trait TranslationArchitecture: std::fmt::Debug + Send + Sized + 'static {
    /// The kind tag for specs, records and reports.
    const KIND: ArchKind;

    /// Builds the architecture's private state from the machine config.
    fn new(config: &MachineConfig) -> Self;

    /// Translates `va`, updating hierarchy statistics per the counting
    /// contract above.
    fn lookup(&mut self, tlbs: &mut TlbHierarchy, va: VirtAddr) -> ArchLookup;

    /// Installs a completed translation.
    fn fill(&mut self, tlbs: &mut TlbHierarchy, va: VirtAddr, size: PageSize, frame_base: u64);

    /// Cycles one PTE fetch costs, given the hierarchy's response. The
    /// default charges exactly the hierarchy latency (baseline behaviour).
    #[inline]
    fn pte_fetch_latency(&mut self, _paddr: PhysAddr, response: CacheResponse) -> u64 {
        response.latency as u64
    }

    /// The architecture's extra counters, as `(name, value)` pairs: its
    /// counter schema, fixed per architecture and in a fixed order.
    /// Baseline-shaped designs return nothing.
    fn extra_counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// The paper's Table III design, expressed through the trait. Required to be
/// bit-identical to the pre-trait engine: `lookup` is exactly
/// [`TlbHierarchy::lookup_frame`] and `fill` exactly [`TlbHierarchy::fill`],
/// with no extra state.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselineArch;

impl TranslationArchitecture for BaselineArch {
    const KIND: ArchKind = ArchKind::Baseline;

    #[inline]
    fn new(_config: &MachineConfig) -> Self {
        BaselineArch
    }

    #[inline]
    fn lookup(&mut self, tlbs: &mut TlbHierarchy, va: VirtAddr) -> ArchLookup {
        match tlbs.lookup_frame(va) {
            (TlbHit::L1(size), frame) => ArchLookup::L1 { size, frame },
            (TlbHit::L2(size), frame) => ArchLookup::L2 {
                size,
                frame,
                penalty: tlbs.l2_hit_penalty(),
            },
            (TlbHit::Miss, _) => ArchLookup::Miss,
        }
    }

    #[inline]
    fn fill(&mut self, tlbs: &mut TlbHierarchy, va: VirtAddr, size: PageSize, frame_base: u64) {
        tlbs.fill(va, size, frame_base);
    }
}

/// How many TLB entries one L2 cache block (64 B) stores when repurposed as
/// TLB storage — Victima packs (tag, PPN) pairs, 8 per block.
const VICTIMA_ENTRIES_PER_BLOCK: u64 = 8;

/// Upper bound on the extension array size, so absurd cache configs cannot
/// allocate unbounded tag storage.
const VICTIMA_MAX_ENTRIES: u64 = 1 << 24;

/// Victima-style TLB-reach extension (arxiv 2310.04158): L2 cache blocks
/// hold evicted/overflowing translations, extending TLB reach to the L2
/// cache's capacity. Modelled as an extra set-associative translation array
/// sized `(L2 bytes / line) × 8` entries, probed after the real hierarchy
/// misses and serviced at the L2 *cache* hit latency.
///
/// Counter schema: `victima.hits` (translations served by the extension),
/// `victima.fills` (installs), `victima.evictions` (installs that displaced
/// a live entry — reach exhaustion).
#[derive(Debug, Clone)]
pub struct VictimaArch {
    array: crate::TlbArray,
    /// Extra cycles for an extension hit: the L2 cache hit latency, since
    /// the entry physically lives in an L2 block.
    penalty: u32,
    hits: u64,
    fills: u64,
    evictions: u64,
}

impl TranslationArchitecture for VictimaArch {
    const KIND: ArchKind = ArchKind::Victima;

    fn new(config: &MachineConfig) -> Self {
        let l2 = &config.hierarchy.l2;
        let blocks = l2.size_bytes / l2.line_bytes as u64;
        let entries = (blocks * VICTIMA_ENTRIES_PER_BLOCK).min(VICTIMA_MAX_ENTRIES);
        let ways = VICTIMA_ENTRIES_PER_BLOCK as u32;
        let geometry = crate::TlbGeometry::new(entries as u32, ways);
        VictimaArch {
            array: crate::TlbArray::new(geometry),
            penalty: config.hierarchy.latency.l2,
            hits: 0,
            fills: 0,
            evictions: 0,
        }
    }

    fn lookup(&mut self, tlbs: &mut TlbHierarchy, va: VirtAddr) -> ArchLookup {
        if let Some((hit, frame)) = tlbs.lookup_frame_open(va) {
            return match hit {
                TlbHit::L1(size) => ArchLookup::L1 { size, frame },
                TlbHit::L2(size) => ArchLookup::L2 {
                    size,
                    frame,
                    penalty: tlbs.l2_hit_penalty(),
                },
                TlbHit::Miss => unreachable!("open lookup never reports a miss"),
            };
        }
        // Real hierarchy missed: probe the cache-backed extension. Like the
        // shared L2 it holds 4 KB and 2 MB entries (1 GB translations have
        // enough reach already) and promotes hits into the matching L1.
        for size in [PageSize::Size4K, PageSize::Size2M] {
            if let Some(frame) = self.array.lookup_frame(TlbHierarchy::l2_key(va, size)) {
                self.hits += 1;
                tlbs.count_l2_hit();
                tlbs.promote_l1(va, size, frame);
                return ArchLookup::L2 {
                    size,
                    frame,
                    penalty: self.penalty,
                };
            }
        }
        tlbs.count_miss();
        ArchLookup::Miss
    }

    fn fill(&mut self, tlbs: &mut TlbHierarchy, va: VirtAddr, size: PageSize, frame_base: u64) {
        tlbs.fill(va, size, frame_base);
        if size != PageSize::Size1G {
            self.fills += 1;
            if self
                .array
                .fill_frame_evicting(TlbHierarchy::l2_key(va, size), frame_base)
            {
                self.evictions += 1;
            }
        }
    }

    fn extra_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("victima.hits", self.hits),
            ("victima.fills", self.fills),
            ("victima.evictions", self.evictions),
        ]
    }
}

/// Hit latency of the die-stacked DRAM cache in core cycles: in-package
/// DRAM runs at roughly half the load-to-use latency of off-package DRAM
/// (arxiv 2002.01073 reports 2–2.5× bandwidth and ~0.5× latency at the
/// stack interface).
const DRAM_CACHE_LATENCY: u64 = 100;

/// Die-stacked DRAM cache visible to the page-table walker
/// (arxiv 2002.01073): PTE fetches that miss the SRAM hierarchy probe an
/// in-package DRAM cache before paying full memory latency. Data accesses
/// are deliberately not routed through it — the study isolates the
/// *translation-side* benefit, so walk counts stay identical to baseline
/// and only walk cycles change (a property the conformance suite asserts).
///
/// Counter schema: `dram_cache.pte_hits` / `dram_cache.pte_misses` (PTE
/// fetches that reached memory and hit / missed the stacked cache).
#[derive(Debug, Clone)]
pub struct DramCacheArch {
    cache: SetAssocCache,
    pte_hits: u64,
    pte_misses: u64,
}

/// Geometry of the stacked cache: 64 MiB, 16-way, 64 B lines — a small
/// die-stacked part, far larger than the SRAM L3 it backs.
fn dram_cache_config() -> CacheConfig {
    CacheConfig::new(64 << 20, 16, 64)
}

impl TranslationArchitecture for DramCacheArch {
    const KIND: ArchKind = ArchKind::DramCache;

    fn new(_config: &MachineConfig) -> Self {
        DramCacheArch {
            cache: SetAssocCache::new(dram_cache_config()),
            pte_hits: 0,
            pte_misses: 0,
        }
    }

    #[inline]
    fn lookup(&mut self, tlbs: &mut TlbHierarchy, va: VirtAddr) -> ArchLookup {
        BaselineArch.lookup(tlbs, va)
    }

    #[inline]
    fn fill(&mut self, tlbs: &mut TlbHierarchy, va: VirtAddr, size: PageSize, frame_base: u64) {
        tlbs.fill(va, size, frame_base);
    }

    fn pte_fetch_latency(&mut self, paddr: PhysAddr, response: CacheResponse) -> u64 {
        if response.level != HitLevel::Memory {
            return response.latency as u64;
        }
        if self.cache.access(paddr.as_u64()) {
            self.pte_hits += 1;
            // Never slower than the off-package path it short-circuits.
            DRAM_CACHE_LATENCY.min(response.latency as u64)
        } else {
            self.pte_misses += 1;
            response.latency as u64
        }
    }

    fn extra_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("dram_cache.pte_hits", self.pte_hits),
            ("dram_cache.pte_misses", self.pte_misses),
        ]
    }
}

/// Software-managed translation with no TLB (arxiv 2009.06789 limit study):
/// every translation consults the page table. The paging-structure caches
/// stay enabled — they model the software path's own top-level caching — so
/// this bounds TLB benefit, not walk-memoisation benefit.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTlbArch;

impl TranslationArchitecture for NoTlbArch {
    const KIND: ArchKind = ArchKind::NoTlb;

    #[inline]
    fn new(_config: &MachineConfig) -> Self {
        NoTlbArch
    }

    #[inline]
    fn lookup(&mut self, tlbs: &mut TlbHierarchy, _va: VirtAddr) -> ArchLookup {
        tlbs.count_miss();
        ArchLookup::Miss
    }

    #[inline]
    fn fill(&mut self, _tlbs: &mut TlbHierarchy, _va: VirtAddr, _size: PageSize, _frame: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;

    fn tlbs() -> TlbHierarchy {
        TlbHierarchy::new(MachineConfig::tiny_test().tlb)
    }

    #[test]
    fn kind_strings_round_trip() {
        for kind in ArchKind::ALL {
            assert_eq!(kind.as_str().parse::<ArchKind>(), Ok(kind));
            let v = kind.to_value();
            assert_eq!(ArchKind::from_value(&v), Ok(kind));
        }
        assert!("spectre".parse::<ArchKind>().is_err());
        assert_eq!(ArchKind::default(), ArchKind::Baseline);
    }

    #[test]
    fn baseline_lookup_matches_hierarchy_exactly() {
        let mut a = tlbs();
        let mut b = tlbs();
        let mut arch = BaselineArch;
        let addrs: Vec<VirtAddr> = (0..64).map(|i| VirtAddr::new(i << 12)).collect();
        for (i, &va) in addrs.iter().enumerate() {
            if i % 3 == 0 {
                a.fill(va, PageSize::Size4K, (i as u64) << 12);
                arch.fill(&mut b, va, PageSize::Size4K, (i as u64) << 12);
            }
            let direct = a.lookup_frame(va);
            let via_arch = arch.lookup(&mut b, va);
            let mapped = match direct {
                (TlbHit::L1(size), frame) => ArchLookup::L1 { size, frame },
                (TlbHit::L2(size), frame) => ArchLookup::L2 {
                    size,
                    frame,
                    penalty: a.l2_hit_penalty(),
                },
                (TlbHit::Miss, _) => ArchLookup::Miss,
            };
            assert_eq!(via_arch, mapped, "access {i}");
            assert_eq!(a.stats(), b.stats(), "stats diverged at access {i}");
        }
        assert!(arch.extra_counters().is_empty());
    }

    #[test]
    fn victima_extends_reach_past_the_shared_l2() {
        let config = MachineConfig::tiny_test();
        let mut tlbs = TlbHierarchy::new(config.tlb);
        let mut arch = VictimaArch::new(&config);
        // tiny_test shared L2 holds 32 entries, the extension
        // (1024 B / 64 B) * 8 = 128. Uniform-4K traffic uses only every
        // other set (the size-tag bit of the L2 key is 0), so effective 4K
        // reach is 16 entries for the shared L2 and 64 for the extension.
        // Fill 40 distinct pages: the early ones fall out of both L1 and
        // the shared L2 but stay within the extension's reach.
        for i in 0..40u64 {
            arch.fill(&mut tlbs, VirtAddr::new(i << 12), PageSize::Size4K, i << 12);
        }
        let before = tlbs.stats();
        let hit = arch.lookup(&mut tlbs, VirtAddr::new(0));
        assert_eq!(
            hit,
            ArchLookup::L2 {
                size: PageSize::Size4K,
                frame: 0,
                penalty: config.hierarchy.latency.l2,
            },
            "page 0 must be served by the extension"
        );
        assert_eq!(arch.extra_counters()[0], ("victima.hits", 1));
        assert_eq!(tlbs.stats().l2_hits, before.l2_hits + 1);
        // The hit promoted into L1.
        assert!(matches!(
            arch.lookup(&mut tlbs, VirtAddr::new(0)),
            ArchLookup::L1 { .. }
        ));
        let counters: std::collections::HashMap<_, _> = arch.extra_counters().into_iter().collect();
        assert_eq!(counters["victima.fills"], 40);
        assert_eq!(
            counters["victima.evictions"], 0,
            "64-entry 4K reach not yet exhausted"
        );
    }

    #[test]
    fn victima_counts_evictions_once_reach_is_exhausted() {
        let config = MachineConfig::tiny_test();
        let mut tlbs = TlbHierarchy::new(config.tlb);
        let mut arch = VictimaArch::new(&config);
        for i in 0..512u64 {
            arch.fill(&mut tlbs, VirtAddr::new(i << 12), PageSize::Size4K, i << 12);
        }
        let counters: std::collections::HashMap<_, _> = arch.extra_counters().into_iter().collect();
        assert_eq!(counters["victima.fills"], 512);
        assert_eq!(
            counters["victima.evictions"],
            512 - 64,
            "fills beyond the extension's effective 4K reach (64 entries) evict"
        );
    }

    #[test]
    fn victima_ignores_one_gig_pages() {
        let config = MachineConfig::tiny_test();
        let mut tlbs = TlbHierarchy::new(config.tlb);
        let mut arch = VictimaArch::new(&config);
        arch.fill(&mut tlbs, VirtAddr::new(0), PageSize::Size1G, 0);
        assert!(arch.extra_counters().iter().all(|&(_, v)| v == 0));
    }

    #[test]
    fn no_tlb_always_misses_and_never_fills() {
        let mut t = tlbs();
        let mut arch = NoTlbArch;
        let va = VirtAddr::new(0x5000);
        assert_eq!(arch.lookup(&mut t, va), ArchLookup::Miss);
        arch.fill(&mut t, va, PageSize::Size4K, 0x9000);
        assert_eq!(arch.lookup(&mut t, va), ArchLookup::Miss);
        assert_eq!(t.stats().misses, 2);
        assert_eq!(t.stats().l1_hits + t.stats().l2_hits, 0);
        assert!(arch.extra_counters().is_empty());
    }

    #[test]
    fn dram_cache_halves_repeat_memory_fetch_latency() {
        let config = MachineConfig::haswell();
        let mut arch = DramCacheArch::new(&config);
        let paddr = PhysAddr::new(0x10_0000);
        let memory = CacheResponse {
            level: HitLevel::Memory,
            latency: config.hierarchy.latency.memory,
        };
        // First fetch misses the stacked cache: full memory latency.
        assert_eq!(
            arch.pte_fetch_latency(paddr, memory),
            config.hierarchy.latency.memory as u64
        );
        // Second fetch hits it: the stacked latency.
        assert_eq!(arch.pte_fetch_latency(paddr, memory), DRAM_CACHE_LATENCY);
        // SRAM hits are untouched.
        let l2 = CacheResponse {
            level: HitLevel::L2,
            latency: config.hierarchy.latency.l2,
        };
        assert_eq!(
            arch.pte_fetch_latency(paddr, l2),
            config.hierarchy.latency.l2 as u64
        );
        let counters: std::collections::HashMap<_, _> = arch.extra_counters().into_iter().collect();
        assert_eq!(counters["dram_cache.pte_hits"], 1);
        assert_eq!(counters["dram_cache.pte_misses"], 1);
    }

    #[test]
    fn dram_cache_never_exceeds_the_memory_latency() {
        let config = MachineConfig::haswell();
        let mut arch = DramCacheArch::new(&config);
        let paddr = PhysAddr::new(0x40);
        let cheap_memory = CacheResponse {
            level: HitLevel::Memory,
            latency: 50, // hypothetical config faster than the stacked part
        };
        arch.pte_fetch_latency(paddr, cheap_memory);
        assert_eq!(arch.pte_fetch_latency(paddr, cheap_memory), 50);
    }

    /// Each architecture's counter schema, pinned as literals. No `_` arm:
    /// a new architecture does not compile here until it has one.
    fn schema(kind: ArchKind) -> &'static [&'static str] {
        match kind {
            ArchKind::Baseline | ArchKind::NoTlb => &[],
            ArchKind::Victima => &["victima.hits", "victima.fills", "victima.evictions"],
            ArchKind::DramCache => &["dram_cache.pte_hits", "dram_cache.pte_misses"],
        }
    }

    #[test]
    fn schema_names_match_extra_counters() {
        let config = MachineConfig::tiny_test();
        let produced: [_; ArchKind::ALL.len()] = [
            BaselineArch::new(&config).extra_counters(),
            VictimaArch::new(&config).extra_counters(),
            DramCacheArch::new(&config).extra_counters(),
            NoTlbArch::new(&config).extra_counters(),
        ];
        for (kind, counters) in ArchKind::ALL.into_iter().zip(produced) {
            let names: Vec<&str> = counters.iter().map(|&(n, _)| n).collect();
            assert_eq!(names, schema(kind), "{kind}");
        }
    }

    /// Every kind has exactly one implementing architecture (the order
    /// `schema_names_match_extra_counters` zips against), and its schema
    /// entries are namespaced by the kind's external name.
    #[test]
    fn every_kind_has_a_schema_entry() {
        let kinds = [
            BaselineArch::KIND,
            VictimaArch::KIND,
            DramCacheArch::KIND,
            NoTlbArch::KIND,
        ];
        assert_eq!(kinds, ArchKind::ALL);
        for kind in ArchKind::ALL {
            let prefix = format!("{}.", kind.as_str().replace('-', "_"));
            for name in schema(kind) {
                assert!(name.starts_with(&prefix), "{kind}: `{name}`");
            }
        }
    }
}
