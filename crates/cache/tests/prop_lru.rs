//! Property tests checking [`atscale_cache::SetAssocCache`] against a
//! naive reference model (per-set `Vec` with explicit LRU ordering), and
//! hierarchy-level invariants.

use atscale_cache::{AccessKind, CacheConfig, CacheHierarchy, HierarchyConfig, SetAssocCache};
use atscale_vm::PhysAddr;
use proptest::prelude::*;

/// A deliberately simple, obviously-correct LRU set-associative cache.
struct ReferenceCache {
    sets: Vec<Vec<u64>>, // most-recent first
    ways: usize,
    line_shift: u32,
}

impl ReferenceCache {
    fn new(config: CacheConfig) -> Self {
        ReferenceCache {
            sets: vec![Vec::new(); config.sets() as usize],
            ways: config.ways as usize,
            line_shift: config.line_shift(),
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let block = addr >> self.line_shift;
        let set = (block % self.sets.len() as u64) as usize;
        let entries = &mut self.sets[set];
        if let Some(pos) = entries.iter().position(|&b| b == block) {
            entries.remove(pos);
            entries.insert(0, block);
            true
        } else {
            entries.insert(0, block);
            entries.truncate(self.ways);
            false
        }
    }
}

proptest! {
    /// Every access sequence produces identical hit/miss outcomes in the
    /// production cache and the reference model, on any set count and
    /// across the first tag too wide for 16 bits.
    #[test]
    fn set_assoc_cache_matches_reference(
        addrs in prop::collection::vec((0u64..(1 << 16), 0u64..3), 1..600),
        ways in 1u32..8,
        sets in 1u64..25,
    ) {
        let line = 64u32;
        let config = CacheConfig::new(sets * ways as u64 * line as u64, ways, line);
        let mut cache = SetAssocCache::new(config);
        let mut reference = ReferenceCache::new(config);
        for &(low, lift) in &addrs {
            // One access in three lands past 2^40 bytes, where no set count
            // here leaves a tag that fits in 16 bits.
            let addr = if lift == 2 { low + (1 << 40) } else { low };
            let got = cache.access(addr);
            let want = reference.access(addr);
            prop_assert_eq!(got, want, "divergence at address {:#x}", addr);
        }
        prop_assert_eq!(cache.hits() + cache.misses(), addrs.len() as u64);
    }

    /// Probing never changes behaviour: interleaving probes between
    /// accesses leaves the hit/miss sequence untouched.
    #[test]
    fn probe_is_side_effect_free(
        addrs in prop::collection::vec(0u64..(1 << 14), 1..300),
    ) {
        let config = CacheConfig::new(4096, 4, 64);
        let mut plain = SetAssocCache::new(config);
        let mut probed = SetAssocCache::new(config);
        for (i, &addr) in addrs.iter().enumerate() {
            // Probe a pseudo-random address before each access.
            let noise = (addr.rotate_left(i as u32)) ^ 0xabcd;
            let _ = probed.probe(noise);
            prop_assert_eq!(plain.access(addr), probed.access(addr));
        }
    }

    /// Hierarchy monotonicity: an immediate re-access is always an L1 hit,
    /// and latencies match the configured level latencies exactly.
    #[test]
    fn immediate_reaccess_hits_l1(addrs in prop::collection::vec(0u64..(1 << 20), 1..200)) {
        let config = HierarchyConfig::haswell();
        let mut h = CacheHierarchy::new(config);
        for &addr in &addrs {
            let first = h.access(PhysAddr::new(addr), AccessKind::Data);
            let again = h.access(PhysAddr::new(addr), AccessKind::Data);
            prop_assert_eq!(again.level, atscale_cache::HitLevel::L1);
            prop_assert_eq!(again.latency, config.latency.l1);
            let valid = [
                config.latency.l1,
                config.latency.l2,
                config.latency.l3,
                config.latency.memory,
            ];
            prop_assert!(valid.contains(&first.latency));
        }
    }

    /// Stats conservation: data + pte totals equal the number of accesses,
    /// regardless of interleaving.
    #[test]
    fn stats_conserve_access_counts(
        ops in prop::collection::vec((0u64..(1 << 18), prop::bool::ANY), 1..400),
    ) {
        let mut h = CacheHierarchy::new(HierarchyConfig::tiny());
        let mut pte_count = 0u64;
        for &(addr, is_pte) in &ops {
            let kind = if is_pte { AccessKind::PageTable } else { AccessKind::Data };
            pte_count += is_pte as u64;
            h.access(PhysAddr::new(addr), kind);
        }
        let stats = h.stats();
        prop_assert_eq!(stats.pte.total(), pte_count);
        prop_assert_eq!(stats.data.total() + stats.pte.total(), ops.len() as u64);
        let d = stats.pte_location_distribution();
        let sum = d.l1 + d.l2 + d.l3 + d.memory;
        if pte_count > 0 {
            prop_assert!((sum - 1.0).abs() < 1e-9);
        } else {
            prop_assert_eq!(sum, 0.0);
        }
    }
}
