//! The hardware page-table walker.

use crate::{PagingStructureCaches, WalkerConfig};
use atscale_cache::{AccessKind, CacheHierarchy, CacheResponse};
use atscale_vm::{PhysAddr, VirtAddr, WalkPath, WalkStep};

/// Outcome of one page-table walk (or partial walk, if squashed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkResult {
    /// PTE fetches actually issued.
    pub accesses: u8,
    /// Cycles the walker was occupied (setup + fetch latencies), counted
    /// even for squashed walks — `dtlb_misses.walk_duration` semantics.
    pub cycles: u64,
    /// `false` if the walk was squashed before reaching the leaf.
    pub completed: bool,
}

/// Performs page-table walks against the simulated cache hierarchy, using
/// the paging-structure caches to skip upper radix levels.
///
/// The paper's machine has a single walker (Table III); the reproduction
/// likewise issues walks serially.
///
/// # Example
///
/// ```
/// use atscale_cache::{CacheHierarchy, CacheResponse, HierarchyConfig};
/// use atscale_mmu::{MmuCacheConfig, PageTableWalker, PagingStructureCaches, WalkerConfig};
/// use atscale_vm::{AddressSpace, BackingPolicy, PageSize};
///
/// # fn main() -> Result<(), atscale_vm::VmError> {
/// let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
/// let seg = space.alloc_heap("a", 1 << 20)?;
/// let touch = space.touch(seg.base())?;
///
/// let walker = PageTableWalker::new(WalkerConfig::haswell());
/// let mut psc = PagingStructureCaches::new(MmuCacheConfig::haswell());
/// let mut caches = CacheHierarchy::new(HierarchyConfig::haswell());
///
/// let latency = |_, r: CacheResponse| u64::from(r.latency);
/// let first = walker.walk(seg.base(), &touch.path, &mut psc, &mut caches, None, latency);
/// assert_eq!(first.accesses, 4); // cold: full 4-level walk
/// let second = walker.walk(seg.base(), &touch.path, &mut psc, &mut caches, None, latency);
/// assert_eq!(second.accesses, 1); // PDE cache hit: leaf fetch only
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PageTableWalker {
    config: WalkerConfig,
}

impl PageTableWalker {
    /// Creates a walker.
    pub fn new(config: WalkerConfig) -> Self {
        PageTableWalker { config }
    }

    /// Walks the page table for `va` along `path`: the paging-structure
    /// caches say how many upper levels to skip, the remaining entries are
    /// fetched, and a completed walk refills the caches from the fetched
    /// interior entries. Squashed walks do *not* fill them.
    ///
    /// `squash_after`: if `Some(t)`, the walk is abandoned once its
    /// accumulated cycles exceed `t` — modelling a pipeline squash arriving
    /// while the walk is in flight. Squashed walks still consumed walker
    /// cycles and cache bandwidth for the fetches they performed, exactly
    /// the waste the paper's §V-D quantifies.
    ///
    /// Each PTE fetch's cycle cost is decided by `pte_latency` from the
    /// hierarchy's response — the walk driver seam for translation
    /// architectures that add a level under the walker (e.g. a die-stacked
    /// DRAM cache); `|_, r| u64::from(r.latency)` charges the hierarchy
    /// latency. The fetches themselves always go through the real
    /// hierarchy so PTE/data contention stays modelled.
    pub fn walk<F>(
        &self,
        va: VirtAddr,
        path: &WalkPath,
        psc: &mut PagingStructureCaches,
        caches: &mut CacheHierarchy,
        squash_after: Option<u64>,
        pte_latency: F,
    ) -> WalkResult
    where
        F: FnMut(PhysAddr, CacheResponse) -> u64,
    {
        let leaf_level = path.leaf().level;
        let needed = psc.lookup(va, leaf_level).accesses_needed(leaf_level) as usize;
        let steps = path.steps();
        let walk = self.walk_prefix(
            &steps[steps.len() - needed..],
            caches,
            squash_after,
            pte_latency,
        );
        if walk.completed {
            psc.fill(path, va);
        }
        walk
    }

    /// Walks a *partial* path — the prefix of entries that exist for an
    /// unmapped address (see [`atscale_vm::ProbeResult::NotPresent`]) —
    /// with [`walk`](Self::walk)'s squash budget and latency hook. This is
    /// the fetch loop itself: walker setup, then one hierarchy access per
    /// step until the steps or the budget run out; [`walk`](Self::walk)
    /// runs it over the steps the paging-structure caches do not cover.
    ///
    /// Partial paths arise only on speculative paths: the walker fetches
    /// real interior entries until it discovers the non-present hole, then
    /// the walk *completes* (on hardware this would raise a fault that is
    /// suppressed because the access never retires). No TLB or
    /// paging-structure-cache fill occurs. The paging-structure caches are
    /// not consulted either — a conservative simplification that slightly
    /// overcounts fetches on a rare path.
    #[inline]
    pub fn walk_prefix<F>(
        &self,
        steps: &[WalkStep],
        caches: &mut CacheHierarchy,
        squash_after: Option<u64>,
        mut pte_latency: F,
    ) -> WalkResult
    where
        F: FnMut(PhysAddr, CacheResponse) -> u64,
    {
        let mut cycles = self.config.setup_cycles as u64;
        let mut accesses = 0u8;
        for step in steps {
            if let Some(limit) = squash_after {
                if cycles >= limit {
                    return WalkResult {
                        accesses,
                        cycles,
                        completed: false,
                    };
                }
            }
            let response = caches.access(step.entry_paddr, AccessKind::PageTable);
            cycles += pte_latency(step.entry_paddr, response);
            accesses += 1;
        }
        WalkResult {
            accesses,
            cycles,
            completed: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MmuCacheConfig;
    use atscale_cache::HierarchyConfig;
    use atscale_vm::{AddressSpace, BackingPolicy, PageSize, ProbeResult};

    struct Rig {
        space: AddressSpace,
        psc: PagingStructureCaches,
        caches: CacheHierarchy,
        walker: PageTableWalker,
    }

    /// The identity latency hook: each fetch costs the hierarchy latency.
    fn latency(_: PhysAddr, response: CacheResponse) -> u64 {
        u64::from(response.latency)
    }

    fn rig(size: PageSize) -> Rig {
        Rig {
            space: AddressSpace::new(BackingPolicy::uniform(size)),
            psc: PagingStructureCaches::new(MmuCacheConfig::haswell()),
            caches: CacheHierarchy::new(HierarchyConfig::haswell()),
            walker: PageTableWalker::new(WalkerConfig::haswell()),
        }
    }

    #[test]
    fn superpage_walks_are_shorter() {
        let mut r = rig(PageSize::Size2M);
        let seg = r.space.alloc_heap("a", 16 << 21).unwrap();
        let t = r.space.touch(seg.base()).unwrap();
        let w = r.walker.walk(
            seg.base(),
            &t.path,
            &mut r.psc,
            &mut r.caches,
            None,
            latency,
        );
        assert_eq!(w.accesses, 3);
        assert!(w.completed);
    }

    #[test]
    fn psc_warm_walks_fetch_only_the_leaf() {
        let mut r = rig(PageSize::Size4K);
        let seg = r.space.alloc_heap("a", 4 << 20).unwrap();
        let a = r.space.touch(seg.base()).unwrap();
        r.walker.walk(
            seg.base(),
            &a.path,
            &mut r.psc,
            &mut r.caches,
            None,
            latency,
        );
        // Sibling page under the same PDE.
        let vb = seg.base().add(0x2000);
        let b = r.space.touch(vb).unwrap();
        let w = r
            .walker
            .walk(vb, &b.path, &mut r.psc, &mut r.caches, None, latency);
        assert_eq!(w.accesses, 1);
    }

    #[test]
    fn walk_cycles_reflect_pte_cache_hits() {
        let mut r = rig(PageSize::Size4K);
        let seg = r.space.alloc_heap("a", 1 << 20).unwrap();
        let t = r.space.touch(seg.base()).unwrap();
        let cold = r.walker.walk(
            seg.base(),
            &t.path,
            &mut r.psc,
            &mut r.caches,
            None,
            latency,
        );
        // Second walk of the same address: 1 access, and its PTE line is hot.
        let warm = r.walker.walk(
            seg.base(),
            &t.path,
            &mut r.psc,
            &mut r.caches,
            None,
            latency,
        );
        assert!(warm.cycles < cold.cycles);
        let lat = r.caches.config().latency;
        assert_eq!(
            warm.cycles,
            WalkerConfig::haswell().setup_cycles as u64 + lat.l1 as u64
        );
    }

    #[test]
    fn squashed_walk_is_partial_and_does_not_fill_psc() {
        let mut r = rig(PageSize::Size4K);
        let seg = r.space.alloc_heap("a", 1 << 20).unwrap();
        let t = r.space.touch(seg.base()).unwrap();
        // Squash almost immediately: setup alone exceeds the budget.
        let w = r.walker.walk(
            seg.base(),
            &t.path,
            &mut r.psc,
            &mut r.caches,
            Some(1),
            latency,
        );
        assert!(!w.completed);
        assert_eq!(w.accesses, 0);
        // PSC was not filled: the next walk is still a full walk.
        let w2 = r.walker.walk(
            seg.base(),
            &t.path,
            &mut r.psc,
            &mut r.caches,
            None,
            latency,
        );
        assert_eq!(w2.accesses, 4);
    }

    #[test]
    fn partially_squashed_walk_performs_some_accesses() {
        let mut r = rig(PageSize::Size4K);
        let seg = r.space.alloc_heap("a", 1 << 20).unwrap();
        let t = r.space.touch(seg.base()).unwrap();
        // Budget for setup + roughly one DRAM fetch.
        let lat = r.caches.config().latency.memory as u64;
        let w = r.walker.walk(
            seg.base(),
            &t.path,
            &mut r.psc,
            &mut r.caches,
            Some(lat + 2),
            latency,
        );
        assert!(!w.completed);
        assert!(w.accesses >= 1 && w.accesses < 4);
        assert!(w.cycles > 0);
    }

    #[test]
    fn walk_counts_pte_accesses_in_hierarchy_stats() {
        let mut r = rig(PageSize::Size4K);
        let seg = r.space.alloc_heap("a", 1 << 20).unwrap();
        let t = r.space.touch(seg.base()).unwrap();
        r.walker.walk(
            seg.base(),
            &t.path,
            &mut r.psc,
            &mut r.caches,
            None,
            latency,
        );
        assert_eq!(r.caches.stats().pte.total(), 4);
        assert_eq!(r.caches.stats().data.total(), 0);
    }

    /// The prefix the walker fetches for a hole in the leaf table of
    /// `seg.base()`'s mapped page: all four levels.
    fn hole_prefix(r: &mut Rig) -> (WalkPath, atscale_vm::PartialWalk) {
        let seg = r.space.alloc_heap("a", 1 << 20).unwrap();
        let mapped = r.space.touch(seg.base()).unwrap().path;
        match r.space.probe_walk(seg.base().add(0x5000)) {
            ProbeResult::NotPresent { fetched } => (mapped, fetched),
            ProbeResult::Mapped(_) => panic!("the hole is unmapped"),
        }
    }

    #[test]
    fn prefix_walk_fetches_every_step_and_leaves_the_psc_cold() {
        let mut r = rig(PageSize::Size4K);
        let (mapped, fetched) = hole_prefix(&mut r);
        assert_eq!(fetched.steps().len(), 4);
        let w = r
            .walker
            .walk_prefix(fetched.steps(), &mut r.caches, None, latency);
        assert!(w.completed);
        assert_eq!(w.accesses, 4);
        assert_eq!(r.caches.stats().pte.total(), 4);
        // The PSC was not filled: a cold full walk of the mapped neighbour
        // under the same leaf table still pays full depth.
        let base = r.space.segments()[0].base();
        let full = r
            .walker
            .walk(base, &mapped, &mut r.psc, &mut r.caches, None, latency);
        assert_eq!(full.accesses, 4);
    }

    #[test]
    fn prefix_walk_stops_at_the_squash_budget() {
        let mut r = rig(PageSize::Size4K);
        let (_, fetched) = hole_prefix(&mut r);
        let w = r
            .walker
            .walk_prefix(fetched.steps(), &mut r.caches, Some(1), latency);
        assert!(!w.completed);
        assert_eq!(w.accesses, 0);
        // Budget for setup plus roughly one DRAM fetch: a partial prefix.
        let lat = r.caches.config().latency.memory as u64;
        let w = r
            .walker
            .walk_prefix(fetched.steps(), &mut r.caches, Some(lat + 2), latency);
        assert!(!w.completed);
        assert!(w.accesses >= 1 && w.accesses < 4);
    }
}
