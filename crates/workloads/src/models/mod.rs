//! Paper-scale access-pattern models.
//!
//! A cycle-approximate MMU study needs the *address stream* and the
//! *instruction mix* of each workload, not its computed answers. These
//! models reproduce each Table I program's memory behaviour — array
//! layouts, sequential/dependent/random access mixes, hot-set structure —
//! at any footprint, in O(1) host memory: addresses come from seeded random
//! draws, never from a materialised input. They are the
//! only implementation of each program; `atscale`'s `model_vs_kernel` test
//! checks the cc-urand model against a real connected-components kernel at
//! the footprints that kernel reaches.
//!
//! Each model's `run` is a *sampled window* of the program's steady state:
//! sequential cursors start at random positions and the stream runs until
//! the sink's instruction budget expires, mirroring how architects sample
//! long-running benchmarks. `setup` faults in the whole working set first
//! (the build phase of the real program), so the measured footprint matches
//! the nominal instance size — in bulk, one `AddressSpace::fault_in` per
//! array, which costs a step per page-table node rather than per page.

mod graph;
mod kv;
mod mcf;
mod stream;

pub use graph::{GraphGen, GraphKernel, GraphModel};
pub use kv::KvModel;
pub use mcf::McfModel;
pub use stream::StreamclusterModel;

use atscale_gen::splitmix64;
use atscale_vm::{AddressSpace, Segment, VirtAddr};
use rand::rngs::SmallRng;
use rand::Rng;

/// A model's view of one allocated segment: sequential cursor + random
/// addressing helpers, all 8-byte granular.
#[derive(Debug, Clone)]
pub(crate) struct Region {
    base: VirtAddr,
    len: u64,
    cursor: u64,
}

impl Region {
    pub(crate) fn new(seg: &Segment) -> Self {
        Region {
            base: seg.base(),
            len: seg.len(),
            cursor: 0,
        }
    }

    /// Starts the sequential cursor at a random 8-byte-aligned position
    /// (sampled-window semantics).
    pub(crate) fn randomize_cursor(&mut self, rng: &mut SmallRng) {
        self.cursor = rng.gen_range(0..self.len) & !7;
    }

    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Next sequential address, advancing by `stride` and wrapping.
    #[inline]
    pub(crate) fn seq(&mut self, stride: u64) -> VirtAddr {
        if self.cursor + stride > self.len {
            self.cursor = 0;
        }
        let va = self.base.add(self.cursor);
        self.cursor += stride;
        va
    }

    /// Address of byte offset `off` (clamped into range, 8-byte aligned).
    #[inline]
    pub(crate) fn at(&self, off: u64) -> VirtAddr {
        self.base.add((off & !7).min(self.len.saturating_sub(8)))
    }

    /// Uniformly random 8-byte slot.
    #[inline]
    pub(crate) fn random(&self, rng: &mut SmallRng) -> VirtAddr {
        self.base.add(rng.gen_range(0..self.len / 8) * 8)
    }

    /// Uniformly random start for a sequential run of `run_bytes`, clamped
    /// so the whole run stays inside the region.
    #[inline]
    pub(crate) fn random_run(&self, rng: &mut SmallRng, run_bytes: u64) -> VirtAddr {
        let span = (self.len.saturating_sub(run_bytes) / 8).max(1);
        self.base.add(rng.gen_range(0..span) * 8)
    }

    /// Address of byte offset `off`, clamped so a run of `run_bytes`
    /// starting there stays inside the region.
    #[inline]
    pub(crate) fn at_run(&self, off: u64, run_bytes: u64) -> VirtAddr {
        self.base
            .add((off & !7).min(self.len.saturating_sub(run_bytes)))
    }

    /// Deterministically scatters an index over the region's 8-byte slots.
    ///
    /// Used to place skewed-popular items (graph hubs, hot keys) at
    /// *scattered* addresses, as real data layouts do — hot items sharing
    /// pages with cold neighbours is essential to TLB behaviour.
    #[inline]
    pub(crate) fn scattered(&self, idx: u64) -> VirtAddr {
        self.base.add((splitmix64(idx) % (self.len / 8)) * 8)
    }

    /// Faults in the whole region (setup/build phase) with one bulk call —
    /// the same pages on the same frames as touching every 4 KiB of it.
    pub(crate) fn touch_all(&self, space: &mut AddressSpace) {
        space
            .fault_in(self.base, self.len)
            .expect("region lies inside its own segment");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atscale_vm::{BackingPolicy, PageSize};
    use rand::SeedableRng;

    fn region(bytes: u64) -> (AddressSpace, Region) {
        let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
        let seg = space.alloc_heap("r", bytes).unwrap();
        let r = Region::new(&seg);
        (space, r)
    }

    #[test]
    fn seq_wraps_cleanly() {
        // Segments are 4 KiB-granular, so a "32-byte" region is one page.
        let (_s, mut r) = region(32);
        assert_eq!(r.len(), 4096);
        let first = r.seq(8);
        for _ in 0..511 {
            r.seq(8);
        }
        assert_eq!(r.seq(8), first, "wraps to start");
    }

    #[test]
    fn random_and_scattered_stay_in_bounds() {
        let (_s, r) = region(4096 * 3);
        let mut rng = SmallRng::seed_from_u64(1);
        for i in 0..1000u64 {
            let a = r.random(&mut rng).as_u64();
            let b = r.scattered(i).as_u64();
            for v in [a, b] {
                assert!(v >= r.base.as_u64());
                assert!(v + 8 <= r.base.as_u64() + r.len());
            }
        }
    }

    #[test]
    fn scattered_is_deterministic_but_spread() {
        let (_s, r) = region(1 << 20);
        assert_eq!(r.scattered(5), r.scattered(5));
        let mut pages = std::collections::HashSet::new();
        for i in 0..256u64 {
            pages.insert(r.scattered(i).as_u64() >> 12);
        }
        assert!(pages.len() > 128, "hot items land on many pages");
    }

    #[test]
    fn touch_all_faults_every_page() {
        let (mut s, r) = region(4096 * 5);
        r.touch_all(&mut s);
        assert_eq!(s.stats().minor_faults, 5);
        assert_eq!(s.stats().data_bytes, 5 * 4096);
    }
}
