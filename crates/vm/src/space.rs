//! The simulated address space: segments + page table + demand paging.

use crate::layout::HeapLayout;
use crate::{
    BackingPolicy, CheckInvariants, FrameAllocator, PageSize, PageTable, PageTableStats, PhysAddr,
    ResolvedBacking, Segment, SegmentId, VirtAddr, VmError, WalkPath,
};

/// A successful virtual-to-physical translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The translated physical address (page frame + offset).
    pub paddr: PhysAddr,
    /// Size of the mapping's page.
    pub page_size: PageSize,
}

/// Result of [`AddressSpace::touch`]: the walk path for the address, plus
/// whether this touch demand-mapped the page (a minor fault).
#[derive(Debug, Clone, Copy)]
pub struct TouchOutcome {
    /// Root-to-leaf walk path for the containing page; its `page_size` is
    /// the size of the page backing the address.
    pub path: WalkPath,
    /// `true` if this call created the mapping (first touch).
    pub minor_fault: bool,
}

/// Aggregate statistics about an [`AddressSpace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SpaceStats {
    /// Demand-paging faults taken so far (first touches).
    pub minor_faults: u64,
    /// Faults whose backing fell back below the requested page size.
    pub fallback_faults: u64,
    /// Page-table occupancy.
    pub table: PageTableStats,
    /// Bytes of simulated physical memory backing data pages.
    pub data_bytes: u64,
    /// Bytes of simulated physical memory backing page-table nodes.
    pub table_bytes: u64,
    /// Number of allocated segments.
    pub segments: usize,
    /// Total virtual bytes reserved by segments.
    pub virtual_bytes: u64,
}

impl SpaceStats {
    /// Resident-set-size analogue: data + page-table bytes actually backed.
    ///
    /// This is the "memory footprint" quantity the paper plots sweeps
    /// against (measured in the 4 KB configuration).
    pub fn footprint_bytes(&self) -> u64 {
        self.data_bytes + self.table_bytes
    }
}

/// A simulated process address space.
///
/// Combines a [`HeapLayout`] (virtual allocation), a [`BackingPolicy`]
/// (page-size selection, paper §III-A/B), a [`PageTable`] and a
/// [`FrameAllocator`]. Pages are mapped on first touch, counting minor
/// faults, so arbitrarily large virtual allocations cost nothing until used.
///
/// # Example
///
/// ```
/// use atscale_vm::{AddressSpace, BackingPolicy, PageSize};
///
/// # fn main() -> Result<(), atscale_vm::VmError> {
/// let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size2M));
/// let seg = space.alloc_heap("edges", 64 << 20)?;
/// let first = space.touch(seg.base())?;
/// assert!(first.minor_fault);
/// assert_eq!(first.path.page_size, PageSize::Size2M);
/// let again = space.touch(seg.base().add(1024))?;
/// assert!(!again.minor_fault, "same 2 MiB page already mapped");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AddressSpace {
    policy: BackingPolicy,
    heap: HeapLayout,
    segments: Vec<Segment>,
    table: PageTable,
    frames: FrameAllocator,
    minor_faults: u64,
    fallback_faults: u64,
}

impl AddressSpace {
    /// Creates an empty address space with the given backing policy.
    pub fn new(policy: BackingPolicy) -> Self {
        let mut frames = FrameAllocator::new();
        let table = PageTable::new(&mut frames);
        AddressSpace {
            policy,
            heap: HeapLayout::new(),
            segments: Vec::new(),
            table,
            frames,
            minor_faults: 0,
            fallback_faults: 0,
        }
    }

    /// The policy this space was created with.
    pub fn policy(&self) -> BackingPolicy {
        self.policy
    }

    /// Allocates a named heap segment of `bytes` bytes and returns a copy of
    /// its descriptor. Nothing is mapped until touched.
    ///
    /// # Errors
    ///
    /// Propagates [`VmError`] from the heap allocator (zero-sized or
    /// exhausted).
    pub fn alloc_heap(&mut self, name: &str, bytes: u64) -> Result<Segment, VmError> {
        let base = self.heap.alloc(bytes, self.policy.requested())?;
        let id = SegmentId::new(self.segments.len() as u32);
        let len = (bytes + 4095) & !4095;
        let seg = Segment::new(id, name, base, len, self.policy.requested());
        self.segments.push(seg.clone());
        Ok(seg)
    }

    /// Ensures the page containing `va` is mapped (demand paging) and
    /// returns its walk path: a radix walk of the page table, and on a
    /// first touch the demand fault that maps the page.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Unmapped`] if `va` is outside every segment —
    /// the simulated equivalent of a segmentation fault.
    #[inline]
    pub fn touch(&mut self, va: VirtAddr) -> Result<TouchOutcome, VmError> {
        if let Some(path) = self.table.walk(va) {
            return Ok(TouchOutcome {
                path,
                minor_fault: false,
            });
        }
        let seg = self.segment_containing(va).ok_or(VmError::Unmapped(va))?;
        let backing = self.policy.resolve(seg, va);
        // A demand fault is a run of one page. `map_run` hands back the walk
        // path it just built, which is identical to what a fresh `walk(va)`
        // would produce (the path of a page depends only on radix indices
        // the whole page shares) — so the confirmation re-walk is skipped.
        let path = self.map_run(va.page_base(backing.size), backing, 1);
        debug_assert_eq!(
            Some(path),
            self.table.walk(va),
            "map_run must return exactly what walk({va}) sees"
        );
        Ok(TouchOutcome {
            path,
            minor_fault: true,
        })
    }

    /// Faults in `[base, base + len)` in bulk (a workload's build phase).
    ///
    /// Leaves exactly what calling [`touch`](Self::touch) at `base`,
    /// `base + 4096`, … below `base + len` would leave — the same pages on
    /// the same frames, the same page-table nodes and the same
    /// [`SpaceStats`] — but walks the range one *leaf table* at a time
    /// instead of one page at a time: the backing size is resolved and the
    /// tree descended once per run of up to 512 pages, and the cursor
    /// advances by the resolved page size, so set-up costs O(page-table
    /// nodes), not O(pages). Pages already mapped are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Unmapped`] for the first stepped address outside
    /// every segment; everything stepped over before it stays mapped.
    pub fn fault_in(&mut self, base: VirtAddr, len: u64) -> Result<(), VmError> {
        let Some(last) = len.checked_sub(1) else {
            return Ok(());
        };
        let last_step = base.add(last & !4095);
        let mut va = base;
        let failed_at = loop {
            let Some(seg) = self.segment_containing(va) else {
                break Some(va);
            };
            let backing = self.policy.resolve(seg, va);
            let (bytes, level) = (backing.size.bytes(), backing.size.leaf_level());
            let page = va.page_base(backing.size);
            let first = page.pt_index(level) as u64;
            // Pages of this size still wanted: through the last step, but
            // only those the segment has room for. Resolved sizes never grow
            // along a segment — its base is aligned to the requested size,
            // so only tails fall back — hence all of them resolve alike.
            let fit = (seg.end().as_u64() - page.as_u64()) / bytes;
            let pages = fit.min((last_step.as_u64() - page.as_u64()) / bytes + 1);
            let count = pages.min(512 - first);
            debug_assert_eq!(
                self.policy.resolve(seg, page.add((count - 1) * bytes)),
                backing,
                "backing changed inside a run of {count} pages at {page}"
            );
            self.table.reserve_nodes((first + pages).div_ceil(512));
            self.map_run(page, backing, count);
            // The first step past the run keeps `base`'s offset in its page.
            va = page.add(count * bytes + base.page_offset(PageSize::Size4K));
            if va > last_step {
                break None;
            }
        };
        if cfg!(debug_assertions) {
            self.check_invariants();
        }
        failed_at.map_or(Ok(()), |va| Err(VmError::Unmapped(va)))
    }

    /// Maps the absent pages of one run through [`PageTable::map_run`] and
    /// counts a minor fault for each; returns the first page's walk path.
    fn map_run(&mut self, page: VirtAddr, backing: ResolvedBacking, count: u64) -> WalkPath {
        let (mapped, path) = self
            .table
            .map_run(page, backing.size, count, &mut self.frames);
        self.minor_faults += mapped;
        if backing.fell_back {
            self.fallback_faults += mapped;
        }
        path
    }

    /// Translates `va` if it is mapped. Does not fault pages in.
    pub fn translate(&self, va: VirtAddr) -> Option<Translation> {
        self.table.walk(va).map(|path| Translation {
            paddr: path.frame_base.add(va.page_offset(path.page_size)),
            page_size: path.page_size,
        })
    }

    /// Returns the walk path for `va` if mapped. Does not fault pages in.
    pub fn walk(&self, va: VirtAddr) -> Option<WalkPath> {
        self.table.walk(va)
    }

    /// Hardware-faithful walk attempt: returns either the full path or the
    /// prefix fetched before a non-present entry. Does not fault pages in —
    /// this is what a *speculative* walk sees.
    pub fn probe_walk(&self, va: VirtAddr) -> crate::ProbeResult {
        self.table.probe_walk(va)
    }

    /// The segment containing `va`, if any.
    pub fn segment_containing(&self, va: VirtAddr) -> Option<&Segment> {
        // Segments are allocated at monotonically increasing bases.
        let idx = self.segments.partition_point(|s| s.base() <= va);
        idx.checked_sub(1)
            .map(|i| &self.segments[i])
            .filter(|s| s.contains(va))
    }

    /// All allocated segments, in allocation order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Aggregate statistics (faults, footprint, page-table occupancy).
    pub fn stats(&self) -> SpaceStats {
        SpaceStats {
            minor_faults: self.minor_faults,
            fallback_faults: self.fallback_faults,
            table: self.table.stats(),
            data_bytes: self.frames.data_bytes(),
            table_bytes: self.frames.table_node_bytes(),
            segments: self.segments.len(),
            virtual_bytes: self.heap.allocated_bytes(),
        }
    }
}

impl CheckInvariants for AddressSpace {
    fn check_invariants(&self) {
        self.table.check_invariants();
        let table = self.table.stats();
        crate::invariant!(
            self.frames.table_node_bytes() == table.table_bytes(),
            "frame allocator backed {} table bytes but the table occupies {}",
            self.frames.table_node_bytes(),
            table.table_bytes()
        );
        let data_bytes: u64 = PageSize::ALL
            .iter()
            .zip(table.pages_by_size)
            .map(|(size, pages)| pages * size.bytes())
            .sum();
        crate::invariant!(
            self.frames.data_bytes() == data_bytes,
            "frame allocator backed {} data bytes but mapped pages cover {}",
            self.frames.data_bytes(),
            data_bytes
        );
        crate::invariant!(
            self.minor_faults == table.total_pages(),
            "every minor fault maps exactly one page: {} faults, {} pages",
            self.minor_faults,
            table.total_pages()
        );
        crate::invariant!(
            self.fallback_faults <= self.minor_faults,
            "fallback faults ({}) are a subset of minor faults ({})",
            self.fallback_faults,
            self.minor_faults
        );
        let segment_bytes: u64 = self.segments.iter().map(Segment::len).sum();
        crate::invariant!(
            self.heap.allocated_bytes() == segment_bytes,
            "heap handed out {} bytes but segments cover {}",
            self.heap.allocated_bytes(),
            segment_bytes
        );
        for pair in self.segments.windows(2) {
            crate::invariant!(
                pair[0].end() <= pair[1].base(),
                "segments {:?} and {:?} overlap or are out of order",
                pair[0].name(),
                pair[1].name()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_paging_counts_faults_once_per_page() {
        let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
        let seg = space.alloc_heap("a", 16 << 12).unwrap();
        for i in 0..4u64 {
            let t = space.touch(seg.base().add(i * 4096)).unwrap();
            assert!(t.minor_fault);
        }
        for i in 0..4u64 {
            let t = space.touch(seg.base().add(i * 4096 + 128)).unwrap();
            assert!(!t.minor_fault);
        }
        assert_eq!(space.stats().minor_faults, 4);
    }

    #[test]
    fn out_of_segment_access_is_a_segfault() {
        let mut space = AddressSpace::new(BackingPolicy::default());
        let err = space.touch(VirtAddr::new(0xdead_0000)).unwrap_err();
        assert!(matches!(err, VmError::Unmapped(_)));
    }

    #[test]
    fn translation_preserves_page_offset() {
        let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size2M));
        let seg = space.alloc_heap("a", 4 << 21).unwrap();
        let va = seg.base().add((1 << 21) + 12345);
        space.touch(va).unwrap();
        let t = space.translate(va).unwrap();
        assert_eq!(t.page_size, PageSize::Size2M);
        assert_eq!(t.paddr.page_offset(PageSize::Size2M), 12345);
    }

    #[test]
    fn one_gig_policy_falls_back_for_small_segments() {
        let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size1G));
        let small = space.alloc_heap("small", 256 << 20).unwrap();
        let t = space.touch(small.base()).unwrap();
        assert_eq!(t.path.page_size, PageSize::Size4K);
        assert_eq!(space.stats().fallback_faults, 1);

        let big = space.alloc_heap("big", 2 << 30).unwrap();
        let t = space.touch(big.base()).unwrap();
        assert_eq!(t.path.page_size, PageSize::Size1G);
    }

    #[test]
    fn segment_lookup_finds_correct_segment() {
        let mut space = AddressSpace::new(BackingPolicy::default());
        let a = space.alloc_heap("a", 8192).unwrap();
        let b = space.alloc_heap("b", 8192).unwrap();
        assert_eq!(
            space.segment_containing(a.base().add(4096)).unwrap().name(),
            "a"
        );
        assert_eq!(space.segment_containing(b.base()).unwrap().name(), "b");
        // Guard gap between the two belongs to neither.
        assert!(space.segment_containing(a.end()).is_none());
        assert_eq!(space.segments().len(), 2);
    }

    #[test]
    fn footprint_counts_data_and_table_bytes() {
        let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
        let seg = space.alloc_heap("a", 1 << 20).unwrap();
        for i in 0..256u64 {
            space.touch(seg.base().add(i * 4096)).unwrap();
        }
        let stats = space.stats();
        assert_eq!(stats.data_bytes, 256 * 4096);
        assert!(stats.table_bytes >= 4 * 4096);
        assert_eq!(
            stats.footprint_bytes(),
            stats.data_bytes + stats.table_bytes
        );
        assert_eq!(stats.virtual_bytes, 1 << 20);
    }

    /// The page-at-a-time loop `fault_in` replaced, kept as its oracle.
    fn touch_every_4k(space: &mut AddressSpace, base: VirtAddr, len: u64) -> Result<(), VmError> {
        for off in (0..len).step_by(4096) {
            space.touch(base.add(off))?;
        }
        Ok(())
    }

    /// Two spaces with the same segments: one to fault in in bulk, one page
    /// by page.
    fn twin_spaces(policy: BackingPolicy, sizes: &[u64]) -> (AddressSpace, AddressSpace) {
        let (mut bulk, mut paged) = (AddressSpace::new(policy), AddressSpace::new(policy));
        for &bytes in sizes {
            let a = bulk.alloc_heap("s", bytes).unwrap();
            let b = paged.alloc_heap("s", bytes).unwrap();
            assert_eq!(a.base(), b.base());
        }
        (bulk, paged)
    }

    /// The statistics, plus what `stats()` cannot see: where the bump
    /// allocator stands.
    fn assert_same_private_state(bulk: &AddressSpace, paged: &AddressSpace) {
        assert_eq!(bulk.stats(), paged.stats());
        assert_eq!(
            bulk.frames.high_water_mark(),
            paged.frames.high_water_mark()
        );
        bulk.check_invariants();
    }

    #[test]
    fn fault_in_leaves_the_allocator_where_paging_would() {
        // Small and large runs with odd tails, across four segments, for
        // every backing shape.
        for policy in [
            BackingPolicy::uniform(PageSize::Size4K),
            BackingPolicy::uniform(PageSize::Size2M),
            BackingPolicy::uniform(PageSize::Size1G),
        ] {
            let sizes = [1000 * 4096, 64_536 * 4096, 4096, 131_149 * 4096 + 1];
            let (mut bulk, mut paged) = twin_spaces(policy, &sizes);
            for seg in paged.segments().to_vec() {
                bulk.fault_in(seg.base(), seg.len()).unwrap();
                touch_every_4k(&mut paged, seg.base(), seg.len()).unwrap();
                assert_same_private_state(&bulk, &paged);
            }
        }
    }

    #[test]
    fn fault_in_past_the_segment_fails_where_paging_would() {
        for offset in [0u64, 8, 4095] {
            let (mut bulk, mut paged) = twin_spaces(
                BackingPolicy::uniform(PageSize::Size2M),
                &[(3 << 21) + 3 * 4096, 8192],
            );
            let seg = paged.segments()[0].clone();
            let base = seg.base().add((2 << 21) + 4096 + offset);
            let len = 2 << 21;
            let err = bulk.fault_in(base, len).unwrap_err();
            assert_eq!(err, touch_every_4k(&mut paged, base, len).unwrap_err());
            // The guard page behind the segment, at `base`'s page offset.
            assert_eq!(err, VmError::Unmapped(seg.end().add(offset)));
            assert_same_private_state(&bulk, &paged);
            // The 2 MiB page holding `base` and the three 4 KiB tail pages.
            assert_eq!(bulk.stats().table.pages_by_size, [3, 1, 0]);
        }
    }

    #[test]
    fn fault_in_of_nothing_maps_nothing() {
        let mut space = AddressSpace::new(BackingPolicy::default());
        let seg = space.alloc_heap("a", 8192).unwrap();
        space.fault_in(seg.base(), 0).unwrap();
        // Not even an unmapped base is looked at.
        space.fault_in(VirtAddr::new(0xdead_0000), 0).unwrap();
        assert_eq!(space.stats().minor_faults, 0);
        // One byte steps once; one byte more than a page steps twice.
        space.fault_in(seg.base().add(4000), 1).unwrap();
        assert_eq!(space.stats().minor_faults, 1);
        space.fault_in(seg.base().add(4000), 4097).unwrap();
        assert_eq!(space.stats().minor_faults, 2);
    }

    #[test]
    fn walk_path_is_shorter_for_superpages() {
        let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size1G));
        let seg = space.alloc_heap("big", 2 << 30).unwrap();
        let t = space.touch(seg.base()).unwrap();
        assert_eq!(t.path.steps().len(), 2);
    }
}
