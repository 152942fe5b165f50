//! Simulated physical-memory (frame) allocation.

use crate::{PageSize, PhysAddr};
use serde::{Deserialize, Serialize};

/// A bump allocator for simulated physical memory.
///
/// Physical memory in the simulator is never actually backed by host memory;
/// frames exist only as address ranges that index the cache hierarchy. The
/// allocator therefore never frees and never runs out (the simulated machine
/// is given as much physical memory as the workload touches — the paper's
/// machines have 768 GiB and never swap).
///
/// Data pages and page-table nodes share this allocator, so PTE fetches and
/// data fetches contend for the same physically-indexed cache sets, exactly
/// the interaction the paper's Figure 8 measures.
///
/// # Example
///
/// ```
/// use atscale_vm::{FrameAllocator, PageSize};
///
/// let mut frames = FrameAllocator::new();
/// let node = frames.alloc_table_node();
/// let page = frames.alloc_page(PageSize::Size2M);
/// assert!(page.is_aligned(PageSize::Size2M.bytes()));
/// assert_ne!(node, page);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrameAllocator {
    next: u64,
    table_node_bytes: u64,
    data_bytes: u64,
}

impl FrameAllocator {
    /// Creates an empty allocator.
    ///
    /// Physical address 0 is reserved (never handed out) so that a zero
    /// physical address can be treated as a sentinel by callers.
    pub fn new() -> Self {
        FrameAllocator {
            next: 0x1000,
            table_node_bytes: 0,
            data_bytes: 0,
        }
    }

    /// Allocates one 4 KiB frame for a page-table node.
    pub fn alloc_table_node(&mut self) -> PhysAddr {
        self.table_node_bytes += 4096;
        self.alloc(4096, 4096)
    }

    /// Allocates a naturally-aligned physical page of the given size.
    pub fn alloc_page(&mut self, size: PageSize) -> PhysAddr {
        self.alloc_pages(size, 1)
    }

    /// Allocates `count` naturally-aligned, contiguous physical pages and
    /// returns the first; page `i` is at `first + i * size.bytes()`.
    ///
    /// Exactly what `count` successive [`alloc_page`](Self::alloc_page)
    /// calls hand out: a bump allocator pads for alignment once, before the
    /// first page. `count == 0` changes nothing (not even that padding) and
    /// returns the current high-water mark.
    pub fn alloc_pages(&mut self, size: PageSize, count: u64) -> PhysAddr {
        if count == 0 {
            return self.high_water_mark();
        }
        self.data_bytes += count * size.bytes();
        self.alloc(count * size.bytes(), size.bytes())
    }

    /// Total bytes handed out to page-table nodes.
    pub fn table_node_bytes(&self) -> u64 {
        self.table_node_bytes
    }

    /// Total bytes handed out to data pages.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Highest physical address handed out so far (exclusive).
    pub fn high_water_mark(&self) -> PhysAddr {
        PhysAddr::new(self.next)
    }

    fn alloc(&mut self, bytes: u64, align: u64) -> PhysAddr {
        debug_assert!(align.is_power_of_two());
        let base = (self.next + align - 1) & !(align - 1);
        self.next = base + bytes;
        PhysAddr::new(base)
    }
}

impl Default for FrameAllocator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_aligned_and_disjoint() {
        let mut frames = FrameAllocator::new();
        let a = frames.alloc_page(PageSize::Size4K);
        let b = frames.alloc_page(PageSize::Size2M);
        let c = frames.alloc_page(PageSize::Size4K);
        assert!(a.is_aligned(4096));
        assert!(b.is_aligned(PageSize::Size2M.bytes()));
        // 2 MiB page is fully disjoint from both 4 KiB neighbours.
        assert!(a.as_u64() + 4096 <= b.as_u64());
        assert!(b.as_u64() + PageSize::Size2M.bytes() <= c.as_u64());
    }

    #[test]
    fn zero_is_never_allocated() {
        let mut frames = FrameAllocator::new();
        let first = frames.alloc_table_node();
        assert_ne!(first.as_u64(), 0);
    }

    #[test]
    fn accounting_tracks_categories() {
        let mut frames = FrameAllocator::new();
        frames.alloc_table_node();
        frames.alloc_table_node();
        frames.alloc_page(PageSize::Size4K);
        assert_eq!(frames.table_node_bytes(), 8192);
        assert_eq!(frames.data_bytes(), 4096);
        assert!(frames.high_water_mark().as_u64() >= 8192 + 4096);
    }

    #[test]
    fn alloc_pages_equals_successive_alloc_page_calls() {
        for size in PageSize::ALL {
            for count in [0u64, 1, 2, 7, 512] {
                let mut bulk = FrameAllocator::new();
                let mut single = FrameAllocator::new();
                // A table node first, so superpages need alignment padding.
                assert_eq!(bulk.alloc_table_node(), single.alloc_table_node());
                let first = bulk.alloc_pages(size, count);
                for i in 0..count {
                    assert_eq!(single.alloc_page(size), first.add(i * size.bytes()));
                }
                assert_eq!(bulk.high_water_mark(), single.high_water_mark());
                assert_eq!(bulk.data_bytes(), single.data_bytes());
                // Whatever comes next lands at the same address too.
                assert_eq!(bulk.alloc_table_node(), single.alloc_table_node());
            }
        }
    }
}
