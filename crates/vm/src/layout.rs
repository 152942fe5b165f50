//! Virtual-address-space layout: segments and the heap allocator.

use crate::{PageSize, VirtAddr, VmError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Base virtual address of the simulated heap (well inside the canonical
/// lower half, clear of a typical text/stack layout).
pub(crate) const HEAP_BASE: u64 = 0x0000_1000_0000_0000;

/// Exclusive upper bound of the heap region (16 TiB of virtual space —
/// comfortably above the paper's ~600 GB largest footprint).
pub(crate) const HEAP_END: u64 = HEAP_BASE + (16 << 40);

/// Identifier of a [`Segment`] within its [`crate::AddressSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SegmentId(u32);

impl SegmentId {
    /// Wraps a raw index.
    pub const fn new(raw: u32) -> Self {
        SegmentId(raw)
    }

    /// The raw index.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg{}", self.0)
    }
}

/// A contiguous allocated region of simulated virtual memory.
///
/// Segments are what workloads allocate their arrays into; the backing
/// policy decides per faulting page which page size maps it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Segment {
    id: SegmentId,
    name: String,
    base: VirtAddr,
    len: u64,
    requested: PageSize,
}

impl Segment {
    /// Creates a segment record. Normally produced by
    /// [`crate::AddressSpace::alloc_heap`], public for tests and tools.
    pub fn new(
        id: SegmentId,
        name: impl Into<String>,
        base: VirtAddr,
        len: u64,
        requested: PageSize,
    ) -> Self {
        Segment {
            id,
            name: name.into(),
            base,
            len,
            requested,
        }
    }

    /// The segment's identifier.
    pub fn id(&self) -> SegmentId {
        self.id
    }

    /// Human-readable name given at allocation (e.g. `"csr.offsets"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// First virtual address of the segment.
    pub fn base(&self) -> VirtAddr {
        self.base
    }

    /// Length in bytes (4 KiB-granular).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if the segment is empty (never produced by the allocator).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One-past-the-end virtual address.
    pub fn end(&self) -> VirtAddr {
        self.base.add(self.len)
    }

    /// `true` if `va` falls inside the segment.
    pub fn contains(&self, va: VirtAddr) -> bool {
        va >= self.base && va < self.end()
    }
}

/// Bump allocator for heap virtual addresses.
///
/// Segment bases are aligned to the requested page size so that the backing
/// policy can use huge pages for segment interiors; segments are separated by
/// at least one 4 KiB guard page so adjacent segments never share a page of
/// any size in practice (bases are page-size aligned).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeapLayout {
    next: u64,
    allocated: u64,
}

impl HeapLayout {
    /// Creates an empty heap.
    pub fn new() -> Self {
        HeapLayout {
            next: HEAP_BASE,
            allocated: 0,
        }
    }

    /// Reserves `bytes` of virtual space aligned for `requested` pages.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::ZeroSizedAllocation`] for `bytes == 0` and
    /// [`VmError::OutOfVirtualMemory`] if the 16 TiB heap region is full.
    pub fn alloc(&mut self, bytes: u64, requested: PageSize) -> Result<VirtAddr, VmError> {
        if bytes == 0 {
            return Err(VmError::ZeroSizedAllocation);
        }
        let align = requested.bytes();
        let base = (self.next + align - 1) & !(align - 1);
        let len = (bytes + 4095) & !4095;
        let end = base.checked_add(len).ok_or(VmError::OutOfVirtualMemory {
            requested: bytes,
            available: HEAP_END.saturating_sub(self.next),
        })?;
        if end > HEAP_END {
            return Err(VmError::OutOfVirtualMemory {
                requested: bytes,
                available: HEAP_END.saturating_sub(self.next),
            });
        }
        // Guard page between segments.
        self.next = end + 4096;
        self.allocated += len;
        Ok(VirtAddr::new(base))
    }

    /// Total bytes of virtual space handed out (excluding guard pages).
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated
    }
}

impl Default for HeapLayout {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_aligned_and_separated() {
        let mut heap = HeapLayout::new();
        let a = heap.alloc(100, PageSize::Size4K).unwrap();
        let b = heap.alloc(1 << 21, PageSize::Size2M).unwrap();
        assert!(a.is_aligned(4096));
        assert!(b.is_aligned(1 << 21));
        assert!(b.as_u64() >= a.as_u64() + 4096 + 4096, "guard page present");
    }

    #[test]
    fn zero_alloc_is_rejected() {
        let mut heap = HeapLayout::new();
        assert_eq!(
            heap.alloc(0, PageSize::Size4K),
            Err(VmError::ZeroSizedAllocation)
        );
    }

    #[test]
    fn heap_exhaustion_is_reported() {
        let mut heap = HeapLayout::new();
        let err = heap.alloc(32 << 40, PageSize::Size4K).unwrap_err();
        assert!(matches!(err, VmError::OutOfVirtualMemory { .. }));
    }

    #[test]
    fn segment_contains_and_bounds() {
        let seg = Segment::new(
            SegmentId::new(7),
            "x",
            VirtAddr::new(0x1000),
            0x2000,
            PageSize::Size4K,
        );
        assert!(seg.contains(VirtAddr::new(0x1000)));
        assert!(seg.contains(VirtAddr::new(0x2fff)));
        assert!(!seg.contains(VirtAddr::new(0x3000)));
        assert_eq!(seg.end().as_u64(), 0x3000);
        assert_eq!(seg.id().as_u32(), 7);
        assert_eq!(seg.name(), "x");
        assert!(!seg.is_empty());
    }

    #[test]
    fn allocated_bytes_rounds_to_pages() {
        let mut heap = HeapLayout::new();
        heap.alloc(1, PageSize::Size4K).unwrap();
        assert_eq!(heap.allocated_bytes(), 4096);
    }
}
