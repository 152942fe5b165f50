//! # atscale-vm — simulated x86-64 virtual memory substrate
//!
//! This crate provides the virtual-memory machinery that the rest of the
//! `atscale` reproduction is built on:
//!
//! * [`VirtAddr`] / [`PhysAddr`] — newtype address spaces that cannot be
//!   confused with one another.
//! * [`PageSize`] — the three x86-64 translation granularities (4 KiB, 2 MiB,
//!   1 GiB).
//! * [`PageTable`] — a sparse 4-level radix page table whose nodes live at
//!   simulated *physical* addresses, so a page-table walker can issue
//!   cacheable PTE fetches exactly like hardware does.
//! * [`FrameAllocator`] — a bump allocator for simulated physical memory.
//! * [`BackingPolicy`] — the page-size policy used by the paper
//!   (hugetlbfs + `glibc.malloc.hugetlb`), including the fallback rule that
//!   makes 1 GiB pages *worse* than 2 MiB pages at small footprints
//!   (paper §III-B).
//! * [`AddressSpace`] — segments, a heap, demand paging, bulk fault-in, and
//!   translation.
//! * [`invariant!`] / [`CheckInvariants`] — the debug-build runtime
//!   invariant layer used across the whole workspace (see [`invariant`]).
//!
//! Virtual footprints of hundreds of gigabytes are representable because the
//! page table is materialised only for *touched* pages: untouched regions
//! cost nothing.
//!
//! ## Example
//!
//! ```
//! use atscale_vm::{AddressSpace, BackingPolicy, PageSize, VirtAddr};
//!
//! # fn main() -> Result<(), atscale_vm::VmError> {
//! let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
//! let seg = space.alloc_heap("array", 1 << 20)?; // 1 MiB heap segment
//! let touch = space.touch(seg.base())?;          // demand-map first page
//! assert_eq!(touch.path.page_size, PageSize::Size4K);
//! assert!(space.translate(seg.base()).is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod backing;
mod error;
mod frame;
pub mod invariant;
mod layout;
mod page;
mod space;
mod table;

pub use addr::{PhysAddr, VirtAddr};
pub use backing::{BackingPolicy, ResolvedBacking};
pub use error::VmError;
pub use frame::FrameAllocator;
pub use invariant::{CheckInvariants, InvariantSummary};
pub use layout::{HeapLayout, Segment, SegmentId};
pub use page::{PageSize, PAGE_SHIFT_4K, PTE_SIZE};
pub use space::{AddressSpace, SpaceStats, TouchOutcome, Translation};
pub use table::{
    PageTable, PageTableStats, PartialWalk, ProbeResult, WalkPath, WalkStep, PT_LEVELS,
};
