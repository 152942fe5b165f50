//! Page-backing policy: which page size backs which allocation.
//!
//! The paper (§III-A) backs all `malloc`'d memory with a chosen page size via
//! hugetlbfs plus the `glibc.malloc.hugetlb` tunable, and runs every workload
//! three times: 4 KB, 2 MB and 1 GB. Crucially (§III-B), the allocator
//! *cannot* back a region smaller than the page size with that page size —
//! those regions silently fall back to base pages. This is why 1 GB pages can
//! be *worse* than 2 MB pages at small footprints, and why the paper defines
//! its baseline as `min(t_2MB, t_1GB)`.

use crate::{PageSize, Segment, VirtAddr};
use serde::{Deserialize, Serialize};

/// The page size actually chosen to back one faulting page, plus whether the
/// policy had to fall back from the requested size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResolvedBacking {
    /// The page size that will back the faulting address.
    pub size: PageSize,
    /// `true` if `size` is smaller than the requested policy size.
    pub fell_back: bool,
}

/// Policy mapping heap allocations to a preferred page size.
///
/// # Example
///
/// ```
/// use atscale_vm::{BackingPolicy, PageSize};
///
/// let policy = BackingPolicy::uniform(PageSize::Size1G);
/// assert_eq!(policy.requested(), PageSize::Size1G);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackingPolicy {
    requested: PageSize,
}

impl BackingPolicy {
    /// Backs every heap allocation with `size` where possible.
    ///
    /// A page that cannot be backed at the requested size falls back
    /// directly to 4 KiB, modelling hugetlbfs pools (a failed huge-page
    /// allocation is satisfied by ordinary base pages — there is no
    /// intermediate 2 MiB attempt for a failed 1 GiB request in the paper's
    /// `glibc` setup).
    pub fn uniform(size: PageSize) -> Self {
        BackingPolicy { requested: size }
    }

    /// The page size this policy asks for.
    pub fn requested(&self) -> PageSize {
        self.requested
    }

    /// Resolves the page size used to back a fault at `va` inside `segment`.
    ///
    /// A page of the requested size can be used only if the
    /// naturally-aligned page of that size containing `va` lies entirely
    /// inside the segment; otherwise the fault falls back to 4 KiB.
    /// Segment bases are aligned to the policy size by the heap layout, so
    /// interior pages always qualify and only tails fall back — matching
    /// the paper's observation that small regions are the ones that lose
    /// their huge pages.
    pub fn resolve(&self, segment: &Segment, va: VirtAddr) -> ResolvedBacking {
        let base = va.page_base(self.requested).as_u64();
        let fits = base >= segment.base().as_u64()
            && base + self.requested.bytes() <= segment.end().as_u64();
        let size = if fits {
            self.requested
        } else {
            PageSize::Size4K
        };
        ResolvedBacking {
            size,
            fell_back: size != self.requested,
        }
    }
}

impl Default for BackingPolicy {
    fn default() -> Self {
        BackingPolicy::uniform(PageSize::Size4K)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SegmentId;

    fn segment(base: u64, len: u64) -> Segment {
        Segment::new(
            SegmentId::new(0),
            "test",
            VirtAddr::new(base),
            len,
            PageSize::Size4K,
        )
    }

    #[test]
    fn interior_pages_get_requested_size() {
        let policy = BackingPolicy::uniform(PageSize::Size2M);
        let seg = segment(0x4000_0000, 8 << 21); // 16 MiB, 2 MiB-aligned
        let r = policy.resolve(&seg, VirtAddr::new(0x4000_0000 + (3 << 21) + 5));
        assert_eq!(r.size, PageSize::Size2M);
        assert!(!r.fell_back);
    }

    #[test]
    fn small_region_falls_back_to_4k_under_1g_policy() {
        // The §III-B effect: a 512 MiB region cannot hold any 1 GiB page.
        let policy = BackingPolicy::uniform(PageSize::Size1G);
        let seg = segment(1 << 30, 512 << 20);
        let r = policy.resolve(&seg, VirtAddr::new((1 << 30) + 4096));
        assert_eq!(r.size, PageSize::Size4K, "strict fallback skips 2 MiB");
        assert!(r.fell_back);
    }

    #[test]
    fn segment_tail_falls_back() {
        let policy = BackingPolicy::uniform(PageSize::Size2M);
        // 2 MiB-aligned base, 2 MiB + 8 KiB long: the tail pages cannot be 2 MiB.
        let seg = segment(4 << 21, (1 << 21) + 8192);
        let interior = policy.resolve(&seg, VirtAddr::new(4 << 21));
        assert_eq!(interior.size, PageSize::Size2M);
        let tail = policy.resolve(&seg, VirtAddr::new((5 << 21) + 100));
        assert_eq!(tail.size, PageSize::Size4K);
        assert!(tail.fell_back);
    }

    #[test]
    fn base_page_policy_never_falls_back() {
        let policy = BackingPolicy::uniform(PageSize::Size4K);
        let seg = segment(0x1000, 4096);
        let r = policy.resolve(&seg, VirtAddr::new(0x1000));
        assert_eq!(r.size, PageSize::Size4K);
        assert!(!r.fell_back);
    }
}
