//! Page sizes supported by x86-64 long-mode paging.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Shift of the base (4 KiB) page size.
pub const PAGE_SHIFT_4K: u64 = 12;

/// Size in bytes of one page-table entry.
pub const PTE_SIZE: u64 = 8;

/// An x86-64 translation granularity.
///
/// The three sizes correspond to leaf entries at different radix-tree levels:
///
/// | Size  | Leaf level | Walk accesses (uncached) |
/// |-------|-----------|---------------------------|
/// | 4 KiB | 1 (PT)    | 4                         |
/// | 2 MiB | 2 (PD)    | 3                         |
/// | 1 GiB | 3 (PDPT)  | 2                         |
///
/// # Example
///
/// ```
/// use atscale_vm::PageSize;
///
/// assert_eq!(PageSize::Size2M.bytes(), 2 * 1024 * 1024);
/// assert_eq!(PageSize::Size2M.leaf_level(), 2);
/// assert!(PageSize::Size1G > PageSize::Size4K);
/// ```
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize, Default,
)]
pub enum PageSize {
    /// 4 KiB base pages (leaf PTE at level 1).
    #[default]
    Size4K,
    /// 2 MiB superpages (leaf PDE at level 2).
    Size2M,
    /// 1 GiB superpages (leaf PDPTE at level 3).
    Size1G,
}

impl PageSize {
    /// All page sizes, smallest first.
    pub const ALL: [PageSize; 3] = [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G];

    /// The size of the page in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        1u64 << self.shift()
    }

    /// log2 of the page size.
    #[inline]
    pub const fn shift(self) -> u64 {
        match self {
            PageSize::Size4K => 12,
            PageSize::Size2M => 21,
            PageSize::Size1G => 30,
        }
    }

    /// The radix-tree level at which the leaf entry for this page size lives
    /// (1 = PT, 2 = PD, 3 = PDPT).
    #[inline]
    pub const fn leaf_level(self) -> u8 {
        match self {
            PageSize::Size4K => 1,
            PageSize::Size2M => 2,
            PageSize::Size1G => 3,
        }
    }

    /// Number of page-table accesses a full (completely uncached) walk needs
    /// to find the leaf entry for this page size.
    #[inline]
    pub const fn full_walk_accesses(self) -> u8 {
        5 - self.leaf_level()
    }

    /// A short human-readable label, matching the paper's notation.
    pub const fn label(self) -> &'static str {
        match self {
            PageSize::Size4K => "4KB",
            PageSize::Size2M => "2MB",
            PageSize::Size1G => "1GB",
        }
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_correct() {
        assert_eq!(PageSize::Size4K.bytes(), 4096);
        assert_eq!(PageSize::Size2M.bytes(), 1 << 21);
        assert_eq!(PageSize::Size1G.bytes(), 1 << 30);
    }

    #[test]
    fn ordering_follows_size() {
        assert!(PageSize::Size4K < PageSize::Size2M);
        assert!(PageSize::Size2M < PageSize::Size1G);
        let mut all = PageSize::ALL;
        all.sort();
        assert_eq!(all, PageSize::ALL);
    }

    #[test]
    fn walk_lengths_match_levels() {
        assert_eq!(PageSize::Size4K.full_walk_accesses(), 4);
        assert_eq!(PageSize::Size2M.full_walk_accesses(), 3);
        assert_eq!(PageSize::Size1G.full_walk_accesses(), 2);
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(PageSize::Size4K.to_string(), "4KB");
        assert_eq!(PageSize::Size2M.to_string(), "2MB");
        assert_eq!(PageSize::Size1G.to_string(), "1GB");
    }
}
