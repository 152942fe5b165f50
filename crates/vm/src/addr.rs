//! Virtual and physical address newtypes.
//!
//! Keeping the two address spaces as distinct types ([`VirtAddr`],
//! [`PhysAddr`]) prevents an entire class of simulator bugs where a virtual
//! address is accidentally fed to the cache hierarchy (which is physically
//! indexed here) or vice versa.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A virtual (application-visible) address in the simulated machine.
///
/// # Example
///
/// ```
/// use atscale_vm::{PageSize, VirtAddr};
///
/// let va = VirtAddr::new(0x7f00_1234_5678);
/// assert_eq!(va.page_offset(PageSize::Size4K), 0x678);
/// assert_eq!(va.page_base(PageSize::Size4K).as_u64(), 0x7f00_1234_5000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct VirtAddr(u64);

/// A physical address in the simulated machine.
///
/// Physical addresses index the simulated cache hierarchy and DRAM. They are
/// produced by translation ([`crate::AddressSpace::translate`]) or by the
/// page-table node allocator (PTE fetch targets).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct PhysAddr(u64);

macro_rules! addr_common {
    ($ty:ident, $prefix:literal) => {
        impl $ty {
            /// Wraps a raw 64-bit address.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw 64-bit value.
            #[inline]
            pub const fn as_u64(self) -> u64 {
                self.0
            }

            /// Returns the offset of this address within a page of the given size.
            #[inline]
            pub const fn page_offset(self, size: crate::PageSize) -> u64 {
                self.0 & (size.bytes() - 1)
            }

            /// Returns the base address of the page (of the given size)
            /// containing this address.
            #[inline]
            pub const fn page_base(self, size: crate::PageSize) -> Self {
                Self(self.0 & !(size.bytes() - 1))
            }

            /// Returns this address advanced by `bytes`.
            ///
            /// # Panics
            ///
            /// Panics in debug builds on overflow, like ordinary integer
            /// addition.
            #[inline]
            pub const fn add(self, bytes: u64) -> Self {
                Self(self.0 + bytes)
            }

            /// Returns `true` if this address is aligned to `align` bytes.
            ///
            /// `align` must be a power of two; this is not checked.
            #[inline]
            pub const fn is_aligned(self, align: u64) -> bool {
                self.0 & (align - 1) == 0
            }

            /// Rounds this address up to the next multiple of `align`
            /// (a power of two).
            #[inline]
            pub const fn align_up(self, align: u64) -> Self {
                Self((self.0 + align - 1) & !(align - 1))
            }
        }

        impl fmt::Debug for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }

        impl From<u64> for $ty {
            fn from(raw: u64) -> Self {
                Self::new(raw)
            }
        }

        impl From<$ty> for u64 {
            fn from(addr: $ty) -> u64 {
                addr.as_u64()
            }
        }
    };
}

addr_common!(VirtAddr, "VirtAddr");
addr_common!(PhysAddr, "PhysAddr");

impl VirtAddr {
    /// Extracts the 9-bit page-table index for the given radix level.
    ///
    /// Level 4 is the root (PML4), level 1 the leaf page table, matching
    /// x86-64 long-mode paging. Offsets: level 1 starts at bit 12, each
    /// higher level 9 bits further up.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not in `1..=4`.
    ///
    /// # Example
    ///
    /// ```
    /// use atscale_vm::VirtAddr;
    ///
    /// let va = VirtAddr::new(0x0000_7fff_ffff_f000);
    /// assert_eq!(va.pt_index(4), 255);
    /// assert_eq!(va.pt_index(1), 511);
    /// ```
    #[inline]
    pub fn pt_index(self, level: u8) -> usize {
        assert!((1..=4).contains(&level), "page table level must be 1..=4");
        ((self.0 >> (12 + 9 * (level as u64 - 1))) & 0x1ff) as usize
    }

    /// Returns the virtual page number for pages of the given size.
    #[inline]
    pub const fn vpn(self, size: crate::PageSize) -> u64 {
        self.0 >> size.shift()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PageSize;

    #[test]
    fn page_offset_and_base() {
        let va = VirtAddr::new(0x1234_5678);
        assert_eq!(va.page_offset(PageSize::Size4K), 0x678);
        assert_eq!(va.page_base(PageSize::Size4K).as_u64(), 0x1234_5000);
        assert_eq!(va.page_offset(PageSize::Size2M), 0x14_5678);
        assert_eq!(va.page_base(PageSize::Size2M).as_u64(), 0x1220_0000);
        assert_eq!(va.page_base(PageSize::Size1G).as_u64(), 0x0);
    }

    #[test]
    fn pt_indices_cover_48_bits() {
        // A fully-set 48-bit canonical address has index 511 at every level.
        let va = VirtAddr::new(0x0000_ffff_ffff_ffff);
        for level in 1..=4 {
            assert_eq!(va.pt_index(level), 511, "level {level}");
        }
        // Indices at each level select disjoint bit ranges.
        let va = VirtAddr::new(1u64 << 12);
        assert_eq!(va.pt_index(1), 1);
        assert_eq!(va.pt_index(2), 0);
        let va = VirtAddr::new(1u64 << 21);
        assert_eq!(va.pt_index(2), 1);
        let va = VirtAddr::new(1u64 << 30);
        assert_eq!(va.pt_index(3), 1);
        let va = VirtAddr::new(1u64 << 39);
        assert_eq!(va.pt_index(4), 1);
    }

    #[test]
    #[should_panic(expected = "level must be 1..=4")]
    fn pt_index_rejects_level_zero() {
        VirtAddr::new(0).pt_index(0);
    }

    #[test]
    fn alignment_helpers() {
        let va = VirtAddr::new(0x1001);
        assert!(!va.is_aligned(0x1000));
        assert_eq!(va.align_up(0x1000).as_u64(), 0x2000);
        assert!(VirtAddr::new(0x2000).is_aligned(0x1000));
        assert_eq!(VirtAddr::new(0x2000).align_up(0x1000).as_u64(), 0x2000);
    }

    #[test]
    fn vpn_matches_shift() {
        let va = VirtAddr::new(0x4030_2010);
        assert_eq!(va.vpn(PageSize::Size4K), 0x4030_2010 >> 12);
        assert_eq!(va.vpn(PageSize::Size2M), 0x4030_2010 >> 21);
        assert_eq!(va.vpn(PageSize::Size1G), 0x4030_2010 >> 30);
    }

    #[test]
    fn debug_formatting_is_distinct() {
        assert_eq!(format!("{:?}", VirtAddr::new(0x10)), "VirtAddr(0x10)");
        assert_eq!(format!("{:?}", PhysAddr::new(0x10)), "PhysAddr(0x10)");
        assert_eq!(format!("{:x}", PhysAddr::new(0xbeef)), "beef");
    }

    #[test]
    fn conversions_roundtrip() {
        let va: VirtAddr = 42u64.into();
        let raw: u64 = va.into();
        assert_eq!(raw, 42);
    }
}
