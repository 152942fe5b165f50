//! `AddressSpace::fault_in` against the loop it replaced.
//!
//! Set-up used to call `touch` once per 4 KiB step; `fault_in` walks the
//! same range one leaf table at a time. Every simulated counter downstream
//! depends on *which frame* each page and each page-table node landed on
//! (PTE addresses index the simulated caches), so the bulk path is only
//! admissible if it leaves a space no observer can tell from the paged one.
//! The old loop survives here, and only here, as the oracle: two spaces are
//! built from one seeded layout, one faulted in each way, and compared
//! through the public API after every step.

use atscale_vm::{AddressSpace, BackingPolicy, PageSize, Segment, VirtAddr, VmError};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;

/// The oracle: what `Region::touch_all` did before `fault_in` existed.
fn touch_every_4k(space: &mut AddressSpace, base: VirtAddr, len: u64) -> Result<(), VmError> {
    let mut off = 0;
    while off < len {
        space.touch(base.add(off))?;
        off += 4096;
    }
    Ok(())
}

fn policy(pick: u64) -> BackingPolicy {
    match pick % 4 {
        0 => BackingPolicy::uniform(PageSize::Size4K),
        1 => BackingPolicy::uniform(PageSize::Size2M),
        2 => BackingPolicy::uniform(PageSize::Size1G),
        _ => BackingPolicy::uniform_graceful(PageSize::Size1G),
    }
}

/// One to four segment sizes, from a single page to just over 1 GiB, most
/// with a tail that is a whole number of neither 2 MiB nor 4 KiB.
fn segment_sizes(rng: &mut SmallRng) -> Vec<u64> {
    let mut giants = 0;
    (0..rng.gen_range(1..5u32))
        .map(|_| {
            let body = match rng.gen_range(0..8u32) {
                0 => 0,
                1 | 2 => rng.gen_range(0..64u64) * 4 * KIB,
                3 | 4 => rng.gen_range(1..6u64) * 2 * MIB,
                5 | 6 => rng.gen_range(1..40u64) * MIB,
                // At most one per layout: the oracle steps through all of it.
                _ if giants == 0 => {
                    giants += 1;
                    GIB + rng.gen_range(0..3u64) * 2 * MIB
                }
                _ => 512 * 4 * KIB,
            };
            let tail = match rng.gen_range(0..3u32) {
                0 => 0,
                1 => rng.gen_range(1..512u64) * 4 * KIB,
                _ => rng.gen_range(1..2 * MIB),
            };
            (body + tail).max(1)
        })
        .collect()
}

/// A sub-range of `seg`: any start, any length (neither 4 KiB-aligned), and
/// one time in four an end up to three pages past the segment's.
fn sub_range(rng: &mut SmallRng, seg: &Segment) -> (VirtAddr, u64) {
    let start = match rng.gen_range(0..3u32) {
        0 => 0,
        _ => rng.gen_range(0..seg.len()),
    };
    let room = seg.len() - start;
    let len = match rng.gen_range(0..4u32) {
        0 => room + rng.gen_range(1..3 * 4096u64),
        1 => room,
        _ => rng.gen_range(0..room + 1),
    };
    (seg.base().add(start), len)
}

/// Both spaces map the same pages through the same entries onto the same
/// frames, and an unmapped address stops a hardware walk at the same entry.
fn assert_same_mappings(bulk: &AddressSpace, paged: &AddressSpace) -> Result<(), TestCaseError> {
    prop_assert_eq!(bulk.stats(), paged.stats());
    let mut mapped = 0;
    for seg in paged.segments() {
        let mut va = seg.base();
        while va < seg.end() {
            let path = paged.walk(va);
            prop_assert_eq!(bulk.walk(va), path, "walk({})", va);
            prop_assert_eq!(bulk.probe_walk(va), paged.probe_walk(va));
            // A page the two agree on is one radix entry: step over it.
            va = match path {
                Some(path) => {
                    mapped += 1;
                    va.page_base(path.page_size).add(path.page_size.bytes())
                }
                None => va.add(4096),
            };
        }
        // Neighbours no segment owns: the guard page behind, the page in
        // front, and the same offsets a leaf table and a PD's reach away.
        for hole in [
            seg.end(),
            seg.end().add(512 * 4096),
            seg.end().add(GIB),
            VirtAddr::new(seg.base().as_u64() - 4096),
        ] {
            if paged.segment_containing(hole).is_none() {
                prop_assert_eq!(bulk.probe_walk(hole), paged.probe_walk(hole));
            }
        }
    }
    prop_assert_eq!(mapped, paged.stats().table.total_pages());
    Ok(())
}

proptest! {
    /// Random layouts, policies, pre-touched pages and sub-ranges: bulk and
    /// paged fault-in are indistinguishable, down to the error they return
    /// and what they had mapped when they returned it.
    #[test]
    fn fault_in_matches_touching_every_4k_step(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let policy = policy(rng.gen());
        let mut bulk = AddressSpace::new(policy);
        let mut paged = AddressSpace::new(policy);
        for (i, bytes) in segment_sizes(&mut rng).into_iter().enumerate() {
            let name = format!("seg{i}");
            let seg = bulk.alloc_heap(&name, bytes).unwrap();
            prop_assert_eq!(seg.base(), paged.alloc_heap(&name, bytes).unwrap().base());
        }
        let segments = paged.segments().to_vec();

        // Demand faults first, in no order, so ranges meet mapped pages.
        for _ in 0..rng.gen_range(0..48u32) {
            let seg = &segments[rng.gen_range(0..segments.len())];
            let va = seg.base().add(rng.gen_range(0..seg.len()));
            let touched = bulk.touch(va).unwrap();
            prop_assert_eq!(touched.path, paged.touch(va).unwrap().path);
        }
        assert_same_mappings(&bulk, &paged)?;

        for _ in 0..rng.gen_range(1..5u32) {
            let seg = &segments[rng.gen_range(0..segments.len())];
            let (base, len) = sub_range(&mut rng, seg);
            let outcome = bulk.fault_in(base, len);
            prop_assert_eq!(
                outcome,
                touch_every_4k(&mut paged, base, len),
                "fault_in({}, {}) in {:?} under {:?}", base, len, seg, policy
            );
            assert_same_mappings(&bulk, &paged)?;
        }

        // What set-up does: every segment, whole. Then once more — a fully
        // mapped space is left alone.
        for _ in 0..2 {
            for seg in &segments {
                prop_assert_eq!(bulk.fault_in(seg.base(), seg.len()), Ok(()));
                touch_every_4k(&mut paged, seg.base(), seg.len()).unwrap();
            }
            assert_same_mappings(&bulk, &paged)?;
            let covered: u64 = segments.iter().map(Segment::len).sum();
            prop_assert_eq!(paged.stats().data_bytes, covered);
        }
    }
}

/// A 4 KiB-backed range whose middle crosses a 512-entry node boundary, a
/// 2 MiB-backed one that crosses a PD boundary, and tails falling back the
/// strict way (1 GiB → 4 KiB) and the graceful way (1 GiB → 2 MiB → 4 KiB):
/// the shapes the property above meets by chance, pinned.
#[test]
fn node_boundaries_and_fallback_tails() {
    let cases = [
        (
            BackingPolicy::uniform(PageSize::Size4K),
            3 * 512 * 4096 + 4096,
            [1537, 0, 0],
        ),
        (
            BackingPolicy::uniform(PageSize::Size2M),
            GIB + 6 * MIB + 12 * KIB,
            [3, 515, 0],
        ),
        (
            BackingPolicy::uniform(PageSize::Size1G),
            GIB + 4 * MIB + 8 * KIB,
            [1026, 0, 1],
        ),
        (
            BackingPolicy::uniform_graceful(PageSize::Size1G),
            GIB + 4 * MIB + 8 * KIB,
            [2, 2, 1],
        ),
    ];
    for (policy, bytes, pages_by_size) in cases {
        let mut bulk = AddressSpace::new(policy);
        let mut paged = AddressSpace::new(policy);
        // A first segment pushes the second off the start of its leaf table.
        for space in [&mut bulk, &mut paged] {
            space.alloc_heap("pad", 200 * 4096).unwrap();
            space.alloc_heap("body", bytes).unwrap();
        }
        let seg = paged.segments()[1].clone();
        // From the middle of the first leaf table's worth to the end.
        let start = 300 * 4096 + 24;
        bulk.fault_in(seg.base().add(start), seg.len() - start)
            .unwrap();
        touch_every_4k(&mut paged, seg.base().add(start), seg.len() - start).unwrap();
        assert_same_mappings(&bulk, &paged).unwrap();
        // Then the whole segment, over what is already there.
        bulk.fault_in(seg.base(), seg.len()).unwrap();
        touch_every_4k(&mut paged, seg.base(), seg.len()).unwrap();
        assert_same_mappings(&bulk, &paged).unwrap();
        let stats = bulk.stats();
        assert_eq!(stats.table.pages_by_size, pages_by_size, "{policy:?}");
        assert_eq!(
            stats.fallback_faults,
            stats.minor_faults - pages_by_size[policy.requested() as usize],
            "{policy:?}: every page below the requested size is a fallback"
        );
    }
}

/// The frame-order rule itself, pinned to addresses. Bulk and paged faulting
/// both map through `PageTable::map_run`, so the comparisons above hold for
/// *any* order that function picks; this is the order it must pick — the one
/// every record so far was computed under: the first page's data frame, then
/// the nodes that page creates, root side first, then the run's remaining
/// data frames contiguously.
#[test]
fn frames_leave_the_allocator_in_demand_fault_order() {
    // Page bases of the entries a walk fetches, root first, then the frame.
    let layout = |space: &AddressSpace, va: VirtAddr| -> Vec<u64> {
        let path = space.walk(va).expect("faulted in");
        let nodes = path.steps().iter().map(|s| s.entry_paddr.as_u64() & !0xfff);
        nodes.chain([path.frame_base.as_u64()]).collect()
    };
    // Frame 0 is reserved and the root node took 0x1000 at construction.
    let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
    let seg = space.alloc_heap("a", 3 * 4096).unwrap();
    space.fault_in(seg.base(), seg.len()).unwrap();
    let page = |i: u64| seg.base().add(i * 4096);
    assert_eq!(
        layout(&space, page(0)),
        [0x1000, 0x3000, 0x4000, 0x5000, 0x2000]
    );
    assert_eq!(
        layout(&space, page(1)),
        [0x1000, 0x3000, 0x4000, 0x5000, 0x6000]
    );
    assert_eq!(
        layout(&space, page(2)),
        [0x1000, 0x3000, 0x4000, 0x5000, 0x7000]
    );

    // 2 MiB pages: the two nodes land behind the first frame, and the second
    // frame is the next 2 MiB boundary after them.
    let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size2M));
    let seg = space.alloc_heap("a", 2 << 21).unwrap();
    space.fault_in(seg.base(), seg.len()).unwrap();
    const M2: u64 = 2 * MIB;
    assert_eq!(
        layout(&space, seg.base()),
        [0x1000, M2 + M2, M2 + M2 + 0x1000, M2]
    );
    assert_eq!(
        layout(&space, seg.base().add(M2)),
        [0x1000, M2 + M2, M2 + M2 + 0x1000, 3 * M2]
    );
}
