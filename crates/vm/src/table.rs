//! Sparse 4-level radix page table.
//!
//! The table mirrors x86-64 long-mode paging: a 512-ary radix tree with the
//! root at level 4 (PML4) and leaves at level 1 (PT), 2 (PD, 2 MiB pages) or
//! 3 (PDPT, 1 GiB pages). Each node occupies one 4 KiB frame of *simulated*
//! physical memory, so every walk step has a concrete physical address —
//! `node_base + 8 * index` — which the page-table walker fetches through the
//! simulated cache hierarchy. This is what lets the reproduction observe the
//! paper's Figure 8 (where in the hierarchy PTEs are found) without hardware
//! counters.
//!
//! Nodes are materialised on demand: a 600 GB virtual footprint costs host
//! memory only for the pages a workload actually touches.

use crate::{FrameAllocator, PageSize, PhysAddr, VirtAddr, PTE_SIZE};

/// Number of radix levels (x86-64 long mode without LA57).
pub const PT_LEVELS: u8 = 4;

const ENTRIES: usize = 512;

// Host entry format. The *simulated* PTE is still `PTE_SIZE` (8) bytes —
// `entry_paddr` strides by it — but the host keeps only the 32 bits a walk
// reads: bit 0 present, bit 1 PS (a 2 MiB or 1 GiB leaf), and bits 2–31 a
// payload — the child's arena index in an interior entry, the 4 KiB frame
// number (`paddr >> 12`) in a leaf.
const PRESENT: u32 = 1;
const PS: u32 = 1 << 1;
const FLAG_BITS: u32 = 2;
/// Payloads are below 2^30: frames below 4 TiB of simulated physical memory,
/// fewer than 2^30 nodes. `map_run` checks it once per run.
const PAYLOAD_LIMIT: u64 = 1 << (32 - FLAG_BITS);

/// A present host entry: `flags` (PRESENT, and PS for a superpage leaf)
/// over `payload`, which the caller has checked against `PAYLOAD_LIMIT`.
#[inline]
fn pack(flags: u32, payload: u64) -> u32 {
    debug_assert!(payload < PAYLOAD_LIMIT);
    flags | (payload as u32) << FLAG_BITS
}

/// The payload of a present host entry.
#[inline]
fn payload(entry: u32) -> u64 {
    u64::from(entry >> FLAG_BITS)
}

/// Panics unless `payload` fits an entry. Each node takes a 4 KiB frame, so
/// 2^30 nodes would also fill 4 TiB: one bound covers both payloads.
fn check_payload(payload: u64, what: &str) {
    assert!(
        payload < PAYLOAD_LIMIT,
        "{what} {payload:#x} does not fit a 32-bit page-table entry: \
         the simulator maps frames below 4 TiB of physical memory"
    );
}

/// One step of a page-table walk: the entry the walker must fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkStep {
    /// Radix level of the entry (4 = PML4 … 1 = PT).
    pub level: u8,
    /// Physical address of the 8-byte entry.
    pub entry_paddr: PhysAddr,
}

/// The full path of a successful walk, root to leaf.
///
/// The page-table walker consults the paging-structure caches to decide how
/// many of these steps it may skip; an uncached walk fetches all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkPath {
    steps: [WalkStep; PT_LEVELS as usize],
    len: u8,
    /// Size of the mapped page.
    pub page_size: PageSize,
    /// Physical base address of the mapped page.
    pub frame_base: PhysAddr,
}

impl WalkPath {
    /// The steps of the walk, ordered root (level 4) first.
    #[inline]
    pub fn steps(&self) -> &[WalkStep] {
        &self.steps[..self.len as usize]
    }

    /// The leaf step (the entry that holds the translation).
    #[inline]
    pub fn leaf(&self) -> WalkStep {
        self.steps[self.len as usize - 1]
    }
}

/// The prefix of a walk that terminated at a non-present entry.
///
/// The final step in [`PartialWalk::steps`] is the non-present entry whose
/// fetch revealed the hole; everything before it was a present interior
/// entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialWalk {
    pub(crate) steps: [WalkStep; PT_LEVELS as usize],
    pub(crate) len: u8,
}

impl PartialWalk {
    /// The entries fetched, root first; the last is non-present.
    pub fn steps(&self) -> &[WalkStep] {
        &self.steps[..self.len as usize]
    }
}

/// Outcome of [`PageTable::probe_walk`]: a hardware-faithful walk attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeResult {
    /// The address is mapped; the full path is available.
    Mapped(WalkPath),
    /// The walk hit a non-present entry after fetching `fetched` entries
    /// (a page fault on the architectural path; silently dropped on a
    /// speculative path).
    NotPresent {
        /// The entries the walker fetched before discovering the hole.
        fetched: PartialWalk,
    },
}

/// Occupancy statistics for a [`PageTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PageTableStats {
    /// Node count per level, indexed `[level-1]` (so `[3]` is the root level).
    pub nodes_by_level: [u64; PT_LEVELS as usize],
    /// Mapped page count per size, in [`PageSize::ALL`] order.
    pub pages_by_size: [u64; 3],
}

impl PageTableStats {
    /// Total number of nodes (each 4 KiB of simulated physical memory).
    pub fn total_nodes(&self) -> u64 {
        self.nodes_by_level.iter().sum()
    }

    /// Total bytes of simulated physical memory consumed by the table itself.
    pub fn table_bytes(&self) -> u64 {
        self.total_nodes() * 4096
    }

    /// Total mapped pages of all sizes.
    pub fn total_pages(&self) -> u64 {
        self.pages_by_size.iter().sum()
    }
}

/// A sparse 4-level radix page table.
///
/// Nodes live in one flat arena: node `i` owns entries
/// `[i * 512, (i + 1) * 512)` of a single `Vec<u32>`, with its simulated
/// physical base in a parallel `node_paddrs` vector. Walks are therefore a
/// chain of direct index computations over two contiguous allocations —
/// no per-node pointer chase, no per-node boxed array — which matters
/// because the walker runs on every TLB miss of every simulated access.
///
/// A simulated PTE is 8 bytes (`node_base + 8 * index`); only its host copy
/// is 4 bytes, holding the present and PS bits and a 30-bit child index or
/// frame number, so simulated physical memory is bounded at 4 TiB.
///
/// # Example
///
/// ```
/// use atscale_vm::{FrameAllocator, PageSize, PageTable, VirtAddr};
///
/// let mut frames = FrameAllocator::new();
/// let mut table = PageTable::new(&mut frames);
/// let (mapped, path) =
///     table.map_run(VirtAddr::new(0x4000_0000), PageSize::Size4K, 1, &mut frames);
///
/// assert_eq!(mapped, 1);
/// assert_eq!(table.walk(VirtAddr::new(0x4000_0123)), Some(path));
/// assert_eq!(path.steps().len(), 4);
/// ```
pub struct PageTable {
    /// `node_count * ENTRIES` packed 32-bit host entries; node `i` owns
    /// `entries[i * ENTRIES..(i + 1) * ENTRIES]`.
    entries: Vec<u32>,
    /// Simulated physical base address of each node's 4 KiB frame.
    node_paddrs: Vec<u64>,
    stats: PageTableStats,
}

impl PageTable {
    /// Creates an empty table with just the root (PML4) node.
    pub fn new(frames: &mut FrameAllocator) -> Self {
        let root_paddr = frames.alloc_table_node();
        let mut stats = PageTableStats::default();
        stats.nodes_by_level[PT_LEVELS as usize - 1] = 1;
        PageTable {
            entries: vec![0u32; ENTRIES],
            node_paddrs: vec![root_paddr.as_u64()],
            stats,
        }
    }

    /// Appends a fresh (all-zero) node to the arena, returning its index.
    fn push_node(&mut self, paddr: PhysAddr) -> usize {
        let idx = self.node_paddrs.len();
        self.entries.resize(self.entries.len() + ENTRIES, 0);
        self.node_paddrs.push(paddr.as_u64());
        idx
    }

    /// Grows the entry arena once for `nodes` more nodes, to the power of
    /// two that node-at-a-time growth would have doubled its way up to — so
    /// a bulk fault-in reallocates once, and ends with the same capacity.
    pub(crate) fn reserve_nodes(&mut self, nodes: u64) {
        let want = (self.node_paddrs.len() + nodes as usize).next_power_of_two() * ENTRIES;
        if want > self.entries.capacity() {
            self.entries.reserve_exact(want - self.entries.len());
        }
    }

    /// Maps every still-absent page among the `count` pages of size `size`
    /// starting at `va` — one run inside one leaf-level node — taking data
    /// frames, and frames for the interior nodes the descent has to create,
    /// from `frames`. Pages already mapped are skipped and take no frame.
    ///
    /// This is the only place frames are paired with pages, so the order
    /// they leave the bump allocator in is fixed here: the first page's data
    /// frame, then the interior nodes that page creates, root side first,
    /// then the remaining data frames contiguously — exactly what faulting
    /// the run in one page at a time would hand out, and a run of length 1
    /// *is* a demand fault. Every PTE address and cache-set index downstream
    /// depends on that order.
    ///
    /// Returns the number of pages mapped and the walk path of the page at
    /// `va` — byte-for-byte what [`walk`](Self::walk) returns for any
    /// address inside that page, so a faulting caller skips the
    /// confirmation re-walk.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not aligned to `size`, if the run is empty or
    /// leaves its leaf-level node, if a *larger* page already covers it, if
    /// part of it is already mapped by *smaller* pages (either overlap
    /// would corrupt the radix tree), or if a frame it maps would lie past
    /// 4 TiB of simulated physical memory (the host entry's payload bound).
    pub fn map_run(
        &mut self,
        va: VirtAddr,
        size: PageSize,
        count: u64,
        frames: &mut FrameAllocator,
    ) -> (u64, WalkPath) {
        let leaf_level = size.leaf_level();
        let first = va.pt_index(leaf_level);
        assert!(va.is_aligned(size.bytes()), "{va} not aligned to {size}");
        assert!(
            count >= 1 && first as u64 + count <= ENTRIES as u64,
            "a run of {count} {size} pages at {va} does not fit one level-{leaf_level} node"
        );
        let mut steps = [WalkStep {
            level: 0,
            entry_paddr: PhysAddr::new(0),
        }; PT_LEVELS as usize];
        let mut n = 0usize;
        let mut node_idx = 0usize;
        let mut head_frame = None;
        for level in (leaf_level + 1..=PT_LEVELS).rev() {
            let idx = va.pt_index(level);
            steps[n] = WalkStep {
                level,
                entry_paddr: PhysAddr::new(self.node_paddrs[node_idx]).add(idx as u64 * PTE_SIZE),
            };
            n += 1;
            let entry = self.entries[node_idx * ENTRIES + idx];
            if entry & PRESENT == 0 {
                // Nothing is mapped below a missing node, so the page at
                // `va` is the run's first absent one and this is its fault.
                head_frame.get_or_insert_with(|| frames.alloc_page(size));
                let child = self.push_node(frames.alloc_table_node());
                check_payload(child as u64, "page-table node");
                self.stats.nodes_by_level[usize::from(level) - 2] += 1;
                self.entries[node_idx * ENTRIES + idx] = pack(PRESENT, child as u64);
                node_idx = child;
            } else {
                assert_eq!(
                    entry & PS,
                    0,
                    "cannot map {size} page at {va}: a larger page already covers it"
                );
                node_idx = payload(entry) as usize;
            }
        }
        steps[n] = WalkStep {
            level: leaf_level,
            entry_paddr: PhysAddr::new(self.node_paddrs[node_idx]).add(first as u64 * PTE_SIZE),
        };
        n += 1;
        let start = node_idx * ENTRIES + first;
        let slots = &mut self.entries[start..start + count as usize];
        let absent = slots.iter().filter(|&&e| e & PRESENT == 0).count() as u64;
        let fresh = absent - u64::from(head_frame.is_some());
        let mut next_frame = frames.alloc_pages(size, fresh);
        // The run's last frame is its highest: the head frame precedes the
        // nodes it creates, which precede the rest.
        let last_frame = match fresh {
            0 => head_frame,
            n => Some(next_frame.add((n - 1) * size.bytes())),
        };
        if let Some(last) = last_frame {
            check_payload(last.as_u64() >> 12, "frame");
        }
        let flags = PRESENT | if leaf_level > 1 { PS } else { 0 };
        for slot in slots.iter_mut() {
            if *slot & PRESENT != 0 {
                assert!(
                    *slot & flags == flags,
                    "cannot map {size} page at {va}: already mapped by smaller pages"
                );
                continue;
            }
            let frame = head_frame.take().unwrap_or_else(|| {
                let frame = next_frame;
                next_frame = next_frame.add(size.bytes());
                frame
            });
            debug_assert!(frame.is_aligned(size.bytes()), "frame {frame} vs {size}");
            *slot = pack(flags, frame.as_u64() >> 12);
        }
        self.stats.pages_by_size[match size {
            PageSize::Size4K => 0,
            PageSize::Size2M => 1,
            PageSize::Size1G => 2,
        }] += absent;
        let path = WalkPath {
            steps,
            len: n as u8,
            page_size: size,
            frame_base: PhysAddr::new(payload(self.entries[start]) << 12),
        };
        (absent, path)
    }

    /// Walks the tree for `va` like hardware would, reporting either the
    /// complete path or the prefix of entries fetched before hitting a
    /// non-present entry.
    ///
    /// Speculative (wrong-path) accesses frequently probe unmapped
    /// addresses; the walker still fetches real page-table entries until it
    /// discovers the hole, and those fetches cost cache bandwidth — the
    /// waste the paper's §V-D quantifies.
    pub fn probe_walk(&self, va: VirtAddr) -> ProbeResult {
        let mut steps = [WalkStep {
            level: 0,
            entry_paddr: PhysAddr::new(0),
        }; PT_LEVELS as usize];
        let mut node_idx = 0usize;
        let mut level = PT_LEVELS;
        let mut n = 0usize;
        loop {
            let idx = va.pt_index(level);
            steps[n] = WalkStep {
                level,
                entry_paddr: PhysAddr::new(self.node_paddrs[node_idx]).add(idx as u64 * PTE_SIZE),
            };
            n += 1;
            let entry = self.entries[node_idx * ENTRIES + idx];
            if entry & PRESENT == 0 {
                return ProbeResult::NotPresent {
                    fetched: PartialWalk {
                        steps,
                        len: n as u8,
                    },
                };
            }
            let is_leaf = level == 1 || entry & PS != 0;
            if is_leaf {
                let page_size = match level {
                    1 => PageSize::Size4K,
                    2 => PageSize::Size2M,
                    3 => PageSize::Size1G,
                    _ => unreachable!("PS bit at level 4 is never set by map_run()"),
                };
                return ProbeResult::Mapped(WalkPath {
                    steps,
                    len: n as u8,
                    page_size,
                    frame_base: PhysAddr::new(payload(entry) << 12),
                });
            }
            node_idx = payload(entry) as usize;
            level -= 1;
        }
    }

    /// Walks the tree for `va`, returning the full root-to-leaf path, or
    /// `None` if no translation exists (a page fault in a real machine).
    pub fn walk(&self, va: VirtAddr) -> Option<WalkPath> {
        match self.probe_walk(va) {
            ProbeResult::Mapped(path) => Some(path),
            ProbeResult::NotPresent { .. } => None,
        }
    }
    /// Returns `true` if a translation exists for `va`.
    pub fn is_mapped(&self, va: VirtAddr) -> bool {
        self.walk(va).is_some()
    }

    /// Occupancy statistics (node and page counts).
    pub fn stats(&self) -> PageTableStats {
        self.stats
    }

    /// The interior levels, root first (few nodes: one per 512 of the level
    /// below). Every present interior entry names an arena node that no
    /// other entry names, the nodes named at each level are the ones the
    /// stats count there, and every superpage leaf holds a frame aligned to
    /// its size.
    fn check_interior_levels(&self) {
        let mut named = vec![false; self.node_paddrs.len()];
        named[0] = true;
        let mut level_nodes = vec![0usize];
        for level in (2..=PT_LEVELS).rev() {
            let mut children = Vec::new();
            for &node in &level_nodes {
                for &entry in &self.entries[node * ENTRIES..(node + 1) * ENTRIES] {
                    if entry & PRESENT == 0 {
                        continue;
                    }
                    if entry & PS != 0 {
                        let frames_per_page = 1u64 << (9 * (level - 1));
                        crate::invariant!(
                            level < PT_LEVELS && payload(entry).is_multiple_of(frames_per_page),
                            "level-{level} leaf holds frame {:#x}: a root leaf, or unaligned",
                            payload(entry)
                        );
                        continue;
                    }
                    let child = payload(entry) as usize;
                    crate::invariant!(
                        named.get(child) == Some(&false),
                        "level-{level} entry names node {child}: outside the arena of {} \
                         or already named",
                        named.len()
                    );
                    named[child] = true;
                    children.push(child);
                }
            }
            crate::invariant!(
                children.len() as u64 == self.stats.nodes_by_level[usize::from(level) - 2],
                "level-{level} entries name {} nodes, stats count {} at level {}",
                children.len(),
                self.stats.nodes_by_level[usize::from(level) - 2],
                level - 1
            );
            level_nodes = children;
        }
    }
}

impl crate::CheckInvariants for PageTable {
    fn check_invariants(&self) {
        crate::invariant!(
            self.stats.total_nodes() == self.node_paddrs.len() as u64,
            "page-table stats claim {} nodes but the arena holds {}",
            self.stats.total_nodes(),
            self.node_paddrs.len()
        );
        crate::invariant!(
            self.entries.len() == self.node_paddrs.len() * ENTRIES,
            "entry arena ({}) out of step with node count ({})",
            self.entries.len(),
            self.node_paddrs.len()
        );
        crate::invariant!(
            self.stats.nodes_by_level[PT_LEVELS as usize - 1] == 1,
            "a 4-level table has exactly one root node, stats claim {}",
            self.stats.nodes_by_level[PT_LEVELS as usize - 1]
        );
        if cfg!(debug_assertions) {
            self.check_interior_levels();
        }
    }
}

impl std::fmt::Debug for PageTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageTable")
            .field("nodes", &self.node_paddrs.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CheckInvariants;

    fn setup() -> (FrameAllocator, PageTable) {
        let mut frames = FrameAllocator::new();
        let table = PageTable::new(&mut frames);
        (frames, table)
    }

    /// Maps one page and returns its frame.
    fn map(
        table: &mut PageTable,
        frames: &mut FrameAllocator,
        va: u64,
        size: PageSize,
    ) -> PhysAddr {
        let (mapped, path) = table.map_run(VirtAddr::new(va), size, 1, frames);
        assert_eq!(mapped, 1);
        path.frame_base
    }

    #[test]
    fn map_and_walk_4k() {
        let (mut frames, mut table) = setup();
        let frame = map(&mut table, &mut frames, 0x1234_5000, PageSize::Size4K);
        assert_eq!(
            table.stats().total_nodes(),
            4,
            "fresh 4K mapping creates PDPT, PD, PT nodes"
        );

        let path = table.walk(VirtAddr::new(0x1234_5678)).unwrap();
        assert_eq!(path.page_size, PageSize::Size4K);
        assert_eq!(path.frame_base, frame);
        assert_eq!(path.steps().len(), 4);
        let levels: Vec<u8> = path.steps().iter().map(|s| s.level).collect();
        assert_eq!(levels, [4, 3, 2, 1]);
    }

    #[test]
    fn map_and_walk_superpages() {
        let (mut frames, mut table) = setup();
        let frame2m = map(&mut table, &mut frames, 0x4000_0000, PageSize::Size2M);
        let frame1g = map(&mut table, &mut frames, 0x1_0000_0000, PageSize::Size1G);
        assert!(frame2m.is_aligned(PageSize::Size2M.bytes()));
        assert!(frame1g.is_aligned(PageSize::Size1G.bytes()));

        let p2 = table.walk(VirtAddr::new(0x400f_fff0)).unwrap();
        assert_eq!(p2.page_size, PageSize::Size2M);
        assert_eq!(p2.steps().len(), 3);
        assert_eq!(p2.frame_base, frame2m);

        let p1 = table.walk(VirtAddr::new(0x1_2345_6789)).unwrap();
        assert_eq!(p1.page_size, PageSize::Size1G);
        assert_eq!(p1.steps().len(), 2);
        assert_eq!(p1.frame_base, frame1g);
    }

    #[test]
    fn unmapped_addresses_fault() {
        let (mut frames, mut table) = setup();
        assert!(table.walk(VirtAddr::new(0x9999_9000)).is_none());
        map(&mut table, &mut frames, 0x1000, PageSize::Size4K);
        // Neighbouring page in the same PT node is still unmapped.
        assert!(table.walk(VirtAddr::new(0x2000)).is_none());
        assert!(table.is_mapped(VirtAddr::new(0x1fff)));
    }

    #[test]
    fn sibling_pages_share_interior_nodes() {
        let (mut frames, mut table) = setup();
        map(&mut table, &mut frames, 0x0000, PageSize::Size4K);
        assert_eq!(table.stats().total_nodes(), 4); // root + 3
        let before = frames.table_node_bytes();
        map(&mut table, &mut frames, 0x1000, PageSize::Size4K);
        assert_eq!(
            frames.table_node_bytes(),
            before,
            "second page in same PT reuses all nodes"
        );
        assert_eq!(table.stats().total_nodes(), 4);
    }

    #[test]
    fn walk_steps_have_distinct_physical_addresses() {
        let (mut frames, mut table) = setup();
        map(&mut table, &mut frames, 0x7f12_3456_7000, PageSize::Size4K);
        let path = table.walk(VirtAddr::new(0x7f12_3456_7000)).unwrap();
        let mut paddrs: Vec<u64> = path
            .steps()
            .iter()
            .map(|s| s.entry_paddr.as_u64())
            .collect();
        paddrs.sort_unstable();
        paddrs.dedup();
        assert_eq!(paddrs.len(), 4);
        assert_eq!(path.leaf().level, 1);
    }

    #[test]
    #[should_panic(expected = "already mapped by smaller pages")]
    fn double_map_panics() {
        // Re-mapping a page at its own size is a skip (see
        // `map_run_skips_mapped_pages_and_they_take_no_frame`); mapping it
        // again at a *larger* size would orphan the PT node under it.
        let (mut frames, mut table) = setup();
        map(&mut table, &mut frames, 0x20_1000, PageSize::Size4K);
        table.map_run(VirtAddr::new(0x20_0000), PageSize::Size2M, 1, &mut frames);
    }

    #[test]
    #[should_panic(expected = "larger page already covers")]
    fn mapping_under_superpage_panics() {
        let (mut frames, mut table) = setup();
        map(&mut table, &mut frames, 0x20_0000, PageSize::Size2M);
        table.map_run(VirtAddr::new(0x20_1000), PageSize::Size4K, 1, &mut frames);
    }

    #[test]
    #[should_panic(expected = "not aligned to 2MB")]
    fn map_run_rejects_a_misaligned_start() {
        let (mut frames, mut table) = setup();
        table.map_run(VirtAddr::new(0x20_1000), PageSize::Size2M, 1, &mut frames);
    }

    #[test]
    #[should_panic(expected = "does not fit one level-1 node")]
    fn map_run_rejects_a_run_that_leaves_its_leaf_table() {
        let (mut frames, mut table) = setup();
        // Entry 510 of its PT node: two pages fit, three do not.
        table.map_run(VirtAddr::new(510 << 12), PageSize::Size4K, 3, &mut frames);
    }

    #[test]
    #[should_panic(expected = "does not fit one level-3 node")]
    fn map_run_rejects_an_empty_run() {
        let (mut frames, mut table) = setup();
        table.map_run(VirtAddr::new(0), PageSize::Size1G, 0, &mut frames);
    }

    /// The page-at-a-time oracle for `map_run`: one run of length 1 per page.
    fn map_singly(
        table: &mut PageTable,
        frames: &mut FrameAllocator,
        va: u64,
        size: PageSize,
        count: u64,
    ) -> u64 {
        (0..count)
            .map(|i| {
                let page = VirtAddr::new(va + i * size.bytes());
                table.map_run(page, size, 1, frames).0
            })
            .sum()
    }

    #[test]
    fn map_run_hands_out_frames_in_page_at_a_time_order() {
        // Fresh leaf tables (nodes created between the first and second data
        // frame), a second run in an existing table, full 512-entry runs,
        // and superpage runs whose frames need alignment padding after the
        // 4 KiB nodes.
        let plan = [
            (0x1000_0000u64, PageSize::Size4K, 512u64),
            (0x1020_0000, PageSize::Size4K, 7),
            (0x1020_7000, PageSize::Size4K, 505),
            (0x7f00_0000_0000, PageSize::Size4K, 1),
            (0x4000_0000, PageSize::Size2M, 3),
            (0x4000_0000 + (3 << 21), PageSize::Size2M, 509),
            (0x80_0000_0000, PageSize::Size1G, 4),
        ];
        let (mut frames_a, mut bulk) = setup();
        let (mut frames_b, mut single) = setup();
        for (va, size, count) in plan {
            let (mapped, path) = bulk.map_run(VirtAddr::new(va), size, count, &mut frames_a);
            assert_eq!(mapped, count);
            assert_eq!(
                map_singly(&mut single, &mut frames_b, va, size, count),
                count
            );
            assert_eq!(Some(path), bulk.walk(VirtAddr::new(va)));
            for i in 0..count {
                let page = VirtAddr::new(va + i * size.bytes());
                assert_eq!(bulk.walk(page), single.walk(page), "{page} ({size})");
                assert!(bulk.walk(page).is_some());
            }
            assert_eq!(frames_a.high_water_mark(), frames_b.high_water_mark());
            assert_eq!(bulk.stats(), single.stats());
            bulk.check_invariants();
        }
        assert_eq!(frames_a.data_bytes(), frames_b.data_bytes());
        assert_eq!(frames_a.table_node_bytes(), frames_b.table_node_bytes());
    }

    #[test]
    fn map_run_skips_mapped_pages_and_they_take_no_frame() {
        let (mut frames_a, mut bulk) = setup();
        let (mut frames_b, mut single) = setup();
        // Pre-map a scattering of pages, out of address order.
        for idx in [300u64, 5, 6, 511, 0, 17] {
            let va = 0x1000_0000 + idx * 4096;
            map(&mut bulk, &mut frames_a, va, PageSize::Size4K);
            map(&mut single, &mut frames_b, va, PageSize::Size4K);
        }
        let kept = bulk.walk(VirtAddr::new(0x1000_0000 + 300 * 4096));
        let (mapped, path) = bulk.map_run(
            VirtAddr::new(0x1000_0000),
            PageSize::Size4K,
            512,
            &mut frames_a,
        );
        assert_eq!(mapped, 506);
        assert_eq!(Some(path), bulk.walk(VirtAddr::new(0x1000_0000)));
        assert_eq!(kept, bulk.walk(VirtAddr::new(0x1000_0000 + 300 * 4096)));
        // The oracle: page at a time, skipping what a walk finds mapped.
        for idx in 0..512u64 {
            let va = 0x1000_0000 + idx * 4096;
            if single.walk(VirtAddr::new(va)).is_none() {
                map(&mut single, &mut frames_b, va, PageSize::Size4K);
            }
            assert_eq!(bulk.walk(VirtAddr::new(va)), single.walk(VirtAddr::new(va)));
        }
        assert_eq!(frames_a.high_water_mark(), frames_b.high_water_mark());
        assert_eq!(frames_a.data_bytes(), 512 * 4096);
        // A fully mapped run maps nothing and allocates nothing.
        let (again, _) = bulk.map_run(
            VirtAddr::new(0x1000_0000),
            PageSize::Size4K,
            512,
            &mut frames_a,
        );
        assert_eq!(again, 0);
        assert_eq!(frames_a.high_water_mark(), frames_b.high_water_mark());
        assert_eq!(bulk.stats(), single.stats());
        bulk.check_invariants();
    }

    #[test]
    fn reserve_nodes_grows_once_to_the_capacity_doubling_reaches() {
        let (mut frames_a, mut reserved) = setup();
        let (mut frames_b, mut grown) = setup();
        reserved.reserve_nodes(37);
        let capacity = reserved.entries.capacity();
        for i in 0..37u64 {
            let va = 0x1000_0000 + (i << 21);
            map(&mut reserved, &mut frames_a, va, PageSize::Size4K);
            map(&mut grown, &mut frames_b, va, PageSize::Size4K);
        }
        assert_eq!(reserved.entries.capacity(), capacity, "no regrowth");
        assert_eq!(capacity, grown.entries.capacity());
        assert_eq!(capacity, 64 * ENTRIES);
    }

    #[test]
    fn stats_track_sizes_and_levels() {
        let (mut frames, mut table) = setup();
        table.map_run(VirtAddr::new(0), PageSize::Size4K, 3, &mut frames);
        map(&mut table, &mut frames, 0x8000_0000, PageSize::Size2M);
        let stats = table.stats();
        assert_eq!(stats.pages_by_size, [3, 1, 0]);
        assert_eq!(stats.total_pages(), 4);
        assert_eq!(stats.nodes_by_level[3], 1, "one root");
        assert!(stats.table_bytes() >= 4 * 4096);
    }

    #[test]
    fn probe_walk_reports_partial_prefix_for_unmapped() {
        let (mut frames, mut table) = setup();
        // Completely unmapped address: only the root entry is fetched.
        match table.probe_walk(VirtAddr::new(0x7000_0000_0000)) {
            ProbeResult::NotPresent { fetched } => {
                assert_eq!(fetched.steps().len(), 1);
                assert_eq!(fetched.steps()[0].level, 4);
            }
            ProbeResult::Mapped(_) => panic!("expected unmapped"),
        }
        // Map a sibling page so interior nodes exist, then probe a hole in
        // the same PT node: the walker fetches all 4 levels before failing.
        map(&mut table, &mut frames, 0x1000, PageSize::Size4K);
        match table.probe_walk(VirtAddr::new(0x2000)) {
            ProbeResult::NotPresent { fetched } => {
                assert_eq!(fetched.steps().len(), 4);
                assert_eq!(fetched.steps()[3].level, 1);
            }
            ProbeResult::Mapped(_) => panic!("expected unmapped"),
        }
    }

    #[test]
    fn probe_walk_agrees_with_walk_for_mapped_pages() {
        let (mut frames, mut table) = setup();
        map(&mut table, &mut frames, 0x4000_0000, PageSize::Size2M);
        let va = VirtAddr::new(0x4000_1234);
        match table.probe_walk(va) {
            ProbeResult::Mapped(path) => assert_eq!(Some(path), table.walk(va)),
            ProbeResult::NotPresent { .. } => panic!("expected mapped"),
        }
    }

    #[test]
    fn map_with_path_matches_a_fresh_walk() {
        let (mut frames, mut table) = setup();
        // Sequential pages, a far jump, a return near the start, and
        // superpages: the path `map_run` builds while creating nodes must
        // equal the one a later walk reads back.
        let mut plan: Vec<(u64, PageSize)> = (0..600u64)
            .map(|i| (0x1000_0000 + i * 0x1000, PageSize::Size4K))
            .collect();
        plan.push((0x7f00_0000_0000, PageSize::Size4K));
        plan.push((0x1000_0000 + 600 * 0x1000, PageSize::Size4K));
        plan.push((0x40_0000_0000, PageSize::Size1G));
        plan.push((0x5000_0000_0000 + (2 << 20), PageSize::Size2M));
        plan.push((0x5000_0000_0000, PageSize::Size2M));
        for (va, size) in plan {
            let va = VirtAddr::new(va);
            let (_, path) = table.map_run(va, size, 1, &mut frames);
            assert_eq!(Some(path), table.walk(va), "path for {va} ({size})");
            // Any other address inside the page shares the identical path.
            let inner = VirtAddr::new(va.as_u64() + size.bytes() - 1);
            assert_eq!(Some(path), table.walk(inner));
        }
        table.check_invariants();
    }

    #[test]
    fn frame_base_roundtrips_through_entry_encoding() {
        // Large physical addresses must survive the PTE packing.
        let (mut frames, mut table) = setup();
        for _ in 0..100 {
            frames.alloc_page(PageSize::Size1G); // push the bump pointer high
        }
        let frame = map(&mut table, &mut frames, 0x40_0000_0000, PageSize::Size1G);
        assert!(frame.as_u64() > 100 << 30);
        let path = table.walk(VirtAddr::new(0x40_0000_0000)).unwrap();
        assert_eq!(path.frame_base, frame);

        // The highest representable frame: a 4 KiB page ending at 4 TiB.
        let (mut frames, mut table) = setup();
        bump_to(&mut frames, (4 << 40) - 4096);
        let frame = map(&mut table, &mut frames, 0x7f00_0000_0000, PageSize::Size4K);
        assert_eq!(frame.as_u64(), (4 << 40) - 4096);
        let path = table.walk(VirtAddr::new(0x7f00_0000_0fff)).unwrap();
        assert_eq!(path.frame_base, frame);
        table.check_invariants();
    }

    /// Pushes the bump pointer to `next` with 1 GiB pages, then 4 KiB ones.
    fn bump_to(frames: &mut FrameAllocator, next: u64) {
        frames.alloc_pages(PageSize::Size1G, (next >> 30) - 1);
        let gap = next - frames.high_water_mark().as_u64();
        frames.alloc_pages(PageSize::Size4K, gap / 4096);
        assert_eq!(frames.high_water_mark().as_u64(), next);
    }

    #[test]
    #[should_panic(expected = "below 4 TiB")]
    fn a_frame_past_4_tib_panics() {
        let (mut frames, mut table) = setup();
        bump_to(&mut frames, 4 << 40);
        map(&mut table, &mut frames, 0x7f00_0000_0000, PageSize::Size4K);
    }

    #[test]
    fn host_entries_take_2_kib_per_node() {
        let (mut frames, mut table) = setup();
        for run in 0..512u64 {
            table.map_run(
                VirtAddr::new((1 << 30) + (run << 21)),
                PageSize::Size4K,
                512,
                &mut frames,
            );
        }
        let nodes = table.stats().total_nodes() as usize;
        assert_eq!(nodes, 1 + 1 + 1 + 512);
        assert_eq!(size_of_val(&table.entries[..]), nodes * 2048);
        table.check_invariants();
    }
}
