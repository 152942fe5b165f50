//! Translation lookaside buffers.

use crate::{TlbConfig, TlbGeometry};
use atscale_cache::SetIndexer;
use atscale_vm::{invariant, CheckInvariants, PageSize, VirtAddr};
use serde::{Deserialize, Serialize};

const INVALID: u64 = u64::MAX;

/// A single LRU set-associative TLB array keyed by virtual page number.
///
/// Each entry carries a 64-bit payload alongside its tag — the frame base of
/// the translation — so a TLB hit can produce the physical address without
/// consulting the page table. Recency is a per-way monotone stamp (hit =
/// one store) rather than a move-to-front rotate; the evicted victim — the
/// minimum stamp, with never-filled ways at stamp 0 — is identical to the
/// rotate scheme's last-slot victim. Set selection goes through a
/// precomputed [`SetIndexer`] instead of a hardware divide.
///
/// # Example
///
/// ```
/// use atscale_mmu::{TlbArray, TlbGeometry};
///
/// let mut tlb = TlbArray::new(TlbGeometry::new(8, 2));
/// assert!(!tlb.lookup(42));
/// tlb.fill(42);
/// assert!(tlb.lookup(42));
/// ```
#[derive(Debug, Clone)]
pub struct TlbArray {
    tags: Vec<u64>,
    /// Frame-base payload per way (0 for payload-free users like the
    /// paging-structure caches).
    frames: Vec<u64>,
    /// Per-way recency stamps; larger = more recent, 0 = never touched.
    stamps: Vec<u64>,
    indexer: SetIndexer,
    ways: usize,
    clock: u64,
    geometry: TlbGeometry,
    /// `false` until the first fill (and again after a flush). A never-filled
    /// array holds only invalid tags, so a lookup can return `None` without
    /// scanning — which matters because the hierarchy probes every page-size
    /// array on every access, and a uniform-4K run never fills two of them.
    filled: bool,
}

impl TlbArray {
    /// Creates an empty array.
    pub fn new(geometry: TlbGeometry) -> Self {
        let sets = u64::from(geometry.sets());
        let ways = geometry.ways as usize;
        debug_assert!(ways >= 1, "a TLB array needs at least one way");
        debug_assert_eq!(
            geometry.entries as u64,
            sets * ways as u64,
            "geometry entries must equal sets x ways"
        );
        let entries = geometry.entries as usize;
        TlbArray {
            tags: vec![INVALID; entries],
            frames: vec![0; entries],
            stamps: vec![0; entries],
            indexer: SetIndexer::new(sets),
            ways,
            clock: 0,
            geometry,
            filled: false,
        }
    }

    /// The geometry this array was built with.
    pub fn geometry(&self) -> TlbGeometry {
        self.geometry
    }

    /// Index range of the set holding `key`.
    #[inline]
    fn set_slice(&self, key: u64) -> std::ops::Range<usize> {
        let base = self.indexer.index(key) * self.ways;
        base..base + self.ways
    }

    /// Looks up a key, updating recency on hit. Does **not** fill on miss
    /// (TLBs are filled by completed walks, not lookups).
    #[inline]
    pub fn lookup(&mut self, key: u64) -> bool {
        self.lookup_frame(key).is_some()
    }

    /// Like [`lookup`](Self::lookup), but returns the stored frame-base
    /// payload on hit.
    #[inline]
    pub fn lookup_frame(&mut self, key: u64) -> Option<u64> {
        if !self.filled {
            return None;
        }
        // Set-local slices: one bounds check per set rather than per way;
        // this runs once per simulated access per array.
        let set = self.set_slice(key);
        let tags = &self.tags[set.clone()];
        if let Some(pos) = tags.iter().position(|&t| t == key) {
            self.clock += 1;
            self.stamps[set.start + pos] = self.clock;
            return Some(self.frames[set.start + pos]);
        }
        None
    }

    /// Inserts a key with a zero payload, evicting the LRU entry of its set
    /// if necessary.
    #[inline]
    pub fn fill(&mut self, key: u64) {
        self.fill_frame(key, 0);
    }

    /// Inserts a key carrying a frame-base payload, evicting the LRU entry
    /// of its set if necessary. Refilling a resident key refreshes its
    /// recency (and payload) instead of duplicating it.
    #[inline]
    pub fn fill_frame(&mut self, key: u64, frame: u64) {
        self.filled = true;
        let set = self.set_slice(key);
        self.clock += 1;
        let tags = &mut self.tags[set.clone()];
        let stamps = &mut self.stamps[set.clone()];
        if let Some(pos) = tags.iter().position(|&t| t == key) {
            stamps[pos] = self.clock;
            self.frames[set.start + pos] = frame;
            return;
        }
        // Evict the LRU way: minimum stamp, first index on ties (invalid
        // ways keep stamp 0, so empty slots are consumed before evictions —
        // the same victim the rotate-based representation chose).
        let mut victim = 0;
        let mut oldest = stamps[0];
        for (i, &stamp) in stamps.iter().enumerate().skip(1) {
            if stamp < oldest {
                oldest = stamp;
                victim = i;
            }
        }
        tags[victim] = key;
        self.frames[set.start + victim] = frame;
        stamps[victim] = self.clock;
    }

    /// Like [`fill_frame`](Self::fill_frame), but reports whether the
    /// install displaced a live entry (`true`) rather than refreshing a
    /// resident key or consuming an empty way. Architecture extensions use
    /// this to count capacity evictions; the plain fill stays untouched so
    /// the baseline hot path is unchanged.
    pub fn fill_frame_evicting(&mut self, key: u64, frame: u64) -> bool {
        self.filled = true;
        let set = self.set_slice(key);
        self.clock += 1;
        let tags = &mut self.tags[set.clone()];
        let stamps = &mut self.stamps[set.clone()];
        if let Some(pos) = tags.iter().position(|&t| t == key) {
            stamps[pos] = self.clock;
            self.frames[set.start + pos] = frame;
            return false;
        }
        let mut victim = 0;
        let mut oldest = stamps[0];
        for (i, &stamp) in stamps.iter().enumerate().skip(1) {
            if stamp < oldest {
                oldest = stamp;
                victim = i;
            }
        }
        let evicted = tags[victim] != INVALID;
        tags[victim] = key;
        self.frames[set.start + victim] = frame;
        stamps[victim] = self.clock;
        evicted
    }

    /// Checks for presence without touching recency.
    pub fn probe(&self, key: u64) -> bool {
        self.tags[self.set_slice(key)].contains(&key)
    }

    /// Invalidates all entries.
    pub fn flush(&mut self) {
        self.tags.fill(INVALID);
        self.frames.fill(0);
        self.stamps.fill(0);
        self.clock = 0;
        self.filled = false;
    }
}

impl CheckInvariants for TlbArray {
    fn check_invariants(&self) {
        invariant!(
            self.tags.len() == self.geometry.entries as usize,
            "tag array holds {} entries, geometry says {}",
            self.tags.len(),
            self.geometry.entries
        );
        invariant!(
            self.frames.len() == self.tags.len() && self.stamps.len() == self.tags.len(),
            "frame/stamp arrays diverge from the tag array"
        );
        invariant!(
            self.filled || self.tags.iter().all(|&t| t == INVALID),
            "array marked never-filled but holds valid tags"
        );
        let sets = self.indexer.sets();
        for (set, ways) in self.tags.chunks(self.ways).enumerate() {
            for (i, &tag) in ways.iter().enumerate() {
                if tag == INVALID {
                    continue;
                }
                invariant!(
                    !ways[..i].contains(&tag),
                    "duplicate key {tag:#x} in TLB set {set}"
                );
                invariant!(
                    (tag % sets) as usize == set,
                    "key {tag:#x} stored in set {set}, indexes to {}",
                    tag % sets
                );
                invariant!(
                    self.stamps[set * self.ways + i] <= self.clock,
                    "stamp of key {tag:#x} is ahead of the clock"
                );
            }
        }
    }
}

/// Where a TLB lookup hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TlbHit {
    /// Hit in a first-level DTLB — zero added latency.
    L1(PageSize),
    /// Hit in the shared second-level TLB — costs the L2 penalty.
    L2(PageSize),
    /// Missed both levels — a page-table walk is required.
    Miss,
}

/// Lookup/fill statistics for the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbStats {
    /// Lookups that hit an L1 DTLB.
    pub l1_hits: u64,
    /// Lookups that missed L1 but hit the L2 TLB
    /// (`dtlb_misses.stlb_hit` on real hardware).
    pub l2_hits: u64,
    /// Lookups that missed both levels (walks required).
    pub misses: u64,
}

impl TlbStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.misses
    }

    /// Full-hierarchy miss ratio (misses / lookups), 0 when idle.
    pub fn miss_ratio(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.misses as f64 / lookups as f64
        }
    }
}

/// The two-level TLB hierarchy of the paper's machine: per-page-size L1
/// arrays and a shared L2 that holds 4 KB and 2 MB entries (1 GB entries
/// live only in their tiny L1 array, per Table III).
///
/// Keys are tagged with the page size so a 2 MB entry can never alias a
/// 4 KB entry of the same numeric VPN in the shared L2.
#[derive(Debug, Clone)]
pub struct TlbHierarchy {
    l1_4k: TlbArray,
    l1_2m: TlbArray,
    l1_1g: TlbArray,
    l2: TlbArray,
    l2_hit_penalty: u32,
    stats: TlbStats,
}

impl TlbHierarchy {
    /// Builds the hierarchy from a [`TlbConfig`].
    pub fn new(config: TlbConfig) -> Self {
        TlbHierarchy {
            l1_4k: TlbArray::new(config.l1_4k),
            l1_2m: TlbArray::new(config.l1_2m),
            l1_1g: TlbArray::new(config.l1_1g),
            l2: TlbArray::new(config.l2),
            l2_hit_penalty: config.l2_hit_penalty,
            stats: TlbStats::default(),
        }
    }

    /// Extra latency of an L2 TLB hit.
    pub fn l2_hit_penalty(&self) -> u32 {
        self.l2_hit_penalty
    }

    /// Looks up `va` across all arrays.
    ///
    /// Hardware probes each size class in parallel because the page size of
    /// a virtual address is unknown before translation; we do the same.
    pub fn lookup(&mut self, va: VirtAddr) -> TlbHit {
        self.lookup_frame(va).0
    }

    /// Like [`lookup`](Self::lookup), but also returns the frame base
    /// stored with the hit entry (0 on miss), letting the caller form the
    /// physical address without re-walking the page table.
    #[inline]
    pub fn lookup_frame(&mut self, va: VirtAddr) -> (TlbHit, u64) {
        for size in PageSize::ALL {
            if let Some(frame) = self.l1_for(size).lookup_frame(va.vpn(size)) {
                self.stats.l1_hits += 1;
                return (TlbHit::L1(size), frame);
            }
        }
        for size in [PageSize::Size4K, PageSize::Size2M] {
            if let Some(frame) = self.l2.lookup_frame(Self::l2_key(va, size)) {
                self.stats.l2_hits += 1;
                // Promote into the matching L1, as hardware refills do.
                self.l1_for(size).fill_frame(va.vpn(size), frame);
                return (TlbHit::L2(size), frame);
            }
        }
        self.stats.misses += 1;
        (TlbHit::Miss, 0)
    }

    /// Like [`lookup_frame`](Self::lookup_frame), but *open at the bottom*:
    /// on a full miss it returns `None` **without** counting a miss, so a
    /// translation architecture can probe its own extension level first and
    /// classify the outcome itself (via [`count_l2_hit`](Self::count_l2_hit)
    /// or [`count_miss`](Self::count_miss)). Hit paths count exactly as
    /// [`lookup_frame`](Self::lookup_frame) does.
    #[inline]
    pub fn lookup_frame_open(&mut self, va: VirtAddr) -> Option<(TlbHit, u64)> {
        for size in PageSize::ALL {
            if let Some(frame) = self.l1_for(size).lookup_frame(va.vpn(size)) {
                self.stats.l1_hits += 1;
                return Some((TlbHit::L1(size), frame));
            }
        }
        for size in [PageSize::Size4K, PageSize::Size2M] {
            if let Some(frame) = self.l2.lookup_frame(Self::l2_key(va, size)) {
                self.stats.l2_hits += 1;
                self.l1_for(size).fill_frame(va.vpn(size), frame);
                return Some((TlbHit::L2(size), frame));
            }
        }
        None
    }

    /// Records a full-hierarchy miss resolved outside the hierarchy —
    /// the closing bookkeeping for [`lookup_frame_open`](Self::lookup_frame_open).
    #[inline]
    pub fn count_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Records a second-level hit serviced by an architecture extension
    /// level, keeping the `l2_hits >= retired STLB hits` coupling intact.
    #[inline]
    pub fn count_l2_hit(&mut self) {
        self.stats.l2_hits += 1;
    }

    /// Promotes an externally-serviced translation into the matching L1
    /// array, as hardware refills do on second-level hits.
    #[inline]
    pub fn promote_l1(&mut self, va: VirtAddr, size: PageSize, frame_base: u64) {
        self.l1_for(size).fill_frame(va.vpn(size), frame_base);
    }

    /// Installs a completed translation of the given page size, recording
    /// the frame base so later hits can translate without a walk.
    ///
    /// Fills the matching L1 array, and the shared L2 for 4 KB/2 MB pages
    /// (the L2 does not hold 1 GB entries on this machine).
    pub fn fill(&mut self, va: VirtAddr, size: PageSize, frame_base: u64) {
        self.l1_for(size).fill_frame(va.vpn(size), frame_base);
        if size != PageSize::Size1G {
            self.l2.fill_frame(Self::l2_key(va, size), frame_base);
        }
        // Mostly-inclusive fill: after installation the entry must be
        // resident in its L1 array, and (for sizes the L2 holds) in the L2.
        invariant!(
            self.l1_for(size).probe(va.vpn(size)),
            "fill did not install {va} ({size}) in its L1 array"
        );
        invariant!(
            size == PageSize::Size1G || self.l2.probe(Self::l2_key(va, size)),
            "fill did not install {va} ({size}) in the shared L2"
        );
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Clears statistics but keeps contents (post-warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Invalidates everything (a full TLB shootdown).
    pub fn flush(&mut self) {
        self.l1_4k.flush();
        self.l1_2m.flush();
        self.l1_1g.flush();
        self.l2.flush();
    }

    fn l1_for(&mut self, size: PageSize) -> &mut TlbArray {
        match size {
            PageSize::Size4K => &mut self.l1_4k,
            PageSize::Size2M => &mut self.l1_2m,
            PageSize::Size1G => &mut self.l1_1g,
        }
    }

    /// L2 key: size-tagged VPN so 4 KB and 2 MB entries never alias.
    /// Shared with architecture extension levels so their arrays key
    /// compatibly with the shared L2.
    pub(crate) fn l2_key(va: VirtAddr, size: PageSize) -> u64 {
        (va.vpn(size) << 1) | (size == PageSize::Size2M) as u64
    }
}

impl CheckInvariants for TlbHierarchy {
    fn check_invariants(&self) {
        self.l1_4k.check_invariants();
        self.l1_2m.check_invariants();
        self.l1_1g.check_invariants();
        self.l2.check_invariants();
        invariant!(
            self.stats.lookups() >= self.stats.misses,
            "TLB lookup total underflows its components"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> TlbHierarchy {
        TlbHierarchy::new(crate::MachineConfig::tiny_test().tlb)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut tlb = hierarchy();
        let va = VirtAddr::new(0x1234_5000);
        assert_eq!(tlb.lookup(va), TlbHit::Miss);
        tlb.fill(va, PageSize::Size4K, 0x9000);
        assert_eq!(tlb.lookup(va), TlbHit::L1(PageSize::Size4K));
        // Same page, different offset.
        assert_eq!(
            tlb.lookup(VirtAddr::new(0x1234_5fff)),
            TlbHit::L1(PageSize::Size4K)
        );
        // Neighbouring page misses.
        assert_eq!(tlb.lookup(VirtAddr::new(0x1234_6000)), TlbHit::Miss);
    }

    #[test]
    fn hits_return_the_installed_frame_base() {
        let mut tlb = hierarchy();
        let va = VirtAddr::new(0x1234_5000);
        tlb.fill(va, PageSize::Size4K, 0xabc0_0000);
        assert_eq!(
            tlb.lookup_frame(va),
            (TlbHit::L1(PageSize::Size4K), 0xabc0_0000)
        );
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut tlb = hierarchy();
        // tiny_test: L1-4K has 8 entries (2-way × 4 sets); L2 has 32.
        // Fill 16 pages: early ones are evicted from L1 but still in L2.
        for i in 0..16u64 {
            tlb.fill(VirtAddr::new(i << 12), PageSize::Size4K, i << 12);
        }
        let (hit, frame) = tlb.lookup_frame(VirtAddr::new(0));
        assert_eq!(hit, TlbHit::L2(PageSize::Size4K));
        // The L2 entry still carries the frame installed at fill time.
        assert_eq!(frame, 0);
        // The L2 hit promoted the entry back into L1.
        assert_eq!(tlb.lookup(VirtAddr::new(0)), TlbHit::L1(PageSize::Size4K));
    }

    #[test]
    fn superpage_reach_exceeds_4k_reach() {
        let mut tlb = hierarchy();
        tlb.fill(VirtAddr::new(0), PageSize::Size2M, 0);
        // Anywhere within the 2 MB page hits.
        assert_eq!(
            tlb.lookup(VirtAddr::new((1 << 21) - 1)),
            TlbHit::L1(PageSize::Size2M)
        );
    }

    #[test]
    fn one_gig_entries_bypass_l2() {
        let mut tlb = hierarchy();
        // tiny_test: L1-1G has 2 entries. Fill 3 → the first is evicted and,
        // because the L2 holds no 1 GB entries, it misses entirely.
        for i in 0..3u64 {
            tlb.fill(VirtAddr::new(i << 30), PageSize::Size1G, 0);
        }
        assert_eq!(tlb.lookup(VirtAddr::new(0)), TlbHit::Miss);
        assert_eq!(
            tlb.lookup(VirtAddr::new(2 << 30)),
            TlbHit::L1(PageSize::Size1G)
        );
    }

    #[test]
    fn l2_keys_do_not_alias_across_sizes() {
        let mut tlb = hierarchy();
        // A 4 KB page whose VPN numerically equals a 2 MB page's VPN.
        let va_4k = VirtAddr::new(7 << 12);
        let va_2m = VirtAddr::new(7 << 21);
        tlb.fill(va_4k, PageSize::Size4K, 0);
        assert_eq!(tlb.lookup(va_2m), TlbHit::Miss);
    }

    #[test]
    fn stats_count_all_outcomes() {
        let mut tlb = hierarchy();
        let va = VirtAddr::new(0x8000);
        tlb.lookup(va); // miss
        tlb.fill(va, PageSize::Size4K, 0);
        tlb.lookup(va); // L1 hit
        let stats = tlb.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.l1_hits, 1);
        assert_eq!(stats.lookups(), 2);
        assert!((stats.miss_ratio() - 0.5).abs() < 1e-12);
        tlb.reset_stats();
        assert_eq!(tlb.stats().lookups(), 0);
    }

    #[test]
    fn flush_invalidates_all_levels() {
        let mut tlb = hierarchy();
        let va = VirtAddr::new(0x4000);
        tlb.fill(va, PageSize::Size4K, 0);
        tlb.flush();
        assert_eq!(tlb.lookup(va), TlbHit::Miss);
    }

    #[test]
    fn array_lru_order() {
        let mut tlb = TlbArray::new(TlbGeometry::new(2, 2));
        tlb.fill(0);
        tlb.fill(2);
        tlb.lookup(0); // refresh 0
        tlb.fill(4); // evicts 2
        assert!(tlb.probe(0));
        assert!(!tlb.probe(2));
        assert!(tlb.probe(4));
    }

    #[test]
    fn array_refill_refreshes_existing_entry() {
        let mut tlb = TlbArray::new(TlbGeometry::new(2, 2));
        tlb.fill(0);
        tlb.fill(2);
        tlb.fill(0); // refresh, not duplicate
        tlb.fill(4); // evicts 2
        assert!(tlb.probe(0));
        assert!(!tlb.probe(2));
    }

    /// Reference move-to-front array (the previous representation) to prove
    /// the stamp-based array hits and evicts identically.
    struct RotateArray {
        tags: Vec<u64>,
        sets: u64,
        ways: usize,
    }

    impl RotateArray {
        fn new(sets: u64, ways: usize) -> Self {
            RotateArray {
                tags: vec![INVALID; sets as usize * ways],
                sets,
                ways,
            }
        }

        fn set(&mut self, key: u64) -> &mut [u64] {
            let base = (key % self.sets) as usize * self.ways;
            &mut self.tags[base..base + self.ways]
        }

        fn lookup(&mut self, key: u64) -> bool {
            let ways = self.set(key);
            match ways.iter().position(|&t| t == key) {
                Some(pos) => {
                    ways[..=pos].rotate_right(1);
                    true
                }
                None => false,
            }
        }

        fn fill(&mut self, key: u64) {
            let ways = self.set(key);
            if let Some(pos) = ways.iter().position(|&t| t == key) {
                ways[..=pos].rotate_right(1);
            } else {
                ways.rotate_right(1);
                ways[0] = key;
            }
        }
    }

    #[test]
    fn stamp_lru_matches_rotate_lru_exactly() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut model = RotateArray::new(4, 4);
        let mut tlb = TlbArray::new(TlbGeometry::new(16, 4));
        let mut rng = SmallRng::seed_from_u64(0xdead);
        for _ in 0..50_000 {
            let key: u64 = rng.gen_range(0u64..64);
            if rng.gen_bool(0.5) {
                assert_eq!(tlb.lookup(key), model.lookup(key), "lookup({key})");
            } else {
                model.fill(key);
                tlb.fill(key);
            }
        }
        for key in 0..64u64 {
            assert_eq!(
                tlb.probe(key),
                model.set(key).contains(&key),
                "probe({key})"
            );
        }
    }
}
