//! Generic LRU set-associative cache array.

use crate::{CacheConfig, SetIndexer};

/// One way's tag word.
trait Tag: Copy + Eq + Into<u64> {
    /// Marks an empty way; never a stored tag.
    const INVALID: Self;
}

impl Tag for u16 {
    const INVALID: u16 = u16::MAX;
}

impl Tag for u64 {
    const INVALID: u64 = u64::MAX;
}

/// Tags below this fit the narrow plane, whose `INVALID` is `u16::MAX`.
const NARROW_LIMIT: u64 = u16::MAX as u64;

/// The tag array: `sets * ways` tags, each set contiguous and in recency
/// order (most recent first).
///
/// It starts with 16-bit tags and widens to 64-bit tags, once and for the
/// cache's lifetime, on the first tag that does not fit. Widening copies
/// every tag's value, so no hit or victim differs from a cache that was
/// wide from the start.
#[derive(Debug, Clone)]
enum TagPlane {
    Narrow(Vec<u16>),
    Wide(Vec<u64>),
}

impl TagPlane {
    fn len(&self) -> usize {
        match self {
            TagPlane::Narrow(tags) => tags.len(),
            TagPlane::Wide(tags) => tags.len(),
        }
    }

    /// The tags of the filled ways among `slots`, in slot order.
    fn filled(&self, slots: std::ops::Range<usize>) -> Vec<u64> {
        fn filled<T: Tag>(tags: &[T]) -> Vec<u64> {
            tags.iter()
                .filter(|&&t| t != T::INVALID)
                .map(|&t| t.into())
                .collect()
        }
        match self {
            TagPlane::Narrow(tags) => filled(&tags[slots]),
            TagPlane::Wide(tags) => filled(&tags[slots]),
        }
    }
}

/// Looks `tag` up in one set's ways and applies LRU: a hit moves it to the
/// front, a miss evicts the last way and inserts at the front.
#[inline]
fn lookup_fill<T: Tag>(ways: &mut [T], tag: T) -> bool {
    let (hit, end) = match ways.iter().position(|&t| t == tag) {
        Some(0) => return true,
        Some(pos) => (true, pos),
        None => (false, ways.len() - 1),
    };
    // Shift the ways before `end` down one and put `tag` in front: a
    // move-to-front on a hit, an eviction of the last way on a miss.
    ways.copy_within(..end, 1);
    ways[0] = tag;
    hit
}

/// An LRU set-associative cache of block tags.
///
/// A block's set is `block % sets` and its tag is `block >> tag_shift`,
/// where `2^tag_shift` is the largest power of two not above `sets`. Two
/// blocks of one set lie at least `sets` apart, so their tags differ: the
/// tag alone tells the blocks of a set apart, and costs a shift, not a
/// divide. Tags are stored as 16-bit words while they fit, and as 64-bit
/// words from the first one that does not. For the Haswell L3 (24576 sets
/// × 20 ways) they fit for every physical address below 65535 MiB, and the
/// tag array takes 960 KiB of host memory instead of 3.75 MiB: small
/// enough to stay in a 2 MiB host L2 beside the page tables and TLBs.
///
/// Each set keeps its ways in recency order (most recent first), so a hit
/// performs a move-to-front and a miss evicts the last way. Both are one
/// `copy_within` (a `memmove` of at most 40 bytes on a narrow 20-way set);
/// the general `rotate_right` measured about a fifth slower across the
/// three levels of the Haswell hierarchy. Set indexing goes through a
/// precomputed [`SetIndexer`] instead of a hardware divide, and the scan
/// runs over a set-local slice so the bounds check is paid once per access
/// rather than once per way.
///
/// Move-to-front was benchmarked against a packed-timestamp representation
/// (per-way recency stamps, min-stamp eviction — see the `StampLru` model in
/// the tests, which proves the two make identical hit/evict decisions). The
/// timestamp layout lost by a wide margin on the real sweeps: it writes a
/// stamp on *every* hit where move-to-front's dominant MRU-position hit is
/// read-only, and the second per-way array doubles the model's memory
/// traffic on miss-heavy streams. Exact LRU either way — adequate for the
/// paper's cache sizes and far simpler than tree-PLRU, whose differences
/// are noise at this level of modelling.
///
/// # Example
///
/// ```
/// use atscale_cache::{CacheConfig, SetAssocCache};
///
/// let mut cache = SetAssocCache::new(CacheConfig::new(1024, 4, 64));
/// assert!(!cache.access(0x40)); // cold miss, now filled
/// assert!(cache.access(0x40));  // hit
/// assert!(cache.access(0x7f));  // same 64-byte line → hit
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    tags: TagPlane,
    indexer: SetIndexer,
    ways: usize,
    line_shift: u32,
    tag_shift: u32,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates an empty (all-invalid) cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = config.ways as usize;
        debug_assert!(ways >= 1, "a cache needs at least one way");
        SetAssocCache {
            tags: TagPlane::Narrow(vec![u16::INVALID; (sets as usize) * ways]),
            indexer: SetIndexer::new(sets),
            ways,
            line_shift: config.line_shift(),
            tag_shift: sets.ilog2(),
            hits: 0,
            misses: 0,
        }
    }

    /// Index range of the set holding `block`.
    #[inline]
    fn set_slice(&self, block: u64) -> std::ops::Range<usize> {
        let base = self.indexer.index(block) * self.ways;
        base..base + self.ways
    }

    /// Looks up the block containing `addr`; fills it on miss.
    /// Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let block = addr >> self.line_shift;
        let set = self.set_slice(block);
        let tag = block >> self.tag_shift;
        let hit = match &mut self.tags {
            TagPlane::Narrow(tags) if tag < NARROW_LIMIT => lookup_fill(&mut tags[set], tag as u16),
            TagPlane::Narrow(_) => lookup_fill(&mut self.widen()[set], tag),
            TagPlane::Wide(tags) => lookup_fill(&mut tags[set], tag),
        };
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Replaces the narrow plane by a wide one holding the same tags.
    #[cold]
    #[inline(never)]
    fn widen(&mut self) -> &mut [u64] {
        if let TagPlane::Narrow(narrow) = &self.tags {
            let wide = narrow
                .iter()
                .map(|&t| {
                    if t == u16::INVALID {
                        u64::INVALID
                    } else {
                        t.into()
                    }
                })
                .collect();
            self.tags = TagPlane::Wide(wide);
        }
        match &mut self.tags {
            TagPlane::Wide(wide) => wide,
            TagPlane::Narrow(_) => unreachable!("the plane was just widened"),
        }
    }

    /// Looks up without filling or updating recency. Returns `true` if the
    /// block is present. Useful for inclusive-hierarchy probes and tests.
    pub fn probe(&self, addr: u64) -> bool {
        let block = addr >> self.line_shift;
        let tag = block >> self.tag_shift;
        let set = self.set_slice(block);
        match &self.tags {
            TagPlane::Narrow(tags) => tag < NARROW_LIMIT && tags[set].contains(&(tag as u16)),
            TagPlane::Wide(tags) => tags[set].contains(&tag),
        }
    }

    /// Invalidates every line and clears hit/miss counters.
    pub fn flush(&mut self) {
        match &mut self.tags {
            TagPlane::Narrow(tags) => tags.fill(u16::INVALID),
            TagPlane::Wide(tags) => tags.fill(u64::INVALID),
        }
        self.hits = 0;
        self.misses = 0;
    }

    /// Hits recorded since construction or the last flush.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded since construction or the last flush.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The block that `tag` stands for in `set`, or `None` if no block of
    /// that set has that tag. At most one does: the `2^tag_shift` blocks
    /// sharing a tag are consecutive, and the blocks of one set lie
    /// `sets ≥ 2^tag_shift` apart.
    fn block_of(&self, set: usize, tag: u64) -> Option<u64> {
        let sets = self.indexer.sets();
        let first = tag << self.tag_shift;
        let block = first + (set as u64 + sets - first % sets) % sets;
        (block >> self.tag_shift == tag).then_some(block)
    }
}

impl atscale_vm::CheckInvariants for SetAssocCache {
    fn check_invariants(&self) {
        atscale_vm::invariant!(
            self.tags.len() == (self.indexer.sets() as usize) * self.ways,
            "tag array holds {} entries for {} sets x {} ways",
            self.tags.len(),
            self.indexer.sets(),
            self.ways
        );
        for set in 0..self.indexer.sets() as usize {
            let tags = self.tags.filled(set * self.ways..(set + 1) * self.ways);
            for (i, &tag) in tags.iter().enumerate() {
                atscale_vm::invariant!(
                    !tags[..i].contains(&tag),
                    "duplicate tag {tag:#x} in set {set}"
                );
                atscale_vm::invariant!(
                    self.block_of(set, tag).is_some(),
                    "tag {tag:#x} stored in set {set} names no block of that set"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HierarchyConfig;
    use atscale_vm::CheckInvariants;

    fn small() -> SetAssocCache {
        // 4 sets, 2 ways, 64 B lines.
        SetAssocCache::new(CacheConfig::new(512, 2, 64))
    }

    /// The blocks resident in `set`, sorted.
    fn resident(cache: &SetAssocCache, set: usize) -> Vec<u64> {
        let slots = set * cache.ways..(set + 1) * cache.ways;
        let mut blocks: Vec<u64> = cache
            .tags
            .filled(slots)
            .into_iter()
            .map(|tag| {
                cache
                    .block_of(set, tag)
                    .expect("a stored tag names a block")
            })
            .collect();
        blocks.sort_unstable();
        blocks
    }

    #[test]
    fn working_set_within_ways_always_hits() {
        let mut c = small();
        // Two blocks mapping to the same set (stride = sets * line).
        let a = 0u64;
        let b = 4 * 64;
        c.access(a);
        c.access(b);
        for _ in 0..100 {
            assert!(c.access(a));
            assert!(c.access(b));
        }
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        let (a, b, d) = (0u64, 4 * 64, 8 * 64); // all set 0
        c.access(a);
        c.access(b);
        c.access(a); // a most recent
        c.access(d); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn same_line_addresses_share_a_block() {
        let mut c = small();
        c.access(0x00);
        assert!(c.access(0x3f));
        assert!(!c.access(0x40), "next line is a different block");
    }

    #[test]
    fn probe_does_not_fill_or_touch_lru() {
        let mut c = small();
        assert!(!c.probe(0));
        assert!(!c.access(0));
        let (a, b, d) = (0u64, 4 * 64, 8 * 64);
        c.access(b);
        // Probing `a` must not refresh it.
        assert!(c.probe(a));
        c.access(d); // should evict a (LRU), not b
        assert!(!c.probe(a));
        assert!(c.probe(b));
    }

    #[test]
    fn flush_clears_contents_and_counters() {
        let mut c = small();
        c.access(0);
        c.access(0);
        assert_eq!((c.hits(), c.misses()), (1, 1));
        c.flush();
        assert_eq!((c.hits(), c.misses()), (0, 0));
        assert!((0..4).all(|set| resident(&c, set).is_empty()));
        assert!(!c.probe(0));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small();
        // 8 blocks across 4 sets (2 per set) all fit.
        for i in 0..8u64 {
            c.access(i * 64);
        }
        for i in 0..8u64 {
            assert!(c.probe(i * 64), "block {i} evicted unexpectedly");
        }
    }

    #[test]
    fn haswell_l3_tags_stay_16_bit_below_65535_mib() {
        let mut l3 = SetAssocCache::new(HierarchyConfig::haswell().l3);
        assert_eq!(l3.tag_shift, 14);
        let TagPlane::Narrow(tags) = &l3.tags else {
            panic!("a new cache starts narrow");
        };
        assert_eq!(size_of_val(&tags[..]), 960 << 10);
        // A tag covers 2^14 blocks of 64 B: 1 MiB of physical memory.
        let limit = NARROW_LIMIT << 20;
        let below = limit - 64;
        assert!(!l3.access(below));
        assert!(l3.access(below));
        assert!(matches!(l3.tags, TagPlane::Narrow(_)));
        // The first block at the limit has tag `u16::MAX` and widens the
        // plane; the block filled before keeps its tag and its place.
        assert!(!l3.probe(limit));
        assert!(!l3.access(limit));
        assert!(matches!(l3.tags, TagPlane::Wide(_)));
        assert!(l3.access(below));
        assert!(l3.access(limit));
        assert_eq!((l3.hits(), l3.misses()), (3, 2));
        l3.check_invariants();
    }

    #[test]
    fn block_of_inverts_the_set_and_tag_split() {
        for sets in [1u64, 3, 4, 12, 24576] {
            let c = SetAssocCache::new(CacheConfig::new(sets * 2 * 64, 2, 64));
            for block in [0u64, 1, sets - 1, sets, 12345, 1 << 40, (1 << 58) - 1] {
                let set = (block % sets) as usize;
                assert_eq!(c.block_of(set, block >> c.tag_shift), Some(block));
            }
        }
        // 24576 sets: a tag covers 2^14 consecutive blocks, so it names a
        // block in only two of every three sets.
        let c = SetAssocCache::new(HierarchyConfig::haswell().l3);
        let named = (0..24576)
            .filter(|&set| c.block_of(set, 7).is_some())
            .count();
        assert_eq!(named, 1 << 14);
    }

    /// Packed-timestamp LRU: per-way recency stamps, min-stamp eviction.
    /// This was the candidate replacement representation; it lost the
    /// benchmark (see the module docs) but stays here as an independent
    /// model proving the shipped move-to-front array implements *exact*
    /// LRU — identical hits and identical victims on every access.
    struct StampLru {
        tags: Vec<u64>,
        stamps: Vec<u64>,
        sets: u64,
        ways: usize,
        clock: u64,
    }

    impl StampLru {
        fn new(sets: u64, ways: usize) -> Self {
            StampLru {
                tags: vec![u64::INVALID; sets as usize * ways],
                stamps: vec![0; sets as usize * ways],
                sets,
                ways,
                clock: 0,
            }
        }

        fn access(&mut self, block: u64) -> bool {
            let base = (block % self.sets) as usize * self.ways;
            self.clock += 1;
            let tags = &mut self.tags[base..base + self.ways];
            let stamps = &mut self.stamps[base..base + self.ways];
            if let Some(pos) = tags.iter().position(|&t| t == block) {
                stamps[pos] = self.clock;
                return true;
            }
            // Min-stamp victim, first index on ties (never-used ways carry
            // stamp 0, so empty slots are consumed before evictions).
            let mut victim = 0;
            for (i, &s) in stamps.iter().enumerate().skip(1) {
                if s < stamps[victim] {
                    victim = i;
                }
            }
            tags[victim] = block;
            stamps[victim] = self.clock;
            false
        }
    }

    #[test]
    fn rotate_lru_matches_stamp_lru_exactly() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // Non-power-of-two set count exercises the fastmod path too.
        let mut model = StampLru::new(12, 4);
        let mut cache = SetAssocCache::new(CacheConfig::new(12 * 4 * 64, 4, 64));
        let mut rng = SmallRng::seed_from_u64(0xfeed);
        for i in 0..50_000u64 {
            // From halfway on, some blocks sit past 2^40 bytes: their tags
            // need more than 16 bits, so the plane widens mid-stream.
            let high = i >= 25_000 && rng.gen_bool(0.5);
            let addr: u64 = rng.gen_range(0u64..4096) * 64 + if high { 1 << 40 } else { 0 };
            let expect = model.access(addr >> 6);
            let got = cache.access(addr);
            assert_eq!(got, expect, "divergence at access {i}, addr {addr:#x}");
            if i == 24_999 {
                assert!(matches!(cache.tags, TagPlane::Narrow(_)));
            }
            // The two representations must also agree on *contents*: same
            // resident blocks after every eviction decision.
            if i % 1000 == 0 {
                for set in 0..12usize {
                    let base = set * 4;
                    let mut b: Vec<u64> = model.tags[base..base + 4]
                        .iter()
                        .copied()
                        .filter(|&t| t != u64::INVALID)
                        .collect();
                    b.sort_unstable();
                    assert_eq!(
                        resident(&cache, set),
                        b,
                        "resident-set divergence in set {set}"
                    );
                }
            }
        }
        assert!(matches!(cache.tags, TagPlane::Wide(_)));
        cache.check_invariants();
    }
}
