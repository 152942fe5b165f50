//! Access-pattern model of `memcached` under YCSB uniform keys.
//!
//! The paper (§V-A, Fig. 3) highlights memcached's *complex* scaling: the
//! key-value cache hit rate varies with the memory footprint, so the
//! dynamic instruction mix itself changes across the sweep. This model
//! reproduces that mechanism: the key space is fixed (64 Mi keys ≈ a 70 GB
//! dataset) while the cache grows with footprint, so the uniform-key hit
//! rate rises from ≈0 % at 256 MB to most-hits at the top of the sweep —
//! and the hit path (value reads) displaces the miss path (eviction and
//! insertion stores) as footprint grows.

use super::Region;
use crate::meta;
use crate::workload::Workload;
use atscale_mmu::{AccessSink, WorkloadProfile};
use atscale_vm::{AddressSpace, VmError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Fixed key-space size (uniform draws), ≈70 GB of values.
const KEY_SPACE: u64 = 1 << 26;

/// Bytes per cached item: header + key + ~1 KiB value.
const ITEM_BYTES: u64 = 1152;

/// Sequential loads per value read (1 KiB at 64-byte lines, 2 per line).
const VALUE_LOADS: u64 = 8;

/// Instructions of request/protocol processing per operation. memcached
/// spends most of its time in network/syscall/protocol code whose memory
/// traffic is hot (packet buffers, connection state, stack) — the reason
/// the paper finds it insensitive to page size at small footprints.
const PROTOCOL_INSTRS: u64 = 60;

/// Hot accesses (buffers/stack) per operation.
const PROTOCOL_ACCESSES: u64 = 24;

struct Layout {
    buckets: Region,
    items: Region,
    hot: Region,
}

/// The memcached-uniform model.
///
/// # Example
///
/// ```
/// use atscale_mmu::CountingSink;
/// use atscale_vm::{AddressSpace, BackingPolicy, PageSize};
/// use atscale_workloads::models::KvModel;
/// use atscale_workloads::Workload;
///
/// # fn main() -> Result<(), atscale_vm::VmError> {
/// let mut model = KvModel::new(16 << 20, 1);
/// let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
/// model.setup(&mut space)?;
/// let mut sink = CountingSink::with_budget(5_000);
/// model.run(&mut sink);
/// assert!(sink.loads > 200);
/// # Ok(())
/// # }
/// ```
pub struct KvModel {
    footprint: u64,
    items: u64,
    hit_rate: f64,
    read_fraction: f64,
    rng: SmallRng,
    layout: Option<Layout>,
}

impl KvModel {
    /// Creates a model whose cache holds `footprint` bytes of items.
    pub fn new(footprint: u64, seed: u64) -> Self {
        // ~85% of memory holds items; the rest is the bucket array.
        let items = (footprint * 85 / 100 / ITEM_BYTES).max(64);
        KvModel {
            footprint,
            items,
            hit_rate: (items as f64 / KEY_SPACE as f64).min(1.0),
            read_fraction: 0.95,
            rng: SmallRng::seed_from_u64(seed),
            layout: None,
        }
    }

    /// The uniform-key cache hit rate implied by this footprint.
    pub fn hit_rate(&self) -> f64 {
        self.hit_rate
    }

    /// Number of cached items.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Nominal footprint requested at construction.
    pub fn nominal_footprint(&self) -> u64 {
        self.footprint
    }
}

impl Workload for KvModel {
    fn program(&self) -> &'static str {
        "memcached"
    }

    fn generator(&self) -> &'static str {
        "uniform"
    }

    fn profile(&self) -> WorkloadProfile {
        meta::memcached_profile()
    }

    fn setup(&mut self, space: &mut AddressSpace) -> Result<(), VmError> {
        let buckets = Region::new(&space.alloc_heap("hash.buckets", self.items * 8)?);
        let items = Region::new(&space.alloc_heap("slab.items", self.items * ITEM_BYTES)?);
        let hot = Region::new(&space.alloc_heap("conn.buffers", 128 << 10)?);
        buckets.touch_all(space);
        items.touch_all(space);
        hot.touch_all(space);
        self.layout = Some(Layout {
            buckets,
            items,
            hot,
        });
        Ok(())
    }

    fn run(&mut self, sink: &mut dyn AccessSink) {
        assert!(self.layout.is_some(), "setup() must run before run()");
        while !sink.done() {
            self.step_op(sink);
        }
    }
}

impl KvModel {
    /// One GET/SET request.
    fn step_op(&mut self, sink: &mut dyn AccessSink) {
        let hit = self.rng.gen::<f64>() < self.hit_rate;
        let is_read = self.rng.gen::<f64>() < self.read_fraction;
        // Protocol processing: parse request, connection state, response
        // buffers — hot traffic that dominates the instruction stream.
        for i in 0..PROTOCOL_ACCESSES {
            let va = {
                let layout = self.layout.as_mut().expect("setup ran");
                layout.hot.seq(64)
            };
            if i % 4 == 3 {
                sink.store(va);
            } else {
                sink.load(va);
            }
            sink.instructions(PROTOCOL_INSTRS / PROTOCOL_ACCESSES);
        }
        // Hash the key, index the bucket array.
        sink.instructions(8);
        let (bucket, item, item2) = {
            let layout = self.layout.as_ref().expect("setup ran");
            (
                layout.buckets.random(&mut self.rng),
                layout.items.random(&mut self.rng),
                layout.items.random(&mut self.rng),
            )
        };
        // `at` clamps a value line past the slab's end (item drawn in its
        // last 960 B) to the last slot; every other address is unchanged.
        let items = &self.layout.as_ref().expect("setup ran").items;
        let value_line = |k: u64| items.at(item.as_u64() - items.base.as_u64() + 64 + k * 128);
        sink.load(bucket);
        // Walk the chain: one item header, sometimes two.
        sink.load(item);
        sink.instructions(6);
        if self.rng.gen::<f64>() < 0.25 {
            sink.load(item2);
            sink.instructions(6);
        }
        if hit {
            // Value access: sequential within the item.
            for k in 0..VALUE_LOADS {
                if is_read {
                    sink.load(value_line(k));
                } else {
                    sink.store(value_line(k));
                }
            }
            // LRU list maintenance.
            sink.store(item);
            sink.instructions(10);
        } else {
            // Miss: on SETs (and a fraction of GET-misses that trigger
            // refill) evict the LRU item and insert.
            if !is_read || self.rng.gen::<f64>() < 0.3 {
                let (lru, bucket2) = {
                    let layout = self.layout.as_ref().expect("setup ran");
                    (
                        layout.items.random(&mut self.rng),
                        layout.buckets.random(&mut self.rng),
                    )
                };
                sink.load(lru); // victim header
                sink.store(lru); // unlink
                sink.store(bucket2); // old bucket update
                for k in 0..VALUE_LOADS {
                    sink.store(value_line(k)); // write new value
                }
                sink.store(bucket); // link into bucket
                sink.instructions(14);
            } else {
                sink.instructions(4); // cheap miss response
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atscale_mmu::CountingSink;
    use atscale_vm::{BackingPolicy, PageSize};

    fn run_at(footprint: u64) -> (KvModel, CountingSink) {
        let mut model = KvModel::new(footprint, 5);
        let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
        model.setup(&mut space).unwrap();
        let mut sink = CountingSink::with_budget(30_000);
        model.run(&mut sink);
        (model, sink)
    }

    #[test]
    fn hit_rate_grows_with_footprint() {
        let small = KvModel::new(256 << 20, 0);
        let large = KvModel::new(16u64 << 30, 0);
        assert!(small.hit_rate() < 0.01);
        assert!(large.hit_rate() > 0.15);
        assert!(large.hit_rate() > small.hit_rate() * 30.0);
    }

    #[test]
    fn instruction_mix_shifts_with_hit_rate() {
        // At tiny hit rates the op stream is miss-path (store-heavy on the
        // insert fraction); at high hit rates reads dominate.
        let (_m, miss_heavy) = run_at(8 << 20);
        let mut hit_model = KvModel::new(8 << 20, 5);
        hit_model.hit_rate = 0.95; // force the asymptotic regime
        let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
        hit_model.setup(&mut space).unwrap();
        let mut hit_sink = CountingSink::with_budget(30_000);
        hit_model.run(&mut hit_sink);
        let miss_store_ratio = miss_heavy.stores as f64 / miss_heavy.loads as f64;
        let hit_store_ratio = hit_sink.stores as f64 / hit_sink.loads as f64;
        assert!(
            hit_store_ratio < miss_store_ratio,
            "hit path is read-heavy: {hit_store_ratio} vs {miss_store_ratio}"
        );
    }

    #[test]
    fn footprint_is_mapped_by_setup() {
        let mut model = KvModel::new(8 << 20, 1);
        let mut space = AddressSpace::new(BackingPolicy::uniform(PageSize::Size4K));
        model.setup(&mut space).unwrap();
        let mapped = space.stats().data_bytes as f64;
        assert!(mapped > (8 << 20) as f64 * 0.85);
    }

    #[test]
    fn respects_budget() {
        let (_m, sink) = run_at(4 << 20);
        let total = sink.total_instructions();
        assert!((30_000..31_000).contains(&total), "total {total}");
    }
}
