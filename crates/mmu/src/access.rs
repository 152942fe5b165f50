//! The workload → machine interface: access sinks and workload profiles.

use atscale_vm::VirtAddr;
use serde::{Deserialize, Serialize};

/// Kind of a retired memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessOp {
    /// A data load.
    Load,
    /// A data store.
    Store,
}

/// One buffered workload event: a memory access or a bulk retirement of
/// non-memory instructions. The order of events in a batch is the order the
/// kernel emitted them — implementations must process them in sequence, so a
/// batched stream is indistinguishable from the equivalent per-call stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkEvent {
    /// A retired memory operation at the given address.
    Access(AccessOp, VirtAddr),
    /// `n` retired non-memory instructions.
    Instructions(u64),
}

/// Receiver of a workload's dynamic instruction stream.
///
/// Workload kernels *push* their retired loads, stores and non-memory
/// instruction counts into a sink as they execute; the simulated
/// [`crate::Machine`] is the canonical implementation. This inversion keeps
/// kernels ordinary Rust code (no hand-written iterator state machines) and
/// costs nothing when a kernel is run against the no-op sink for testing.
///
/// Implementations must treat each `load`/`store` as one retired
/// instruction; `instructions(n)` reports the `n` *non-memory* instructions
/// retired since the previous event.
///
/// [`event_batch`](Self::event_batch) exists for throughput: a kernel can
/// push a chunk of events through one virtual call instead of one per
/// access. The default implementation loops over the per-item methods, so
/// batching never changes what a sink observes — only how often it is
/// called.
pub trait AccessSink {
    /// One retired memory operation at `va`.
    fn access(&mut self, op: AccessOp, va: VirtAddr);

    /// `n` retired non-memory instructions (address arithmetic, branches,
    /// ALU work between memory references).
    fn instructions(&mut self, n: u64);

    /// `true` once the sink has consumed its instruction budget; kernels
    /// should poll this at loop boundaries and return early.
    fn done(&self) -> bool;

    /// An ordered chunk of interleaved access and instruction events.
    /// Equivalent to dispatching each event through the per-item methods,
    /// in order.
    fn event_batch(&mut self, events: &[SinkEvent]) {
        for &event in events {
            match event {
                SinkEvent::Access(op, va) => self.access(op, va),
                SinkEvent::Instructions(n) => self.instructions(n),
            }
        }
    }

    /// Convenience wrapper for a load.
    fn load(&mut self, va: VirtAddr) {
        self.access(AccessOp::Load, va);
    }

    /// Convenience wrapper for a store.
    fn store(&mut self, va: VirtAddr) {
        self.access(AccessOp::Store, va);
    }
}

/// A sink that counts events and otherwise discards them.
///
/// Useful for exercising kernels in tests without a machine, and for
/// measuring a kernel's intrinsic access/instruction mix.
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    /// Retired loads.
    pub loads: u64,
    /// Retired stores.
    pub stores: u64,
    /// Retired non-memory instructions.
    pub instructions: u64,
    /// Optional instruction budget; 0 means unlimited.
    pub budget: u64,
}

impl CountingSink {
    /// Creates an unlimited counting sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a sink that reports `done` after `budget` instructions.
    pub fn with_budget(budget: u64) -> Self {
        CountingSink {
            budget,
            ..Self::default()
        }
    }

    /// Total retired instructions (memory + non-memory).
    pub fn total_instructions(&self) -> u64 {
        self.loads + self.stores + self.instructions
    }
}

impl AccessSink for CountingSink {
    fn access(&mut self, op: AccessOp, _va: VirtAddr) {
        match op {
            AccessOp::Load => self.loads += 1,
            AccessOp::Store => self.stores += 1,
        }
    }

    fn instructions(&mut self, n: u64) {
        self.instructions += n;
    }

    fn done(&self) -> bool {
        self.budget != 0 && self.total_instructions() >= self.budget
    }
}

/// Per-workload dynamics parameters.
///
/// These describe properties of the *program* that the access stream alone
/// cannot convey: how much instruction-level and memory-level parallelism
/// the out-of-order core extracts, and how often control speculation fails.
/// The paper observes (Fig. 5 discussion) that workload "dynamics" — the
/// composition of the dynamic instruction stream — modulate how much of the
/// translation latency reaches the critical path; this struct is where those
/// dynamics live in the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Cycles per instruction in the absence of memory and walk stalls.
    pub base_cpi: f64,
    /// Effective memory-level parallelism: outstanding-miss overlap divisor
    /// applied to data-miss and walk latencies (≈1 for pointer chasing,
    /// 4–8 for independent scatter/gather).
    pub mlp: f64,
    /// Fraction of a store's walk latency that reaches the critical path
    /// (store walks drain from the store buffer; they stall retirement only
    /// when the buffer backs up).
    pub store_walk_exposure: f64,
    /// Branch mispredicts per 1000 retired instructions.
    pub mispredicts_per_kinstr: f64,
    /// Baseline machine clears per 1000 retired instructions (memory
    /// ordering, self-modifying-code false positives, …). The effective
    /// rate grows with memory-stall intensity (see
    /// [`crate::SpecConfig::clear_stall_coupling`]).
    pub clears_base_per_kinstr: f64,
    /// Probability that a mispredicted branch depends on an in-flight load,
    /// so its resolution waits for that load's latency.
    pub dep_load_prob: f64,
}

impl Default for WorkloadProfile {
    /// A generic memory-intensive profile; workloads override per Table I.
    fn default() -> Self {
        WorkloadProfile {
            base_cpi: 0.6,
            mlp: 3.0,
            store_walk_exposure: 0.5,
            mispredicts_per_kinstr: 4.0,
            clears_base_per_kinstr: 0.02,
            dep_load_prob: 0.4,
        }
    }
}

impl WorkloadProfile {
    /// Validates parameter ranges, panicking on nonsense values.
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative, `mlp < 1`, or a probability is
    /// outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(self.base_cpi > 0.0, "base_cpi must be positive");
        assert!(self.mlp >= 1.0, "mlp must be at least 1");
        assert!(
            (0.0..=1.0).contains(&self.store_walk_exposure),
            "store_walk_exposure must be a fraction"
        );
        assert!(
            self.mispredicts_per_kinstr >= 0.0 && self.clears_base_per_kinstr >= 0.0,
            "event rates must be non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&self.dep_load_prob),
            "dep_load_prob must be a probability"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_counts() {
        let mut sink = CountingSink::new();
        sink.load(VirtAddr::new(0));
        sink.store(VirtAddr::new(8));
        sink.instructions(10);
        assert_eq!(sink.loads, 1);
        assert_eq!(sink.stores, 1);
        assert_eq!(sink.total_instructions(), 12);
        assert!(!sink.done());
    }

    #[test]
    fn budgeted_sink_reports_done() {
        let mut sink = CountingSink::with_budget(3);
        sink.load(VirtAddr::new(0));
        assert!(!sink.done());
        sink.instructions(2);
        assert!(sink.done());
    }

    #[test]
    fn default_profile_is_valid() {
        WorkloadProfile::default().validate();
    }

    /// A sink that remembers the exact event sequence it consumed, for
    /// proving batching is order-preserving.
    #[derive(Default)]
    struct JournalSink {
        events: Vec<SinkEvent>,
    }

    impl AccessSink for JournalSink {
        fn access(&mut self, op: AccessOp, va: VirtAddr) {
            self.events.push(SinkEvent::Access(op, va));
        }

        fn instructions(&mut self, n: u64) {
            self.events.push(SinkEvent::Instructions(n));
        }

        fn done(&self) -> bool {
            false
        }
    }

    #[test]
    fn event_batch_delivers_identical_stream() {
        let events: Vec<SinkEvent> = (0..1000u64)
            .flat_map(|i| {
                [
                    SinkEvent::Access(AccessOp::Load, VirtAddr::new(i << 12)),
                    SinkEvent::Instructions(i % 7),
                    SinkEvent::Access(AccessOp::Store, VirtAddr::new(i << 6)),
                ]
            })
            .collect();
        let mut direct = JournalSink::default();
        for &event in &events {
            match event {
                SinkEvent::Access(AccessOp::Load, va) => direct.load(va),
                SinkEvent::Access(AccessOp::Store, va) => direct.store(va),
                SinkEvent::Instructions(n) => direct.instructions(n),
            }
        }
        let mut batched = JournalSink::default();
        for chunk in events.chunks(256) {
            batched.event_batch(chunk);
        }
        assert_eq!(direct.events, events);
        assert_eq!(batched.events, events);
    }

    #[test]
    #[should_panic(expected = "mlp must be at least 1")]
    fn sub_unity_mlp_rejected() {
        WorkloadProfile {
            mlp: 0.5,
            ..Default::default()
        }
        .validate();
    }
}
