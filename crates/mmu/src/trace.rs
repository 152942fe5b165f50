//! Access-trace recording and replay.
//!
//! Architects routinely decouple workload execution from simulation by
//! capturing an address trace once and replaying it against many machine
//! configurations. This module provides that workflow, in memory, for any
//! [`AccessSink`]-driven workload: wrap the machine in a
//! [`RecordingSink`], run once, then [`Trace::replay`] against as many
//! configurations as needed — each replay sees the *identical* access
//! stream, eliminating workload-side variance from ablations.

use crate::{AccessOp, AccessSink};
use atscale_vm::VirtAddr;

/// One event of a recorded access trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A retired load at the given virtual address.
    Load(u64),
    /// A retired store at the given virtual address.
    Store(u64),
    /// `n` retired non-memory instructions.
    Instructions(u64),
}

/// A recorded access trace.
///
/// # Example
///
/// ```
/// use atscale_mmu::{AccessSink, CountingSink, RecordingSink, Trace};
/// use atscale_vm::VirtAddr;
///
/// let mut inner = CountingSink::new();
/// let mut rec = RecordingSink::new(&mut inner);
/// rec.load(VirtAddr::new(0x1000));
/// rec.instructions(3);
/// rec.store(VirtAddr::new(0x2000));
/// let trace = rec.into_trace();
/// assert_eq!(trace.len(), 3);
///
/// let mut replayed = CountingSink::new();
/// trace.replay(&mut replayed);
/// assert_eq!(replayed.loads, 1);
/// assert_eq!(replayed.stores, 1);
/// assert_eq!(replayed.instructions, 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Appends an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Replays the trace into a sink, stopping early if the sink reports
    /// `done`. Returns the number of events delivered.
    pub fn replay(&self, sink: &mut dyn AccessSink) -> usize {
        for (i, event) in self.events.iter().enumerate() {
            if sink.done() {
                return i;
            }
            match *event {
                TraceEvent::Load(va) => sink.load(VirtAddr::new(va)),
                TraceEvent::Store(va) => sink.store(VirtAddr::new(va)),
                TraceEvent::Instructions(n) => sink.instructions(n),
            }
        }
        self.events.len()
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Trace {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceEvent> for Trace {
    fn extend<I: IntoIterator<Item = TraceEvent>>(&mut self, iter: I) {
        self.events.extend(iter);
    }
}

/// An [`AccessSink`] adaptor that records everything flowing through it
/// while forwarding to an inner sink.
pub struct RecordingSink<'a> {
    inner: &'a mut dyn AccessSink,
    trace: Trace,
}

impl std::fmt::Debug for RecordingSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordingSink")
            .field("events", &self.trace.len())
            .finish_non_exhaustive()
    }
}

impl<'a> RecordingSink<'a> {
    /// Wraps `inner`, recording every event it receives.
    pub fn new(inner: &'a mut dyn AccessSink) -> RecordingSink<'a> {
        RecordingSink {
            inner,
            trace: Trace::new(),
        }
    }

    /// Finishes recording and returns the trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl AccessSink for RecordingSink<'_> {
    fn access(&mut self, op: AccessOp, va: VirtAddr) {
        self.trace.push(match op {
            AccessOp::Load => TraceEvent::Load(va.as_u64()),
            AccessOp::Store => TraceEvent::Store(va.as_u64()),
        });
        self.inner.access(op, va);
    }

    fn instructions(&mut self, n: u64) {
        self.trace.push(TraceEvent::Instructions(n));
        self.inner.instructions(n);
    }

    fn done(&self) -> bool {
        self.inner.done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CountingSink;

    fn sample() -> Trace {
        Trace::from_iter([
            TraceEvent::Load(0x1000),
            TraceEvent::Instructions(5),
            TraceEvent::Store(0x2008),
            TraceEvent::Load(0xffff_ffff_ffff),
        ])
    }

    #[test]
    fn recording_forwards_and_captures() {
        let mut inner = CountingSink::new();
        let mut rec = RecordingSink::new(&mut inner);
        rec.load(VirtAddr::new(1 << 12));
        rec.instructions(2);
        rec.store(VirtAddr::new(2 << 12));
        let trace = rec.into_trace();
        assert_eq!(inner.loads, 1);
        assert_eq!(inner.stores, 1);
        assert_eq!(inner.instructions, 2);
        assert_eq!(trace.len(), 3);
    }

    #[test]
    fn replay_respects_done() {
        let trace = sample();
        let mut sink = CountingSink::with_budget(1);
        let delivered = trace.replay(&mut sink);
        assert!(delivered < trace.len());
    }

    #[test]
    fn replay_reproduces_machine_counters() {
        use crate::{Machine, MachineConfig, WorkloadProfile};
        use atscale_vm::BackingPolicy;
        use atscale_vm::PageSize;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let build = || {
            let mut m = Machine::new(
                MachineConfig::haswell(),
                BackingPolicy::uniform(PageSize::Size4K),
                WorkloadProfile::default(),
            );
            let seg = m.space_mut().alloc_heap("a", 8 << 20).unwrap();
            (m, seg)
        };

        // Direct run, recorded.
        let (mut direct, seg) = build();
        let mut rng = SmallRng::seed_from_u64(9);
        let trace = {
            let mut rec = RecordingSink::new(&mut direct);
            for _ in 0..5_000 {
                let off = rng.gen_range(0..seg.len() / 8) * 8;
                rec.load(seg.base().add(off));
                rec.instructions(2);
            }
            rec.into_trace()
        };
        let direct_result = direct.finish();

        // Replay into a fresh machine.
        let (mut replayed, _seg) = build();
        trace.replay(&mut replayed);
        let replay_result = replayed.finish();

        assert_eq!(direct_result.counters, replay_result.counters);
        assert_eq!(direct_result.tlb, replay_result.tlb);
    }
}
