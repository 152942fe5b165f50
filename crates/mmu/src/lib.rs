//! # atscale-mmu — the simulated address-translation stack
//!
//! This crate is the reproduction's stand-in for the paper's Haswell-EP
//! memory-management unit and its hardware performance counters. It models:
//!
//! * **TLBs** ([`TlbHierarchy`]): split L1 DTLBs per page size
//!   (64×4 KB, 32×2 MB, 4×1 GB) and a 1024-entry shared L2 TLB for
//!   4 KB/2 MB pages — the paper's Table III.
//! * **Paging-structure caches** ([`PagingStructureCaches`]): PML4E, PDPTE
//!   and PDE caches that let the walker skip upper radix levels
//!   (Barr et al.'s "translation caching"; Intel SDM terminology).
//! * **The page-table walker** ([`PageTableWalker`]): fetches page-table
//!   entries through the simulated cache hierarchy, so PTE hotness and
//!   PTE/data contention are real, observable effects.
//! * **Speculation** ([`SpeculationModel`]): branch mispredicts and machine
//!   clears inject wrong-path accesses whose walks either complete (wrong
//!   path) or are squashed mid-flight (aborted) — the paper's §V-D taxonomy.
//! * **Software performance counters** ([`Counters`]): the same events the
//!   paper reads from hardware (`dtlb_load_misses.miss_causes_a_walk`,
//!   `mem_uops_retired.stlb_miss_loads`, `page_walker_loads.dtlb_l3`, …),
//!   including the Table VI walk-outcome formulae.
//! * **The execution engine** ([`Machine`]): drives all of the above from a
//!   workload-generated access stream and accounts cycles with a simple
//!   exposed-stall model.
//!
//! ## Example
//!
//! ```
//! use atscale_mmu::{AccessSink, Machine, MachineConfig, WorkloadProfile};
//! use atscale_vm::{BackingPolicy, PageSize};
//!
//! # fn main() -> Result<(), atscale_vm::VmError> {
//! let mut machine = Machine::new(
//!     MachineConfig::haswell(),
//!     BackingPolicy::uniform(PageSize::Size4K),
//!     WorkloadProfile::default(),
//! );
//! let seg = machine.space_mut().alloc_heap("buf", 1 << 20)?;
//! for i in 0..4096u64 {
//!     machine.load(seg.base().add((i * 64) % (1 << 20)));
//! }
//! let result = machine.finish();
//! assert!(result.counters.inst_retired > 0);
//! assert!(result.counters.walks_initiated() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod arch;
mod config;
mod counters;
mod engine;
mod mmu_cache;
mod result;
mod spec;
mod telemetry;
mod tlb;
mod trace;
mod walker;

pub use access::{AccessOp, AccessSink, CountingSink, SinkEvent, WorkloadProfile};
pub use arch::{
    ArchKind, ArchLookup, BaselineArch, DramCacheArch, NoTlbArch, TranslationArchitecture,
    VictimaArch,
};
pub use config::{
    MachineConfig, MmuCacheConfig, PscLevels, SpecConfig, TlbConfig, TlbGeometry, WalkerConfig,
};
pub use counters::{Counters, WalkOutcomes};
pub use engine::{ArchMachine, Machine, ReferenceMachine};
pub use mmu_cache::{PagingStructureCaches, PscLookup};
pub use result::RunResult;
pub use spec::{SpecEvent, SpeculationModel, WrongPathPlan};
pub use telemetry::{counter_sample, TelemetryHandle, RATE_NAMES};
pub use tlb::{TlbArray, TlbHierarchy, TlbHit, TlbStats};
pub use trace::{RecordingSink, Trace, TraceEvent};
pub use walker::{PageTableWalker, WalkResult};
