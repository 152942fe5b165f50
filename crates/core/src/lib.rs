//! # atscale — address-translation scaling analysis framework
//!
//! A Rust reproduction of *"Understanding Address Translation Scaling
//! Behaviours Using Hardware Performance Counters"* (IISWC 2024). The paper
//! measures how address-translation (AT) overhead and its component
//! pressures scale with memory footprint across 13 workloads; this crate
//! implements the paper's entire methodology over the simulated MMU stack
//! in the companion crates:
//!
//! * [`RunSpec`]/[`execute_run`] — one measured run: workload × footprint ×
//!   page size, producing the full software-performance-counter file;
//! * [`OverheadPoint`] — the paper's §III-A overhead protocol: run 4 KB,
//!   2 MB and 1 GB, take `min(t_2MB, t_1GB)` as the no-translation
//!   baseline, report `(t_4KB − t_baseline) / t_baseline`;
//! * [`Decomposition`] — Equation 1: WCPI as the product of access
//!   intensity, TLB miss rate, walk-cache efficiency, and PTE latency;
//! * [`PressureMetric`] — the five proxy metrics compared in Table V;
//! * [`Harness`] — cached, parallel sweep driver regenerating every table
//!   and figure (see `atscale-bench` for the `atscale` registry binary);
//! * [`report`] — aligned text tables and CSV output.
//!
//! ## Quickstart
//!
//! ```
//! use atscale::{execute_run, ArchKind, RunSpec};
//! use atscale_mmu::MachineConfig;
//! use atscale_vm::PageSize;
//! use atscale_workloads::WorkloadId;
//!
//! let spec = RunSpec {
//!     workload: WorkloadId::parse("cc-urand").expect("known workload"),
//!     nominal_footprint: 64 << 20,
//!     page_size: PageSize::Size4K,
//!     seed: 1,
//!     warmup_instr: 50_000,
//!     budget_instr: 200_000,
//!     arch: ArchKind::Baseline,
//! };
//! let record = execute_run(&spec, &MachineConfig::haswell());
//! assert!(record.result.counters.wcpi() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decomposition;
mod experiment;
mod metrics;
mod overhead;
pub mod report;
mod run;
mod scaling;
mod store;

pub use decomposition::Decomposition;
pub use experiment::{Harness, SweepConfig};
pub use metrics::PressureMetric;
pub use overhead::OverheadPoint;
pub use run::{execute_run, execute_run_reference, execute_run_with_telemetry, RunRecord, RunSpec};

/// The translation-architecture axis of the scenario matrix, re-exported so
/// sweep drivers and clients name architectures without a direct
/// `atscale-mmu` dependency.
pub use atscale_mmu::ArchKind;
pub use scaling::{fit_overhead_scaling, ScalingFit};
pub use store::{hot_row, RunStore, StoreStats};

// The full stack, re-exported so examples and the bench harness can depend
// on `atscale` alone.
pub use atscale_cache as cache;
pub use atscale_gen as gen;
pub use atscale_mmu as mmu;
pub use atscale_results as results;
pub use atscale_stats as stats;
pub use atscale_telemetry as telemetry;
pub use atscale_vm as vm;
pub use atscale_workloads as workloads;
