//! # atscale-workloads — the paper's Table I workload suite
//!
//! The paper characterises eight programs across four suites:
//!
//! | Suite | Program(s) | Generator(s) | Type |
//! |-------|-----------|--------------|------|
//! | GAPBS | `bc bfs cc pr tc` | `urand`, `kron` | graph processing |
//! | YCSB  | `memcached` | `uniform` | key-value store |
//! | SPEC 2006 | `mcf` | `rand` | network simplex |
//! | PARSEC | `streamcluster` | `rand` | clustering |
//!
//! This crate provides each of them **twice**:
//!
//! 1. [`kernels`] — real, executable Rust implementations of the algorithms
//!    (BFS, betweenness centrality, connected components, PageRank, triangle
//!    counting on actual CSR graphs; a chaining hash-table KV cache; a
//!    successive-shortest-path min-cost-flow solver; a streaming k-median
//!    clusterer). Their data lives in host memory but is *addressed* through
//!    [`SimArray`]s in simulated virtual memory, so every load/store they
//!    perform is pushed into an [`atscale_mmu::AccessSink`]. These run at
//!    small-to-medium footprints and anchor the models to reality.
//!
//! 2. [`models`] — statistical access-pattern models of the same kernels
//!    that reach the paper's multi-gigabyte footprints in O(1) host memory
//!    by exploiting the streaming generators in `atscale-gen`. Validation
//!    tests assert that where kernels and models overlap in footprint, the
//!    translation metrics agree in trend.
//!
//! The [`registry`] module names the paper's 13 workload–generator
//! combinations and builds the model for any requested footprint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
pub mod meta;
pub mod models;
pub mod registry;
mod simalloc;
mod workload;

pub use registry::{Generator, Program, WorkloadId};
pub use simalloc::{SimArray, SimBitmap};
pub use workload::Workload;
