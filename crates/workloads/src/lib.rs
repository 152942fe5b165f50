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
//! Each program has one implementation here: a statistical access-pattern
//! model in [`models`] that reaches the paper's multi-gigabyte footprints
//! in O(1) host memory. The [`registry`] module names the paper's 13
//! workload–generator combinations and builds the model for any requested
//! footprint.
//!
//! One model is checked against a real kernel: `atscale`'s
//! `model_vs_kernel` test runs a label-propagation connected-components
//! kernel on an actual `urand` CSR graph beside the cc-urand model and
//! compares their translation metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod meta;
pub mod models;
pub mod registry;
mod workload;

pub use registry::{Generator, Program, WorkloadId};
pub use workload::Workload;
