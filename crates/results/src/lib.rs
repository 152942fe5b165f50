//! The results plane: an append-only columnar store for run records with
//! online, mergeable aggregation.
//!
//! This crate is the run cache's one on-disk format. Answering a fig1
//! question ("β/c over the cc-urand sweep at 4K pages") must not mean
//! replaying every record, so the store keeps each record as the six hot
//! columns a query groups and fits on (sealed segments) plus an
//! LZ-compressed raw-JSON sidecar for bit-for-bit replay, and maintains
//! per-`(workload, footprint, page size, arch)` aggregate state — a WCPI
//! quantile [`Sketch`] and a streaming β/c [`Regress`] accumulator —
//! incrementally as records commit, so sweep queries are `O(groups)`, not
//! `O(runs)`.
//!
//! Layering:
//!
//! * [`codec`] / [`lz`] — the binary framing and compression primitives.
//! * [`sketch`] / [`regress`] / [`aggregate`] — in-memory aggregation
//!   state with exact retraction. Merging groups in any order equals
//!   aggregating the concatenated records: exact for counts, means, and
//!   the β/c fit (integer fixed-point sums), bounded by
//!   [`QUANTILE_RELATIVE_ERROR`] for quantiles.
//! * [`SegmentStore`] — WAL + sealed segments behind one handle, with the
//!   key index and live aggregate rebuilt from the columns at open,
//!   tmp+fsync+rename durability, a quarantine-and-recompute corruption
//!   contract, and a single-owner directory (see [`store`]).
//!
//! The crate is deliberately ignorant of the simulator: callers hand it a
//! dedup key (the record-byte hash), a [`HotRow`], and the raw record
//! bytes. `atscale-core` adapts `RunRecord` to that interface.

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod codec;
pub mod lz;
pub mod regress;
mod segment;
pub mod sketch;
pub mod store;
mod wal;

pub use aggregate::{
    AggState, CompactStats, GroupAgg, GroupKey, GroupSummary, HotRow, QueryFilter, QueryResult,
    SegStats,
};
pub use codec::Corrupt;
pub use regress::{x_fp, Fit, Regress, X_SCALE};
pub use sketch::{value_fp, Sketch, QUANTILE_RELATIVE_ERROR, VALUE_SCALE};
pub use store::{SegmentStore, DEFAULT_SEAL_THRESHOLD};
