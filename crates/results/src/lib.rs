//! The results plane: an append-only row store for run records, queried
//! from its live rows.
//!
//! This crate is the run cache's one on-disk format. Answering a fig1
//! question ("β/c over the cc-urand sweep at 4K pages") must not mean
//! replaying every record's JSON, so the store keeps each record as one
//! row: its dedup key, the six hot columns a query groups and fits on,
//! and an LZ-compressed raw-JSON sidecar for bit-for-bit replay. The WAL
//! and the sealed segments encode a row the same way, every row stays in
//! memory, and [`query`] answers a filter by scanning the live ones:
//! counts, means and the β/c fit from integer fixed-point sums, p50/p99
//! as exact nearest-rank order statistics.
//!
//! Layering:
//!
//! * [`codec`] / [`lz`] — the binary framing and compression primitives.
//! * [`regress`] / [`aggregate`] — the [`HotRow`] schema, the β/c
//!   accumulator, and the one [`query`] function over rows.
//! * [`SegmentStore`] — WAL + sealed segments behind one handle, with one
//!   in-memory row table and key index read back at open,
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
pub mod store;
mod wal;

pub use aggregate::{
    query, value_fp, CompactStats, GroupSummary, HotRow, QueryFilter, QueryResult, SegStats,
    VALUE_SCALE,
};
pub use codec::Corrupt;
pub use regress::{x_fp, Fit, Regress, X_SCALE};
pub use store::{SegmentStore, DEFAULT_SEAL_THRESHOLD};
