//! # atscale-telemetry — observability for the simulation stack
//!
//! The paper's methodology is *observation*: it reads hardware counters to
//! understand translation behaviour. This crate gives the reproduction the
//! same lens over itself, two instruments deep:
//!
//! * **Interval samples** ([`Sample`], the [`TelemetrySink::sample`]
//!   channel) — the software analogue of `perf stat -I`: the MMU engine
//!   snapshots the counter file every N retired instructions and derives
//!   interval rates (WCPI, STLB MPKI, walk-outcome fractions, PTE-location
//!   mix), so behaviour *within* a run is visible, not just end-of-run
//!   totals.
//! * **Latency histograms** ([`LogHistogram`], [`LatencyMetric`]) —
//!   fixed-layout log-scale histograms of walk duration, TLB fill latency
//!   and per-run harness wall-clock; merge-able across threads.
//!
//! Everything is recorded into one sink, [`TelemetrySink`], and nowhere
//! else: the crate holds no process-global state. Instrumentation sites
//! hold an `Option<Arc<TelemetrySink>>`, so a run with no sink installed
//! pays a single branch on the instrumented paths and takes no lock. The
//! sink aggregates in memory and can stream every event as JSON lines;
//! [`schema`] validates that stream, and CI runs the `telemetry_validate`
//! binary over a real harness emission.
//!
//! ## Example
//!
//! ```
//! use atscale_telemetry::{LatencyMetric, TelemetrySink};
//!
//! let sink = TelemetrySink::new();
//! sink.latency(LatencyMetric::WalkCycles, 38);
//! sink.latency(LatencyMetric::WalkCycles, 112);
//! assert_eq!(sink.histogram(LatencyMetric::WalkCycles).count(), 2);
//! assert!(sink.summary().contains("walk_cycles"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod recorder;
pub mod schema;
mod sink;

pub use hist::{bucket_bounds, HistBucket, HistogramSnapshot, LogHistogram, BUCKETS, SUBBUCKETS};
pub use recorder::{LatencyMetric, Progress, Sample};
pub use sink::{TelemetrySink, SCHEMA_VERSION};
