//! # atscale-telemetry — observability for the simulation stack
//!
//! The paper's methodology is *observation*: it reads hardware counters to
//! understand translation behaviour. This crate gives the reproduction the
//! same lens over itself, three instruments deep:
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
//! * **Phase spans** ([`span()`], [`span!`]) — nested wall-clock spans over
//!   harness phases (`sweep/run`, generator setup, …) aggregated in a
//!   process-global registry and rendered as the `--telemetry-summary`
//!   table.
//!
//! Everything flows into one sink, [`TelemetrySink`]: instrumentation
//! sites hold an `Option<Arc<TelemetrySink>>`, so a build with no sink
//! installed pays a single branch on the instrumented paths. The sink
//! aggregates in memory and can stream every event as JSON lines;
//! [`schema`] validates that stream, and CI runs the `telemetry_validate`
//! binary over a real harness emission.
//!
//! ## Example
//!
//! ```
//! use atscale_telemetry::{LatencyMetric, TelemetrySink};
//!
//! let sink = TelemetrySink::new();
//! {
//!     let _phase = atscale_telemetry::span!("doc-example");
//!     sink.latency(LatencyMetric::WalkCycles, 38);
//!     sink.latency(LatencyMetric::WalkCycles, 112);
//! }
//! assert_eq!(sink.histogram(LatencyMetric::WalkCycles).count(), 2);
//! assert!(sink.summary().contains("walk_cycles"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod recorder;
pub mod schema;
mod sink;
mod span;

pub use hist::{bucket_bounds, HistBucket, HistogramSnapshot, LogHistogram, BUCKETS, SUBBUCKETS};
pub use recorder::{LatencyMetric, Progress, Sample};
pub use sink::{TelemetrySink, SCHEMA_VERSION};
pub use span::{render_spans, reset_spans, span, span_records, SpanGuard, SpanRecord};
