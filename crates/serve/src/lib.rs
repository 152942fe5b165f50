//! `atscale-serve`: a long-lived experiment-serving daemon over the
//! `atscale` harness.
//!
//! The daemon accepts [`RunSpec`](atscale::RunSpec) batches over
//! newline-delimited JSON (TCP and/or a Unix socket), schedules them with
//! single-flight deduplication and bounded admission, answers cache-first
//! from a [`RunStore`](atscale::RunStore), and streams final records back
//! to every subscribed client, each with its progress event and, when
//! asked for, its interval samples replayed from the record. Shutdown is
//! graceful: in-flight work drains, every accepted batch is answered.
//!
//! Layering:
//!
//! - [`protocol`] — the wire frames (requests, replies, JSON-lines codec);
//! - [`scheduler`] — single-flight dedup, admission control, deadlines,
//!   drain, and delivery: every frame of a batch after `Accepted`,
//!   samples included, is written by `Batch::resolve`;
//! - [`server`] — endpoint binding, request dispatch, lifecycle;
//! - [`sys`] — the raw epoll/eventfd syscall shim (the workspace's single
//!   sanctioned-unsafe module);
//! - [`reactor`] — the one I/O plane, for TCP and Unix sockets alike: an
//!   epoll acceptor plus thread-per-core reactor shards (non-blocking
//!   framed I/O, per-connection backpressure in both directions);
//! - [`router`] — deterministic consistent hashing of record keys across
//!   a shard topology;
//! - [`loadgen`] — the open-loop Poisson load-generation engine behind
//!   the `loadgen` bench binary;
//! - [`client`] — [`Client`], one blocking connection that sends one
//!   batch or one verb, and the topology-aware [`ShardedClient`], the
//!   one place that chunks, backs off and re-dials.
//!
//! Everything runs on std threads; there is no async runtime — the I/O
//! plane is a hand-rolled reactor over raw syscalls, so the daemon runs
//! on Linux only (elsewhere [`Server::start`] returns `ENOSYS`; the
//! client and the wire codec are portable).
//!
//! The stack is chaos-tested: with the non-default `faults` feature, a
//! deterministic `atscale_faults::FaultPlan` can be threaded through the
//! store, scheduler, server, and client (see `tests/chaos.rs` and
//! DESIGN.md §13). Release builds compile every injection site out; the
//! recovery machinery the faults forced into existence — the sharded
//! client's [`RetryPolicy`], store quarantine/GC, worker-panic
//! containment with `Failed` frames — is always on.

// `deny`, not `forbid`: the epoll shim in `sys` is the workspace's one
// documented exception that allows unsafe code back, and CI's lint-policy
// step keeps it the only one.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod loadgen;
pub mod protocol;
pub mod reactor;
pub mod router;
pub mod scheduler;
pub mod server;
pub mod sys;

pub use client::{Client, ClientError, RetryPolicy, ShardedClient, SubmitOptions};
pub use protocol::{Reply, Request, PROTOCOL_VERSION};
pub use router::ShardMap;
pub use scheduler::{ReplySink, Scheduler, ServeConfig, ServeStats};
pub use server::{Server, ServerHandle};
