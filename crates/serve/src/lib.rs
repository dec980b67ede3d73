//! `awam-serve`: the multi-tenant analysis daemon.
//!
//! The paper's compile-once/analyze-many architecture, turned into a
//! long-running service: a program is compiled to abstract-WAM code at
//! most once per distinct source text, cached behind an `Arc` and
//! shared by every connection, while each tenant keeps pools of warm
//! [`awam_core::Session`]s whose extension tables answer repeat goals
//! without re-running the fixpoint.
//!
//! * [`protocol`] — the line-delimited JSON wire format (requests,
//!   `awam/v1` response envelopes, error codes).
//! * [`cache`] — the sharded, byte-budgeted LRU [`ProgramCache`]
//!   (compile-once under concurrency) and the sharded
//!   per-`(tenant, program)` [`SessionPool`].
//! * [`stats`] — connection-local counters and latency histograms,
//!   merged only when a `stats` snapshot asks.
//! * [`server`] — [`Server`]/[`ServerHandle`], the accept loop, the
//!   pipelined per-connection executor, the load-shed gate, and
//!   per-request deadlines.
//! * [`client`] — a small blocking [`Client`] (with a pipelined
//!   send/recv surface) for tests and drivers.
//! * [`loadgen`] — the closed/open-loop load generator behind
//!   `awam loadgen` and the serve benchmark.
//!
//! The daemon is std-only (the workspace builds offline): a
//! thread-per-connection `TcpListener` loop, sharded `Mutex` caches,
//! and an atomic admission gate. No request touches a process-global
//! lock.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod stats;

pub use cache::{ProgramCache, SessionPool};
pub use client::Client;
pub use loadgen::{run_loadgen, LoadgenConfig};
pub use protocol::{parse_request, GoalSpec, ProgramRef, Request};
pub use server::{ServeConfig, Server, ServerHandle, MAX_LINE_BYTES};
pub use stats::{ConnStats, ConnStatsHandle, StatsRegistry};
