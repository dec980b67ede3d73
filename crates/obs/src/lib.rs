//! Observability for the abstract-WAM workspace: counters, event
//! tracing, and the span profiler.
//!
//! The paper this workspace reproduces (Tan & Lin, PLDI 1992) makes a
//! performance claim; this crate makes that claim *inspectable*. It has
//! five modules, all usable independently:
//!
//! * [`counters`] — [`TableStats`] (extension-table work),
//!   [`OpcodeCounts`] (per-opcode dispatch), [`MachineStats`]
//!   (calls/backtracks/high-water marks), [`SessionStats`] (warm/cold
//!   query split of the session layer), [`InternStats`] (pattern-interner
//!   dedup and lub/leq memo-cache behavior). Counters are plain `u64`
//!   increments and stay on in release builds.
//! * [`trace`] — a [`Tracer`] trait with no-op, recording, and
//!   JSONL-streaming implementations. Machines hold an
//!   `Option<&mut dyn Tracer>`, so the untraced path is one branch per
//!   hook.
//! * [`span`] — the one timing model: a hierarchical [`SpanProfiler`]
//!   with per-span call counts, total and self time. The CLI records its
//!   pipeline phases (parse, compile, analyze, execute, report) as root
//!   spans; the analyzer records fixpoint runs and predicates as spans
//!   and charges the hot fixpoint [`Layer`]s to fixed leaf slots, one
//!   clock read per layer boundary.
//! * [`metrics`] — log₂-bucket [`Histogram`]s that merge exactly: the
//!   analyzer's consult-latency and per-round distributions, and the
//!   serve daemon's request latency.
//! * [`mod@envelope`] — the versioned `{"schema": "awam/v1", …}` wrapper
//!   every machine-readable surface (CLI `--stats-json` documents, the
//!   serve daemon's responses) shares, plus the structured error
//!   envelope.
//!
//! Everything serializes through the built-in [`json`] module (the
//! workspace builds offline, so no serde): stats become one JSON
//! document, traces become JSONL with one event per line, and both
//! parse back losslessly.

#![warn(missing_docs)]

pub mod counters;
pub mod envelope;
pub mod json;
pub mod metrics;
pub mod span;
pub mod trace;

pub use counters::{
    InternStats, InvalidationStats, MachineStats, OpcodeCounts, ServeStats, SessionStats,
    TableStats,
};
pub use envelope::{envelope, envelope_obj, error_envelope, SCHEMA};
pub use json::{Json, JsonError};
pub use metrics::Histogram;
pub use span::{Layer, SpanNode, SpanProfiler};
pub use trace::{
    parse_jsonl, term_from_json, term_to_json, JsonlTracer, NopTracer, RecordingTracer, TraceEvent,
    Tracer,
};
