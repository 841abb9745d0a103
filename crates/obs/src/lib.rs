//! Zero-dependency observability for the workspace: a lock-free metrics
//! registry and a structured JSON-lines tracer.
//!
//! The crate exists so the hot layers (`dd`, `portfolio`) can answer *why*
//! questions — where does a race spend its time, how often does garbage
//! collection run, which scheme actually won — without paying for
//! the answer when nobody is asking. Two halves:
//!
//! * [`metrics`] — process-wide counters and log₂ histograms with static IDs.
//!   Each thread increments its own cache-line-private cells with relaxed
//!   atomics; [`metrics::fold`] sums every thread's cells on demand. An
//!   increment is one thread-local lookup plus one relaxed `fetch_add` — no
//!   locks, no allocation, safe from `Drop` impls during thread teardown.
//! * [`trace`] — a span/event tracer writing one JSON object per line to an
//!   installed sink (`verify --trace-file`). Every line carries a monotonic
//!   `ts_us` timestamp, a stable per-thread ID and the ambient correlation
//!   [`trace::Context`] (pair, scheme, parent span). When no sink is
//!   installed the entire layer is one relaxed atomic load and a branch —
//!   [`trace::enabled`] — so instrumented hot paths cost nothing measurable
//!   with tracing off.
//!
//! The crate deliberately depends on nothing (not even the vendored serde):
//! `dd` sits at the bottom of the workspace graph and everything above it
//! links `obs`, so this crate must stay a leaf.

#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{fold, Metric, MetricDef, Snapshot, Unit};
pub use trace::{enabled, event, span, Context, FieldValue, Span};
