//! Observability layer for the DHB reproduction.
//!
//! The paper's headline results are aggregate bandwidth curves, but every DHB
//! claim rests on per-slot scheduling decisions — share vs. new instance,
//! min-load tie-breaks, fault-driven reschedules. This crate makes those
//! decisions visible without perturbing them:
//!
//! - [`Journal`] / [`Event`]: a structured event journal with a ring-buffered
//!   collector and a JSONL writer ([`jsonl`]). A disabled journal is a single
//!   branch on the hot path.
//! - [`Registry`]: named counters, gauges and log-bucketed histograms with a
//!   deterministic JSON snapshot. Absorbs the former `sim::metrics` types
//!   ([`RunningStats`], [`LoadHistogram`], [`TimeWeightedMax`]), which the sim
//!   crate re-exports for compatibility.
//! - [`HotTimer`] / [`Observer`]: monotonic scoped timers around the
//!   scheduler and engine hot paths, reported as ns/op percentiles.
//! - [`SpanSink`]: the live-telemetry primitive — per-key per-stage span
//!   histograms that decompose request latency across pipeline stages.
//!
//! The crate is dependency-free (std only) so it can sit below every other
//! layer of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod journal;
pub mod jsonl;
mod observer;
mod registry;
mod span;
mod stats;
mod timer;

pub use event::{Event, EventKind, FaultKind, RejectKind};
pub use journal::{EventRecord, Journal};
pub use observer::Observer;
pub use registry::{HistogramSummary, Registry};
pub use span::{SpanRecord, SpanSink};
pub use stats::{LoadHistogram, RunningStats, TimeWeightedMax};
pub use timer::{HotTimer, LogHistogram, ScopedTimer};
