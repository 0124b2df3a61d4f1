//! Structured event tracing and profiling for Horse experiments.
//!
//! The crate answers the question the coarse `fti_time`/`des_time` pair in
//! an [`ExperimentReport`] cannot: *which* control-plane conversation held
//! the hybrid clock in FTI, and what the control plane was doing while it
//! did. Instrumented components (the runner, the CM pump, each BGP speaker,
//! the OpenFlow controller) record compact [`TraceData`] payloads into
//! per-component ring buffers behind the [`TraceSink`] trait; when tracing
//! is disabled the [`NullSink`]/[`Tracer::Null`] path inlines to a single
//! discriminant check, so instrumented code is ~free unless a trace was
//! requested.
//!
//! Design points:
//!
//! * **Two timestamps per event.** Every [`TraceEvent`] carries the virtual
//!   [`SimTime`](horse_sim::SimTime) it describes *and* the wall-clock nanoseconds since the run
//!   epoch when it was recorded. Virtual time is deterministic (same seed ⇒
//!   byte-identical semantic export); wall time shows where real CPU went.
//! * **Preallocated ring buffers.** A [`RingSink`] allocates its capacity up
//!   front and overwrites the oldest events on overflow, counting drops —
//!   recording never allocates and never blocks the hot path.
//! * **Deterministic merge.** [`TraceLog::assemble`] merges per-component
//!   logs into one stream ordered by `(virtual time, component, sequence)`,
//!   which is stable across runs and across sweep worker counts.
//! * **Exports.** [`TraceLog::to_json`] emits a flat self-describing event
//!   list; [`TraceLog::chrome_json`] emits Chrome `trace_event` JSON that
//!   loads directly in Perfetto / `chrome://tracing` (mode spans on one
//!   track, per-component instant tracks). Passing `include_wall = false`
//!   strips wall-clock fields so the output is byte-deterministic.
//! * **Post-pass analysis.** [`attribute_fti`] walks the merged stream and
//!   credits every FTI interval to the named control-plane conversation
//!   that was active ("bgp:n3<->10.0.0.7", "of:sw12", "link:4", ...);
//!   [`convergence_timeline`] derives per-speaker session-establishment and
//!   last-activity timelines.
//!
//! `horse-trace` sits low in the dependency graph (it needs only
//! `horse-sim` for time types); `horse-bgp`, `horse-openflow`, `horse-core`
//! and `horse-sweep` depend on it, never the reverse.
//!
//! [`ExperimentReport`]: https://docs.rs/horse-core

pub mod analysis;
pub mod event;
pub mod log;
pub mod sink;

pub use analysis::{attribute_fti, convergence_timeline, FtiAttribution, SpeakerTimeline};
pub use event::{Component, PumpReason, TraceData, TraceEvent};
pub use log::{ComponentLog, TraceLog, TraceSummary};
pub use sink::{NullSink, RingSink, TraceOptions, TraceSink, Tracer};
