//! # `junkyard_obs` — the observability layer
//!
//! Deterministic sim-time tracing ([`Recorder`], [`TraceRecorder`],
//! [`TraceShard`], [`ConservedLedger`]): events keyed by *simulated*
//! time, recorded through a zero-cost-when-disabled trait threaded into
//! the hot paths as hooks. Workers inside a `thread::scope` fan-out only
//! ever touch their own [`TraceShard`] (one per result slot); the serial
//! driver absorbs shards back in slot order, so an enabled trace is
//! worker-count invariant — the same contract the results themselves
//! already obey. With the [`NoopRecorder`] every hook folds to a
//! constant-false branch and runs are bit-identical to builds that never
//! heard of tracing.
//!
//! The crate never reads a wall clock. Simulated time is replayable and
//! belongs in results and traces; wall time is not, and must never flow
//! into anything a test pins, so wall-clock profiling lives in the bench
//! crate (`junkyard_bench::profiler`). The lint gate enforces the
//! boundary mechanically: `wall-clock-in-sim` allows clocks only under
//! `crates/bench`, and `fanout-purity`'s `recorder-in-fanout` facet
//! keeps the serial-side recorder out of fan-out workers.
//!
//! Traces export as JSONL with a pinned schema — see
//! [`TraceRecorder::to_jsonl`] and the `trace_schema` regression test.

pub mod event;
pub mod ledger;
pub mod recorder;
pub mod trace;

pub use event::{EventKind, TraceEvent, EVENT_KINDS, KIND_COUNT, TRACE_SCHEMA};
pub use ledger::{ConservedLedger, LedgerError};
pub use recorder::{NoopRecorder, Recorder};
pub use trace::{EventSource, TraceRecorder, TraceShard};
