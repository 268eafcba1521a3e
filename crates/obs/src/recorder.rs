//! The recording trait the hot paths are generic over.
//!
//! Hook sites call `recorder.enabled()` before building an event, so
//! the disabled path costs one branch. With [`NoopRecorder`] (the
//! default everywhere) `enabled()` is a constant `false` that the
//! monomorphised hot loops fold away entirely — a run that records
//! nothing is bit-identical, instruction for instruction, to one built
//! before this crate existed.

use crate::event::{EventKind, TraceEvent};

/// A sink for simulated-time trace events.
///
/// All methods default to no-ops so implementations opt into exactly
/// the primitives they store. Fan-out workers must only ever hold a
/// [`crate::TraceShard`] (one per result slot) — never the serial
/// [`crate::TraceRecorder`]; `junkyard_lint`'s `recorder-in-fanout`
/// facet enforces this mechanically.
pub trait Recorder {
    /// Whether events will be kept. Hook sites gate on this before
    /// paying any formatting cost.
    fn enabled(&self) -> bool {
        false
    }

    /// Records one point event.
    fn event(&mut self, _event: TraceEvent) {}

    /// Bumps the aggregate count for `kind` by `by` without storing a
    /// per-event record — for hot loops where the count is the story.
    fn count(&mut self, _kind: EventKind, _by: u64) {}
}

/// The do-nothing recorder: `enabled()` is `false`, every sink is
/// empty, and the optimiser deletes the hooks.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

impl<R: Recorder + ?Sized> Recorder for &mut R {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn event(&mut self, event: TraceEvent) {
        (**self).event(event);
    }

    fn count(&mut self, kind: EventKind, by: u64) {
        (**self).count(kind, by);
    }
}
