//! The wall-clock stage profiler behind `perf_report`.
//!
//! Wall clocks live only in this crate: `junkyard_lint`'s
//! `wall-clock-in-sim` rule flags `Instant`/`SystemTime` everywhere
//! else. Two mechanical guards keep wall time from leaking into
//! results:
//!
//! * [`Profiler`] is `!Send` (a raw-pointer `PhantomData` opts it out),
//!   so it cannot move into a `thread::scope` worker — per-stage times
//!   are only ever measured on the serial driver side, bracketing the
//!   fan-out as a whole.
//! * Nothing here touches simulated time: the profiler knows stage
//!   labels and durations, never event timestamps. The sim-time tracer
//!   ([`junkyard_obs::TraceRecorder`]) is the mirror image — it never
//!   sees a wall clock.

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::time::Instant;

/// One open stage on the profiler's stack.
#[derive(Debug)]
struct Frame {
    label: String,
    started: Instant,
    /// Wall micros spent in already-closed child stages, subtracted to
    /// get this frame's self time for the folded output.
    child_micros: u128,
}

/// A serial-side, stack-shaped wall-clock profiler.
///
/// `start`/`stop` calls nest: `compile` → `event-loop` inside a
/// scenario produce the collapsed-stack paths `scenario`,
/// `scenario;compile`, `scenario;event-loop`. [`Profiler::folded`]
/// emits standard collapsed-stack lines (`path self-micros`) that
/// flamegraph tooling consumes directly; [`Profiler::stages`] reports
/// inclusive per-stage milliseconds for `BENCH_microsim.json`.
#[derive(Debug, Default)]
pub struct Profiler {
    open: Vec<Frame>,
    /// Self-time micros per collapsed-stack path, in sorted path order.
    folded: BTreeMap<String, u128>,
    /// (full path, inclusive ms) in completion order.
    stages: Vec<(String, f64)>,
    /// Raw-pointer marker: opts out of `Send`/`Sync` so the profiler
    /// cannot cross into a fan-out worker (without any `unsafe`).
    _serial_only: PhantomData<*const ()>,
}

impl Profiler {
    /// An idle profiler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a stage nested inside the currently open one (if any).
    pub fn start(&mut self, label: &str) {
        self.open.push(Frame {
            label: label.to_string(),
            started: Instant::now(),
            child_micros: 0,
        });
    }

    /// Closes the innermost open stage, returning its inclusive wall
    /// milliseconds. A stray `stop` with nothing open records nothing
    /// and returns `0.0`.
    pub fn stop(&mut self) -> f64 {
        let Some(frame) = self.open.pop() else {
            return 0.0;
        };
        let elapsed = frame.started.elapsed();
        let inclusive_micros = elapsed.as_micros();
        let mut path = String::new();
        for parent in &self.open {
            path.push_str(&parent.label);
            path.push(';');
        }
        path.push_str(&frame.label);
        let self_micros = inclusive_micros.saturating_sub(frame.child_micros);
        *self.folded.entry(path.clone()).or_insert(0) += self_micros;
        if let Some(parent) = self.open.last_mut() {
            parent.child_micros += inclusive_micros;
        }
        let inclusive_ms = elapsed.as_secs_f64() * 1e3;
        self.stages.push((path, inclusive_ms));
        inclusive_ms
    }

    /// Times one closed-over stage: `start(label)`, run, `stop()`.
    pub fn time<T>(&mut self, label: &str, work: impl FnOnce() -> T) -> T {
        self.start(label);
        let result = work();
        self.stop();
        result
    }

    /// Collapsed-stack lines (`path self-micros`), sorted by path —
    /// ready for `PROFILE.folded` and flamegraph tooling.
    #[must_use]
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, micros) in &self.folded {
            out.push_str(&format!("{path} {micros}\n"));
        }
        out
    }

    /// (collapsed-stack path, inclusive wall ms) for every completed
    /// stage, in completion order.
    #[must_use]
    pub fn stages(&self) -> &[(String, f64)] {
        &self.stages
    }

    /// Inclusive wall ms of the most recent completed stage with this
    /// exact collapsed-stack path.
    #[must_use]
    pub fn stage_ms(&self, path: &str) -> Option<f64> {
        self.stages
            .iter()
            .rev()
            .find(|(p, _)| p == path)
            .map(|&(_, ms)| ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_builds_collapsed_paths() {
        let mut p = Profiler::new();
        p.start("outer");
        p.start("inner");
        let inner_ms = p.stop();
        let outer_ms = p.stop();
        assert!(inner_ms >= 0.0 && outer_ms >= inner_ms);
        let folded = p.folded();
        assert!(folded.contains("outer;inner "), "{folded}");
        assert!(folded.lines().any(|l| l.starts_with("outer ")), "{folded}");
        assert_eq!(p.stages().len(), 2);
        assert_eq!(p.stages()[0].0, "outer;inner");
        assert_eq!(p.stages()[1].0, "outer");
    }

    #[test]
    fn closure_timer_returns_the_value() {
        let mut p = Profiler::new();
        let v = p.time("stage", || 41 + 1);
        assert_eq!(v, 42);
        assert!(p.stage_ms("stage").is_some());
    }

    #[test]
    fn stray_stop_is_harmless() {
        let mut p = Profiler::new();
        assert_eq!(p.stop(), 0.0);
        assert!(p.folded().is_empty());
    }
}
