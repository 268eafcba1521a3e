//! The trace event taxonomy and the pinned JSONL record shape.
//!
//! The kind list is **ordered and pinned** — downstream tooling indexes
//! the summary counts by position, and the `trace_schema` regression
//! test rejects any rename or reorder. Appending a new kind at the end
//! is fine.

/// The JSONL trace schema version, emitted in the header line. Bump it
/// only when the record shape or the kind list changes incompatibly.
pub const TRACE_SCHEMA: u32 = 1;

/// What happened. Each variant maps to one layer's hook:
/// microsim (admit/drop/complete), fleet routing (route), lifecycle
/// fault handling (fault/retry/hedge/degrade), planner search
/// (rung/prune/cache-hit/cache-miss), and the conservation ledger
/// (ledger).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// Microsim: an arrival was admitted into the event loop.
    Admit,
    /// Microsim: a request was dropped at a full bounded queue.
    Drop,
    /// Microsim: a request completed all phases.
    Complete,
    /// Fleet: a per-(window, site) routing decision.
    Route,
    /// Lifecycle: a site's availability fell below 1 in a window.
    Fault,
    /// Lifecycle: retry rounds re-aimed traffic after failures.
    Retry,
    /// Lifecycle: hedged duplicates were issued.
    Hedge,
    /// Lifecycle: the degradation ladder shed or browned out traffic.
    Degrade,
    /// Planner: a successive-halving rung promoted survivors.
    Rung,
    /// Planner: a candidate was screened out or pruned, with the reason.
    Prune,
    /// Planner: an evaluation was served from the fidelity cache.
    CacheHit,
    /// Planner: an evaluation missed the cache and ran fresh.
    CacheMiss,
    /// A conserved-ledger snapshot (both identities re-checked).
    Ledger,
}

/// Number of event kinds (the size of per-shard count tables).
pub const KIND_COUNT: usize = 13;

/// Every kind, in the pinned reporting order.
pub const EVENT_KINDS: [EventKind; KIND_COUNT] = [
    EventKind::Admit,
    EventKind::Drop,
    EventKind::Complete,
    EventKind::Route,
    EventKind::Fault,
    EventKind::Retry,
    EventKind::Hedge,
    EventKind::Degrade,
    EventKind::Rung,
    EventKind::Prune,
    EventKind::CacheHit,
    EventKind::CacheMiss,
    EventKind::Ledger,
];

impl EventKind {
    /// The kebab-case name used in JSONL records.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Admit => "admit",
            EventKind::Drop => "drop",
            EventKind::Complete => "complete",
            EventKind::Route => "route",
            EventKind::Fault => "fault",
            EventKind::Retry => "retry",
            EventKind::Hedge => "hedge",
            EventKind::Degrade => "degrade",
            EventKind::Rung => "rung",
            EventKind::Prune => "prune",
            EventKind::CacheHit => "cache-hit",
            EventKind::CacheMiss => "cache-miss",
            EventKind::Ledger => "ledger",
        }
    }

    /// Position in [`EVENT_KINDS`] (the summary-count index).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            EventKind::Admit => 0,
            EventKind::Drop => 1,
            EventKind::Complete => 2,
            EventKind::Route => 3,
            EventKind::Fault => 4,
            EventKind::Retry => 5,
            EventKind::Hedge => 6,
            EventKind::Degrade => 7,
            EventKind::Rung => 8,
            EventKind::Prune => 9,
            EventKind::CacheHit => 10,
            EventKind::CacheMiss => 11,
            EventKind::Ledger => 12,
        }
    }
}

/// One point event on the simulated-time axis.
///
/// `t` is whatever "simulated time" means for the emitting layer:
/// seconds into the run for microsim, the window index for fleet and
/// lifecycle hooks, the rung index for planner telemetry. It is never a
/// wall-clock reading — wall time stays on the other side of the
/// boundary, in the bench crate's profiler.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// Simulated time (layer-defined axis; see type docs).
    pub t: f64,
    /// A short stable key: site name, queue id, fingerprint, ...
    pub key: String,
    /// The magnitude: requests, grams, candidates, ...
    pub value: f64,
    /// Free-form human detail (kept out of keys so merging never
    /// depends on it).
    pub detail: String,
}

impl TraceEvent {
    /// A point event.
    #[must_use]
    pub fn new(kind: EventKind, t: f64, key: &str, value: f64) -> Self {
        Self {
            kind,
            t,
            key: key.to_string(),
            value,
            detail: String::new(),
        }
    }

    /// Attaches free-form detail.
    #[must_use]
    pub fn with_detail(mut self, detail: &str) -> Self {
        self.detail = detail.to_string();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_match_pinned_order() {
        for (i, kind) in EVENT_KINDS.iter().enumerate() {
            assert_eq!(kind.index(), i, "{}", kind.name());
        }
    }
}
