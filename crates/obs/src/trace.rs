//! Shard-merged trace storage and the pinned JSONL export.
//!
//! Ownership mirrors the workspace's fan-out contract:
//!
//! * [`TraceRecorder`] lives on the **serial driver side**. It records
//!   driver-level events directly (routing plans, fault resolutions,
//!   planner telemetry — everything already computed serially), hands
//!   out one [`TraceShard`] per result slot before a fan-out, and
//!   absorbs the shards back **in slot order** after the scope joins.
//! * [`TraceShard`] is the only recorder a spawned worker may touch.
//!   A shard's content depends only on its slot's work — never on
//!   which worker ran it or in what interleaving — so the merged trace
//!   is byte-identical at any worker count.
//!
//! Everything is `BTreeMap`-backed and keyed by simulated time (bit
//! pattern) plus a per-shard sequence number: two runs over the same
//! inputs serialise to byte-identical JSONL.

use std::collections::BTreeMap;

use crate::event::{EventKind, TraceEvent, EVENT_KINDS, KIND_COUNT, TRACE_SCHEMA};
use crate::recorder::Recorder;

/// The events and counters collected for one result slot (or for the
/// serial driver itself). Constructed only via [`TraceRecorder::shard`].
#[derive(Debug, Clone)]
pub struct TraceShard {
    slot: u64,
    seq: u64,
    /// Keyed by (sim-time bit pattern, arrival sequence): simulated
    /// time is the primary axis, the sequence breaks ties in the
    /// deterministic order the hooks fired.
    events: BTreeMap<(u64, u64), TraceEvent>,
    counts: [u64; KIND_COUNT],
}

impl TraceShard {
    fn new(slot: u64) -> Self {
        Self {
            slot,
            seq: 0,
            events: BTreeMap::new(),
            counts: [0; KIND_COUNT],
        }
    }
}

impl Recorder for TraceShard {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&mut self, event: TraceEvent) {
        self.counts[event.kind.index()] += 1;
        self.events.insert((event.t.to_bits(), self.seq), event);
        self.seq += 1;
    }

    fn count(&mut self, kind: EventKind, by: u64) {
        self.counts[kind.index()] += by;
    }
}

/// Which shard an exported event came from: a fan-out result slot, or
/// the serial driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventSource {
    /// Recorded by the serial driver (exported with `"slot": null`).
    Serial,
    /// Recorded by the shard for this result slot.
    Slot(u64),
}

/// The serial-side owner: records driver events, mints shards, merges
/// them back, and serialises the whole trace.
///
/// Never hand a `TraceRecorder` (or `&mut` to one) into a spawn
/// closure — mint a [`TraceShard`] per slot instead. The
/// `recorder-in-fanout` lint facet fails the build otherwise.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    serial: TraceShard,
    shards: BTreeMap<u64, TraceShard>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// An empty, enabled recorder.
    #[must_use]
    pub fn new() -> Self {
        Self {
            serial: TraceShard::new(u64::MAX),
            shards: BTreeMap::new(),
        }
    }

    /// Mints the shard for result slot `slot`, to be moved into the
    /// worker that fills that slot and absorbed back after the join.
    #[must_use]
    pub fn shard(&self, slot: u64) -> TraceShard {
        TraceShard::new(slot)
    }

    /// Merges a worker shard back. Call in **slot order** after the
    /// scope joins; absorbing the same slot twice extends it (the
    /// second shard's events follow the first's).
    pub fn absorb(&mut self, shard: TraceShard) {
        match self.shards.get_mut(&shard.slot) {
            Some(existing) => {
                for (i, n) in shard.counts.iter().enumerate() {
                    existing.counts[i] += n;
                }
                for (_, event) in shard.events {
                    existing
                        .events
                        .insert((event.t.to_bits(), existing.seq), event);
                    existing.seq += 1;
                }
            }
            None => {
                self.shards.insert(shard.slot, shard);
            }
        }
    }

    /// Total stored events across the serial shard and all absorbed
    /// slots.
    #[must_use]
    pub fn events(&self) -> usize {
        self.serial.events.len() + self.shards.values().map(|s| s.events.len()).sum::<usize>()
    }

    /// Aggregate counts per kind, indexed by [`EventKind::index`].
    #[must_use]
    pub fn counts(&self) -> [u64; KIND_COUNT] {
        let mut totals = [0u64; KIND_COUNT];
        for (i, n) in self.serial.counts.iter().enumerate() {
            totals[i] += n;
        }
        for shard in self.shards.values() {
            for (i, n) in shard.counts.iter().enumerate() {
                totals[i] += n;
            }
        }
        totals
    }

    /// Every stored event in export order: the serial shard first (in
    /// simulated-time order), then each absorbed slot in slot order.
    pub fn events_in_order(&self) -> impl Iterator<Item = (EventSource, &TraceEvent)> {
        let serial = self
            .serial
            .events
            .values()
            .map(|e| (EventSource::Serial, e));
        let sharded = self.shards.values().flat_map(|shard| {
            shard
                .events
                .values()
                .map(move |e| (EventSource::Slot(shard.slot), e))
        });
        serial.chain(sharded)
    }

    /// Serialises the trace to JSONL with the pinned schema:
    ///
    /// * line 1 — header: `{"schema":1,"stream":"junkyard_obs","kinds":[...]}`
    /// * one line per event, fields in pinned order:
    ///   `{"kind":...,"t":...,"slot":...,"key":...,"value":...,"detail":...}`
    ///   (`slot` is `null` for serial-driver events);
    /// * last line — summary: `{"summary":true,"events":N,"counts":{...}}`
    ///   with one count per kind in [`EVENT_KINDS`] order.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema\":{TRACE_SCHEMA},\"stream\":\"junkyard_obs\",\"kinds\":["
        ));
        for (i, kind) in EVENT_KINDS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", kind.name()));
        }
        out.push_str("]}\n");
        for (source, event) in self.events_in_order() {
            let slot = match source {
                EventSource::Serial => "null".to_string(),
                EventSource::Slot(s) => s.to_string(),
            };
            out.push_str(&format!(
                "{{\"kind\":\"{}\",\"t\":{},\"slot\":{slot},\"key\":\"{}\",\"value\":{},\"detail\":\"{}\"}}\n",
                event.kind.name(),
                json_f64(event.t),
                escape(&event.key),
                json_f64(event.value),
                escape(&event.detail),
            ));
        }
        let counts = self.counts();
        out.push_str(&format!(
            "{{\"summary\":true,\"events\":{},\"counts\":{{",
            self.events()
        ));
        for (i, kind) in EVENT_KINDS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", kind.name(), counts[kind.index()]));
        }
        out.push_str("}}\n");
        out
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&mut self, event: TraceEvent) {
        self.serial.event(event);
    }

    fn count(&mut self, kind: EventKind, by: u64) {
        self.serial.count(kind, by);
    }
}

/// A finite `f64` as a JSON number (shortest round-trip form; `1` for
/// `1.0`). Non-finite values — which no hook emits — degrade to `null`
/// rather than corrupting the stream.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Minimal JSON string escaping (mirrors `junkyard_lint`'s report
/// writer): quotes, backslashes, and control characters.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_order_is_slot_order_not_arrival_order() {
        let mut a = TraceRecorder::new();
        let mut shard_hi = a.shard(7);
        let mut shard_lo = a.shard(2);
        shard_hi.event(TraceEvent::new(EventKind::Admit, 1.0, "hi", 1.0));
        shard_lo.event(TraceEvent::new(EventKind::Admit, 1.0, "lo", 1.0));
        // Absorb in "wrong" order: export order must still be slot order.
        a.absorb(shard_hi);
        a.absorb(shard_lo);

        let mut b = TraceRecorder::new();
        let mut shard_hi = b.shard(7);
        let mut shard_lo = b.shard(2);
        shard_hi.event(TraceEvent::new(EventKind::Admit, 1.0, "hi", 1.0));
        shard_lo.event(TraceEvent::new(EventKind::Admit, 1.0, "lo", 1.0));
        b.absorb(shard_lo);
        b.absorb(shard_hi);

        assert_eq!(a.to_jsonl(), b.to_jsonl());
        let keys: Vec<&str> = a.events_in_order().map(|(_, e)| e.key.as_str()).collect();
        assert_eq!(keys, vec!["lo", "hi"]);
    }

    #[test]
    fn serial_events_sort_by_sim_time_then_sequence() {
        let mut rec = TraceRecorder::new();
        rec.event(TraceEvent::new(EventKind::Route, 2.0, "late", 1.0));
        rec.event(TraceEvent::new(EventKind::Route, 1.0, "early", 1.0));
        rec.event(TraceEvent::new(EventKind::Route, 1.0, "early-second", 1.0));
        let keys: Vec<&str> = rec.events_in_order().map(|(_, e)| e.key.as_str()).collect();
        assert_eq!(keys, vec!["early", "early-second", "late"]);
    }

    #[test]
    fn jsonl_escapes_and_counts() {
        let mut rec = TraceRecorder::new();
        rec.event(TraceEvent::new(EventKind::Prune, 0.0, "a\"b", 1.0).with_detail("x\ny"));
        rec.count(EventKind::Admit, 41);
        rec.count(EventKind::Admit, 1);
        let jsonl = rec.to_jsonl();
        assert!(jsonl.contains("\"key\":\"a\\\"b\""));
        assert!(jsonl.contains("\"detail\":\"x\\ny\""));
        assert!(jsonl.contains("\"admit\":42"));
        assert!(jsonl.contains("\"prune\":1"));
        // Header first, summary last, one event line in between.
        assert_eq!(jsonl.lines().count(), 3);
    }
}
