//! Wall-clock spans around the benchmark's calls into each layer.
//!
//! Spans live in memory while the benchmark runs and are written out at
//! exit. Each span has a name, a start, an end and the span that was
//! open when it began; a span's self time is its duration minus the part
//! of it that its children cover.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u128,
    end_ns: u128,
    parent: Option<usize>,
}

/// The in-memory span log of one benchmark process.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span named `name`, nested under the span that is open now,
    /// and returns its id for [`Spans::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.origin.elapsed().as_nanos();
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Total wall milliseconds of every span named `name`.
    #[must_use]
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ns_to_ms(s.end_ns - s.start_ns))
            .sum()
    }

    /// Self time of span `id` in nanoseconds: its duration minus the union
    /// of its children's intervals.
    fn self_ns(&self, id: usize) -> u128 {
        let span = &self.spans[id];
        let mut children: Vec<(u128, u128)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        (span.end_ns - span.start_ns).saturating_sub(covered)
    }

    /// The spans as JSON lines, in the order they were opened.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ms\":{},\"end_ms\":{},\"self_ms\":{}}}",
                span.name,
                ns_to_ms(span.start_ns),
                ns_to_ms(span.end_ns),
                ns_to_ms(self.self_ns(id)),
            );
        }
        out
    }
}

fn ns_to_ms(ns: u128) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u128, end_ns: u128, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = Spans::new();
        spans.spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a`: only 40..50 is new coverage.
            span("b", 30, 50, Some(0)),
            span("grandchild", 12, 20, Some(1)),
        ];
        assert_eq!(spans.self_ns(0), 60);
        assert_eq!(spans.self_ns(1), 22);
        assert_eq!(spans.self_ns(2), 20);
        assert_eq!(spans.self_ns(3), 8);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut spans = Spans::new();
        let outer = spans.open("outer");
        let answer = spans.time("inner", || 42);
        spans.close(outer);
        assert_eq!(answer, 42);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[0].parent, None);
        assert!(spans.spans[0].end_ns >= spans.spans[1].end_ns);
        let jsonl = spans.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"name\":\"inner\",\"parent\":0"));
    }
}
