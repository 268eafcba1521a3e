//! # `junkyard_lint` — the determinism & conservation gate
//!
//! A zero-dependency static-analysis pass over this workspace's own
//! sources. Every result the reproduction ships rests on two invariants:
//! **bit-identical results at any worker count** and **conserved
//! accounting** (offered == served + declined + dropped + shed +
//! failed). Runtime proptests check both — but only on the code paths
//! they happen to execute. This crate checks the *sources*: nothing can
//! iterate a `HashMap` in a fan-out path, read a wall clock in a sim
//! crate, draw ambient entropy, or add a conserved accounting field that
//! no test pins, without either fixing it or writing down why it is safe.
//!
//! The pipeline:
//!
//! * [`lexer`] — a hand-rolled, lossless Rust lexer (strings, raw
//!   strings, char-vs-lifetime, nested block comments). Tokens tile the
//!   source byte-for-byte; the proptest suite pins that round-trip.
//! * [`source`] — per-file context: significant tokens, `#[cfg(test)]`
//!   ranges, parsed `// lint:allow(rule): reason` suppressions (the
//!   reason is mandatory).
//! * [`parser`] — an item-level parser (fn signatures, struct fields,
//!   bodies) over the lexer; deliberately not a full Rust grammar.
//! * [`symbols`] — the workspace symbol table: every fn, indexed for
//!   name-based (over-approximate) call resolution.
//! * [`callgraph`] — one reachability walk over fn references, run from
//!   the fan-out roots (`fan_out(` and `.spawn(` closures) for the
//!   `fanout-purity` rule and the fan-out scopes that re-scope the
//!   hash-declaration facet of `nondeterministic-iteration`, and from
//!   every entry point and trait body for the `unreachable-pub` rule.
//! * [`dims`] — the dimension algebra behind `unit-suffix-consistency`:
//!   unit suffixes (`_ms`, `_qps`, `_grams`, ...) become dimensions;
//!   add/sub/compare require equality, `*`/`/` compose, conversion
//!   constants (`SECONDS_PER_DAY`) carry cross-unit dimensions.
//! * [`rules`] — the rules and their severities (zero-tolerance vs
//!   ratcheted).
//! * [`baseline`] — the `lint_baseline.json` ratchet: legacy finding
//!   counts and the non-test line count may only go down.
//! * [`engine`] — the deterministic driver (sorted file order, ordered
//!   maps — the linter obeys the contract it enforces).
//! * [`report`] — the human report and `LINT_report.json`.
//!
//! Run it with `cargo run --release -p junkyard_lint`; CI runs the same
//! command as a hard gate.

pub mod baseline;
pub mod callgraph;
pub mod dims;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod source;
pub mod symbols;
