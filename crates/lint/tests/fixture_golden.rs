//! Golden test over the committed fixture tree: every rule fires where
//! expected, every suppression suppresses, stale and malformed markers
//! are reported, and the ratchet rejects any count increase.

use std::path::Path;

use junkyard_lint::baseline::Baseline;
use junkyard_lint::engine::{analyze, Analysis, Config};
use junkyard_lint::report;
use junkyard_lint::rules::RuleId;

const LIB: &str = "crates/x/src/lib.rs";

fn fixture_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/demo"))
}

fn fixture_config() -> Config {
    let mut config = Config::junkyard();
    config.cast_prefixes = vec!["crates/x/src/".to_string()];
    config
}

fn run(baseline_json: &str) -> Analysis {
    let baseline = Baseline::parse(baseline_json).expect("fixture baseline parses");
    analyze(fixture_root(), &fixture_config(), &baseline).expect("fixture tree analyzes")
}

/// The exact fixture baseline: the counts the fixture is committed at.
const EXACT: &str = r#"{"schema":1,"ratchets":{"panic-in-library":1,"unchecked-cast":2,"untyped-quantity":6,"unreachable-pub":10}}"#;

/// The (line, suppressed) signature of every finding of one rule in the
/// fixture library file.
fn lines_of(analysis: &Analysis, rule: RuleId) -> Vec<(u32, bool)> {
    analysis
        .findings
        .iter()
        .filter(|f| f.rule == rule && f.path == LIB)
        .map(|f| (f.line, f.suppressed.is_some()))
        .collect()
}

#[test]
fn every_rule_fires_and_every_suppression_suppresses() {
    let analysis = run(EXACT);

    // Rule 1: the iteration call site fires everywhere (line 11), but
    // declarations only fire on the fan-out path: `votes` (line 10) and
    // `cache` (line 15) are off-path and silent, `seen` (line 23) is in
    // the spawn closure and fires, and the allow over `lookup` (line
    // 26) suppresses its in-scope declaration.
    assert_eq!(
        lines_of(&analysis, RuleId::NondeterministicIteration),
        vec![(11, false), (23, false), (26, true)]
    );

    // Rule 2: every wall-clock read fires — inside `clocked` (35),
    // `stamped` (42) and `Meter::read` (121) and in serial code (57);
    // the one-liner under the allow is suppressed (two mentions on one
    // line dedup to one).
    assert_eq!(
        lines_of(&analysis, RuleId::WallClockInSim),
        vec![
            (35, false),
            (42, false),
            (57, false),
            (62, true),
            (121, false)
        ]
    );

    // Rule 3: entropy-seeded RNG fires; test code stays quiet.
    assert_eq!(lines_of(&analysis, RuleId::AmbientRng), vec![(65, false)]);

    // Rule 4 (call graph): all three helpers are reachable from the
    // spawn closure and impure; findings land on the `fn` lines. The
    // allow over `stamped` suppresses it, `clocked` stays active, and
    // `merge_trace` (line 105) trips the zero-tolerance
    // recorder-in-fanout facet twice over (mint + shard merge). The
    // `fan_out(` call on line 126 is a root too: its closure reaches
    // `Meter::read` (line 120), the second method of its impl. The
    // equally impure `wall_elapsed` (line 56) is off-path and NOT
    // flagged here, and the `fn fan_out` definition is no root.
    let fanout = lines_of(&analysis, RuleId::FanoutPurity);
    assert_eq!(
        fanout,
        vec![(34, false), (41, true), (105, false), (120, false)]
    );
    assert!(analysis.findings.iter().any(|f| {
        f.rule == RuleId::FanoutPurity
            && f.message.contains("fn `clocked`")
            && f.message.contains("wall clock")
    }));
    assert!(analysis.findings.iter().any(|f| {
        f.rule == RuleId::FanoutPurity
            && f.message.contains("fn `merge_trace`")
            && f.message.contains("TraceRecorder")
            && f.message.contains(".absorb(")
    }));
    assert!(analysis.findings.iter().any(|f| {
        f.rule == RuleId::FanoutPurity
            && f.message.contains("fn `Meter::read`")
            && f.message.contains("crates/x/src/lib.rs:126")
    }));

    // Rule 5 (dimension algebra): adding ms to secs fires on the `+`
    // line; the suffix-conflicting rebinding under the allow is
    // suppressed.
    assert_eq!(
        lines_of(&analysis, RuleId::UnitSuffixConsistency),
        vec![(47, false), (52, true)]
    );

    // Rule 6: `.unwrap()` fires; the allowed `.expect(` is suppressed.
    assert_eq!(
        lines_of(&analysis, RuleId::PanicInLibrary),
        vec![(70, false), (74, true)]
    );

    // Rule 7: both bare casts fire (the reasonless marker on line 84
    // suppresses nothing); the trailing allow on line 81 works.
    assert_eq!(
        lines_of(&analysis, RuleId::UncheckedCast),
        vec![(77, false), (81, true), (86, false)]
    );

    // Rule 8: bare-f64 pub params and fields (same-line params dedup).
    assert_eq!(
        lines_of(&analysis, RuleId::UntypedQuantity),
        vec![
            (46, false),
            (50, false),
            (76, false),
            (85, false),
            (99, false),
            (100, false)
        ]
    );

    // Rule 9: `pinned_total` is referenced by the fixture's tests/, so
    // only `forgotten_total` escapes.
    let conservation = lines_of(&analysis, RuleId::ConservationAudit);
    assert_eq!(conservation, vec![(100, false)]);
    assert!(analysis
        .findings
        .iter()
        .any(|f| f.rule == RuleId::ConservationAudit && f.message.contains("forgotten_total")));

    // Rule 10: the fixture bin (`src/bin/demo.rs`) calls `tally` and
    // `metered` (whose `fan_out(` call reaches `fan_out`), passes
    // `x::relabel` and the imported `must` by value, and the
    // reference-only `perfbench/src/main.rs` calls `probe`. Every other
    // pub fn is reached from nowhere; the private ones are rustc's
    // business.
    assert_eq!(
        lines_of(&analysis, RuleId::UnreachablePub),
        [46, 56, 62, 64, 74, 76, 80, 85, 90, 93].map(|line| (line, false))
    );
    // The reference-only file is read for its calls, never scanned: its
    // `Instant` is no finding, and it is not counted as scanned.
    assert!(analysis
        .findings
        .iter()
        .all(|f| f.path.starts_with("crates/x/src/lib.rs")));
    assert_eq!(analysis.files_scanned, 3);

    // Meta-rule: the reasonless marker and the unknown rule name are
    // both findings; the stale-but-valid allow is only a note.
    assert_eq!(
        lines_of(&analysis, RuleId::MalformedSuppression),
        vec![(84, false), (89, false)]
    );
    assert_eq!(analysis.unused_suppressions.len(), 1);
    assert_eq!(analysis.unused_suppressions[0].path, LIB);
    assert_eq!(analysis.unused_suppressions[0].line, 92);
    assert_eq!(analysis.unused_suppressions[0].rule, "ambient-rng");

    // Test code fired nothing: every finding sits outside the
    // `#[cfg(test)]` module (first line 129).
    assert!(analysis.findings.iter().all(|f| f.line < 129));
}

#[test]
fn ratchet_accepts_exact_counts_and_rejects_increases() {
    // At the committed counts, all three ratchets hold (the fixture
    // still fails overall on its zero-tolerance actives — that is the
    // point of the fixture, not of the ratchet).
    let at_baseline = run(EXACT);
    assert!(!at_baseline.stats_for(RuleId::PanicInLibrary).failed());
    assert!(!at_baseline.stats_for(RuleId::UncheckedCast).failed());
    assert!(!at_baseline.stats_for(RuleId::UntypedQuantity).failed());
    assert!(!at_baseline.passed());

    // One fewer allowed panic: the same tree now exceeds the ratchet.
    let tightened = run(
        r#"{"schema":1,"ratchets":{"panic-in-library":0,"unchecked-cast":2,"untyped-quantity":6}}"#,
    );
    assert!(tightened.stats_for(RuleId::PanicInLibrary).failed());
    assert!(!tightened.stats_for(RuleId::UncheckedCast).failed());

    // A missing ratchet entry means zero tolerance for that rule.
    let missing = run(r#"{"schema":1,"ratchets":{"panic-in-library":1,"untyped-quantity":6}}"#);
    assert!(missing.stats_for(RuleId::UncheckedCast).failed());

    // A generous allowance passes the ratchet and reports headroom.
    let slack = run(
        r#"{"schema":1,"ratchets":{"panic-in-library":9,"unchecked-cast":9,"untyped-quantity":9}}"#,
    );
    assert!(!slack.stats_for(RuleId::PanicInLibrary).failed());
    assert_eq!(slack.stats_for(RuleId::PanicInLibrary).baseline, Some(9));
}

#[test]
fn loc_ratchet_pins_the_line_count() {
    let counted = run(EXACT).loc_total();
    let with_loc = |loc: usize| {
        run(&EXACT.replacen(
            "{\"schema\":1,",
            &format!("{{\"schema\":1,\"loc\":{loc},"),
            1,
        ))
    };
    // At the committed count: no drift, no loc failure.
    let exact = with_loc(counted);
    assert!(!exact.loc_over_baseline());
    assert!(!report::ratchet_drift(&exact)
        .iter()
        .any(|d| d.starts_with("loc:")));
    // One line over the baseline fails the gate.
    let over = with_loc(counted - 1);
    assert!(over.loc_over_baseline());
    assert!(over.failures().iter().any(|f| f.starts_with("loc:")));
    // Headroom passes the plain gate but drifts under --strict-ratchet,
    // and so does a baseline with no loc entry at all.
    let slack = with_loc(counted + 5);
    assert!(!slack.loc_over_baseline());
    assert!(report::ratchet_drift(&slack)
        .iter()
        .any(|d| d.contains("tighten")));
    assert!(report::ratchet_drift(&run(EXACT))
        .iter()
        .any(|d| d.starts_with("loc:")));
}
