//! Schema-stability test for `LINT_report.json`: downstream tooling
//! (CI annotations, the ratchet-drift diff, dashboards) parses the
//! report by field name, so the schema version, the top-level shape,
//! the per-object keys, and the rule list itself are all pinned here.
//! Renaming a rule or a field must show up as a deliberate diff in this
//! test, not as a silent breakage downstream.

use std::path::Path;

use junkyard_lint::baseline::Baseline;
use junkyard_lint::engine::{analyze, Config};
use junkyard_lint::report;

/// Every rule the gate enforces, in report order. Appending is fine
/// (bump nothing); renaming or reordering is a schema break.
const RULES: [&str; 11] = [
    "nondeterministic-iteration",
    "wall-clock-in-sim",
    "ambient-rng",
    "unit-suffix-consistency",
    "fanout-purity",
    "panic-in-library",
    "unchecked-cast",
    "untyped-quantity",
    "conservation-audit",
    "unreachable-pub",
    "malformed-suppression",
];

fn fixture_report() -> String {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/demo"));
    let mut config = Config::junkyard();
    config.cast_prefixes = vec!["crates/x/src/".to_string()];
    let baseline = Baseline::parse(r#"{"schema":1,"ratchets":{}}"#).expect("baseline parses");
    let analysis = analyze(root, &config, &baseline).expect("fixture tree analyzes");
    report::json(&analysis)
}

/// The keys of the first JSON object found after `marker`, in order.
/// Good enough for the hand-rolled single-line objects the report
/// emits; a real parser would be a dependency the crate refuses.
fn object_keys(json: &str, marker: &str) -> Vec<String> {
    let start = json.find(marker).expect("marker present") + marker.len();
    let obj_start = json[start..].find('{').expect("object opens") + start + 1;
    let obj_end = json[obj_start..].find('}').expect("object closes") + obj_start;
    let mut keys = Vec::new();
    let mut rest = &json[obj_start..obj_end];
    while let Some(q) = rest.find('"') {
        let after = &rest[q + 1..];
        let close = after.find('"').expect("key closes");
        keys.push(after[..close].to_string());
        let colon_and_value = &after[close + 1..];
        // Skip this key's value: advance past the value's string (if
        // any) so its contents are not mistaken for the next key.
        let next = colon_and_value
            .find(", \"")
            .unwrap_or(colon_and_value.len());
        rest = &colon_and_value[next..];
    }
    keys
}

#[test]
fn report_schema_is_stable() {
    let json = fixture_report();

    // Schema version and top-level shape, in order.
    assert!(json.starts_with("{\n  \"schema\": 4,\n"));
    let top_level = [
        "\"schema\":",
        "\"files_scanned\":",
        "\"passed\":",
        "\"loc\": {\"total\":",
        "\"baseline\":",
        "\"crates\":",
        "\"rules\":",
        "\"findings\":",
        "\"unused_suppressions\":",
    ];
    let mut at = 0;
    for key in top_level {
        let pos = json[at..].find(key).unwrap_or_else(|| {
            panic!("top-level key {key} missing or out of order");
        });
        at += pos + key.len();
    }

    // Per-object shapes.
    assert_eq!(object_keys(&json, "\"crates\": [\n"), ["crate", "lines"]);
    assert_eq!(
        object_keys(&json, "\"rules\": [\n"),
        [
            "rule",
            "contract",
            "active",
            "suppressed",
            "ratcheted",
            "baseline",
            "failed"
        ]
    );
    assert_eq!(
        object_keys(&json, "\"findings\": [\n"),
        ["rule", "path", "line", "message", "suppressed"]
    );
    assert_eq!(
        object_keys(&json, "\"unused_suppressions\": [\n"),
        ["rule", "path", "line"]
    );
}

#[test]
fn rule_list_is_pinned() {
    let json = fixture_report();
    let rules_start = json.find("\"rules\": [").expect("rules array");
    let rules_end = json[rules_start..].find(']').expect("rules close") + rules_start;
    let section = &json[rules_start..rules_end];
    let listed: Vec<&str> = section
        .match_indices("{\"rule\": \"")
        .map(|(i, m)| {
            let name_start = i + m.len();
            let name_end = section[name_start..].find('"').expect("name closes") + name_start;
            &section[name_start..name_end]
        })
        .collect();
    assert_eq!(listed, RULES);

    // Every rule states its contract — the report is the gate's
    // user-facing promise, not just a count dump.
    for rule in RULES {
        let entry = format!("{{\"rule\": \"{rule}\", \"contract\": \"");
        assert!(json.contains(&entry), "rule {rule} has no contract line");
    }
}
