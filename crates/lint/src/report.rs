//! Report rendering: the human terminal report and the machine-readable
//! `LINT_report.json` archived next to the other study artifacts.

use crate::engine::Analysis;

/// Renders the human report. Zero-tolerance findings are listed in full;
/// ratcheted rules report their count against the baseline (listing
/// hundreds of legacy sites every run would bury the signal).
#[must_use]
pub fn human(analysis: &Analysis) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "junkyard_lint: {} files scanned, {} non-test lines of code\n\n",
        analysis.files_scanned,
        analysis.loc_total()
    ));
    for stats in &analysis.stats {
        let rule = stats.rule;
        let mark = if stats.failed() { "FAIL" } else { "  ok" };
        match stats.baseline {
            Some(allowed) => out.push_str(&format!(
                "{mark}  {:<28} {:>4} active (baseline {allowed}, {} suppressed)\n",
                rule.name(),
                stats.active,
                stats.suppressed
            )),
            None if rule.ratcheted() => out.push_str(&format!(
                "{mark}  {:<28} {:>4} active (NO BASELINE ENTRY, {} suppressed)\n",
                rule.name(),
                stats.active,
                stats.suppressed
            )),
            None => out.push_str(&format!(
                "{mark}  {:<28} {:>4} active ({} suppressed)\n",
                rule.name(),
                stats.active,
                stats.suppressed
            )),
        }
    }
    out.push('\n');
    let mut listed = 0usize;
    for finding in &analysis.findings {
        let over_budget_ratchet =
            finding.rule.ratcheted() && analysis.stats_for(finding.rule).failed();
        let zero_tolerance_active = !finding.rule.ratcheted() && finding.suppressed.is_none();
        if zero_tolerance_active || over_budget_ratchet {
            out.push_str(&format!(
                "  {}:{} [{}] {}\n",
                finding.path,
                finding.line,
                finding.rule.name(),
                finding.message
            ));
            listed += 1;
        }
    }
    if listed > 0 {
        out.push('\n');
    }
    for stats in &analysis.stats {
        if let Some(allowed) = stats.baseline {
            if (stats.active as u64) < allowed {
                out.push_str(&format!(
                    "note: {} is at {} of {allowed} — tighten lint_baseline.json to lock in \
                     the progress\n",
                    stats.rule.name(),
                    stats.active
                ));
            }
        }
    }
    for unused in &analysis.unused_suppressions {
        out.push_str(&format!(
            "note: stale `lint:allow({})` at {}:{} covers nothing — remove it\n",
            unused.rule, unused.path, unused.line
        ));
    }
    let failures = analysis.failures();
    if failures.is_empty() {
        out.push_str("\nPASS: the workspace satisfies its determinism & conservation contract\n");
    } else {
        out.push_str("\nFAIL:\n");
        for failure in &failures {
            out.push_str(&format!("  - {failure}\n"));
        }
    }
    out
}

/// Renders `LINT_report.json`: the non-test lines of code per crate,
/// every finding (suppressed included), the per-rule totals and ratchet
/// status, and the contract each rule encodes. Hand-rolled JSON — the
/// crate stays zero-dependency.
#[must_use]
pub fn json(analysis: &Analysis) -> String {
    let mut out = String::from("{\n  \"schema\": 3,\n");
    out.push_str(&format!(
        "  \"files_scanned\": {},\n  \"passed\": {},\n",
        analysis.files_scanned,
        analysis.passed()
    ));
    out.push_str(&format!(
        "  \"loc\": {{\"total\": {}, \"crates\": [\n",
        analysis.loc_total()
    ));
    let last = analysis.loc.len().checked_sub(1);
    for (i, (krate, lines)) in analysis.loc.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"crate\": {}, \"lines\": {lines}}}{}\n",
            escape(krate),
            if Some(i) == last { "" } else { "," }
        ));
    }
    out.push_str("  ]},\n");
    out.push_str("  \"rules\": [\n");
    let last = analysis.stats.len() - 1;
    for (i, stats) in analysis.stats.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": {}, \"contract\": {}, \"active\": {}, \"suppressed\": {}, \
             \"ratcheted\": {}, \"baseline\": {}, \"failed\": {}}}{}\n",
            escape(stats.rule.name()),
            escape(stats.rule.contract()),
            stats.active,
            stats.suppressed,
            stats.rule.ratcheted(),
            stats.baseline.map_or("null".to_string(), |b| b.to_string()),
            stats.failed(),
            if i == last { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"findings\": [\n");
    let last = analysis.findings.len().checked_sub(1);
    for (i, finding) in analysis.findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}, \
             \"suppressed\": {}}}{}\n",
            escape(finding.rule.name()),
            escape(&finding.path),
            finding.line,
            escape(&finding.message),
            finding
                .suppressed
                .as_deref()
                .map_or("null".to_string(), |r| escape(r).to_string()),
            if Some(i) == last { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"unused_suppressions\": [\n");
    let last = analysis.unused_suppressions.len().checked_sub(1);
    for (i, unused) in analysis.unused_suppressions.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": {}, \"path\": {}, \"line\": {}}}{}\n",
            escape(&unused.rule),
            escape(&unused.path),
            unused.line,
            if Some(i) == last { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// JSON string literal with the characters our reports can contain
/// escaped (quotes, backslashes, control bytes).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Lines describing every ratcheted rule whose active count differs
/// from its committed baseline. Empty means `lint_baseline.json` is
/// exactly in sync with reality — the invariant `--strict-ratchet`
/// (used by CI) enforces so progress is always locked in.
#[must_use]
pub fn ratchet_drift(analysis: &Analysis) -> Vec<String> {
    let mut out = Vec::new();
    for stats in &analysis.stats {
        if !stats.rule.ratcheted() {
            continue;
        }
        let name = stats.rule.name();
        match stats.baseline {
            None => out.push(format!(
                "{name}: {} active findings but lint_baseline.json has no entry — add \
                 \"{name}\": {}",
                stats.active, stats.active
            )),
            Some(allowed) if (stats.active as u64) < allowed => out.push(format!(
                "{name}: baseline says {allowed} but only {} findings remain — tighten \
                 lint_baseline.json to {} to lock in the progress",
                stats.active, stats.active
            )),
            Some(allowed) if (stats.active as u64) > allowed => out.push(format!(
                "{name}: {} active findings exceed the baseline of {allowed} — fix or \
                 suppress the new ones (the ratchet only goes down)",
                stats.active
            )),
            Some(_) => {}
        }
    }
    out
}

/// The determinism-contract summary printed by `--contract` and quoted
/// in the README: what the gate actually promises.
#[must_use]
pub fn contract() -> String {
    let mut out = String::from("The determinism & conservation contract:\n");
    for rule in crate::rules::ALL_RULES {
        out.push_str(&format!("  {:<28} {}\n", rule.name(), rule.contract()));
    }
    out
}
