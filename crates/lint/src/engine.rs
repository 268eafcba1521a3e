//! The analysis driver: walks the workspace's own sources in a fixed
//! order, runs every rule, resolves `lint:allow` suppressions, audits
//! conserved struct fields against the `tests/` ident corpus, and checks
//! ratcheted counts against the committed baseline.
//!
//! The engine dogfoods the determinism contract it enforces: files are
//! visited in sorted path order, all bookkeeping uses ordered maps, and
//! two runs over the same tree produce byte-identical reports.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::baseline::Baseline;
use crate::callgraph;
use crate::parser::{parse, ParsedFile};
use crate::rules::{conserved_fields, scan_file, FileRole, Finding, RuleId, ALL_RULES};
use crate::source::SourceFile;
use crate::symbols::Symbols;

/// What to scan and how paths map to rule scopes. `Config::junkyard()`
/// is the workspace's committed configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefix exempt from `wall-clock-in-sim`: the one crate
    /// sanctioned to read wall clocks.
    pub bench_prefix: String,
    /// Accounting/carbon path prefixes audited by `unchecked-cast`.
    pub cast_prefixes: Vec<String>,
    /// Files that ARE the typed-quantity boundary (the newtype and
    /// checked-conversion modules) — exempt from `untyped-quantity`,
    /// whose whole point is to push bare f64s behind them.
    pub units_boundary: Vec<String>,
}

/// The directory read only for the fn references it makes: each file is
/// an `unreachable-pub` root, but no rule scans it and it adds no
/// symbols or lines. It is the benchmark package, which is not a
/// workspace member.
const REFERENCE_DIR: &str = "perfbench/src";

impl Config {
    /// The committed configuration for this workspace.
    #[must_use]
    pub fn junkyard() -> Self {
        Self {
            bench_prefix: "crates/bench/".to_string(),
            cast_prefixes: vec![
                "crates/carbon/src/".to_string(),
                "crates/fleet/src/".to_string(),
                "crates/battery/src/".to_string(),
                "crates/grid/src/".to_string(),
                "crates/microsim/src/metrics.rs".to_string(),
                "crates/microsim/src/sweep.rs".to_string(),
            ],
            units_boundary: vec![
                "crates/carbon/src/units.rs".to_string(),
                "crates/carbon/src/convert.rs".to_string(),
            ],
        }
    }
}

/// Per-rule totals after suppression resolution.
#[derive(Debug, Clone)]
pub struct RuleStats {
    /// The rule.
    pub rule: RuleId,
    /// Unsuppressed findings.
    pub active: usize,
    /// Findings covered by a reasoned `lint:allow`.
    pub suppressed: usize,
    /// The committed allowance, for ratcheted rules with a baseline entry.
    pub baseline: Option<u64>,
}

impl RuleStats {
    /// Whether this rule fails the gate.
    #[must_use]
    pub fn failed(&self) -> bool {
        if self.rule.ratcheted() {
            match self.baseline {
                Some(allowed) => self.active as u64 > allowed,
                None => self.active > 0,
            }
        } else {
            self.active > 0
        }
    }
}

/// A reasoned suppression that matched no finding (reported so stale
/// allows are cleaned up; informational, never a failure).
#[derive(Debug, Clone)]
pub struct UnusedSuppression {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// The rule it names.
    pub rule: String,
}

/// The complete outcome of one analysis run.
#[derive(Debug)]
pub struct Analysis {
    /// Every finding, suppressed ones included, sorted by
    /// (path, line, rule).
    pub findings: Vec<Finding>,
    /// Totals per rule, in [`ALL_RULES`] order with the suppression
    /// meta-rule last.
    pub stats: Vec<RuleStats>,
    /// Reasoned suppressions that covered nothing.
    pub unused_suppressions: Vec<UnusedSuppression>,
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// Non-test lines of code per crate directory (`junkyard` for the
    /// root package), in name order.
    pub loc: Vec<(String, usize)>,
    /// The committed ceiling on [`Analysis::loc_total`], if any.
    pub loc_baseline: Option<u64>,
}

impl Analysis {
    /// The stats row for one rule.
    #[must_use]
    pub fn stats_for(&self, rule: RuleId) -> &RuleStats {
        self.stats
            .iter()
            .find(|s| s.rule == rule)
            .expect("stats cover every rule")
    }

    /// Human-readable gate failures; empty means the gate passes.
    #[must_use]
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for stats in &self.stats {
            if !stats.failed() {
                continue;
            }
            let name = stats.rule.name();
            if stats.rule.ratcheted() {
                match stats.baseline {
                    Some(allowed) => out.push(format!(
                        "{name}: {} findings exceed the committed baseline of {allowed} — fix \
                         the new ones or suppress them with a reason (the ratchet only goes \
                         down)",
                        stats.active
                    )),
                    None => out.push(format!(
                        "{name}: {} findings but lint_baseline.json has no entry for this rule",
                        stats.active
                    )),
                }
            } else {
                out.push(format!(
                    "{name}: {} unsuppressed finding(s) — this rule is zero-tolerance",
                    stats.active
                ));
            }
        }
        if self.loc_over_baseline() {
            out.push(format!(
                "loc: {} non-test lines exceed the committed baseline of {} — delete as much \
                 as you add, or raise the baseline deliberately",
                self.loc_total(),
                self.loc_baseline.unwrap_or_default()
            ));
        }
        out
    }

    /// Whether the non-test line count exceeds its committed baseline.
    #[must_use]
    pub fn loc_over_baseline(&self) -> bool {
        self.loc_baseline
            .is_some_and(|allowed| self.loc_total() as u64 > allowed)
    }

    /// Non-test lines of code across the workspace.
    #[must_use]
    pub fn loc_total(&self) -> usize {
        self.loc.iter().map(|(_, lines)| lines).sum()
    }

    /// Whether the gate passes.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.stats.iter().all(|s| !s.failed()) && !self.loc_over_baseline()
    }
}

/// Collects the workspace's own source files (never `vendor/` or
/// `target/`): the facade's `src/`, the shared `tests/` and `examples/`,
/// and each crate's `src/`.
///
/// # Errors
///
/// Propagates I/O errors from directory walks.
pub fn collect_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["src", "tests", "examples"] {
        walk(&root.join(top), &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            walk(&dir.join("src"), &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            walk(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// The workspace-relative, forward-slash form of `path`.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Maps a relative path to its rule scopes.
fn classify(rel: &str, config: &Config) -> (FileRole, bool) {
    let whole_file_test = rel.starts_with("tests/") || rel.ends_with("/testutil.rs");
    let role = FileRole {
        library: rel.starts_with("src/")
            || (rel.starts_with("crates/") && rel.contains("/src/") && !rel.contains("/src/bin/")),
        clock_sanctioned: rel.starts_with(&config.bench_prefix),
        cast_audited: config.cast_prefixes.iter().any(|p| rel.starts_with(p)),
        units_boundary: config.units_boundary.iter().any(|p| p == rel),
        entry_point: rel.starts_with("examples/")
            || rel.contains("/src/bin/")
            || rel.ends_with("/src/main.rs"),
    };
    (role, whole_file_test)
}

/// Runs the full analysis over the workspace at `root`.
///
/// # Errors
///
/// Returns a message on unreadable files or directories.
pub fn analyze(root: &Path, config: &Config, baseline: &Baseline) -> Result<Analysis, String> {
    let paths = collect_sources(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    // Reference-only files go last: `files[..scanned]` is what the rules
    // scan, and the symbol table covers only that prefix.
    let scanned = paths.len();
    let mut reference_paths = Vec::new();
    walk(&root.join(REFERENCE_DIR), &mut reference_paths)
        .map_err(|e| format!("walking {REFERENCE_DIR}: {e}"))?;
    let mut files = Vec::new();
    let mut roles = Vec::new();
    for (i, path) in paths.iter().chain(&reference_paths).enumerate() {
        let text =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let rel = rel_path(root, path);
        let (role, whole_file_test) = if i < scanned {
            classify(&rel, config)
        } else {
            let reference = FileRole {
                entry_point: true,
                ..FileRole::default()
            };
            (reference, false)
        };
        files.push(SourceFile::new(rel, text, whole_file_test));
        roles.push(role);
    }

    // The conservation corpus: every identifier appearing in `tests/`.
    let mut test_idents: BTreeSet<&str> = BTreeSet::new();
    for file in &files[..scanned] {
        if file.rel_path.starts_with("tests/") {
            for i in 0..file.sig.len() {
                if file.sig_kind(i) == crate::lexer::TokenKind::Ident {
                    test_idents.insert(file.sig_text(i));
                }
            }
        }
    }

    // The semantic layer: parsed items, symbol table, call graph.
    let parsed: Vec<ParsedFile> = files.iter().map(parse).collect();
    let symbols = Symbols::build(&parsed[..scanned]);
    // The callgraph's clock exemption must match `wall-clock-in-sim`'s:
    // the bench crate's methods are wall-clock-sanctioned even when
    // (mis)resolved as reachable from a fan-out, otherwise every
    // `.start(`/`.time(` method call in sim code would drag
    // `Profiler`'s `Instant`s into the fan-out-reachable set by bare-name
    // resolution.
    let clock_sanctioned: Vec<bool> = roles[..scanned]
        .iter()
        .map(|r| r.clock_sanctioned)
        .collect();
    let fanout = callgraph::analyze(
        &files[..scanned],
        &parsed[..scanned],
        &symbols,
        &clock_sanctioned,
    );
    let mut walked = fanout.findings;
    walked.extend(callgraph::unreachable_pub(
        &files, &parsed, &symbols, &roles,
    ));

    let mut findings: Vec<Finding> = Vec::new();
    let mut used: Vec<(String, u32, String)> = Vec::new(); // (path, line, rule) of used allows
    for (file_idx, file) in files[..scanned].iter().enumerate() {
        let mut raw = Vec::new();
        let empty: Vec<(usize, usize)> = Vec::new();
        let scopes = fanout.scopes.get(file_idx).unwrap_or(&empty);
        scan_file(file, &parsed[file_idx], roles[file_idx], scopes, &mut raw);
        for finding in &walked {
            if finding.path == file.rel_path {
                raw.push(finding.clone());
            }
        }
        for field in conserved_fields(file) {
            if !test_idents.contains(field.field.as_str()) {
                raw.push(Finding {
                    rule: RuleId::ConservationAudit,
                    path: field.path.clone(),
                    line: field.line,
                    message: format!(
                        "conserved field `{}.{}` is referenced by no test under tests/ — it \
                         could silently escape the conservation suites",
                        field.strukt, field.field
                    ),
                    suppressed: None,
                });
            }
        }
        // Resolve suppressions: a reasoned allow trailing the finding's
        // line, or in the comment block directly above it, covers it.
        for finding in &mut raw {
            let matched = file.suppressions.iter().find(|s| {
                s.rule == finding.rule.name()
                    && (s.line == finding.line || s.applies_line == finding.line)
            });
            if let Some(allow) = matched {
                finding.suppressed = Some(allow.reason.clone());
                used.push((file.rel_path.clone(), allow.line, allow.rule.clone()));
            }
        }
        // Broken markers and unknown rule names are findings themselves.
        for bad in &file.malformed {
            raw.push(Finding {
                rule: RuleId::MalformedSuppression,
                path: file.rel_path.clone(),
                line: bad.line,
                message: bad.problem.clone(),
                suppressed: None,
            });
        }
        for allow in &file.suppressions {
            if RuleId::from_name(&allow.rule).is_none() {
                raw.push(Finding {
                    rule: RuleId::MalformedSuppression,
                    path: file.rel_path.clone(),
                    line: allow.line,
                    message: format!("`lint:allow({})` names no known rule", allow.rule),
                    suppressed: None,
                });
            }
        }
        findings.append(&mut raw);
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    // Two mentions on one line (`let m: HashMap<_, _> = HashMap::new()`)
    // are one actionable site; a suppression covers the whole line.
    findings.dedup_by(|a, b| (a.rule, &a.path, a.line) == (b.rule, &b.path, b.line));

    // Unused reasoned suppressions (stale allows), informational.
    let mut unused = Vec::new();
    for file in &files[..scanned] {
        for allow in &file.suppressions {
            if RuleId::from_name(&allow.rule).is_some()
                && !used
                    .iter()
                    .any(|(p, l, r)| p == &file.rel_path && *l == allow.line && r == &allow.rule)
            {
                unused.push(UnusedSuppression {
                    path: file.rel_path.clone(),
                    line: allow.line,
                    rule: allow.rule.clone(),
                });
            }
        }
    }

    let mut counts: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
    for finding in &findings {
        let entry = counts.entry(finding.rule.name()).or_default();
        if finding.suppressed.is_some() {
            entry.0 += 1;
        } else {
            entry.1 += 1;
        }
    }
    let stats = ALL_RULES
        .into_iter()
        .chain([RuleId::MalformedSuppression])
        .map(|rule| {
            let (suppressed, active) = counts.get(rule.name()).copied().unwrap_or((0, 0));
            RuleStats {
                rule,
                active,
                suppressed,
                baseline: if rule.ratcheted() {
                    baseline.ratchets.get(rule.name()).copied()
                } else {
                    None
                },
            }
        })
        .collect();

    let mut loc: BTreeMap<String, usize> = BTreeMap::new();
    for file in &files[..scanned] {
        let krate = match file.rel_path.strip_prefix("crates/") {
            Some(rest) => rest.split('/').next().unwrap_or(rest),
            None => "junkyard",
        };
        *loc.entry(krate.to_string()).or_default() += file.code_lines();
    }

    Ok(Analysis {
        findings,
        stats,
        unused_suppressions: unused,
        files_scanned: scanned,
        loc: loc.into_iter().collect(),
        loc_baseline: baseline.loc,
    })
}
