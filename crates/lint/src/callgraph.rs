//! The workspace call graph and the two analyses that walk it:
//! `fanout-purity` and `unreachable-pub`.
//!
//! Edges are the fn references `collect_calls` finds (calls, and fns
//! passed by value), resolved by name (see [`crate::symbols`]); [`reach`]
//! is the one walk both analyses share.
//!
//! `fanout-purity` roots at the argument lists of every `fan_out(` call
//! (the worker closure handed to the workspace's one fan-out primitive)
//! and every `.spawn(` call outside test code, and checks each reachable
//! function for effects that would break the
//! bit-identical-at-any-worker-count contract: wall-clock reads,
//! ambient randomness, mutable statics, and iteration over hash-ordered
//! containers. `unreachable-pub` roots at every entry point and trait
//! body, and reports the public library fns the walk never reaches.
//!
//! The same reachability defines the **fan-out scope** used to re-scope
//! the declaration facet of `nondeterministic-iteration`: declaring a
//! `HashMap` only needs a justification when the declaration sits on a
//! fan-out path; serial bookkeeping between batches does not.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::TokenKind;
use crate::parser::{ParsedFile, Vis};
use crate::rules::{
    hash_bindings, hash_iteration_points, FileRole, Finding, RuleId, AMBIENT_RNG_IDENTS,
};
use crate::source::SourceFile;
use crate::symbols::{Call, FnRef, Symbols};

/// The fan-out analysis results for the whole workspace.
#[derive(Debug, Default)]
pub struct Fanout {
    /// Per file: sorted significant-token ranges that are on a fan-out
    /// path (root argument ranges and reachable fn bodies).
    pub scopes: Vec<Vec<(usize, usize)>>,
    /// `fanout-purity` findings.
    pub findings: Vec<Finding>,
}

/// One fan-out root: a `fan_out(` or `.spawn(` call site.
#[derive(Debug)]
struct Root {
    file: usize,
    line: u32,
    /// Significant-token range of the call's argument list.
    range: (usize, usize),
}

/// The names `file` imports with `use`: the last segment of each path
/// (`parse` in `use crate::parser::{parse, ParsedFile};`).
fn use_imports(file: &SourceFile) -> BTreeSet<&str> {
    let mut names = BTreeSet::new();
    let mut in_use = false;
    for i in 0..file.sig.len() {
        match file.sig_text(i) {
            "use" => in_use = true,
            ";" => in_use = false,
            name if in_use
                && file.sig_kind(i) == TokenKind::Ident
                && i + 1 < file.sig.len()
                && matches!(file.sig_text(i + 1), "," | "}" | ";") =>
            {
                names.insert(name);
            }
            _ => {}
        }
    }
    names
}

/// Extracts every fn reference in the non-test part of the sig range
/// `[start, end)`: calls (`f(`, `.m(`, `T::f(`, turbofish included), a
/// `Path::name` passed by value (`.map(Cell::total)`), and a bare name
/// the file imports with `use` passed by value (`.map(parse)`).
fn collect_calls(
    file: &SourceFile,
    start: usize,
    end: usize,
    imports: &BTreeSet<&str>,
) -> Vec<Call> {
    let mut calls = Vec::new();
    let n = end.min(file.sig.len());
    let text = |j: usize| if j < n { file.sig_text(j) } else { "" };
    for i in start..n {
        if file.sig_kind(i) != TokenKind::Ident || file.sig_in_test(i) {
            continue;
        }
        let name = file.sig_text(i);
        let before = if i == 0 { "" } else { file.sig_text(i - 1) };
        let qualifier = (before == "::" && i >= 2 && file.sig_kind(i - 2) == TokenKind::Ident)
            .then(|| file.sig_text(i - 2).to_string());
        let called = text(i + 1) == "(" || (text(i + 1) == "::" && text(i + 2) == "<");
        let call = match (before, called) {
            ("fn", _) => None,
            (".", true) => Some(Call::Method(name.to_string())),
            (".", false) => None,
            (_, true) => Some(match qualifier {
                Some(q) => Call::Qualified(q, name.to_string()),
                None => Call::Plain(name.to_string()),
            }),
            // A path's last segment, not a call: a fn passed by value.
            ("::", false) if text(i + 1) != "::" => {
                qualifier.map(|q| Call::Qualified(q, name.to_string()))
            }
            (_, false) if imports.contains(name) && !matches!(text(i + 1), "!" | "::") => {
                Some(Call::Plain(name.to_string()))
            }
            _ => None,
        };
        calls.extend(call);
    }
    calls
}

/// Every non-test fn reachable over `collect_calls` edges from the
/// `(file, sig range)` pairs in `seeds`, mapped to the index of the seed
/// that reaches it first: each seed's direct references in order, then
/// breadth-first. The fan-out and `unreachable-pub` analyses share it.
#[must_use]
pub fn reach(
    files: &[SourceFile],
    parsed: &[ParsedFile],
    symbols: &Symbols,
    seeds: &[(usize, (usize, usize))],
) -> BTreeMap<FnRef, usize> {
    let imports: Vec<BTreeSet<&str>> = files.iter().map(use_imports).collect();
    let mut reached: BTreeMap<FnRef, usize> = BTreeMap::new();
    let mut queue: VecDeque<(usize, (usize, usize), usize)> = seeds
        .iter()
        .enumerate()
        .map(|(seed, &(file, range))| (file, range, seed))
        .collect();
    while let Some((file, (start, end), seed)) = queue.pop_front() {
        for call in collect_calls(&files[file], start, end, &imports[file]) {
            for r in symbols.resolve(parsed, &call) {
                let f = &parsed[r.0].fns[r.1];
                if files[r.0].sig_in_test(f.at) || reached.contains_key(&r) {
                    continue;
                }
                reached.insert(r, seed);
                if let Some(body) = f.body {
                    queue.push_back((r.0, body, seed));
                }
            }
        }
    }
    reached
}

/// Finds every non-test `fan_out(` call (but not a `fn fan_out`
/// definition) and `.spawn(` call, and the sig range of its argument
/// list (which contains the worker closure).
fn roots(files: &[SourceFile]) -> Vec<Root> {
    let mut sites = Vec::new();
    for (file_idx, file) in files.iter().enumerate() {
        let n = file.sig.len();
        for i in 0..n {
            let before = if i == 0 { "" } else { file.sig_text(i - 1) };
            let root = match file.sig_text(i) {
                "fan_out" => before != "fn",
                "spawn" => before == ".",
                _ => false,
            };
            if !root || i + 1 >= n || file.sig_text(i + 1) != "(" || file.sig_in_test(i) {
                continue;
            }
            // Match the argument parens.
            let mut depth = 0usize;
            let mut j = i + 1;
            let close = loop {
                if j >= n {
                    break n;
                }
                match file.sig_text(j) {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break j;
                        }
                    }
                    _ => {}
                }
                j += 1;
            };
            sites.push(Root {
                file: file_idx,
                line: file.sig_line(i),
                range: (i + 2, close),
            });
        }
    }
    sites
}

/// One impure effect found in a token range.
struct Impurity {
    line: u32,
    what: String,
}

/// Scans the sig range of `file` for effects that break replay
/// determinism. `clock_sanctioned` files (those of the bench crate)
/// are allowed wall clocks — timing is their whole job.
///
/// The `recorder-in-fanout` facet is zero-tolerance everywhere: a
/// fan-out-reachable range must never touch the serial-side
/// `TraceRecorder` (including its `.absorb(` merge). Workers record
/// through per-slot `TraceShard`s minted before the fan-out, so the
/// merged trace cannot depend on worker count or interleaving.
fn impurities(
    file: &SourceFile,
    start: usize,
    end: usize,
    clock_sanctioned: bool,
    iteration_points: &[(usize, String)],
) -> Vec<Impurity> {
    let mut out = Vec::new();
    let n = end.min(file.sig.len());
    for i in start..n {
        if file.sig_in_test(i) {
            continue;
        }
        let text = file.sig_text(i);
        if !clock_sanctioned && (text == "Instant" || text == "SystemTime") {
            out.push(Impurity {
                line: file.sig_line(i),
                what: format!("reads the wall clock (`{text}`)"),
            });
        }
        if text == "TraceRecorder" {
            out.push(Impurity {
                line: file.sig_line(i),
                what: "touches the serial-side `TraceRecorder` (workers must record through per-slot `TraceShard`s)"
                    .to_string(),
            });
        }
        if text == "absorb" && i > 0 && file.sig_text(i - 1) == "." {
            out.push(Impurity {
                line: file.sig_line(i),
                what: "merges trace shards (`.absorb(`) — a serial-side, slot-ordered operation"
                    .to_string(),
            });
        }
        if AMBIENT_RNG_IDENTS.contains(&text) {
            out.push(Impurity {
                line: file.sig_line(i),
                what: format!("draws ambient entropy (`{text}`)"),
            });
        }
        if text == "static" && i + 1 < n && file.sig_text(i + 1) == "mut" {
            out.push(Impurity {
                line: file.sig_line(i),
                what: "touches a mutable static".to_string(),
            });
        }
    }
    for &(idx, ref desc) in iteration_points {
        if idx >= start && idx < n && !file.sig_in_test(idx) {
            out.push(Impurity {
                line: file.sig_line(idx),
                what: format!("observes hash iteration order ({desc})"),
            });
        }
    }
    out
}

/// Runs the whole fan-out analysis: fan-out roots → reachability →
/// purity findings + per-file scopes. `clock_sanctioned[i]` marks files
/// allowed to read wall clocks (those of the bench crate).
#[must_use]
pub fn analyze(
    files: &[SourceFile],
    parsed: &[ParsedFile],
    symbols: &Symbols,
    clock_sanctioned: &[bool],
) -> Fanout {
    let sites = roots(files);
    // Per-file hash context, computed once.
    let per_file_bindings: Vec<Vec<String>> = files.iter().map(hash_bindings).collect();
    let per_file_points: Vec<Vec<(usize, String)>> = files
        .iter()
        .zip(&per_file_bindings)
        .map(|(f, b)| hash_iteration_points(f, b))
        .collect();

    let seeds: Vec<(usize, (usize, usize))> = sites.iter().map(|s| (s.file, s.range)).collect();
    let reached = reach(files, parsed, symbols, &seeds);

    // Findings: direct impurities inside root closures...
    let mut findings = Vec::new();
    for site in &sites {
        let file = &files[site.file];
        for imp in impurities(
            file,
            site.range.0,
            site.range.1,
            clock_sanctioned[site.file],
            &per_file_points[site.file],
        ) {
            findings.push(Finding {
                rule: RuleId::FanoutPurity,
                path: file.rel_path.clone(),
                line: imp.line,
                message: format!(
                    "fan-out closure (at {}:{}) {}",
                    file.rel_path, site.line, imp.what
                ),
                suppressed: None,
            });
        }
    }
    // ... and impure reachable fns, one finding per fn.
    for (&r, &site_idx) in &reached {
        let f = &parsed[r.0].fns[r.1];
        let Some((start, end)) = f.body else { continue };
        let file = &files[r.0];
        let imps = impurities(
            file,
            start,
            end,
            clock_sanctioned[r.0],
            &per_file_points[r.0],
        );
        if imps.is_empty() {
            continue;
        }
        let site = &sites[site_idx];
        let mut whats: Vec<String> = imps.iter().map(|i| i.what.clone()).collect();
        whats.dedup();
        let shown = if whats.len() > 3 {
            format!("{}; and {} more", whats[..3].join("; "), whats.len() - 3)
        } else {
            whats.join("; ")
        };
        findings.push(Finding {
            rule: RuleId::FanoutPurity,
            path: file.rel_path.clone(),
            line: f.line,
            message: format!(
                "fn `{}` is reachable from the fan-out at {}:{} and {}",
                f.qualified(),
                files[site.file].rel_path,
                site.line,
                shown
            ),
            suppressed: None,
        });
    }

    // Scopes: root ranges plus reachable fn bodies, per file.
    let mut scopes: Vec<Vec<(usize, usize)>> = vec![Vec::new(); files.len()];
    for site in &sites {
        scopes[site.file].push(site.range);
    }
    for &r in reached.keys() {
        if let Some(body) = parsed[r.0].fns[r.1].body {
            scopes[r.0].push(body);
        }
    }
    for ranges in &mut scopes {
        ranges.sort_unstable();
    }
    Fanout { scopes, findings }
}

/// The `unreachable-pub` rule: every bare `pub fn` in non-test library
/// code that no entry point reaches. The walk seeds from the non-test
/// code of every entry-point file (`roles[i].entry_point`) and the body
/// of every non-test fn in a `trait` or `impl Trait for` block. Tests are
/// no roots, so a fn only tests call counts as unreached. Scoped
/// `pub(crate)` fns are left to rustc's dead-code lint.
#[must_use]
pub fn unreachable_pub(
    files: &[SourceFile],
    parsed: &[ParsedFile],
    symbols: &Symbols,
    roles: &[FileRole],
) -> Vec<Finding> {
    let mut seeds = Vec::new();
    for (i, file) in files.iter().enumerate() {
        if roles[i].entry_point {
            seeds.push((i, (0, file.sig.len())));
        }
        for f in &parsed[i].fns {
            if let (true, Some(body)) = (f.in_trait, f.body) {
                if !file.sig_in_test(f.at) {
                    seeds.push((i, body));
                }
            }
        }
    }
    let reached = reach(files, parsed, symbols, &seeds);
    let mut findings = Vec::new();
    for (i, file) in files.iter().enumerate() {
        if !roles[i].library {
            continue;
        }
        for (j, f) in parsed[i].fns.iter().enumerate() {
            if f.vis != Vis::Public
                || f.in_trait
                || file.sig_in_test(f.at)
                || reached.contains_key(&(i, j))
            {
                continue;
            }
            findings.push(Finding {
                rule: RuleId::UnreachablePub,
                path: file.rel_path.clone(),
                line: f.line,
                message: format!(
                    "pub fn `{}` is reached from no bin, example or perfbench source (tests \
                     are not roots): delete it or narrow its visibility",
                    f.qualified()
                ),
                suppressed: None,
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run(srcs: &[(&str, &str)]) -> (Vec<SourceFile>, Vec<ParsedFile>, Fanout) {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(path, src)| SourceFile::new((*path).to_string(), (*src).to_string(), false))
            .collect();
        let parsed: Vec<ParsedFile> = files.iter().map(parse).collect();
        let symbols = Symbols::build(&parsed);
        let clock_sanctioned = vec![false; files.len()];
        let fanout = analyze(&files, &parsed, &symbols, &clock_sanctioned);
        (files, parsed, fanout)
    }

    #[test]
    fn impure_fn_reachable_from_spawn_is_flagged_across_crates() {
        let (_, _, fanout) = run(&[
            (
                "crates/a/src/lib.rs",
                "pub fn run() {\n    std::thread::scope(|s| {\n        s.spawn(|| helper());\n    });\n}\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn helper() {\n    let _t = std::time::Instant::now();\n}\n",
            ),
        ]);
        assert_eq!(fanout.findings.len(), 1);
        let f = &fanout.findings[0];
        assert_eq!(f.path, "crates/b/src/lib.rs");
        assert!(f.message.contains("wall clock"), "{}", f.message);
        assert!(f.message.contains("crates/a/src/lib.rs:3"), "{}", f.message);
    }

    #[test]
    fn cycles_terminate_and_still_flag() {
        let (_, _, fanout) = run(&[(
            "crates/a/src/lib.rs",
            "pub fn run() {\n    std::thread::scope(|s| { s.spawn(|| ping()); });\n}\n\
             fn ping() { pong(); }\n\
             fn pong() { ping(); let _ = rand::thread_rng(); }\n",
        )]);
        assert_eq!(fanout.findings.len(), 1);
        assert!(fanout.findings[0].message.contains("ambient entropy"));
    }

    #[test]
    fn method_calls_resolve_to_impl_fns() {
        let (_, _, fanout) = run(&[(
            "crates/a/src/lib.rs",
            "struct W;\nimpl W {\n    fn step(&self) { static mut COUNTER: u64 = 0; let _ = COUNTER; }\n}\n\
             pub fn run(w: &W) {\n    std::thread::scope(|s| { s.spawn(|| w.step()); });\n}\n",
        )]);
        assert_eq!(fanout.findings.len(), 1);
        assert!(fanout.findings[0].message.contains("mutable static"));
        assert!(fanout.findings[0].message.contains("W::step"));
    }

    #[test]
    fn fan_out_calls_are_roots_but_fan_out_definitions_are_not() {
        let (_, _, fanout) = run(&[
            (
                "crates/a/src/fanout.rs",
                "pub fn fan_out(started: std::time::Instant, job: impl Fn()) { job(); }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "struct Meter;\nimpl Meter {\n    fn first(&self) {}\n    \
                 fn read(&self) { let _t = std::time::Instant::now(); }\n}\n\
                 pub fn run(m: &Meter) {\n    fan_out(0..4, 2, |_, _| m.read());\n}\n",
            ),
        ]);
        // Only the second method, reached through the `fan_out(` call on
        // line 7, is flagged; the `Instant` in the definition's parameter
        // list is not a fan-out closure.
        assert_eq!(fanout.findings.len(), 1, "{:?}", fanout.findings);
        let f = &fanout.findings[0];
        assert_eq!((f.path.as_str(), f.line), ("crates/b/src/lib.rs", 4));
        assert!(f.message.contains("Meter::read"), "{}", f.message);
        assert!(f.message.contains("crates/b/src/lib.rs:7"), "{}", f.message);
    }

    #[test]
    fn pure_fanout_paths_are_silent_and_scoped() {
        let (_, _, fanout) = run(&[(
            "crates/a/src/lib.rs",
            "pub fn run() {\n    std::thread::scope(|s| { s.spawn(|| work(1)); });\n}\n\
             fn work(x: u64) -> u64 { x + 1 }\n\
             fn unrelated() -> u64 { 7 }\n",
        )]);
        assert!(fanout.findings.is_empty(), "{:?}", fanout.findings);
        // `work`'s body is in scope; `unrelated`'s is not.
        assert!(!fanout.scopes[0].is_empty());
    }

    #[test]
    fn recorder_in_fanout_is_flagged_but_shards_are_not() {
        let (_, _, fanout) = run(&[(
            "crates/a/src/lib.rs",
            "pub fn bad(rec: &mut u64) {\n    std::thread::scope(|s| {\n        s.spawn(|| merge(rec));\n    });\n}\n\
             fn merge(rec: &mut u64) { rec.absorb(7); }\n\
             pub fn worse() {\n    std::thread::scope(|s| {\n        s.spawn(|| { let r = TraceRecorder::new(); drop(r); });\n    });\n}\n\
             pub fn good(shard: &mut u64) {\n    std::thread::scope(|s| { s.spawn(|| { *shard += 1; }); });\n}\n",
        )]);
        // `merge` calls `.absorb(` from a reachable body; `worse` mints a
        // `TraceRecorder` directly inside its spawn closure; the
        // shard-style fan-out in `good` stays silent.
        assert_eq!(fanout.findings.len(), 2, "{:?}", fanout.findings);
        assert!(
            fanout
                .findings
                .iter()
                .any(|f| f.message.contains("TraceRecorder")),
            "{:?}",
            fanout.findings
        );
        assert!(
            fanout
                .findings
                .iter()
                .any(|f| f.message.contains("`merge`") && f.message.contains(".absorb(")),
            "{:?}",
            fanout.findings
        );
    }

    /// The `unreachable-pub` findings (qualified fn names) over `srcs`.
    /// Files under `/bin/` and `perfbench/` are entry points; the rest
    /// is library code. As in the engine, `perfbench/` files add no
    /// symbols, so they must come last.
    fn unreached(srcs: &[(&str, &str)]) -> Vec<String> {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(path, src)| {
                let test = path.starts_with("tests/");
                SourceFile::new((*path).to_string(), (*src).to_string(), test)
            })
            .collect();
        let parsed: Vec<ParsedFile> = files.iter().map(parse).collect();
        let scanned = files
            .iter()
            .take_while(|f| !f.rel_path.starts_with("perfbench/"))
            .count();
        let symbols = Symbols::build(&parsed[..scanned]);
        let roles: Vec<FileRole> = files
            .iter()
            .map(|f| {
                let entry = f.rel_path.contains("/bin/") || f.rel_path.starts_with("perfbench/");
                FileRole {
                    library: !entry && !f.rel_path.starts_with("tests/"),
                    entry_point: entry,
                    ..FileRole::default()
                }
            })
            .collect();
        unreachable_pub(&files, &parsed, &symbols, &roles)
            .iter()
            .map(|f| f.message.split('`').nth(1).unwrap_or_default().to_string())
            .collect()
    }

    const BIN: &str = "crates/b/src/bin/main.rs";

    #[test]
    fn calls_and_method_calls_reach_pub_fns() {
        let found = unreached(&[
            (
                "crates/a/src/lib.rs",
                "pub fn called() {}\npub fn orphan() {}\npub(crate) fn scoped() {}\n\
                 pub struct S;\nimpl S {\n    pub fn method(&self) {}\n    pub fn unused(&self) {}\n}\n",
            ),
            (BIN, "fn main() { a::called(); S.method(); }\n"),
        ]);
        // `scoped` is left to rustc's dead-code lint.
        assert_eq!(found, ["orphan", "S::unused"]);
    }

    #[test]
    fn a_path_passed_by_value_is_a_reference() {
        let found = unreached(&[
            (
                "crates/a/src/lib.rs",
                "pub struct Cell;\nimpl Cell {\n    pub fn total(&self) -> u64 { 0 }\n    \
                 pub fn mean(&self) -> u64 { 0 }\n}\n",
            ),
            (
                BIN,
                "fn main() { let _: Vec<u64> = cells.iter().map(Cell::total).collect(); }\n",
            ),
        ]);
        assert_eq!(found, ["Cell::mean"]);
    }

    #[test]
    fn an_imported_fn_passed_by_value_is_a_reference() {
        let found = unreached(&[
            (
                "crates/a/src/lib.rs",
                "pub fn parse(s: &str) -> u8 { 0 }\npub fn other() -> u8 { 1 }\n",
            ),
            // `other` is a bare name here too, but not an imported one.
            (
                BIN,
                "use a::parse;\nfn main() { let other = 2; let _ = [\"1\"].map(parse); }\n",
            ),
        ]);
        assert_eq!(found, ["other"]);
    }

    #[test]
    fn trait_impl_and_default_bodies_are_roots() {
        let found = unreached(&[(
            "crates/a/src/lib.rs",
            "pub fn via_impl() {}\npub fn via_default() {}\npub fn orphan() {}\n\
             pub struct W;\nimpl std::fmt::Display for W {\n    \
             fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { via_impl(); Ok(()) }\n}\n\
             pub trait Visit {\n    fn visit(&self) { via_default(); }\n}\n",
        )]);
        // The trait fns themselves are never findings.
        assert_eq!(found, ["orphan"]);
    }

    #[test]
    fn a_reference_only_file_is_a_root() {
        let found = unreached(&[
            (
                "crates/a/src/lib.rs",
                "pub fn timed() {}\npub fn untimed() {}\n",
            ),
            (
                "perfbench/src/main.rs",
                "fn main() { a::timed(); }\npub fn report() {}\n",
            ),
        ]);
        // The benchmark's own pub fns are never findings.
        assert_eq!(found, ["untimed"]);
    }

    #[test]
    fn callers_in_test_code_do_not_count() {
        let found = unreached(&[
            (
                "crates/a/src/lib.rs",
                "pub fn only_tested() {}\n#[cfg(test)]\nmod tests {\n    \
                 #[test]\n    fn t() { super::only_tested(); }\n}\n",
            ),
            (
                BIN,
                "fn main() {}\n#[cfg(test)]\nmod tests {\n    fn t() { a::only_tested(); }\n}\n",
            ),
            ("tests/it.rs", "#[test]\nfn t() { a::only_tested(); }\n"),
        ]);
        assert_eq!(found, ["only_tested"]);
    }

    #[test]
    fn hash_iteration_in_reachable_fn_is_impure() {
        let (_, _, fanout) = run(&[(
            "crates/a/src/lib.rs",
            "use std::collections::HashMap;\n\
             pub fn run() {\n    std::thread::scope(|s| { s.spawn(|| tally()); });\n}\n\
             // lint:allow(nondeterministic-iteration): exercised in a purity test\n\
             fn tally() {\n    let m: HashMap<u64, u64> = HashMap::new();\n    for _ in m.iter() {}\n}\n",
        )]);
        assert_eq!(fanout.findings.len(), 1);
        assert!(fanout.findings[0].message.contains("hash iteration order"));
    }
}
