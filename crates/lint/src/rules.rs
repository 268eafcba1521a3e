//! The rule set: each rule encodes one clause of the workspace's
//! determinism & conservation contract (see README "Static analysis").
//!
//! Rules come in two severities:
//!
//! * **Zero-tolerance** — any unsuppressed finding fails the gate. These
//!   guard invariants with no legacy debt (nondeterministic iteration,
//!   wall clocks in simulation code, ambient randomness, unaudited
//!   conserved fields).
//! * **Ratcheted** — legacy findings are tolerated up to the committed
//!   count in `lint_baseline.json`; the count may only go *down*. These
//!   cover pre-existing panics, numeric casts, bare-f64 quantities and
//!   public fns only tests call, burned down incrementally.

use crate::parser::ParsedFile;
use crate::source::SourceFile;

/// Identifies one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Iterating a `HashMap`/`HashSet` anywhere, or declaring one on a
    /// fan-out path without a lookup-only justification.
    NondeterministicIteration,
    /// `Instant`/`SystemTime` outside the bench crate.
    WallClockInSim,
    /// Entropy-seeded randomness anywhere: all randomness must flow from
    /// `decorrelate_seed`.
    AmbientRng,
    /// Arithmetic mixing unit dimensions inferred from name suffixes
    /// (`_ms` vs `_secs`, `_grams` vs `_kg`, ...).
    UnitSuffixConsistency,
    /// A function reachable from a fan-out closure (`fan_out(` or
    /// `.spawn(`) that touches wall clocks, ambient RNG, mutable statics
    /// or hash-iteration.
    FanoutPurity,
    /// `unwrap()`/`.expect(` /`panic!` in non-test library code.
    PanicInLibrary,
    /// `as` numeric casts in accounting/carbon paths.
    UncheckedCast,
    /// A bare-`f64` public param or field on an accounting path that
    /// should carry a `junkyard_carbon::units` newtype.
    UntypedQuantity,
    /// A numeric field of a `/// lint: conserved` struct with no
    /// reference from any test under `tests/`.
    ConservationAudit,
    /// A bare `pub fn` in library code that no bin, example or
    /// perfbench source reaches (see `callgraph::unreachable_pub`).
    UnreachablePub,
    /// A `lint:allow` marker that cannot be honoured (bad syntax, no
    /// reason). Never suppressible.
    MalformedSuppression,
}

/// Every real rule, in reporting order (excludes the suppression
/// meta-rule, which only fires when a marker itself is broken).
pub const ALL_RULES: [RuleId; 10] = [
    RuleId::NondeterministicIteration,
    RuleId::WallClockInSim,
    RuleId::AmbientRng,
    RuleId::UnitSuffixConsistency,
    RuleId::FanoutPurity,
    RuleId::PanicInLibrary,
    RuleId::UncheckedCast,
    RuleId::UntypedQuantity,
    RuleId::ConservationAudit,
    RuleId::UnreachablePub,
];

impl RuleId {
    /// The kebab-case name used in reports and `lint:allow(...)`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NondeterministicIteration => "nondeterministic-iteration",
            RuleId::WallClockInSim => "wall-clock-in-sim",
            RuleId::AmbientRng => "ambient-rng",
            RuleId::UnitSuffixConsistency => "unit-suffix-consistency",
            RuleId::FanoutPurity => "fanout-purity",
            RuleId::PanicInLibrary => "panic-in-library",
            RuleId::UncheckedCast => "unchecked-cast",
            RuleId::UntypedQuantity => "untyped-quantity",
            RuleId::ConservationAudit => "conservation-audit",
            RuleId::UnreachablePub => "unreachable-pub",
            RuleId::MalformedSuppression => "malformed-suppression",
        }
    }

    /// Parses a rule name (as written inside `lint:allow(...)`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        ALL_RULES.into_iter().find(|r| r.name() == name)
    }

    /// Whether findings are tolerated up to the committed baseline count
    /// rather than failing outright.
    #[must_use]
    pub fn ratcheted(self) -> bool {
        matches!(
            self,
            RuleId::PanicInLibrary
                | RuleId::UncheckedCast
                | RuleId::UntypedQuantity
                | RuleId::UnreachablePub
        )
    }

    /// One-line statement of the invariant the rule encodes.
    #[must_use]
    pub fn contract(self) -> &'static str {
        match self {
            RuleId::NondeterministicIteration => {
                "results are bit-identical at any worker count: no fan-out path may observe \
                 hash-randomized iteration order"
            }
            RuleId::UnitSuffixConsistency => {
                "carbon arithmetic is dimensionally sound: quantities named with unit suffixes \
                 never add, compare or assign across dimensions"
            }
            RuleId::FanoutPurity => {
                "every function reachable from a fan_out or spawn closure is pure of wall \
                 clocks, ambient RNG, mutable statics and hash iteration"
            }
            RuleId::UntypedQuantity => {
                "public accounting quantities carry units newtypes, not bare f64; the bare count \
                 may only go down"
            }
            RuleId::WallClockInSim => {
                "simulated time is the only time: wall clocks exist only in the bench crate"
            }
            RuleId::AmbientRng => {
                "all randomness flows from decorrelate_seed(seed, index): no entropy sources"
            }
            RuleId::PanicInLibrary => {
                "library code returns typed errors; panics are documented contract violations \
                 only, and their count may only go down"
            }
            RuleId::UncheckedCast => {
                "accounting and carbon arithmetic avoids silent `as` truncation; the count may \
                 only go down"
            }
            RuleId::ConservationAudit => {
                "every numeric field of a conserved-accounting struct is pinned by at least one \
                 test under tests/"
            }
            RuleId::UnreachablePub => {
                "every public library fn is reached from a bin, example or perfbench source, \
                 not only from tests; the count of unreached ones may only go down"
            }
            RuleId::MalformedSuppression => "every suppression names a rule and carries a reason",
        }
    }
}

/// One rule match, before and after suppression resolution.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What was matched and why it matters.
    pub message: String,
    /// `Some(reason)` when an inline `lint:allow` covers this finding.
    pub suppressed: Option<String>,
}

/// What the engine tells the rules about one file's place in the
/// workspace (derived from its path; see `engine::classify`).
#[derive(Debug, Clone, Copy, Default)]
pub struct FileRole {
    /// Library code: `crates/*/src/**` (excluding `src/bin/`) or the
    /// facade's `src/`. Scope of `panic-in-library`.
    pub library: bool,
    /// Sanctioned to read wall clocks: under `crates/bench/`. Scope of
    /// `wall-clock-in-sim` and the callgraph's clock-impurity facet.
    pub clock_sanctioned: bool,
    /// On an accounting/carbon path — scope of `unchecked-cast`.
    pub cast_audited: bool,
    /// The typed-quantity boundary itself (`units.rs`, `convert.rs`) —
    /// exempt from `untyped-quantity`.
    pub units_boundary: bool,
    /// An entry point: a bin or example target, or a reference-only
    /// source. Root of `unreachable-pub`.
    pub entry_point: bool,
}

/// Newtype idents counted as numeric for the conservation audit, on top
/// of the primitive numeric types.
const NUMERIC_NEWTYPES: [&str; 2] = ["GramsCo2e", "Watts"];

const PRIMITIVE_NUMERIC: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

fn is_numeric_type(ident: &str) -> bool {
    PRIMITIVE_NUMERIC.contains(&ident) || NUMERIC_NEWTYPES.contains(&ident)
}

/// Methods whose call on a hash-typed binding observes iteration order.
const ITERATION_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Entropy-source identifiers; any appearance is a finding.
pub(crate) const AMBIENT_RNG_IDENTS: [&str; 6] = [
    "thread_rng",
    "ThreadRng",
    "from_entropy",
    "OsRng",
    "getrandom",
    "RandomState",
];

/// Runs every pattern rule over one file, appending findings.
/// `fanout_ranges` are the file's significant-token ranges that sit on a
/// fan-out path (see `callgraph`).
pub fn scan_file(
    file: &SourceFile,
    parsed: &ParsedFile,
    role: FileRole,
    fanout_ranges: &[(usize, usize)],
    out: &mut Vec<Finding>,
) {
    nondeterministic_iteration(file, fanout_ranges, out);
    wall_clock_in_sim(file, role, out);
    ambient_rng(file, out);
    crate::dims::Checker::run(file, parsed, out);
    panic_in_library(file, role, out);
    unchecked_cast(file, role, out);
    untyped_quantity(file, parsed, role, out);
}

fn push(out: &mut Vec<Finding>, file: &SourceFile, rule: RuleId, line: u32, message: String) {
    out.push(Finding {
        rule,
        path: file.rel_path.clone(),
        line,
        message,
        suppressed: None,
    });
}

/// Rule 1: `nondeterministic-iteration`.
///
/// Two facets, both scoped to non-test code:
///
/// * Declaring or naming a `HashMap`/`HashSet` type (outside `use`
///   declarations) **on a fan-out path** requires a `lint:allow` stating
///   why hash ordering is unobservable — in practice "lookup-only; never
///   iterated". Off fan-out paths, serial bookkeeping may hash freely;
///   the call graph (see `callgraph`) decides which is which.
/// * Calling an iteration-order-observing method (`.iter()`, `.keys()`,
///   `.values()`, `.drain()`, ...) on a binding declared hash-typed in
///   this file, or `for`-looping over one, is flagged at the call site —
///   everywhere, fan-out or not, because iteration order leaks into
///   results regardless of threading.
fn nondeterministic_iteration(
    file: &SourceFile,
    fanout_ranges: &[(usize, usize)],
    out: &mut Vec<Finding>,
) {
    let n = file.sig.len();
    let in_fanout = |i: usize| fanout_ranges.iter().any(|&(lo, hi)| i >= lo && i < hi);
    for i in 0..n {
        let text = file.sig_text(i);
        if text != "HashMap" && text != "HashSet" {
            continue;
        }
        if file.sig_in_test(i) || file.sig_in_use_decl(i) || !in_fanout(i) {
            continue;
        }
        push(
            out,
            file,
            RuleId::NondeterministicIteration,
            file.sig_line(i),
            format!(
                "`{text}` on a fan-out path: iteration order is hash-randomized; \
                 use `BTreeMap`/`BTreeSet` or justify with \
                 `lint:allow(nondeterministic-iteration): lookup-only ...`"
            ),
        );
    }
    let bindings = hash_bindings(file);
    for (idx, desc) in hash_iteration_points(file, &bindings) {
        push(
            out,
            file,
            RuleId::NondeterministicIteration,
            file.sig_line(idx),
            format!("{desc}: order is nondeterministic"),
        );
    }
}

/// The names bound to `HashMap`/`HashSet` types in this file's non-test
/// code (let bindings, params, struct fields).
#[must_use]
pub(crate) fn hash_bindings(file: &SourceFile) -> Vec<String> {
    let mut bindings: Vec<String> = Vec::new();
    for i in 0..file.sig.len() {
        let text = file.sig_text(i);
        if text != "HashMap" && text != "HashSet" {
            continue;
        }
        if file.sig_in_test(i) || file.sig_in_use_decl(i) {
            continue;
        }
        if let Some(binding) = binding_of_hash_type(file, i) {
            if !bindings.contains(&binding) {
                bindings.push(binding);
            }
        }
    }
    bindings
}

/// Sites (significant-token index + description) where a hash-typed
/// binding's iteration order is observed in non-test code.
#[must_use]
pub(crate) fn hash_iteration_points(
    file: &SourceFile,
    bindings: &[String],
) -> Vec<(usize, String)> {
    let mut points = Vec::new();
    if bindings.is_empty() {
        return points;
    }
    let n = file.sig.len();
    for i in 0..n {
        if file.sig_in_test(i) {
            continue;
        }
        let text = file.sig_text(i);
        // `binding.iter()` and friends.
        if bindings.iter().any(|b| b == text)
            && i + 3 < n
            && file.sig_text(i + 1) == "."
            && ITERATION_METHODS.contains(&file.sig_text(i + 2))
            && file.sig_text(i + 3) == "("
        {
            points.push((
                i,
                format!(
                    "`{text}.{}()` iterates a hash-typed binding",
                    file.sig_text(i + 2)
                ),
            ));
        }
        // `for ... in binding {` / `for ... in &binding {`.
        if text == "for" {
            let mut j = i + 1;
            let mut guard = 0usize;
            while j < n && file.sig_text(j) != "in" && guard < 48 {
                j += 1;
                guard += 1;
            }
            if j < n && file.sig_text(j) == "in" {
                let mut k = j + 1;
                while k < n && matches!(file.sig_text(k), "&" | "mut") {
                    k += 1;
                }
                if k + 1 < n
                    && bindings.iter().any(|b| b == file.sig_text(k))
                    && file.sig_text(k + 1) == "{"
                {
                    points.push((
                        i,
                        format!(
                            "`for ... in {}` iterates a hash-typed binding",
                            file.sig_text(k)
                        ),
                    ));
                }
            }
        }
    }
    points
}

/// Resolves the binding name a `HashMap`/`HashSet` type mention at
/// significant-token index `i` belongs to: `name: [&mut] [path::]Hash*`
/// (let bindings, fn params, struct fields, closure params) or
/// `name = Hash*::new()`.
fn binding_of_hash_type(file: &SourceFile, i: usize) -> Option<String> {
    // Walk back over the path qualifier (`std :: collections ::`).
    let mut j = i;
    while j >= 2 && file.sig_text(j - 1) == "::" {
        j -= 2;
    }
    // Then over `&`, `mut` and lifetimes to the `:` or `=` introducer.
    let mut k = j;
    while k > 0
        && (matches!(file.sig_text(k - 1), "&" | "mut")
            || file.sig_kind(k - 1) == crate::lexer::TokenKind::Lifetime)
    {
        k -= 1;
    }
    if k >= 2 && matches!(file.sig_text(k - 1), ":" | "=") {
        let name = file.sig_text(k - 2);
        if name
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
        {
            return Some(name.to_string());
        }
    }
    None
}

/// Rule 2: `wall-clock-in-sim` — `Instant` / `SystemTime` anywhere
/// outside `crates/bench` (tests included: simulated time is the only
/// time).
fn wall_clock_in_sim(file: &SourceFile, role: FileRole, out: &mut Vec<Finding>) {
    if role.clock_sanctioned {
        return;
    }
    for i in 0..file.sig.len() {
        let text = file.sig_text(i);
        if text == "Instant" || text == "SystemTime" {
            push(
                out,
                file,
                RuleId::WallClockInSim,
                file.sig_line(i),
                format!(
                    "`{text}` outside crates/bench: wall-clock reads break replayability; \
                     simulated time must come from the event queue"
                ),
            );
        }
    }
}

/// Rule 3: `ambient-rng` — entropy-seeded randomness anywhere. All
/// randomness must flow from `decorrelate_seed(seed, index)`.
fn ambient_rng(file: &SourceFile, out: &mut Vec<Finding>) {
    for i in 0..file.sig.len() {
        let text = file.sig_text(i);
        if AMBIENT_RNG_IDENTS.contains(&text) {
            push(
                out,
                file,
                RuleId::AmbientRng,
                file.sig_line(i),
                format!(
                    "`{text}` draws ambient entropy: derive all randomness from \
                     `decorrelate_seed` so runs replay bit-identically"
                ),
            );
        }
    }
}

/// Rule 4: `panic-in-library` — `.unwrap()`, `.expect(` and `panic!` in
/// non-test library code. Ratcheted: the baseline count may only fall.
fn panic_in_library(file: &SourceFile, role: FileRole, out: &mut Vec<Finding>) {
    if !role.library {
        return;
    }
    let n = file.sig.len();
    for i in 0..n {
        if file.sig_in_test(i) {
            continue;
        }
        let text = file.sig_text(i);
        let hit = match text {
            "unwrap" | "expect" => {
                i >= 1 && file.sig_text(i - 1) == "." && i + 1 < n && file.sig_text(i + 1) == "("
            }
            "panic" => i + 1 < n && file.sig_text(i + 1) == "!",
            _ => false,
        };
        if hit {
            push(
                out,
                file,
                RuleId::PanicInLibrary,
                file.sig_line(i),
                format!("`{text}` in library code: prefer a typed error on user-reachable paths"),
            );
        }
    }
}

/// Rule 5: `unchecked-cast` — `as` numeric casts on accounting/carbon
/// paths. Ratcheted: the baseline count may only fall.
fn unchecked_cast(file: &SourceFile, role: FileRole, out: &mut Vec<Finding>) {
    if !role.cast_audited {
        return;
    }
    let n = file.sig.len();
    for i in 0..n {
        if file.sig_text(i) != "as" || i + 1 >= n || !is_numeric_type(file.sig_text(i + 1)) {
            continue;
        }
        if file.sig_in_test(i) {
            continue;
        }
        push(
            out,
            file,
            RuleId::UncheckedCast,
            file.sig_line(i),
            format!(
                "`as {}` on an accounting path: silent truncation/rounding; prefer `From`/\
                 `try_from` or a checked helper",
                file.sig_text(i + 1)
            ),
        );
    }
}

/// Rule: `untyped-quantity` — bare-`f64` public params and fields on
/// accounting paths. Ratcheted: migrate to `junkyard_carbon::units`
/// newtypes to burn the count down.
fn untyped_quantity(
    file: &SourceFile,
    parsed: &ParsedFile,
    role: FileRole,
    out: &mut Vec<Finding>,
) {
    if !role.cast_audited || role.units_boundary {
        return;
    }
    for s in &parsed.structs {
        if !s.is_pub || file.sig_in_test(s.at) {
            continue;
        }
        for field in &s.fields {
            if field.is_bare_f64() {
                push(
                    out,
                    file,
                    RuleId::UntypedQuantity,
                    field.line,
                    format!(
                        "field `{}::{}` is a bare f64 on an accounting path: carry a \
                         `junkyard_carbon::units` newtype",
                        s.name, field.name
                    ),
                );
            }
        }
    }
    for f in &parsed.fns {
        if !f.is_pub() || file.sig_in_test(f.at) {
            continue;
        }
        for param in &f.params {
            if param.is_bare_f64() {
                push(
                    out,
                    file,
                    RuleId::UntypedQuantity,
                    param.line,
                    format!(
                        "param `{}` of pub fn `{}` is a bare f64 on an accounting path: carry a \
                         `junkyard_carbon::units` newtype",
                        param.name,
                        f.qualified()
                    ),
                );
            }
        }
    }
}

/// A numeric field of a `/// lint: conserved` struct.
#[derive(Debug, Clone)]
pub struct ConservedField {
    /// The struct's name.
    pub strukt: String,
    /// The field's name.
    pub field: String,
    /// Defining file (workspace-relative).
    pub path: String,
    /// 1-based line of the field.
    pub line: u32,
}

/// Rule 6, collection half: finds structs doc-marked `lint: conserved`
/// and lists their numeric fields. The engine checks each against the
/// ident corpus of `tests/` and reports the unreferenced ones.
#[must_use]
pub fn conserved_fields(file: &SourceFile) -> Vec<ConservedField> {
    use crate::lexer::TokenKind;
    let mut fields = Vec::new();
    for (t, token) in file.tokens.iter().enumerate() {
        if !matches!(token.kind, TokenKind::LineComment) {
            continue;
        }
        if !token.text(&file.text).contains("lint: conserved") {
            continue;
        }
        // Find the `struct` keyword among the next significant tokens
        // (doc lines and derive attributes sit in between).
        let first_sig = file.sig.partition_point(|&s| s < t);
        let mut j = first_sig;
        let limit = (first_sig + 64).min(file.sig.len());
        while j < limit && file.sig_text(j) != "struct" {
            j += 1;
        }
        if j + 2 >= file.sig.len() || file.sig_text(j) != "struct" {
            continue;
        }
        let strukt = file.sig_text(j + 1).to_string();
        if file.sig_text(j + 2) != "{" {
            continue; // tuple/unit struct: nothing named to audit
        }
        fields.extend(struct_numeric_fields(file, &strukt, j + 2));
    }
    fields
}

/// Parses `name: Type` fields at brace depth 1 from the struct's opening
/// brace (significant index `open`), returning the numeric-typed ones.
fn struct_numeric_fields(file: &SourceFile, strukt: &str, open: usize) -> Vec<ConservedField> {
    let n = file.sig.len();
    let mut fields = Vec::new();
    let mut depth = 0usize;
    let mut i = open;
    while i < n {
        match file.sig_text(i) {
            "{" | "(" | "[" | "<" => depth += 1,
            "}" | ")" | "]" | ">" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
            }
            ":" if depth == 1 && i >= 1 && i + 1 < n => {
                let name = file.sig_text(i - 1);
                // `::` lexes as one `::` token, so a lone `:` at depth 1
                // is a field separator; the type's first ident decides.
                let mut k = i + 1;
                while k < n
                    && (matches!(file.sig_text(k), "&" | "mut")
                        || file.sig_kind(k) == crate::lexer::TokenKind::Lifetime)
                {
                    k += 1;
                }
                if k < n
                    && is_numeric_type(file.sig_text(k))
                    && name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_alphabetic() || c == '_')
                {
                    fields.push(ConservedField {
                        strukt: strukt.to_string(),
                        field: name.to_string(),
                        path: file.rel_path.clone(),
                        line: file.sig_line(i - 1),
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }
    fields
}
