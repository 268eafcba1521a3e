//! Property tests on the suppression parser: random files mix
//! well-formed `// lint:allow(rule): reason` and `/* … */` markers (alone
//! above code, some with continuation comment lines, after code, and
//! before code on one line), malformed markers (an empty rule, no reason,
//! an unclosed `(`, no `(` at all) and decoys (the marker inside string
//! literals and in the middle of comment prose). `SourceFile::new` must
//! return exactly the well-formed markers, in order, with their line,
//! `applies_line`, rule and reason, and one `malformed` entry per bad
//! marker. The vendored proptest only supplies numeric strategies, so each
//! sampled seed expands into one source text through a small
//! deterministic generator.

use junkyard_lint::source::SourceFile;
use proptest::prelude::*;

/// A tiny deterministic PRNG (splitmix64), as in `lexer_proptest.rs`.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[(self.next() % options.len() as u64) as usize]
    }
}

const RULES: &[&str] = &[
    "panic-in-library",
    "unchecked-cast",
    "untyped-quantity",
    "unreachable-pub",
];

/// Reasons with the characters the parser splits on: `)`, `:` and `(`.
const REASONS: &[&str] = &[
    "documented invariant",
    "checked above (see the caller)",
    "bounded: at most 64 slots",
    "the executable spec",
];

/// A well-formed marker as `SourceFile` should report it:
/// `(line, applies_line, rule, reason)`.
type Expected = (u32, u32, String, String);

struct Builder {
    gen: Gen,
    src: String,
    /// 1-based line being written.
    line: u32,
    ok: Vec<Expected>,
    /// Markers in `ok` still waiting for the code line they apply to.
    pending: Vec<usize>,
    /// Each malformed marker's line and a fragment of its problem.
    bad: Vec<(u32, &'static str)>,
    next_id: usize,
}

impl Builder {
    fn end_line(&mut self) {
        self.src.push('\n');
        self.line += 1;
    }

    /// Code on the current line: every waiting marker applies here.
    fn code(&mut self) {
        for marker in self.pending.drain(..) {
            self.ok[marker].1 = self.line;
        }
        self.next_id += 1;
        let id = self.next_id;
        self.src.push_str(&format!("let v{id} = {id};"));
    }

    /// A well-formed marker in a line or block comment.
    fn marker(&mut self, block: bool) {
        let rule = self.gen.pick(RULES);
        let reason = self.gen.pick(REASONS);
        let pad = self.gen.pick(&["", " ", "  "]);
        let text = if block {
            format!("/*{pad}lint:allow({pad}{rule}{pad}):{pad}{reason} */")
        } else {
            format!("//{pad}lint:allow({pad}{rule}{pad}):{pad}{reason}")
        };
        self.src.push_str(&text);
        // Until code follows, the marker applies to its own line.
        self.pending.push(self.ok.len());
        self.ok
            .push((self.line, self.line, rule.to_string(), reason.to_string()));
    }

    /// A malformed marker in a line or block comment.
    fn malformed(&mut self, block: bool) {
        let rule = self.gen.pick(RULES);
        let reason = self.gen.pick(REASONS);
        let (body, problem) = match self.gen.below(5) {
            0 => (format!("lint:allow( ): {reason}"), "empty rule name"),
            1 => (format!("lint:allow({rule})"), "carries no reason"),
            2 => (format!("lint:allow({rule}):  "), "carries no reason"),
            // No `)` anywhere after the `(`, the reason's included.
            3 => (
                format!("lint:allow({rule}: no closing paren"),
                "unclosed `(`",
            ),
            _ => (
                format!("lint:allow {rule}: {reason}"),
                "expected `lint:allow",
            ),
        };
        let text = if block {
            format!("/* {body} */")
        } else {
            format!("// {body}")
        };
        self.src.push_str(&text);
        self.bad.push((self.line, problem));
    }

    /// Text that mentions a marker without being one.
    fn decoy(&mut self) {
        let rule = self.gen.pick(RULES);
        let reason = self.gen.pick(REASONS);
        match self.gen.below(4) {
            0 => {
                self.code();
                self.src
                    .push_str(&format!(" let s = \"lint:allow({rule}): {reason}\";"));
            }
            1 => {
                self.code();
                self.src
                    .push_str(&format!(" let r = r#\"// lint:allow({rule}): {reason}\"#;"));
            }
            2 => self
                .src
                .push_str(&format!("// see lint:allow({rule}): {reason} below")),
            _ => self
                .src
                .push_str(&format!("/* prose naming lint:allow({rule}) */")),
        }
    }

    fn lines(&mut self) {
        for _ in 0..=self.gen.below(12) {
            match self.gen.below(7) {
                // A marker above code, its reason wrapped onto prose
                // comment lines.
                0 => {
                    let block = self.gen.below(2) == 0;
                    self.marker(block);
                    for _ in 0..self.gen.below(3) {
                        self.end_line();
                        self.src.push_str("// and it continues here");
                    }
                }
                // A marker after code: it applies to the next code line.
                1 => {
                    self.code();
                    self.src.push(' ');
                    let block = self.gen.below(2) == 0;
                    self.marker(block);
                }
                // A block marker before code on its own line.
                2 => {
                    self.marker(true);
                    self.src.push(' ');
                    self.code();
                }
                3 => {
                    if self.gen.below(2) == 0 {
                        self.code();
                        self.src.push(' ');
                    }
                    let block = self.gen.below(2) == 0;
                    self.malformed(block);
                }
                4 => self.decoy(),
                5 => self.code(),
                _ => {}
            }
            self.end_line();
        }
    }
}

fn build(seed: u64) -> Builder {
    let mut builder = Builder {
        gen: Gen(seed),
        src: String::new(),
        line: 1,
        ok: Vec::new(),
        pending: Vec::new(),
        bad: Vec::new(),
        next_id: 0,
    };
    while builder.ok.is_empty() {
        builder.lines();
    }
    builder
}

fn check(seed: u64) {
    let built = build(seed);
    let file = SourceFile::new("crates/x/src/lib.rs".to_string(), built.src.clone(), false);
    let ok: Vec<Expected> = file
        .suppressions
        .iter()
        .map(|s| (s.line, s.applies_line, s.rule.clone(), s.reason.clone()))
        .collect();
    assert_eq!(ok, built.ok, "seed {seed}:\n{}", built.src);
    let lines: Vec<u32> = file.malformed.iter().map(|m| m.line).collect();
    let expected: Vec<u32> = built.bad.iter().map(|&(line, _)| line).collect();
    assert_eq!(lines, expected, "seed {seed}:\n{}", built.src);
    for (found, (line, problem)) in file.malformed.iter().zip(&built.bad) {
        assert!(
            found.problem.contains(problem),
            "seed {seed}, line {line}: {:?} lacks {problem:?}:\n{}",
            found.problem,
            built.src
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Random mixes of markers, bad markers and decoys parse back to
    /// exactly the generated suppressions and malformed entries.
    #[test]
    fn suppressions_recover_generated_markers(seed in 0u64..1_000_000) {
        check(seed);
    }
}
