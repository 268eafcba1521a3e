//! Per-file analysis context: the lexed token stream plus everything the
//! rules need to read it correctly — which tokens are *code* (not trivia),
//! which byte ranges are test-only (`#[cfg(test)]` / `#[test]` items),
//! and the parsed `// lint:allow(rule): reason` suppressions.

use crate::lexer::{lex, Token, TokenKind};

/// An inline suppression comment: `// lint:allow(rule-name): reason`.
///
/// A suppression applies to findings of `rule` on its own line (trailing
/// comment) or on the first code line after the comment block
/// (comment-above style — the reason may wrap onto continuation comment
/// lines). The reason is mandatory; a missing or empty reason makes the
/// suppression malformed — it suppresses nothing and is itself reported.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// 1-based line of the comment.
    pub line: u32,
    /// 1-based line of the first significant token after the comment —
    /// the code line a comment-above suppression covers.
    pub applies_line: u32,
    /// The rule name inside the parentheses.
    pub rule: String,
    /// The justification after the closing `):`, trimmed.
    pub reason: String,
}

/// A malformed suppression: the marker was present but unusable.
#[derive(Debug, Clone)]
pub struct MalformedSuppression {
    /// 1-based line of the comment.
    pub line: u32,
    /// What is wrong with it.
    pub problem: String,
}

/// One lexed source file, ready for rule matching.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, forward slashes.
    pub rel_path: String,
    /// The file contents.
    pub text: String,
    /// The full lossless token stream.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of significant (non-trivia) tokens.
    pub sig: Vec<usize>,
    /// Byte ranges covered by `#[cfg(test)]` / `#[test]` items.
    pub test_ranges: Vec<(usize, usize)>,
    /// Well-formed suppressions found in comments.
    pub suppressions: Vec<Suppression>,
    /// Malformed suppression markers (reported as findings).
    pub malformed: Vec<MalformedSuppression>,
    /// Whether the whole file is test code (under `tests/`, or a
    /// `testutil.rs` module included behind `#[cfg(test)]`).
    pub whole_file_test: bool,
}

impl SourceFile {
    /// Lexes `text` and computes the derived context.
    #[must_use]
    pub fn new(rel_path: String, text: String, whole_file_test: bool) -> Self {
        let tokens = lex(&text);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .map(|(i, _)| i)
            .collect();
        let test_ranges = find_test_ranges(&text, &tokens, &sig);
        let (suppressions, malformed) = parse_suppressions(&text, &tokens);
        Self {
            rel_path,
            text,
            tokens,
            sig,
            test_ranges,
            suppressions,
            malformed,
            whole_file_test,
        }
    }

    /// The text of the `i`-th *significant* token.
    #[must_use]
    pub fn sig_text(&self, i: usize) -> &str {
        self.tokens[self.sig[i]].text(&self.text)
    }

    /// The kind of the `i`-th significant token.
    #[must_use]
    pub fn sig_kind(&self, i: usize) -> TokenKind {
        self.tokens[self.sig[i]].kind
    }

    /// The 1-based line of the `i`-th significant token.
    #[must_use]
    pub fn sig_line(&self, i: usize) -> u32 {
        self.tokens[self.sig[i]].line
    }

    /// Whether the `i`-th significant token is inside test-only code.
    #[must_use]
    pub fn sig_in_test(&self, i: usize) -> bool {
        if self.whole_file_test {
            return true;
        }
        let start = self.tokens[self.sig[i]].start;
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| start >= lo && start < hi)
    }

    /// The number of lines holding non-test code: blank lines, comment
    /// lines and test code do not count.
    #[must_use]
    pub fn code_lines(&self) -> usize {
        let mut lines: Vec<u32> = (0..self.sig.len())
            .filter(|&i| !self.sig_in_test(i))
            .map(|i| self.sig_line(i))
            .collect();
        lines.dedup();
        lines.len()
    }

    /// Whether the `i`-th significant token sits inside a `use`
    /// declaration. Scans back to the previous `;` (statement boundary);
    /// braces do *not* stop the scan because `use a::{B, C};` groups put
    /// the imported names inside them.
    #[must_use]
    pub fn sig_in_use_decl(&self, i: usize) -> bool {
        for back in (0..i).rev() {
            match self.sig_text(back) {
                ";" => return false,
                "use" => return true,
                _ => {}
            }
            if i - back > 64 {
                return false;
            }
        }
        false
    }
}

/// Finds the byte ranges of items annotated `#[test]`, `#[cfg(test)]` or
/// a `cfg` combinator mentioning `test` (conservatively treating
/// `cfg(any(test, ...))` as test code; `cfg(not(test))` is *not* test
/// code). The range runs from the attribute's `#` to the item's closing
/// `}` (or its `;` for brace-less declarations).
fn find_test_ranges(text: &str, tokens: &[Token], sig: &[usize]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let sig_text = |i: usize| tokens[sig[i]].text(text);
    let mut i = 0usize;
    let mut pending_start: Option<usize> = None;
    while i < sig.len() {
        if sig_text(i) == "#" && i + 1 < sig.len() && sig_text(i + 1) == "[" {
            let attr_start = tokens[sig[i]].start;
            // Collect the attribute's identifiers up to the matching `]`.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut idents: Vec<&str> = Vec::new();
            while j < sig.len() {
                match sig_text(j) {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    other => {
                        if tokens[sig[j]].kind == TokenKind::Ident {
                            idents.push(other);
                        }
                    }
                }
                j += 1;
            }
            let gates_test = idents.first() == Some(&"test")
                || (idents.contains(&"cfg")
                    && idents.contains(&"test")
                    && !idents.contains(&"not"));
            if gates_test && pending_start.is_none() {
                pending_start = Some(attr_start);
            }
            i = j + 1;
            continue;
        }
        if let Some(start) = pending_start {
            // The annotated item starts here: run to its `;` (brace-less
            // declaration) or the `}` matching its first `{`.
            let mut depth = 0usize;
            let mut j = i;
            let end = loop {
                if j >= sig.len() {
                    break text.len();
                }
                match sig_text(j) {
                    ";" if depth == 0 => break tokens[sig[j]].end,
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break tokens[sig[j]].end;
                        }
                    }
                    _ => {}
                }
                j += 1;
            };
            ranges.push((start, end));
            pending_start = None;
            i = j + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Parses every `lint:allow` marker out of the file's comments. The
/// lexer guarantees markers inside string literals are never seen here.
fn parse_suppressions(
    text: &str,
    tokens: &[Token],
) -> (Vec<Suppression>, Vec<MalformedSuppression>) {
    const MARKER: &str = "lint:allow";
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    for (idx, token) in tokens.iter().enumerate() {
        if !matches!(token.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        // The code line this comment governs in comment-above style: the
        // line of the next significant token, skipping continuation
        // comment lines and whitespace.
        let applies_line = tokens[idx + 1..]
            .iter()
            .find(|t| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .map_or(token.line, |t| t.line);
        // The marker must open the comment (after the `//`/`/*` fence):
        // prose *mentioning* `lint:allow(...)` — like these docs — is not
        // a suppression.
        let comment = token
            .text(text)
            .trim_start_matches(['/', '*', '!'])
            .trim_start();
        let Some(rest) = comment.strip_prefix(MARKER) else {
            continue;
        };
        let Some(open) = rest.strip_prefix('(') else {
            bad.push(MalformedSuppression {
                line: token.line,
                problem: "expected `lint:allow(rule): reason`".to_string(),
            });
            continue;
        };
        let Some(close) = open.find(')') else {
            bad.push(MalformedSuppression {
                line: token.line,
                problem: "unclosed `(` in `lint:allow(rule): reason`".to_string(),
            });
            continue;
        };
        let rule = open[..close].trim().to_string();
        let tail = &open[close + 1..];
        let reason = tail
            .strip_prefix(':')
            .map(|r| r.trim_end_matches("*/").trim().to_string())
            .unwrap_or_default();
        if rule.is_empty() {
            bad.push(MalformedSuppression {
                line: token.line,
                problem: "empty rule name in `lint:allow(...)`".to_string(),
            });
        } else if reason.is_empty() {
            bad.push(MalformedSuppression {
                line: token.line,
                problem: format!("suppression of `{rule}` carries no reason — `lint:allow({rule}): <why it is safe>` is required"),
            });
        } else {
            ok.push(Suppression {
                line: token.line,
                applies_line,
                rule,
                reason,
            });
        }
    }
    (ok, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("crates/x/src/lib.rs".to_string(), src.to_string(), false)
    }

    #[test]
    fn cfg_test_mod_is_a_test_range() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let f = file(src);
        let in_test: Vec<(String, bool)> = (0..f.sig.len())
            .filter(|&i| f.sig_kind(i) == crate::lexer::TokenKind::Ident)
            .map(|i| (f.sig_text(i).to_string(), f.sig_in_test(i)))
            .collect();
        let lookup = |name: &str| {
            in_test
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, t)| *t)
                .unwrap_or(false)
        };
        assert!(!lookup("a"));
        assert!(lookup("b"));
        assert!(!lookup("c"));
    }

    #[test]
    fn code_lines_skip_blanks_comments_and_tests() {
        let src = "//! Doc.\n\nfn a() {\n    // note\n    let x = 1; let y = x;\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn b() {}\n}\n";
        // `fn a() {`, the two-statement line and the closing brace.
        assert_eq!(file(src).code_lines(), 3);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_range() {
        let src = "#[cfg(not(test))]\nfn a() {}\n";
        let f = file(src);
        assert!(f.test_ranges.is_empty());
    }

    #[test]
    fn suppressions_require_a_reason() {
        let src = "\
// lint:allow(panic-in-library): documented invariant\n\
// lint:allow(unchecked-cast)\n\
let s = \"lint:allow(in-a-string): not a comment\";\n";
        let f = file(src);
        assert_eq!(f.suppressions.len(), 1);
        assert_eq!(f.suppressions[0].rule, "panic-in-library");
        assert_eq!(f.malformed.len(), 1);
        assert!(f.malformed[0].problem.contains("no reason"));
    }

    #[test]
    fn use_decl_detection() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u8, u8>) {}\n";
        let f = file(src);
        let hash_positions: Vec<usize> = (0..f.sig.len())
            .filter(|&i| f.sig_text(i) == "HashMap")
            .collect();
        assert_eq!(hash_positions.len(), 2);
        assert!(f.sig_in_use_decl(hash_positions[0]));
        assert!(!f.sig_in_use_decl(hash_positions[1]));
    }
}
