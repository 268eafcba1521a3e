//! The ratchet baseline: the committed `lint_baseline.json` records, per
//! ratcheted rule, how many legacy findings the workspace is allowed to
//! carry, and how many non-test lines of code (`loc`). The gate fails the
//! moment a count *rises*; counts falling is progress, and the report
//! suggests tightening the file when they do.
//!
//! The parser is a deliberately tiny, zero-dependency JSON-subset reader
//! (one object of string keys mapping to integers or one level of nested
//! object) — exactly the shape this file has, nothing more. It rejects a
//! repeated key at any level: keeping either copy would let a stray
//! duplicate silently loosen or mask a ratchet.

use std::collections::BTreeMap;

/// The parsed baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Allowed finding counts per ratcheted rule name.
    pub ratchets: BTreeMap<String, u64>,
    /// Allowed non-test lines of code across the workspace, if pinned.
    pub loc: Option<u64>,
}

impl Baseline {
    /// Parses `lint_baseline.json` text.
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not the expected JSON shape.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let top = p.object()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        let mut ratchets = BTreeMap::new();
        let mut loc = None;
        for (key, value) in top {
            match (key.as_str(), value) {
                ("schema", Value::Number(_)) => {}
                ("loc", Value::Number(n)) => loc = Some(n),
                ("ratchets", Value::Object(entries)) => {
                    for (rule, count) in entries {
                        match count {
                            Value::Number(n) => {
                                ratchets.insert(rule, n);
                            }
                            Value::Object(_) => {
                                return Err(format!("ratchet `{rule}` must be a number"));
                            }
                        }
                    }
                }
                (other, _) => return Err(format!("unexpected baseline key `{other}`")),
            }
        }
        Ok(Self { ratchets, loc })
    }

    /// Renders the canonical committed form (sorted keys, 2-space
    /// indent, trailing newline).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 1,\n");
        if let Some(loc) = self.loc {
            out.push_str(&format!("  \"loc\": {loc},\n"));
        }
        out.push_str("  \"ratchets\": {\n");
        let last = self.ratchets.len().saturating_sub(1);
        for (i, (rule, count)) in self.ratchets.iter().enumerate() {
            out.push_str(&format!(
                "    \"{rule}\": {count}{}\n",
                if i == last { "" } else { "," }
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// A JSON-subset value: integers and string-keyed objects only.
enum Value {
    Number(u64),
    Object(Vec<(String, Value)>),
}

struct Parser<'s> {
    bytes: &'s [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at offset {}",
                byte as char, self.pos
            ))
        }
    }

    fn object(&mut self) -> Result<Vec<(String, Value)>, String> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(entries);
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.string()?;
            if entries.iter().any(|(seen, _)| *seen == key) {
                return Err(format!("duplicate key `{key}` at offset {at}"));
            }
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(entries);
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.bytes.get(self.pos) {
            Some(b'{') => Ok(Value::Object(self.object()?)),
            Some(b) if b.is_ascii_digit() => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Value::Number)
                    .ok_or_else(|| format!("bad number at offset {start}"))
            }
            _ => Err(format!(
                "expected a number or object at offset {}",
                self.pos
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "non-UTF-8 key".to_string())?
                    .to_string();
                self.pos += 1;
                return Ok(s);
            }
            if b == b'\\' {
                return Err("escapes are not supported in baseline keys".to_string());
            }
            self.pos += 1;
        }
        Err("unterminated string".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_canonical_form() {
        let mut baseline = Baseline::default();
        baseline
            .ratchets
            .insert("panic-in-library".to_string(), 411);
        baseline.ratchets.insert("unchecked-cast".to_string(), 146);
        let text = baseline.render();
        assert_eq!(Baseline::parse(&text).unwrap(), baseline);
        baseline.loc = Some(20_000);
        let text = baseline.render();
        assert_eq!(Baseline::parse(&text).unwrap(), baseline);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Baseline::parse("").is_err());
        assert!(Baseline::parse("{\"ratchets\": [1]}").is_err());
        assert!(Baseline::parse("{\"surprise\": 1}").is_err());
        assert!(Baseline::parse("{\"ratchets\": {\"r\": 1}} tail").is_err());
    }

    #[test]
    fn rejects_a_repeated_key_at_any_level() {
        let nested = r#"{"schema":1,"ratchets":{"panic-in-library":66,"panic-in-library":999}}"#;
        let top = r#"{"schema":1,"ratchets":{"panic-in-library":66},"ratchets":{"panic-in-library":999}}"#;
        for (text, key) in [(nested, "panic-in-library"), (top, "ratchets")] {
            let err = Baseline::parse(text).unwrap_err();
            assert!(err.contains(&format!("duplicate key `{key}`")), "{err}");
        }
    }
}
