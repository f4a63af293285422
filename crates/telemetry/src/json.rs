//! Minimal JSON document builder.
//!
//! The workspace depends on nothing outside this repository, so the
//! report writer carries its own JSON — the (tiny) subset we need:
//! building a tree of values, rendering it as pretty-printed
//! deterministic JSON text, and parsing it back ([`Json::parse`]) so
//! the trace self-checks can round-trip the documents we emit.

use std::fmt;

/// A JSON value. Object keys keep insertion order so reports render
/// deterministically.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Finite floats render as-is; NaN and infinities render as `null`
    /// (JSON has no encoding for them).
    F64(f64),
    U64(u64),
    I64(i64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for objects from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Parse a JSON document. Integers without fraction/exponent become
    /// [`Json::U64`]/[`Json::I64`]; all other numbers become
    /// [`Json::F64`]. Errors carry the byte offset of the problem. A
    /// document nested more than 64 arrays and objects deep is an error,
    /// so no input can overflow the parser's stack.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.b.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Render with 2-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Render on one line with no whitespace between tokens: the framing
    /// of a line-delimited protocol such as `msc serve`'s replies.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None);
        out
    }

    /// The value under `key`, when this is an object that holds one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The text of a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An unsigned integer; any other value, other numbers included,
    /// gives `None`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// Any number, as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// `depth` is the indentation level of the pretty form, or `None`
    /// for the one-line form.
    fn render(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::F64(v) => {
                if v.is_finite() {
                    // Rust's shortest-roundtrip formatting is valid JSON
                    // except that it can omit the fraction ("1"), which is
                    // still a legal JSON number.
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => render_seq(out, depth, ['[', ']'], items.iter().map(|v| (None, v))),
            Json::Obj(pairs) => render_seq(
                out,
                depth,
                ['{', '}'],
                pairs.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.render(&mut s, Some(0));
        f.write_str(&s)
    }
}

/// An array's items or an object's members between `brackets`: in the
/// pretty form one per line at `depth + 1`, in the one-line form
/// separated by bare commas. An empty sequence is its brackets alone.
fn render_seq<'a>(
    out: &mut String,
    depth: Option<usize>,
    brackets: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    out.push(brackets[0]);
    let mut empty = true;
    for (key, v) in items {
        if !empty {
            out.push(',');
        }
        empty = false;
        if let Some(d) = depth {
            out.push('\n');
            indent(out, d + 1);
        }
        if let Some(k) = key {
            escape_into(k, out);
            out.push_str(if depth.is_some() { ": " } else { ":" });
        }
        v.render(out, depth.map(|d| d + 1));
    }
    if let (Some(d), false) = (depth, empty) {
        out.push('\n');
        indent(out, d);
    }
    out.push(brackets[1]);
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// documents this workspace writes nest 7 deep at most.
const MAX_DEPTH: usize = 64;

/// Recursive-descent parser over the document bytes.
struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .b
            .get(self.pos)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// The value at the cursor, inside `depth` open arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value(depth)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.b[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 near byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let e = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| "bad \\u escape".to_string())?,
                                16,
                            )
                            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // writer; map lone surrogates to U+FFFD.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        c => {
                            return Err(format!(
                                "unknown escape '\\{}' at byte {}",
                                c as char, self.pos
                            ))
                        }
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).unwrap();
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::U64(42).to_string(), "42");
        assert_eq!(Json::I64(-7).to_string(), "-7");
        assert_eq!(Json::F64(1.5).to_string(), "1.5");
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn string_escaping() {
        assert_eq!(Json::str("a\"b\\c\nd").to_string(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Json::str("\u{1}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn nested_structure_renders() {
        let v = Json::obj(vec![
            ("name", Json::str("run")),
            ("ranks", Json::Arr(vec![Json::U64(0), Json::U64(1)])),
            ("empty_obj", Json::Obj(vec![])),
            ("empty_arr", Json::Arr(vec![])),
        ]);
        let s = v.pretty();
        assert!(s.contains("\"name\": \"run\""));
        assert!(s.contains("\"empty_obj\": {}"));
        assert!(s.contains("\"empty_arr\": []"));
        // braces balance
        assert_eq!(s.matches('{').count(), s.matches('}').count(),);
        assert_eq!(s.matches('[').count(), s.matches(']').count());
        assert!(s.ends_with('\n'));
    }

    #[test]
    fn compact_form_and_accessors() {
        let v = Json::obj(vec![
            ("a", Json::Arr(vec![Json::U64(1), Json::Obj(vec![])])),
            ("b", Json::obj(vec![("c", Json::str("x y"))])),
            ("d", Json::Arr(vec![])),
            ("e", Json::I64(-2)),
        ]);
        assert_eq!(v.compact(), r#"{"a":[1,{}],"b":{"c":"x y"},"d":[],"e":-2}"#);
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": [\n    1,\n    {}\n  ],\n  \"b\": {\n    \"c\": \"x y\"\n  },\n  \"d\": [],\n  \"e\": -2\n}\n"
        );
        assert_eq!(Json::parse(&v.compact()).unwrap(), v);
        let c = v.get("b").and_then(|b| b.get("c"));
        assert_eq!(c.and_then(Json::as_str), Some("x y"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::U64(3).get("a"), None);
        assert_eq!(v.get("e").and_then(Json::as_u64), None);
        assert_eq!(v.get("e").and_then(Json::as_f64), Some(-2.0));
        assert_eq!(Json::F64(0.5).as_u64(), None);
        assert_eq!(Json::U64(7).as_f64(), Some(7.0));
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = Json::obj(vec![
            ("name", Json::str("run \"x\"\n")),
            ("pi", Json::F64(3.25)),
            ("n", Json::U64(42)),
            ("neg", Json::I64(-7)),
            ("flag", Json::Bool(false)),
            ("nothing", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::U64(1), Json::str("two"), Json::Arr(vec![])]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn parse_number_classes() {
        assert_eq!(Json::parse("42").unwrap(), Json::U64(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::I64(-7));
        assert_eq!(Json::parse("1.5").unwrap(), Json::F64(1.5));
        assert_eq!(Json::parse("2e3").unwrap(), Json::F64(2000.0));
        assert_eq!(Json::parse("-0.25").unwrap(), Json::F64(-0.25));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::U64(u64::MAX)
        );
    }

    #[test]
    fn parse_escapes_and_whitespace() {
        assert_eq!(
            Json::parse("  \"a\\u0041\\n\\\"\"  ").unwrap(),
            Json::str("aA\n\"")
        );
        assert_eq!(
            Json::parse("[ 1 , 2 ]").unwrap(),
            Json::Arr(vec![Json::U64(1), Json::U64(2)])
        );
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "tru", "\"open", "1 2", "{\"a\":}", "[,]", "nul", "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.starts_with("nesting deeper than 64"), "{err}");
        // hostile depths return an error on an ordinary thread's stack
        let deep =
            std::thread::spawn(|| ["[", "{\"a\":"].map(|open| Json::parse(&open.repeat(10_000))))
                .join()
                .expect("parser thread");
        for res in deep {
            assert!(res.unwrap_err().starts_with("nesting deeper than 64"));
        }
    }
}
