//! A minimal recursive-descent JSON parser — just enough to validate
//! the trace files this workspace itself emits (and any other tool
//! output `milo-cli` needs to inspect) without an external crate — the
//! value type it produces, [`JsonValue`], which is also what the
//! experiment and bench records are built from and rendered with
//! [`JsonValue::render`], and [`escape`], the string escaper every JSON
//! writer in the workspace uses.
//!
//! Accepts standard JSON: objects, arrays, strings with escapes
//! (including `\uXXXX` with surrogate pairs), numbers, booleans, null.
//! Duplicate object keys keep the last value on lookup-by-first match
//! semantics of [`JsonValue::get`] (first match wins, consistent with
//! how the emitters in this workspace never produce duplicates).

/// A JSON value: what [`parse`] returns and what [`JsonValue::render`]
/// writes.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Serializes to a compact JSON string. Strings and keys go through
    /// [`escape`]; non-finite numbers, which JSON cannot represent,
    /// render as `null`.
    pub fn render(&self) -> String {
        match self {
            JsonValue::Null => "null".into(),
            JsonValue::Bool(b) => b.to_string(),
            JsonValue::Number(n) if n.is_finite() => format!("{n}"),
            JsonValue::Number(_) => "null".into(),
            JsonValue::String(s) => format!("\"{}\"", escape(s)),
            JsonValue::Array(items) => {
                let inner: Vec<String> = items.iter().map(JsonValue::render).collect();
                format!("[{}]", inner.join(","))
            }
            JsonValue::Object(fields) => {
                let inner: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", escape(k), v.render()))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
}

/// Escapes `s` for use inside a JSON string literal: quotes,
/// backslashes and control characters (`\n`, `\r`, `\t`, else
/// `\uXXXX`). The one escaper the workspace's JSON writers use.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Parses a JSON document.
///
/// # Errors
///
/// A message naming the byte offset and the problem.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos.saturating_sub(1)))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Object(fields)),
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Array(items)),
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair.
                            self.expect(b'\\')?;
                            self.expect(b'u')?;
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("invalid low surrogate".into());
                            }
                            let code =
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(code).ok_or("invalid surrogate pair")?
                        } else {
                            char::from_u32(hi).ok_or("invalid \\u escape")?
                        };
                        out.push(c);
                    }
                    _ => return Err(format!("invalid escape at byte {}", self.pos)),
                },
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos))
                }
                Some(c) => {
                    // Re-assemble UTF-8 multibyte sequences byte-wise.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let len = match c {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            0xF0..=0xF7 => 4,
                            _ => return Err(format!("invalid UTF-8 at byte {}", self.pos)),
                        };
                        let start = self.pos - 1;
                        let end = start + len;
                        if end > self.bytes.len() {
                            return Err("truncated UTF-8 sequence".into());
                        }
                        let s = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self.bump().ok_or("truncated \\u escape")?;
            let d = (c as char).to_digit(16).ok_or("non-hex \\u escape")?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number bytes".to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::Number(42.0));
        assert_eq!(parse("-1.5e3").unwrap(), JsonValue::Number(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a":[1,2,{"b":null}],"c":{"d":"e"}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(doc.get("c").unwrap().get("d").unwrap().as_str(), Some("e"));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let doc = parse(r#""a\n\"b\"\u00e9\ud83d\ude00 ü""#).unwrap();
        assert_eq!(doc.as_str(), Some("a\n\"b\"é😀 ü"));
    }

    #[test]
    fn whitespace_tolerated() {
        let doc = parse("  {\n\t\"k\" :  [ 1 , 2 ]\r}  ").unwrap();
        assert_eq!(doc.get("k").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "1.2.3", "\"\\x\"",
            "\"unterminated", "{} trailing", "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn render_writes_nested_values_that_parse_back() {
        let v = JsonValue::Object(vec![
            ("name".into(), JsonValue::String("MiLo \"s1\"".into())),
            ("ppl".into(), JsonValue::Number(4.03)),
            ("tasks".into(), JsonValue::Array(vec![JsonValue::Number(1.0), JsonValue::Null])),
            ("ok".into(), JsonValue::Bool(true)),
        ]);
        let text = v.render();
        assert_eq!(text, r#"{"name":"MiLo \"s1\"","ppl":4.03,"tasks":[1,null],"ok":true}"#);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn render_escapes_control_chars_and_parses_back() {
        let v = JsonValue::String("a\nb\u{1}".into());
        assert_eq!(v.render(), r#""a\nb\u0001""#);
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn render_writes_non_finite_numbers_as_null() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let v = JsonValue::Array(vec![JsonValue::Number(n)]);
            assert_eq!(parse(&v.render()).unwrap(), JsonValue::Array(vec![JsonValue::Null]));
        }
    }

    #[test]
    fn roundtrips_bench_baseline_shape() {
        let doc = parse(
            r#"{"baseline":{"suite":"BENCH","results":[{"name":"x","median_ns":1.5}]},"quick":false}"#,
        )
        .unwrap();
        let results = doc.get("baseline").unwrap().get("results").unwrap();
        assert_eq!(
            results.as_array().unwrap()[0].get("median_ns").unwrap().as_number(),
            Some(1.5)
        );
    }
}
