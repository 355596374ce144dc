//! The workspace's one minimal, dependency-free JSON reader and its
//! matching writers.
//!
//! Grown out of the edit-trace format (see [`crate::parse_trace`]) and
//! promoted to a public module so other consumers of small JSON request
//! bodies — notably the `msrnet-service` session server's `batch`
//! payloads — parse through one implementation. It is a strict subset
//! reader: numbers, strings (with the mandatory escapes, `\/` and
//! `\uXXXX`), booleans, `null`, arrays and objects; duplicate keys are
//! preserved in order. A `\uXXXX` escape must name a Unicode scalar
//! value: surrogates (and so surrogate pairs) are rejected, since the
//! writers emit non-ASCII text as raw UTF-8.
//!
//! Report writers format strings with [`json_str`] and numbers with
//! [`json_num`], so what they emit reads back through [`parse_json`].
//!
//! # Examples
//!
//! ```
//! use msrnet_incremental::json::{parse_json, Json};
//!
//! let v = parse_json("{\"threads\": 2, \"nets\": [\"a\", \"b\"]}")?;
//! let Json::Obj(fields) = &v else { unreachable!() };
//! assert!(matches!(Json::get(fields, "threads"), Some(Json::Num(n)) if *n == 2.0));
//! # Ok::<(), msrnet_incremental::json::JsonError>(())
//! ```

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A number (JSON has only doubles).
    Num(f64),
    /// A string, escapes decoded.
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in source order (duplicates preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The first field named `key` in an object's field list.
    pub fn get<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A parse failure, with the byte offset where it was detected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input at which the problem was found.
    pub at: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON value spanning the whole input (trailing garbage is
/// an error).
///
/// # Errors
///
/// Returns a [`JsonError`] with a byte offset on any structural
/// problem; the parser never panics, whatever the input.
pub fn parse_json(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let root = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing input after the root value"));
    }
    Ok(root)
}

/// A JSON string literal: quoted, with `"`, `\\`, `\n`, `\r` and `\t`
/// escaped and every other control character written as `\u00XX`.
/// Non-ASCII text is written as raw UTF-8.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A finite float as a JSON number (Rust's shortest round-trip form),
/// a non-finite one as `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.numeral(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected \"{word}\"")))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let code = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("\\u escape needs four hex digits"))?;
                            let ch = char::from_u32(code).ok_or_else(|| {
                                self.err(format!("\\u{code:04x} is a surrogate, not a character"))
                            })?;
                            out.push(ch);
                            self.pos += 4;
                        }
                        other => {
                            return Err(
                                self.err(format!("unsupported escape '\\{}'", other as char))
                            )
                        }
                    }
                }
                Some(_) => {
                    // Advance over one UTF-8 scalar (input is &str, so
                    // boundaries are well-formed).
                    let rest = &self.bytes[self.pos..];
                    // msrnet-allow: panic parse input arrived as &str, so a suffix at a scalar boundary is valid UTF-8
                    let s = std::str::from_utf8(rest).expect("input came from &str");
                    // msrnet-allow: panic the Some(_) arm guarantees at least one byte remains
                    let ch = s.chars().next().expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn numeral(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        // msrnet-allow: panic the numeral scanner only consumes ASCII bytes
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            at: start,
            message: format!("invalid number \"{text}\""),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_structurally() {
        let v = parse_json(
            "{\"a\": [1, -2.5, 1e3], \"b\": \"x\\ny\", \"c\": true, \"d\": null}",
        )
        .unwrap();
        let Json::Obj(fields) = v else { panic!("object") };
        assert_eq!(
            Json::get(&fields, "a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2.5),
                Json::Num(1000.0)
            ]))
        );
        assert_eq!(Json::get(&fields, "b"), Some(&Json::Str("x\ny".into())));
        assert_eq!(Json::get(&fields, "c"), Some(&Json::Bool(true)));
        assert_eq!(Json::get(&fields, "d"), Some(&Json::Null));
        assert_eq!(Json::get(&fields, "missing"), None);
    }

    #[test]
    fn structural_errors_carry_positions() {
        for (input, needle) in [
            ("", "unexpected end"),
            ("[1,", "unexpected end"),
            ("{\"a\" 1}", "expected ':'"),
            ("[1 2]", "expected ','"),
            ("\"abc", "unterminated string"),
            ("truth", "expected \"true\""),
            ("1e", "invalid number"),
            ("{} trailing", "trailing input"),
            ("\"\\x41\"", "unsupported escape"),
            ("\"\\u04\"", "four hex digits"),
            ("\"\\u+041\"", "four hex digits"),
            ("\"\\ud83d\\ude00\"", "surrogate"),
        ] {
            let err = parse_json(input).unwrap_err();
            assert!(
                err.message.contains(needle),
                "for {input:?}: got {:?}, wanted {needle:?}",
                err.message
            );
        }
    }

    #[test]
    fn writers_round_trip_through_the_reader() {
        let mut text: String = (0u8..0x20).map(char::from).collect();
        text.push_str("\"\\/ plain ÷ µm ✓ 𝄞");
        let quoted = json_str(&text);
        assert!(quoted.starts_with("\"\\u0000\\u0001"), "{quoted}");
        assert!(quoted.contains("\\t\\n\\u000b\\u000c\\r"), "{quoted}");
        assert_eq!(parse_json(&quoted), Ok(Json::Str(text)));
        assert_eq!(parse_json("\"\\u00C4\\u00e4\""), Ok(Json::Str("Ää".into())));
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(parse_json(&json_num(0.1 + 0.2)), Ok(Json::Num(0.1 + 0.2)));
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(json_num(x), "null");
        }
    }

    #[test]
    fn duplicate_keys_are_preserved_and_get_returns_the_first() {
        let v = parse_json("{\"k\": 1, \"k\": 2}").unwrap();
        let Json::Obj(fields) = v else { panic!("object") };
        assert_eq!(fields.len(), 2);
        assert_eq!(Json::get(&fields, "k"), Some(&Json::Num(1.0)));
    }
}
