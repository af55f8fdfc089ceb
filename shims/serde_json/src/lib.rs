//! Minimal in-repo stand-in for `serde_json`.
//!
//! Renders the `serde` shim's [`serde::Value`] tree as JSON text
//! (`to_string`, `to_string_pretty`) and parses JSON text back into values
//! ([`from_str`], [`value_from_str`]) so snapshots and logged results can be
//! read back.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Serialisation / parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Deserialises a value from JSON text.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or when the parsed tree does not
/// match `T`'s expected shape.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = value_from_str(text)?;
    T::from_value(&value).map_err(|e| Error(e.to_string()))
}

/// Parses JSON text into the `serde` shim's [`Value`] tree.
///
/// Numbers without a fraction or exponent parse as `Int` when negative and
/// `UInt` otherwise (falling back to `Float` when they overflow 64 bits);
/// `null` parses as [`Value::Null`], which numeric targets read back as NaN —
/// mirroring the writer, which renders non-finite floats as `null`.
///
/// # Errors
///
/// Returns [`Error`] describing the first malformed construct.
pub fn value_from_str(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut parser = Parser { text, bytes, pos: 0 };
    parser.skip_whitespace();
    let value = parser.parse_value(0)?;
    parser.skip_whitespace();
    if parser.pos != bytes.len() {
        return Err(parser.error("trailing characters after the JSON document"));
    }
    Ok(value)
}

/// Maximum nesting depth accepted by the parser, guarding the recursive
/// descent against stack exhaustion on adversarial input.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> Error {
        Error(format!("{message} (at byte {})", self.pos))
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.text[self.pos..].starts_with(literal) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.error("JSON nesting too deep"));
        }
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(depth),
            Some(b'{') => self.parse_object(depth),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_whitespace();
            let at = self.pos;
            let key = self.parse_string()?;
            if entries.iter().any(|(seen, _)| *seen == key) {
                return Err(Error(format!("duplicate key '{key}' in object (at byte {at})")));
            }
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value(depth + 1)?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let mut chars = rest.char_indices();
            let (_, c) = chars.next().ok_or_else(|| self.error("unterminated string"))?;
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let (_, escape) = self.text[self.pos..]
                        .char_indices()
                        .next()
                        .ok_or_else(|| self.error("unterminated escape sequence"))?;
                    self.pos += escape.len_utf8();
                    match escape {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => out.push(self.parse_unicode_escape()?),
                        other => {
                            return Err(self.error(&format!("unknown escape '\\{other}'")));
                        }
                    }
                }
                c => out.push(c),
            }
        }
    }

    /// The character of a `\uXXXX` escape whose `\u` was just consumed,
    /// joining a UTF-16 surrogate pair written as two escapes. A lone or
    /// unpaired surrogate is an error, as in serde_json.
    fn parse_unicode_escape(&mut self) -> Result<char, Error> {
        let start = self.pos - 2;
        let high = self.hex4()?;
        let code = match high {
            0xD800..=0xDBFF => {
                if !self.eat_literal("\\u") {
                    return Err(Error(format!("lone leading surrogate (at byte {start})")));
                }
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(Error(format!("unpaired leading surrogate (at byte {start})")));
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => {
                return Err(Error(format!("lone trailing surrogate (at byte {start})")));
            }
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid \\u escape"))
    }

    /// Exactly four hex digits, as a `\u` escape requires.
    fn hex4(&mut self) -> Result<u32, Error> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|digits| digits.bytes().all(|d| d.is_ascii_hexdigit()))
            .and_then(|digits| u32::from_str_radix(digits, 16).ok())
            .ok_or_else(|| self.error("a \\u escape needs four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(byte) = self.peek() {
            match byte {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let literal = &self.text[start..self.pos];
        if !fractional {
            if let Some(rest) = literal.strip_prefix('-') {
                if rest.parse::<u64>().is_ok() {
                    if let Ok(i) = literal.parse::<i64>() {
                        return Ok(Value::Int(i));
                    }
                }
            } else if let Ok(u) = literal.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        // `parse` saturates a literal past `f64::MAX` to ±∞; serde_json
        // refuses it, and so does this parser.
        match literal.parse::<f64>() {
            Ok(float) if float.is_finite() => Ok(Value::Float(float)),
            Ok(_) => Err(Error(format!("number out of range '{literal}' (at byte {start})"))),
            Err(_) => Err(Error(format!("malformed number '{literal}' (at byte {start})"))),
        }
    }
}

/// Serialises a value as compact JSON.
///
/// # Errors
///
/// Never fails in this shim; the `Result` mirrors the real crate's API.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), None, 0, &mut out);
    Ok(out)
}

/// Serialises a value as pretty-printed JSON (two-space indentation).
///
/// # Errors
///
/// Never fails in this shim; the `Result` mirrors the real crate's API.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), Some(2), 0, &mut out);
    Ok(out)
}

fn write_value(value: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // `{}` prints the shortest representation that round-trips;
                // force a decimal point so the output stays a JSON number
                // distinguishable from an integer.
                let text = f.to_string();
                out.push_str(&text);
                if !text.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => write_sequence(
            items.iter(),
            '[',
            ']',
            indent,
            depth,
            out,
            |item, out, indent, depth| {
                write_value(item, indent, depth, out);
            },
        ),
        Value::Object(entries) => {
            write_sequence(
                entries.iter(),
                '{',
                '}',
                indent,
                depth,
                out,
                |(key, item), out, indent, depth| {
                    write_escaped(key, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(item, indent, depth, out);
                },
            );
        }
    }
}

fn write_sequence<I, T>(
    items: I,
    open: char,
    close: char,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
    mut write_item: impl FnMut(T, &mut String, Option<usize>, usize),
) where
    I: ExactSizeIterator<Item = T>,
{
    out.push(open);
    let len = items.len();
    for (i, item) in items.enumerate() {
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        write_item(item, out, indent, depth + 1);
        if i + 1 < len {
            out.push(',');
        }
    }
    if len > 0 {
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * depth));
        }
    }
    out.push(close);
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_roundtrip_simple_values() {
        assert_eq!(to_string(&vec![1, 2, 3]).unwrap(), "[1,2,3]");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string("a\"b").unwrap(), "\"a\\\"b\"");
        let pretty = to_string_pretty(&vec![1]).unwrap();
        assert_eq!(pretty, "[\n  1\n]");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let value = Value::Object(vec![
            ("name".to_string(), Value::Str("cam \"7\"\n".to_string())),
            ("count".to_string(), Value::UInt(3)),
            ("offset".to_string(), Value::Int(-12)),
            ("ratio".to_string(), Value::Float(0.1)),
            ("whole".to_string(), Value::Float(2.0)),
            ("flag".to_string(), Value::Bool(true)),
            ("nothing".to_string(), Value::Null),
            ("nested".to_string(), Value::Array(vec![Value::Array(vec![]), Value::Object(vec![])])),
        ]);
        for text in [to_string(&value).unwrap(), to_string_pretty(&value).unwrap()] {
            let reparsed = value_from_str(&text).unwrap();
            // Whole floats come back as "2.0" → Float, exact.
            assert_eq!(reparsed, value, "{text}");
        }
    }

    #[test]
    fn typed_from_str_round_trips() {
        let xs = vec![(1.5f64, -2.0f64), (0.25, 1e300)];
        let text = to_string(&xs).unwrap();
        let back: Vec<(f64, f64)> = from_str(&text).unwrap();
        assert_eq!(back, xs);
        let n: u64 = from_str("18446744073709551615").unwrap();
        assert_eq!(n, u64::MAX);
        let f: f64 = from_str("null").unwrap();
        assert!(f.is_nan(), "null reads back as NaN for float targets");
    }

    #[test]
    fn malformed_documents_error_cleanly() {
        assert!(value_from_str("").is_err());
        assert!(value_from_str("[1,").is_err());
        assert!(value_from_str("{\"a\" 1}").is_err());
        assert!(value_from_str("[1] trailing").is_err());
        assert!(value_from_str("\"unterminated").is_err());
        assert!(value_from_str("nully").is_err());
        assert!(value_from_str("1.2.3").is_err());
        // Out of `f64`'s range is an error, not ±∞; underflow is zero, and a
        // huge integer is still a float, as in serde_json.
        for (text, at) in [("1e999", 0), ("[0, -1.5e400]", 4)] {
            let err = value_from_str(text).unwrap_err();
            assert!(
                err.0.contains("number out of range") && err.0.contains(&format!("at byte {at}"))
            );
        }
        assert_eq!(value_from_str("1e-999").unwrap(), Value::Float(0.0));
        assert_eq!(value_from_str("1e308").unwrap(), Value::Float(1e308));
        let huge = value_from_str("123456789012345678901234").unwrap();
        assert_eq!(huge, Value::Float(123_456_789_012_345_678_901_234.0));
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(value_from_str(&deep).is_err(), "depth-capped");
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(value_from_str("\"\\u0041\\t\"").unwrap(), Value::Str("A\t".to_string()));
    }

    #[test]
    fn surrogate_pairs_join_and_broken_escapes_are_rejected() {
        // (document, Ok(decoded) or Err(text the error carries))
        let table: [(&str, Result<&str, &str>); 10] = [
            // A pair as Python's `json.dumps("😀")` writes it.
            (r#""\ud83d\ude00""#, Ok("😀")),
            (r#""a\uD834\uDD1Eb""#, Ok("a𝄞b")),
            (r#""\u00e9\uFFFF""#, Ok("é\u{ffff}")),
            (r#""x\ud83d""#, Err("lone leading surrogate (at byte 2)")),
            (r#""\ud83d\u0041""#, Err("unpaired leading surrogate (at byte 1)")),
            (r#""\ud83dx""#, Err("lone leading surrogate (at byte 1)")),
            (r#""ok\ude00""#, Err("lone trailing surrogate (at byte 3)")),
            // Exactly four hex digits: no sign, no fewer.
            (r#""\u+041""#, Err("four hex digits")),
            (r#""\u-041""#, Err("four hex digits")),
            (r#""\u41""#, Err("four hex digits")),
        ];
        for (text, expected) in table {
            match (value_from_str(text), expected) {
                (Ok(value), Ok(decoded)) => assert_eq!(value, Value::Str(decoded.into()), "{text}"),
                (Err(err), Err(needle)) => assert!(err.0.contains(needle), "{text}: {err}"),
                (got, _) => panic!("{text}: expected {expected:?}, got {got:?}"),
            }
        }
        // What the writer emits for any char reads back as that char.
        let all = "\u{0}\u{1f}é😀\u{10ffff}";
        assert_eq!(value_from_str(&to_string(all).unwrap()).unwrap(), Value::Str(all.into()));
    }

    #[test]
    fn repeated_keys_are_rejected_naming_the_key() {
        let err = value_from_str(r#"{"a": 1, "b": {"a": 2}, "a": 3}"#).unwrap_err();
        assert!(err.0.contains("duplicate key 'a'") && err.0.contains("at byte 24"), "{err}");
        // The same key in different objects is fine.
        assert!(value_from_str(r#"{"a": 1, "b": {"a": 2}}"#).is_ok());
    }
}
