//! Offline JSON front end for the local serde shim: renders a
//! [`serde::Value`] tree to JSON text and parses JSON text back.
//!
//! Numbers keep integer/float identity (`Value::Int` vs `Value::Float`);
//! floats render with Rust's shortest round-trip formatting, so
//! `from_str(&to_string(x))` reproduces `x` exactly for every type the
//! workspace serializes.

pub use serde::Value;
use serde::{DeError, Deserialize, Serialize};

/// Serialization/deserialization error.
pub type Error = DeError;

/// Renders a value compactly.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Renders a value with two-space indentation.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any [`Deserialize`] type.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(DeError(format!("trailing characters at byte {}", p.pos)));
    }
    T::from_value(&v)
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                let s = f.to_string();
                out.push_str(&s);
                // keep float identity on re-parse
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            newline(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, out, indent, depth + 1);
            }
            newline(out, indent, depth);
            out.push('}');
        }
    }
}

/// Deepest array/object nesting [`from_str`] accepts: the parser
/// recurses per level, so unbounded nesting in hostile input would
/// overflow the stack instead of returning an error.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), DeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(DeError(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, DeError> {
        self.skip_ws();
        match self.peek() {
            None => Err(DeError("unexpected end of input".into())),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(DeError(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let v = if b == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                v
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(DeError(format!(
                "unexpected `{}` at byte {}",
                b as char, self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String, DeError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| DeError(format!("invalid utf-8 in string: {e}")))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| DeError("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| DeError("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| DeError("bad \\u escape".into()))?;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| DeError("bad \\u code point".into()))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(DeError(format!(
                                "bad escape {:?}",
                                other.map(|c| c as char)
                            )))
                        }
                    }
                    self.pos += 1;
                }
                _ => return Err(DeError("unterminated string".into())),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, DeError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| DeError("bad number".into()))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| DeError(format!("bad float `{text}`: {e}")))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|e| DeError(format!("bad integer `{text}`: {e}")))
        }
    }

    fn parse_array(&mut self) -> Result<Value, DeError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(DeError(format!(
                        "expected `,` or `]` at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, DeError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(DeError(format!(
                        "expected `,` or `}}` at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(from_str::<Value>(&ok).is_ok());
        let deep = format!("{}{}", "[{\"a\":".repeat(100_000), "1");
        let err = from_str::<Value>(&deep).unwrap_err();
        assert!(
            format!("{err:?}").contains("nesting deeper than 128"),
            "{err:?}"
        );
    }

    #[test]
    fn roundtrip_nested() {
        let v = Value::Object(vec![
            ("n".into(), Value::Int(42)),
            ("x".into(), Value::Float(2.5)),
            ("s".into(), Value::Str("a \"b\"\n".into())),
            (
                "a".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
        ]);
        let compact = to_string(&v).unwrap();
        let parsed: Value = from_str(&compact).unwrap();
        assert_eq!(parsed, v);
        let pretty = to_string_pretty(&v).unwrap();
        let parsed: Value = from_str(&pretty).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn floats_keep_identity() {
        for f in [0.1, 1.0, 1e-12, 123456.789, f64::MAX] {
            let s = to_string(&f).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back, f, "{s}");
        }
    }

    #[test]
    fn integer_whole_floats_reparse_as_float() {
        let s = to_string(&1.0f64).unwrap();
        assert_eq!(s, "1.0");
        let v: Value = from_str(&s).unwrap();
        assert_eq!(v, Value::Float(1.0));
    }

    #[test]
    fn typed_roundtrip() {
        let data = vec![(2usize, 7u64), (3, 9)];
        let s = to_string(&data).unwrap();
        assert_eq!(s, "[[2,7],[3,9]]");
        let back: Vec<(usize, u64)> = from_str(&s).unwrap();
        assert_eq!(back, data);
    }
}
