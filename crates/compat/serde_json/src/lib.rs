//! Offline stand-in for [serde_json](https://crates.io/crates/serde_json).
//!
//! The data model ([`Value`], [`Number`]) lives in the `serde` stand-in
//! (mirroring the real crates' dependency direction) and is re-exported
//! here, so `serde_json::Value` keeps working everywhere. On top of it
//! this crate provides:
//!
//! * the [`json!`] macro over object/array/expression literals;
//! * serialization — [`to_string`], [`to_string_pretty`], [`to_vec`] —
//!   of a [`Value`] (the one [`serde::Serialize`] type);
//! * parsing — [`from_str`], [`from_slice`] — into a [`Value`], via a
//!   recursive-descent JSON parser with full string-escape handling
//!   (`\uXXXX` incl. surrogate pairs), exact `u64`/`i64` integers, and a
//!   nesting-depth limit so adversarial input cannot blow the stack.
//!
//! Divergences from real serde_json, acceptable offline: objects are
//! ordered pairs (no map dedup — last key wins on lookup of duplicates is
//! NOT implemented; first wins), and non-finite floats print as `null`
//! (real serde_json's `json!` does the same via `Number::from_f64`).

use std::fmt::Write as _;

pub use serde::{Number, Value};

/// Parse/serialize error with a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Error {
        Error(e.0)
    }
}

// ---------------------------------------------------------- serialization

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn number_to_string(n: Number) -> String {
    match n {
        Number::PosInt(x) => x.to_string(),
        Number::NegInt(x) => x.to_string(),
        // Integral floats keep a ".0" (like real serde_json) so the
        // parser reproduces Number::Float and Value-level round trips
        // are idempotent instead of silently retyping floats as ints.
        Number::Float(x) if x.is_finite() && x.fract() == 0.0 => format!("{x:.1}"),
        Number::Float(x) if x.is_finite() => format!("{x}"),
        // Real JSON has no Inf/NaN; mirror serde_json's lossy behavior.
        Number::Float(_) => "null".to_string(),
    }
}

fn write_value(out: &mut String, v: &Value, indent: usize, pretty: bool) {
    let pad = |out: &mut String, n: usize| {
        if pretty {
            out.push('\n');
            for _ in 0..n {
                out.push_str("  ");
            }
        }
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(x) => out.push_str(&number_to_string(*x)),
        Value::String(s) => escape_into(out, s),
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
                pad(out, indent + 1);
                write_value(out, item, indent + 1, pretty);
            }
            pad(out, indent);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, indent + 1);
                escape_into(out, k);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                write_value(out, val, indent + 1, pretty);
            }
            pad(out, indent);
            out.push('}');
        }
    }
}

/// Compact serialization of any [`serde::Serialize`] type.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), 0, false);
    Ok(out)
}

/// Two-space-indented serialization, like serde_json's.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), 0, true);
    Ok(out)
}

/// Compact serialization straight to bytes.
pub fn to_vec<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

// ---------------------------------------------------------------- parsing

/// Maximum array/object nesting the parser accepts. Deeper input — which
/// no legitimate frame produces — is rejected instead of recursing toward
/// a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("invalid literal (expected {lit})")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.err("expected ',' or ']' in array")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value(depth + 1)?;
                    pairs.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(pairs));
                        }
                        _ => return Err(self.err("expected ',' or '}' in object")),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut run_start = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(self.str_slice(run_start, self.pos)?);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(self.str_slice(run_start, self.pos)?);
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    run_start = self.pos;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// A literal (escape-free) run of string bytes, validated as UTF-8.
    fn str_slice(&self, start: usize, end: usize) -> Result<&'a str, Error> {
        std::str::from_utf8(&self.bytes[start..end])
            .map_err(|_| Error(format!("invalid UTF-8 in string at byte {start}")))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut x = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit"))?;
            x = x * 16 + d;
            self.pos += 1;
        }
        Ok(x)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
            return Err(self.err("expected digit"));
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.err("expected digit after '.'"));
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.err("expected exponent digit"));
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        let n = if integral {
            if negative {
                // -0 has no NegInt representation; fall through to i64/f64.
                match text.parse::<i64>() {
                    Ok(0) => Number::PosInt(0),
                    Ok(x) => Number::NegInt(x),
                    Err(_) => {
                        Number::Float(text.parse::<f64>().map_err(|_| self.err("bad number"))?)
                    }
                }
            } else {
                match text.parse::<u64>() {
                    Ok(x) => Number::PosInt(x),
                    Err(_) => {
                        Number::Float(text.parse::<f64>().map_err(|_| self.err("bad number"))?)
                    }
                }
            }
        } else {
            Number::Float(text.parse::<f64>().map_err(|_| self.err("bad number"))?)
        };
        Ok(Value::Number(n))
    }
}

/// Parse a JSON document into any [`serde::Deserialize`] type
/// (`from_str::<Value>` gives the raw tree).
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    from_slice(s.as_bytes())
}

/// [`from_str`] over raw bytes.
pub fn from_slice<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let mut p = Parser { bytes, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(T::from_value(&v)?)
}

/// Build a [`Value`] from JSON-ish syntax: objects, arrays, and Rust
/// expressions in value position.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({}) => { $crate::Value::Object(Vec::new()) };
    ([]) => { $crate::Value::Array(Vec::new()) };
    ({ $($tt:tt)+ }) => {{
        let mut pairs: Vec<(String, $crate::Value)> = Vec::new();
        $crate::json_object_internal!(pairs; $($tt)+);
        $crate::Value::Object(pairs)
    }};
    ([ $($tt:tt)+ ]) => {{
        let mut items: Vec<$crate::Value> = Vec::new();
        $crate::json_array_internal!(items; $($tt)+);
        $crate::Value::Array(items)
    }};
    ($other:expr) => { $crate::Value::from($other) };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_object_internal {
    ($pairs:ident;) => {};
    // Nested object / array values must be matched before the generic
    // expression arm (a bare `{ "k": v }` is not a valid Rust expression).
    ($pairs:ident; $key:literal : { $($inner:tt)* } , $($rest:tt)*) => {
        $pairs.push(($key.to_string(), $crate::json!({ $($inner)* })));
        $crate::json_object_internal!($pairs; $($rest)*);
    };
    ($pairs:ident; $key:literal : { $($inner:tt)* } $(,)?) => {
        $pairs.push(($key.to_string(), $crate::json!({ $($inner)* })));
    };
    ($pairs:ident; $key:literal : [ $($inner:tt)* ] , $($rest:tt)*) => {
        $pairs.push(($key.to_string(), $crate::json!([ $($inner)* ])));
        $crate::json_object_internal!($pairs; $($rest)*);
    };
    ($pairs:ident; $key:literal : [ $($inner:tt)* ] $(,)?) => {
        $pairs.push(($key.to_string(), $crate::json!([ $($inner)* ])));
    };
    ($pairs:ident; $key:literal : null , $($rest:tt)*) => {
        $pairs.push(($key.to_string(), $crate::Value::Null));
        $crate::json_object_internal!($pairs; $($rest)*);
    };
    ($pairs:ident; $key:literal : null $(,)?) => {
        $pairs.push(($key.to_string(), $crate::Value::Null));
    };
    ($pairs:ident; $key:literal : $val:expr , $($rest:tt)*) => {
        $pairs.push(($key.to_string(), $crate::Value::from($val)));
        $crate::json_object_internal!($pairs; $($rest)*);
    };
    ($pairs:ident; $key:literal : $val:expr) => {
        $pairs.push(($key.to_string(), $crate::Value::from($val)));
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_array_internal {
    ($items:ident;) => {};
    ($items:ident; { $($inner:tt)* } , $($rest:tt)*) => {
        $items.push($crate::json!({ $($inner)* }));
        $crate::json_array_internal!($items; $($rest)*);
    };
    ($items:ident; { $($inner:tt)* } $(,)?) => {
        $items.push($crate::json!({ $($inner)* }));
    };
    ($items:ident; [ $($inner:tt)* ] , $($rest:tt)*) => {
        $items.push($crate::json!([ $($inner)* ]));
        $crate::json_array_internal!($items; $($rest)*);
    };
    ($items:ident; [ $($inner:tt)* ] $(,)?) => {
        $items.push($crate::json!([ $($inner)* ]));
    };
    ($items:ident; null , $($rest:tt)*) => {
        $items.push($crate::Value::Null);
        $crate::json_array_internal!($items; $($rest)*);
    };
    ($items:ident; null $(,)?) => {
        $items.push($crate::Value::Null);
    };
    ($items:ident; $val:expr , $($rest:tt)*) => {
        $items.push($crate::Value::from($val));
        $crate::json_array_internal!($items; $($rest)*);
    };
    ($items:ident; $val:expr) => {
        $items.push($crate::Value::from($val));
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_macro_and_accessors() {
        let name = "er";
        let secs = 0.125f64;
        let v = json!({ "graph": name, "seconds": secs, "n": 100usize, "nested": { "x": 1 }, "none": Option::<f64>::None });
        assert_eq!(v["graph"].as_str(), Some("er"));
        assert_eq!(v["seconds"].as_f64(), Some(0.125));
        assert_eq!(v["n"].as_u64(), Some(100));
        assert_eq!(v["nested"]["x"].as_f64(), Some(1.0));
        assert!(v["none"].is_null());
        assert!(v["missing"].is_null());
    }

    #[test]
    fn arrays_and_vec_interpolation() {
        let mut rows = Vec::new();
        rows.push(json!({ "a": 1 }));
        rows.push(json!({ "a": 2 }));
        let v = json!({ "rows": rows, "inline": [1, 2, 3] });
        assert_eq!(v["rows"][1]["a"].as_f64(), Some(2.0));
        assert_eq!(v["inline"][0].as_f64(), Some(1.0));
    }

    #[test]
    fn pretty_round_trips_shape() {
        let v = json!({ "x": 1.5, "s": "a\"b", "arr": [true, null] });
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains("\"x\": 1.5"));
        assert!(s.contains("\\\""));
        assert!(s.contains("null"));
        let compact = to_string(&v).unwrap();
        assert!(!compact.contains('\n'));
        assert_eq!(from_str::<Value>(&s).unwrap(), v, "pretty output reparses");
        assert_eq!(
            from_str::<Value>(&compact).unwrap(),
            v,
            "compact output reparses"
        );
    }

    #[test]
    fn floats_stay_floats_through_round_trips() {
        assert_eq!(to_string(&json!({ "n": 3.0 })).unwrap(), "{\"n\":3.0}");
        assert_eq!(to_string(&json!(2.5f64)).unwrap(), "2.5");
        assert_eq!(to_string(&json!(3usize)).unwrap(), "3");
        // Value-level idempotence: the Number variant survives.
        for v in [json!(3.0f64), json!(-0.0f64), json!(1e18f64), json!(7u64)] {
            let text = to_string(&v).unwrap();
            assert_eq!(from_str::<Value>(&text).unwrap(), v, "{text}");
        }
        assert_eq!(
            from_str::<Value>("3.0").unwrap(),
            Value::Number(Number::Float(3.0))
        );
        assert_eq!(
            from_str::<Value>("3").unwrap(),
            Value::Number(Number::PosInt(3))
        );
    }

    #[test]
    fn parses_scalars_and_structures() {
        let parse = |s: &str| from_str::<Value>(s).unwrap();
        assert_eq!(parse(" null "), Value::Null);
        assert_eq!(parse("true").as_bool(), Some(true));
        assert_eq!(parse("18446744073709551615").as_u64(), Some(u64::MAX));
        assert_eq!(parse("-9223372036854775808").as_i64(), Some(i64::MIN));
        assert_eq!(parse("-1.25e2").as_f64(), Some(-125.0));
        assert_eq!(parse("[1, 2,3]"), json!([1, 2, 3]));
        let v: Value = from_str("{\"a\": [1, {\"b\": null}], \"c\": \"x\"}").unwrap();
        assert_eq!(v["a"][1]["b"], Value::Null);
        assert_eq!(v["c"].as_str(), Some("x"));
    }

    #[test]
    fn parses_string_escapes() {
        let s: Value = from_str(r#""a\"b\\c\/d\n\t\u0041\u00e9\ud83e\udd80""#).unwrap();
        assert_eq!(s.as_str(), Some("a\"b\\c/d\n\tAé🦀"));
        // Escape → parse round trip over awkward content.
        let original = json!("quote\" backslash\\ newline\n control\u{1} unicode é🦀");
        let text = to_string(&original).unwrap();
        assert_eq!(from_str::<Value>(&text).unwrap(), original);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "01x",
            "\"unterminated",
            "1 2",
            "{\"a\":}",
            "\"\\q\"",
            "\"\\ud800\"",
            "nul",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_excessive_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(from_str::<Value>(&deep).is_err());
        let ok = "[".repeat(60) + &"]".repeat(60);
        assert!(from_str::<Value>(&ok).is_ok());
    }
}
