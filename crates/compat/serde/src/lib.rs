//! Offline stand-in for [serde](https://crates.io/crates/serde).
//!
//! Real serde is generic over an abstract data model mediated by
//! `Serializer`/`Deserializer` visitors. This stand-in collapses that
//! model to one concrete self-describing tree — [`Value`], the type
//! `serde_json` calls by the same name (the `serde_json` stand-in
//! re-exports it) — which is all the workspace needs: every serialized
//! byte here is report JSON, built with `json!` and read back as a tree.
//!
//! * [`Serialize`] renders a type into a [`Value`] and [`Deserialize`]
//!   rebuilds one from a [`&Value`](Value); the only implementor of
//!   either is [`Value`] itself (there is no derive — nothing in the
//!   workspace serializes a typed struct), and the traits exist so the
//!   `serde_json` entry points keep real serde_json's generic signatures
//!   (`from_str::<Value>(..)`);
//! * [`Number`] keeps `u64`/`i64` exact (not squeezed through `f64`), so
//!   epoch counters and other 64-bit ids survive a report bit-for-bit.

use std::fmt;

/// A JSON number: exact unsigned/signed integers, or a float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Non-negative integer (everything `0..=u64::MAX`).
    PosInt(u64),
    /// Negative integer.
    NegInt(i64),
    /// Anything with a fractional part or exponent.
    Float(f64),
}

impl Number {
    /// Lossy view as `f64` (always succeeds; huge integers round).
    pub fn as_f64(self) -> f64 {
        match self {
            Number::PosInt(x) => x as f64,
            Number::NegInt(x) => x as f64,
            Number::Float(x) => x,
        }
    }

    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::PosInt(x) => Some(x),
            Number::NegInt(_) => None,
            // The old stand-in treated integral floats as integers; keep
            // that leniency for callers reading `json!`-built values.
            Number::Float(x) if x >= 0.0 && x.fract() == 0.0 && x < 9e15 => Some(x as u64),
            Number::Float(_) => None,
        }
    }

    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::PosInt(x) => i64::try_from(x).ok(),
            Number::NegInt(x) => Some(x),
            Number::Float(x) if x.fract() == 0.0 && x.abs() < 9e15 => Some(x as i64),
            Number::Float(_) => None,
        }
    }
}

macro_rules! impl_number_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Number {
            fn from(x: $t) -> Number {
                Number::PosInt(x as u64)
            }
        }
    )*};
}

macro_rules! impl_number_from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for Number {
            fn from(x: $t) -> Number {
                if x < 0 {
                    Number::NegInt(x as i64)
                } else {
                    Number::PosInt(x as u64)
                }
            }
        }
    )*};
}

impl_number_from_unsigned!(u8, u16, u32, u64, usize);
impl_number_from_signed!(i8, i16, i32, i64, isize);

impl From<f32> for Number {
    fn from(x: f32) -> Number {
        Number::Float(f64::from(x))
    }
}

impl From<f64> for Number {
    fn from(x: f64) -> Number {
        Number::Float(x)
    }
}

/// A JSON value — the concrete data model shared by the `serde` and
/// `serde_json` stand-ins. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

// From impls used by the `json!` macro in the serde_json stand-in.
macro_rules! impl_value_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Value {
                Value::Number(Number::from(x))
            }
        }
    )*};
}

impl_value_from_number!(f32, f64, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl From<&String> for Value {
    fn from(s: &String) -> Value {
        Value::String(s.clone())
    }
}

impl From<Vec<Value>> for Value {
    fn from(a: Vec<Value>) -> Value {
        Value::Array(a)
    }
}

impl From<&Vec<Value>> for Value {
    fn from(a: &Vec<Value>) -> Value {
        Value::Array(a.clone())
    }
}

impl<T> From<Option<T>> for Value
where
    Value: From<T>,
{
    fn from(o: Option<T>) -> Value {
        match o {
            Some(x) => Value::from(x),
            None => Value::Null,
        }
    }
}

impl From<&Value> for Value {
    fn from(v: &Value) -> Value {
        v.clone()
    }
}

/// Deserialization failure: a human-readable type/shape mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Render `self` into the concrete data model.
///
/// Real serde's `fn serialize<S: Serializer>` collapsed to the one
/// serializer this workspace has.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Rebuild `Self` from the concrete data model.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Value, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_are_exact() {
        assert_eq!(
            Value::from(u64::MAX),
            Value::Number(Number::PosInt(u64::MAX))
        );
        assert_eq!(Value::from(u64::MAX).as_u64(), Some(u64::MAX));
        assert_eq!(Value::from(i64::MIN).as_i64(), Some(i64::MIN));
        assert_eq!(Value::from(-1i32), Value::Number(Number::NegInt(-1)));
        assert_eq!(Value::from(-1i32).as_u64(), None, "sign-checked");
        assert_eq!(Value::from(u64::MAX).as_i64(), None, "range-checked");
    }

    #[test]
    fn missing_keys_and_indices_read_as_null() {
        let obj = Value::Object(vec![("a".to_string(), Value::from(1u32))]);
        assert_eq!(obj["a"].as_u64(), Some(1));
        assert!(obj["absent"].is_null());
        assert!(obj[0].is_null(), "indexing a non-array");
        assert_eq!(Value::from(Option::<f64>::None), Value::Null);
    }

    #[test]
    fn value_round_trips_through_the_traits() {
        let v = Value::Array(vec![Value::from("x"), Value::from(0.5f64), Value::Null]);
        assert_eq!(Value::from_value(&v.to_value()), Ok(v.clone()));
        assert_eq!(Serialize::to_value(&&v), v, "through a reference");
    }
}
