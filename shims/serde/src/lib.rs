//! Vendored offline stand-in for `serde`.
//!
//! The build environment cannot reach crates.io, so the workspace ships a
//! minimal serialisation framework under the same crate name. Instead of
//! serde's visitor architecture it has two small halves:
//!
//! - **Writing streams.** [`Serialize`] drives a [`Serializer`] sink with
//!   scalar, sequence and map calls; `serde_json` (also shimmed) implements
//!   the sink and writes JSON text directly, with no intermediate tree.
//! - **Reading goes through a tree.** `serde_json` parses text into a
//!   [`Value`], and [`Deserialize`] reconstructs a type from it.
//!
//! The derive macros come from the sibling `serde_derive` shim and cover
//! the shapes this workspace uses: non-generic structs and enums without
//! `#[serde(...)]` attributes.

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing serialised value: what the JSON parser produces and
/// [`Deserialize`] consumes.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Seq(Vec<Value>),
    /// Insertion-ordered map (JSON objects preserve field order).
    Map(Vec<(String, Value)>),
}

impl Value {
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integer in range. The upper bound
    /// on floats is strict: `u64::MAX as f64` rounds up to 2⁶⁴, which is
    /// itself out of range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(n) => Some(*n),
            Value::I64(n) if *n >= 0 => Some(*n as u64),
            Value::F64(f) if f.fract() == 0.0 && *f >= 0.0 && *f < u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range. As for
    /// [`Value::as_u64`], `i64::MAX as f64` is 2⁶³, so the bound is strict.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(n) => Some(*n),
            Value::U64(n) if *n <= i64::MAX as u64 => Some(*n as i64),
            Value::F64(f) if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f < i64::MAX as f64 => {
                Some(*f as i64)
            }
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(f) => Some(*f),
            Value::U64(n) => Some(*n as f64),
            Value::I64(n) => Some(*n as f64),
            _ => None,
        }
    }
}

/// Serialisation/deserialisation error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    pub fn custom<T: fmt::Display>(msg: T) -> Error {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// The sink a [`Serialize`] impl writes into.
///
/// A value is one scalar call, or a `begin_*` call, its contents and the
/// matching `end_*` call. Inside a map every value is preceded by exactly
/// one [`Serializer::serialize_key`]. Writing cannot fail.
pub trait Serializer {
    fn serialize_null(&mut self);
    fn serialize_bool(&mut self, v: bool);
    fn serialize_u64(&mut self, v: u64);
    fn serialize_i64(&mut self, v: i64);
    fn serialize_f64(&mut self, v: f64);
    fn serialize_str(&mut self, v: &str);
    fn begin_seq(&mut self);
    fn end_seq(&mut self);
    fn begin_map(&mut self);
    fn serialize_key(&mut self, key: &str);
    fn end_map(&mut self);

    /// A map key that is a Rust identifier, a derived field or variant
    /// name, and so never needs escaping: sinks may skip the check that
    /// [`Serializer::serialize_key`] must make. The derives use it.
    fn serialize_field(&mut self, name: &'static str) {
        self.serialize_key(name);
    }
}

/// Writes a value into a [`Serializer`].
pub trait Serialize {
    fn serialize<S: Serializer>(&self, s: &mut S);
}

/// Reconstructs a value from the [`Value`] tree.
pub trait Deserialize: Sized {
    fn deserialize(v: &Value) -> Result<Self, Error>;
}

/// Looks up `key` in a serialised map and deserialises it (derive helper).
pub fn de_field<T: Deserialize>(map: &[(String, Value)], key: &str) -> Result<T, Error> {
    match map.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::deserialize(v),
        None => Err(Error::custom(format!("missing field `{key}`"))),
    }
}

/// [`de_field`] for `#[serde(default)]` fields: a missing key yields the
/// type's default instead of an error, so old serialised documents keep
/// decoding after a struct grows a field.
pub fn de_field_or_default<T: Deserialize + Default>(
    map: &[(String, Value)],
    key: &str,
) -> Result<T, Error> {
    match map.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::deserialize(v),
        None => Ok(T::default()),
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.serialize_u64(*self as u64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| Error::custom(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n).map_err(|_| {
                    Error::custom(format!(concat!("out of range for ", stringify!($t), ": {}"), n))
                })
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.serialize_i64(*self as i64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_i64()
                    .ok_or_else(|| Error::custom(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n).map_err(|_| {
                    Error::custom(format!(concat!("out of range for ", stringify!($t), ": {}"), n))
                })
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    #[inline]
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.serialize_f64(*self);
    }
}

impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            // serde_json writes non-finite floats as null.
            Value::Null => Ok(f64::NAN),
            _ => v.as_f64().ok_or_else(|| Error::custom("expected f64")),
        }
    }
}

impl Serialize for f32 {
    #[inline]
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.serialize_f64(f64::from(*self));
    }
}

impl Deserialize for f32 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        f64::deserialize(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    #[inline]
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.serialize_bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::custom("expected bool"))
    }
}

impl Serialize for String {
    #[inline]
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.serialize_str(self);
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::custom("expected string"))
    }
}

impl Serialize for str {
    #[inline]
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.serialize_str(self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    #[inline]
    fn serialize<S: Serializer>(&self, s: &mut S) {
        (**self).serialize(s);
    }
}

// Shared immutable tables (placement maps, file-size tables) serialise
// transparently, like serde's `rc` feature: the Arc is invisible in the
// encoded form.
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    #[inline]
    fn serialize<S: Serializer>(&self, s: &mut S) {
        (**self).serialize(s);
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        T::deserialize(v).map(std::sync::Arc::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::rc::Rc<T> {
    #[inline]
    fn serialize<S: Serializer>(&self, s: &mut S) {
        (**self).serialize(s);
    }
}

impl<T: Deserialize> Deserialize for std::rc::Rc<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        T::deserialize(v).map(std::rc::Rc::new)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    #[inline]
    fn serialize<S: Serializer>(&self, s: &mut S) {
        self.as_slice().serialize(s);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_seq()
            .ok_or_else(|| Error::custom("expected sequence"))?
            .iter()
            .map(T::deserialize)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.begin_seq();
        for item in self {
            item.serialize(s);
        }
        s.end_seq();
    }
}

impl<T: Serialize> Serialize for Option<T> {
    #[inline]
    fn serialize<S: Serializer>(&self, s: &mut S) {
        match self {
            Some(x) => x.serialize(s),
            None => s.serialize_null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.begin_seq();
                $(self.$idx.serialize(s);)+
                s.end_seq();
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let s = v.as_seq().ok_or_else(|| Error::custom("expected tuple seq"))?;
                let expected = [$($idx),+].len();
                if s.len() != expected {
                    return Err(Error::custom(format!(
                        "expected tuple of {expected}, got {}",
                        s.len()
                    )));
                }
                Ok(($($name::deserialize(&s[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// A parsed tree serialises back into the sink call for call, so a
/// document survives `from_str` → `to_string` unchanged.
impl Serialize for Value {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        match self {
            Value::Null => s.serialize_null(),
            Value::Bool(b) => s.serialize_bool(*b),
            Value::U64(n) => s.serialize_u64(*n),
            Value::I64(n) => s.serialize_i64(*n),
            Value::F64(f) => s.serialize_f64(*f),
            Value::Str(v) => s.serialize_str(v),
            Value::Seq(items) => items.serialize(s),
            Value::Map(entries) => {
                s.begin_map();
                for (k, v) in entries {
                    s.serialize_key(k);
                    v.serialize(s);
                }
                s.end_map();
            }
        }
    }
}

/// A [`Serializer`] that assembles the [`Value`] tree of what it is fed.
/// `HashMap` needs it to sort its entries into a deterministic order.
#[derive(Default)]
struct TreeBuilder {
    /// Containers still being filled, innermost last.
    open: Vec<Open>,
    done: Option<Value>,
}

/// A container a [`TreeBuilder`] is still filling.
enum Open {
    Seq(Vec<Value>),
    /// The entries so far, and the key the next value is filed under.
    Map(Vec<(String, Value)>, Option<String>),
}

impl TreeBuilder {
    fn build<T: Serialize + ?Sized>(value: &T) -> Value {
        let mut b = TreeBuilder::default();
        value.serialize(&mut b);
        b.done.expect("a serialised value is complete")
    }

    fn put(&mut self, v: Value) {
        match self.open.last_mut() {
            None => self.done = Some(v),
            Some(Open::Seq(items)) => items.push(v),
            Some(Open::Map(entries, key)) => {
                entries.push((key.take().expect("map value without a key"), v))
            }
        }
    }

    fn close(&mut self) {
        let v = match self.open.pop().expect("close without an open container") {
            Open::Seq(items) => Value::Seq(items),
            Open::Map(entries, _) => Value::Map(entries),
        };
        self.put(v);
    }
}

impl Serializer for TreeBuilder {
    fn serialize_null(&mut self) {
        self.put(Value::Null);
    }
    fn serialize_bool(&mut self, v: bool) {
        self.put(Value::Bool(v));
    }
    fn serialize_u64(&mut self, v: u64) {
        self.put(Value::U64(v));
    }
    fn serialize_i64(&mut self, v: i64) {
        self.put(Value::I64(v));
    }
    fn serialize_f64(&mut self, v: f64) {
        self.put(Value::F64(v));
    }
    fn serialize_str(&mut self, v: &str) {
        self.put(Value::Str(v.to_string()));
    }
    fn begin_seq(&mut self) {
        self.open.push(Open::Seq(Vec::new()));
    }
    fn end_seq(&mut self) {
        self.close();
    }
    fn begin_map(&mut self) {
        self.open.push(Open::Map(Vec::new(), None));
    }
    fn serialize_key(&mut self, key: &str) {
        if let Some(Open::Map(_, slot)) = self.open.last_mut() {
            *slot = Some(key.to_string());
        }
    }
    fn end_map(&mut self) {
        self.close();
    }
}

/// Total order over [`Value`] trees so map serialisation is deterministic
/// regardless of `HashMap` iteration order.
fn value_cmp(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::U64(_) => 2,
            Value::I64(_) => 3,
            Value::F64(_) => 4,
            Value::Str(_) => 5,
            Value::Seq(_) => 6,
            Value::Map(_) => 7,
        }
    }
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::U64(x), Value::U64(y)) => x.cmp(y),
        (Value::I64(x), Value::I64(y)) => x.cmp(y),
        (Value::F64(x), Value::F64(y)) => x.total_cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Seq(x), Value::Seq(y)) => {
            for (xi, yi) in x.iter().zip(y.iter()) {
                let c = value_cmp(xi, yi);
                if c != Ordering::Equal {
                    return c;
                }
            }
            x.len().cmp(&y.len())
        }
        (Value::Map(x), Value::Map(y)) => {
            for ((kx, vx), (ky, vy)) in x.iter().zip(y.iter()) {
                let c = kx.cmp(ky);
                if c != Ordering::Equal {
                    return c;
                }
                let c = value_cmp(vx, vy);
                if c != Ordering::Equal {
                    return c;
                }
            }
            x.len().cmp(&y.len())
        }
        _ => rank(a).cmp(&rank(b)),
    }
}

/// Serialised as a sequence of `[key, value]` pairs sorted by
/// `value_cmp`, so the output does not depend on the hasher's state.
impl<K: Serialize, V: Serialize> Serialize for std::collections::HashMap<K, V> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        let mut pairs: Vec<Value> = self.iter().map(|pair| TreeBuilder::build(&pair)).collect();
        pairs.sort_by(value_cmp);
        pairs.serialize(s);
    }
}

impl<K, V> Deserialize for std::collections::HashMap<K, V>
where
    K: Deserialize + Eq + std::hash::Hash,
    V: Deserialize,
{
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let seq = v
            .as_seq()
            .ok_or_else(|| Error::custom("expected sequence of key/value pairs"))?;
        seq.iter().map(<(K, V)>::deserialize).collect()
    }
}

/// Serialised as a sequence of `[key, value]` pairs in key order.
impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.begin_seq();
        for pair in self {
            pair.serialize(s);
        }
        s.end_seq();
    }
}

impl<K, V> Deserialize for std::collections::BTreeMap<K, V>
where
    K: Deserialize + Ord,
    V: Deserialize,
{
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let seq = v
            .as_seq()
            .ok_or_else(|| Error::custom("expected sequence of key/value pairs"))?;
        seq.iter().map(<(K, V)>::deserialize).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

    #[test]
    fn as_u64_rejects_two_pow_64_and_keeps_the_float_below_it() {
        assert_eq!(u64::MAX as f64, TWO_POW_64);
        assert_eq!(Value::F64(TWO_POW_64).as_u64(), None);
        let below = TWO_POW_64.next_down();
        assert_eq!(below, 18_446_744_073_709_549_568.0);
        assert_eq!(Value::F64(below).as_u64(), Some(18_446_744_073_709_549_568));
        assert_eq!(Value::F64(TWO_POW_63).as_u64(), Some(1 << 63));
        assert!(u64::deserialize(&Value::F64(TWO_POW_64)).is_err());
    }

    #[test]
    fn as_i64_rejects_two_pow_63_and_keeps_the_float_below_it() {
        assert_eq!(i64::MAX as f64, TWO_POW_63);
        assert_eq!(Value::F64(TWO_POW_63).as_i64(), None);
        let below = TWO_POW_63.next_down();
        assert_eq!(below, 9_223_372_036_854_774_784.0);
        assert_eq!(Value::F64(below).as_i64(), Some(9_223_372_036_854_774_784));
        // The lower bound, -2⁶³, is exactly i64::MIN and stays in range.
        assert_eq!(Value::F64(-TWO_POW_63).as_i64(), Some(i64::MIN));
        assert_eq!(Value::F64((-TWO_POW_63).next_down()).as_i64(), None);
        assert!(i64::deserialize(&Value::F64(TWO_POW_63)).is_err());
    }

    #[test]
    fn tree_builder_reassembles_what_value_serializes() {
        let v = Value::Map(vec![
            ("a".into(), Value::Seq(vec![Value::U64(1), Value::Null])),
            ("b".into(), Value::Map(vec![])),
            ("c".into(), Value::Str("x".into())),
            (
                "d".into(),
                Value::Seq(vec![Value::I64(-1), Value::F64(0.5)]),
            ),
        ]);
        assert_eq!(TreeBuilder::build(&v), v);
    }
}
