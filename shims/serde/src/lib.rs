//! A minimal, offline, API-compatible stand-in for the `serde` facade.
//!
//! The build environment has no network access and no vendored registry,
//! so the real `serde` cannot be fetched. This shim keeps the workspace
//! compiling and behaving by providing the small surface the repo actually
//! uses: `Serialize`/`Deserialize` traits (derivable via the sibling
//! `serde_derive` shim) over a self-describing [`Content`] tree that
//! `serde_json` (also shimmed) renders and parses.
//!
//! It is **not** wire-compatible with upstream serde; it only guarantees
//! that values this workspace serializes round-trip through this
//! workspace's `serde_json`.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// The self-describing value tree both traits speak.
///
/// Numbers are kept as their exact decimal rendering so that `u128` and
/// `f64` survive round-trips without precision games.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A number, stored as its decimal text.
    Num(String),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Seq(Vec<Content>),
    /// An ordered map with string keys (field order is preserved).
    Map(Vec<(String, Content)>),
}

impl Content {
    /// What kind of value this is (`"a map"`, `"a number"`, …), for error
    /// messages that should not echo a whole tree.
    pub fn kind(&self) -> &'static str {
        match self {
            Content::Null => "null",
            Content::Bool(_) => "a bool",
            Content::Num(_) => "a number",
            Content::Str(_) => "a string",
            Content::Seq(_) => "a sequence",
            Content::Map(_) => "a map",
        }
    }
}

/// Errors surfaced when rebuilding a value from [`Content`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Serialization into the [`Content`] tree.
pub trait Serialize {
    /// Renders `self` as a content tree.
    fn to_content(&self) -> Content;
}

/// Deserialization from the [`Content`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds a value from a content tree.
    fn from_content(c: &Content) -> Result<Self, DeError>;
}

/// Upstream-compatible alias: anything deserializable without borrowing.
pub trait DeserializeOwned: Deserialize {}
impl<T: Deserialize> DeserializeOwned for T {}

fn num_err<T>(c: &Content, ty: &str) -> Result<T, DeError> {
    Err(DeError(format!("expected {ty}, found {c:?}")))
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                Content::Num(self.to_string())
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                match c {
                    Content::Num(s) => s
                        .parse::<$t>()
                        .map_err(|e| DeError(format!("bad {}: {e}", stringify!($t)))),
                    other => num_err(other, stringify!($t)),
                }
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                if self.is_finite() {
                    let mut s = format!("{self}");
                    // JSON numbers need a decimal point or exponent to stay
                    // floats on the way back in; `{}` drops ".0".
                    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                        s.push_str(".0");
                    }
                    Content::Num(s)
                } else {
                    Content::Null
                }
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                match c {
                    Content::Num(s) => s
                        .parse::<$t>()
                        .map_err(|e| DeError(format!("bad {}: {e}", stringify!($t)))),
                    Content::Null => Ok(<$t>::NAN),
                    other => num_err(other, stringify!($t)),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Bool(b) => Ok(*b),
            other => num_err(other, "bool"),
        }
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Str(s) => Ok(s.clone()),
            other => num_err(other, "string"),
        }
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => num_err(other, "char"),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Seq(items) => items.iter().map(T::from_content).collect(),
            other => num_err(other, "sequence"),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            Some(v) => v.to_content(),
            None => Content::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        T::from_content(c).map(Box::new)
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_content(&self) -> Content {
        Content::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_content()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_content(v)?)))
                .collect(),
            other => num_err(other, "map"),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+))+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_content(&self) -> Content {
                Content::Seq(vec![$(self.$n.to_content()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                match c {
                    Content::Seq(items) => {
                        let mut it = items.iter();
                        Ok(($(
                            $t::from_content(
                                it.next().ok_or_else(|| DeError("tuple too short".into()))?,
                            )?,
                        )+))
                    }
                    other => num_err(other, "tuple"),
                }
            }
        }
    )+};
}

impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_content(&42u64.to_content()), Ok(42));
        assert_eq!(f64::from_content(&1.5f64.to_content()), Ok(1.5),);
        assert_eq!(bool::from_content(&true.to_content()), Ok(true));
        assert_eq!(
            String::from_content(&"hi".to_string().to_content()),
            Ok("hi".to_string())
        );
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_content(&v.to_content()), Ok(v));
        let o: Option<u8> = None;
        assert_eq!(Option::<u8>::from_content(&o.to_content()), Ok(None));
        let t = (1u8, "x".to_string());
        assert_eq!(
            <(u8, String)>::from_content(&t.to_content()),
            Ok((1u8, "x".to_string()))
        );
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        match 2.0f64.to_content() {
            Content::Num(s) => assert_eq!(s, "2.0"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
