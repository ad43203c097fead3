//! Minimal deterministic JSON emission.
//!
//! The sweep report needs *byte*-stable output: the CI gate compares
//! reports with an exact comparator, so the serializer must be a pure
//! function of the data with no map-ordering, locale, or
//! float-formatting wiggle room. This hand-rolled value tree gives
//! exactly that: objects keep insertion order, floats print through
//! Rust's shortest-roundtrip formatter (deterministic for a given
//! value), and there is no configuration that could perturb the bytes.

use std::fmt::Write as _;

/// A JSON value with deterministic serialization (object keys keep
/// insertion order).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` (e.g. an absent optional like an unbounded neighbor cap).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (covers every counter in the reports).
    U64(u64),
    /// A finite double. Non-finite values serialize as `null` — the
    /// modeled metrics never produce them, and `null` keeps the output
    /// parseable instead of silently invalid.
    F64(f64),
    /// A string (escaped on write).
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An ordered object.
    Object(Vec<(&'static str, Json)>),
}

impl Json {
    /// Serializes compactly (no whitespace), appending to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The compact serialization as an owned string.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

/// Writes a double using Rust's shortest-roundtrip formatting, which is
/// deterministic for a given bit pattern; integral values gain a `.0` so
/// they stay typed as floats on re-read.
fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
        // `{:?}` already emits `.0` for integral floats (e.g. "4.0"),
        // so nothing further is needed; this branch exists only to keep
        // the non-finite fallback below explicit.
    } else {
        out.push_str("null");
    }
}

/// Writes `s` as a quoted JSON string with the mandatory escapes.
fn write_escaped(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_nesting() {
        let v = Json::Object(vec![
            ("ok", Json::Bool(true)),
            ("n", Json::U64(42)),
            ("x", Json::F64(20.48)),
            ("whole", Json::F64(4.0)),
            ("s", Json::from("hi")),
            ("a", Json::Array(vec![Json::U64(1), Json::U64(2)])),
        ]);
        assert_eq!(
            v.to_compact(),
            r#"{"ok":true,"n":42,"x":20.48,"whole":4.0,"s":"hi","a":[1,2]}"#
        );
    }

    #[test]
    fn object_order_is_insertion_order() {
        let a = Json::Object(vec![("b", Json::U64(1)), ("a", Json::U64(2))]);
        assert_eq!(a.to_compact(), r#"{"b":1,"a":2}"#);
    }

    #[test]
    fn null_is_null() {
        assert_eq!(Json::Null.to_compact(), "null");
        let v = Json::Object(vec![("cap", Json::Null)]);
        assert_eq!(v.to_compact(), r#"{"cap":null}"#);
    }

    #[test]
    fn strings_are_escaped() {
        let v = Json::from("quote\" slash\\ nl\n tab\t bell\u{7}");
        assert_eq!(v.to_compact(), "\"quote\\\" slash\\\\ nl\\n tab\\t bell\\u0007\"");
    }

    #[test]
    fn floats_are_shortest_roundtrip_and_finite_guarded() {
        assert_eq!(Json::F64(0.1).to_compact(), "0.1");
        assert_eq!(Json::F64(6.25 / 3.0).to_compact(), format!("{:?}", 6.25_f64 / 3.0));
        assert_eq!(Json::F64(f64::NAN).to_compact(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn serialization_is_reproducible() {
        let v = Json::Array((0..64).map(|i| Json::F64(i as f64 * 0.3)).collect());
        assert_eq!(v.to_compact(), v.to_compact());
    }
}
