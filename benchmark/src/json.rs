//! A minimal JSON writer (the container has no serde): values are built as
//! a tree and rendered with every digit a float has.

use std::collections::BTreeMap;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, printed without a fraction.
    Int(i64),
    /// A float, printed with its shortest round-trip digits; non-finite
    /// values become `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An object of numbers from a sorted map.
    pub fn num_map(map: &BTreeMap<String, f64>) -> Json {
        Json::Obj(
            map.iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        )
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(n) if n.is_finite() => out.push_str(&format!("{n:?}")),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Renders on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }
}

fn write_str(s: &str, out: &mut String) {
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
    fn renders_every_kind() {
        let j = Json::obj([
            ("a", Json::Int(3)),
            ("b", Json::Num(1.5)),
            ("c", Json::Num(f64::NAN)),
            ("d", Json::str("x\"y\n")),
            ("e", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(
            j.render(),
            r#"{"a":3,"b":1.5,"c":null,"d":"x\"y\n","e":[true,null]}"#
        );
    }

    #[test]
    fn floats_keep_all_their_digits() {
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Num(1e21).render(), "1e21");
        assert_eq!(Json::Num(2.0).render(), "2.0");
    }
}
