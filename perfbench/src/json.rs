//! A minimal JSON value and writer (the build has no serde).

use std::fmt::Write;

#[derive(Debug)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    /// A finite number, written with every digit Rust's shortest
    /// round-trip formatting gives.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Rendering indented by two spaces per level, in which arrays of
    /// scalars and objects holding only scalars stay on one line.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn is_flat(&self) -> bool {
        match self {
            Json::Arr(items) => items
                .iter()
                .all(|v| !matches!(v, Json::Arr(_) | Json::Obj(_))),
            Json::Obj(fields) => fields
                .iter()
                .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_))),
            _ => true,
        }
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => return write!(out, "{n}").expect("writing to a String"),
            Json::Num(x) => {
                assert!(x.is_finite(), "JSON has no encoding for {x}");
                return write!(out, "{x}").expect("writing to a String");
            }
            Json::Str(s) => return write_str(out, s),
            Json::Arr(v) => ('[', ']', v.iter().map(|j| (None, j)).collect()),
            Json::Obj(f) => (
                '{',
                '}',
                f.iter().map(|(k, j)| (Some(k.as_str()), j)).collect(),
            ),
        };
        let step = indent.filter(|_| !self.is_flat());
        let flat_sep = if indent.is_some() { ", " } else { "," };
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            if i > 0 {
                out.push_str(if step.is_some() { "," } else { flat_sep });
            }
            if let Some(step) = step {
                out.push('\n');
                out.push_str(&" ".repeat(step * (level + 1)));
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(if indent.is_some() { ": " } else { ":" });
            }
            value.write(out, indent, level + 1);
        }
        if let (Some(step), false) = (step, items.is_empty()) {
            out.push('\n');
            out.push_str(&" ".repeat(step * level));
        }
        out.push(close);
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
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
    fn scalars_and_escapes() {
        let v = Json::obj([
            ("a", Json::Num(1.2034)),
            ("b", Json::Int(3)),
            ("c", Json::str("x\"y\\z\n\u{1}")),
            ("d", Json::Bool(false)),
            ("e", Json::Null),
            ("f", Json::Num(0.1 + 0.2)),
        ]);
        assert_eq!(
            v.render(),
            r#"{"a":1.2034,"b":3,"c":"x\"y\\z\n\u0001","d":false,"e":null,"f":0.30000000000000004}"#
        );
    }

    #[test]
    fn pretty_keeps_flat_containers_on_one_line() {
        let v = Json::obj([
            ("command", Json::Arr(vec![Json::str("a"), Json::str("b")])),
            ("rows", Json::Arr(vec![Json::obj([("n", Json::Int(1))])])),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(
            v.render_pretty(),
            "{\n  \"command\": [\"a\", \"b\"],\n  \"rows\": [\n    {\"n\": 1}\n  ],\n  \"empty\": []\n}\n"
        );
    }

    #[test]
    #[should_panic(expected = "no encoding")]
    fn non_finite_numbers_are_refused() {
        Json::Num(f64::NAN).render();
    }
}
