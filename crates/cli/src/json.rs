//! Minimal JSON emission and probing: the one JSON writer of the workspace.
//!
//! The container has no `serde`, and every JSON report (the CLI's `--json`
//! and `--sarif` outputs, the observability exports, and the `BENCH_*.json`
//! artifacts) only needs a writer plus a tiny probe for tests, so this
//! module hand-rolls both: [`Value`] renders pretty-printed JSON with
//! stable key order (objects are ordered pairs, not maps), so a
//! regenerated artifact is byte-identical to the committed one unless a
//! value changed; and [`find_number`] extracts a numeric field by key from
//! JSON text without a full parser.

/// A JSON value. Objects preserve insertion order so emitted artifacts diff
/// cleanly between runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Unsigned integer (rendered without a decimal point).
    Int(u64),
    /// Floating-point number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Self {
                Value::Int(n as u64)
            }
        }
    )*};
}
from_unsigned!(u8, u32, u64, usize);

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl Value {
    /// Builds an object from `(key, value)` pairs, keeping their order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from any sequence of values.
    pub fn arr(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Arr(items.into_iter().collect())
    }

    /// Renders the value as pretty-printed JSON with a trailing newline.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Num(x) => {
                if x.is_finite() {
                    // Always include a decimal point so the type is stable
                    // across runs whose values happen to be integral.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        out.push_str(&format!("{x:.1}"));
                    } else {
                        out.push_str(&format!("{x}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Value::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    Value::Str(key.clone()).write(out, depth + 1);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Finds the first `"key": <number>` occurrence in JSON text and returns the
/// number. Not a general parser: it assumes the key is a unique leaf whose
/// value is a bare number, which holds for every artifact this crate emits.
#[must_use]
pub fn find_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The keys at nesting `depth` of a document rendered by [`Value::render`],
/// in document order (the writer indents each level by two spaces).
#[cfg(test)]
pub(crate) fn object_keys(text: &str, depth: usize) -> Vec<&str> {
    let indent = "  ".repeat(depth);
    text.lines()
        .filter_map(|line| line.strip_prefix(indent.as_str())?.strip_prefix('"'))
        .filter_map(|rest| rest.split_once("\": ").map(|(key, _)| key))
        .collect()
}

/// The keys of the first run object of a `BENCH_*.json` scenario report:
/// depth-2 keys up to the first one that repeats.
#[cfg(test)]
pub(crate) fn first_run_keys(text: &str) -> Vec<&str> {
    let mut keys = Vec::new();
    for key in object_keys(text, 2) {
        if keys.contains(&key) {
            break;
        }
        keys.push(key);
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::Obj(vec![
            ("name".into(), Value::Str("qarma \"fast\"".into())),
            ("blocks_per_sec".into(), Value::Num(1.5e7)),
            ("count".into(), Value::Int(42)),
            (
                "rows".into(),
                Value::Arr(vec![Value::Obj(vec![("x".into(), Value::Num(2.0))])]),
            ),
            ("empty".into(), Value::Arr(vec![])),
            ("flag".into(), Value::Bool(true)),
        ])
    }

    #[test]
    fn renders_and_probes_round_trip() {
        let text = sample().render();
        assert!(text.contains("\"qarma \\\"fast\\\"\""));
        assert_eq!(find_number(&text, "blocks_per_sec"), Some(1.5e7));
        assert_eq!(find_number(&text, "count"), Some(42.0));
        assert_eq!(find_number(&text, "x"), Some(2.0));
        assert_eq!(find_number(&text, "missing"), None);
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(
            Value::from("a\"b\\c\nd\u{1}").render(),
            "\"a\\\"b\\\\c\\nd\\u0001\"\n"
        );
    }

    #[test]
    fn constructors_keep_order_and_types() {
        let v = Value::obj([("b", 2u32.into()), ("a", true.into())]);
        assert_eq!(v.render(), "{\n  \"b\": 2,\n  \"a\": true\n}\n");
        assert_eq!(Value::arr([]).render(), "[]\n");
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        assert_eq!(Value::Num(2.0).render(), "2.0\n");
        assert_eq!(Value::Int(2).render(), "2\n");
    }

    #[test]
    fn find_number_handles_negatives_and_exponents() {
        let text = "{\n  \"a\": -0.25,\n  \"b\": 3e8\n}";
        assert_eq!(find_number(text, "a"), Some(-0.25));
        assert_eq!(find_number(text, "b"), Some(3e8));
    }
}
