//! JSON for the benchmark: the reader is `vr_bench::json`, the repo's own;
//! here are the two accessors it lacks and the writer side.

pub use vr_bench::json::{parse, Value};

/// The number, if `v` is a whole number that fits a `u64`.
pub fn as_u64(v: &Value) -> Option<u64> {
    v.as_f64()
        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
        .map(|n| n as u64)
}

pub fn as_bool(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

/// Render a parsed value back to JSON text.
pub fn render(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Number(n) => number(*n),
        Value::String(s) => quote(s),
        Value::Array(items) => {
            format!(
                "[{}]",
                items.iter().map(render).collect::<Vec<_>>().join(", ")
            )
        }
        Value::Object(map) => format!(
            "{{{}}}",
            map.iter()
                .map(|(k, v)| format!("{}: {}", quote(k), render(v)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

/// A JSON string literal for `s`.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A JSON number for a measurement: every digit `f64` holds (whole numbers
/// without a fraction), and `0` for a value JSON cannot carry.
pub fn number(v: f64) -> String {
    if !v.is_finite() {
        "0".to_string()
    } else if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{v:.0}")
    } else {
        format!("{v:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_numbers_and_booleans_read_as_such() {
        let v = parse(r#"{"a": [1, 2.5, -3], "t": true}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(as_u64(&a[0]), Some(1));
        assert_eq!(as_u64(&a[1]), None);
        assert_eq!(as_u64(&a[2]), None);
        assert_eq!(as_bool(v.get("t").unwrap()), Some(true));
        assert_eq!(as_bool(&a[0]), None);
    }

    #[test]
    fn written_values_read_back() {
        let s = "tab\there \"quoted\" \\ \u{1}";
        assert_eq!(parse(&quote(s)).unwrap().as_str(), Some(s));
        for v in [0.1 + 0.2, 44.012345678901234, 1e-9, 3.0] {
            assert_eq!(parse(&number(v)).unwrap().as_f64(), Some(v));
        }
        assert_eq!(number(f64::NAN), "0");
        let doc = r#"{"a": [1, 2.5, true, null], "b": {"c": "d"}}"#;
        assert_eq!(render(&parse(doc).unwrap()), doc);
    }
}
