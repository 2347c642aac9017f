//! JSON values for the benchmark's output files.
//!
//! Parsing reuses the parser the repo's report tools already share
//! (`dimboost_bench::json`); this module only adds the inverse direction
//! for the same [`Json`] tree, so every file the benchmark writes is built
//! as a value and serialized in one place.

pub use dimboost_bench::json::{parse, Json};

/// Shorthand for an object from `(key, value)` pairs, keys in the given
/// order.
pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A number; non-finite values become `null` (JSON has no NaN/inf).
pub fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

/// A string value.
pub fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// An array of numbers.
pub fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| num(v)).collect())
}

/// Serializes `value` compactly (no whitespace) — one line, as the
/// driver's last-line contract needs.
pub fn to_string(value: &Json) -> String {
    let mut out = String::new();
    write_value(value, &mut out);
    out
}

fn write_value(value: &Json, out: &mut String) {
    use std::fmt::Write as _;
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(v) => {
            // Whole numbers in the exactly-representable range print
            // without a fraction (counts, byte totals); everything else
            // uses the shortest round-trip form, all digits kept.
            if v.fract() == 0.0 && v.abs() < 9.0e15 {
                let _ = write!(out, "{}", *v as i64);
            } else {
                let _ = write!(out, "{v}");
            }
        }
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    use std::fmt::Write as _;
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
    fn serialized_values_parse_back_to_themselves() {
        let value = obj([
            ("name", text("a \"quoted\"\nline\\")),
            ("whole", num(1234567.0)),
            ("fraction", num(0.1 + 0.2)),
            ("nan", num(f64::NAN)),
            ("list", nums(&[1.5, -2.0])),
            ("flag", Json::Bool(true)),
        ]);
        let line = to_string(&value);
        assert!(!line.contains('\n'));
        assert_eq!(parse(&line).unwrap(), value);
        assert!(line.contains("\"whole\":1234567,"));
    }
}
