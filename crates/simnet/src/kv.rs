//! The one owner of the `keyword key=value …` line grammar behind every
//! text file the tools read back — the fault plan ([`crate::fault`]), the
//! events-text trace ([`crate::trace`]) and the serve-sim trace
//! (`dimboost_serving::analyze`). The mirror of [`crate::emit`]: that module
//! owns what is written, this one what is read. The binary-side counterpart
//! is `dimboost_core`'s byte cursor.
//!
//! # Reading rules
//!
//! * A line is a keyword followed by whitespace-separated `key=value`
//!   tokens. A token without `=` is an error, and so is a key given twice.
//! * Getters remove what they read. A reader that owns the whole line
//!   goes through [`Fields::strict`], which rejects whatever nobody asked
//!   for; a reader that deliberately takes a subset (the serve-sim
//!   analyzer) uses [`Fields::parse`] and lets the rest go.
//! * Numbers go through [`value`]: `FromStr`, and anything that reads as a
//!   non-finite `f64` (`nan`, `inf`, an overflowing literal) is malformed,
//!   whatever the field.
//! * Every failure is one [`LineError`] — 1-based line number and message —
//!   which each file's public error type wraps.
//! * A count taken from a header is a promise to check, never an
//!   allocation size: readers size by the text that follows it.
//!
//! Deliberately outside: `data::{libsvm, csv}` (their own `idx:val` grammar,
//! already typed errors, and a measured path), `bench::json`, and the
//! in-process wire frames (`simnet::wire`, `ps::sparse`, `ps::quantize`).

use std::str::FromStr;

/// One malformed line: where, and what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for LineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LineError {}

/// Splits a line into its keyword and the text after it (both trimmed; a
/// blank line has an empty keyword).
pub fn keyword(text: &str) -> (&str, &str) {
    let text = text.trim();
    text.split_once(char::is_whitespace).unwrap_or((text, ""))
}

/// Parses one number: `raw` is the text given for `key` on line `line`.
pub fn value<T: FromStr>(line: usize, key: &str, raw: &str) -> Result<T, LineError> {
    // Every numeric type a field parses into also reads as an f64, so the
    // finite rule needs no per-type code.
    let finite = raw.parse::<f64>().map_or(true, f64::is_finite);
    let message = match raw.parse() {
        Ok(value) if finite => return Ok(value),
        Ok(_) => format!("{key} must be finite, got {raw}"),
        Err(_) => format!("bad {key} value {raw:?}"),
    };
    Err(LineError { line, message })
}

/// The `key=value` tokens of one line that no getter has taken yet.
#[derive(Debug)]
pub struct Fields<'a> {
    line: usize,
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    /// Tokenises `text` — a line without its keyword.
    pub fn parse(line: usize, text: &'a str) -> Result<Self, LineError> {
        let mut fields = Fields {
            line,
            pairs: Vec::new(),
        };
        for token in text.split_whitespace() {
            let Some((key, value)) = token.split_once('=') else {
                return Err(fields.error(format!("expected key=value, got {token:?}")));
            };
            if fields.pairs.iter().any(|(seen, _)| *seen == key) {
                return Err(fields.error(format!("repeated key {key:?}")));
            }
            fields.pairs.push((key, value));
        }
        Ok(fields)
    }

    /// Tokenises `text`, lets `read` take what it knows, and rejects the
    /// line if anything is left over.
    pub fn strict<R>(
        line: usize,
        text: &'a str,
        read: impl FnOnce(&mut Self) -> Result<R, LineError>,
    ) -> Result<R, LineError> {
        let mut fields = Self::parse(line, text)?;
        let out = read(&mut fields)?;
        match fields.pairs.first() {
            Some((key, _)) => Err(fields.error(format!("unknown key {key:?}"))),
            None => Ok(out),
        }
    }

    /// An error on this line.
    pub fn error(&self, message: String) -> LineError {
        LineError {
            line: self.line,
            message,
        }
    }

    /// Removes `key` and returns its text, if the line has it.
    pub fn take(&mut self, key: &str) -> Option<&'a str> {
        let at = self.pairs.iter().position(|(k, _)| *k == key)?;
        Some(self.pairs.remove(at).1)
    }

    /// The text of a required field.
    pub fn str(&mut self, key: &str) -> Result<&'a str, LineError> {
        self.take(key)
            .ok_or_else(|| self.error(format!("missing {key}=")))
    }

    /// A required number.
    pub fn get<T: FromStr>(&mut self, key: &str) -> Result<T, LineError> {
        value(self.line, key, self.str(key)?)
    }

    /// A required field drawn from a fixed vocabulary, looked up by `named`.
    pub fn named<T>(
        &mut self,
        key: &str,
        named: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, LineError> {
        let raw = self.str(key)?;
        named(raw).ok_or_else(|| self.error(format!("unknown {key} {raw:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_splits_on_any_whitespace() {
        assert_eq!(keyword("  crash round=2 "), ("crash", "round=2"));
        assert_eq!(keyword("seed\t42"), ("seed", "42"));
        assert_eq!(keyword("lonely"), ("lonely", ""));
        assert_eq!(keyword("   "), ("", ""));
    }

    #[test]
    fn getters_remove_what_they_read_and_strict_rejects_the_rest() {
        let read = |text: &'static str| {
            Fields::strict(3, text, |f| {
                Ok((f.get::<u32>("worker")?, f.get::<f64>("factor")?))
            })
        };
        assert_eq!(read("factor=2.5 worker=1"), Ok((1, 2.5)));
        let message = |text| read(text).unwrap_err().to_string();
        assert_eq!(message("worker=1"), "line 3: missing factor=");
        assert_eq!(
            message("worker=1 factor=2 typo=1"),
            "line 3: unknown key \"typo\""
        );
        assert_eq!(
            message("worker=1 worker=2 factor=2"),
            "line 3: repeated key \"worker\""
        );
        assert_eq!(
            message("worker=1 factor=2 bare"),
            "line 3: expected key=value, got \"bare\""
        );
        assert_eq!(
            message("worker=-1 factor=2"),
            "line 3: bad worker value \"-1\""
        );
        // A subset reader parses and simply does not finish.
        let mut f = Fields::parse(1, "t=0.5 req=7 tenant=0").unwrap();
        assert_eq!(f.get::<f64>("t"), Ok(0.5));
        assert_eq!(f.take("nope"), None);
        assert_eq!(f.str("req"), Ok("7"));
    }

    #[test]
    fn every_float_must_be_finite() {
        for raw in ["nan", "NaN", "inf", "-inf", "infinity", "1e999"] {
            let err = value::<f64>(7, "dur", raw).unwrap_err();
            assert_eq!(err.line, 7);
            assert!(err.message.contains("must be finite"), "{raw}: {err}");
        }
        assert_eq!(value::<f64>(1, "dur", "1e-300"), Ok(1e-300));
        // Integers that happen to be large are not floats.
        assert_eq!(
            value::<u64>(1, "seed", "18446744073709551615"),
            Ok(u64::MAX)
        );
        assert!(value::<u64>(1, "seed", "inf").is_err());
    }

    #[test]
    fn named_fields_report_the_vocabulary_miss() {
        let mut f = Fields::parse(2, "policy=shrug").unwrap();
        let err = f
            .named("policy", |p| (p == "abort").then_some(()))
            .unwrap_err();
        assert_eq!(err.to_string(), "line 2: unknown policy \"shrug\"");
    }
}
