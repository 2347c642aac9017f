//! The one owner of the JSON text format every report and profile in the
//! workspace is written in, plus the checksum and quantile primitives those
//! documents carry — one copy, so the byte-stability the `cmp` gates rely on
//! cannot drift between crates.
//!
//! # Emission rules
//!
//! * Members and elements appear in call order; [`JsonWriter`] owns every
//!   separator, so an emitter never writes a comma, a quote or a brace.
//! * Numbers are the shortest decimal that round-trips (`f64`/`f32`
//!   `Display`, deterministic and platform-independent); integers are
//!   written as `u64`, never through a float; non-finite → `null`.
//! * Strings are escaped (`"`, `\`, control characters).
//! * A writer is [`canonical`](JsonWriter::canonical) or
//!   [`timed`](JsonWriter::timed) for its whole life. `wall_*` members —
//!   wall-clock measurements that differ on every run — are written only
//!   by a timed writer, so *canonical = timed minus wall* holds by
//!   construction for every document.
//! * One compact layout: no whitespace, no trailing newline.

use std::fmt::{Display, Write};

fn push_num(out: &mut String, finite: bool, v: impl Display) {
    if finite {
        write!(out, "{v}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// Shortest round-trip decimal form of `v` as a JSON number (non-finite →
/// `null`). `f64` Display is deterministic and platform-independent.
pub fn fmt_f64(v: f64) -> String {
    let mut out = String::new();
    push_num(&mut out, v.is_finite(), v);
    out
}

/// A streaming writer for one JSON object document; see the module docs for
/// the format it owns. Streaming rather than a value tree because the
/// reports print `u64` checksums and seeds an `f64`-backed number cannot
/// carry.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    /// Whether `wall_*` members are written. Crate-visible so the shared
    /// structs can drop a whole wall-clock array element; emitters outside
    /// this crate cannot branch on it.
    pub(crate) wall: bool,
    /// The innermost open container already holds a value.
    separate: bool,
}

impl JsonWriter {
    fn new(wall: bool) -> Self {
        Self {
            out: String::from("{"),
            wall,
            separate: false,
        }
    }

    /// A writer that skips every `wall_*` member: its document is
    /// byte-identical across reruns of the same configuration.
    pub fn canonical() -> Self {
        Self::new(false)
    }

    /// A writer that keeps the wall-clock members.
    pub fn timed() -> Self {
        Self::new(true)
    }

    /// Closes the document and returns its text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }

    fn separator(&mut self) {
        if self.separate {
            self.out.push(',');
        }
        self.separate = true;
    }

    fn string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' | '\\' => {
                    self.out.push('\\');
                    self.out.push(c);
                }
                c if c < ' ' => write!(self.out, "\\u{:04x}", c as u32)
                    .expect("writing to a String cannot fail"),
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    fn key(&mut self, key: &str) {
        self.separator();
        self.string(key);
        self.out.push(':');
    }

    fn nested(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) {
        self.out.push(open);
        self.separate = false;
        body(self);
        self.out.push(close);
        self.separate = true;
    }

    /// `"key":v` in the open object.
    pub fn u64(&mut self, key: &str, v: u64) {
        self.key(key);
        push_num(&mut self.out, true, v);
    }

    /// `"key":v` in the open object (non-finite → `null`).
    pub fn f64(&mut self, key: &str, v: f64) {
        self.key(key);
        push_num(&mut self.out, v.is_finite(), v);
    }

    /// `"key":v` in the open object, printed at `f32` precision.
    pub fn f32(&mut self, key: &str, v: f32) {
        self.key(key);
        push_num(&mut self.out, v.is_finite(), v);
    }

    /// `"key":true|false` in the open object.
    pub fn bool(&mut self, key: &str, v: bool) {
        self.key(key);
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// `"key":"v"` in the open object, `v` escaped.
    pub fn str(&mut self, key: &str, v: &str) {
        self.key(key);
        self.string(v);
    }

    /// [`JsonWriter::f64`] for a wall-clock measurement: written by a timed
    /// writer, skipped by a canonical one.
    pub fn wall_f64(&mut self, key: &str, v: f64) {
        if self.wall {
            self.f64(key, v);
        }
    }

    /// `"key":{…}` in the open object; `members` fills it.
    pub fn object(&mut self, key: &str, members: impl FnOnce(&mut Self)) {
        self.key(key);
        self.nested('{', '}', members);
    }

    /// `"key":[…]` in the open object; `element` is called once per item
    /// and writes that item with an `elem_*` method (or nothing, to leave
    /// the item out).
    pub fn array<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut element: impl FnMut(&mut Self, T),
    ) {
        self.key(key);
        self.nested('[', ']', |w| {
            for item in items {
                element(w, item);
            }
        });
    }

    /// `{…}` as the next element of the open array.
    pub fn elem_object(&mut self, members: impl FnOnce(&mut Self)) {
        self.separator();
        self.nested('{', '}', members);
    }

    /// `v` as the next element of the open array, at `f32` precision.
    pub fn elem_f32(&mut self, v: f32) {
        self.separator();
        push_num(&mut self.out, v.is_finite(), v);
    }
}

/// FNV-1a 64 offset basis — the checksum of an empty stream.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one value's little-endian bytes into a running FNV-1a 64 hash.
/// Seed with [`FNV_OFFSET`]; feeding values one at a time matches hashing
/// the concatenated byte stream, so a checksum pins both the *bits* and the
/// *order*.
pub fn fnv1a64_extend(mut hash: u64, value: f32) -> u64 {
    for b in value.to_le_bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Exact nearest-rank quantile over an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (q * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_use_the_shortest_round_trip_form() {
        assert_eq!(fmt_f64(0.1), "0.1");
        assert_eq!(fmt_f64(2.0), "2");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    fn sample(mut w: JsonWriter) -> String {
        w.str("kind", "t");
        w.u64("checksum", u64::MAX);
        w.wall_f64("wall_secs", 0.5);
        w.f32("scale", 0.1);
        w.bool("ok", true);
        w.object("empty", |_| {});
        w.object("comm", |w| {
            w.wall_f64("secs", 1.0);
            w.f64("sim", f64::NAN);
        });
        w.array("gains", [2.25f32, f32::INFINITY], |w, g| w.elem_f32(g));
        w.array("rows", 0..3u64, |w, i| {
            // Element 1 writes nothing: it leaves no separator behind.
            if i != 1 {
                w.elem_object(|w| w.u64("i", i));
            }
        });
        w.f64("last", -0.0);
        w.finish()
    }

    #[test]
    fn writer_owns_separators_and_nesting() {
        assert_eq!(
            sample(JsonWriter::timed()),
            "{\"kind\":\"t\",\"checksum\":18446744073709551615,\"wall_secs\":0.5,\
             \"scale\":0.1,\"ok\":true,\"empty\":{},\"comm\":{\"secs\":1,\"sim\":null},\
             \"gains\":[2.25,null],\"rows\":[{\"i\":0},{\"i\":2}],\"last\":-0}"
        );
    }

    #[test]
    fn canonical_is_timed_minus_the_wall_members() {
        assert_eq!(
            sample(JsonWriter::canonical()),
            "{\"kind\":\"t\",\"checksum\":18446744073709551615,\
             \"scale\":0.1,\"ok\":true,\"empty\":{},\"comm\":{\"sim\":null},\
             \"gains\":[2.25,null],\"rows\":[{\"i\":0},{\"i\":2}],\"last\":-0}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let mut w = JsonWriter::canonical();
        w.str("a\"b", "q\"b\\s\n\u{1}é");
        assert_eq!(w.finish(), "{\"a\\\"b\":\"q\\\"b\\\\s\\u000a\\u0001é\"}");
    }

    #[test]
    fn fnv_matches_the_byte_stream_definition() {
        let values = [0.25f32, -1.5, 3.0e-7, f32::from_bits(0x7fc0_1234)];
        let mut stream = FNV_OFFSET;
        for b in values.iter().flat_map(|v| v.to_le_bytes()) {
            stream ^= b as u64;
            stream = stream.wrapping_mul(FNV_PRIME);
        }
        let fold = |values: &[f32]| values.iter().fold(FNV_OFFSET, |h, &v| fnv1a64_extend(h, v));
        assert_eq!(fold(&values), stream);
        assert_eq!(fold(&[]), FNV_OFFSET);
        // Bit- and order-sensitive.
        assert_ne!(fold(&[0.0]), fold(&[-0.0]));
        assert_ne!(fold(&[1.0, 2.0]), fold(&[2.0, 1.0]));
    }

    #[test]
    fn nearest_rank_quantiles() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
    }
}
