//! The primitives every canonical report and profile in the workspace is
//! emitted with — one copy, so the byte-stability the `cmp` gates rely on
//! cannot drift between crates.

/// Shortest round-trip decimal form of `v` as a JSON number (non-finite →
/// `null`). `f64` Display is deterministic and platform-independent.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Appends `"key":value` to a JSON object under construction, with a
/// leading comma unless it is the `first` member. `value` is emitted
/// verbatim.
pub fn push_field(out: &mut String, key: &str, value: &str, first: bool) {
    if !first {
        out.push(',');
    }
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(value);
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

/// FNV-1a 64 over the little-endian bytes of `values`.
pub fn fnv1a64(values: &[f32]) -> u64 {
    values.iter().fold(FNV_OFFSET, |h, &v| fnv1a64_extend(h, v))
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
    fn numbers_and_fields() {
        assert_eq!(fmt_f64(0.1), "0.1");
        assert_eq!(fmt_f64(2.0), "2");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        let mut out = String::from("{");
        push_field(&mut out, "a", "1", true);
        push_field(&mut out, "b", "\"x\"", false);
        assert_eq!(out, "{\"a\":1,\"b\":\"x\"");
    }

    #[test]
    fn fnv_matches_the_byte_stream_definition() {
        let values = [0.25f32, -1.5, 3.0e-7, f32::from_bits(0x7fc0_1234)];
        let mut stream = FNV_OFFSET;
        for b in values.iter().flat_map(|v| v.to_le_bytes()) {
            stream ^= b as u64;
            stream = stream.wrapping_mul(FNV_PRIME);
        }
        assert_eq!(fnv1a64(&values), stream);
        assert_eq!(fnv1a64(&[]), FNV_OFFSET);
        // Bit- and order-sensitive.
        assert_ne!(fnv1a64(&[0.0]), fnv1a64(&[-0.0]));
        assert_ne!(fnv1a64(&[1.0, 2.0]), fnv1a64(&[2.0, 1.0]));
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
