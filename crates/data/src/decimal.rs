//! Decimal text for the LibSVM writer: `f32` values byte for byte as `{}`
//! prints them, and plain unsigned integers.
//!
//! [`push_f32`] is the 32-bit Ryū algorithm (Adams, "Ryū: fast
//! float-to-string conversion", PLDI 2018): the shortest digits inside the
//! value's rounding interval, closest to the value. It differs from the
//! paper's in three ways, all so that a file written with it is the file
//! `write!(w, "{v}")` wrote:
//!
//! * Both power-of-five tables are computed below in `const` blocks from
//!   `u128` arithmetic rather than copied in as literals.
//! * An exact tie between two shortest candidates rounds **up**, as `std`'s
//!   Grisu/Dragon does (`0x3ebd0000` = 0.369140625 prints `0.36914063`), not
//!   to even. With ties going up, whether the dropped digits are all zero
//!   never matters, so the paper's `vrIsTrailingZeros` bookkeeping is gone.
//! * The digits are laid out as `Display` lays them out: never an exponent,
//!   integers padded with zeros, `0.000…` before small values, `-0`, `NaN`,
//!   `inf`, `-inf`.
//!
//! The unit tests compare with `format!("{}", v)` on a sweep of bit
//! patterns and named edge cases; an `#[ignore]`d test compares all 2³².

/// Bits of the stored mantissa of an `f32`.
const MANTISSA_BITS: i32 = 23;
/// Exponent bias of an `f32`.
const BIAS: i32 = 127;
/// Bits of every [`POW5_INV`] entry's scale (the paper's
/// `FLOAT_POW5_INV_BITCOUNT`).
const POW5_INV_BITCOUNT: i32 = 59;
/// Bit length of every [`POW5`] entry (`FLOAT_POW5_BITCOUNT`).
const POW5_BITCOUNT: i32 = 61;

/// Bit length of `5^e` — `ceil(log2(5^e))`, and 1 for `e = 0`; exact for
/// `0 <= e <= 3528`.
const fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))` for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> i32 {
    ((e as u32 * 78_913) >> 18) as i32
}

/// `floor(log10(5^e))` for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> i32 {
    ((e as u32 * 732_923) >> 20) as i32
}

/// `floor(2^(pow5bits(q) - 1 + 59) / 5^q) + 1` for `q` in `0..=30`: a
/// 59-bit-scaled reciprocal of `5^q`, rounded up. `q = 30` (the largest
/// `log10_pow2` of a finite `f32`'s exponent) would need `2^128`; `5^30`
/// does not divide it, so `u128::MAX` floors to the same quotient.
const POW5_INV: [u64; 31] = {
    let mut table = [0; 31];
    let mut q = 0;
    while q < table.len() {
        let shift = pow5bits(q as i32) - 1 + POW5_INV_BITCOUNT;
        let scale = match shift {
            128 => u128::MAX,
            _ => 1 << shift,
        };
        table[q] = (scale / 5u128.pow(q as u32) + 1) as u64;
        q += 1;
    }
    table
};

/// `5^i` shifted to exactly 61 significant bits (truncated) for `i` in
/// `0..=47`; the largest, `5^47`, is below `2^110`.
const POW5: [u64; 48] = {
    let mut table = [0; 48];
    let mut i = 0;
    while i < table.len() {
        let pow5 = 5u128.pow(i as u32);
        let bits = pow5bits(i as i32);
        table[i] = match bits > POW5_BITCOUNT {
            true => pow5 >> (bits - POW5_BITCOUNT),
            false => pow5 << (POW5_BITCOUNT - bits),
        } as u64;
        i += 1;
    }
    table
};

/// `floor(m · factor / 2^shift)`; the callers' shifts keep it below `2^32`.
fn mul_shift(m: u32, factor: u64, shift: i32) -> u32 {
    ((u128::from(m) * u128::from(factor)) >> shift) as u32
}

/// Whether `5^p` divides the nonzero `value`.
fn multiple_of_pow5(mut value: u32, p: i32) -> bool {
    for _ in 0..p {
        if !value.is_multiple_of(5) {
            return false;
        }
        value /= 5;
    }
    true
}

/// The shortest `(digits, exponent)` whose `digits · 10^exponent` lies in
/// the rounding interval of the finite nonzero `f32` with these exponent
/// and mantissa fields, closest to its exact value, exact ties rounded up.
fn shortest(ieee_exponent: u32, ieee_mantissa: u32) -> (u32, i32) {
    // Two extra bits so that the interval bounds are integers.
    let (e2, m2) = match ieee_exponent {
        0 => (1 - BIAS - MANTISSA_BITS - 2, ieee_mantissa),
        _ => (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        ),
    };
    // The parser rounds halfway to even, so an even mantissa owns both
    // interval bounds.
    let accept_bounds = m2 % 2 == 0;
    let mv = 4 * m2;
    let mp = 4 * m2 + 2;
    // The interval below a power of two is half as wide.
    let mm_shift = u32::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let mm = 4 * m2 - 1 - mm_shift;

    // Scale the interval to decimal: v· ≈ m· · 2^e2 / 10^e10.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_trailing_zeros = false;
    let mut last_removed = 0;
    if e2 >= 0 {
        let q = log10_pow2(e2);
        e10 = q;
        let shift = -e2 + q + POW5_INV_BITCOUNT + pow5bits(q) - 1;
        let factor = POW5_INV[q as usize];
        vr = mul_shift(mv, factor, shift);
        vp = mul_shift(mp, factor, shift);
        vm = mul_shift(mm, factor, shift);
        if q != 0 && (vp - 1) / 10 <= vm / 10 {
            // The loop below may not run, but rounding needs the digit
            // after `vr`'s last one.
            let shift = -e2 + q - 1 + POW5_INV_BITCOUNT + pow5bits(q - 1) - 1;
            last_removed = mul_shift(mv, POW5_INV[q as usize - 1], shift) % 10;
        }
        // At most one of mp, mv, mm is a multiple of 5.
        if q <= 9 && mv % 5 != 0 {
            match accept_bounds {
                true => vm_trailing_zeros = multiple_of_pow5(mm, q),
                false => vp -= u32::from(multiple_of_pow5(mp, q)),
            }
        }
    } else {
        let q = log10_pow5(-e2);
        e10 = q + e2;
        let i = -e2 - q;
        let shift = q - (pow5bits(i) - POW5_BITCOUNT);
        let factor = POW5[i as usize];
        vr = mul_shift(mv, factor, shift);
        vp = mul_shift(mp, factor, shift);
        vm = mul_shift(mm, factor, shift);
        if q != 0 && (vp - 1) / 10 <= vm / 10 {
            let shift = q - 1 - (pow5bits(i + 1) - POW5_BITCOUNT);
            last_removed = mul_shift(mv, POW5[i as usize + 1], shift) % 10;
        }
        // mm has one trailing zero bit exactly when mm_shift is 1; mp
        // always has one.
        if q <= 1 {
            match accept_bounds {
                true => vm_trailing_zeros = mm_shift == 1,
                false => vp -= 1,
            }
        }
    }

    // Drop digits while the interval still holds a shorter number.
    let mut removed = 0;
    while vp / 10 > vm / 10 {
        vm_trailing_zeros &= vm % 10 == 0;
        last_removed = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    // An included lower bound ending in zeros allows shorter still.
    if vm_trailing_zeros {
        while vm % 10 == 0 {
            last_removed = vr % 10;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    let round_up = (vr == vm && (!accept_bounds || !vm_trailing_zeros)) || last_removed >= 5;
    (vr + u32::from(round_up), e10 + removed)
}

/// Appends `v` as `format!("{}", v)` would print it.
pub(crate) fn push_f32(out: &mut Vec<u8>, v: f32) {
    let bits = v.to_bits();
    let negative = bits >> 31 != 0;
    let ieee_exponent = (bits >> MANTISSA_BITS) & 0xff;
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    if ieee_exponent == 0xff {
        out.extend_from_slice(match (ieee_mantissa != 0, negative) {
            (true, _) => b"NaN",
            (false, false) => b"inf",
            (false, true) => b"-inf",
        });
        return;
    }
    if negative {
        out.push(b'-');
    }
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.push(b'0');
        return;
    }
    // The digits never end in a zero (the exhaustive test would see a
    // `0.10` where `Display` prints `0.1`), so the layout needs no trim.
    let (digits, exponent) = shortest(ieee_exponent, ieee_mantissa);
    let mut buf = [0; 20];
    let digits = ascii_digits(u64::from(digits), &mut buf);
    let len = digits.len() as i32;
    // Digits before the decimal point.
    let point = exponent + len;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + (-point) as usize, b'0');
        out.extend_from_slice(digits);
    } else if point < len {
        let (whole, fraction) = digits.split_at(point as usize);
        out.extend_from_slice(whole);
        out.push(b'.');
        out.extend_from_slice(fraction);
    } else {
        out.extend_from_slice(digits);
        out.resize(out.len() + (point - len) as usize, b'0');
    }
}

/// Appends `n` in decimal.
pub(crate) fn push_u64(out: &mut Vec<u8>, n: u64) {
    let mut buf = [0; 20];
    out.extend_from_slice(ascii_digits(n, &mut buf));
}

/// `n`'s decimal digits, written at the end of `buf`.
fn ascii_digits(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &buf[at..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every bit pattern in `bits` that `push_f32` prints differently from
    /// `{}`, with both texts (at most the first ten).
    fn mismatches(bits: impl Iterator<Item = u32>) -> Vec<(u32, String, String)> {
        let (mut ours, mut theirs) = (Vec::new(), String::new());
        let mut found = Vec::new();
        for b in bits {
            let v = f32::from_bits(b);
            ours.clear();
            push_f32(&mut ours, v);
            theirs.clear();
            std::fmt::Write::write_fmt(&mut theirs, format_args!("{v}")).unwrap();
            if ours != theirs.as_bytes() && found.len() < 10 {
                found.push((
                    b,
                    String::from_utf8_lossy(&ours).into_owned(),
                    theirs.clone(),
                ));
            }
        }
        found
    }

    #[test]
    fn tables_match_the_papers_first_entries() {
        assert_eq!(POW5_INV[0], (1 << 59) + 1);
        assert_eq!(POW5_INV[1], 461_168_601_842_738_791);
        assert_eq!(POW5[0], 1 << 60);
        assert_eq!(POW5[1], 5 << 58);
        for t in POW5 {
            assert_eq!(64 - t.leading_zeros(), 61);
        }
    }

    #[test]
    fn matches_display_on_a_sweep_of_bit_patterns() {
        let sweep = (0..=u32::MAX / 65_537).map(|k| k * 65_537);
        assert_eq!(mismatches(sweep), vec![]);
    }

    #[test]
    fn matches_display_on_edge_cases() {
        let mut named = vec![
            0.0f32,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            f32::EPSILON,
            f32::from_bits(0x3ebd_0000),
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0,
            0.5,
            9.96,
            123_456_790.0,
            16_777_216.0,
        ];
        named.extend((-45..=38).map(|e| format!("1e{e}").parse::<f32>().unwrap()));
        let bits: Vec<u32> = named.iter().map(|v| v.to_bits()).collect();
        assert_eq!(mismatches(bits.into_iter()), vec![]);
        // The tie rule: 0.369140625 is exactly halfway between the two
        // eight-digit candidates; `std` takes the upper one.
        let mut out = Vec::new();
        push_f32(&mut out, f32::from_bits(0x3ebd_0000));
        assert_eq!(out, b"0.36914063");
    }

    /// All 2³² bit patterns, split over two threads (about 12 CPU-minutes
    /// in release): `cargo test --release -p dimboost-data -- --ignored`.
    #[test]
    #[ignore]
    fn matches_display_on_every_bit_pattern() {
        let half = 1u64 << 31;
        let found: Vec<_> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2u64)
                .map(|t| s.spawn(move || mismatches((t * half..(t + 1) * half).map(|b| b as u32))))
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        assert_eq!(found, vec![]);
    }

    #[test]
    fn integers_print_plainly() {
        for n in [0, 1, 9, 10, 99, 100, 4_294_967_296, u64::MAX] {
            let mut out = Vec::new();
            push_u64(&mut out, n);
            assert_eq!(out, n.to_string().as_bytes());
        }
    }
}
