//! Low-precision gradient histograms (Section 6.1, Appendix A.1).
//!
//! Before a worker pushes a local histogram to the parameter server, each
//! 32-bit float `q` is encoded as a `d`-bit fixed-point integer relative to
//! the histogram's max-absolute value `c`. Rounding is *stochastic*: the
//! fractional part becomes a Bernoulli coin, so the decoded value is an
//! unbiased estimator of the original (`E[q''] = q`), which is what keeps
//! the expected split gain unchanged (Appendix A.1). With `d = 8` this
//! compresses the histogram 4× with no measurable accuracy loss in the
//! paper's experiments.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::HistogramLayout;

/// Number of positive quantization levels for a `d`-bit signed code:
/// `2^(d−1) − 1`.
///
/// Public because the quantized histogram *accumulator*
/// (`dimboost-core::hist_build`) reuses the exact same level count so its
/// fixed-point grid matches the wire quantizer's (DESIGN.md §15).
pub fn levels(bits: u8) -> u32 {
    (1u32 << (bits - 1)) - 1
}

/// Decodes one feature-block slice of codes and adds it into `acc`.
///
/// The dense quantized push's dequantize-add kernel
/// ([`QuantizedRow::add_features_into`]). Every element takes the f32
/// expression `(code − zero_pt) as f32 / levels · scale`, zero buckets
/// verbatim; the sparse block frames (`crate::sparse`) decode with the same
/// expression and skip only the elements it would map to `+0.0`, which is
/// what makes the sparse wire format bit-identical to the dense one.
///
/// `scales`/`zero_values` are block-relative (2 entries per feature of
/// `features`, G then H); `codes` covers exactly
/// `layout.elem_range(features)`.
///
/// Every accumulator element receives exactly one add, so the order inside
/// a block is free: the zero bucket's exact value is added first, then the
/// two code runs either side of it as plain loops with no per-element
/// branch. A block whose scale is zero is skipped whole — each of its
/// elements would decode to `x / levels · 0 = ±0.0`, and adding a zero of
/// either sign leaves every accumulator the server can hold unchanged:
/// they start at `+0.0` and only ever take sums and `parent − child`
/// differences, none of which yields `-0.0` (DESIGN.md §14.3).
pub(crate) fn add_quantized_slice_into(
    bits: u8,
    scales: &[f32],
    zero_values: &[f32],
    codes: &[u16],
    layout: &HistogramLayout,
    features: std::ops::Range<usize>,
    acc: &mut [f32],
) {
    let base = layout.elem_range(features.clone()).start;
    let levels_f = levels(bits) as f32;
    let zero_pt = levels(bits) as i32;
    let decode_add = |acc: &mut [f32], codes: &[u16], scale: f32| {
        for (a, &code) in acc.iter_mut().zip(codes) {
            *a += (code as i32 - zero_pt) as f32 / levels_f * scale;
        }
    };
    for f in features.clone() {
        let zb = layout.zero_bucket(f);
        for (block, range) in [layout.g_range(f), layout.h_range(f)]
            .into_iter()
            .enumerate()
        {
            let block_id = 2 * (f - features.start) + block;
            let range = range.start - base..range.end - base;
            let (acc, codes) = (&mut acc[range.clone()], &codes[range]);
            acc[zb] += zero_values[block_id];
            let scale = scales[block_id];
            if scale == 0.0 {
                continue;
            }
            decode_add(&mut acc[..zb], &codes[..zb], scale);
            decode_add(&mut acc[zb + 1..], &codes[zb + 1..], scale);
        }
    }
}

/// A low-precision histogram **row** with sparsity-aware scaling.
///
/// The paper quantizes "each item q in a histogram" against the histogram's
/// max-abs `c` (Section 6.1). On sparse data one bucket per feature — the
/// *zero bucket* — carries almost the entire gradient mass (Algorithm 2
/// deposits the total gradient sum there), so a single shared scale would
/// round every other bucket to noise. This row encoder therefore applies the
/// paper's scheme at the granularity Algorithm 1 actually defines histograms
/// (`G_mk` and `H_mk` are per-feature arrays): one scale per feature per
/// G/H block, computed **excluding** the zero bucket, whose value ships at
/// full precision. Per feature the overhead is two scales and two zero
/// values (16 bytes), preserving a ~`32/d`-ish compression ratio while
/// keeping the small buckets' signal.
///
/// `QuantizedRow::default()` is the empty row: the value a caller keeps
/// and hands to [`quantize_row_into`] again and again, so that one code
/// vector serves every row it pushes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QuantizedRow {
    bits: u8,
    /// Per block (2 per feature: G then H): the quantization scale.
    scales: Vec<f32>,
    /// Per block: the zero bucket's exact value.
    zero_values: Vec<f32>,
    /// One code per row element; zero-bucket positions hold the zero point.
    codes: Vec<u16>,
}

impl QuantizedRow {
    /// Number of encoded row elements.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the row is empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The bit width `d`.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Largest per-block max-abs scale `c` in the row — the quantization
    /// step is `c / (2^(d-1) − 1)`, so this bounds the row's absolute
    /// rounding error. Reported in the per-round run telemetry.
    pub fn max_scale(&self) -> f32 {
        self.scales.iter().cloned().fold(0.0, f32::max)
    }

    /// Honest on-the-wire size: codes packed at `d` bits each (zero buckets
    /// omitted) plus per-block scale + exact zero value, plus a small
    /// header.
    pub fn wire_bytes(&self) -> usize {
        let zero_slots = self.zero_values.len(); // one omitted code per block
        let packed_codes = self.codes.len() - zero_slots.min(self.codes.len());
        8 + (packed_codes * self.bits as usize).div_ceil(8)
            + 4 * (self.scales.len() + self.zero_values.len())
    }

    /// Per-block scales (2 per feature: G then H).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Per-block exact zero-bucket values (2 per feature: G then H).
    pub fn zero_values(&self) -> &[f32] {
        &self.zero_values
    }

    /// Raw codes (zero-point offset encoding; zero-bucket slots hold the
    /// zero point and are never decoded).
    pub fn codes(&self) -> &[u16] {
        &self.codes
    }

    /// Decodes the elements covered by the feature range `features` of
    /// `layout` and adds them into `acc` (which covers exactly that range).
    pub fn add_features_into(
        &self,
        layout: &HistogramLayout,
        features: std::ops::Range<usize>,
        acc: &mut [f32],
    ) {
        let elems = layout.elem_range(features.clone());
        add_quantized_slice_into(
            self.bits,
            &self.scales[2 * features.start..2 * features.end],
            &self.zero_values[2 * features.start..2 * features.end],
            &self.codes[elems],
            layout,
            features,
            acc,
        );
    }

    /// Decodes the full row (test/diagnostic path).
    pub fn dequantize(&self, layout: &HistogramLayout) -> Vec<f32> {
        let mut out = vec![0.0f32; layout.row_len()];
        self.add_features_into(layout, 0..layout.num_features(), &mut out);
        out
    }
}

/// Encodes a histogram row with per-feature-block stochastic quantization
/// (see [`QuantizedRow`]). `row.len()` must equal `layout.row_len()` and
/// every value must be finite. Allocates the result; a caller quantizing
/// row after row keeps one [`QuantizedRow`] and calls [`quantize_row_into`].
///
/// # Panics
/// Panics on a bad bit width or length mismatch. Debug builds also panic on
/// non-finite input: `f32::max` skips NaN when computing the scale and
/// `NaN as i32 == 0` would otherwise map a NaN bucket silently to the
/// zero-point code (decoding as `0.0`). Release builds keep that laundering
/// behaviour (NaN → zero point, `±inf` saturates the scale) for speed — a
/// non-finite gradient is a caller bug, not a data condition.
pub fn quantize_row<R: Rng + ?Sized>(
    row: &[f32],
    layout: &HistogramLayout,
    bits: u8,
    rng: &mut R,
) -> QuantizedRow {
    let mut q = QuantizedRow::default();
    quantize_row_into(row, layout, bits, rng, &mut q);
    q
}

/// [`quantize_row`] into a caller-kept `q`, whose vectors are reused (and
/// resized when the layout changed). Everything `q` held is overwritten.
///
/// Per block (one feature's G or H buckets) the scale `c` is the max-abs of
/// the buckets other than the zero bucket, and each of those buckets takes
/// **one draw** from `rng`, in bucket order, when `c > 0` — so the stream
/// position after a row depends only on which blocks have a nonzero scale.
/// How the loop earns the same bits as the plain formulation
/// (`floor(v / c · levels)` plus a Bernoulli on the fraction; kept as the
/// test reference below) while doing less per element:
///
/// * the max-abs is taken over the two slices either side of the zero
///   bucket in eight lanes with a compare-select — `max` over non-NaN
///   values is exact and associative, so any grouping gives `c`;
/// * an element that is `±0.0` draws and then stores the zero point
///   directly: `±0 / c · levels = ±0`, its floor is itself, the fraction is
///   `+0.0`, no draw is below that, and `0 + 0 + zero_pt` is the zero
///   point — the divide, floor and clamp are skipped, the draw is not;
/// * `floor` is truncation toward zero corrected by one when it overshot
///   (`|v / c · levels| ≤ levels ≤ 2¹⁵`, far inside `i32` and exact in
///   `f32`), which is the same integer and the same `f32` as `floorf`
///   without the library call. A NaN element truncates to `0`, compares
///   false everywhere and lands on the zero point, as before.
///
/// # Panics
/// As [`quantize_row`].
pub fn quantize_row_into<R: Rng + ?Sized>(
    row: &[f32],
    layout: &HistogramLayout,
    bits: u8,
    rng: &mut R,
    q: &mut QuantizedRow,
) {
    assert!(
        (2..=16).contains(&bits),
        "bit width must be in 2..=16, got {bits}"
    );
    assert_eq!(row.len(), layout.row_len(), "row/layout length mismatch");
    debug_assert!(
        row.iter().all(|v| v.is_finite()),
        "quantize_row: non-finite histogram value"
    );
    let nf = layout.num_features();
    let levels_f = levels(bits) as f32;
    let zero_pt = levels(bits) as i32;
    let max_code = 2 * zero_pt;

    q.bits = bits;
    q.scales.clear();
    q.scales.reserve(2 * nf);
    q.zero_values.clear();
    q.zero_values.reserve(2 * nf);
    // Every element is stored below, so the fill value only matters for
    // slots a longer layout adds.
    q.codes.resize(row.len(), zero_pt as u16);

    let abs_max = |xs: &[f32]| {
        let greater = |c: f32, v: &f32| if v.abs() > c { v.abs() } else { c };
        let chunks = xs.chunks_exact(8);
        let tail = chunks.remainder().iter().fold(0.0f32, greater);
        let mut lanes = [0.0f32; 8];
        for chunk in chunks {
            for (lane, v) in lanes.iter_mut().zip(chunk) {
                *lane = greater(*lane, v);
            }
        }
        lanes.iter().fold(tail, greater)
    };
    let mut encode = |xs: &[f32], codes: &mut [u16], c: f32| {
        for (&v, code) in xs.iter().zip(codes) {
            let draw = rng.random::<f32>();
            *code = if v == 0.0 {
                zero_pt as u16
            } else {
                let scaled = v / c * levels_f;
                let trunc = scaled as i32;
                let floor = trunc - i32::from(trunc as f32 > scaled);
                let phi = i32::from(draw < scaled - floor as f32);
                (floor + phi + zero_pt).clamp(0, max_code) as u16
            };
        }
    };

    for f in 0..nf {
        let zb = layout.zero_bucket(f);
        for range in [layout.g_range(f), layout.h_range(f)] {
            let (block, codes) = (&row[range.clone()], &mut q.codes[range]);
            let (left, right) = (&block[..zb], &block[zb + 1..]);
            let c = abs_max(left).max(abs_max(right));
            q.scales.push(c);
            q.zero_values.push(block[zb]);
            codes[zb] = zero_pt as u16;
            let (codes_left, codes_right) = codes.split_at_mut(zb);
            let codes_right = &mut codes_right[1..];
            if c > 0.0 {
                encode(left, codes_left, c);
                encode(right, codes_right, c);
            } else {
                codes_left.fill(zero_pt as u16);
                codes_right.fill(zero_pt as u16);
            }
        }
    }
}

/// The loops [`add_quantized_slice_into`] and [`quantize_row_into`] replaced,
/// kept verbatim as what the tests pin the rewritten kernels against, bit
/// for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub(crate) fn add_quantized_slice_into(
        bits: u8,
        scales: &[f32],
        zero_values: &[f32],
        codes: &[u16],
        layout: &HistogramLayout,
        features: std::ops::Range<usize>,
        acc: &mut [f32],
    ) {
        let base = layout.elem_range(features.clone()).start;
        let levels_f = levels(bits) as f32;
        let zero_pt = levels(bits) as i32;
        for f in features.clone() {
            let nb = layout.num_buckets(f);
            let zb = layout.zero_bucket(f);
            for (block, block_start) in [layout.g_index(f, 0), layout.h_index(f, 0)]
                .into_iter()
                .enumerate()
            {
                let block_id = 2 * (f - features.start) + block;
                let scale = scales[block_id];
                for k in 0..nb {
                    let idx = block_start + k;
                    let v = if k == zb {
                        zero_values[block_id]
                    } else {
                        (codes[idx - base] as i32 - zero_pt) as f32 / levels_f * scale
                    };
                    acc[idx - base] += v;
                }
            }
        }
    }

    pub(crate) fn quantize_row<R: Rng + ?Sized>(
        row: &[f32],
        layout: &HistogramLayout,
        bits: u8,
        rng: &mut R,
    ) -> QuantizedRow {
        let nf = layout.num_features();
        let levels_f = levels(bits) as f32;
        let zero_pt = levels(bits) as i32;
        let max_code = 2 * zero_pt;

        let mut scales = Vec::with_capacity(2 * nf);
        let mut zero_values = Vec::with_capacity(2 * nf);
        let mut codes = vec![zero_pt as u16; row.len()];

        for f in 0..nf {
            let nb = layout.num_buckets(f);
            let zb = layout.zero_bucket(f);
            for block_start in [layout.g_index(f, 0), layout.h_index(f, 0)] {
                // Scale from the non-zero-bucket values only.
                let mut c = 0.0f32;
                for k in 0..nb {
                    if k != zb {
                        c = c.max(row[block_start + k].abs());
                    }
                }
                scales.push(c);
                zero_values.push(row[block_start + zb]);
                if c > 0.0 {
                    for k in 0..nb {
                        if k == zb {
                            continue;
                        }
                        let idx = block_start + k;
                        let scaled = row[idx] / c * levels_f;
                        let floor = scaled.floor();
                        let phi = i32::from(rng.random::<f32>() < scaled - floor);
                        codes[idx] = (floor as i32 + phi + zero_pt).clamp(0, max_code) as u16;
                    }
                }
            }
        }
        QuantizedRow {
            bits,
            scales,
            zero_values,
            codes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite")]
    fn quantize_row_rejects_nan_in_debug() {
        let layout = sparse_layout();
        let mut row = vec![0.0f32; layout.row_len()];
        row[3] = f32::NAN;
        let mut rng = StdRng::seed_from_u64(0);
        quantize_row(&row, &layout, 8, &mut rng);
    }

    #[test]
    #[should_panic(expected = "bit width")]
    fn rejects_bad_bits() {
        let mut rng = StdRng::seed_from_u64(0);
        quantize_row(&[1.0, 1.0], &HistogramLayout::new(vec![1]), 1, &mut rng);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite")]
    fn quantize_row_rejects_infinity_in_debug() {
        let layout = sparse_layout();
        let mut row = vec![0.0f32; layout.row_len()];
        row[5] = f32::NEG_INFINITY;
        let mut rng = StdRng::seed_from_u64(0);
        quantize_row(&row, &layout, 8, &mut rng);
    }

    // ---- rewritten kernels == the loops they replaced, bit for bit --------

    /// Layouts with the zero bucket first / in the middle / last, one- and
    /// two-bucket features, and blocks long enough to fill whole lanes.
    fn pin_layouts() -> Vec<HistogramLayout> {
        vec![
            HistogramLayout::new(vec![21; 6]),
            HistogramLayout::with_zero_buckets(
                vec![4, 1, 7, 2, 19, 1, 5],
                vec![3, 0, 2, 1, 18, 0, 0],
            ),
            HistogramLayout::with_zero_buckets(vec![1, 1], vec![0, 0]),
            HistogramLayout::with_zero_buckets(vec![12, 33, 9], vec![11, 16, 4]),
            HistogramLayout::new(vec![]),
        ]
    }

    /// Rows mixing every value class the quantizer treats specially: exact
    /// zeros of both signs, subnormals, `±c`, a scale near
    /// `f32::MIN_POSITIVE`, whole all-zero features, ordinary values.
    fn pin_rows(layout: &HistogramLayout) -> Vec<Vec<f32>> {
        let n = layout.row_len();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut rows = vec![vec![0.0f32; n], vec![-0.0f32; n]];
        for variant in 0..6u64 {
            let mut row = vec![0.0f32; n];
            for f in 0..layout.num_features() {
                // Every third feature stays an all-zero block pair.
                if (f as u64 + variant).is_multiple_of(3) {
                    continue;
                }
                let c = match variant % 3 {
                    0 => 3.75f32,
                    1 => f32::MIN_POSITIVE * 3.0,
                    _ => 1.0e-3,
                };
                for idx in layout.g_range(f).chain(layout.h_range(f)) {
                    let r = next();
                    row[idx] = match r % 8 {
                        0 => 0.0,
                        1 => -0.0,
                        2 => c,
                        3 => -c,
                        4 => f32::from_bits((r >> 40) as u32 & 0x007F_FFFF), // subnormal
                        5 => -f32::from_bits((r >> 40) as u32 & 0x007F_FFFF),
                        _ => ((r >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32 * c,
                    };
                }
            }
            rows.push(row);
        }
        rows
    }

    #[test]
    fn quantize_row_matches_reference_loop_bitwise_including_rng_state() {
        for layout in pin_layouts() {
            for (r, row) in pin_rows(&layout).iter().enumerate() {
                for bits in [2u8, 4, 8, 16] {
                    let seed = 1000 * r as u64 + bits as u64;
                    let (mut rng_new, mut rng_ref) =
                        (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                    // `q` arrives dirty and of the wrong size: everything in
                    // it must be overwritten.
                    let mut q = quantize_row(
                        &[7.0; 6],
                        &HistogramLayout::new(vec![3]),
                        5,
                        &mut StdRng::seed_from_u64(1),
                    );
                    quantize_row_into(row, &layout, bits, &mut rng_new, &mut q);
                    let want = reference::quantize_row(row, &layout, bits, &mut rng_ref);
                    let bits_of = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(q.bits(), want.bits());
                    assert_eq!(
                        bits_of(q.scales()),
                        bits_of(want.scales()),
                        "row {r} bits {bits}"
                    );
                    assert_eq!(bits_of(q.zero_values()), bits_of(want.zero_values()));
                    assert_eq!(q.codes(), want.codes(), "row {r} bits {bits}");
                    // Same stream position: the draw happens before the
                    // zero-value shortcut, never instead of it.
                    assert_eq!(rng_new.state(), rng_ref.state(), "row {r} bits {bits}");
                    // A second row through the same `q` and the same stream.
                    quantize_row_into(row, &layout, bits, &mut rng_new, &mut q);
                    assert_eq!(q, reference::quantize_row(row, &layout, bits, &mut rng_ref));
                }
            }
        }
    }

    #[test]
    fn dequantize_add_matches_reference_loop_bitwise() {
        for layout in pin_layouts() {
            let nf = layout.num_features();
            let mut acc_new = vec![0.0f32; layout.row_len()];
            let mut acc_ref = acc_new.clone();
            // Push after push into the same accumulators: the first lands on
            // `+0.0`, the rest on what earlier pushes left.
            for (r, row) in pin_rows(&layout).iter().enumerate() {
                for bits in [2u8, 8, 16] {
                    let q = quantize_row(row, &layout, bits, &mut StdRng::seed_from_u64(r as u64));
                    for features in [0..nf, 0..nf / 2, nf / 2..nf] {
                        let elems = layout.elem_range(features.clone());
                        q.add_features_into(&layout, features.clone(), &mut acc_new[elems.clone()]);
                        reference::add_quantized_slice_into(
                            bits,
                            &q.scales()[2 * features.start..2 * features.end],
                            &q.zero_values()[2 * features.start..2 * features.end],
                            &q.codes()[elems.clone()],
                            &layout,
                            features,
                            &mut acc_ref[elems],
                        );
                        for (a, b) in acc_new.iter().zip(&acc_ref) {
                            assert_eq!(a.to_bits(), b.to_bits(), "row {r} bits {bits}");
                        }
                    }
                }
            }
        }
    }

    // ---- QuantizedRow (layout-aware, sparsity-aware scaling) -------------

    fn sparse_layout() -> HistogramLayout {
        // Two features, 4 buckets each, zero bucket at index 1.
        HistogramLayout::with_zero_buckets(vec![4, 4], vec![1, 1])
    }

    /// A row shaped like real sparse-data histograms: the zero bucket holds
    /// ~1000x the mass of the other buckets.
    fn sparse_row(layout: &HistogramLayout) -> Vec<f32> {
        let mut row = vec![0.0f32; layout.row_len()];
        for f in 0..2 {
            for k in 0..4 {
                row[layout.g_index(f, k)] = if k == 1 {
                    -800.0
                } else {
                    0.3 * (k as f32 + 1.0)
                };
                row[layout.h_index(f, k)] = if k == 1 { 2000.0 } else { 0.5 + k as f32 * 0.2 };
            }
        }
        row
    }

    #[test]
    fn row_quantizer_preserves_small_buckets_next_to_huge_zero_bucket() {
        let layout = sparse_layout();
        let row = sparse_row(&layout);
        let mut rng = StdRng::seed_from_u64(2);
        let q = quantize_row(&row, &layout, 8, &mut rng);
        let back = q.dequantize(&layout);
        for f in 0..2 {
            // Zero buckets are exact.
            assert_eq!(back[layout.g_index(f, 1)], row[layout.g_index(f, 1)]);
            assert_eq!(back[layout.h_index(f, 1)], row[layout.h_index(f, 1)]);
            // Non-zero buckets keep ~1% relative accuracy (one step of the
            // per-block scale, which excludes the huge zero bucket).
            for k in [0usize, 2, 3] {
                for idx in [layout.g_index(f, k), layout.h_index(f, k)] {
                    let step = 1.2 / 127.0; // max non-zero magnitude / levels
                    assert!(
                        (back[idx] - row[idx]).abs() <= step + 1e-5,
                        "idx {idx}: {} vs {}",
                        back[idx],
                        row[idx]
                    );
                }
            }
        }
    }

    #[test]
    fn row_quantizer_partition_decode_matches_full_decode() {
        let layout = HistogramLayout::with_zero_buckets(vec![3, 5, 2, 4], vec![0, 2, 1, 3]);
        let row: Vec<f32> = (0..layout.row_len())
            .map(|i| ((i * 13 % 7) as f32 - 3.0) * if i % 5 == 0 { 100.0 } else { 0.5 })
            .collect();
        let mut rng = StdRng::seed_from_u64(3);
        let q = quantize_row(&row, &layout, 8, &mut rng);
        let full = q.dequantize(&layout);
        // Decode features [1..3) into a shard-local buffer.
        let elems = layout.elem_range(1..3);
        let mut acc = vec![0.0f32; elems.len()];
        q.add_features_into(&layout, 1..3, &mut acc);
        assert_eq!(acc, &full[elems]);
    }

    #[test]
    fn row_quantizer_wire_bytes_compress() {
        // 100 features x 20 buckets: f32 row = 100*40*4 = 16000 bytes;
        // quantized: 100*(38 codes + 16 bytes meta) + 8 = ~5.4KB (~3x).
        let layout = HistogramLayout::new(vec![20; 100]);
        let row = vec![1.0f32; layout.row_len()];
        let mut rng = StdRng::seed_from_u64(4);
        let q = quantize_row(&row, &layout, 8, &mut rng);
        let f32_bytes = 4 * layout.row_len();
        assert!(
            q.wire_bytes() * 2 < f32_bytes,
            "{} vs {}",
            q.wire_bytes(),
            f32_bytes
        );
    }

    #[test]
    fn row_quantizer_zero_row() {
        let layout = sparse_layout();
        let row = vec![0.0f32; layout.row_len()];
        let mut rng = StdRng::seed_from_u64(5);
        let q = quantize_row(&row, &layout, 8, &mut rng);
        assert!(q.dequantize(&layout).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn row_quantizer_unbiased() {
        // Deterministic for the same reason as `stochastic_rounding_is_
        // unbiased` (pinned RNG family + fixed seed). The per-block scale
        // here is ≤ 1 after the max-abs values (100, 5) are carved into
        // their own blocks, so step = scale/7 ≤ 1/7 for bits = 4 and
        // `5/7/√trials` is again a ≥10σ standard-error bound.
        let layout = HistogramLayout::with_zero_buckets(vec![3], vec![0]);
        let row = vec![100.0, 0.37, -0.61, 5.0, 0.73, 0.29];
        let mut rng = StdRng::seed_from_u64(6);
        let trials = 20_000;
        let mut sums = vec![0.0f64; row.len()];
        for _ in 0..trials {
            let q = quantize_row(&row, &layout, 4, &mut rng);
            for (s, v) in sums.iter_mut().zip(q.dequantize(&layout)) {
                *s += v as f64;
            }
        }
        for (v, s) in row.iter().zip(&sums) {
            let mean = s / trials as f64;
            let tol = 5.0 / 7.0 / (trials as f64).sqrt() + 1e-9;
            assert!((mean - *v as f64).abs() < tol, "value {v}: mean {mean}");
        }
    }
}
