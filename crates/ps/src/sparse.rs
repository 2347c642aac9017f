//! Sparse block frames for the PS histogram exchange.
//!
//! At the dimensionalities DimBoost targets, most histogram buckets of a
//! tree node are exactly zero (features with no instances in the node
//! contribute nothing), so dense f32 — or dense-quantized — rows pay
//! `α + n·β` for bytes that carry no information. This module serializes
//! one *feature block* (the contiguous feature range a
//! [`RangeHashPartitioner`](crate::RangeHashPartitioner) partition owns) of
//! a quantized row into a density-adaptive frame:
//!
//! * the per-block **scales** and exact **zero-bucket values** ride
//!   [`wire::encode_f32_sparse`] sub-frames (dense / bitmap / runs,
//!   whichever is smallest for that payload);
//! * the **codes** are bit-packed at `d` bits each (zero-bucket slots
//!   omitted — they ship exactly in the zero-value sub-frame) under the
//!   smaller of two layouts: *dense* (every slot) or *bitmap* (presence
//!   bits for `code ≠ zero point`, then only those codes).
//!
//! Decoding funnels through the same dequantize-add kernel as the dense
//! quantized path (`quantize::add_quantized_slice_into`), so the f32
//! operation sequence — and therefore the learned model — is bit-identical;
//! only the wire bytes differ. See DESIGN.md §14 for the determinism
//! argument.

use dimboost_simnet::wire::{self, SparseWireStats, WireEncoding};
use dimboost_simnet::wire::{Buf, BufMut, Bytes, BytesMut};

use crate::quantize::{add_quantized_slice_into, levels, QuantizedRow};
use crate::HistogramLayout;

/// One decoded feature block of a quantized row, indexed block-relative.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedBlock {
    bits: u8,
    /// Per block (2 per feature of the range: G then H): the scale.
    scales: Vec<f32>,
    /// Per block: the zero bucket's exact value.
    zero_values: Vec<f32>,
    /// One code per element of the range (zero-bucket slots hold the zero
    /// point, reconstructed at decode — they are never read by the kernel).
    codes: Vec<u16>,
}

impl QuantizedBlock {
    /// Decodes the block and adds it into `acc`, which covers exactly
    /// `layout.elem_range(features)` — the same kernel, and therefore the
    /// same f32 rounding, as [`QuantizedRow::add_features_into`].
    pub fn add_into(
        &self,
        layout: &HistogramLayout,
        features: std::ops::Range<usize>,
        acc: &mut [f32],
    ) {
        add_quantized_slice_into(
            self.bits,
            &self.scales,
            &self.zero_values,
            &self.codes,
            layout,
            features,
            acc,
        );
    }
}

/// Number of non-zero-bucket code slots in `features` (the slots the codes
/// section actually ships: each feature omits one G and one H zero-bucket
/// slot).
fn packed_slots(layout: &HistogramLayout, features: &std::ops::Range<usize>) -> usize {
    let elems = layout.elem_range(features.clone());
    elems.len() - 2 * features.len()
}

/// Appends `codes[..]` (each `< 2^bits`) LSB-first at `bits` bits each.
fn pack_codes(buf: &mut BytesMut, codes: &[u16], bits: u8) {
    let mut word = 0u32;
    let mut filled = 0u8;
    for &code in codes {
        word |= (code as u32) << filled;
        filled += bits;
        while filled >= 8 {
            buf.put_u8((word & 0xFF) as u8);
            word >>= 8;
            filled -= 8;
        }
    }
    if filled > 0 {
        buf.put_u8((word & 0xFF) as u8);
    }
}

/// Reads `count` codes packed by [`pack_codes`].
fn unpack_codes(bytes: &mut Bytes, count: usize, bits: u8) -> Vec<u16> {
    let need = (count * bits as usize).div_ceil(8);
    assert!(bytes.remaining() >= need, "truncated quantized block frame");
    let mut word = 0u32;
    let mut filled = 0u8;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        while filled < bits {
            word |= (bytes.get_u8() as u32) << filled;
            filled += 8;
        }
        out.push((word & ((1u32 << bits) - 1)) as u16);
        word >>= bits;
        filled -= bits;
    }
    out
}

/// Serializes the feature block `features` of `q` into a sparse frame.
/// Returns the frame plus a per-encoding byte/frame tally (the scales and
/// zero-value sub-frames count under their own chosen encodings; the codes
/// section counts under its dense-or-bitmap choice, including the 2-byte
/// frame header).
pub fn encode_quantized_block(
    q: &QuantizedRow,
    layout: &HistogramLayout,
    features: std::ops::Range<usize>,
) -> (Bytes, SparseWireStats) {
    let bits = q.bits();
    let zero_pt = levels(bits) as u16;
    let elems = layout.elem_range(features.clone());
    let scales = &q.scales()[2 * features.start..2 * features.end];
    let zero_values = &q.zero_values()[2 * features.start..2 * features.end];

    // Gather the shippable codes (zero-bucket slots omitted) block-relative.
    let mut packed = Vec::with_capacity(packed_slots(layout, &features));
    for f in features.clone() {
        let nb = layout.num_buckets(f);
        let zb = layout.zero_bucket(f);
        for block_start in [layout.g_index(f, 0), layout.h_index(f, 0)] {
            for k in 0..nb {
                if k != zb {
                    packed.push(q.codes()[block_start + k]);
                }
            }
        }
    }
    debug_assert_eq!(elems.len() - packed.len(), 2 * features.len());

    let mut stats = SparseWireStats::default();
    let mut buf = BytesMut::new();
    buf.put_u8(bits);

    let (scales_frame, scales_enc) = wire::encode_f32_sparse(scales);
    stats.record(scales_enc, scales_frame.len());
    buf.put_slice(&scales_frame);
    let (zeros_frame, zeros_enc) = wire::encode_f32_sparse(zero_values);
    stats.record(zeros_enc, zeros_frame.len());
    buf.put_slice(&zeros_frame);

    // Codes: dense (all slots at d bits) vs bitmap (presence bits for
    // code ≠ zero point, then only those). Smaller wins; ties go dense.
    let m = packed.len();
    let nnz = packed.iter().filter(|&&c| c != zero_pt).count();
    let dense_sz = (m * bits as usize).div_ceil(8);
    let bitmap_sz = m.div_ceil(8) + (nnz * bits as usize).div_ceil(8);
    let codes_start = buf.len();
    if dense_sz <= bitmap_sz {
        buf.put_u8(WireEncoding::Dense as u8);
        pack_codes(&mut buf, &packed, bits);
        stats.record(WireEncoding::Dense, buf.len() - codes_start + 1);
    } else {
        buf.put_u8(WireEncoding::Bitmap as u8);
        let mut bitmap = vec![0u8; m.div_ceil(8)];
        for (i, &c) in packed.iter().enumerate() {
            if c != zero_pt {
                bitmap[i / 8] |= 1 << (i % 8);
            }
        }
        buf.put_slice(&bitmap);
        let nonzero: Vec<u16> = packed.iter().copied().filter(|&c| c != zero_pt).collect();
        pack_codes(&mut buf, &nonzero, bits);
        stats.record(WireEncoding::Bitmap, buf.len() - codes_start + 1);
    }
    (buf.freeze(), stats)
}

/// Deserializes a frame produced by [`encode_quantized_block`] for the same
/// `layout`/`features`. Every scale, zero value, and code is reconstructed
/// exactly (sparse sub-frames preserve nonzero f32 bits; omitted code slots
/// are by definition the zero point).
///
/// # Panics
/// Panics on truncation or an unknown codes-layout tag.
pub fn decode_quantized_block(
    mut bytes: Bytes,
    layout: &HistogramLayout,
    features: std::ops::Range<usize>,
) -> QuantizedBlock {
    assert!(bytes.remaining() >= 1, "truncated quantized block frame");
    let bits = bytes.get_u8();
    assert!((2..=16).contains(&bits), "bad bit width {bits} in frame");
    let zero_pt = levels(bits) as u16;
    let (scales, _) = wire::read_f32_sparse(&mut bytes);
    let (zero_values, _) = wire::read_f32_sparse(&mut bytes);
    assert_eq!(scales.len(), 2 * features.len(), "scales length mismatch");
    assert_eq!(
        zero_values.len(),
        scales.len(),
        "zero-values length mismatch"
    );

    let m = packed_slots(layout, &features);
    assert!(bytes.remaining() >= 1, "truncated quantized block frame");
    let packed = match WireEncoding::from_tag(bytes.get_u8()) {
        WireEncoding::Dense => unpack_codes(&mut bytes, m, bits),
        WireEncoding::Bitmap => {
            let bm_len = m.div_ceil(8);
            assert!(
                bytes.remaining() >= bm_len,
                "truncated quantized block frame"
            );
            let mut bitmap = vec![0u8; bm_len];
            bytes.copy_to_slice(&mut bitmap);
            let nnz = (0..m)
                .filter(|i| bitmap[i / 8] & (1 << (i % 8)) != 0)
                .count();
            let nonzero = unpack_codes(&mut bytes, nnz, bits);
            let mut it = nonzero.into_iter();
            (0..m)
                .map(|i| {
                    if bitmap[i / 8] & (1 << (i % 8)) != 0 {
                        it.next().expect("bitmap/codes count mismatch")
                    } else {
                        zero_pt
                    }
                })
                .collect()
        }
        other => panic!("codes section cannot use {other:?} layout"),
    };

    // Re-expand to one code per element, zero point in the zero-bucket slots.
    let elems = layout.elem_range(features.clone());
    let mut codes = vec![zero_pt; elems.len()];
    let base = elems.start;
    let mut it = packed.into_iter();
    for f in features.clone() {
        let nb = layout.num_buckets(f);
        let zb = layout.zero_bucket(f);
        for block_start in [layout.g_index(f, 0), layout.h_index(f, 0)] {
            for k in 0..nb {
                if k != zb {
                    codes[block_start + k - base] = it.next().expect("packed slot count mismatch");
                }
            }
        }
    }
    QuantizedBlock {
        bits,
        scales,
        zero_values,
        codes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantize::quantize_row;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layout() -> HistogramLayout {
        HistogramLayout::with_zero_buckets(vec![4, 6, 3, 5, 4], vec![1, 0, 2, 4, 3])
    }

    /// A realistic sparse-node row: most features untouched (all-zero
    /// blocks), a couple active.
    fn sparse_row(layout: &HistogramLayout) -> Vec<f32> {
        let mut row = vec![0.0f32; layout.row_len()];
        for (f, mass) in [(1usize, -3.5f32), (3, 0.75)] {
            let zb = layout.zero_bucket(f);
            row[layout.g_index(f, zb)] = mass * 10.0;
            row[layout.h_index(f, zb)] = mass.abs() * 20.0;
            row[layout.g_index(f, (zb + 1) % layout.num_buckets(f))] = mass;
            row[layout.h_index(f, (zb + 1) % layout.num_buckets(f))] = mass.abs();
        }
        row
    }

    #[test]
    fn block_roundtrip_is_exact() {
        let layout = layout();
        let row = sparse_row(&layout);
        let mut rng = StdRng::seed_from_u64(3);
        let q = quantize_row(&row, &layout, 8, &mut rng);
        for features in [0..layout.num_features(), 0..2, 2..5, 1..1] {
            let (frame, stats) = encode_quantized_block(&q, &layout, features.clone());
            // The tally attributes every frame byte to some encoding.
            assert_eq!(stats.total_bytes() as usize, frame.len(), "{features:?}");
            let block = decode_quantized_block(frame, &layout, features.clone());
            // Decoded add must equal the dense quantized add bit-for-bit.
            let elems = layout.elem_range(features.clone());
            let mut dense_acc = vec![0.1f32; elems.len()];
            let mut sparse_acc = dense_acc.clone();
            q.add_features_into(&layout, features.clone(), &mut dense_acc);
            block.add_into(&layout, features, &mut sparse_acc);
            for (d, s) in dense_acc.iter().zip(&sparse_acc) {
                assert_eq!(d.to_bits(), s.to_bits());
            }
        }
    }

    #[test]
    fn decoded_block_add_matches_reference_loop_bitwise() {
        // The sparse entry into the shared dequantize-add kernel, pinned
        // against the loop the kernel replaced: from `+0.0`, then on top of
        // what the first push left.
        let layout = layout();
        let row = sparse_row(&layout);
        for bits in [2u8, 8, 16] {
            let mut rng = StdRng::seed_from_u64(bits as u64);
            let q = quantize_row(&row, &layout, bits, &mut rng);
            for features in [0..layout.num_features(), 1..4] {
                let (frame, _) = encode_quantized_block(&q, &layout, features.clone());
                let block = decode_quantized_block(frame, &layout, features.clone());
                let mut acc = vec![0.0f32; layout.elem_range(features.clone()).len()];
                let mut want = acc.clone();
                for _push in 0..2 {
                    block.add_into(&layout, features.clone(), &mut acc);
                    crate::quantize::reference::add_quantized_slice_into(
                        block.bits,
                        &block.scales,
                        &block.zero_values,
                        &block.codes,
                        &layout,
                        features.clone(),
                        &mut want,
                    );
                    for (a, w) in acc.iter().zip(&want) {
                        assert_eq!(a.to_bits(), w.to_bits(), "bits={bits} {features:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn all_zero_block_is_tiny() {
        let layout = layout();
        let row = vec![0.0f32; layout.row_len()];
        let mut rng = StdRng::seed_from_u64(4);
        let q = quantize_row(&row, &layout, 8, &mut rng);
        let features = 0..layout.num_features();
        let (frame, _) = encode_quantized_block(&q, &layout, features.clone());
        // Far smaller than both the f32 row and the dense-quantized row.
        assert!(frame.len() < layout.row_len(), "{} bytes", frame.len());
        assert!(frame.len() < q.wire_bytes() / 2);
        let block = decode_quantized_block(frame, &layout, features.clone());
        let mut acc = vec![0.0f32; layout.row_len()];
        block.add_into(&layout, features, &mut acc);
        assert!(acc.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dense_codes_layout_on_dense_rows() {
        // Every bucket populated → bitmap presence bits are pure overhead
        // and the codes section must fall back to the dense layout.
        let layout = HistogramLayout::new(vec![8; 4]);
        let row: Vec<f32> = (0..layout.row_len()).map(|i| (i + 1) as f32).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let q = quantize_row(&row, &layout, 8, &mut rng);
        let (frame, stats) = encode_quantized_block(&q, &layout, 0..4);
        assert!(stats.frames[WireEncoding::Dense as usize] >= 1);
        let block = decode_quantized_block(frame, &layout, 0..4);
        let mut dense_acc = vec![0.0f32; layout.row_len()];
        let mut sparse_acc = dense_acc.clone();
        q.add_features_into(&layout, 0..4, &mut dense_acc);
        block.add_into(&layout, 0..4, &mut sparse_acc);
        assert_eq!(dense_acc, sparse_acc);
    }

    #[test]
    fn low_bit_widths_roundtrip() {
        let layout = layout();
        let row = sparse_row(&layout);
        for bits in [2u8, 4, 7, 16] {
            let mut rng = StdRng::seed_from_u64(bits as u64);
            let q = quantize_row(&row, &layout, bits, &mut rng);
            let (frame, _) = encode_quantized_block(&q, &layout, 0..5);
            let block = decode_quantized_block(frame, &layout, 0..5);
            let mut dense_acc = vec![0.0f32; layout.row_len()];
            let mut sparse_acc = dense_acc.clone();
            q.add_features_into(&layout, 0..5, &mut dense_acc);
            block.add_into(&layout, 0..5, &mut sparse_acc);
            for (d, s) in dense_acc.iter().zip(&sparse_acc) {
                assert_eq!(d.to_bits(), s.to_bits(), "bits={bits}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "truncated quantized block frame")]
    fn truncated_block_frame_panics() {
        let layout = layout();
        let row = sparse_row(&layout);
        let mut rng = StdRng::seed_from_u64(6);
        let q = quantize_row(&row, &layout, 8, &mut rng);
        let (frame, _) = encode_quantized_block(&q, &layout, 0..5);
        let cut = frame.len() - 1;
        decode_quantized_block(frame.slice(0..cut), &layout, 0..5);
    }

    #[test]
    fn pack_unpack_codes_all_widths() {
        for bits in 2u8..=16 {
            let max = (1u32 << bits) - 1;
            let codes: Vec<u16> = (0..100u32).map(|i| (i * 37 % (max + 1)) as u16).collect();
            let mut buf = BytesMut::new();
            pack_codes(&mut buf, &codes, bits);
            assert_eq!(buf.len(), (codes.len() * bits as usize).div_ceil(8));
            let mut frozen = buf.freeze();
            assert_eq!(unpack_codes(&mut frozen, codes.len(), bits), codes);
        }
    }
}
