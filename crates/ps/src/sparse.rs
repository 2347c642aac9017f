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
//! Each frame is written in one pass and read in one pass. The server keeps
//! one `FrameBuffer` per partition, writes a push's frame into it, and
//! reads the frame straight into the node's accumulator: it walks each
//! block's presence bits and adds only the codes the frame carries, each
//! through the f32 expression of the dense quantized kernel
//! (`(code − zp) as f32 / levels · scale`). A code the frame omits would
//! have added `+0.0`, which changes no accumulator the server can hold, so
//! the learned model is bit-identical to the dense quantized exchange; only
//! the wire bytes differ. See DESIGN.md §14.3 for the argument.

use std::ops::Range;

use dimboost_simnet::wire::{self, BitReader, BitWriter, Bytes, SparseWireStats, WireEncoding};

use crate::quantize::{levels, QuantizedRow};
use crate::HistogramLayout;

/// One decoded feature block of a quantized row: the f32 values its frame
/// adds, indexed block-relative (`+0.0` where the frame carries nothing).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedBlock {
    values: Vec<f32>,
}

impl QuantizedBlock {
    /// Adds the block into `acc`, which covers the same elements. On an
    /// accumulator that does not hold `-0.0` — none the server holds does —
    /// this leaves the bits the server's in-place decode-add leaves.
    ///
    /// # Panics
    /// Panics if `acc` is not the block's length.
    pub fn add_into(&self, acc: &mut [f32]) {
        assert_eq!(acc.len(), self.values.len(), "block length mismatch");
        for (a, &v) in acc.iter_mut().zip(&self.values) {
            *a += v;
        }
    }
}

/// The G and H blocks of `features` in frame order: each block's element
/// range relative to `layout.elem_range(features)`, and its zero bucket —
/// the one slot of the block the codes section does not carry.
fn blocks(
    layout: &HistogramLayout,
    features: Range<usize>,
) -> impl Iterator<Item = (Range<usize>, usize)> + '_ {
    let base = layout.elem_range(features.clone()).start;
    features.flat_map(move |f| {
        let zb = layout.zero_bucket(f);
        [layout.g_range(f), layout.h_range(f)].map(|r| (r.start - base..r.end - base, zb))
    })
}

/// Serializes the feature block `features` of `q` into a sparse frame.
/// Returns the frame plus a per-encoding byte/frame tally (the scales and
/// zero-value sub-frames count under their own chosen encodings; the codes
/// section counts under its dense-or-bitmap choice, including the 2-byte
/// frame header). The server's encoder (`FrameBuffer::ship_quantized`),
/// into a new buffer.
pub fn encode_quantized_block(
    q: &QuantizedRow,
    layout: &HistogramLayout,
    features: Range<usize>,
) -> (Bytes, SparseWireStats) {
    let mut frame = Vec::new();
    let stats = encode_quantized_block_into(q, layout, features, &mut frame, &mut Vec::new());
    (Bytes::from(frame), stats)
}

/// Deserializes a frame produced by [`encode_quantized_block`] for the same
/// `layout`/`features`: the server's decode-add
/// (`FrameBuffer::ship_quantized`), into a `+0.0` buffer of the block's
/// length.
///
/// # Panics
/// As the server's decode-add: on truncation (`"truncated quantized block
/// frame"` or `"truncated sparse frame"`), a bit width outside `2..=16`, a
/// sub-frame of the wrong length, or an unknown codes-layout tag.
pub fn decode_quantized_block(
    bytes: Bytes,
    layout: &HistogramLayout,
    features: Range<usize>,
) -> QuantizedBlock {
    let mut values = vec![0.0f32; layout.elem_range(features.clone()).len()];
    add_quantized_block_into(&bytes, layout, features, &mut values, &mut Vec::new());
    QuantizedBlock { values }
}

/// A partition's kept buffers for the sparse exchange, reused push after
/// push. Once they have grown to the partition's largest frame, a push
/// allocates nothing.
#[derive(Default)]
pub(crate) struct FrameBuffer {
    /// The frame a worker's block is written into.
    frame: Vec<u8>,
    /// While writing: one presence bit per code of the block.
    present: Vec<u8>,
    /// While reading: the frame's scales, then its zero-bucket values.
    blocks: Vec<f32>,
}

impl FrameBuffer {
    /// Ships `values` as one f32 sparse frame: writes the frame into the
    /// kept buffer, then adds what it carries into `acc` (the same length).
    /// Returns the layout chosen and the frame's size in bytes.
    pub(crate) fn ship_f32(&mut self, values: &[f32], acc: &mut [f32]) -> (WireEncoding, usize) {
        self.frame.clear();
        let encoding = wire::encode_f32_sparse_into(values, &mut self.frame);
        wire::read_f32_sparse_with(&mut &self.frame[..], acc.len(), |i, v| acc[i] += v);
        (encoding, self.frame.len())
    }

    /// Ships the feature block `features` of `q` as one quantized block
    /// frame: writes the frame into the kept buffer, then decodes it
    /// straight into `acc`, which covers `layout.elem_range(features)`.
    /// Returns the frame's tally, as [`encode_quantized_block`].
    pub(crate) fn ship_quantized(
        &mut self,
        q: &QuantizedRow,
        layout: &HistogramLayout,
        features: Range<usize>,
        acc: &mut [f32],
    ) -> SparseWireStats {
        self.frame.clear();
        let stats = encode_quantized_block_into(
            q,
            layout,
            features.clone(),
            &mut self.frame,
            &mut self.present,
        );
        add_quantized_block_into(&self.frame, layout, features, acc, &mut self.blocks);
        stats
    }
}

/// `mask` without bit `k`: the bits above it move down one.
fn drop_bit(mask: u32, k: usize) -> u32 {
    let (mask, low) = (u64::from(mask), (1u64 << k) - 1);
    ((mask & low) | ((mask >> 1) & !low)) as u32
}

/// `mask` with a zero inserted at bit `k`: the bits from `k` up move up one.
fn insert_zero_bit(mask: u32, k: usize) -> u32 {
    let (mask, low) = (u64::from(mask), (1u64 << k) - 1);
    ((mask & low) | ((mask & !low) << 1)) as u32
}

/// Appends the frame [`encode_quantized_block`] returns to `out`.
///
/// One pass over the codes writes a presence bit per code
/// (`code ≠ zero point`) into `present`, eight codes to a byte; its
/// popcount chooses the layout. A bitmap frame is then written block by
/// block, up to 32 slots at a time: the block's presence bits, without its
/// zero bucket's, are appended to the bitmap, and the codes under the set
/// bits to the packed section, both in place.
fn encode_quantized_block_into(
    q: &QuantizedRow,
    layout: &HistogramLayout,
    features: Range<usize>,
    out: &mut Vec<u8>,
    present: &mut Vec<u8>,
) -> SparseWireStats {
    let bits = q.bits();
    let zero_pt = levels(bits) as u16;
    let codes = &q.codes()[layout.elem_range(features.clone())];
    let per_block = 2 * features.start..2 * features.end;

    let mut stats = SparseWireStats::default();
    out.push(bits);
    for values in [q.scales(), q.zero_values()] {
        let start = out.len();
        let encoding = wire::encode_f32_sparse_into(&values[per_block.clone()], out);
        stats.record(encoding, out.len() - start);
    }

    // Codes: dense (all slots at d bits) vs bitmap (presence bits for
    // code ≠ zero point, then only those). Smaller wins; ties go dense.
    present.clear();
    present.extend(codes.chunks(8).map(|eight| {
        let set = |byte, (i, &code)| byte | u8::from(code != zero_pt) << i;
        eight.iter().enumerate().fold(0u8, set)
    }));
    let zero_buckets_set = blocks(layout, features.clone())
        .filter(|(block, zb)| codes[block.start + zb] != zero_pt)
        .count();
    let nnz = BitReader::new(present).count_ones(codes.len()) - zero_buckets_set;
    let m = codes.len() - per_block.len();
    let width = u32::from(bits);
    let dense_sz = (m * bits as usize).div_ceil(8);
    let bitmap_sz = m.div_ceil(8) + (nnz * bits as usize).div_ceil(8);
    let start = out.len();
    let encoding = if dense_sz <= bitmap_sz {
        out.push(WireEncoding::Dense as u8);
        let mut packed = BitWriter::new(wire::grow(out, dense_sz));
        for (block, zb) in blocks(layout, features) {
            let block = &codes[block];
            for &code in block[..zb].iter().chain(&block[zb + 1..]) {
                packed.put(code.into(), width);
            }
        }
        packed.finish();
        WireEncoding::Dense
    } else {
        out.push(WireEncoding::Bitmap as u8);
        let (bitmap, packed) = wire::grow(out, bitmap_sz).split_at_mut(m.div_ceil(8));
        let (mut bitmap, mut packed) = (BitWriter::new(bitmap), BitWriter::new(packed));
        let mut present = BitReader::new(present);
        for (block, zb) in blocks(layout, features) {
            let zb = block.start + zb;
            for at in block.clone().step_by(32) {
                let len = (block.end - at).min(32);
                let mut set = present.take(len as u32);
                if (at..at + len).contains(&zb) {
                    set &= !(1 << (zb - at));
                    bitmap.put(drop_bit(set, zb - at), len as u32 - 1);
                } else {
                    bitmap.put(set, len as u32);
                }
                while set != 0 {
                    packed.put(codes[at + set.trailing_zeros() as usize].into(), width);
                    set &= set - 1;
                }
            }
        }
        bitmap.finish();
        packed.finish();
        WireEncoding::Bitmap
    };
    // The codes section's tally carries the frame's bit-width byte too.
    stats.record(encoding, out.len() - start + 1);
    stats
}

/// Reads a frame produced by [`encode_quantized_block`] for the same
/// `layout`/`features` and adds it into `acc`, which covers
/// `layout.elem_range(features)`. `blocks_buf` is scratch the scales and
/// zero-bucket values are read into.
///
/// The whole frame is checked before the first add: the sub-frames are
/// read, and the codes section's length is checked against the slots (the
/// dense layout) or the set presence bits (the bitmap layout) it must hold.
/// Then one walk over the blocks adds each zero-bucket value and each code
/// the frame carries; a bitmap frame's absent codes, and every code of a
/// dense frame's zero-scale block, would each have added `±0.0` and are
/// skipped (DESIGN §14.3).
///
/// # Panics
/// On truncation (`"truncated quantized block frame"`, or the sub-frame
/// reader's `"truncated sparse frame"`), a bit width outside `2..=16`, a
/// sub-frame of other than `2 · features.len()` elements or otherwise
/// malformed (see [`wire::read_f32_sparse_with`]), and a codes-layout tag
/// other than dense or bitmap.
fn add_quantized_block_into(
    frame: &[u8],
    layout: &HistogramLayout,
    features: Range<usize>,
    acc: &mut [f32],
    blocks_buf: &mut Vec<f32>,
) {
    assert_eq!(
        acc.len(),
        layout.elem_range(features.clone()).len(),
        "accumulator/feature range length mismatch"
    );
    let (&bits, mut rest) = frame
        .split_first()
        .expect("truncated quantized block frame");
    assert!((2..=16).contains(&bits), "bad bit width {bits} in frame");
    let nblocks = 2 * features.len();
    blocks_buf.clear();
    blocks_buf.resize(2 * nblocks, 0.0);
    let (scales, zero_values) = blocks_buf.split_at_mut(nblocks);
    wire::read_f32_sparse_with(&mut rest, nblocks, |j, s| scales[j] = s);
    wire::read_f32_sparse_with(&mut rest, nblocks, |j, v| zero_values[j] = v);
    let (&tag, rest) = rest.split_first().expect("truncated quantized block frame");
    let codes_section = |len: usize| {
        assert!(rest.len() >= len, "truncated quantized block frame");
        rest.split_at(len)
    };

    let m = acc.len() - nblocks;
    let width = u32::from(bits);
    let levels_f = levels(bits) as f32;
    let zero_pt = levels(bits) as i32;
    let decode = |code: u32, scale: f32| (code as i32 - zero_pt) as f32 / levels_f * scale;
    let walk = blocks(layout, features).zip(scales.iter().zip(zero_values.iter()));
    match WireEncoding::from_tag(tag) {
        WireEncoding::Dense => {
            let mut packed = BitReader::new(codes_section((m * bits as usize).div_ceil(8)).0);
            for ((block, zb), (&scale, &zero)) in walk {
                let acc = &mut acc[block];
                acc[zb] += zero;
                if scale == 0.0 {
                    packed.skip((acc.len() - 1) * bits as usize);
                    continue;
                }
                let (left, right) = acc.split_at_mut(zb);
                for a in left.iter_mut().chain(&mut right[1..]) {
                    *a += decode(packed.take(width), scale);
                }
            }
        }
        WireEncoding::Bitmap => {
            let (bitmap, rest) = codes_section(m.div_ceil(8));
            let mut present = BitReader::new(bitmap);
            let need = (present.count_ones(m) * bits as usize).div_ceil(8);
            assert!(rest.len() >= need, "truncated quantized block frame");
            let mut packed = BitReader::new(&rest[..need]);
            for ((block, zb), (&scale, &zero)) in walk {
                let acc = &mut acc[block];
                acc[zb] += zero;
                for at in (0..acc.len()).step_by(32) {
                    let len = (acc.len() - at).min(32);
                    let mut set = if (at..at + len).contains(&zb) {
                        insert_zero_bit(present.take(len as u32 - 1), zb - at)
                    } else {
                        present.take(len as u32)
                    };
                    while set != 0 {
                        let k = at + set.trailing_zeros() as usize;
                        acc[k] += decode(packed.take(width), scale);
                        set &= set - 1;
                    }
                }
            }
        }
        other => panic!("codes section cannot use {other:?} layout"),
    }
}

/// The codec the one-pass [`encode_quantized_block_into`] and
/// [`add_quantized_block_into`] replaced — gather, expand, and decode
/// through the dense kernel — kept verbatim as what the tests pin them
/// against, byte for byte and bit for bit. Its sub-frames go through
/// `wire`'s public codec, which `wire`'s own tests pin against the f32
/// codec it replaced.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::quantize::add_quantized_slice_into;
    use dimboost_simnet::wire::{Buf, BufMut, BytesMut};

    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct QuantizedBlock {
        bits: u8,
        scales: Vec<f32>,
        zero_values: Vec<f32>,
        codes: Vec<u16>,
    }

    impl QuantizedBlock {
        pub(crate) fn add_into(
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

    fn packed_slots(layout: &HistogramLayout, features: &std::ops::Range<usize>) -> usize {
        let elems = layout.elem_range(features.clone());
        elems.len() - 2 * features.len()
    }

    pub(crate) fn pack_codes(buf: &mut BytesMut, codes: &[u16], bits: u8) {
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

    /// The streaming sub-frame read the old decoder made, through the
    /// public in-place reader: the frame's values, `+0.0` where absent.
    fn read_f32_sparse(bytes: &mut Bytes) -> (Vec<f32>, WireEncoding) {
        assert!(bytes.remaining() >= 5, "truncated sparse frame");
        let len = u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]) as usize;
        let mut out = vec![0.0f32; len];
        let mut rest = &bytes[..];
        let encoding = wire::read_f32_sparse_with(&mut rest, len, |i, v| out[i] = v);
        let consumed = bytes.len() - rest.len();
        bytes.split_to(consumed);
        (out, encoding)
    }

    pub(crate) fn encode_quantized_block(
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

    pub(crate) fn decode_quantized_block(
        mut bytes: Bytes,
        layout: &HistogramLayout,
        features: std::ops::Range<usize>,
    ) -> QuantizedBlock {
        assert!(bytes.remaining() >= 1, "truncated quantized block frame");
        let bits = bytes.get_u8();
        assert!((2..=16).contains(&bits), "bad bit width {bits} in frame");
        let zero_pt = levels(bits) as u16;
        let (scales, _) = read_f32_sparse(&mut bytes);
        let (zero_values, _) = read_f32_sparse(&mut bytes);
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
                        codes[block_start + k - base] =
                            it.next().expect("packed slot count mismatch");
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantize::quantize_row;
    use proptest::collection::vec;
    use proptest::prelude::*;
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

    fn bits_of(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The server's path for one frame: decode-add into `acc`.
    fn ship(
        q: &QuantizedRow,
        layout: &HistogramLayout,
        features: Range<usize>,
        acc: &mut [f32],
    ) -> SparseWireStats {
        FrameBuffer::default().ship_quantized(q, layout, features, acc)
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
            let (mut block_acc, mut shipped_acc) = (dense_acc.clone(), dense_acc.clone());
            q.add_features_into(&layout, features.clone(), &mut dense_acc);
            block.add_into(&mut block_acc);
            assert_eq!(ship(&q, &layout, features, &mut shipped_acc), stats);
            assert_eq!(bits_of(&dense_acc), bits_of(&block_acc));
            assert_eq!(bits_of(&dense_acc), bits_of(&shipped_acc));
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
        let block = decode_quantized_block(frame, &layout, features);
        let mut acc = vec![0.0f32; layout.row_len()];
        block.add_into(&mut acc);
        assert!(acc.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dense_codes_layout_on_dense_rows() {
        // Every bucket but one feature's populated → bitmap presence bits
        // are pure overhead and the codes section must fall back to the
        // dense layout, which then carries the untouched feature's
        // zero-scale blocks too: the decoder must pass over their codes.
        let layout = HistogramLayout::new(vec![8; 20]);
        let untouched = layout.elem_range(7..8);
        let row: Vec<f32> = (0..layout.row_len())
            .map(|i| {
                if untouched.contains(&i) {
                    0.0
                } else {
                    (i + 1) as f32
                }
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(5);
        let q = quantize_row(&row, &layout, 8, &mut rng);
        assert_eq!(q.scales()[14..16], [0.0, 0.0]);
        let (frame, _) = encode_quantized_block(&q, &layout, 0..20);
        assert_eq!(codes_layout(&q, &frame), WireEncoding::Dense);
        let block = decode_quantized_block(frame, &layout, 0..20);
        let mut dense_acc = vec![0.0f32; layout.row_len()];
        let (mut sparse_acc, mut shipped_acc) = (dense_acc.clone(), dense_acc.clone());
        q.add_features_into(&layout, 0..20, &mut dense_acc);
        block.add_into(&mut sparse_acc);
        ship(&q, &layout, 0..20, &mut shipped_acc);
        assert_eq!(bits_of(&dense_acc), bits_of(&sparse_acc));
        assert_eq!(bits_of(&dense_acc), bits_of(&shipped_acc));
    }

    /// The layout `frame`, the whole of `q` encoded, chose for its codes.
    fn codes_layout(q: &QuantizedRow, frame: &[u8]) -> WireEncoding {
        let sub_frames: usize = [q.scales(), q.zero_values()]
            .iter()
            .map(|values| wire::encode_f32_sparse(values).0.len())
            .sum();
        WireEncoding::from_tag(frame[1 + sub_frames])
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
            block.add_into(&mut sparse_acc);
            assert_eq!(bits_of(&dense_acc), bits_of(&sparse_acc), "bits={bits}");
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

    // ---- the one-pass codec == the one it replaced, byte and bit ----------

    /// Bucket counts around the 32-slot chunk edges, each with its zero
    /// bucket first, last, in the middle, or either side of a chunk edge.
    fn arb_layout() -> impl Strategy<Value = HistogramLayout> {
        let buckets = [1u32, 2, 31, 32, 33, 64, 65, 100];
        vec((0usize..buckets.len(), 0u32..9), 1..9).prop_map(move |features| {
            let (nb, zb): (Vec<u32>, Vec<u32>) = features
                .into_iter()
                .map(|(i, at)| {
                    let nb = buckets[i];
                    let zb = match at {
                        0 => 0,
                        1 => nb - 1,
                        2 => nb / 2,
                        // 31, 32, 63, 64, 95, 96
                        _ => 32 * ((at - 1) / 2) - (at % 2),
                    };
                    (nb, zb.min(nb - 1))
                })
                .unzip();
            HistogramLayout::with_zero_buckets(nb, zb)
        })
    }

    /// A row over `layout` mixing the classes the codec must carry exactly:
    /// all-zero features, zeros of both signs, subnormals, ordinary values,
    /// at a per-row density so both codes layouts win some rows.
    fn row_for(layout: &HistogramLayout, seed: u64) -> Vec<f32> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let density = next() % 9;
        let mut row = vec![0.0f32; layout.row_len()];
        for f in 0..layout.num_features() {
            if next() % 4 == 0 {
                continue; // an untouched feature: two all-zero blocks
            }
            for idx in layout.g_range(f).chain(layout.h_range(f)) {
                let r = next();
                if r % 8 >= density {
                    continue;
                }
                row[idx] = match (r >> 3) % 6 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::from_bits((r >> 40) as u32 & 0x007F_FFFF),
                    3 => -f32::from_bits((r >> 40) as u32 & 0x007F_FFFF),
                    _ => ((r >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32 * 50.0,
                };
            }
        }
        row
    }

    proptest! {
        /// Frames and tallies equal the old encoder's byte for byte, and
        /// the in-place decode-add leaves the accumulator on the bits the
        /// old decode + dense kernel add left — from `+0.0`, then on top of
        /// an earlier push — for every bit width, over full, partial and
        /// empty feature ranges.
        #[test]
        fn one_pass_codec_matches_reference(
            layout in arb_layout(),
            bits in 2u8..=16,
            seeds in (any::<u64>(), any::<u64>()),
            cut in (any::<usize>(), any::<usize>()),
        ) {
            let nf = layout.num_features();
            let (a, b) = (cut.0 % (nf + 1), cut.1 % (nf + 1));
            let pushes: Vec<QuantizedRow> = [seeds.0, seeds.1]
                .iter()
                .map(|&seed| {
                    let row = row_for(&layout, seed);
                    quantize_row(&row, &layout, bits, &mut StdRng::seed_from_u64(seed))
                })
                .collect();
            let mut buffer = FrameBuffer::default();
            for features in [0..nf, a.min(b)..a.max(b), a..a] {
                let n = layout.elem_range(features.clone()).len();
                let (mut acc, mut want) = (vec![0.0f32; n], vec![0.0f32; n]);
                for q in &pushes {
                    let (frame, stats) = encode_quantized_block(q, &layout, features.clone());
                    let (old, old_stats) = reference::encode_quantized_block(q, &layout, features.clone());
                    prop_assert!(frame == old, "frame bytes differ on {:?}", features);
                    prop_assert_eq!(stats, old_stats);
                    prop_assert_eq!(stats.total_bytes() as usize, frame.len());

                    let shipped = buffer.ship_quantized(q, &layout, features.clone(), &mut acc);
                    prop_assert_eq!(shipped, stats);
                    reference::decode_quantized_block(old, &layout, features.clone())
                        .add_into(&layout, features.clone(), &mut want);
                    prop_assert_eq!(bits_of(&acc), bits_of(&want), "bits {} {:?}", bits, features);
                }
            }
        }
    }

    #[test]
    fn codes_pack_lsb_first_like_the_old_packer_at_every_width() {
        for bits in 2u8..=16 {
            let max = (1u32 << bits) - 1;
            let codes: Vec<u16> = (0..100u32).map(|i| (i * 37 % (max + 1)) as u16).collect();
            let mut old = dimboost_simnet::wire::BytesMut::new();
            reference::pack_codes(&mut old, &codes, bits);
            let mut new = vec![0u8; (codes.len() * bits as usize).div_ceil(8)];
            let mut writer = BitWriter::new(&mut new);
            for &c in &codes {
                writer.put(c.into(), bits.into());
            }
            writer.finish();
            assert_eq!(&new[..], &old[..], "bits {bits}");
        }
    }

    // ---- hostile frames ----------------------------------------------------

    /// A frame over `layout()`'s five features whose scales sub-frame, of
    /// `encoding`, claims `u32::MAX` elements.
    fn lying_scales(encoding: WireEncoding) -> Vec<u8> {
        let mut frame = vec![8, encoding as u8];
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(&[0; 64]);
        frame
    }

    fn decode_into_zeros(frame: &[u8]) {
        let layout = layout();
        let mut acc = vec![0.0f32; layout.row_len()];
        add_quantized_block_into(frame, &layout, 0..5, &mut acc, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "sparse frame of 4294967295 elements where 10 were expected")]
    fn dense_sub_frame_length_is_checked_against_the_block_count() {
        decode_into_zeros(&lying_scales(WireEncoding::Dense));
    }

    #[test]
    #[should_panic(expected = "sparse frame of 4294967295 elements where 10 were expected")]
    fn bitmap_sub_frame_length_is_checked_against_the_block_count() {
        decode_into_zeros(&lying_scales(WireEncoding::Bitmap));
    }

    #[test]
    #[should_panic(expected = "sparse frame of 4294967295 elements where 10 were expected")]
    fn runs_sub_frame_length_is_checked_against_the_block_count() {
        decode_into_zeros(&lying_scales(WireEncoding::Runs));
    }

    /// What the decode-add documents it panics with (its own messages and
    /// the sub-frame reader's).
    const DOCUMENTED: [&str; 7] = [
        "truncated quantized block frame",
        "truncated sparse frame",
        "bad bit width ",
        "codes section cannot use ",
        "sparse frame of ",
        "unknown sparse frame tag ",
        "sparse frame run ",
    ];

    /// The message `f` panicked with, if it did.
    fn panic_message(f: impl FnOnce()) -> Option<String> {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
        let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
        Some(
            payload
                .downcast_ref::<String>()
                .cloned()
                .or(text)
                .unwrap_or_default(),
        )
    }

    /// Real frames whose sub-frames take each of the three layouts and
    /// whose codes take each of the two: every strict prefix panics as
    /// truncated, and every seeded mutation decodes or panics with a
    /// documented message — never an index or capacity panic.
    #[test]
    fn prefixes_and_mutations_of_real_frames_fail_only_as_documented() {
        let layout = HistogramLayout::with_zero_buckets(
            vec![40, 3, 70, 8, 5, 33, 2, 6, 4, 9, 12, 3],
            vec![0, 2, 35, 7, 1, 32, 0, 3, 2, 4, 11, 1],
        );
        let nf = layout.num_features();
        let mut rows = Vec::new();
        // Dense: every bucket of every feature populated.
        rows.push(
            (0..layout.row_len())
                .map(|i| (i % 13) as f32 - 6.5)
                .collect::<Vec<_>>(),
        );
        // Scattered features: bitmap sub-frames, bitmap codes.
        let mut scattered = vec![0.0f32; layout.row_len()];
        for f in (0..nf).step_by(3) {
            for (k, idx) in layout.g_range(f).chain(layout.h_range(f)).enumerate() {
                if k % 5 == 0 {
                    scattered[idx] = k as f32 + 0.25;
                }
            }
        }
        rows.push(scattered);
        // One cluster of features out of many: runs sub-frames.
        let wide = HistogramLayout::new(vec![4; 60]);
        let mut clustered = vec![0.0f32; wide.row_len()];
        for idx in wide.elem_range(20..23) {
            clustered[idx] = idx as f32 * 0.5;
        }
        let cases = rows
            .into_iter()
            .map(|row| (layout.clone(), row))
            .chain([(wide.clone(), clustered)]);

        let (mut sub_layouts, mut code_layouts) = (Vec::new(), Vec::new());
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for (layout, row) in cases {
            let nf = layout.num_features();
            let q = quantize_row(&row, &layout, 8, &mut StdRng::seed_from_u64(1));
            let (frame, _) = encode_quantized_block(&q, &layout, 0..nf);
            for values in [q.scales(), q.zero_values()] {
                sub_layouts.push(wire::encode_f32_sparse(values).1);
            }
            code_layouts.push(codes_layout(&q, &frame));
            let read = |bytes: &[u8]| {
                let mut acc = vec![0.0f32; layout.row_len()];
                add_quantized_block_into(bytes, &layout, 0..nf, &mut acc, &mut Vec::new());
            };
            for cut in 0..frame.len() {
                let message = panic_message(|| read(&frame[..cut])).expect("a prefix must panic");
                assert!(message.starts_with("truncated "), "cut {cut}: {message:?}");
            }
            for _ in 0..3000 {
                let mut bytes = frame.to_vec();
                for _ in 0..1 + state % 2 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let at = (state % bytes.len() as u64) as usize;
                    bytes[at] = match state >> 62 {
                        0 => 0,
                        1 => 0xFF,
                        _ => bytes[at] ^ ((state >> 32) as u8 | 1),
                    };
                }
                if let Some(message) = panic_message(|| read(&bytes)) {
                    assert!(
                        DOCUMENTED.iter().any(|d| message.starts_with(d)),
                        "undocumented panic {message:?}"
                    );
                }
            }
        }
        // All three sub-frame layouts, and the codes' two, were exercised.
        for layout in [
            WireEncoding::Dense,
            WireEncoding::Bitmap,
            WireEncoding::Runs,
        ] {
            assert!(sub_layouts.contains(&layout), "no {layout:?} sub-frame");
        }
        for layout in [WireEncoding::Dense, WireEncoding::Bitmap] {
            assert!(code_layouts.contains(&layout), "no {layout:?} codes");
        }
    }
}
