//! Minimal wire encoding for simulated network payloads.
//!
//! Collectives and the parameter server move `f32` histograms, whole or as
//! density-adaptive sparse frames. This module provides the little-endian
//! framing used to count *actual serialized bytes* (the simulated clock
//! charges per byte on the wire, so compressed payloads must really be
//! smaller). Low-precision rows (Section 6.1) ship as
//! `dimboost_ps::quantize::QuantizedRow`, framed by `dimboost_ps`.

pub use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Serializes an `f32` slice (little endian).
pub fn encode_f32(values: &[f32]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + values.len() * 4);
    buf.put_u32_le(values.len() as u32);
    for &v in values {
        buf.put_f32_le(v);
    }
    buf.freeze()
}

/// Deserializes an `f32` slice produced by [`encode_f32`].
///
/// # Panics
/// Panics if the buffer is malformed (the simulated network never corrupts
/// frames; a malformed frame is a programming error). Truncation anywhere in
/// the frame — including inside the 4-byte length header — fails the
/// `"truncated f32 frame"` assertion.
pub fn decode_f32(mut bytes: Bytes) -> Vec<f32> {
    assert!(bytes.remaining() >= 4, "truncated f32 frame");
    let len = bytes.get_u32_le() as usize;
    assert!(bytes.remaining() >= len * 4, "truncated f32 frame");
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(bytes.get_f32_le());
    }
    out
}

/// Which of the three density-adaptive layouts a sparse frame chose.
///
/// Selection is per message and fully determined by the payload: the encoder
/// computes the exact serialized size of all three layouts and keeps the
/// smallest, breaking ties in declaration order (`Dense` < `Bitmap` <
/// `Runs`). Two workers encoding the same slice therefore always emit the
/// same bytes — a requirement of the deterministic replay invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireEncoding {
    /// Tag + length + every value verbatim (`5 + 4n` bytes). Wins on dense
    /// payloads where per-element presence metadata is pure overhead.
    Dense = 0,
    /// Tag + length + LSB-first presence bitmap + the nonzero values
    /// (`5 + ⌈n/8⌉ + 4·nnz` bytes). Wins on scattered sparsity.
    Bitmap = 1,
    /// Tag + length + run count + `(start, len, values…)` per run of
    /// consecutive nonzeros (`9 + 8r + 4·nnz` bytes). Wins when the
    /// nonzeros cluster, e.g. a few active features out of thousands.
    Runs = 2,
}

impl WireEncoding {
    /// Stable lowercase name used in reports and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            WireEncoding::Dense => "dense",
            WireEncoding::Bitmap => "bitmap",
            WireEncoding::Runs => "runs",
        }
    }

    /// Reverse of the frame tag byte.
    ///
    /// # Panics
    /// Panics on a tag no encoder emits.
    pub fn from_tag(tag: u8) -> WireEncoding {
        match tag {
            0 => WireEncoding::Dense,
            1 => WireEncoding::Bitmap,
            2 => WireEncoding::Runs,
            other => panic!("unknown sparse frame tag {other}"),
        }
    }
}

/// Per-encoding frame/byte tallies for density-adaptive sparse exchange,
/// indexed by [`WireEncoding`] discriminant. The PS push paths fill one per
/// push; the trainer folds them into the per-round record and the run-level
/// `sparsity` report section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SparseWireStats {
    /// Frames emitted per encoding (`[dense, bitmap, runs]`).
    pub frames: [u64; 3],
    /// Serialized bytes per encoding (`[dense, bitmap, runs]`).
    pub bytes: [u64; 3],
}

impl SparseWireStats {
    /// Tallies one frame of `bytes` serialized bytes under `encoding`.
    pub fn record(&mut self, encoding: WireEncoding, bytes: usize) {
        self.frames[encoding as usize] += 1;
        self.bytes[encoding as usize] += bytes as u64;
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &SparseWireStats) {
        for i in 0..3 {
            self.frames[i] += other.frames[i];
            self.bytes[i] += other.bytes[i];
        }
    }

    /// Total serialized bytes across all encodings.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Writes the tallies as flat members (`dense`, `dense_bytes`,
    /// `bitmap`, …) into the object open on `w`.
    pub fn emit(&self, w: &mut crate::emit::JsonWriter) {
        w.u64("dense", self.frames[0]);
        w.u64("dense_bytes", self.bytes[0]);
        w.u64("bitmap", self.frames[1]);
        w.u64("bitmap_bytes", self.bytes[1]);
        w.u64("runs", self.frames[2]);
        w.u64("runs_bytes", self.bytes[2]);
    }
}

/// An element is "zero" for sparsity purposes when it compares equal to 0.0
/// (so `-0.0` is treated as absent and decodes as `+0.0`; NaN is *not* zero
/// and ships verbatim). This is accumulation-safe: PS accumulators start at
/// `+0.0` and can never become `-0.0` under round-to-nearest addition, so
/// adding `±0.0` is always a no-op on the accumulator bits.
#[inline]
fn is_zero(v: f32) -> bool {
    v == 0.0
}

fn runs_of(values: &[f32]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < values.len() {
        if is_zero(values[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < values.len() && !is_zero(values[i]) {
            i += 1;
        }
        runs.push((start, i - start));
    }
    runs
}

/// Serializes an `f32` slice under the smallest of the three
/// density-adaptive layouts (see [`WireEncoding`]); returns the frame and
/// the layout it chose.
///
/// Decoding with [`decode_f32_sparse`] reproduces every nonzero value
/// bit-for-bit; zero slots come back as `+0.0` (note `-0.0` inputs decode
/// as `+0.0` — see [`WireEncoding`] for why this is accumulation-safe).
pub fn encode_f32_sparse(values: &[f32]) -> (Bytes, WireEncoding) {
    let n = values.len();
    let nnz = values.iter().filter(|&&v| !is_zero(v)).count();
    let runs = runs_of(values);
    let dense_sz = 5 + 4 * n;
    let bitmap_sz = 5 + n.div_ceil(8) + 4 * nnz;
    let runs_sz = 9 + 8 * runs.len() + 4 * nnz;
    let best = dense_sz.min(bitmap_sz).min(runs_sz);

    let encoding = if best == dense_sz {
        WireEncoding::Dense
    } else if best == bitmap_sz {
        WireEncoding::Bitmap
    } else {
        WireEncoding::Runs
    };

    let mut buf = BytesMut::with_capacity(best);
    buf.put_u8(encoding as u8);
    buf.put_u32_le(n as u32);
    match encoding {
        WireEncoding::Dense => {
            for &v in values {
                buf.put_f32_le(v);
            }
        }
        WireEncoding::Bitmap => {
            let mut bitmap = vec![0u8; n.div_ceil(8)];
            for (i, &v) in values.iter().enumerate() {
                if !is_zero(v) {
                    bitmap[i / 8] |= 1 << (i % 8);
                }
            }
            buf.put_slice(&bitmap);
            for &v in values.iter().filter(|&&v| !is_zero(v)) {
                buf.put_f32_le(v);
            }
        }
        WireEncoding::Runs => {
            buf.put_u32_le(runs.len() as u32);
            for &(start, len) in &runs {
                buf.put_u32_le(start as u32);
                buf.put_u32_le(len as u32);
                for &v in &values[start..start + len] {
                    buf.put_f32_le(v);
                }
            }
        }
    }
    debug_assert_eq!(buf.len(), best, "sparse frame size mismatch");
    (buf.freeze(), encoding)
}

/// Deserializes a frame produced by [`encode_f32_sparse`]. Returns the full
/// dense vector (zero slots filled with `+0.0`) and the layout the encoder
/// chose.
///
/// # Panics
/// Panics with `"truncated sparse frame"` on truncation anywhere, including
/// inside the 5-byte tag+length header, and on an unknown layout tag.
pub fn decode_f32_sparse(mut bytes: Bytes) -> (Vec<f32>, WireEncoding) {
    read_f32_sparse(&mut bytes)
}

/// Streaming form of [`decode_f32_sparse`]: consumes exactly one sparse
/// frame from the front of `bytes`, leaving any trailing bytes in place
/// (sparse frames are self-delimiting, so they compose into larger
/// messages — the quantized block frames concatenate several).
///
/// The dense and bitmap layouts carry at least 4 and ⅛ bytes per element,
/// so their length word is checked against the frame before `len` elements
/// are allocated. The runs layout legitimately expands — an all-zero slice
/// of `n` elements is a 9-byte frame — so its length word is not bounded
/// here: a runs frame is trusted to come from [`encode_f32_sparse`].
pub fn read_f32_sparse(bytes: &mut Bytes) -> (Vec<f32>, WireEncoding) {
    assert!(bytes.remaining() >= 5, "truncated sparse frame");
    let encoding = WireEncoding::from_tag(bytes.get_u8());
    let len = bytes.get_u32_le() as usize;
    let min_body = match encoding {
        WireEncoding::Dense => len * 4,
        WireEncoding::Bitmap => len.div_ceil(8),
        WireEncoding::Runs => 4,
    };
    assert!(bytes.remaining() >= min_body, "truncated sparse frame");
    let mut out = vec![0.0f32; len];
    match encoding {
        WireEncoding::Dense => {
            for slot in out.iter_mut() {
                *slot = bytes.get_f32_le();
            }
        }
        WireEncoding::Bitmap => {
            let mut bitmap = vec![0u8; min_body];
            bytes.copy_to_slice(&mut bitmap);
            for (i, slot) in out.iter_mut().enumerate() {
                if bitmap[i / 8] & (1 << (i % 8)) != 0 {
                    assert!(bytes.remaining() >= 4, "truncated sparse frame");
                    *slot = bytes.get_f32_le();
                }
            }
        }
        WireEncoding::Runs => {
            let nruns = bytes.get_u32_le() as usize;
            for _ in 0..nruns {
                assert!(bytes.remaining() >= 8, "truncated sparse frame");
                let start = bytes.get_u32_le() as usize;
                let rlen = bytes.get_u32_le() as usize;
                assert!(
                    start + rlen <= len,
                    "sparse frame run {start}+{rlen} exceeds length {len}"
                );
                assert!(bytes.remaining() >= rlen * 4, "truncated sparse frame");
                for slot in &mut out[start..start + rlen] {
                    *slot = bytes.get_f32_le();
                }
            }
        }
    }
    (out, encoding)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_roundtrip() {
        let values = vec![1.5, -2.25, 0.0, f32::MAX, f32::MIN_POSITIVE];
        let encoded = encode_f32(&values);
        assert_eq!(encoded.len(), 4 + values.len() * 4);
        assert_eq!(decode_f32(encoded), values);
    }

    #[test]
    fn f32_empty() {
        assert_eq!(decode_f32(encode_f32(&[])), Vec::<f32>::new());
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_frame_panics() {
        let frame = encode_f32(&[1.0, 2.0]);
        decode_f32(frame.slice(0..6));
    }

    // Satellite regression: frames cut inside the *header* must fail the
    // documented assertion, not the bytes shim's internal underflow panic.
    #[test]
    #[should_panic(expected = "truncated f32 frame")]
    fn f32_empty_frame_panics() {
        decode_f32(Bytes::new());
    }

    #[test]
    #[should_panic(expected = "truncated f32 frame")]
    fn f32_three_byte_frame_panics() {
        let frame = encode_f32(&[1.0]);
        decode_f32(frame.slice(0..3));
    }

    fn sparse_roundtrip(values: &[f32]) -> WireEncoding {
        let (frame, encoding) = encode_f32_sparse(values);
        let (decoded, decoded_enc) = decode_f32_sparse(frame);
        assert_eq!(decoded_enc, encoding);
        assert_eq!(decoded.len(), values.len());
        for (i, (&got, &want)) in decoded.iter().zip(values).enumerate() {
            if want == 0.0 {
                // Zero slots decode as +0.0 regardless of input sign.
                assert_eq!(got.to_bits(), 0.0f32.to_bits(), "slot {i}");
            } else {
                assert_eq!(got.to_bits(), want.to_bits(), "slot {i}");
            }
        }
        encoding
    }

    #[test]
    fn sparse_picks_dense_for_dense_payloads() {
        let values: Vec<f32> = (1..=32).map(|i| i as f32).collect();
        assert_eq!(sparse_roundtrip(&values), WireEncoding::Dense);
    }

    #[test]
    fn sparse_picks_bitmap_for_scattered_nonzeros() {
        let mut values = vec![0.0f32; 256];
        for i in (0..256).step_by(7) {
            values[i] = (i + 1) as f32;
        }
        assert_eq!(sparse_roundtrip(&values), WireEncoding::Bitmap);
    }

    #[test]
    fn sparse_picks_runs_for_clustered_nonzeros() {
        let mut values = vec![0.0f32; 4096];
        for (i, slot) in values[100..108].iter_mut().enumerate() {
            *slot = (i + 1) as f32;
        }
        assert_eq!(sparse_roundtrip(&values), WireEncoding::Runs);
    }

    #[test]
    fn sparse_empty_and_all_zero() {
        sparse_roundtrip(&[]);
        let encoding = sparse_roundtrip(&[0.0; 100]);
        assert_ne!(encoding, WireEncoding::Dense);
        let (frame, _) = encode_f32_sparse(&[0.0; 100]);
        // All-zero payload collapses to header + presence metadata.
        assert!(frame.len() < 5 + 100 * 4 / 2);
    }

    #[test]
    fn sparse_preserves_special_values() {
        // NaN and -0.0 handling: NaN is nonzero (ships verbatim), -0.0 is
        // zero (decodes as +0.0).
        let values = [f32::NAN, -0.0, 1.5, f32::INFINITY, 0.0, f32::MIN_POSITIVE];
        sparse_roundtrip(&values);
    }

    #[test]
    fn sparse_tie_break_is_deterministic() {
        // Same payload always yields byte-identical frames.
        let mut values = vec![0.0f32; 64];
        values[3] = 1.0;
        values[40] = -2.0;
        let (a, ea) = encode_f32_sparse(&values);
        let (b, eb) = encode_f32_sparse(&values);
        assert_eq!(ea, eb);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "truncated sparse frame")]
    fn sparse_empty_frame_panics() {
        decode_f32_sparse(Bytes::new());
    }

    #[test]
    #[should_panic(expected = "truncated sparse frame")]
    fn sparse_header_truncation_panics() {
        let (frame, _) = encode_f32_sparse(&[1.0, 0.0, 2.0]);
        decode_f32_sparse(frame.slice(0..3));
    }

    #[test]
    #[should_panic(expected = "truncated sparse frame")]
    fn sparse_body_truncation_panics() {
        let (frame, _) = encode_f32_sparse(&[1.0, 2.0, 3.0]);
        let cut = frame.len() - 2;
        decode_f32_sparse(frame.slice(0..cut));
    }

    /// A 5-byte frame of `encoding` whose length word claims `u32::MAX`
    /// elements: 16 GiB of `f32`s if it were believed before checked.
    fn lying_header(encoding: WireEncoding) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u8(encoding as u8);
        buf.put_u32_le(u32::MAX);
        buf.freeze()
    }

    #[test]
    #[should_panic(expected = "truncated sparse frame")]
    fn sparse_dense_length_word_is_checked_before_allocating() {
        decode_f32_sparse(lying_header(WireEncoding::Dense));
    }

    #[test]
    #[should_panic(expected = "truncated sparse frame")]
    fn sparse_bitmap_length_word_is_checked_before_allocating() {
        decode_f32_sparse(lying_header(WireEncoding::Bitmap));
    }

    #[test]
    #[should_panic(expected = "unknown sparse frame tag")]
    fn sparse_unknown_tag_panics() {
        let mut buf = BytesMut::new();
        buf.put_u8(9);
        buf.put_u32_le(0);
        decode_f32_sparse(buf.freeze());
    }
}
