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

/// Writes values LSB-first, up to 32 bits at a time, into a byte slice
/// sized for exactly the bits it will receive. This is the bit order of
/// every presence bitmap and packed-code section on the wire: bit `i` of
/// the stream is bit `i % 8` of byte `i / 8`.
pub struct BitWriter<'a> {
    out: &'a mut [u8],
    /// Bytes of `out` already written.
    at: usize,
    /// Bits not yet written, lowest first; `filled < 32` between calls.
    word: u64,
    filled: u32,
}

impl<'a> BitWriter<'a> {
    pub fn new(out: &'a mut [u8]) -> Self {
        BitWriter {
            out,
            at: 0,
            word: 0,
            filled: 0,
        }
    }

    /// Appends the low `width ≤ 32` bits of `value`; its higher bits must
    /// be zero.
    #[inline]
    pub fn put(&mut self, value: u32, width: u32) {
        debug_assert!(width <= 32 && u64::from(value) >> width == 0);
        self.word |= u64::from(value) << self.filled;
        self.filled += width;
        if self.filled >= 32 {
            self.out[self.at..self.at + 4].copy_from_slice(&(self.word as u32).to_le_bytes());
            self.at += 4;
            self.word >>= 32;
            self.filled -= 32;
        }
    }

    /// Writes the last, partial bytes.
    ///
    /// # Panics
    /// Panics unless `out` is then exactly full.
    pub fn finish(self) {
        let tail = self.filled.div_ceil(8) as usize;
        assert_eq!(self.at + tail, self.out.len(), "bit writer sized wrong");
        self.out[self.at..].copy_from_slice(&self.word.to_le_bytes()[..tail]);
    }
}

/// Reads what a [`BitWriter`] wrote. Bits past the end of the slice read as
/// zero, so a caller checks the slice is long enough for what it will take
/// before taking it.
#[derive(Clone, Copy)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Bits consumed so far.
    pos: usize,
}

impl<'a> BitReader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Takes the next `width ≤ 32` bits.
    #[inline]
    pub fn take(&mut self, width: u32) -> u32 {
        debug_assert!(width <= 32);
        // One little-endian load covers the at most 7 + 32 bits wanted.
        let (at, shift) = (self.pos / 8, self.pos % 8);
        let word = match self.bytes.get(at..).and_then(|b| b.first_chunk::<8>()) {
            Some(chunk) => u64::from_le_bytes(*chunk),
            None => {
                let mut chunk = [0u8; 8];
                let tail = self.bytes.get(at..).unwrap_or_default();
                chunk[..tail.len()].copy_from_slice(tail);
                u64::from_le_bytes(chunk)
            }
        };
        self.pos += width as usize;
        ((word >> shift) & ((1u64 << width) - 1)) as u32
    }

    /// Passes over the next `bits` bits.
    pub fn skip(&mut self, bits: usize) {
        self.pos += bits;
    }

    /// How many of the next `bits` bits are set (without taking them).
    pub fn count_ones(&self, bits: usize) -> usize {
        let mut probe = *self;
        (0..bits)
            .step_by(32)
            .map(|at| probe.take((bits - at).min(32) as u32).count_ones() as usize)
            .sum()
    }
}

/// The presence byte of at most eight values: bit `i` is set when
/// `values[i]` is not zero.
#[inline]
fn presence(values: &[f32]) -> u8 {
    debug_assert!(values.len() <= 8);
    values
        .iter()
        .enumerate()
        .fold(0, |byte, (i, &v)| byte | u8::from(!is_zero(v)) << i)
}

/// Grows `out` by `len` zero bytes and returns them: a frame section whose
/// size is known before it is written, filled in place (by a
/// [`BitWriter`], for bit-packed sections).
pub fn grow(out: &mut Vec<u8>, len: usize) -> &mut [u8] {
    let at = out.len();
    out.resize(at + len, 0);
    &mut out[at..]
}

/// The first `len` bytes of `body` and the rest.
///
/// # Panics
/// Panics with `"truncated sparse frame"` when `body` is shorter.
fn take(body: &[u8], len: usize) -> (&[u8], &[u8]) {
    assert!(body.len() >= len, "truncated sparse frame");
    body.split_at(len)
}

fn u32_at(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Serializes an `f32` slice under the smallest of the three
/// density-adaptive layouts (see [`WireEncoding`]); returns the frame and
/// the layout it chose. [`encode_f32_sparse_into`] into a new buffer.
///
/// Decoding with [`decode_f32_sparse`] reproduces every nonzero value
/// bit-for-bit; zero slots come back as `+0.0` (note `-0.0` inputs decode
/// as `+0.0` — see [`WireEncoding`] for why this is accumulation-safe).
pub fn encode_f32_sparse(values: &[f32]) -> (Bytes, WireEncoding) {
    let mut frame = Vec::new();
    let encoding = encode_f32_sparse_into(values, &mut frame);
    (Bytes::from(frame), encoding)
}

/// Appends the sparse frame of `values` to `out` and returns the layout it
/// chose — the bytes [`encode_f32_sparse`] returns. One counting pass sizes
/// all three layouts (nonzeros and runs of nonzeros are all they depend
/// on); the winner is then written in place, with no buffer of its own.
pub fn encode_f32_sparse_into(values: &[f32], out: &mut Vec<u8>) -> WireEncoding {
    let n = values.len();
    let (mut nnz, mut runs, mut previous) = (0usize, 0usize, false);
    for &v in values {
        let present = !is_zero(v);
        nnz += usize::from(present);
        runs += usize::from(present && !previous);
        previous = present;
    }
    let dense_sz = 5 + 4 * n;
    let bitmap_sz = 5 + n.div_ceil(8) + 4 * nnz;
    let runs_sz = 9 + 8 * runs + 4 * nnz;
    let best = dense_sz.min(bitmap_sz).min(runs_sz);

    let encoding = if best == dense_sz {
        WireEncoding::Dense
    } else if best == bitmap_sz {
        WireEncoding::Bitmap
    } else {
        WireEncoding::Runs
    };

    let start = out.len();
    out.reserve(best);
    out.push(encoding as u8);
    out.put_u32_le(n as u32);
    match encoding {
        WireEncoding::Dense => {
            for (bytes, v) in grow(out, 4 * n).chunks_exact_mut(4).zip(values) {
                bytes.copy_from_slice(&v.to_le_bytes());
            }
        }
        WireEncoding::Bitmap => {
            out.extend(values.chunks(8).map(presence));
            for &v in values.iter().filter(|&&v| !is_zero(v)) {
                out.put_f32_le(v);
            }
        }
        WireEncoding::Runs => {
            out.put_u32_le(runs as u32);
            let mut i = 0;
            while i < n {
                if is_zero(values[i]) {
                    i += 1;
                    continue;
                }
                let run = i;
                while i < n && !is_zero(values[i]) {
                    i += 1;
                }
                out.put_u32_le(run as u32);
                out.put_u32_le((i - run) as u32);
                for &v in &values[run..i] {
                    out.put_f32_le(v);
                }
            }
        }
    }
    debug_assert_eq!(out.len() - start, best, "sparse frame size mismatch");
    encoding
}

/// Deserializes a frame produced by [`encode_f32_sparse`]. Returns the full
/// dense vector (zero slots filled with `+0.0`) and the layout the encoder
/// chose: [`read_f32_sparse_with`] into a vector of the frame's length.
///
/// The dense and bitmap layouts carry at least 4 and ⅛ bytes per element,
/// so their length word is checked against the frame before `len` elements
/// are allocated. The runs layout legitimately expands — an all-zero slice
/// of `n` elements is a 9-byte frame — so here, where the frame is the only
/// source of the length, a runs frame is trusted to come from
/// [`encode_f32_sparse`]. The PS push path never calls this: it reads
/// through [`read_f32_sparse_with`], which takes the length from the caller.
///
/// # Panics
/// Panics with `"truncated sparse frame"` on truncation anywhere, including
/// inside the 5-byte tag+length header, and otherwise as
/// [`read_f32_sparse_with`].
pub fn decode_f32_sparse(bytes: Bytes) -> (Vec<f32>, WireEncoding) {
    assert!(bytes.len() >= 5, "truncated sparse frame");
    let len = u32_at(&bytes[1..]) as usize;
    let min_body = match WireEncoding::from_tag(bytes[0]) {
        WireEncoding::Dense => len * 4,
        WireEncoding::Bitmap => len.div_ceil(8),
        WireEncoding::Runs => 4,
    };
    assert!(bytes.len() - 5 >= min_body, "truncated sparse frame");
    let mut out = vec![0.0f32; len];
    let encoding = read_f32_sparse_with(&mut &bytes[..], len, |i, v| out[i] = v);
    (out, encoding)
}

/// Reads the sparse frame of an `n`-element slice from the front of
/// `bytes`, advancing past it (frames are self-delimiting, so they compose
/// into larger messages — the quantized block frames concatenate several),
/// and hands `put(i, v)` each element the frame carries, once each, in
/// ascending `i < n`: every element of a dense frame, only the nonzeros of
/// a bitmap or runs frame. The elements it skips are the frame's zeros,
/// which decode as `+0.0`; so `put` adding into an accumulator that never
/// holds `-0.0` leaves it exactly as adding the decoded slice would have
/// (DESIGN §14.1). Allocates nothing.
///
/// # Panics
/// * `"sparse frame of {len} elements where {n} were expected"` when the
///   length word is not `n` — checked before anything else is read, so a
///   lying length word costs nothing;
/// * `"truncated sparse frame"` on truncation anywhere, checked for each
///   section before any of its elements reach `put`;
/// * `"unknown sparse frame tag {tag}"`;
/// * `"sparse frame run {start}+{len} out of order or past length {n}"`
///   for a run that starts before the previous one ends or runs past `n`.
pub fn read_f32_sparse_with(
    bytes: &mut &[u8],
    n: usize,
    mut put: impl FnMut(usize, f32),
) -> WireEncoding {
    let (header, mut body) = take(bytes, 5);
    let encoding = WireEncoding::from_tag(header[0]);
    let len = u32_at(&header[1..]) as usize;
    assert!(
        len == n,
        "sparse frame of {len} elements where {n} were expected"
    );
    let f32_at = |b: &[u8]| f32::from_bits(u32_at(b));
    match encoding {
        WireEncoding::Dense => {
            let (values, rest) = take(body, 4 * n);
            for (i, v) in values.chunks_exact(4).enumerate() {
                put(i, f32_at(v));
            }
            body = rest;
        }
        WireEncoding::Bitmap => {
            let (bitmap, rest) = take(body, n.div_ceil(8));
            let mut present = BitReader::new(bitmap);
            let (values, rest) = take(rest, 4 * present.count_ones(n));
            let mut values = values.chunks_exact(4).map(f32_at);
            for chunk in (0..n).step_by(32) {
                let mut mask = present.take((n - chunk).min(32) as u32);
                while mask != 0 {
                    let v = values.next().expect("one value per set bit, counted above");
                    put(chunk + mask.trailing_zeros() as usize, v);
                    mask &= mask - 1;
                }
            }
            body = rest;
        }
        WireEncoding::Runs => {
            let (count, mut rest) = take(body, 4);
            let mut next = 0usize;
            for _ in 0..u32_at(count) {
                let (run, after) = take(rest, 8);
                let (start, rlen) = (u32_at(run) as usize, u32_at(&run[4..]) as usize);
                assert!(
                    start >= next && start <= n && rlen <= n - start,
                    "sparse frame run {start}+{rlen} out of order or past length {n}"
                );
                let (values, after) = take(after, 4 * rlen);
                for (k, v) in values.chunks_exact(4).enumerate() {
                    put(start + k, f32_at(v));
                }
                (next, rest) = (start + rlen, after);
            }
            body = rest;
        }
    }
    *bytes = body;
    encoding
}

/// The codec [`encode_f32_sparse_into`] and [`read_f32_sparse_with`]
/// replaced, kept verbatim as what the tests pin them against: the same
/// frame bytes, and the same accumulator bits after decode + add.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

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

    pub(crate) fn encode_f32_sparse(values: &[f32]) -> (Bytes, WireEncoding) {
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

    pub(crate) fn read_f32_sparse(bytes: &mut Bytes) -> (Vec<f32>, WireEncoding) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

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

    // ---- the in-place codec == the one it replaced, byte and bit ----------

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// One value of a class the codec treats specially: subnormals and
    /// ordinary values of both signs, NaN and infinities (all present and
    /// shipped verbatim).
    fn present_value(r: u64) -> f32 {
        let mantissa = (r >> 40) as u32 & 0x007F_FFFF;
        match r % 8 {
            0 => f32::from_bits(mantissa),
            1 => -f32::from_bits(mantissa),
            2 => f32::NAN,
            3 => f32::INFINITY,
            4 => f32::NEG_INFINITY,
            _ => ((r >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32 * 1e3,
        }
    }

    /// Slices built from segments: runs of `±0.0`, runs of present values,
    /// and scattered stretches — so each of the three layouts wins some.
    fn arb_values() -> impl Strategy<Value = Vec<f32>> {
        vec((1usize..48, 0u8..4, any::<u64>()), 0..10).prop_map(|segments| {
            let mut values = Vec::new();
            for (len, kind, seed) in segments {
                let mut state = seed | 1;
                // Long zero gaps, so that runs frames win too.
                let len = if kind == 0 { 6 * len } else { len };
                for i in 0..len {
                    let r = xorshift(&mut state);
                    values.push(match kind {
                        0 if i % 2 == 0 => 0.0,
                        0 => -0.0,
                        1 => present_value(r),
                        _ if r.is_multiple_of(4) => present_value(r >> 2),
                        _ => 0.0,
                    });
                }
            }
            values
        })
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        /// Same frame bytes as the old encoder; same decoded slice; and the
        /// decode-add (skipping what the frame omits) leaves the accumulator
        /// on the same bits as the old decode followed by adding every
        /// element — from `+0.0`, and on top of an earlier push.
        #[test]
        fn sparse_codec_matches_reference(values in arb_values()) {
            let n = values.len();
            let reversed: Vec<f32> = values.iter().rev().copied().collect();
            let (mut acc, mut want) = (vec![0.0f32; n], vec![0.0f32; n]);
            for push in [&values, &reversed, &values] {
                let (frame, encoding) = encode_f32_sparse(push);
                let (mut old, old_encoding) = reference::encode_f32_sparse(push);
                prop_assert_eq!(encoding, old_encoding);
                prop_assert!(frame == old, "frame bytes differ");

                let (decoded, _) = decode_f32_sparse(frame.clone());
                let (old_decoded, _) = reference::read_f32_sparse(&mut old);
                prop_assert_eq!(bits(&decoded), bits(&old_decoded));

                let mut rest = &frame[..];
                let read = read_f32_sparse_with(&mut rest, n, |i, v| acc[i] += v);
                prop_assert_eq!(read, encoding);
                prop_assert!(rest.is_empty(), "reader left {} bytes", rest.len());
                for (w, v) in want.iter_mut().zip(&old_decoded) {
                    *w += v;
                }
                prop_assert_eq!(bits(&acc), bits(&want));
            }
        }
    }

    #[test]
    fn bit_writer_and_reader_roundtrip_every_width() {
        for width in 1u32..=32 {
            let values: Vec<u32> = (0..77u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) as u32)
                .map(|v| {
                    if width == 32 {
                        v
                    } else {
                        v & ((1 << width) - 1)
                    }
                })
                .collect();
            let mut out = vec![0u8; (values.len() * width as usize).div_ceil(8)];
            let mut writer = BitWriter::new(&mut out);
            for &v in &values {
                writer.put(v, width);
            }
            writer.finish();
            let mut reader = BitReader::new(&out);
            let ones: u32 = values.iter().map(|v| v.count_ones()).sum();
            assert_eq!(
                reader.count_ones(values.len() * width as usize),
                ones as usize
            );
            for &v in &values {
                assert_eq!(reader.take(width), v, "width {width}");
            }
        }
    }

    // ---- the push-path reader takes the length from its caller ------------

    #[test]
    #[should_panic(expected = "sparse frame of 4294967295 elements where 8 were expected")]
    fn read_with_checks_a_dense_length_word_before_reading() {
        let frame = lying_header(WireEncoding::Dense);
        read_f32_sparse_with(&mut &frame[..], 8, |_, _| unreachable!());
    }

    #[test]
    #[should_panic(expected = "sparse frame of 4294967295 elements where 8 were expected")]
    fn read_with_checks_a_bitmap_length_word_before_reading() {
        let frame = lying_header(WireEncoding::Bitmap);
        read_f32_sparse_with(&mut &frame[..], 8, |_, _| unreachable!());
    }

    #[test]
    #[should_panic(expected = "sparse frame of 4294967295 elements where 8 were expected")]
    fn read_with_checks_a_runs_length_word_before_reading() {
        // Nine bytes that `decode_f32_sparse` would expand to 16 GiB.
        let mut frame = lying_header(WireEncoding::Runs).to_vec();
        frame.extend_from_slice(&0u32.to_le_bytes());
        read_f32_sparse_with(&mut &frame[..], 8, |_, _| unreachable!());
    }

    #[test]
    #[should_panic(expected = "out of order or past length")]
    fn read_with_rejects_overlapping_runs() {
        // len 4, two runs: 0+2 with two values, then 1+1 with one.
        let mut frame = vec![WireEncoding::Runs as u8];
        for word in [4u32, 2, 0, 2, 0, 0, 1, 1, 0] {
            frame.extend_from_slice(&word.to_le_bytes());
        }
        read_f32_sparse_with(&mut &frame[..], 4, |_, _| {});
    }

    /// What `read_f32_sparse_with` documents it panics with.
    const DOCUMENTED: [&str; 4] = [
        "truncated sparse frame",
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

    #[test]
    fn prefixes_and_mutations_of_real_frames_fail_only_as_documented() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut scattered = vec![0.0f32; 90];
        for i in (0..90).step_by(7) {
            scattered[i] = i as f32 - 40.5;
        }
        let mut clustered = vec![0.0f32; 300];
        clustered[40..52].fill(3.25);
        clustered[200] = -1.0;
        let dense: Vec<f32> = (0..20).map(|i| i as f32 + 0.5).collect();
        for (values, layout) in [
            (dense, WireEncoding::Dense),
            (scattered, WireEncoding::Bitmap),
            (clustered, WireEncoding::Runs),
        ] {
            let (frame, encoding) = encode_f32_sparse(&values);
            assert_eq!(encoding, layout);
            let n = values.len();
            let read = |bytes: &[u8]| {
                let mut acc = vec![0.0f32; n];
                read_f32_sparse_with(&mut &bytes[..], n, |i, v| acc[i] += v);
            };
            for cut in 0..frame.len() {
                let message = panic_message(|| read(&frame[..cut]));
                assert_eq!(
                    message.as_deref(),
                    Some("truncated sparse frame"),
                    "{layout:?} cut {cut}"
                );
            }
            for _ in 0..3000 {
                let mut bytes = frame.to_vec();
                for _ in 0..1 + xorshift(&mut state) % 2 {
                    let r = xorshift(&mut state);
                    let at = (r % bytes.len() as u64) as usize;
                    bytes[at] = match r >> 62 {
                        0 => 0,
                        1 => 0xFF,
                        _ => bytes[at] ^ ((r >> 32) as u8 | 1),
                    };
                }
                if let Some(message) = panic_message(|| read(&bytes)) {
                    assert!(
                        DOCUMENTED.iter().any(|d| message.starts_with(d)),
                        "{layout:?}: undocumented panic {message:?}"
                    );
                }
            }
        }
    }
}
