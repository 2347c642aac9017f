//! The one checked little-endian reader behind the two binary files the
//! tools read back: `DIMBGBDT` models ([`crate::model_io`]) and `DIMBCKPT`
//! checkpoints ([`crate::checkpoint`]). The text-side counterpart is
//! `dimboost_simnet::kv`.
//!
//! # Reading rules
//!
//! * Every read is checked: running out of input is [`ReadError::Eof`],
//!   never a panic.
//! * A count read from the file is accepted only if that many elements of
//!   the smallest size the format allows can still follow — so whatever a
//!   decoder allocates for `n` elements is bounded by the file's own
//!   length, not by a cap constant.
//!
//! Deliberately outside: the `simnet::wire` / `ps::sparse` / `ps::quantize`
//! frame decoders read in-process frames on the trainer's measured path and
//! keep their own typed errors.

/// Why a read failed. Converts into `Corrupt` of either file's error type,
/// so a truncated checkpoint says `corrupt checkpoint: …` whether the cut
/// fell inside the embedded model or outside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadError {
    /// Fewer bytes remain than the read needs.
    Eof,
    /// `n` elements of `what` cannot fit in the bytes that remain.
    Count { what: &'static str, n: u64 },
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Eof => write!(f, "unexpected end of input"),
            ReadError::Count { what, n } => write!(f, "implausible {what} count {n}"),
        }
    }
}

/// A forward-only view of the bytes not yet read.
pub(crate) struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Cursor { rest: bytes }
    }

    /// The next `n` bytes. `n` is a `u64` so a length word from the file
    /// is compared before it is narrowed.
    pub(crate) fn take(&mut self, n: u64) -> Result<&'a [u8], ReadError> {
        if n > self.rest.len() as u64 {
            return Err(ReadError::Eof);
        }
        let (head, tail) = self.rest.split_at(n as usize);
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N as u64)?);
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(self.array::<1>()?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ReadError> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ReadError> {
        self.array().map(u64::from_le_bytes)
    }

    pub(crate) fn f32(&mut self) -> Result<f32, ReadError> {
        self.array().map(f32::from_le_bytes)
    }

    pub(crate) fn f64(&mut self) -> Result<f64, ReadError> {
        self.array().map(f64::from_le_bytes)
    }

    /// An element count — read as a `u32` or `u64` word by `word` — that
    /// passes the count rule: that many elements of at least
    /// `min_elem_bytes` each must fit in what remains.
    pub(crate) fn count<N: Into<u64>>(
        &mut self,
        word: fn(&mut Self) -> Result<N, ReadError>,
        what: &'static str,
        min_elem_bytes: u64,
    ) -> Result<usize, ReadError> {
        let n = word(self)?.into();
        match n.checked_mul(min_elem_bytes) {
            Some(bytes) if bytes <= self.rest.len() as u64 => Ok(n as usize),
            _ => Err(ReadError::Count { what, n }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_little_endian_and_checked() {
        let mut c = Cursor::new(&[1, 2, 0, 0, 0, 0xFF]);
        assert_eq!(c.u8(), Ok(1));
        assert_eq!(c.u32(), Ok(2));
        assert_eq!(c.u64(), Err(ReadError::Eof));
        // A failed read consumes nothing.
        assert_eq!(c.take(1), Ok(&[0xFF][..]));
        assert_eq!(c.take(0), Ok(&[][..]));
        assert_eq!(c.u8(), Err(ReadError::Eof));
        assert_eq!(Cursor::new(&[0; 4]).take(u64::MAX), Err(ReadError::Eof));
        let pi = std::f64::consts::PI.to_le_bytes();
        assert_eq!(Cursor::new(&pi).f64(), Ok(std::f64::consts::PI));
        assert_eq!(Cursor::new(&1.5f32.to_le_bytes()).f32(), Ok(1.5));
    }

    #[test]
    fn counts_are_bounded_by_what_remains() {
        // Count word 3, then exactly 3 × 4 bytes: accepted; one byte fewer
        // is not, and neither is a product that overflows.
        let mut bytes = 3u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 12]);
        assert_eq!(Cursor::new(&bytes).count(Cursor::u64, "x", 4), Ok(3));
        assert_eq!(
            Cursor::new(&bytes[..19]).count(Cursor::u64, "x", 4),
            Err(ReadError::Count { what: "x", n: 3 })
        );
        let huge = u64::MAX.to_le_bytes();
        let err = Cursor::new(&huge).count(Cursor::u64, "x", 4).unwrap_err();
        assert_eq!(err.to_string(), format!("implausible x count {}", u64::MAX));
        let mut c = Cursor::new(&[2, 0, 0, 0, 9, 9]);
        assert_eq!(c.count(Cursor::u32, "y", 1), Ok(2));
        assert_eq!(
            Cursor::new(&[0; 3]).count(Cursor::u32, "y", 1),
            Err(ReadError::Eof)
        );
    }
}
