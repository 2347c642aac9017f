//! LibSVM text-format reader and writer.
//!
//! The format is one instance per line: `label idx:value idx:value ...`.
//! RCV1 and most public classification datasets the paper evaluates ship in
//! this format. Indices in LibSVM files are conventionally 1-based; this
//! module converts to 0-based internal indices by default.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::decimal;
use crate::error::parse_finite;
use crate::{DataError, Dataset};

/// Parsing options for LibSVM input.
#[derive(Debug, Clone, Copy)]
pub struct LibsvmOptions {
    /// Whether feature indices in the file start at 1 (the LibSVM
    /// convention). When `true`, index `i` in the file becomes `i - 1`.
    pub one_based: bool,
    /// Dimensionality override. When `None`, the dimensionality is the
    /// largest index seen plus one.
    pub num_features: Option<usize>,
    /// Map labels to {0, 1}: any label `<= 0` (including `-1`) becomes `0.0`,
    /// anything else `1.0`. Matches the binary-classification setting of the
    /// paper's evaluation.
    pub binarize_labels: bool,
}

impl Default for LibsvmOptions {
    fn default() -> Self {
        Self {
            one_based: true,
            num_features: None,
            binarize_labels: true,
        }
    }
}

/// Reads a LibSVM-format dataset from any reader.
///
/// One pass: every line is read into one kept buffer and its nonzeros are
/// appended straight to the returned dataset's CSR arrays, so the reader
/// allocates O(log rows) times, never per row. A line is trimmed
/// (`str::trim`), `#` lines and blank lines are skipped, and the rest is
/// split on ASCII whitespace into a label and `idx:value` pairs, each pair
/// at its first `:`. An unsorted line is sorted by index, keeping one entry
/// per index; explicit zeros are dropped after that. Indices must fit a
/// `u32` after the 1-based shift.
pub fn read_libsvm<R: Read>(reader: R, opts: LibsvmOptions) -> Result<Dataset, DataError> {
    let mut reader = BufReader::new(reader);
    let mut line = Vec::new();
    let (mut indptr, mut indices, mut values, mut labels) =
        (vec![0], Vec::new(), Vec::new(), Vec::new());
    // An unsorted line or one with zeros is rebuilt through here.
    let mut pairs: Vec<(u32, f32)> = Vec::new();
    // Largest index seen plus one; 0 while no line has an entry.
    let mut dim_seen = 0;
    let mut line_no = 0;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        line_no += 1;
        let text = std::str::from_utf8(&line)
            .map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                )
            })?
            .trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let mut at = 0;
        let Some((label_tok, _)) = next_token(text, &mut at) else {
            return Err(DataError::Parse {
                line: line_no,
                message: "missing label".into(),
            });
        };
        let raw_label = parse_finite(label_tok, line_no, format_args!("label"))?;
        let label = match opts.binarize_labels {
            true if raw_label <= 0.0 => 0.0,
            true => 1.0,
            false => raw_label,
        };

        let start = indices.len();
        let (mut sorted, mut zeros) = (true, false);
        while let Some((tok, colon)) = next_token(text, &mut at) {
            let Some(colon) = colon else {
                return Err(DataError::Parse {
                    line: line_no,
                    message: format!("expected idx:value, got {tok:?}"),
                });
            };
            let (idx_str, val_str) = (&tok[..colon], &tok[colon + 1..]);
            let bad_index = || DataError::Parse {
                line: line_no,
                message: format!("bad index {idx_str:?}"),
            };
            let raw_idx: u64 = idx_str.parse().map_err(|_| bad_index())?;
            let idx = match opts.one_based {
                true => raw_idx.checked_sub(1).ok_or_else(|| DataError::Parse {
                    line: line_no,
                    message: "index 0 in a 1-based file".into(),
                })?,
                false => raw_idx,
            };
            let idx = u32::try_from(idx).map_err(|_| bad_index())?;
            let value = parse_finite(val_str, line_no, format_args!("value"))?;
            sorted &= indices.len() == start || indices[indices.len() - 1] < idx;
            zeros |= value == 0.0;
            dim_seen = dim_seen.max(idx as usize + 1);
            indices.push(idx);
            values.push(value);
        }
        if !sorted || zeros {
            pairs.clear();
            pairs.extend(indices.drain(start..).zip(values.drain(start..)));
            if !sorted {
                pairs.sort_unstable_by_key(|&(i, _)| i);
                pairs.dedup_by_key(|&mut (i, _)| i);
            }
            for &(i, v) in pairs.iter().filter(|&&(_, v)| v != 0.0) {
                indices.push(i);
                values.push(v);
            }
        }
        indptr.push(indices.len());
        labels.push(label);
    }

    let num_features = match opts.num_features {
        Some(m) if dim_seen > m => {
            return Err(DataError::FeatureOutOfRange {
                index: (dim_seen - 1) as u32,
                num_features: m,
            })
        }
        Some(m) => m,
        None => dim_seen,
    };
    Ok(Dataset::from_csr(
        indptr,
        indices,
        values,
        labels,
        num_features,
    ))
}

/// The next token of `text` (split on ASCII whitespace) at or after byte
/// `*at`, with the offset of its first `:`; moves `*at` past it.
fn next_token<'a>(text: &'a str, at: &mut usize) -> Option<(&'a str, Option<usize>)> {
    let bytes = text.as_bytes();
    let mut start = *at;
    while start < bytes.len() && bytes[start].is_ascii_whitespace() {
        start += 1;
    }
    if start == bytes.len() {
        return None;
    }
    let (mut end, mut colon) = (start, None);
    while end < bytes.len() && !bytes[end].is_ascii_whitespace() {
        if bytes[end] == b':' && colon.is_none() {
            colon = Some(end - start);
        }
        end += 1;
    }
    *at = end;
    // Both ends sit next to ASCII bytes or at the ends of `text`.
    Some((&text[start..end], colon))
}

/// Reads a LibSVM-format dataset from a file path.
pub fn read_libsvm_file<P: AsRef<Path>>(
    path: P,
    opts: LibsvmOptions,
) -> Result<Dataset, DataError> {
    let file = std::fs::File::open(path)?;
    read_libsvm(file, opts)
}

/// The kept output buffer is handed to the writer once it holds this many
/// bytes.
const WRITE_CHUNK: usize = 1 << 16;

/// Writes a dataset in LibSVM format (1-based indices). Labels and values
/// are printed exactly as `{}` prints an `f32` — the shortest digits that
/// parse back to the same value — so reading the file returns the dataset.
pub fn write_libsvm<W: Write>(mut writer: W, dataset: &Dataset) -> Result<(), DataError> {
    let mut out = Vec::with_capacity(2 * WRITE_CHUNK);
    for (row, label) in dataset.iter_rows() {
        decimal::push_f32(&mut out, label);
        for (f, v) in row.iter() {
            out.push(b' ');
            decimal::push_u64(&mut out, u64::from(f) + 1);
            out.push(b':');
            decimal::push_f32(&mut out, v);
        }
        out.push(b'\n');
        if out.len() >= WRITE_CHUNK {
            writer.write_all(&out)?;
            out.clear();
        }
    }
    writer.write_all(&out)?;
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
+1 1:0.5 3:1.5
-1 2:2.0
# comment line

0 1:1.0 4:4.0
";

    #[test]
    fn parses_sample() {
        let ds = read_libsvm(SAMPLE.as_bytes(), LibsvmOptions::default()).unwrap();
        assert_eq!(ds.num_rows(), 3);
        assert_eq!(ds.num_features(), 4); // max index 4 -> 0-based 3 -> dim 4
        assert_eq!(ds.label(0), 1.0);
        assert_eq!(ds.label(1), 0.0); // -1 binarized
        assert_eq!(ds.label(2), 0.0);
        assert_eq!(ds.row(0).get(0), 0.5);
        assert_eq!(ds.row(0).get(2), 1.5);
        assert_eq!(ds.row(2).get(3), 4.0);
    }

    #[test]
    fn respects_feature_override() {
        let opts = LibsvmOptions {
            num_features: Some(10),
            ..Default::default()
        };
        let ds = read_libsvm(SAMPLE.as_bytes(), opts).unwrap();
        assert_eq!(ds.num_features(), 10);
    }

    #[test]
    fn rejects_too_small_override() {
        let opts = LibsvmOptions {
            num_features: Some(2),
            ..Default::default()
        };
        assert!(read_libsvm(SAMPLE.as_bytes(), opts).is_err());
    }

    #[test]
    fn keeps_raw_labels_when_not_binarizing() {
        let opts = LibsvmOptions {
            binarize_labels: false,
            ..Default::default()
        };
        let ds = read_libsvm("2.5 1:1.0\n".as_bytes(), opts).unwrap();
        assert_eq!(ds.label(0), 2.5);
    }

    #[test]
    fn zero_based_indices() {
        let opts = LibsvmOptions {
            one_based: false,
            ..Default::default()
        };
        let ds = read_libsvm("1 0:1.0 2:2.0\n".as_bytes(), opts).unwrap();
        assert_eq!(ds.num_features(), 3);
        assert_eq!(ds.row(0).get(0), 1.0);
    }

    #[test]
    fn rejects_index_zero_in_one_based_file() {
        let err = read_libsvm("1 0:1.0\n".as_bytes(), LibsvmOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_malformed_pair() {
        let err = read_libsvm("1 nonsense\n".as_bytes(), LibsvmOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Parse { .. }));
        // Line numbers count every line, comments and blank ones too; a
        // token splits at its first `:`.
        for (text, line, message) in [
            ("1 1:1\r\n0 x\r\n", 2, "expected idx:value, got \"x\""),
            ("1\t1:1\tx\n", 1, "expected idx:value, got \"x\""),
            (
                "# c\n\n1 1:1\n   \n# d\n0 q\n",
                6,
                "expected idx:value, got \"q\"",
            ),
            ("1 3:\n", 1, "bad value \"\""),
            ("1 :2\n", 1, "bad index \"\""),
            ("1 1:2:3\n", 1, "bad value \"2:3\""),
            ("1 -3:1\n", 1, "bad index \"-3\""),
            ("1 1:1\u{b}2:2\n", 1, "bad value \"1\\u{b}2:2\""),
            // A parse error anywhere beats a too-small `num_features`.
            ("1 5:1\n1 x\n", 2, "expected idx:value, got \"x\""),
        ] {
            for num_features in [None, Some(10)] {
                let opts = LibsvmOptions {
                    num_features,
                    ..Default::default()
                };
                let err = read_libsvm(text.as_bytes(), opts).unwrap_err();
                let DataError::Parse {
                    line: at,
                    message: got,
                } = &err
                else {
                    panic!("{text:?}: {err}");
                };
                assert_eq!((*at, got.as_str()), (line, message), "{text:?}");
            }
        }
    }

    #[test]
    fn rejects_invalid_utf8_as_io() {
        for text in [&b"1 1:1\n0 \xff:1\n"[..], b"\xff\n1 x\n"] {
            let err = read_libsvm(text, LibsvmOptions::default()).unwrap_err();
            let DataError::Io(e) = &err else {
                panic!("{err}");
            };
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
            assert_eq!(
                err.to_string(),
                "I/O error: stream did not contain valid UTF-8"
            );
        }
        // Lines are read in order: an earlier parse error comes first.
        let err = read_libsvm(&b"1 x\n\xff\n"[..], LibsvmOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn rejects_indices_past_u32() {
        for (text, one_based, token) in [
            ("1 4294967297:1.5\n", true, "4294967297"),
            ("1 4294967296:1.5\n", false, "4294967296"),
            ("1 +4294967297:1\n", true, "+4294967297"),
            ("1 18446744073709551616:1\n", true, "18446744073709551616"),
        ] {
            for num_features in [None, Some(10)] {
                let opts = LibsvmOptions {
                    one_based,
                    num_features,
                    ..Default::default()
                };
                let err = read_libsvm(text.as_bytes(), opts).unwrap_err();
                let DataError::Parse { line: 1, message } = &err else {
                    panic!("{text:?}: {err}");
                };
                assert_eq!(*message, format!("bad index {token:?}"));
            }
        }
        // The largest index that fits is kept as it is.
        let ds = read_libsvm("1 4294967296:1.5\n".as_bytes(), LibsvmOptions::default()).unwrap();
        assert_eq!(ds.num_features(), 1 << 32);
        assert_eq!(ds.row(0).indices(), &[u32::MAX]);
    }

    #[test]
    fn accepts_crlf_tabs_signs_and_odd_whitespace() {
        let rows = |text: &[u8]| {
            let ds = read_libsvm(text, LibsvmOptions::default()).unwrap();
            let rows: Vec<_> = ds
                .iter_rows()
                .map(|(r, l)| (r.indices().to_vec(), r.values().to_vec(), l))
                .collect();
            (rows, ds.num_features())
        };
        let one = |i: Vec<u32>, v: Vec<f32>, dim| (vec![(i, v, 1.0)], dim);
        assert_eq!(
            rows(b"1 1:1\r\n0 2:2\r\n"),
            (
                vec![(vec![0], vec![1.0], 1.0), (vec![1], vec![2.0], 0.0)],
                2
            )
        );
        assert_eq!(rows(b"1\t1:1\t2:2\n"), one(vec![0, 1], vec![1.0, 2.0], 2));
        assert_eq!(rows(b"1 +3:1\n"), one(vec![2], vec![1.0], 3));
        // Form feed and a lone carriage return separate; a no-break space
        // is trimmed at the ends.
        assert_eq!(
            rows(b"1 1:1\x0c2:2\r3:3"),
            one(vec![0, 1, 2], vec![1.0, 2.0, 3.0], 3)
        );
        assert_eq!(
            rows("\u{a0}1 1:1\u{a0}\n".as_bytes()),
            one(vec![0], vec![1.0], 1)
        );
        // A repeated index keeps its first entry, and zeros drop after
        // that; a zero entry still counts towards the dimensionality.
        assert_eq!(rows(b"1 3:1 3:0\n"), one(vec![2], vec![1.0], 3));
        assert_eq!(rows(b"1 3:0 3:1\n"), one(vec![], vec![], 3));
        assert_eq!(rows(b"1 4:0 2:5 1:0\n"), one(vec![1], vec![5.0], 4));
        assert_eq!(rows(b""), (vec![], 0));
        assert_eq!(rows(b"\n\n#x"), (vec![], 0));
    }

    /// FNV-1a of the bytes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The writer's bytes, recorded when it still printed with `write!`
    /// and `{}`.
    #[test]
    fn writes_the_pinned_bytes() {
        let ds =
            crate::synthetic::generate(&crate::synthetic::SparseGenConfig::new(2_000, 300, 30, 7));
        let mut buf = Vec::new();
        write_libsvm(&mut buf, &ds).unwrap();
        assert_eq!((fnv1a(&buf), buf.len()), (0xab8a_60f1_9a9b_425b, 731_186));
        let opts = LibsvmOptions {
            num_features: Some(300),
            binarize_labels: false,
            ..Default::default()
        };
        assert_eq!(read_libsvm(buf.as_slice(), opts).unwrap(), ds);
    }

    #[test]
    fn rejects_non_finite_values_and_labels_naming_the_token() {
        for (text, line, token) in [
            ("1 1:nan 2:3\n", 1, "value \"nan\""),
            ("0 1:1\n1 1:inf\n", 2, "value \"inf\""),
            ("1 2:-infinity\n", 1, "value \"-infinity\""),
            ("# c\nnan 1:1\n", 2, "label \"nan\""),
            ("+inf 1:1\n", 1, "label \"+inf\""),
        ] {
            for binarize_labels in [true, false] {
                let opts = LibsvmOptions {
                    binarize_labels,
                    ..Default::default()
                };
                let err = read_libsvm(text.as_bytes(), opts).unwrap_err();
                let DataError::Parse { line: at, message } = &err else {
                    panic!("{text:?}: {err}");
                };
                assert_eq!(*at, line, "{text:?}: {err}");
                assert!(
                    message.contains("non-finite") && message.contains(token),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn roundtrip_write_read() {
        let ds = read_libsvm(SAMPLE.as_bytes(), LibsvmOptions::default()).unwrap();
        let mut buf = Vec::new();
        write_libsvm(&mut buf, &ds).unwrap();
        let opts = LibsvmOptions {
            num_features: Some(ds.num_features()),
            ..Default::default()
        };
        let ds2 = read_libsvm(buf.as_slice(), opts).unwrap();
        assert_eq!(ds, ds2);
    }

    #[test]
    fn tolerates_unsorted_line() {
        let ds = read_libsvm("1 3:3.0 1:1.0\n".as_bytes(), LibsvmOptions::default()).unwrap();
        assert_eq!(ds.row(0).indices(), &[0, 2]);
    }
}
