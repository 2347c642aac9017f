//! LibSVM text-format reader and writer.
//!
//! The format is one instance per line: `label idx:value idx:value ...`.
//! RCV1 and most public classification datasets the paper evaluates ship in
//! this format. Indices in LibSVM files are conventionally 1-based; this
//! module converts to 0-based internal indices by default.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::error::parse_finite;
use crate::{DataError, Dataset, DatasetBuilder};

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
pub fn read_libsvm<R: Read>(reader: R, opts: LibsvmOptions) -> Result<Dataset, DataError> {
    let reader = BufReader::new(reader);
    let mut rows: Vec<(Vec<u32>, Vec<f32>, f32)> = Vec::new();
    let mut max_index: usize = 0;

    for (line_no, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        let label_tok = parts.next().ok_or_else(|| DataError::Parse {
            line: line_no + 1,
            message: "missing label".into(),
        })?;
        let raw_label = parse_finite(label_tok, line_no + 1, format_args!("label"))?;
        let label = if opts.binarize_labels {
            if raw_label <= 0.0 {
                0.0
            } else {
                1.0
            }
        } else {
            raw_label
        };

        let mut indices = Vec::new();
        let mut values = Vec::new();
        for tok in parts {
            let (idx_str, val_str) = tok.split_once(':').ok_or_else(|| DataError::Parse {
                line: line_no + 1,
                message: format!("expected idx:value, got {tok:?}"),
            })?;
            let raw_idx: u64 = idx_str.parse().map_err(|_| DataError::Parse {
                line: line_no + 1,
                message: format!("bad index {idx_str:?}"),
            })?;
            let idx = if opts.one_based {
                raw_idx.checked_sub(1).ok_or_else(|| DataError::Parse {
                    line: line_no + 1,
                    message: "index 0 in a 1-based file".into(),
                })?
            } else {
                raw_idx
            };
            let value = parse_finite(val_str, line_no + 1, format_args!("value"))?;
            max_index = max_index.max(idx as usize);
            indices.push(idx as u32);
            values.push(value);
        }
        rows.push((indices, values, label));
    }

    let dim_seen = if rows.iter().all(|(i, _, _)| i.is_empty()) {
        0
    } else {
        max_index + 1
    };
    let num_features = match opts.num_features {
        Some(m) => {
            if dim_seen > m {
                return Err(DataError::FeatureOutOfRange {
                    index: max_index as u32,
                    num_features: m,
                });
            }
            m
        }
        None => dim_seen,
    };

    let mut builder = DatasetBuilder::with_capacity(
        num_features,
        rows.len(),
        rows.iter().map(|(i, _, _)| i.len()).sum(),
    );
    for (line_no, (mut indices, mut values, label)) in rows.into_iter().enumerate() {
        // LibSVM files are usually sorted; tolerate unsorted lines by sorting.
        if indices.windows(2).any(|w| w[0] >= w[1]) {
            let mut pairs: Vec<(u32, f32)> = indices
                .iter()
                .copied()
                .zip(values.iter().copied())
                .collect();
            pairs.sort_unstable_by_key(|&(i, _)| i);
            pairs.dedup_by_key(|&mut (i, _)| i);
            indices = pairs.iter().map(|&(i, _)| i).collect();
            values = pairs.iter().map(|&(_, v)| v).collect();
        }
        builder
            .push_raw(&indices, &values, label)
            .map_err(|e| DataError::Parse {
                line: line_no + 1,
                message: e.to_string(),
            })?;
    }
    builder.finish()
}

/// Reads a LibSVM-format dataset from a file path.
pub fn read_libsvm_file<P: AsRef<Path>>(
    path: P,
    opts: LibsvmOptions,
) -> Result<Dataset, DataError> {
    let file = std::fs::File::open(path)?;
    read_libsvm(file, opts)
}

/// Writes a dataset in LibSVM format (1-based indices).
pub fn write_libsvm<W: Write>(writer: W, dataset: &Dataset) -> Result<(), DataError> {
    let mut w = BufWriter::new(writer);
    for (row, label) in dataset.iter_rows() {
        write!(w, "{label}")?;
        for (f, v) in row.iter() {
            write!(w, " {}:{}", f + 1, v)?;
        }
        writeln!(w)?;
    }
    w.flush()?;
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
