//! CSV reader for dense tabular data.
//!
//! LibSVM covers the sparse public benchmarks; plenty of real tabular data
//! arrives as CSV instead. This reader parses numeric CSV into the sparse
//! [`Dataset`] (zeros are simply not stored, so dense CSV columns with many
//! zeros benefit from the sparsity-aware pipeline automatically).

use std::io::{BufRead, BufReader, Read};
use std::path::Path;

use crate::error::parse_finite;
use crate::{DataError, Dataset, DatasetBuilder};

/// Parsing options for CSV input.
#[derive(Debug, Clone, Copy)]
pub struct CsvOptions {
    /// Field delimiter.
    pub delimiter: char,
    /// Skip the first non-empty line.
    pub has_header: bool,
    /// Zero-based column holding the label; every other column is a feature
    /// (in file order).
    pub label_column: usize,
    /// Map labels to {0, 1}: anything `<= 0` becomes `0.0`.
    pub binarize_labels: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        Self {
            delimiter: ',',
            has_header: true,
            label_column: 0,
            binarize_labels: true,
        }
    }
}

/// Reads a numeric CSV into a dataset.
///
/// Every row must have the same number of fields; the label column is
/// removed from the feature space, so a file with `c` columns yields
/// `c − 1` features.
pub fn read_csv<R: Read>(reader: R, opts: CsvOptions) -> Result<Dataset, DataError> {
    let reader = BufReader::new(reader);
    let mut builder: Option<DatasetBuilder> = None;
    let mut expected_fields: usize = 0;
    let mut header_skipped = !opts.has_header;

    for (line_no, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if !header_skipped {
            header_skipped = true;
            continue;
        }
        let fields: Vec<&str> = line.split(opts.delimiter).map(str::trim).collect();
        if opts.label_column >= fields.len() {
            return Err(DataError::Parse {
                line: line_no + 1,
                message: format!(
                    "label column {} out of {} fields",
                    opts.label_column,
                    fields.len()
                ),
            });
        }
        if builder.is_none() {
            // First data row fixes the schema.
            expected_fields = fields.len();
        } else if fields.len() != expected_fields {
            return Err(DataError::Parse {
                line: line_no + 1,
                message: format!("expected {expected_fields} fields, got {}", fields.len()),
            });
        }
        let b = builder.get_or_insert_with(|| DatasetBuilder::new(expected_fields - 1));

        let raw_label = parse_finite(
            fields[opts.label_column],
            line_no + 1,
            format_args!("label"),
        )?;
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
        let mut feature = 0u32;
        for (col, field) in fields.iter().enumerate() {
            if col == opts.label_column {
                continue;
            }
            let v = parse_finite(field, line_no + 1, format_args!("value in column {col}"))?;
            if v != 0.0 {
                indices.push(feature);
                values.push(v);
            }
            feature += 1;
        }
        b.push_raw(&indices, &values, label)
            .map_err(|e| DataError::Parse {
                line: line_no + 1,
                message: e.to_string(),
            })?;
    }

    match builder {
        Some(b) => b.finish(),
        None => Err(DataError::EmptyDataset),
    }
}

/// Reads a numeric CSV file into a dataset.
pub fn read_csv_file<P: AsRef<Path>>(path: P, opts: CsvOptions) -> Result<Dataset, DataError> {
    read_csv(std::fs::File::open(path)?, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
label,f1,f2,f3
1,0.5,0,2.0
0,0,1.5,0
1,-1,0,0.25
";

    #[test]
    fn parses_with_header() {
        let ds = read_csv(SAMPLE.as_bytes(), CsvOptions::default()).unwrap();
        assert_eq!(ds.num_rows(), 3);
        assert_eq!(ds.num_features(), 3);
        assert_eq!(ds.labels(), &[1.0, 0.0, 1.0]);
        assert_eq!(ds.row(0).get(0), 0.5);
        assert_eq!(ds.row(0).get(1), 0.0); // zero dropped
        assert_eq!(ds.row(0).get(2), 2.0);
        assert_eq!(ds.row(2).get(0), -1.0);
        assert_eq!(ds.nnz(), 5);
    }

    #[test]
    fn label_column_in_the_middle() {
        let text = "a,y,b\n1.0,1,2.0\n3.0,-1,4.0\n";
        let opts = CsvOptions {
            label_column: 1,
            ..Default::default()
        };
        let ds = read_csv(text.as_bytes(), opts).unwrap();
        assert_eq!(ds.num_features(), 2);
        assert_eq!(ds.labels(), &[1.0, 0.0]);
        assert_eq!(ds.row(1).get(0), 3.0);
        assert_eq!(ds.row(1).get(1), 4.0);
    }

    #[test]
    fn no_header_and_semicolons() {
        let text = "1;2.5;0\n0;0;3.5\n";
        let opts = CsvOptions {
            has_header: false,
            delimiter: ';',
            ..Default::default()
        };
        let ds = read_csv(text.as_bytes(), opts).unwrap();
        assert_eq!(ds.num_rows(), 2);
        assert_eq!(ds.row(0).get(0), 2.5);
        assert_eq!(ds.row(1).get(1), 3.5);
    }

    #[test]
    fn raw_labels_kept_when_not_binarizing() {
        let text = "y,x\n2.5,1\n-3,2\n";
        let opts = CsvOptions {
            binarize_labels: false,
            ..Default::default()
        };
        let ds = read_csv(text.as_bytes(), opts).unwrap();
        assert_eq!(ds.labels(), &[2.5, -3.0]);
    }

    #[test]
    fn rejects_ragged_rows() {
        let text = "y,a,b\n1,2,3\n1,2\n";
        let err = read_csv(text.as_bytes(), CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 3, .. }), "{err}");
    }

    #[test]
    fn rejects_non_numeric() {
        let text = "y,a\n1,hello\n";
        assert!(read_csv(text.as_bytes(), CsvOptions::default()).is_err());
    }

    #[test]
    fn rejects_non_finite_fields_naming_the_token() {
        for (text, token) in [
            ("y,a,b\n1,2,3\n1,NaN,3\n", "value in column 1 \"NaN\""),
            ("y,a,b\n1,2,3\n0,2,-inf\n", "value in column 2 \"-inf\""),
            ("y,a,b\n1,2,3\ninf,2,3\n", "label \"inf\""),
        ] {
            let err = read_csv(text.as_bytes(), CsvOptions::default()).unwrap_err();
            let DataError::Parse { line: 3, message } = &err else {
                panic!("{text:?}: {err}");
            };
            assert!(
                message.contains("non-finite") && message.contains(token),
                "{err}"
            );
        }
    }

    #[test]
    fn rejects_empty_input() {
        let err = read_csv("".as_bytes(), CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::EmptyDataset));
        // Header only is also empty.
        let err = read_csv("a,b\n".as_bytes(), CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::EmptyDataset));
    }

    #[test]
    fn rejects_label_column_out_of_range() {
        let text = "1,2\n";
        let opts = CsvOptions {
            label_column: 5,
            has_header: false,
            ..Default::default()
        };
        assert!(read_csv(text.as_bytes(), opts).is_err());
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "y,x\n\n# comment\n1,5\n";
        let ds = read_csv(text.as_bytes(), CsvOptions::default()).unwrap();
        assert_eq!(ds.num_rows(), 1);
        assert_eq!(ds.row(0).get(0), 5.0);
    }
}
