use std::fmt;

/// Errors produced while constructing or parsing datasets.
#[derive(Debug)]
pub enum DataError {
    /// A feature index is out of range for the declared dimensionality.
    FeatureOutOfRange {
        /// The offending feature index.
        index: u32,
        /// The declared number of features.
        num_features: usize,
    },
    /// Sparse indices were not strictly increasing.
    UnsortedIndices {
        /// Position in the index array where order breaks.
        position: usize,
    },
    /// Parallel arrays (indices/values, rows/labels) have mismatched lengths.
    LengthMismatch {
        /// Human-readable description of the mismatched pair.
        what: &'static str,
        /// Left length.
        left: usize,
        /// Right length.
        right: usize,
    },
    /// A LibSVM line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of what failed.
        message: String,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// An operation that requires a non-empty dataset got an empty one.
    EmptyDataset,
    /// Invalid configuration value (e.g. zero partitions).
    InvalidConfig(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::FeatureOutOfRange {
                index,
                num_features,
            } => write!(
                f,
                "feature index {index} out of range for {num_features} features"
            ),
            DataError::UnsortedIndices { position } => {
                write!(
                    f,
                    "sparse indices not strictly increasing at position {position}"
                )
            }
            DataError::LengthMismatch { what, left, right } => {
                write!(f, "length mismatch in {what}: {left} vs {right}")
            }
            DataError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            DataError::Io(e) => write!(f, "I/O error: {e}"),
            DataError::EmptyDataset => write!(f, "operation requires a non-empty dataset"),
            DataError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e)
    }
}

/// Parses one numeric token of a text dataset: `what` names it in the error
/// (`label`, `value in column 3`). `nan`, `inf` and `infinity` parse as `f32` but
/// are refused — a NaN bins left of every candidate while the split rule
/// routes it right, so histograms and node index would disagree about the
/// row, and an infinite label has no finite gradient.
pub(crate) fn parse_finite(
    tok: &str,
    line: usize,
    what: fmt::Arguments<'_>,
) -> Result<f32, DataError> {
    let bad = |why: &str| DataError::Parse {
        line,
        message: format!("{why} {what} {tok:?}"),
    };
    let v: f32 = tok.parse().map_err(|_| bad("bad"))?;
    match v.is_finite() {
        true => Ok(v),
        false => Err(bad("non-finite")),
    }
}
