//! Dataset layer for the DimBoost reproduction.
//!
//! This crate provides everything the training system needs to get data into
//! memory and onto workers:
//!
//! * [`SparseInstance`] / [`DenseInstance`] — single training rows
//!   (Section 2.1 of the paper).
//! * [`Dataset`] — a CSR-backed, row-partitionable collection of instances.
//! * [`libsvm`] — reader/writer for the LibSVM text format used by the
//!   public datasets the paper evaluates (e.g. RCV1).
//! * [`synthetic`] — seeded generators reproducing the *shape* (rows,
//!   features, sparsity, signal spread) of the paper's datasets: RCV1,
//!   Synthesis, Gender, and the low-dimensional Synthesis-2.
//! * [`partition`] — row partitioning across workers and train/test splits.
//!
//! All randomness is seeded (`StdRng`), so every generator and split is
//! reproducible bit-for-bit.

#[cfg_attr(not(test), deny(clippy::unwrap_used))]
pub mod csv;
mod dataset;
mod decimal;
mod error;
mod instance;
#[cfg_attr(not(test), deny(clippy::unwrap_used))]
pub mod libsvm;
pub mod partition;
pub mod synthetic;

pub use dataset::{Column, ColumnStats, ColumnView, Dataset, DatasetBuilder, RowView};
pub use error::DataError;
pub use instance::{DenseInstance, SparseInstance};
