//! Row partitioning across workers and train/test splitting.
//!
//! DimBoost (like MLlib, XGBoost, and data-parallel LightGBM) partitions the
//! training data **by instances** across workers (Section 1, step 1 of the
//! core operation). The partitioner here produces contiguous, near-equal
//! shards, which mirrors the HDFS-block-oriented ETL module described in
//! Section 7.1.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::{DataError, Dataset};

/// Splits `dataset` into `num_workers` contiguous row shards whose sizes
/// differ by at most one row.
pub fn partition_rows(dataset: &Dataset, num_workers: usize) -> Result<Vec<Dataset>, DataError> {
    if num_workers == 0 {
        return Err(DataError::InvalidConfig(
            "num_workers must be positive".into(),
        ));
    }
    let n = dataset.num_rows();
    let mut shards = Vec::with_capacity(num_workers);
    let base = n / num_workers;
    let extra = n % num_workers;
    let mut start = 0;
    for w in 0..num_workers {
        let len = base + usize::from(w < extra);
        let rows: Vec<usize> = (start..start + len).collect();
        shards.push(dataset.subset(&rows));
        start += len;
    }
    Ok(shards)
}

/// Shuffles rows with the given seed and splits off the last `test_fraction`
/// as the test set (the paper uses 90% train / 10% test).
pub fn train_test_split(
    dataset: &Dataset,
    test_fraction: f64,
    seed: u64,
) -> Result<(Dataset, Dataset), DataError> {
    if !(0.0..1.0).contains(&test_fraction) {
        return Err(DataError::InvalidConfig(format!(
            "test_fraction must be in [0, 1), got {test_fraction}"
        )));
    }
    let n = dataset.num_rows();
    if n == 0 {
        return Err(DataError::EmptyDataset);
    }
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    let n_test = ((n as f64) * test_fraction).round() as usize;
    let n_train = n - n_test;
    let train = dataset.subset(&order[..n_train]);
    let test = dataset.subset(&order[n_train..]);
    Ok((train, test))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate, SparseGenConfig};

    fn toy(n: usize) -> Dataset {
        generate(&SparseGenConfig::new(n, 50, 8, 42))
    }

    #[test]
    fn partition_covers_all_rows_evenly() {
        let ds = toy(103);
        let shards = partition_rows(&ds, 5).unwrap();
        assert_eq!(shards.len(), 5);
        let sizes: Vec<usize> = shards.iter().map(|s| s.num_rows()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 103);
        assert_eq!(sizes, vec![21, 21, 21, 20, 20]);
        // Shards are contiguous: first shard's first row == dataset row 0.
        assert_eq!(shards[0].label(0), ds.label(0));
    }

    #[test]
    fn partition_more_workers_than_rows() {
        let ds = toy(3);
        let shards = partition_rows(&ds, 5).unwrap();
        let sizes: Vec<usize> = shards.iter().map(|s| s.num_rows()).collect();
        assert_eq!(sizes, vec![1, 1, 1, 0, 0]);
    }

    #[test]
    fn partition_rejects_zero_workers() {
        assert!(partition_rows(&toy(10), 0).is_err());
    }

    #[test]
    fn split_sizes_and_determinism() {
        let ds = toy(1000);
        let (tr1, te1) = train_test_split(&ds, 0.1, 7).unwrap();
        let (tr2, te2) = train_test_split(&ds, 0.1, 7).unwrap();
        assert_eq!(tr1.num_rows(), 900);
        assert_eq!(te1.num_rows(), 100);
        assert_eq!(tr1, tr2);
        assert_eq!(te1, te2);
        // Different seed shuffles differently.
        let (tr3, _) = train_test_split(&ds, 0.1, 8).unwrap();
        assert_ne!(tr1, tr3);
    }

    #[test]
    fn split_rejects_bad_fraction() {
        assert!(train_test_split(&toy(10), 1.0, 0).is_err());
        assert!(train_test_split(&toy(10), -0.1, 0).is_err());
    }

    #[test]
    fn split_rejects_empty() {
        let ds = Dataset::empty(4);
        assert!(matches!(
            train_test_split(&ds, 0.1, 0),
            Err(DataError::EmptyDataset)
        ));
    }
}
