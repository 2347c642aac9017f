//! Set-up: seed → synthetic dataset → LibSVM file → parsed dataset →
//! train/test split → one shard per worker.
//!
//! The LibSVM round trip is deliberate: a user's data arrives as a file, so
//! the parser is on the path from "I have data" to "training can start",
//! and `setup_s` should show a change that slows it.

use std::path::Path;
use std::time::Instant;

use dimboost_data::libsvm::{read_libsvm_file, write_libsvm, LibsvmOptions};
use dimboost_data::partition::{partition_rows, train_test_split};
use dimboost_data::synthetic::{generate, SparseGenConfig};
use dimboost_data::Dataset;

use crate::measure::{fnv1a64_f32, Checks};
use crate::spans::Recorder;
use crate::workload::{Workload, TEST_FRACTION};

/// What set-up hands to the measured stages.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The 90 % training split, unsharded (scored by the serve stage).
    pub train: Dataset,
    /// The 10 % hold-out.
    pub test: Dataset,
    /// `train` partitioned row-wise, one shard per worker.
    pub shards: Vec<Dataset>,
    /// Size of the LibSVM file that was written and read back.
    pub libsvm_bytes: u64,
    /// Wall seconds the whole pipeline took.
    pub secs: f64,
}

/// Runs the pipeline once. The intermediate file lives in `scratch` (inside
/// the checkout) and is removed before returning.
pub fn prepare(
    workload: &Workload,
    seed: u64,
    scratch: &Path,
    rec: &mut Recorder,
    checks: &mut Checks,
) -> Result<Prepared, String> {
    let begin = Instant::now();
    std::fs::create_dir_all(scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let path = scratch.join(format!("{}-{}.libsvm", workload.name, std::process::id()));

    let gen_config = SparseGenConfig::new(workload.rows, workload.features, workload.nnz, seed);
    let generated = rec.span("data.generate", "data", None, |_| generate(&gen_config));

    let written = rec.span("data.libsvm_write", "data", None, |_| {
        std::fs::File::create(&path)
            .map_err(|e| e.to_string())
            .and_then(|file| write_libsvm(file, &generated).map_err(|e| e.to_string()))
    });
    let parsed = written.and_then(|()| {
        let options = LibsvmOptions {
            num_features: Some(workload.features),
            ..LibsvmOptions::default()
        };
        rec.span("data.libsvm_read", "data", None, |_| {
            read_libsvm_file(&path, options).map_err(|e| e.to_string())
        })
    });
    let libsvm_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    // Best effort: a leftover file only wastes space inside the checkout.
    let _ = std::fs::remove_file(&path);
    let dataset = parsed.map_err(|e| format!("LibSVM round trip: {e}"))?;

    // `{}` prints the shortest digits that parse back to the same f32, so
    // the file must reproduce the generated data exactly.
    checks.check(
        dataset.num_rows() == generated.num_rows()
            && dataset.nnz() == generated.nnz()
            && fnv1a64_f32(dataset.labels()) == fnv1a64_f32(generated.labels()),
        || {
            format!(
                "LibSVM round trip changed the data: {}x{} nnz {} -> {}x{} nnz {}",
                generated.num_rows(),
                generated.num_features(),
                generated.nnz(),
                dataset.num_rows(),
                dataset.num_features(),
                dataset.nnz()
            )
        },
    );
    drop(generated);

    let (train, test) = rec
        .span("data.split", "data", None, |_| {
            train_test_split(&dataset, TEST_FRACTION, seed)
        })
        .map_err(|e| format!("train/test split: {e}"))?;
    let shards = rec
        .span("data.partition", "data", None, |_| {
            partition_rows(&train, workload.workers)
        })
        .map_err(|e| format!("partition: {e}"))?;
    checks.check(
        shards.iter().map(Dataset::num_rows).sum::<usize>() == train.num_rows(),
        || "partition lost rows".to_string(),
    );

    Ok(Prepared {
        train,
        test,
        shards,
        libsvm_bytes,
        secs: begin.elapsed().as_secs_f64(),
    })
}
