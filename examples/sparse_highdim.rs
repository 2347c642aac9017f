//! Sparsity-aware histogram construction (Algorithm 2) in isolation: build
//! the root-node histogram of a high-dimensional sparse dataset with the
//! traditional dense pass and with DimBoost's sparse pass, verify they are
//! identical, and compare the cost.
//!
//! ```sh
//! cargo run --release --example sparse_highdim
//! ```

use std::time::Instant;

use dimboost::core::hist_build::build_row;
use dimboost::core::loss::loss_for;
use dimboost::core::{local_sketches, FeatureMeta, LossKind};
use dimboost::data::synthetic::{gender_like, generate};
use dimboost::sketch::propose_candidates;

fn main() {
    // Gender-shaped: very sparse, many features.
    let dataset = generate(&gender_like(3).with_rows(15_000).with_features(10_000));
    println!(
        "dataset: {} rows x {} features, z = {:.1} nonzeros/row (z/M = {:.4})",
        dataset.num_rows(),
        dataset.num_features(),
        dataset.avg_nnz(),
        dataset.avg_nnz() / dataset.num_features() as f64
    );

    // Propose split candidates from per-feature sketches (CREATE_SKETCH /
    // PULL_SKETCH), then build the feature metadata.
    let candidates: Vec<_> = local_sketches(&dataset, 0..dataset.num_features(), 0.01)
        .iter_mut()
        .map(|s| propose_candidates(s, 20))
        .collect();
    let meta = FeatureMeta::all_features(&candidates);
    println!("histogram row: {} f32 values", meta.layout().row_len());

    // Root-node gradients (logistic loss at score 0).
    let loss = loss_for(LossKind::Logistic);
    let grads: Vec<_> = dataset
        .labels()
        .iter()
        .map(|&y| loss.grad(0.0, y))
        .collect();
    let instances: Vec<u32> = (0..dataset.num_rows() as u32).collect();

    let t = Instant::now();
    let dense = build_row(&dataset, &instances, &grads, &meta, false);
    let t_dense = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let sparse = build_row(&dataset, &instances, &grads, &meta, true);
    let t_sparse = t.elapsed().as_secs_f64();

    let max_diff = dense
        .iter()
        .zip(&sparse)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!("\ndense pass (O(M*N)):          {:.3}s", t_dense);
    println!("sparsity-aware (O(z*N + M)):  {:.3}s", t_sparse);
    println!(
        "speedup: {:.0}x, max element difference: {max_diff:.2e}",
        t_dense / t_sparse
    );
    assert!(max_diff < 1e-2, "builders diverged");
    println!("\nboth passes produce the same histogram — Algorithm 2 is exact.");
}
