//! Pins the tentpole guarantee: compiled-engine scores are **bit-equal**
//! to the interpreted `Tree` evaluation path on every loss.
//!
//! No tolerances anywhere in this file. The compiled traversal performs the
//! same f32 comparisons on the same values as `Tree::route`, and the score
//! accumulation adds `η·ω` terms in the same tree order as the interpreter,
//! so every assertion is exact `==` on f32 bits — any divergence, down to
//! one ulp, is a compiler bug.

use dimboost_core::{train_single_machine, GbdtConfig, GbdtModel, LossKind, Tree};
use dimboost_data::synthetic::{generate, LabelKind, SparseGenConfig};
use dimboost_data::Dataset;
use dimboost_predict::{score_raw, score_transformed, CompiledModel, EngineConfig};

fn trained(loss: LossKind, seed: u64) -> (GbdtModel, Dataset) {
    let mut gen = SparseGenConfig::new(400, 50, 10, seed);
    if let LossKind::Softmax { classes } = loss {
        gen.label_kind = LabelKind::Multiclass { classes };
    }
    let ds = generate(&gen);
    let cfg = GbdtConfig {
        num_trees: 6,
        max_depth: 4,
        loss,
        ..GbdtConfig::default()
    };
    let model = train_single_machine(&ds, &cfg).unwrap();
    (model, ds)
}

fn assert_bit_equal(model: &GbdtModel, ds: &Dataset) {
    let compiled = CompiledModel::compile(model);
    let k = model.num_classes();
    for i in 0..ds.num_rows() {
        let row = ds.row(i);
        // Per-class raw scores.
        let mut raw = vec![0.0f32; k];
        compiled.score_into(&row, &mut raw);
        assert_eq!(raw, model.predict_scores(&row), "row {i} raw scores");
        if k == 1 {
            assert_eq!(compiled.predict_raw(&row), model.predict_raw(&row));
        }
        // Transformed prediction and probabilities.
        assert_eq!(compiled.predict(&row), model.predict(&row), "row {i}");
        assert_eq!(compiled.predict_proba(&row), model.predict_proba(&row));
    }
    // The batch engine must agree with both, for every threading config.
    let transformed_ref = model.predict_dataset(ds);
    for threads in [1, 2, 4, 8] {
        let cfg = EngineConfig {
            threads,
            batch_size: 33,
        };
        assert_eq!(score_transformed(&compiled, ds, &cfg), transformed_ref);
        let raw = score_raw(&compiled, ds, &cfg);
        for i in 0..ds.num_rows() {
            assert_eq!(raw[i * k..(i + 1) * k], model.predict_scores(&ds.row(i)));
        }
    }
}

#[test]
fn binary_logistic_scores_bit_equal() {
    let (model, ds) = trained(LossKind::Logistic, 21);
    assert_bit_equal(&model, &ds);
}

#[test]
fn regression_square_scores_bit_equal() {
    let (model, ds) = trained(LossKind::Square, 22);
    assert_bit_equal(&model, &ds);
}

#[test]
fn multiclass_softmax_scores_bit_equal() {
    let (model, ds) = trained(LossKind::Softmax { classes: 4 }, 23);
    assert_bit_equal(&model, &ds);
}

#[test]
fn compiled_agrees_on_unseen_data() {
    // Score a dataset the model never saw (different seed and density):
    // routing must agree on rows with unseen sparsity patterns too.
    let (model, _) = trained(LossKind::Logistic, 24);
    let other = generate(&SparseGenConfig::new(300, 50, 25, 99));
    assert_bit_equal(&model, &other);
}

#[test]
fn negative_zero_leaves_score_positive_zero_on_every_path() {
    // `assert_eq!` on f32 calls -0.0 and +0.0 equal, so this row compares
    // bits: every tree routes to a -0.0 leaf, each term `η·ω` is -0.0, and a
    // sum folded from +0.0 is +0.0 (`Iterator::sum::<f32>()` folds from -0.0
    // and used to leave the interpreter's `predict_raw` at -0.0).
    let mut tree = Tree::new(1);
    tree.set_leaf(0, -0.0);
    let model = GbdtModel::new(vec![tree.clone(), tree], 0.1, LossKind::Square, 50);
    let ds = generate(&SparseGenConfig::new(8, 50, 10, 25));
    let compiled = CompiledModel::compile(&model);
    let zero = 0.0f32.to_bits();
    let raw = score_raw(&compiled, &ds, &EngineConfig::default());
    for (i, batch_score) in raw.iter().enumerate() {
        let row = ds.row(i);
        assert_eq!(model.predict_raw(&row).to_bits(), zero, "row {i}");
        assert_eq!(model.predict_scores(&row)[0].to_bits(), zero, "row {i}");
        assert_eq!(compiled.predict_raw(&row).to_bits(), zero, "row {i}");
        assert_eq!(batch_score.to_bits(), zero, "row {i}");
    }
    let interpreted = model.predict_raw_dataset(&ds);
    assert!(interpreted.iter().all(|s| s.to_bits() == zero));
}
