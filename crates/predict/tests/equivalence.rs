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
    // The batch engine must agree with both, for every (threads,
    // batch_size): one identity across all of them.
    let transformed_ref = model.predict_dataset(ds);
    for batch_size in [1, 33, 64, 100] {
        for threads in [1, 2, 4, 8] {
            let cfg = EngineConfig {
                threads,
                batch_size,
            };
            let at = format!("threads={threads} batch_size={batch_size}");
            assert_eq!(
                score_transformed(&compiled, ds, &cfg),
                transformed_ref,
                "{at}"
            );
            let raw = score_raw(&compiled, ds, &cfg);
            for i in 0..ds.num_rows() {
                let row_ref = model.predict_scores(&ds.row(i));
                assert_eq!(raw[i * k..(i + 1) * k], row_ref, "row {i} {at}");
            }
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

// ---- Both walks, any model, any block shape ---------------------------------
//
// `CompiledModel` scores a block of up to eight rows through one of two walks
// (slot vectors, or a binary search per node), picked from the rows' nonzero
// counts and the ensemble's total depth; a model whose slot map would
// outweigh its nodes has none and always searches. The properties below
// draw malformed and degenerate models and rows on both sides of that rule
// and compare every entry point to the interpreter bit for bit. Which side a
// given block takes is pinned next to the rule, in `compiled.rs`.

use dimboost_data::DatasetBuilder;
use dimboost_predict::ScoreScratch;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The scorer's block size: the datasets below change density only at
/// multiples of it, so each of its blocks is empty, full or drawn.
const BLOCK_ROWS: usize = 8;

/// Split values and row values share one small grid (signed zeros included)
/// so `v == threshold` and `v == 0.0` are hit often.
const GRID: [f32; 9] = [-2.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0];

fn grid(rng: &mut StdRng) -> f32 {
    GRID[rng.random_range(0..GRID.len())]
}

/// Grows node `id` of `tree`: internal (default direction either way, a
/// feature possibly past the model's dimensionality — now and then far
/// past it, so some models' slot maps would outweigh their nodes and are
/// not built), a leaf (signed-zero weights included) or left `Unused` — a
/// malformed tree routing there predicts 0.0.
fn grow(tree: &mut Tree, id: u32, features: u32, rng: &mut StdRng) {
    let roll = rng.random_range(0..10u32);
    if Tree::depth_of(id) < tree.max_depth() && roll < 6 {
        let feature = if rng.random_bool(0.1) {
            rng.random_range(0..ROW_WIDTH as u32)
        } else {
            rng.random_range(0..features + 3)
        };
        tree.set_internal_full(id, feature, grid(rng), 0.0, rng.random_bool(0.5));
        grow(tree, Tree::left_child(id), features, rng);
        grow(tree, Tree::right_child(id), features, rng);
    } else if roll < 9 {
        let weight = if rng.random_bool(0.2) {
            -0.0
        } else {
            grid(rng)
        };
        tree.set_leaf(id, weight);
    }
}

/// A random ensemble of 1–8 trees of depth 0–5 over `features` features.
fn random_model(rng: &mut StdRng, loss: LossKind, features: u32) -> GbdtModel {
    let trees = (0..rng.random_range(1..=8usize))
        .map(|_| {
            let mut tree = Tree::new(rng.random_range(0..=5usize));
            grow(&mut tree, 0, features, rng);
            tree
        })
        .collect();
    GbdtModel::new(trees, 0.1 + grid(rng).abs(), loss, features as usize)
}

/// Row width of the random datasets: past every feature a model tests, and wide
/// enough that a block of full rows takes the lookup walk for any model
/// `random_model` draws (2·256 > 40 steps · ⌈log2 257⌉ = 360).
const ROW_WIDTH: usize = 256;

/// `rows` rows of [`ROW_WIDTH`] features, in blocks of `BLOCK_ROWS` that
/// share a density: block 0 empty, block 1 full, the rest drawn. Values
/// come from the grid, so some drawn ones are `-0.0`/`0.0`, which the
/// builder drops like any zero.
fn random_rows(rng: &mut StdRng, rows: usize) -> Dataset {
    let mut b = DatasetBuilder::new(ROW_WIDTH);
    let mut density = 0.0;
    for i in 0..rows {
        if i % BLOCK_ROWS == 0 {
            density = match i / BLOCK_ROWS {
                0 => 0.0,
                1 => 1.0,
                _ => [0.0, 0.02, 0.1, 0.5, 1.0][rng.random_range(0..5usize)],
            };
        }
        let (mut indices, mut values) = (Vec::new(), Vec::new());
        for f in 0..ROW_WIDTH as u32 {
            if rng.random_bool(density) {
                let v = grid(rng);
                indices.push(f);
                // Full blocks stay full.
                values.push(if density == 1.0 && v == 0.0 { 1.0 } else { v });
            }
        }
        b.push_raw(&indices, &values, 0.0).unwrap();
    }
    b.finish().unwrap()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every entry point on `data` against the interpreter, bit for bit.
fn check_all_paths(model: &GbdtModel, data: &Dataset, batch_size: usize) {
    let compiled = CompiledModel::compile(model);
    let k = model.num_classes();
    let rows = || (0..data.num_rows()).map(|i| data.row(i));
    let want_raw: Vec<f32> = rows().flat_map(|r| model.predict_scores(&r)).collect();
    let want_pred = model.predict_dataset(data);

    for (i, row) in rows().enumerate() {
        let mut raw = vec![0.0f32; k];
        compiled.score_into(&row, &mut raw);
        assert_eq!(bits(&raw), bits(&want_raw[i * k..(i + 1) * k]), "row {i}");
        if k == 1 {
            let want = model.predict_raw(&row).to_bits();
            assert_eq!(compiled.predict_raw(&row).to_bits(), want, "row {i}");
        }
        assert_eq!(compiled.predict(&row).to_bits(), want_pred[i].to_bits());
        assert_eq!(
            bits(&compiled.predict_proba(&row)),
            bits(&model.predict_proba(&row))
        );
    }

    // One scratch across both block entry points and both walks.
    let mut scratch = ScoreScratch::new();
    let mut raw = vec![0.0f32; data.num_rows() * k];
    compiled.score_rows(rows(), &mut scratch, &mut raw);
    assert_eq!(bits(&raw), bits(&want_raw));
    let mut pred = vec![0.0f32; data.num_rows()];
    compiled.predict_rows(rows(), &mut scratch, &mut pred);
    assert_eq!(bits(&pred), bits(&want_pred));

    for threads in [1, 2, 4] {
        let cfg = EngineConfig {
            threads,
            batch_size,
        };
        assert_eq!(bits(&score_raw(&compiled, data, &cfg)), bits(&want_raw));
        assert_eq!(
            bits(&score_transformed(&compiled, data, &cfg)),
            bits(&want_pred)
        );
    }
}

fn check_random_case(seed: u64, loss: LossKind) {
    let mut rng = StdRng::seed_from_u64(seed);
    let features = rng.random_range(4..=40u32);
    let model = random_model(&mut rng, loss, features);
    // At least the empty and the full block, then a tail of 1–8 rows.
    let rows = rng.random_range(2 * BLOCK_ROWS + 1..=6 * BLOCK_ROWS);
    let data = random_rows(&mut rng, rows);
    check_all_paths(&model, &data, 2 * rng.random_range(0..7usize) + 1);
}

proptest! {
    #[test]
    fn random_square_models_score_bit_equal_on_both_walks(seed in any::<u64>()) {
        check_random_case(seed, LossKind::Square);
    }

    #[test]
    fn random_logistic_models_score_bit_equal_on_both_walks(seed in any::<u64>()) {
        check_random_case(seed, LossKind::Logistic);
    }

    #[test]
    fn random_softmax_models_score_bit_equal_on_both_walks(seed in any::<u64>()) {
        check_random_case(seed, LossKind::Softmax { classes: 3 });
    }
}

/// A complete tree of `depth` levels, node `id` testing feature
/// `id·7 mod features`.
fn full_tree(depth: usize, features: u32) -> Tree {
    let mut tree = Tree::new(depth);
    let internal = (1u32 << depth) - 1;
    for id in 0..internal {
        tree.set_internal(id, id * 7 % features, 0.5);
    }
    for id in internal..2 * internal + 1 {
        tree.set_leaf(id, id as f32 * 0.01);
    }
    tree
}

/// One block of `BLOCK_ROWS` rows with `nnz` nonzeros each, spread evenly
/// over `features`.
fn even_rows(nnz: usize, features: usize) -> Dataset {
    let mut b = DatasetBuilder::new(features);
    for r in 0..BLOCK_ROWS {
        let mut indices: Vec<u32> = (0..nnz)
            .map(|j| ((j * features / nnz + r) % features) as u32)
            .collect();
        indices.sort_unstable();
        let values: Vec<f32> = indices
            .iter()
            .map(|&f| (f % 5) as f32 * 0.3 - 0.4)
            .collect();
        b.push_raw(&indices, &values, 0.0).unwrap();
    }
    b.finish().unwrap()
}

#[test]
fn benchmark_shaped_blocks_score_bit_equal() {
    // (name, trees, depth, features, nonzeros per row) of the benchmark's
    // workloads; `benchmark_shaped_blocks_take_their_pinned_walk` in
    // `compiled.rs` pins the walk each shape takes (`highdim` the search,
    // `serve` and `tall-ext` the slot vectors).
    let shapes = [
        ("highdim", 2, 4, 10_000, 100),
        ("serve", 16, 6, 600, 40),
        ("tall-ext", 6, 6, 400, 48),
    ];
    for (name, trees, depth, features, nnz) in shapes {
        let tree = full_tree(depth, features as u32);
        let model = GbdtModel::new(vec![tree; trees], 0.1, LossKind::Logistic, features);
        let data = even_rows(nnz, features);
        assert!((0..BLOCK_ROWS).all(|i| data.row(i).nnz() == nnz), "{name}");
        check_all_paths(&model, &data, BLOCK_ROWS);
    }
}
