//! The column view changes how CREATE_SKETCH and SPLIT_TREE read a shard,
//! never what they compute. Three pins, each against the form it replaced:
//!
//! * feature-major sketching (`local_sketches`, `GkSketch::insert_slice`)
//!   leaves, tuple for tuple, the summaries per-value insertion in row
//!   order leaves;
//! * `NodeIndex::split_column` leaves the partition the predicate form
//!   `split(|i| goes_left(row(i).get(f)))` leaves;
//! * a resumed run — which builds its view at its first split, not in
//!   CREATE_SKETCH — ends byte-equal to the straight run.
//!
//! The gallop and the batch fold only take their optimised shape in
//! release, so ci.sh runs this binary under both profiles.

use dimboost::core::model_io::model_to_bytes;
use dimboost::core::{
    local_sketches, train_with_options, CheckpointOptions, FaultPlan, FinalSplit, GbdtConfig,
    NodeIndex, Optimizations, RobustOptions, TrainError, TrainOptions, Tree,
};
use dimboost::data::partition::partition_rows;
use dimboost::data::synthetic::{generate, SparseGenConfig};
use dimboost::data::{ColumnView, Dataset};
use dimboost::ps::PsConfig;
use dimboost::simnet::CostModel;
use dimboost::sketch::{GkScratch, GkSketch};
use proptest::collection::vec;
use proptest::prelude::*;

/// `local_sketches` as it was: every row's nonzeros scattered over one live
/// sketch per feature, value by value.
fn per_value_sketches(
    shard: &Dataset,
    features: std::ops::Range<usize>,
    eps: f64,
) -> Vec<GkSketch> {
    let mut sketches: Vec<GkSketch> = features.clone().map(|_| GkSketch::new(eps)).collect();
    for (row, _) in shard.iter_rows() {
        for (f, v) in row
            .iter()
            .filter(|&(f, _)| features.contains(&(f as usize)))
        {
            sketches[f as usize - features.start].insert(v);
        }
    }
    sketches.iter_mut().for_each(GkSketch::flush);
    sketches
}

fn split_on(feature: u32, threshold: f32, default_left: bool) -> FinalSplit {
    FinalSplit {
        feature,
        threshold,
        gain: 0.0,
        left_g: 0.0,
        left_h: 0.0,
        default_left,
    }
}

proptest! {
    /// Shapes from a handful of long columns (many batches each) to mostly
    /// empty ones (every column shorter than a batch, many with no value);
    /// ε from the 16-value minimum batch up; any feature sub-range.
    #[test]
    fn feature_major_sketches_equal_per_value_sketches(
        rows in 0usize..700,
        features in 1usize..40,
        nnz in 1usize..12,
        eps in 0.004f64..0.2,
        seed in 0u64..1_000,
        (lo, len) in (0usize..40, 0usize..41),
    ) {
        let shard = generate(&SparseGenConfig::new(rows, features, nnz.min(features), seed));
        let lo = lo.min(features);
        for range in [0..features, lo..(lo + len).min(features)] {
            let mut by_column = local_sketches(&shard, range.clone(), eps);
            let mut by_value = per_value_sketches(&shard, range.clone(), eps);
            prop_assert_eq!(by_column.len(), range.len());
            // Count, every (v, g, delta), and an empty, released head buffer.
            prop_assert_eq!(&by_column, &by_value);
            for (c, v) in by_column.iter_mut().zip(&mut by_value) {
                prop_assert_eq!(c.count(), v.count());
                prop_assert_eq!(c.wire_bytes(), v.wire_bytes());
            }
        }
    }

    /// The slice path meets a head buffer left in any state by weighted
    /// per-value inserts, takes the stream in several calls, and is read
    /// back both unflushed and flushed.
    #[test]
    fn slice_inserts_equal_per_value_inserts_from_any_buffer_state(
        head in vec((-50.0f32..50.0, 0u64..4), 0..120),
        tail in vec(-50.0f32..50.0, 0..900),
        cuts in vec(0usize..900, 0..4),
        eps in 0.004f64..0.2,
    ) {
        let (mut sliced, mut single) = (GkSketch::new(eps), GkSketch::new(eps));
        for &(v, weight) in &head {
            sliced.insert_weighted(v, weight);
            single.insert_weighted(v, weight);
        }
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(tail.len())).collect();
        cuts.extend([0, tail.len()]);
        cuts.sort_unstable();
        let mut scratch = GkScratch::default();
        for span in cuts.windows(2) {
            sliced.insert_slice(&tail[span[0]..span[1]], &mut scratch);
        }
        tail.iter().for_each(|&v| single.insert(v));
        prop_assert_eq!(&sliced, &single);
        sliced.flush_with(&mut scratch);
        single.flush();
        prop_assert_eq!(&sliced, &single);
        prop_assert_eq!(sliced.wire_bytes(), single.wire_bytes());
    }

    /// Random splits down a depth-4 tree over a full and a row-subsampled
    /// index: every child list and every return value equal. Thresholds
    /// below and above every value make all-left and all-right splits,
    /// which leave empty nodes for the levels below; sparse shapes have
    /// empty columns.
    #[test]
    fn column_split_equals_predicate_split(
        rows in 0usize..400,
        features in 1usize..30,
        nnz in 1usize..8,
        seed in 0u64..1_000,
        keep_one_in in 1u32..5,
        splits in vec((0u32..30, -3.0f32..3.0, any::<bool>()), 15),
    ) {
        let shard = generate(&SparseGenConfig::new(rows, features, nnz.min(features), seed));
        let view = ColumnView::build(&shard);
        let sampled = (0..rows as u32).filter(|i| i % keep_one_in == 0).collect();
        for root in [NodeIndex::new(rows, 31), NodeIndex::from_instances(sampled, 31)] {
            let (mut by_column, mut by_predicate) = (root.clone(), root);
            for (node, &(f, threshold, default_left)) in splits.iter().enumerate() {
                let (node, split) = (node as u32, split_on(f % features as u32, threshold, default_left));
                let (lc, rc) = (Tree::left_child(node), Tree::right_child(node));
                let column = view.column(split.feature as usize);
                let a = by_column.split_column(node, lc, rc, column, |v| split.goes_left(v));
                let b = by_predicate.split(node, lc, rc, |i| {
                    split.goes_left(shard.row(i as usize).get(split.feature))
                });
                prop_assert_eq!(a, b, "node {}", node);
                for child in [lc, rc] {
                    prop_assert_eq!(by_column.instances(child), by_predicate.instances(child));
                }
            }
        }
    }
}

/// The corners the random splits reach only by luck, each named.
#[test]
fn column_split_corner_cases_equal_the_predicate_form() {
    let shard = generate(&SparseGenConfig::new(300, 12, 3, 5));
    let view = ColumnView::build(&shard);
    let stats = shard.column_stats();
    let dense = (0..12).max_by_key(|&f| stats[f].nnz).unwrap() as u32;
    let both = |root: NodeIndex, split: FinalSplit| {
        let (mut a, mut b) = (root.clone(), root);
        let column = view.column(split.feature as usize);
        let left = a.split_column(0, 1, 2, column, |v| split.goes_left(v));
        let same = b.split(0, 1, 2, |i| {
            split.goes_left(shard.row(i as usize).get(split.feature))
        });
        assert_eq!(left, same);
        assert_eq!(
            (a.instances(1), a.instances(2)),
            (b.instances(1), b.instances(2))
        );
        (left, a.count(0))
    };
    // All left / all right: the threshold clears every value and the absent
    // rows follow it.
    let (left, n) = both(NodeIndex::new(300, 3), split_on(dense, f32::MAX, true));
    assert_eq!(left, n);
    let (left, _) = both(NodeIndex::new(300, 3), split_on(dense, f32::MIN, false));
    assert_eq!(left, 0);
    for default_left in [false, true] {
        // A feature past the dimensionality is an empty column: every row
        // follows `default_left`.
        let (left, n) = both(NodeIndex::new(300, 3), split_on(99, 0.5, default_left));
        assert_eq!(left, if default_left { n } else { 0 });
        // Empty node, a node of one row, and the densest column whole.
        let split = split_on(dense, 0.0, default_left);
        both(NodeIndex::from_instances(Vec::new(), 3), split);
        both(NodeIndex::from_instances(vec![299], 3), split);
        both(NodeIndex::new(300, 3), split);
    }
}

#[test]
fn resumed_run_builds_its_view_late_and_ends_byte_equal() {
    let shards = partition_rows(&generate(&SparseGenConfig::new(1_500, 120, 9, 4)), 3).unwrap();
    let ps = PsConfig {
        num_servers: 2,
        num_partitions: 0,
        cost_model: CostModel::GIGABIT_LAN,
    };
    // Both kernels that keep a binned shard, the second with its f32 entry
    // arrays released; a row-subsampled index on top of the first.
    let extensions = Optimizations {
        pre_binning: true,
        hist_subtraction: true,
        fused_layer: true,
        sparse_wire: true,
        ..Optimizations::ALL
    };
    for (tag, opts, instance_sample_ratio) in [
        ("f32", extensions, 0.7),
        (
            "quantized",
            Optimizations {
                quantized_hist: true,
                ..extensions
            },
            1.0,
        ),
    ] {
        let config = GbdtConfig {
            num_trees: 5,
            max_depth: 4,
            num_candidates: 10,
            seed: 31,
            opts,
            instance_sample_ratio,
            ..GbdtConfig::default()
        };
        let run = |robust: RobustOptions| {
            let options = TrainOptions {
                robust,
                ..TrainOptions::default()
            };
            train_with_options(&shards, &config, ps, &options)
        };
        let dir = std::env::temp_dir().join(format!("dimboost_column_view_resume_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let straight = run(RobustOptions::default()).unwrap();
        let crashing = RobustOptions {
            fault_plan: Some(FaultPlan::parse("seed 5\ncrash round=2\n").unwrap()),
            checkpoint: Some(CheckpointOptions::new(&dir)),
            resume: false,
        };
        let err = run(crashing.clone()).unwrap_err();
        assert!(matches!(err, TrainError::Crashed { round: 2, .. }), "{err}");
        let resumed = run(RobustOptions {
            resume: true,
            ..crashing
        })
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(resumed.report.resumed_from_round, Some(2));
        assert_eq!(
            model_to_bytes(&straight.model),
            model_to_bytes(&resumed.model),
            "{tag}: resume diverged from the straight run"
        );
        let losses = |curve: &[dimboost::core::LossPoint]| {
            curve
                .iter()
                .map(|p| p.train_loss.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(losses(&straight.loss_curve), losses(&resumed.loss_curve));
        assert_eq!(straight.breakdown.comm.bytes, resumed.breakdown.comm.bytes);
    }
}
