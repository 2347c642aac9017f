//! LightGBM's *feature-parallel* mode (Section 2.3).
//!
//! The training data is partitioned by **columns**: every worker holds the
//! whole dataset (the paper's critique — "impractical for many large-scale
//! datasets") but builds histograms and finds splits only for its own
//! feature slice. No histogram ever crosses the network; per tree node the
//! workers exchange only their O(1)-sized local winners. Communication is
//! therefore tiny while computation and memory are what suffer — the
//! opposite trade-off to the data-parallel systems, and the reason this
//! mode only wins on small datasets with many features per worker.

use std::ops::Range;

use dimboost_core::hist_build::build_row;
use dimboost_core::{
    sketch_columns, FeatureMeta, GbdtConfig, RunBreakdown, SplitDecision, SplitParams,
};
use dimboost_data::{ColumnView, Dataset};
use dimboost_simnet::collectives::partition_ranges;
use dimboost_simnet::{CostModel, SimTime};
use dimboost_sketch::{propose_candidates, SplitCandidates};

use crate::driver::{concurrently, train, Part, Strategy};
use crate::BaselineOutput;

/// Trains with column-partitioned workers. Unlike the data-parallel
/// trainers this takes the *whole* dataset once — every worker reads all of
/// it, which is exactly the memory cost the paper criticizes.
pub fn train_lightgbm_feature_parallel(
    dataset: &Dataset,
    num_workers: usize,
    config: &GbdtConfig,
    cost: CostModel,
) -> Result<BaselineOutput, String> {
    if num_workers == 0 {
        return Err("need at least one worker".into());
    }
    let slices = partition_ranges(dataset.num_features(), num_workers);
    train(
        "train_lightgbm_feature_parallel",
        &Strategy::FeatureParallel(slices),
        std::slice::from_ref(dataset),
        config,
        cost,
    )
}

/// Each worker sketches only its own columns over the full data — fully
/// local, zero communication, so no merge budget is spent.
pub(crate) fn candidates(
    slices: &[Range<usize>],
    columns: &ColumnView,
    config: &GbdtConfig,
    spent: &mut RunBreakdown,
) -> Vec<SplitCandidates> {
    let per_worker = concurrently(spent, slices.len(), |wk| {
        sketch_columns(columns, slices[wk].clone(), config.sketch_eps)
            .iter_mut()
            .map(|s| propose_candidates(s, config.num_candidates))
            .collect::<Vec<_>>()
    });
    per_worker.into_iter().flatten().collect()
}

/// Per-worker feature metadata: the tree's sampled subset intersected with
/// the worker's slice (possibly nothing).
pub(crate) fn metas(
    slices: &[Range<usize>],
    sampled: &[u32],
    candidates: &[SplitCandidates],
) -> Vec<FeatureMeta> {
    let own = |slice: &Range<usize>| {
        let in_slice = |f: &u32| slice.contains(&(*f as usize));
        FeatureMeta::new(
            sampled.iter().copied().filter(in_slice).collect(),
            candidates,
        )
    };
    slices.iter().map(own).collect()
}

/// Per node: every worker builds and scans its own columns (the layer's wall
/// time is the slowest worker), then all exchange their O(1) local winners.
/// No histogram crosses the network.
pub(crate) fn decide(
    rows: &Part<'_>,
    metas: &[FeatureMeta],
    active: &[u32],
    params: &SplitParams,
    cost: &CostModel,
    spent: &mut RunBreakdown,
) -> Vec<SplitDecision> {
    let num_workers = metas.len();
    let decide_node = |&node: &u32| {
        let instances = rows.index.instances(node);
        let locals = concurrently(spent, num_workers, |wk| {
            let meta = &metas[wk];
            (meta.num_sampled() > 0).then(|| {
                let row = build_row(rows.data, instances, &rows.grads, meta, true);
                meta.decide(node, &row, params)
            })
        });
        if num_workers > 1 {
            let bytes = 64 * num_workers as u64;
            let t = SimTime(cost.alpha + bytes as f64 * cost.beta);
            spent.comm.record(bytes, num_workers as u64, t);
        }
        // Best of the workers, first wins ties; any worker's buckets sum to
        // the node totals, the last one's are kept.
        let mut decision = SplitDecision {
            node,
            split: None,
            total_g: 0.0,
            total_h: 0.0,
        };
        for local in locals.into_iter().flatten() {
            (decision.total_g, decision.total_h) = (local.total_g, local.total_h);
            let Some(split) = local.split else { continue };
            if decision.split.is_none_or(|best| split.gain > best.gain) {
                decision.split = Some(split);
            }
        }
        decision
    };
    active.iter().map(decide_node).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimboost_core::metrics::classification_error;
    use dimboost_data::partition::train_test_split;
    use dimboost_data::synthetic::{generate, SparseGenConfig};

    fn config() -> GbdtConfig {
        GbdtConfig {
            num_trees: 4,
            max_depth: 3,
            num_candidates: 8,
            learning_rate: 0.3,
            ..GbdtConfig::default()
        }
    }

    #[test]
    fn feature_parallel_learns() {
        let ds = generate(&SparseGenConfig::new(2_000, 100, 10, 31));
        let (train, test) = train_test_split(&ds, 0.2, 31).unwrap();
        let out =
            train_lightgbm_feature_parallel(&train, 4, &config(), CostModel::GIGABIT_LAN).unwrap();
        let err = classification_error(&out.model.predict_dataset(&test), test.labels());
        assert!(err < 0.42, "error {err}");
    }

    #[test]
    fn feature_parallel_matches_single_worker() {
        // With one worker this is just sequential training; more workers
        // must grow the same trees (feature slices only partition the scan).
        let ds = generate(&SparseGenConfig::new(1_000, 60, 8, 17));
        let cfg = config();
        let one = train_lightgbm_feature_parallel(&ds, 1, &cfg, CostModel::FREE).unwrap();
        let four = train_lightgbm_feature_parallel(&ds, 4, &cfg, CostModel::FREE).unwrap();
        // Node totals are re-derived from each worker's first local feature,
        // so leaf weights can differ in the last float bits — compare
        // predictions, not bit-identical trees.
        let pa = one.model.predict_dataset(&ds);
        let pb = four.model.predict_dataset(&ds);
        for (a, b) in pa.iter().zip(&pb) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn feature_parallel_moves_almost_no_bytes() {
        let ds = generate(&SparseGenConfig::new(1_000, 200, 10, 13));
        let out =
            train_lightgbm_feature_parallel(&ds, 4, &config(), CostModel::GIGABIT_LAN).unwrap();
        // Only winner exchanges: well under a megabyte.
        assert!(
            out.breakdown.comm.bytes < 1 << 20,
            "{} bytes",
            out.breakdown.comm.bytes
        );
        assert!(out.breakdown.comm.bytes > 0);
    }

    #[test]
    fn rejects_bad_input() {
        let ds = generate(&SparseGenConfig::new(10, 5, 2, 1));
        assert!(train_lightgbm_feature_parallel(&ds, 0, &config(), CostModel::FREE).is_err());
        let empty = Dataset::empty(5);
        assert!(train_lightgbm_feature_parallel(&empty, 2, &config(), CostModel::FREE).is_err());
    }
}
