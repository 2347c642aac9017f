//! Deterministic batch scoring.
//!
//! The engine scores a [`Dataset`] in batches of `batch_size` rows,
//! distributed over `threads` workers by the repo's shared deterministic
//! rule: **static round-robin striping** (`dimboost_core::pool::Striping`:
//! stripe `t` owns batches `t, t + stripes, …`), the same assignment the
//! batched histogram builders use. Each worker scores its batches into
//! private buffers; the buffers are then written into the output in
//! ascending batch index, a fixed merge order. Per-row scoring is
//! independent, so unlike the histogram merge there is no f32
//! reassociation at all: the output is bit-identical to a sequential scan
//! *and* across reruns for any `(threads, batch_size)`.

use std::ops::Range;

use dimboost_core::pool::Striping;
use dimboost_data::Dataset;

use crate::compiled::{CompiledModel, ScoreScratch};

/// Tuning knobs for the scoring engine.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Maximum worker threads.
    pub threads: usize,
    /// Rows per batch.
    pub batch_size: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            batch_size: 1024,
        }
    }
}

/// What each output slot holds.
#[derive(Clone, Copy)]
enum ScoreKind {
    /// Per-class raw additive scores, row-major (`rows × num_classes`).
    Raw,
    /// One transformed prediction per row (see [`CompiledModel::predict`]).
    Transformed,
}

/// Raw per-class scores for every row, row-major (`rows × num_classes`).
pub fn score_raw(model: &CompiledModel, data: &Dataset, config: &EngineConfig) -> Vec<f32> {
    score(model, data, config, ScoreKind::Raw)
}

/// Transformed predictions for every row (length `rows`).
pub fn score_transformed(model: &CompiledModel, data: &Dataset, config: &EngineConfig) -> Vec<f32> {
    score(model, data, config, ScoreKind::Transformed)
}

fn score(
    model: &CompiledModel,
    data: &Dataset,
    config: &EngineConfig,
    kind: ScoreKind,
) -> Vec<f32> {
    let rows = data.num_rows();
    let width = match kind {
        ScoreKind::Raw => model.num_classes(),
        ScoreKind::Transformed => 1,
    };
    let striping = Striping::new(rows, config.batch_size, config.threads);
    let (num_batches, stripes) = (striping.num_batches(), striping.stripes());

    // Scores one batch into `buf` (length `batch.len() * width`, zeroed) in
    // blocks of `BLOCK_ROWS`, reusing the stripe's `scratch`.
    let fill = |batch: Range<usize>, buf: &mut [f32], scratch: &mut ScoreScratch| {
        let rows = batch.map(|r| data.row(r));
        match kind {
            ScoreKind::Raw => model.score_rows(rows, scratch, buf),
            ScoreKind::Transformed => model.predict_rows(rows, scratch, buf),
        }
    };

    let mut out = vec![0.0f32; rows * width];
    if stripes == 1 {
        let mut scratch = ScoreScratch::new();
        for batch in striping.batches(0) {
            let buf = &mut out[batch.start * width..batch.end * width];
            fill(batch, buf, &mut scratch);
        }
    } else {
        // Each stripe scores its batches into private buffers in ascending
        // order, so batch b sits where `Striping::owner` says. Stripes run on
        // the shared persistent pool: no thread spawns on the serving path.
        let per_stripe: Vec<Vec<Vec<f32>>> = dimboost_core::pool::global().run(stripes, |t| {
            let mut scratch = ScoreScratch::new();
            let score = |batch: Range<usize>| {
                let mut buf = vec![0.0f32; batch.len() * width];
                fill(batch, &mut buf, &mut scratch);
                buf
            };
            striping.batches(t).map(score).collect()
        });
        for b in 0..num_batches {
            let batch = striping.batch(b);
            let (stripe, k) = striping.owner(b);
            out[batch.start * width..batch.end * width].copy_from_slice(&per_stripe[stripe][k]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimboost_core::{train_single_machine, GbdtConfig, LossKind};
    use dimboost_data::synthetic::{generate, SparseGenConfig};

    fn trained(loss: LossKind) -> (CompiledModel, Dataset) {
        let mut gen = SparseGenConfig::new(300, 40, 8, 11);
        if let LossKind::Softmax { classes } = loss {
            gen.label_kind = dimboost_data::synthetic::LabelKind::Multiclass { classes };
        }
        let ds = generate(&gen);
        let cfg = GbdtConfig {
            num_trees: 4,
            max_depth: 3,
            loss,
            ..GbdtConfig::default()
        };
        let model = train_single_machine(&ds, &cfg).unwrap();
        (CompiledModel::compile(&model), ds)
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let (c, ds) = trained(LossKind::Logistic);
        let seq = score_raw(
            &c,
            &ds,
            &EngineConfig {
                threads: 1,
                batch_size: ds.num_rows(),
            },
        );
        for threads in [2, 4, 8] {
            for batch_size in [7, 64, 1000] {
                let cfg = EngineConfig {
                    threads,
                    batch_size,
                };
                // Per-row scoring has no cross-row accumulation, so the
                // parallel result is bit-equal, not merely close.
                assert_eq!(score_raw(&c, &ds, &cfg), seq, "t={threads} b={batch_size}");
            }
        }
    }

    #[test]
    fn repeat_runs_bit_identical() {
        let (c, ds) = trained(LossKind::Softmax { classes: 3 });
        let cfg = EngineConfig {
            threads: 4,
            batch_size: 32,
        };
        let first = score_transformed(&c, &ds, &cfg);
        assert_eq!(first.len(), ds.num_rows());
        for _ in 0..10 {
            assert_eq!(score_transformed(&c, &ds, &cfg), first);
        }
    }

    #[test]
    fn raw_width_is_num_classes() {
        let (c, ds) = trained(LossKind::Softmax { classes: 3 });
        let cfg = EngineConfig::default();
        assert_eq!(score_raw(&c, &ds, &cfg).len(), ds.num_rows() * 3);
        assert_eq!(score_transformed(&c, &ds, &cfg).len(), ds.num_rows());
    }

    #[test]
    fn empty_dataset_scores_empty() {
        let (c, _) = trained(LossKind::Square);
        let empty = Dataset::empty(40);
        assert!(score_raw(&c, &empty, &EngineConfig::default()).is_empty());
    }

    #[test]
    #[should_panic(expected = "batch_size")]
    fn rejects_zero_batch_size() {
        let (c, ds) = trained(LossKind::Square);
        let cfg = EngineConfig {
            threads: 2,
            batch_size: 0,
        };
        score_raw(&c, &ds, &cfg);
    }
}
