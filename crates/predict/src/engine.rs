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
//!
//! Wall-clock timings per batch are recorded under `wall/serving/*`
//! (excluded from canonical documents); structural counts under
//! `sim/serving/*` (deterministic, canonical).

use std::ops::Range;
use std::time::Instant;

use dimboost_core::pool::Striping;
use dimboost_data::Dataset;
use dimboost_simnet::MetricsRegistry;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreKind {
    /// Per-class raw additive scores, row-major (`rows × num_classes`).
    Raw,
    /// One transformed prediction per row (see [`CompiledModel::predict`]).
    Transformed,
}

/// Raw per-class scores for every row, row-major (`rows × num_classes`).
pub fn score_raw(model: &CompiledModel, data: &Dataset, config: &EngineConfig) -> Vec<f32> {
    score(model, data, config, ScoreKind::Raw, None)
}

/// Transformed predictions for every row (length `rows`).
pub fn score_transformed(model: &CompiledModel, data: &Dataset, config: &EngineConfig) -> Vec<f32> {
    score(model, data, config, ScoreKind::Transformed, None)
}

/// Scores `data` and records serving metrics into `registry`.
pub fn score_with_metrics(
    model: &CompiledModel,
    data: &Dataset,
    config: &EngineConfig,
    kind: ScoreKind,
    registry: &mut MetricsRegistry,
) -> Vec<f32> {
    score(model, data, config, kind, Some(registry))
}

fn score(
    model: &CompiledModel,
    data: &Dataset,
    config: &EngineConfig,
    kind: ScoreKind,
    registry: Option<&mut MetricsRegistry>,
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
    // (batch rows, wall seconds) per batch, in ascending batch order.
    let mut batch_stats: Vec<(usize, f64)> = Vec::with_capacity(num_batches);

    if stripes == 1 {
        let mut scratch = ScoreScratch::new();
        for batch in striping.batches(0) {
            let (len, start) = (batch.len(), Instant::now());
            let buf = &mut out[batch.start * width..batch.end * width];
            fill(batch, buf, &mut scratch);
            batch_stats.push((len, start.elapsed().as_secs_f64()));
        }
    } else {
        // Each stripe scores its batches into private buffers in ascending
        // order, so batch b sits where `Striping::owner` says. Stripes run on
        // the shared persistent pool: no thread spawns on the serving path.
        let per_stripe: Vec<Vec<(Vec<f32>, f64)>> =
            dimboost_core::pool::global().run(stripes, |t| {
                let mut scratch = ScoreScratch::new();
                let score = |batch: Range<usize>| {
                    let mut buf = vec![0.0f32; batch.len() * width];
                    let start = Instant::now();
                    fill(batch, &mut buf, &mut scratch);
                    (buf, start.elapsed().as_secs_f64())
                };
                striping.batches(t).map(score).collect()
            });
        for b in 0..num_batches {
            let batch = striping.batch(b);
            let (stripe, k) = striping.owner(b);
            let (buf, secs) = &per_stripe[stripe][k];
            out[batch.start * width..batch.end * width].copy_from_slice(buf);
            batch_stats.push((batch.len(), *secs));
        }
    }

    if let Some(reg) = registry {
        reg.counter_add("sim/serving/rows", rows as u64);
        reg.counter_add("sim/serving/batches", num_batches as u64);
        reg.gauge_set("sim/serving/threads", stripes as f64);
        for &(batch_rows, secs) in &batch_stats {
            reg.observe("sim/serving/batch_rows", batch_rows as f64);
            reg.observe("wall/serving/batch_secs", secs);
            if batch_rows > 0 {
                reg.observe("wall/serving/row_secs", secs / batch_rows as f64);
            }
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
    fn repeat_runs_bit_identical_with_metrics() {
        let (c, ds) = trained(LossKind::Softmax { classes: 3 });
        let cfg = EngineConfig {
            threads: 4,
            batch_size: 32,
        };
        let mut reg = MetricsRegistry::new();
        let first = score_with_metrics(&c, &ds, &cfg, ScoreKind::Transformed, &mut reg);
        assert_eq!(first.len(), ds.num_rows());
        for _ in 0..10 {
            let mut reg = MetricsRegistry::new();
            let again = score_with_metrics(&c, &ds, &cfg, ScoreKind::Transformed, &mut reg);
            assert_eq!(again, first);
        }
        // Deterministic serving metrics are present and structural.
        match reg.get("sim/serving/rows") {
            Some(dimboost_simnet::Metric::Counter(v)) => assert_eq!(*v, 300),
            other => panic!("unexpected {other:?}"),
        }
        match reg.get("sim/serving/batches") {
            Some(dimboost_simnet::Metric::Counter(v)) => assert_eq!(*v, 10),
            other => panic!("unexpected {other:?}"),
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
