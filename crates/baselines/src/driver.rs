use std::ops::Range;
use std::time::Instant;

use dimboost_core::hist_build::build_row;
use dimboost_core::loss::{loss_for, GradPair};
use dimboost_core::{
    sketch_columns, worker_eps, FeatureMeta, GbdtConfig, GbdtModel, LossKind, LossPoint, NodeIndex,
    Optimizations, RunBreakdown, SplitDecision, SplitParams, Tree,
};
use dimboost_data::{ColumnView, Dataset};
use dimboost_ps::PsConfig;
use dimboost_simnet::collectives::{allreduce_binomial, reduce_scatter_halving, reduce_to_one};
use dimboost_simnet::{CommStats, CostModel, SimTime};
use dimboost_sketch::{propose_candidates, GkSketch, SplitCandidates};

use crate::feature_parallel;

/// Which baseline aggregation strategy to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// Spark MLlib: all-to-one reduce per tree node.
    Mllib,
    /// XGBoost: binomial-tree AllReduce.
    Xgboost,
    /// LightGBM (data-parallel): recursive-halving ReduceScatter.
    Lightgbm,
}

impl BaselineKind {
    /// Human-readable system name.
    pub fn name(&self) -> &'static str {
        match self {
            BaselineKind::Mllib => "MLlib",
            BaselineKind::Xgboost => "XGBoost",
            BaselineKind::Lightgbm => "LightGBM",
        }
    }
}

/// Output of a baseline run — same shape as the DimBoost trainer's so the
/// benchmark harness can tabulate them side by side.
#[derive(Debug, Clone)]
pub struct BaselineOutput {
    /// The trained ensemble.
    pub model: GbdtModel,
    /// Compute (wall, max-across-workers) + communication (simulated).
    pub breakdown: RunBreakdown,
    /// Per-tree training loss.
    pub loss_curve: Vec<LossPoint>,
}

/// Runs one collective aggregation of per-worker rows, returning the merged
/// row and absorbing the collective's cost into `stats`.
fn aggregate(
    kind: BaselineKind,
    buffers: &[Vec<f32>],
    root: usize,
    cost: &CostModel,
    stats: &mut CommStats,
) -> Vec<f32> {
    let (row, s) = match kind {
        BaselineKind::Mllib => reduce_to_one(buffers, root, cost),
        BaselineKind::Xgboost => allreduce_binomial(buffers, cost),
        BaselineKind::Lightgbm => {
            // Each owner scans its own features; the winners are exchanged
            // in O(1)-sized messages (charged by the caller). For the data
            // path the assembled row is equivalent.
            let (scattered, s) = reduce_scatter_halving(buffers, cost);
            (scattered.assemble(), s)
        }
    };
    stats.absorb(&s);
    row
}

/// What the systems differ in: how candidates are proposed and how a
/// layer's active nodes become split decisions — construction, aggregation
/// and their cost. A strategy returns `SplitDecision`s and never touches the
/// tree, the index or the scores; the split rule, leaf weights, score update
/// and loss are `dimboost-core`'s, shared with the DimBoost trainer.
pub(crate) enum Strategy {
    /// Row-partitioned workers build dense local rows; `BaselineKind`'s
    /// collective merges them per node.
    DataParallel(BaselineKind),
    /// Column-partitioned workers, each holding every row: worker `i` builds
    /// and scans only its feature slice and ships its local winner.
    FeatureParallel(Vec<Range<usize>>),
}

/// One row partition while a tree grows (a feature-parallel run has one).
pub(crate) struct Part<'a> {
    pub data: &'a Dataset,
    pub index: NodeIndex,
    pub grads: Vec<GradPair>,
}

/// Runs `work` for each of `n` workers and books the slowest one's wall
/// time: real workers are separate machines working at once.
pub(crate) fn concurrently<T>(
    spent: &mut RunBreakdown,
    n: usize,
    mut work: impl FnMut(usize) -> T,
) -> Vec<T> {
    let mut slowest = 0.0f64;
    let timed = |wk| {
        let start = Instant::now();
        let out = work(wk);
        slowest = slowest.max(start.elapsed().as_secs_f64());
        out
    };
    let out = (0..n).map(timed).collect();
    spent.compute_secs += slowest;
    out
}

/// Quantile sketches per shard, merged per feature with a balanced tree and
/// charged as one exchange over the system's own collective.
fn merged_candidates(
    kind: BaselineKind,
    views: &[ColumnView],
    config: &GbdtConfig,
    cost: &CostModel,
    spent: &mut RunBreakdown,
) -> Vec<SplitCandidates> {
    let (w, num_features) = (views.len(), views[0].num_features());
    let eps = worker_eps(config.sketch_eps, w);
    let sketch = |wk: usize| sketch_columns(&views[wk], 0..num_features, eps);
    let mut sketch_sets = concurrently(spent, w, sketch);
    let mut sketch_bytes = 0usize;
    let merge = |f: usize| {
        let of_feature =
            |set: &mut Vec<GkSketch>| std::mem::replace(&mut set[f], GkSketch::new(0.1));
        let per_feature = sketch_sets.iter_mut().map(of_feature);
        let mut merged = GkSketch::merge_all(per_feature).expect("w >= 1 sketches");
        sketch_bytes += merged.wire_bytes();
        propose_candidates(&mut merged, config.num_candidates)
    };
    let candidates = (0..num_features).map(merge).collect();
    if w > 1 {
        let t = match kind {
            BaselineKind::Mllib => cost.t_reduce_to_one(sketch_bytes, w),
            BaselineKind::Xgboost => cost.t_allreduce_binomial(sketch_bytes, w),
            BaselineKind::Lightgbm => cost.t_reduce_scatter(sketch_bytes, w),
        };
        spent.comm.record(sketch_bytes as u64, w as u64, t);
    }
    candidates
}

/// Dense histogram construction on every shard, then per node: aggregate
/// with the system's collective, scan on the responsible worker(s), and
/// exchange the winner.
fn decide_by_collective(
    kind: BaselineKind,
    parts: &[Part<'_>],
    meta: &FeatureMeta,
    active: &[u32],
    params: &SplitParams,
    cost: &CostModel,
    spent: &mut RunBreakdown,
) -> Vec<SplitDecision> {
    let w = parts.len();
    let mut per_worker_rows: Vec<Vec<Vec<f32>>> = concurrently(spent, w, |wk| {
        let Part { data, index, grads } = &parts[wk];
        // Baselines: the traditional dense pass.
        let dense = |&node: &u32| build_row(data, index.instances(node), grads, meta, false);
        active.iter().map(dense).collect()
    });
    let scan_start = Instant::now();
    let decide = |(pos, &node): (usize, &u32)| {
        let take = |rows: &mut Vec<Vec<f32>>| std::mem::take(&mut rows[pos]);
        let buffers: Vec<Vec<f32>> = per_worker_rows.iter_mut().map(take).collect();
        let merged_row = aggregate(kind, &buffers, pos % w, cost, &mut spent.comm);
        // Winner exchange / model broadcast: O(1) messages.
        if w > 1 {
            let t = SimTime(cost.alpha + 64.0 * cost.beta);
            spent.comm.record(64, w as u64, t);
        }
        meta.decide(node, &merged_row, params)
    };
    let decisions = active.iter().enumerate().map(decide).collect();
    spent.compute_secs += scan_start.elapsed().as_secs_f64();
    decisions
}

/// The ensemble loop every baseline system runs: validate, propose
/// candidates, then per tree — sample features, gradients, per layer let
/// the `strategy` decide and apply its decisions — update scores, record
/// the loss. `shards` are the row partitions (one for a feature-parallel
/// run); `entry` names the public function in error messages.
pub(crate) fn train(
    entry: &str,
    strategy: &Strategy,
    shards: &[Dataset],
    config: &GbdtConfig,
    cost: CostModel,
) -> Result<BaselineOutput, String> {
    config.validate()?;
    let loss = match config.loss {
        LossKind::Softmax { .. } => {
            return Err(format!(
                "{entry}: {:?} is vector-valued; the baseline systems grow one scalar \
                 tree per round — use the logistic or square loss",
                config.loss
            ))
        }
        kind => loss_for(kind),
    };
    let Some(first) = shards.first() else {
        return Err("need at least one worker shard".into());
    };
    let num_features = first.num_features();
    if shards.iter().any(|s| s.num_features() != num_features) {
        return Err("all shards must share the same dimensionality".into());
    }
    let total_instances: usize = shards.iter().map(|s| s.num_rows()).sum();
    if total_instances == 0 {
        return Err("cannot train on zero instances".into());
    }
    for shard in shards {
        config.loss.check_labels(shard.labels(), "training")?;
    }

    let (w, params, eta) = (shards.len(), config.split_params(), config.learning_rate);
    let mut spent = RunBreakdown::default();
    // One column view per row partition: the candidates are sketched off
    // it now, every tree's node index is split off it later.
    let views = concurrently(&mut spent, w, |wk| ColumnView::build(&shards[wk]));
    let candidates = match strategy {
        Strategy::DataParallel(kind) => merged_candidates(*kind, &views, config, &cost, &mut spent),
        Strategy::FeatureParallel(slices) => {
            feature_parallel::candidates(slices, &views[0], config, &mut spent)
        }
    };
    let mut preds: Vec<Vec<f32>> = shards.iter().map(|s| vec![0.0; s.num_rows()]).collect();
    let mut trees = Vec::with_capacity(config.num_trees);
    let mut loss_curve = Vec::with_capacity(config.num_trees);

    for t in 0..config.num_trees {
        let sampled =
            FeatureMeta::sample_features(num_features, config.feature_sample_ratio, config.seed, t);
        // One metadata over all sampled features, or one per column slice.
        let metas = match strategy {
            Strategy::DataParallel(_) => vec![FeatureMeta::new(sampled, &candidates)],
            Strategy::FeatureParallel(slices) => {
                feature_parallel::metas(slices, &sampled, &candidates)
            }
        };
        let mut tree = Tree::new(config.max_depth);
        let mut parts: Vec<Part<'_>> = concurrently(&mut spent, w, |wk| {
            let (data, pred) = (&shards[wk], &preds[wk]);
            let grad = |i| loss.grad(pred[i], data.label(i));
            Part {
                data,
                index: NodeIndex::new(data.num_rows(), tree.capacity()),
                grads: (0..data.num_rows()).map(grad).collect(),
            }
        });

        let mut active: Vec<u32> = vec![0];
        for _ in 0..config.max_depth {
            if active.is_empty() {
                break;
            }
            let decisions = match strategy {
                Strategy::DataParallel(kind) => {
                    let meta = &metas[0];
                    decide_by_collective(*kind, &parts, meta, &active, &params, &cost, &mut spent)
                }
                Strategy::FeatureParallel(_) => {
                    feature_parallel::decide(&parts[0], &metas, &active, &params, &cost, &mut spent)
                }
            };
            active.clear();
            for decision in &decisions {
                active.extend(tree.apply_decision(decision, &params).into_iter().flatten());
                let Some(split) = decision.split else {
                    continue;
                };
                let node = decision.node;
                let (lc, rc) = (Tree::left_child(node), Tree::right_child(node));
                for (Part { index, .. }, view) in parts.iter_mut().zip(&views) {
                    let column = view.column(split.feature as usize);
                    index.split_column(node, lc, rc, column, |v| split.goes_left(v));
                }
            }
        }

        let losses = concurrently(&mut spent, w, |wk| {
            let (data, pred) = (&shards[wk], &mut preds[wk]);
            parts[wk].index.update_scores(&tree, eta, pred, 0, 1);
            let loss_of = |i| loss.loss(pred[i], data.label(i));
            (0..data.num_rows()).map(loss_of).sum::<f64>()
        });
        let total_loss = losses.iter().fold(0.0f64, |sum, l| sum + l);
        // Loss aggregation across the row partitions: w tiny messages.
        if w > 1 {
            let t = SimTime(cost.alpha + 8.0 * w as f64 * cost.beta);
            spent.comm.record(8 * w as u64, w as u64, t);
        }

        trees.push(tree);
        loss_curve.push(LossPoint {
            tree: t + 1,
            train_loss: total_loss / total_instances as f64,
            elapsed_secs: spent.total_secs(),
        });
    }

    let model = GbdtModel::new(trees, config.learning_rate, config.loss, num_features);
    model.check_consistency()?;
    Ok(BaselineOutput {
        model,
        breakdown: spent,
        loss_curve,
    })
}

/// Trains a GBDT model with a baseline system's aggregation strategy and
/// dense histogram construction. Deterministic in `(config.seed, shards)`.
pub fn train_baseline(
    kind: BaselineKind,
    shards: &[Dataset],
    config: &GbdtConfig,
    cost: CostModel,
) -> Result<BaselineOutput, String> {
    let strategy = Strategy::DataParallel(kind);
    train("train_baseline", &strategy, shards, config, cost)
}

/// TencentBoost: the parameter-server architecture without DimBoost's
/// optimizations — exactly the core trainer with [`Optimizations::NONE`]
/// (dense construction, full-precision pushes, whole-histogram pulls, single
/// split-finding agent).
pub fn train_tencentboost(
    shards: &[Dataset],
    config: &GbdtConfig,
    ps_config: PsConfig,
) -> Result<BaselineOutput, String> {
    let mut cfg = config.clone();
    cfg.opts = Optimizations::NONE;
    let out = dimboost_core::train_distributed(shards, &cfg, ps_config)?;
    Ok(BaselineOutput {
        model: out.model,
        breakdown: out.breakdown,
        loss_curve: out.loss_curve,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimboost_core::metrics::classification_error;
    use dimboost_core::train_distributed;
    use dimboost_data::partition::{partition_rows, train_test_split};
    use dimboost_data::synthetic::{generate, LabelKind, SparseGenConfig};

    fn config() -> GbdtConfig {
        GbdtConfig {
            num_trees: 4,
            max_depth: 3,
            num_candidates: 8,
            learning_rate: 0.3,
            num_threads: 2,
            ..GbdtConfig::default()
        }
    }

    fn data() -> (Dataset, Dataset) {
        let ds = generate(&SparseGenConfig::new(2_000, 80, 10, 17));
        train_test_split(&ds, 0.2, 17).unwrap()
    }

    #[test]
    fn all_baselines_learn_the_signal() {
        let (train, test) = data();
        let shards = partition_rows(&train, 3).unwrap();
        for kind in [
            BaselineKind::Mllib,
            BaselineKind::Xgboost,
            BaselineKind::Lightgbm,
        ] {
            let out = train_baseline(kind, &shards, &config(), CostModel::GIGABIT_LAN).unwrap();
            let err = classification_error(&out.model.predict_dataset(&test), test.labels());
            assert!(err < 0.42, "{}: error {err}", kind.name());
            assert!(
                out.breakdown.comm.bytes > 0,
                "{} moved no bytes",
                kind.name()
            );
        }
    }

    #[test]
    fn baselines_produce_identical_models_to_each_other() {
        // All three aggregation strategies compute the same sums, so with
        // identical configs they must grow identical trees (modulo float
        // reduction order, which the assert tolerates by exact equality —
        // failures here would indicate a data-path divergence).
        let (train, _) = data();
        let shards = partition_rows(&train, 4).unwrap();
        let cfg = config();
        let a = train_baseline(BaselineKind::Mllib, &shards, &cfg, CostModel::FREE).unwrap();
        let b = train_baseline(BaselineKind::Xgboost, &shards, &cfg, CostModel::FREE).unwrap();
        let c = train_baseline(BaselineKind::Lightgbm, &shards, &cfg, CostModel::FREE).unwrap();
        let pa = a.model.predict_dataset(&train);
        let pb = b.model.predict_dataset(&train);
        let pc = c.model.predict_dataset(&train);
        let close = |x: &[f32], y: &[f32]| x.iter().zip(y).all(|(u, v)| (u - v).abs() < 1e-3);
        assert!(close(&pa, &pb), "MLlib vs XGBoost models diverge");
        assert!(close(&pa, &pc), "MLlib vs LightGBM models diverge");
    }

    #[test]
    fn tencentboost_matches_unoptimized_dimboost() {
        let (train, _) = data();
        let shards = partition_rows(&train, 2).unwrap();
        let cfg = config();
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let tencent = train_tencentboost(&shards, &cfg, ps).unwrap();
        let mut plain = cfg.clone();
        plain.opts = Optimizations::NONE;
        let dim = train_distributed(&shards, &plain, ps).unwrap();
        assert_eq!(tencent.model, dim.model);
    }

    #[test]
    fn baseline_accuracy_close_to_dimboost() {
        let (train, test) = data();
        let shards = partition_rows(&train, 3).unwrap();
        let cfg = config();
        let ps = PsConfig {
            num_servers: 3,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let dim = train_distributed(&shards, &cfg, ps).unwrap();
        let xgb = train_baseline(BaselineKind::Xgboost, &shards, &cfg, CostModel::FREE).unwrap();
        let err_dim = classification_error(&dim.model.predict_dataset(&test), test.labels());
        let err_xgb = classification_error(&xgb.model.predict_dataset(&test), test.labels());
        assert!(
            (err_dim - err_xgb).abs() < 0.06,
            "DimBoost {err_dim} vs XGBoost-style {err_xgb}"
        );
    }

    #[test]
    fn lightgbm_nonpower_of_two_costs_more_comm_time() {
        let (train, _) = data();
        let cfg = config();
        let shards4 = partition_rows(&train, 4).unwrap();
        let shards5 = partition_rows(&train, 5).unwrap();
        let t4 = train_baseline(
            BaselineKind::Lightgbm,
            &shards4,
            &cfg,
            CostModel::GIGABIT_LAN,
        )
        .unwrap()
        .breakdown
        .comm
        .sim_time
        .seconds();
        let t5 = train_baseline(
            BaselineKind::Lightgbm,
            &shards5,
            &cfg,
            CostModel::GIGABIT_LAN,
        )
        .unwrap()
        .breakdown
        .comm
        .sim_time
        .seconds();
        assert!(
            t5 > 1.5 * t4,
            "w=5 {t5} should pay ~2x the w=4 {t4} comm time"
        );
    }

    #[test]
    fn vector_valued_loss_is_an_error_not_a_panic() {
        // `validate()` accepts softmax (the DimBoost trainer grows one tree
        // per class); the baselines' scalar loop must refuse it up front.
        let mut ds_cfg = SparseGenConfig::new(200, 20, 5, 3);
        ds_cfg.label_kind = LabelKind::Multiclass { classes: 3 };
        let ds = generate(&ds_cfg);
        let shards = partition_rows(&ds, 2).unwrap();
        let cfg = GbdtConfig {
            num_trees: 1,
            loss: LossKind::Softmax { classes: 3 },
            ..config()
        };
        cfg.validate().unwrap();
        for kind in [
            BaselineKind::Mllib,
            BaselineKind::Xgboost,
            BaselineKind::Lightgbm,
        ] {
            let err = train_baseline(kind, &shards, &cfg, CostModel::FREE).unwrap_err();
            assert!(
                err.contains("train_baseline") && err.contains("Softmax"),
                "{err}"
            );
        }
        let err =
            crate::train_lightgbm_feature_parallel(&ds, 2, &cfg, CostModel::FREE).unwrap_err();
        assert!(
            err.contains("train_lightgbm_feature_parallel") && err.contains("Softmax"),
            "{err}"
        );
    }

    #[test]
    fn rejects_invalid_input() {
        assert!(train_baseline(BaselineKind::Mllib, &[], &config(), CostModel::FREE).is_err());
        let empty = Dataset::empty(3);
        assert!(train_baseline(BaselineKind::Mllib, &[empty], &config(), CostModel::FREE).is_err());
    }
}
