//! Everything a run carries from one boosting round to the next, the two
//! ways of obtaining it (fresh, or out of a checkpoint) and the one way of
//! snapshotting it back.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dimboost_data::{ColumnView, Dataset};
use dimboost_ps::quantize::QuantizedRow;
use dimboost_simnet::CommLedger;
use dimboost_sketch::SplitCandidates;

use super::plan::{Kernel, TrainPlan};
use super::{EvalOptions, LossPoint};
use crate::binned::BinnedShard;
use crate::checkpoint::{CheckpointFingerprint, TrainCheckpoint};
use crate::config::GbdtConfig;
use crate::hist_build::{effective_quant_bits, QuantBinned, QuantizedGrads};
use crate::loss::GradPair;
use crate::meta::FeatureMeta;
use crate::model::GbdtModel;
use crate::node_index::NodeIndex;
use crate::report::RoundRecord;
use crate::tree::Tree;

/// What a worker keeps resident for BUILD_HISTOGRAM. Each variant owns
/// exactly what its kernel reads, so a kernel can never find its data
/// missing.
pub(super) enum HistData {
    /// Nothing: the raw kernels read the shard itself.
    Raw,
    /// The pre-binned CSR (f32 accumulators).
    Binned(BinnedShard),
    /// The pre-binned CSR's row pointers (its f32 entry arrays released),
    /// its packed-pair view, and the current tree's fixed-point gradient
    /// codes (integer accumulators).
    Quantized(BinnedShard, QuantBinned, QuantizedGrads),
}

impl HistData {
    /// NEW_TREE: makes `plan.kernel`'s data resident for a tree over `meta`.
    /// With σ = 1 the sampled set (and so the binning) is the same for every
    /// tree, so the CSR is built once. The gradient codes are fixed per tree
    /// and re-quantized every time, at a width demoted per shard so a
    /// 32-bit accumulator lane can never wrap (DESIGN.md §15).
    fn prepare(&mut self, plan: &TrainPlan, shard: &Dataset, meta: &FeatureMeta, g: &[GradPair]) {
        let bits = || effective_quant_bits(plan.quant_hist_bits, shard.num_rows());
        match (plan.kernel, &mut *self) {
            (Kernel::Raw, _) => *self = HistData::Raw,
            (Kernel::Binned, HistData::Binned(_)) if !plan.rebin_each_tree => {}
            (Kernel::Binned, _) => *self = HistData::Binned(BinnedShard::build(shard, meta)),
            (Kernel::Quantized, HistData::Quantized(_, _, grads)) if !plan.rebin_each_tree => {
                *grads = QuantizedGrads::quantize(g, bits());
            }
            (Kernel::Quantized, _) => {
                let mut binned = BinnedShard::build(shard, meta);
                let pairs = QuantBinned::build_releasing(&mut binned, meta);
                *self = HistData::Quantized(binned, pairs, QuantizedGrads::quantize(g, bits()));
            }
        }
    }
}

/// A worker's histogram working memory: the one row (or fused layer block)
/// BUILD_HISTOGRAM builds into and the one code vector §6.1 quantizes into,
/// both reused for every node the worker builds — resized when a tree's
/// sampled feature set or a layer's width changes their size. The simulator
/// runs its workers one after another, so a single scratch beside them (in
/// `Run`) stands for each machine's own in turn: a run's peak is
/// `max(row, fused block)` however many workers, nodes, layers and trees it
/// has. Contents never outlive the push that follows the build, so none of
/// it is state, and none of it belongs in a checkpoint.
#[derive(Default)]
pub(super) struct RowScratch {
    pub row: Vec<f32>,
    pub quantized: QuantizedRow,
}

/// Per-worker training state (one per simulated machine).
pub(super) struct Worker {
    pub shard_id: usize,
    /// Raw scores, `num_classes` per instance (class-major within a row).
    pub preds: Vec<f32>,
    /// Current tree's per-instance gradients (one class's column).
    pub grads: Vec<GradPair>,
    /// Round gradients for all classes (`num_classes` per instance).
    pub grads_all: Vec<GradPair>,
    pub index: NodeIndex,
    /// The shard's transpose, for SPLIT_TREE's node-index split: built in
    /// CREATE_SKETCH (by the first split on a resumed run), derived from the
    /// shard alone and so never checkpointed. `None` when the plan scans
    /// instead of indexing.
    pub columns: Option<ColumnView>,
    pub hist: HistData,
    /// Row-subsampling membership for the current tree (`None` = all rows).
    pub sample_mask: Option<Vec<bool>>,
    pub rng: StdRng,
}

impl Worker {
    /// NEW_TREE on one worker: column `class` of the `k`-class round
    /// gradients, the kernel's resident data, and a fresh node index over
    /// the (sub)sampled rows.
    pub fn new_tree(
        &mut self,
        plan: &TrainPlan,
        shard: &Dataset,
        meta: &FeatureMeta,
        (class, k): (usize, usize),
        capacity: usize,
    ) {
        for i in 0..shard.num_rows() {
            self.grads[i] = self.grads_all[i * k + class];
        }
        self.hist.prepare(plan, shard, meta, &self.grads);
        self.sample_mask = plan.row_sample.map(|ratio| {
            // Stochastic gradient boosting: each tree sees a Bernoulli
            // subsample of the rows; unsampled rows still receive the
            // tree's predictions afterwards.
            (0..shard.num_rows())
                .map(|_| self.rng.random::<f64>() < ratio)
                .collect()
        });
        self.index = match &self.sample_mask {
            Some(mask) => {
                let rows = 0..shard.num_rows() as u32;
                NodeIndex::from_instances(rows.filter(|&i| mask[i as usize]).collect(), capacity)
            }
            None => NodeIndex::new(shard.num_rows(), capacity),
        };
    }
}

/// Per-instance raw scores under `model` (zeros without one).
fn warm_scores(model: Option<&GbdtModel>, dataset: &Dataset, k: usize) -> Vec<f32> {
    model.map_or_else(
        || vec![0.0; dataset.num_rows() * k],
        |m| m.predict_scores_dataset(dataset),
    )
}

/// The cross-round state of a run.
pub(super) struct TrainState {
    /// Round the checkpoint this run resumed from was taken before.
    pub resumed_from: Option<usize>,
    pub workers: Vec<Worker>,
    /// Per-feature split candidates: filled by the sketch phases on a fresh
    /// run, restored on a resumed one (so every split stays reproducible).
    pub candidates: Vec<SplitCandidates>,
    pub trees: Vec<Tree>,
    /// Trees of an explicit warm-start model; early stopping keeps these
    /// plus whole rounds. A resumed run's trees all belong to the run.
    pub init_trees: usize,
    pub loss_curve: Vec<LossPoint>,
    pub eval_curve: Vec<LossPoint>,
    /// Raw eval-set scores (empty without an eval set).
    pub eval_preds: Vec<f32>,
    pub best_eval_loss: f64,
    pub best_iteration: Option<usize>,
    pub rounds: Vec<RoundRecord>,
}

impl TrainState {
    /// Scores start from `warm`'s (zeros without one); worker `i` draws from
    /// `rng(i)`.
    fn new(
        shards: &[Dataset],
        config: &GbdtConfig,
        eval: Option<&EvalOptions<'_>>,
        warm: Option<&GbdtModel>,
        rng: impl Fn(usize) -> StdRng,
    ) -> Self {
        let k = config.loss.trees_per_round();
        let worker = |(i, s): (usize, &Dataset)| Worker {
            shard_id: i,
            preds: warm_scores(warm, s, k),
            grads: vec![GradPair::default(); s.num_rows()],
            grads_all: vec![GradPair::default(); s.num_rows() * k],
            index: NodeIndex::new(s.num_rows(), 0),
            columns: None,
            hist: HistData::Raw,
            sample_mask: None,
            rng: rng(i),
        };
        Self {
            resumed_from: None,
            workers: shards.iter().enumerate().map(worker).collect(),
            candidates: Vec::new(),
            trees: warm.map_or_else(Vec::new, |m| m.trees().to_vec()),
            init_trees: 0,
            loss_curve: Vec::new(),
            eval_curve: Vec::new(),
            eval_preds: eval.map_or_else(Vec::new, |ev| warm_scores(warm, ev.dataset, k)),
            best_eval_loss: f64::INFINITY,
            best_iteration: None,
            rounds: Vec::new(),
        }
    }

    /// Round 0 of a new run, optionally on top of a warm-start model.
    pub fn fresh(
        shards: &[Dataset],
        config: &GbdtConfig,
        eval: Option<&EvalOptions<'_>>,
        init: Option<&GbdtModel>,
    ) -> Self {
        let rng = |i: usize| StdRng::seed_from_u64(config.seed ^ ((i as u64 + 1) << 32));
        Self {
            init_trees: init.map_or(0, GbdtModel::num_trees),
            ..Self::new(shards, config, eval, init, rng)
        }
    }

    /// Continues the run `ck` was taken from: scores are recomputed from the
    /// partial model, and feature subsampling and stochastic rounding
    /// continue the exact RNG streams the checkpointed run was drawing from.
    pub fn from_checkpoint(
        ck: TrainCheckpoint,
        shards: &[Dataset],
        config: &GbdtConfig,
        eval: Option<&EvalOptions<'_>>,
    ) -> Self {
        let rng = |i: usize| StdRng::from_state(ck.rng_states[i]);
        Self {
            resumed_from: Some(ck.next_round),
            candidates: ck.candidates,
            loss_curve: ck.loss_curve,
            eval_curve: ck.eval_curve,
            best_eval_loss: ck.best_eval_loss,
            best_iteration: ck.best_iteration,
            rounds: ck.rounds,
            ..Self::new(shards, config, eval, Some(&ck.model), rng)
        }
    }

    /// Snapshots the run into a resumable checkpoint after round
    /// `next_round − 1`.
    pub fn checkpoint(
        &self,
        config: &GbdtConfig,
        fingerprint: CheckpointFingerprint,
        next_round: usize,
        ledger: CommLedger,
        membership: Option<(Vec<u32>, Vec<u32>, u64)>,
    ) -> TrainCheckpoint {
        let num_features = fingerprint.num_features as usize;
        TrainCheckpoint {
            fingerprint,
            next_round,
            model: GbdtModel::new(
                self.trees.clone(),
                config.learning_rate,
                config.loss,
                num_features,
            ),
            rng_states: self.workers.iter().map(|wk| wk.rng.state()).collect(),
            ledger,
            candidates: self.candidates.clone(),
            loss_curve: self.loss_curve.clone(),
            rounds: self.rounds.clone(),
            eval_curve: self.eval_curve.clone(),
            best_eval_loss: self.best_eval_loss,
            best_iteration: self.best_iteration,
            membership,
        }
    }
}
