//! The DimBoost distributed trainer: the seven-phase worker execution plan
//! of Figure 7 (CREATE_SKETCH → PULL_SKETCH → NEW_TREE → BUILD_HISTOGRAM →
//! FIND_SPLIT → SPLIT_TREE → FINISH) over the parameter server.
//!
//! Workers are simulated in-process: computation phases run real code and
//! are timed in wall-clock per worker (the distributed wall time of a phase
//! is the *max* across workers, since real workers run concurrently on
//! separate machines); communication is charged to the simulated network via
//! the Table 1 cost formulas. Every optimization of Sections 5–6 is a
//! config toggle so the Table 3 ablation can enable them one at a time.
//!
//! The toggles are read exactly once, by [`plan::TrainPlan::new`]; each
//! paper phase is one stage method of [`Run`] that matches on the plan
//! (DESIGN.md §2.5 has the stage table). What survives a boosting round
//! lives in [`state::TrainState`]; everything simulated — PS, trace bus,
//! faults, membership, checkpoints — sits behind [`harness::Harness`].

mod harness;
mod plan;
mod state;

use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;

use dimboost_data::{ColumnView, Dataset};
use dimboost_ps::quantize::{quantize_row_into, QuantizedRow};
use dimboost_ps::{ParameterServer, PsConfig};
use dimboost_simnet::{CommStats, CostModel, FaultPlan, Phase, SimTime, Trace};
use dimboost_sketch::{propose_candidates, GkScratch, GkSketch};

use crate::checkpoint::{CheckpointError, CheckpointOptions};
use crate::config::{GbdtConfig, LossKind};
use crate::fused::{self, Rows};
use crate::hist_build::build_row_into;
use crate::loss::{loss_for, softmax_grads, summed_loss, GradPair, Loss};
use crate::meta::FeatureMeta;
use crate::model::GbdtModel;
use crate::parallel::{build_row_batched_into, BatchConfig};
use crate::report::{NodeInstances, QuantHistRecord, RoundRecord, RunReport, SpanTimer};
use crate::tree::Tree;

use harness::Harness;
use plan::{Exchange, InstanceSource, Kernel, SplitPull, TrainPlan};
use state::{HistData, RowScratch, TrainState};

/// Errors from [`train_with_options`].
///
/// [`train_distributed`] flattens this through [`std::fmt::Display`];
/// [`TrainError::Invalid`] displays as just its message.
#[derive(Debug)]
pub enum TrainError {
    /// Invalid configuration or input data.
    Invalid(String),
    /// The fault plan's simulated crash fired. When the run was
    /// checkpointing, `checkpoint` names the directory-resident snapshot a
    /// `--resume` run can continue from.
    Crashed {
        /// Boosting round at which the crash fired (no work from this
        /// round is in the checkpoint).
        round: usize,
        /// Path of the checkpoint written at crash time, if any.
        checkpoint: Option<PathBuf>,
    },
    /// A worker was permanently lost under
    /// [`LossPolicy::Abort`](dimboost_simnet::fault::LossPolicy::Abort).
    WorkerLost {
        /// The lost worker's shard id.
        worker: u32,
        /// Round at which the loss fired.
        round: usize,
    },
    /// Checkpoint I/O, decoding, or fingerprint validation failed.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Invalid(msg) => write!(f, "{msg}"),
            TrainError::Crashed { round, checkpoint } => {
                write!(f, "simulated worker crash at round {round}")?;
                match checkpoint {
                    Some(path) => write!(f, " (checkpoint at {})", path.display()),
                    None => write!(f, " (no checkpoint was configured)"),
                }
            }
            TrainError::WorkerLost { worker, round } => {
                write!(
                    f,
                    "worker {worker} permanently lost at round {round} (policy: abort)"
                )
            }
            TrainError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<String> for TrainError {
    fn from(msg: String) -> Self {
        TrainError::Invalid(msg)
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

fn invalid(msg: impl Into<String>) -> TrainError {
    TrainError::Invalid(msg.into())
}

/// Robustness configuration: an optional deterministic fault plan plus
/// checkpoint/resume settings.
///
/// The exactness invariant (tested): a fault plan changes only *timing* —
/// the learned model, the logical communication ledger (bytes/packages per
/// phase), and the loss curves are bit-identical to the fault-free run with
/// the same seed. Likewise a run resumed from a checkpoint finishes with a
/// model bit-identical to the uninterrupted run.
#[derive(Debug, Clone, Default)]
pub struct RobustOptions {
    /// Deterministic fault plan injected into the run (stragglers, message
    /// drops/duplicates, outages, a scripted crash, permanent worker
    /// losses). `None` runs fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Where and how often to write rolling checkpoints. `None` disables
    /// checkpointing (and makes `resume` invalid).
    pub checkpoint: Option<CheckpointOptions>,
    /// Resume from the rolling checkpoint in `checkpoint.dir` instead of
    /// starting from round 0. The checkpoint's fingerprint must match the
    /// run exactly.
    pub resume: bool,
}

/// Where a training run spent its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunBreakdown {
    /// Wall-clock computation seconds: per phase, the maximum across
    /// workers (workers run concurrently on separate machines), summed over
    /// phases.
    pub compute_secs: f64,
    /// Simulated communication ledger (bytes, packages, simulated seconds).
    pub comm: CommStats,
}

impl RunBreakdown {
    /// Total modelled run time: computation plus simulated communication.
    pub fn total_secs(&self) -> f64 {
        self.compute_secs + self.comm.sim_time.seconds()
    }
}

/// One point of the convergence curve (Figure 12's right-hand plots),
/// recorded once per boosting round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossPoint {
    /// Trees in the ensemble when the point was recorded.
    pub tree: usize,
    /// Mean training loss after this tree.
    pub train_loss: f64,
    /// Modelled elapsed seconds (compute + simulated communication).
    pub elapsed_secs: f64,
}

/// Everything a training run produces.
#[derive(Debug, Clone)]
pub struct TrainOutput {
    /// The trained ensemble (truncated to the best iteration when early
    /// stopping fired).
    pub model: GbdtModel,
    /// Time breakdown.
    pub breakdown: RunBreakdown,
    /// Training-loss curve, one point per tree actually trained.
    pub loss_curve: Vec<LossPoint>,
    /// Validation-loss curve (empty when no eval set was supplied).
    pub eval_curve: Vec<LossPoint>,
    /// Zero-based index of the best tree on the eval set, when evaluating.
    pub best_iteration: Option<usize>,
    /// Structured per-phase / per-round run report (see [`crate::report`]).
    /// Its aggregate communication always equals `breakdown.comm`.
    pub report: RunReport,
    /// Event-level trace of the run on the simulated clock, recorded when
    /// [`GbdtConfig::collect_trace`] is set (`None` otherwise). The trace's
    /// communication events fold back to `report.comm` bit-exactly.
    pub trace: Option<Trace>,
}

/// Validation configuration: a held-out set evaluated every round.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions<'a> {
    /// Held-out dataset evaluated after every boosting round.
    pub dataset: &'a Dataset,
    /// Stop after this many rounds without eval-loss improvement and
    /// truncate the model to the best round. `None` evaluates without
    /// stopping.
    pub early_stopping_rounds: Option<usize>,
}

/// Everything optional about a run; the default is plain
/// [`train_distributed`].
#[derive(Debug, Clone, Default)]
pub struct TrainOptions<'a> {
    /// Held-out evaluation set and early stopping.
    pub eval: Option<EvalOptions<'a>>,
    /// Warm start: continue boosting on top of this model, appending
    /// `config.num_trees` further rounds. It must match the configured
    /// loss, learning rate, and dimensionality (the combined ensemble has a
    /// single shrinkage factor).
    pub init: Option<&'a GbdtModel>,
    /// Fault injection, rolling checkpoints, and checkpoint-resume.
    pub robust: RobustOptions,
}

/// Trains a GBDT model across `shards` (one per worker) with the DimBoost
/// execution plan on a parameter server configured by `ps_config`.
///
/// Returns the model, a compute/communication breakdown, and the per-tree
/// training-loss curve. Deterministic in `(config.seed, shards, ps_config)`.
pub fn train_distributed(
    shards: &[Dataset],
    config: &GbdtConfig,
    ps_config: PsConfig,
) -> Result<TrainOutput, String> {
    train_with_options(shards, config, ps_config, &TrainOptions::default())
        .map_err(|e| e.to_string())
}

/// [`train_distributed`] with an eval set, a warm-start model, and/or the
/// robustness harness — see [`TrainOptions`].
pub fn train_with_options(
    shards: &[Dataset],
    config: &GbdtConfig,
    ps_config: PsConfig,
    options: &TrainOptions<'_>,
) -> Result<TrainOutput, TrainError> {
    if let (Some(init), Some(first)) = (options.init, shards.first()) {
        init.check_warm_start(config, first.num_features())?;
    }
    config.validate()?;
    if shards.is_empty() {
        return Err(invalid("need at least one worker shard"));
    }
    let num_features = shards[0].num_features();
    if shards.iter().any(|s| s.num_features() != num_features) {
        return Err(invalid("all shards must share the same dimensionality"));
    }
    if shards.iter().all(|s| s.num_rows() == 0) {
        return Err(invalid("cannot train on zero instances"));
    }
    let warm_start = options.init.is_some();
    let (h, resume) = Harness::start(shards, config, ps_config, &options.robust, warm_start)?;
    let eval = options.eval.as_ref();
    check_labels_and_eval(config, shards, eval)?;

    let mut timer = SpanTimer::new(shards.len());
    timer.attach_trace(h.bus.clone());
    let fresh = resume.is_none();
    let mut run = Run {
        shards,
        config,
        eval,
        ps_config,
        plan: TrainPlan::new(config, shards),
        h,
        timer,
        state: match resume {
            Some(ck) => TrainState::from_checkpoint(ck, shards, config, eval),
            None => TrainState::fresh(shards, config, eval, options.init),
        },
        scratch: RowScratch::default(),
        scalar_loss: match config.loss {
            LossKind::Softmax { .. } => None,
            kind => Some(loss_for(kind)),
        },
        k: config.loss.trees_per_round(),
    };
    if fresh {
        // On a resumed run the sketch phases ran before the crash: their
        // traffic is in the preloaded ledger, their candidates in the state.
        run.create_sketch();
        run.pull_sketch();
    }
    for round in run.state.resumed_from.unwrap_or(0)..config.num_trees {
        run.h.round_boundary(round, &run.state)?;
        if run.boost_round(round) {
            break;
        }
        run.h.rolling_checkpoint(round, &run.state)?;
    }
    run.finish()
}

/// Convenience wrapper: trains on a single machine (one worker, one server,
/// free network) and returns just the model.
pub fn train_single_machine(dataset: &Dataset, config: &GbdtConfig) -> Result<GbdtModel, String> {
    let ps_config = PsConfig {
        num_servers: 1,
        num_partitions: 0,
        cost_model: CostModel::FREE,
    };
    Ok(train_distributed(std::slice::from_ref(dataset), config, ps_config)?.model)
}

fn check_labels_and_eval(
    config: &GbdtConfig,
    shards: &[Dataset],
    eval: Option<&EvalOptions<'_>>,
) -> Result<(), TrainError> {
    for shard in shards {
        config.loss.check_labels(shard.labels(), "training")?;
    }
    let Some(ev) = eval else {
        return Ok(());
    };
    config.loss.check_labels(ev.dataset.labels(), "eval")?;
    if ev.dataset.num_features() != shards[0].num_features() {
        return Err(invalid(
            "eval set dimensionality does not match training data",
        ));
    }
    Ok(())
}

/// Routes every local instance through the partially-built tree to find the
/// ones currently sitting at `node` — the full-shard scan the
/// node-to-instance index replaces (Table 3's "Node-to-instance Index" row).
fn scan_instances(shard: &Dataset, tree: &Tree, node: u32, mask: Option<&[bool]>) -> Vec<u32> {
    (0..shard.num_rows() as u32)
        .filter(|&i| mask.is_none_or(|m| m[i as usize]))
        .filter(|&i| tree.route(&shard.row(i as usize), 0) == node)
        .collect()
}

/// The rank error each of `w` workers may spend locally so that the
/// balanced merge of their sketches (one ε per merge level) still meets
/// `sketch_eps`.
pub fn worker_eps(sketch_eps: f64, w: usize) -> f64 {
    sketch_eps / ((w as f64).log2() + 2.0).max(2.0)
}

/// One worker's quantile sketches of `features`, one flushed sketch per
/// feature of the range, read off its shard's column view. The one sketch
/// build in the workspace: the trainer and the data-parallel baselines pass
/// every feature, a feature-parallel worker its column slice. Feature-major,
/// so one sketch is live at a time and `scratch` serves them all; a column
/// is the feature's values in row order, so each summary is the one per-value
/// insertion of the shard's rows would leave.
pub fn sketch_columns(columns: &ColumnView, features: Range<usize>, eps: f64) -> Vec<GkSketch> {
    let mut scratch = GkScratch::default();
    let sketch = |f: usize| {
        let mut sketch = GkSketch::new(eps);
        sketch.insert_slice(columns.column(f).values(), &mut scratch);
        sketch.flush_with(&mut scratch);
        sketch
    };
    features.map(sketch).collect()
}

/// [`sketch_columns`] for a caller that holds no column view of `shard`.
pub fn local_sketches(shard: &Dataset, features: Range<usize>, eps: f64) -> Vec<GkSketch> {
    sketch_columns(&ColumnView::build(shard), features, eps)
}

/// The tree being grown and the nodes its current layer works on.
struct Growing {
    tree: Tree,
    meta: FeatureMeta,
    active: Vec<u32>,
    /// `(parent, small, big)` per split of the previous layer under sibling
    /// subtraction: only `small` is built, `big` is derived on the servers.
    pairs: Vec<(u32, u32, u32)>,
    /// The nodes whose histograms this layer builds.
    build_nodes: Vec<u32>,
}

/// One build node's local row into `out`, under the kernel whose data
/// NEW_TREE made resident.
fn build_node_row(
    plan: &TrainPlan,
    hist: &HistData,
    shard: &Dataset,
    grads: &[GradPair],
    meta: &FeatureMeta,
    instances: &[u32],
    out: &mut Vec<f32>,
) {
    let (batch_size, rows) = (plan.batch_size, Rows::Node(instances));
    // Unbatched is the single-stripe case of the batched build.
    let threads = if plan.batched { plan.threads } else { 1 };
    match hist {
        HistData::Quantized(binned, pairs, qgrads) => {
            // Narrow/wide is chosen per node from its own row count; either
            // mode decodes the same exact integer sums, so the choice can
            // never change the output (pinned by tests). One stripe: the
            // integer sums are exact whatever the striping, so striping a
            // node would only add a dispatch, per-stripe cells and a merge.
            let mode = rows.acc_mode(qgrads);
            fused::build_rows_quantized_into(
                binned, pairs, rows, qgrads, meta, batch_size, 1, mode, out,
            );
        }
        HistData::Binned(binned) => {
            fused::build_rows_into(binned, rows, grads, meta, batch_size, threads, out);
        }
        HistData::Raw if plan.batched => {
            let bc = BatchConfig {
                batch_size,
                threads,
                sparse: plan.sparse_rows,
            };
            build_row_batched_into(shard, instances, grads, meta, &bc, out);
        }
        HistData::Raw => build_row_into(shard, instances, grads, meta, plan.sparse_rows, out),
    }
}

/// One layer's push accounting, filled worker by worker.
struct LayerPush<'a> {
    plan: &'a TrainPlan,
    ps: &'a ParameterServer,
    meta: &'a FeatureMeta,
    record: &'a mut RoundRecord,
    /// Instances per build node, summed over workers.
    node_counts: Vec<u64>,
    /// Dense exchanges charge `largest row × nodes`; sparse ones the *true*
    /// per-worker frame bytes of the layer. Either way the max across
    /// workers — they push concurrently.
    dense_row_bytes_max: usize,
    sparse_layer_bytes_max: u64,
    /// The logical stripe of the worker now pushing, which the sparse
    /// pushes carry.
    stripe: u32,
    stripe_frame_bytes: u64,
}

impl LayerPush<'_> {
    /// The pushes that follow come from worker `stripe`.
    fn begin_worker(&mut self, stripe: u32) {
        (self.stripe, self.stripe_frame_bytes) = (stripe, 0);
    }

    /// Pushes the current worker's local `row` of the `pos`-th build node
    /// under the plan's exchange, quantizing it into the kept code vector
    /// `q` first when the exchange is low-precision (§6.1).
    fn push(
        &mut self,
        q: &mut QuantizedRow,
        rng: &mut StdRng,
        (pos, node): (usize, u32),
        instances: u64,
        row: &[f32],
    ) {
        let (ps, record, stripe) = (self.ps, &mut *self.record, self.stripe);
        debug_assert_eq!(row.len(), self.meta.layout().row_len());
        self.node_counts[pos] += instances;
        record.hist_bytes_raw += 4 * row.len() as u64;
        if matches!(
            self.plan.exchange,
            Exchange::DenseQuantized | Exchange::SparseQuantized
        ) {
            quantize_row_into(row, self.meta.layout(), self.plan.compress_bits, rng, q);
            record.max_quant_scale = record.max_quant_scale.max(q.max_scale());
        }
        let frames = match self.plan.exchange {
            Exchange::Dense => {
                self.dense_row_bytes_max = self.dense_row_bytes_max.max(4 * row.len());
                record.hist_bytes_wire += 4 * row.len() as u64;
                return ps.push_histogram(node, row);
            }
            Exchange::DenseQuantized => {
                self.dense_row_bytes_max = self.dense_row_bytes_max.max(q.wire_bytes());
                record.hist_bytes_wire += q.wire_bytes() as u64;
                return ps.push_histogram_quantized(node, q);
            }
            Exchange::Sparse => ps.push_histogram_sparse(stripe, node, row),
            Exchange::SparseQuantized => ps.push_histogram_quantized_sparse(stripe, node, q),
        };
        record.hist_bytes_wire += frames.total_bytes();
        let tally = record.sparse_frames.get_or_insert_with(Default::default);
        tally.merge(&frames);
        self.stripe_frame_bytes += frames.total_bytes();
        self.sparse_layer_bytes_max = self.sparse_layer_bytes_max.max(self.stripe_frame_bytes);
    }
}

/// One run: its inputs, the plan, the two instruments (harness, timer) and
/// the cross-round state. Each paper phase is one method.
struct Run<'a> {
    shards: &'a [Dataset],
    config: &'a GbdtConfig,
    eval: Option<&'a EvalOptions<'a>>,
    ps_config: PsConfig,
    plan: TrainPlan,
    h: Harness<'a>,
    timer: SpanTimer,
    state: TrainState,
    /// Working memory of the build → quantize → push stage; not state.
    scratch: RowScratch,
    /// `None` for softmax, which is vector-valued.
    scalar_loss: Option<&'static dyn Loss>,
    /// Trees per boosting round: 1 for scalar losses, `classes` for softmax
    /// (`num_trees` counts *rounds*, so a softmax run grows `num_trees · k`
    /// trees, round-major).
    k: usize,
}

impl Run<'_> {
    /// Charges `time` to `phase` — unless there is one worker, which talks
    /// to nobody.
    fn charge(&self, phase: Phase, time: impl FnOnce(CostModel) -> SimTime) {
        if self.shards.len() > 1 {
            self.h.charge(phase, time(self.ps_config.cost_model));
        }
    }

    /// CREATE_SKETCH: each worker transposes its shard into the column view
    /// and sketches every feature from it; local sketches are pushed to the
    /// PS.
    fn create_sketch(&mut self) {
        let (shards, w) = (self.shards, self.shards.len());
        let num_features = shards[0].num_features();
        // Budget the rank error for the PS-side balanced merge of w sketches.
        let eps = worker_eps(self.config.sketch_eps, w);
        // Past this phase only the node-index split reads the view.
        let keep_view = self.plan.instances == InstanceSource::Index;
        let workers = &mut self.state.workers;
        let locals = self.timer.phase(Phase::CreateSketch, workers, |wk| {
            let columns = ColumnView::build(&shards[wk.shard_id]);
            let sketches = sketch_columns(&columns, 0..num_features, eps);
            wk.columns = keep_view.then_some(columns);
            sketches
        });
        let mut sketch_bytes = 0usize;
        for (wi, mut local) in locals.into_iter().enumerate() {
            self.h.set_worker(Some(wi as u32));
            sketch_bytes += local.iter_mut().map(|s| s.wire_bytes()).sum::<usize>();
            self.h.ps.push_sketches(local);
        }
        self.h.set_worker(None);
        let servers = self.ps_config.num_servers;
        self.charge(Phase::CreateSketch, |cost| {
            cost.t_ps_exchange_p(sketch_bytes / w.max(1), w, servers)
        });
    }

    /// PULL_SKETCH: merged sketches → split candidates per feature.
    fn pull_sketch(&mut self) {
        let mut merged = self.h.ps.pull_sketches();
        // All workers pull in parallel over their own links.
        self.charge(Phase::PullSketch, |cost| {
            let merged_bytes: usize = merged.iter_mut().map(|s| s.wire_bytes()).sum();
            SimTime(cost.alpha + merged_bytes as f64 * cost.beta)
        });
        let num_candidates = self.config.num_candidates;
        let propose = |s: &mut GkSketch| propose_candidates(s, num_candidates);
        self.state.candidates = merged.iter_mut().map(propose).collect();
    }

    /// One boosting round: gradients, `k` trees, training loss, evaluation.
    /// Returns `true` when early stopping ended the run.
    fn boost_round(&mut self, round: usize) -> bool {
        self.timer.begin_round(round);
        let mut record = RoundRecord::new(round);
        self.round_gradients();
        for class in 0..self.k {
            let mut g = self.new_tree(round * self.k + class, class);
            for _ in 0..self.config.max_depth {
                if g.active.is_empty() {
                    break;
                }
                self.build_and_push(&g, &mut record);
                self.find_split(&g);
                self.split_tree(&mut g, &mut record);
            }
            debug_assert!(
                g.tree.check_consistency().is_ok(),
                "tree inconsistent after build"
            );
            self.update_scores(&g.tree, class);
            self.state.trees.push(g.tree);
        }
        let elapsed = self.finish_round(round, record);
        self.evaluate(round, elapsed)
    }

    /// Round gradients for every class (softmax computes each instance's
    /// probability vector once per round). Timed under NEW_TREE.
    fn round_gradients(&mut self) {
        let (shards, scalar_loss, k) = (self.shards, self.scalar_loss, self.k);
        let workers = &mut self.state.workers;
        self.timer.phase(Phase::NewTree, workers, |wk| {
            let shard = &shards[wk.shard_id];
            for i in 0..shard.num_rows() {
                match scalar_loss {
                    Some(loss) => wk.grads_all[i] = loss.grad(wk.preds[i], shard.label(i)),
                    None => softmax_grads(
                        &wk.preds[i * k..(i + 1) * k],
                        shard.label(i) as usize,
                        &mut wk.grads_all[i * k..(i + 1) * k],
                    ),
                }
            }
        });
    }

    /// NEW_TREE for tree `t` (class `class` of its round): sample features,
    /// publish them, lay out the PS histogram table, reset every worker.
    fn new_tree(&mut self, t: usize, class: usize) -> Growing {
        let (config, ps) = (self.config, &self.h.ps);
        let num_features = self.shards[0].num_features();
        let sampled =
            FeatureMeta::sample_features(num_features, config.feature_sample_ratio, config.seed, t);
        ps.publish_sampled(sampled);
        let meta = FeatureMeta::new(ps.pull_sampled(), &self.state.candidates);
        ps.init_tree(meta.layout().clone());
        let tree = Tree::new(config.max_depth);
        let (shards, plan, k) = (self.shards, &self.plan, self.k);
        let workers = &mut self.state.workers;
        self.timer.phase(Phase::NewTree, workers, |wk| {
            let shard = &shards[wk.shard_id];
            wk.new_tree(plan, shard, &meta, (class, k), tree.capacity());
        });
        Growing {
            tree,
            meta,
            active: vec![0],
            pairs: Vec::new(),
            build_nodes: vec![0],
        }
    }

    /// BUILD_HISTOGRAM and the push half of FIND_SPLIT as one worker-major
    /// stage: each worker builds a node's local row into the kept buffer (a
    /// fused kernel: the whole layer into that buffer, as a block of slot
    /// rows), quantizes it into the kept code vector, pushes it, and the
    /// next node reuses both. Pushes leave in the same order — worker-major,
    /// node-minor — and draw from `wk.rng` in the same order as when all
    /// rows were built first, so nothing downstream can tell; what changes
    /// is that a layer holds one row at a time, not `workers × nodes`. The
    /// span booked per worker is its builder seconds only. Then the layer is
    /// charged (to BUILD_HISTOGRAM's ledger bucket) and the servers derive
    /// the unbuilt siblings.
    fn build_and_push(&mut self, g: &Growing, record: &mut RoundRecord) {
        let (shards, plan, h, meta) = (self.shards, &self.plan, &self.h, &g.meta);
        let (nodes, row_len) = (&g.build_nodes[..], meta.layout().row_len());
        let fused = plan.fuses(nodes.len(), row_len);
        let mut layer = LayerPush {
            plan,
            ps: &h.ps,
            meta,
            record,
            node_counts: vec![0u64; nodes.len()],
            dense_row_bytes_max: 0,
            sparse_layer_bytes_max: 0,
            stripe: 0,
            stripe_frame_bytes: 0,
        };
        let workers = &mut self.state.workers;
        let RowScratch {
            row: buf,
            quantized,
        } = &mut self.scratch;
        self.timer
            .phase_booked(Phase::BuildHistogram, workers, |wk| {
                let (shard, stripe) = (&shards[wk.shard_id], wk.shard_id as u32);
                h.set_worker(Some(stripe));
                layer.begin_worker(stripe);
                let mut build_secs = 0.0f64;
                if fused {
                    let start = Instant::now();
                    let positions = match plan.instances {
                        InstanceSource::Index => {
                            fused::positions_from_index(&wk.index, nodes, shard.num_rows())
                        }
                        InstanceSource::Scan => fused::positions_from_scan(
                            shard,
                            &g.tree,
                            nodes,
                            wk.sample_mask.as_deref(),
                        ),
                    };
                    let (batch_size, threads) = (plan.batch_size, plan.threads);
                    let rows = Rows::Layer(&positions);
                    match &wk.hist {
                        HistData::Binned(binned) => fused::build_rows_into(
                            binned, rows, &wk.grads, meta, batch_size, threads, buf,
                        ),
                        HistData::Quantized(binned, pairs, qgrads) => {
                            let mode = rows.acc_mode(qgrads);
                            fused::build_rows_quantized_into(
                                binned, pairs, rows, qgrads, meta, batch_size, threads, mode, buf,
                            );
                        }
                        HistData::Raw => unreachable!("the plan fuses only over a binned shard"),
                    }
                    build_secs += start.elapsed().as_secs_f64();
                    debug_assert_eq!(buf.len(), nodes.len() * row_len);
                    for (slot, &node) in nodes.iter().enumerate() {
                        let row = &buf[slot * row_len..(slot + 1) * row_len];
                        let count = positions.counts[slot];
                        layer.push(quantized, &mut wk.rng, (slot, node), count, row);
                    }
                } else {
                    for (pos, &node) in nodes.iter().enumerate() {
                        let start = Instant::now();
                        let scanned;
                        let instances = match plan.instances {
                            InstanceSource::Index => wk.index.instances(node),
                            InstanceSource::Scan => {
                                let mask = wk.sample_mask.as_deref();
                                scanned = scan_instances(shard, &g.tree, node, mask);
                                &scanned[..]
                            }
                        };
                        build_node_row(plan, &wk.hist, shard, &wk.grads, meta, instances, buf);
                        build_secs += start.elapsed().as_secs_f64();
                        debug_assert_eq!(buf.len(), row_len);
                        let count = instances.len() as u64;
                        layer.push(quantized, &mut wk.rng, (pos, node), count, buf);
                    }
                }
                ((), build_secs)
            });
        h.set_worker(None);
        let LayerPush {
            record,
            node_counts,
            dense_row_bytes_max,
            sparse_layer_bytes_max,
            ..
        } = layer;
        let ps = &h.ps;
        let counted = g.build_nodes.iter().zip(node_counts);
        record
            .node_instances
            .extend(counted.map(|(&node, instances)| NodeInstances { node, instances }));
        if plan.kernel == Kernel::Quantized {
            // Telemetry only — every field is a pure function of (config,
            // shard sizes, layer width), so the record is identical across
            // thread counts and batch sizes.
            let pair_len = meta.layout().row_len() / 2;
            let tile = fused::quant_tile_nodes(pair_len, g.build_nodes.len()) as u64;
            let bits = plan.quant_bits_min;
            let q = record.quant_hist.get_or_insert(QuantHistRecord {
                bits,
                tile_nodes: 0,
            });
            q.tile_nodes = q.tile_nodes.max(tile);
        }
        let (w, servers) = (self.shards.len(), self.ps_config.num_servers);
        let layer_push_bytes = match plan.exchange {
            Exchange::Dense | Exchange::DenseQuantized => dense_row_bytes_max * g.build_nodes.len(),
            Exchange::Sparse | Exchange::SparseQuantized => sparse_layer_bytes_max as usize,
        };
        self.charge(Phase::BuildHistogram, |cost| {
            cost.t_ps_exchange_p(layer_push_bytes, w, servers)
        });
        // Server-local: parent − built child = sibling; no traffic.
        for &(parent, small, big) in &g.pairs {
            ps.derive_sibling(parent, small, big);
            ps.clear_node(parent);
        }
    }

    /// FIND_SPLIT, second half: scheduled workers pull each active node's
    /// best split and publish the decision.
    fn find_split(&self, g: &Growing) {
        let (ps, scheduler, meta) = (&self.h.ps, self.plan.scheduler, &g.meta);
        let params = self.config.split_params();
        for (pos, &node) in g.active.iter().enumerate() {
            self.h.set_worker(Some(scheduler.worker_for(pos) as u32));
            ps.publish_decision(match self.plan.split_pull {
                SplitPull::TwoPhase => meta.resolve(node, ps.pull_split(node, &params)),
                SplitPull::FullRow => meta.decide(node, &ps.pull_histogram(node), &params),
            });
        }
        self.h.set_worker(None);
        let p = self.ps_config.partitions() as f64;
        let row_bytes = (4 * meta.layout().row_len()) as f64;
        let pulls = scheduler.max_load(g.active.len()) as f64;
        self.charge(Phase::FindSplit, |cost| {
            let per_node_pull = match self.plan.split_pull {
                // p O(1)-sized replies fetched in one batch.
                SplitPull::TwoPhase => cost.alpha + (p * 48.0) * cost.beta,
                // The whole merged row crosses the wire and is scanned.
                SplitPull::FullRow => cost.alpha * p + row_bytes * (cost.beta + cost.gamma),
            };
            SimTime(pulls * per_node_pull)
        });
        // Publishing decisions: tiny messages, serialized per worker.
        self.charge(Phase::FindSplit, |cost| {
            SimTime(pulls * (cost.alpha + 64.0 * cost.beta))
        });
    }

    /// SPLIT_TREE: pull the layer's decisions, grow the tree, split the
    /// node index, and move `g` to the next layer.
    fn split_tree(&mut self, g: &mut Growing, record: &mut RoundRecord) {
        let (shards, params) = (self.shards, self.config.split_params());
        let decisions = self.h.ps.pull_decisions(&g.active);
        let decision_bytes = (64 * g.active.len()) as f64;
        self.charge(Phase::SplitTree, |cost| {
            SimTime(cost.alpha + decision_bytes * cost.beta)
        });
        let (mut next_active, mut next_pairs) = (Vec::new(), Vec::new());
        for decision in &decisions {
            let node = decision.node;
            let open = g.tree.apply_decision(decision, &params);
            let Some(split) = decision.split else {
                self.h.ps.clear_node(node);
                continue;
            };
            record.split_gains.push(split.gain as f32);
            let (lc, rc) = (Tree::left_child(node), Tree::right_child(node));
            if self.plan.instances == InstanceSource::Index {
                let workers = &mut self.state.workers;
                self.timer.phase(Phase::SplitTree, workers, |wk| {
                    // A resumed run never ran CREATE_SKETCH: its first split
                    // builds the view.
                    let columns = wk
                        .columns
                        .get_or_insert_with(|| ColumnView::build(&shards[wk.shard_id]));
                    let column = columns.column(split.feature as usize);
                    wk.index
                        .split_column(node, lc, rc, column, |v| split.goes_left(v));
                });
            }
            // Parents feeding next layer's sibling subtraction must keep
            // their merged rows on the servers until the derive step.
            let mut keep_row = false;
            if let Some(children) = open {
                next_active.extend(children);
                if self.plan.subtraction {
                    let right_h = decision.total_h - split.left_h;
                    let (small, big) = if split.left_h <= right_h {
                        (lc, rc)
                    } else {
                        (rc, lc)
                    };
                    next_pairs.push((node, small, big));
                    keep_row = true;
                }
            }
            if !keep_row {
                self.h.ps.clear_node(node);
            }
        }
        self.h.ps.clear_decisions();
        g.build_nodes = if next_pairs.is_empty() {
            next_active.clone()
        } else {
            next_pairs.iter().map(|&(_, small, _)| small).collect()
        };
        (g.active, g.pairs) = (next_active, next_pairs);
    }

    /// Adds the finished tree's leaf weights to this class's score column.
    /// Timed under FINISH.
    fn update_scores(&mut self, tree: &Tree, class: usize) {
        let (shards, k, eta) = (self.shards, self.k, self.config.learning_rate);
        // With row subsampling the index only covers sampled rows, so
        // everything routes through the tree instead.
        let by_leaf_ranges = self.plan.index_covers_shard();
        let workers = &mut self.state.workers;
        self.timer.phase(Phase::Finish, workers, |wk| {
            let shard = &shards[wk.shard_id];
            if by_leaf_ranges {
                wk.index.update_scores(tree, eta, &mut wk.preds, class, k);
            } else {
                for i in 0..shard.num_rows() {
                    wk.preds[i * k + class] += eta * tree.predict(&shard.row(i));
                }
            }
        });
    }

    /// Round training loss, loss-curve point and round record. Returns the
    /// modelled elapsed seconds at the end of the round.
    fn finish_round(&mut self, round: usize, mut record: RoundRecord) -> f64 {
        let (shards, scalar_loss, k) = (self.shards, self.scalar_loss, self.k);
        let workers = &mut self.state.workers;
        let losses = self.timer.phase(Phase::Finish, workers, |wk| {
            summed_loss(scalar_loss, k, &wk.preds, shards[wk.shard_id].labels())
        });
        let total_instances: usize = shards.iter().map(|s| s.num_rows()).sum();
        let train_loss = losses.iter().sum::<f64>() / total_instances as f64;
        // Loss aggregation: w tiny messages.
        let w = shards.len() as f64;
        self.charge(Phase::Finish, |cost| {
            SimTime(cost.alpha + 8.0 * w * cost.beta)
        });
        let elapsed = self.timer.total_secs() + self.h.ps.comm_stats().sim_time.seconds();
        let state = &mut self.state;
        state.loss_curve.push(LossPoint {
            tree: state.trees.len(),
            train_loss,
            elapsed_secs: elapsed,
        });
        record.trees = state.trees.len();
        record.train_loss = train_loss;
        record.compute_secs = self.timer.round_secs(round);
        state.rounds.push(record);
        elapsed
    }

    /// Evaluation and early stopping (per round). Returns `true` when the
    /// run should stop; the ensemble is then already truncated to the best
    /// round.
    fn evaluate(&mut self, round: usize, elapsed: f64) -> bool {
        let Some(ev) = self.eval else {
            return false;
        };
        let state = &mut self.state;
        let (k, eta) = (self.k, self.config.learning_rate);
        let round_trees = &state.trees[state.trees.len() - k..];
        for (i, (row, _)) in ev.dataset.iter_rows().enumerate() {
            for (c, tree) in round_trees.iter().enumerate() {
                state.eval_preds[i * k + c] += eta * tree.predict(&row);
            }
        }
        let eval_loss = summed_loss(self.scalar_loss, k, &state.eval_preds, ev.dataset.labels())
            / ev.dataset.num_rows().max(1) as f64;
        state.eval_curve.push(LossPoint {
            tree: state.trees.len(),
            train_loss: eval_loss,
            elapsed_secs: elapsed,
        });
        if eval_loss < state.best_eval_loss - 1e-12 {
            state.best_eval_loss = eval_loss;
            state.best_iteration = Some(round);
        }
        match (ev.early_stopping_rounds, state.best_iteration) {
            (Some(patience), Some(best)) if round - best >= patience => {
                state.trees.truncate(state.init_trees + (best + 1) * k);
                true
            }
            _ => false,
        }
    }

    /// FINISH: the model, the breakdown, and the assembled run report.
    fn finish(self) -> Result<TrainOutput, TrainError> {
        let (h, timer, config, state) = (self.h, self.timer, self.config, self.state);
        let num_features = self.shards[0].num_features();
        let model = GbdtModel::new(state.trees, config.learning_rate, config.loss, num_features);
        model.check_consistency()?;
        let ledger = h.ps.comm_ledger();
        // Every PS interaction in the stages above is phase-tagged; nothing
        // may fall through to the legacy `Other` bucket.
        debug_assert!(
            ledger.phase(Phase::Other).is_empty(),
            "trainer left comm in the legacy Other bucket: {:?}",
            ledger.phase(Phase::Other)
        );
        let breakdown = RunBreakdown {
            compute_secs: timer.total_secs(),
            comm: ledger.total(),
        };
        let mut report = RunReport::assemble_with_metrics(
            self.shards.len(),
            self.ps_config.num_servers,
            &timer,
            &ledger,
            state.rounds,
            h.bus.export_metrics(),
        );
        report.faults = h.session.as_ref().map(|s| s.summary());
        report.membership = h.session.as_ref().map(|s| s.membership_summary());
        report.resumed_from_round = state.resumed_from;
        let trace = config.collect_trace.then(|| h.bus.finish());
        Ok(TrainOutput {
            model,
            breakdown,
            loss_curve: state.loss_curve,
            eval_curve: state.eval_curve,
            best_iteration: state.best_iteration,
            report,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LossKind, Optimizations};
    use crate::metrics::{classification_error, log_loss, rmse};
    use dimboost_data::partition::{partition_rows, train_test_split};
    use dimboost_data::synthetic::{generate, LabelKind, SparseGenConfig};
    use dimboost_simnet::CostModel;

    fn small_config() -> GbdtConfig {
        GbdtConfig {
            num_trees: 5,
            max_depth: 4,
            num_candidates: 10,
            learning_rate: 0.3,
            num_threads: 2,
            ..GbdtConfig::default()
        }
    }

    fn eval_opts(ev: EvalOptions<'_>) -> TrainOptions<'_> {
        TrainOptions {
            eval: Some(ev),
            ..TrainOptions::default()
        }
    }

    fn continue_from(
        init: &GbdtModel,
        shards: &[Dataset],
        config: &GbdtConfig,
        ps: PsConfig,
    ) -> Result<TrainOutput, String> {
        let options = TrainOptions {
            init: Some(init),
            ..TrainOptions::default()
        };
        train_with_options(shards, config, ps, &options).map_err(|e| e.to_string())
    }

    fn classification_data() -> (Dataset, Dataset) {
        let ds = generate(&SparseGenConfig::new(3_000, 200, 15, 42));
        train_test_split(&ds, 0.2, 42).unwrap()
    }

    #[test]
    fn slice_sketches_are_the_matching_run_of_whole_range_sketches() {
        let ds = generate(&SparseGenConfig::new(400, 50, 6, 9));
        let mut whole = local_sketches(&ds, 0..50, 0.05);
        for slice in [0..50, 0..13, 13..37, 37..50, 20..20] {
            let mut part = local_sketches(&ds, slice.clone(), 0.05);
            assert_eq!(part.len(), slice.len());
            for (own, all) in part.iter_mut().zip(&mut whole[slice]) {
                assert_eq!(own.count(), all.count());
                assert_eq!(propose_candidates(own, 8), propose_candidates(all, 8));
            }
        }
        assert_eq!(worker_eps(0.1, 1), 0.05);
        assert_eq!(worker_eps(0.1, 4), 0.025);
    }

    #[test]
    fn single_machine_learns_signal() {
        let (train, test) = classification_data();
        let model = train_single_machine(&train, &small_config()).unwrap();
        assert_eq!(model.num_trees(), 5);
        let probs = model.predict_dataset(&test);
        let err = classification_error(&probs, test.labels());
        // Majority class baseline is ~0.5 on this balanced generator.
        assert!(err < 0.40, "test error {err} did not beat baseline");
    }

    #[test]
    fn training_loss_decreases_monotonically() {
        let (train, _) = classification_data();
        let ps = PsConfig {
            num_servers: 1,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let out = train_distributed(&[train], &small_config(), ps).unwrap();
        let losses: Vec<f64> = out.loss_curve.iter().map(|p| p.train_loss).collect();
        assert_eq!(losses.len(), 5);
        for w in losses.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "loss increased: {losses:?}");
        }
        assert!(
            losses[4] < std::f64::consts::LN_2,
            "final loss {} not below ln 2",
            losses[4]
        );
    }

    #[test]
    fn distributed_matches_single_machine_accuracy() {
        let (train, test) = classification_data();
        let config = small_config();

        let single = train_single_machine(&train, &config).unwrap();
        let err_single = classification_error(&single.predict_dataset(&test), test.labels());

        let shards = partition_rows(&train, 4).unwrap();
        let ps = PsConfig {
            num_servers: 4,
            num_partitions: 0,
            cost_model: CostModel::GIGABIT_LAN,
        };
        let out = train_distributed(&shards, &config, ps).unwrap();
        let err_dist = classification_error(&out.model.predict_dataset(&test), test.labels());

        assert!(
            (err_single - err_dist).abs() < 0.05,
            "single {err_single} vs distributed {err_dist}"
        );
        // Distributed run actually used the network.
        assert!(out.breakdown.comm.bytes > 0);
        assert!(out.breakdown.comm.sim_time.seconds() > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let (train, _) = classification_data();
        let shards = partition_rows(&train, 3).unwrap();
        let config = small_config();
        let ps = PsConfig {
            num_servers: 3,
            num_partitions: 0,
            cost_model: CostModel::GIGABIT_LAN,
        };
        let a = train_distributed(&shards, &config, ps).unwrap();
        let b = train_distributed(&shards, &config, ps).unwrap();
        assert_eq!(a.model, b.model);
        assert_eq!(a.breakdown.comm.bytes, b.breakdown.comm.bytes);
        // The timing-free run report is bit-identical across reruns.
        assert_eq!(a.report.canonical_json(), b.report.canonical_json());
    }

    #[test]
    fn report_phase_comm_sums_to_aggregate() {
        let (train, _) = classification_data();
        let shards = partition_rows(&train, 3).unwrap();
        let ps = PsConfig {
            num_servers: 3,
            num_partitions: 0,
            cost_model: CostModel::GIGABIT_LAN,
        };
        let out = train_distributed(&shards, &small_config(), ps).unwrap();
        assert_eq!(out.report.workers, 3);
        assert_eq!(out.report.servers, 3);
        // Per-phase communication entries reproduce the aggregate exactly.
        assert_eq!(
            crate::report::sum_phase_comm(&out.report),
            out.breakdown.comm
        );
        assert_eq!(out.report.comm, out.breakdown.comm);
        // The trainer tags every event — the legacy bucket stays empty.
        assert!(out.report.phases.iter().all(|p| p.phase != Phase::Other));
        // Histogram pushes dominate the traffic (the paper's premise).
        let hist = out
            .report
            .phases
            .iter()
            .find(|p| p.phase == Phase::BuildHistogram)
            .expect("histogram phase present");
        assert!(
            hist.comm.bytes * 2 > out.breakdown.comm.bytes,
            "histogram bytes {} of {}",
            hist.comm.bytes,
            out.breakdown.comm.bytes
        );
        // Compute was measured, with a sane skew.
        for p in &out.report.phases {
            assert!(p.compute_max_secs >= 0.0);
            assert!(p.compute_skew_secs >= 0.0 && p.compute_skew_secs <= p.compute_max_secs);
        }
        assert!(out.report.compute_secs > 0.0);
    }

    #[test]
    fn report_rounds_capture_quantization_and_splits() {
        let (train, _) = classification_data();
        let shards = partition_rows(&train, 2).unwrap();
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };

        let mut lp = small_config();
        lp.opts.low_precision = true;
        lp.compress_bits = 8;
        let out = train_distributed(&shards, &lp, ps).unwrap();
        assert_eq!(out.report.rounds.len(), 5);
        for (i, r) in out.report.rounds.iter().enumerate() {
            assert_eq!(r.round, i);
            assert_eq!(r.trees, i + 1);
            // Quantization compresses the wire format and records its scale.
            assert!(
                r.hist_bytes_wire < r.hist_bytes_raw,
                "round {i}: wire {} !< raw {}",
                r.hist_bytes_wire,
                r.hist_bytes_raw
            );
            assert!(r.max_quant_scale > 0.0);
            assert!(!r.split_gains.is_empty());
            assert!(r.split_gains.iter().all(|g| g.is_finite() && *g >= 0.0));
            // The first histogram of each round is the root over all rows.
            assert_eq!(r.node_instances[0].node, 0);
            assert_eq!(r.node_instances[0].instances, train.num_rows() as u64);
        }
        // Round records agree with the loss curve.
        for (r, pt) in out.report.rounds.iter().zip(&out.loss_curve) {
            assert_eq!(r.train_loss, pt.train_loss);
            assert_eq!(r.trees, pt.tree);
        }

        // Full precision: the wire format is the raw rows, no scales.
        let mut full = small_config();
        full.opts.low_precision = false;
        let out = train_distributed(&shards, &full, ps).unwrap();
        for r in &out.report.rounds {
            assert_eq!(r.hist_bytes_wire, r.hist_bytes_raw);
            assert_eq!(r.max_quant_scale, 0.0);
        }
    }

    #[test]
    fn all_optimizations_off_still_learns() {
        let (train, test) = classification_data();
        let mut config = small_config();
        config.num_trees = 3;
        config.opts = Optimizations::NONE;
        let shards = partition_rows(&train, 2).unwrap();
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::GIGABIT_LAN,
        };
        let out = train_distributed(&shards, &config, ps).unwrap();
        let err = classification_error(&out.model.predict_dataset(&test), test.labels());
        assert!(err < 0.45, "unoptimized trainer error {err}");
    }

    #[test]
    fn each_optimization_alone_matches_baseline_quality() {
        // Every optimization is a performance change, not a quality change
        // (low precision excepted, which is approximate): models trained
        // with each single toggle must reach similar loss.
        let ds = generate(&SparseGenConfig::new(1_200, 100, 10, 7));
        let shards = partition_rows(&ds, 2).unwrap();
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };

        let mut base_cfg = small_config();
        base_cfg.num_trees = 3;
        base_cfg.opts = Optimizations::NONE;
        let base = train_distributed(&shards, &base_cfg, ps).unwrap();
        let base_loss = base.loss_curve.last().unwrap().train_loss;

        type Toggle = (&'static str, Box<dyn Fn(&mut Optimizations)>);
        let toggles: Vec<Toggle> = vec![
            (
                "sparse_hist",
                Box::new(|o: &mut Optimizations| o.sparse_hist = true),
            ),
            (
                "parallel_batch",
                Box::new(|o: &mut Optimizations| o.parallel_batch = true),
            ),
            (
                "node_index",
                Box::new(|o: &mut Optimizations| o.node_index = true),
            ),
            (
                "task_scheduler",
                Box::new(|o: &mut Optimizations| o.task_scheduler = true),
            ),
            (
                "two_phase_split",
                Box::new(|o: &mut Optimizations| o.two_phase_split = true),
            ),
        ];
        for (name, toggle) in toggles {
            let mut cfg = base_cfg.clone();
            toggle(&mut cfg.opts);
            let out = train_distributed(&shards, &cfg, ps).unwrap();
            let loss = out.loss_curve.last().unwrap().train_loss;
            assert!(
                (loss - base_loss).abs() < 1e-3,
                "{name}: loss {loss} deviates from baseline {base_loss}"
            );
        }
    }

    #[test]
    fn low_precision_close_to_full_precision() {
        let ds = generate(&SparseGenConfig::new(2_000, 150, 12, 21));
        let (train, test) = train_test_split(&ds, 0.2, 21).unwrap();
        let shards = partition_rows(&train, 2).unwrap();
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };

        let mut full_cfg = small_config();
        full_cfg.opts.low_precision = false;
        let full = train_distributed(&shards, &full_cfg, ps).unwrap();

        let mut lp_cfg = small_config();
        lp_cfg.opts.low_precision = true;
        lp_cfg.compress_bits = 8;
        let lp = train_distributed(&shards, &lp_cfg, ps).unwrap();

        let err_full = classification_error(&full.model.predict_dataset(&test), test.labels());
        let err_lp = classification_error(&lp.model.predict_dataset(&test), test.labels());
        // Mirrors the paper's 0.2509 vs 0.2514 observation: tiny gap.
        assert!(
            (err_full - err_lp).abs() < 0.05,
            "full {err_full} vs lp {err_lp}"
        );
        // And the compressed run moved substantially fewer bytes. (The
        // per-feature scale/zero metadata plus non-histogram traffic —
        // sketches, split replies — dilute the ideal 32/d ratio.)
        assert!(
            lp.breakdown.comm.bytes * 3 < full.breakdown.comm.bytes * 2,
            "lp {} vs full {}",
            lp.breakdown.comm.bytes,
            full.breakdown.comm.bytes
        );
    }

    #[test]
    fn hist_subtraction_matches_direct_construction() {
        // The subtraction extension must not change the learned model when
        // pushes are exact (full precision): parent − child is exact modulo
        // f32 cancellation, which the split scan tolerates.
        let ds = generate(&SparseGenConfig::new(2_000, 150, 12, 19));
        let (train, test) = train_test_split(&ds, 0.2, 19).unwrap();
        let shards = partition_rows(&train, 3).unwrap();
        let ps = PsConfig {
            num_servers: 3,
            num_partitions: 0,
            cost_model: CostModel::GIGABIT_LAN,
        };

        let mut plain_cfg = small_config();
        plain_cfg.opts.low_precision = false;
        let plain = train_distributed(&shards, &plain_cfg, ps).unwrap();

        let mut sub_cfg = plain_cfg.clone();
        sub_cfg.opts.hist_subtraction = true;
        let sub = train_distributed(&shards, &sub_cfg, ps).unwrap();

        let err_plain = classification_error(&plain.model.predict_dataset(&test), test.labels());
        let err_sub = classification_error(&sub.model.predict_dataset(&test), test.labels());
        assert!(
            (err_plain - err_sub).abs() < 0.03,
            "plain {err_plain} vs subtraction {err_sub}"
        );
        // Subtraction pushes roughly half the histogram bytes per deep layer.
        assert!(
            sub.breakdown.comm.bytes < plain.breakdown.comm.bytes,
            "subtraction {} should move fewer bytes than {}",
            sub.breakdown.comm.bytes,
            plain.breakdown.comm.bytes
        );
    }

    #[test]
    fn hist_subtraction_with_low_precision_still_learns() {
        let ds = generate(&SparseGenConfig::new(1_500, 100, 10, 23));
        let shards = partition_rows(&ds, 2).unwrap();
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let mut cfg = small_config();
        cfg.opts.hist_subtraction = true;
        cfg.opts.low_precision = true;
        let out = train_distributed(&shards, &cfg, ps).unwrap();
        let losses: Vec<f64> = out.loss_curve.iter().map(|p| p.train_loss).collect();
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "loss did not improve: {losses:?}"
        );
    }

    #[test]
    fn regression_with_square_loss() {
        let cfg_data =
            SparseGenConfig::new(2_000, 100, 10, 33).with_label_kind(LabelKind::Regression);
        let ds = generate(&cfg_data);
        let (train, test) = train_test_split(&ds, 0.2, 33).unwrap();
        let mut config = small_config();
        config.loss = LossKind::Square;
        config.num_trees = 10;
        let model = train_single_machine(&train, &config).unwrap();
        let preds = model.predict_dataset(&test);
        let model_rmse = rmse(&preds, test.labels());
        // Baseline: predicting the mean (≈0 for the standardized generator).
        let base_rmse = rmse(&vec![0.0; test.num_rows()], test.labels());
        assert!(
            model_rmse < 0.9 * base_rmse,
            "rmse {model_rmse} vs baseline {base_rmse}"
        );
    }

    #[test]
    fn feature_sampling_trains_and_uses_subset() {
        let ds = generate(&SparseGenConfig::new(1_000, 100, 10, 3));
        let mut config = small_config();
        config.feature_sample_ratio = 0.5;
        config.num_trees = 3;
        let model = train_single_machine(&ds, &config).unwrap();
        assert_eq!(model.num_trees(), 3);
        assert!(model.check_consistency().is_ok());
        let probs = model.predict_dataset(&ds);
        assert!(log_loss(&probs, ds.labels()).is_finite());
    }

    #[test]
    fn row_subsampling_learns_and_stays_deterministic() {
        let (train, test) = classification_data();
        let mut config = small_config();
        config.instance_sample_ratio = 0.5;
        config.num_trees = 8;
        let shards = partition_rows(&train, 2).unwrap();
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let a = train_distributed(&shards, &config, ps).unwrap();
        let b = train_distributed(&shards, &config, ps).unwrap();
        assert_eq!(a.model, b.model);
        let err = classification_error(&a.model.predict_dataset(&test), test.labels());
        assert!(err < 0.42, "subsampled error {err}");
        // Subsampling must change the model vs full rows.
        let mut full = config.clone();
        full.instance_sample_ratio = 1.0;
        let f = train_distributed(&shards, &full, ps).unwrap();
        assert_ne!(a.model, f.model);
    }

    #[test]
    fn eval_curve_and_early_stopping() {
        use crate::trainer::EvalOptions;
        let (train, test) = classification_data();
        let shards = partition_rows(&train, 2).unwrap();
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let mut config = small_config();
        config.num_trees = 10;

        // Plain eval: curve recorded, same length as trees.
        let ev = EvalOptions {
            dataset: &test,
            early_stopping_rounds: None,
        };
        let out = train_with_options(&shards, &config, ps, &eval_opts(ev)).unwrap();
        assert_eq!(out.eval_curve.len(), 10);
        assert!(out.best_iteration.is_some());
        assert!(out.eval_curve.iter().all(|p| p.train_loss.is_finite()));

        // Aggressive early stopping on an anti-learnable eval set: labels
        // flipped, so eval loss *rises* as training progresses and stopping
        // fires almost immediately.
        let flipped_labels: Vec<f32> = test.labels().iter().map(|&y| 1.0 - y).collect();
        let mut flipped = dimboost_data::DatasetBuilder::new(test.num_features());
        for (i, (row, _)) in test.iter_rows().enumerate() {
            flipped
                .push_raw(row.indices(), row.values(), flipped_labels[i])
                .unwrap();
        }
        let flipped = flipped.finish().unwrap();
        let ev = EvalOptions {
            dataset: &flipped,
            early_stopping_rounds: Some(2),
        };
        let out = train_with_options(&shards, &config, ps, &eval_opts(ev)).unwrap();
        assert!(
            out.model.num_trees() < 10,
            "early stopping should truncate: kept {}",
            out.model.num_trees()
        );
        assert_eq!(out.model.num_trees(), out.best_iteration.unwrap() + 1);
    }

    #[test]
    fn eval_set_dimension_mismatch_rejected() {
        use crate::trainer::EvalOptions;
        let (train, _) = classification_data();
        let other = generate(&SparseGenConfig::new(50, 7, 2, 1));
        let ev = EvalOptions {
            dataset: &other,
            early_stopping_rounds: None,
        };
        let ps = PsConfig {
            num_servers: 1,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        assert!(train_with_options(&[train], &small_config(), ps, &eval_opts(ev)).is_err());
    }

    #[test]
    fn l1_alpha_shrinks_leaf_weights() {
        let (train, _) = classification_data();
        let mut plain = small_config();
        plain.opts.low_precision = false;
        let mut l1 = plain.clone();
        l1.alpha = 5.0;
        let a = train_single_machine(&train, &plain).unwrap();
        let b = train_single_machine(&train, &l1).unwrap();
        let sum_abs = |m: &crate::GbdtModel| -> f64 {
            m.trees()
                .iter()
                .flat_map(|t| t.nodes())
                .filter_map(|n| match n {
                    crate::tree::Node::Leaf { weight } => Some(weight.abs() as f64),
                    _ => None,
                })
                .sum()
        };
        assert!(
            sum_abs(&b) < sum_abs(&a),
            "alpha must shrink total |leaf weight|: {} vs {}",
            sum_abs(&b),
            sum_abs(&a)
        );
        // Extreme alpha zeroes everything.
        let mut huge = plain.clone();
        huge.alpha = 1e12;
        let c = train_single_machine(&train, &huge).unwrap();
        assert_eq!(sum_abs(&c), 0.0);
    }

    #[test]
    fn extreme_regularization_yields_single_leaf() {
        // A huge gamma makes every split's regularized gain negative, so
        // each tree collapses to its root leaf; with balanced labels the
        // root leaf weight is ~0 and predictions stay ~0.5.
        let (train, _) = classification_data();
        let mut config = small_config();
        config.gamma = 1e12;
        let model = train_single_machine(&train, &config).unwrap();
        for tree in model.trees() {
            assert_eq!(tree.num_internal(), 0, "gamma must suppress all splits");
            assert_eq!(tree.num_leaves(), 1);
        }
        let probs = model.predict_dataset(&train);
        assert!(probs.iter().all(|&p| (p - 0.5).abs() < 0.2));
    }

    #[test]
    fn huge_min_child_weight_also_suppresses_splits() {
        let (train, _) = classification_data();
        let mut config = small_config();
        config.min_child_weight = 1e12;
        let model = train_single_machine(&train, &config).unwrap();
        assert!(model.trees().iter().all(|t| t.num_internal() == 0));
    }

    #[test]
    fn depth_one_trees_are_stumps() {
        let (train, _) = classification_data();
        let mut config = small_config();
        config.max_depth = 1;
        let model = train_single_machine(&train, &config).unwrap();
        for tree in model.trees() {
            assert!(tree.num_internal() <= 1);
            assert!(tree.num_leaves() <= 2);
            assert!(tree.check_consistency().is_ok());
        }
    }

    #[test]
    fn single_candidate_still_trains() {
        let (train, _) = classification_data();
        let mut config = small_config();
        config.num_candidates = 1;
        let out = train_single_machine(&train, &config);
        assert!(out.is_ok());
    }

    #[test]
    fn warm_start_continues_exactly() {
        // With deterministic settings (no quantization, no subsampling,
        // sigma = 1), training T1 rounds and continuing with T2 must equal
        // one T1+T2 run bit-for-bit.
        let (train, _) = classification_data();
        let shards = partition_rows(&train, 2).unwrap();
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let mut cfg = small_config();
        cfg.opts.low_precision = false;

        let mut long_cfg = cfg.clone();
        long_cfg.num_trees = 6;
        let long = train_distributed(&shards, &long_cfg, ps).unwrap();

        let mut first_cfg = cfg.clone();
        first_cfg.num_trees = 4;
        let first = train_distributed(&shards, &first_cfg, ps).unwrap();
        let mut cont_cfg = cfg.clone();
        cont_cfg.num_trees = 2;
        let cont = continue_from(&first.model, &shards, &cont_cfg, ps).unwrap();

        assert_eq!(cont.model.num_trees(), 6);
        assert_eq!(
            cont.model, long.model,
            "continuation must match the long run"
        );
        // Loss after the continuation matches the long run's final loss.
        let a = cont.loss_curve.last().unwrap().train_loss;
        let b = long.loss_curve.last().unwrap().train_loss;
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn warm_start_validates_compatibility() {
        let (train, _) = classification_data();
        let cfg = small_config();
        let ps = PsConfig {
            num_servers: 1,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let base = train_distributed(std::slice::from_ref(&train), &cfg, ps).unwrap();

        let mut bad_lr = cfg.clone();
        bad_lr.learning_rate = 0.999;
        assert!(
            continue_from(&base.model, std::slice::from_ref(&train), &bad_lr, ps)
                .unwrap_err()
                .contains("learning-rate")
        );

        let mut bad_loss = cfg.clone();
        bad_loss.loss = LossKind::Square;
        assert!(
            continue_from(&base.model, std::slice::from_ref(&train), &bad_loss, ps)
                .unwrap_err()
                .contains("loss")
        );

        let other = generate(&SparseGenConfig::new(50, 7, 2, 1));
        assert!(continue_from(&base.model, &[other], &cfg, ps)
            .unwrap_err()
            .contains("dimensionality"));
    }

    #[test]
    fn pre_binning_produces_identical_models() {
        let (train, _) = classification_data();
        let shards = partition_rows(&train, 3).unwrap();
        let ps = PsConfig {
            num_servers: 3,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let mut plain = small_config();
        plain.opts.low_precision = false;
        let mut binned = plain.clone();
        binned.opts.pre_binning = true;
        let a = train_distributed(&shards, &plain, ps).unwrap();
        let b = train_distributed(&shards, &binned, ps).unwrap();
        assert_eq!(
            a.model, b.model,
            "pre-binning must be a pure performance change"
        );

        // Also identical under feature sampling (per-tree rebinning path).
        plain.feature_sample_ratio = 0.6;
        let mut binned = plain.clone();
        binned.opts.pre_binning = true;
        let a = train_distributed(&shards, &plain, ps).unwrap();
        let b = train_distributed(&shards, &binned, ps).unwrap();
        assert_eq!(a.model, b.model);
    }

    #[test]
    fn quantized_hist_model_independent_of_path_threads_and_batch() {
        // The quantized accumulator's integer sums are exact and order-free,
        // so the model must be bit-identical across per-node vs fused,
        // any thread count, any batch size — and the timing-free report
        // (incl. the quant_hist telemetry) must match too.
        let (train, _) = classification_data();
        let shards = partition_rows(&train, 3).unwrap();
        let ps = PsConfig {
            num_servers: 3,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let mut base = small_config();
        base.opts.low_precision = false;
        base.opts.quantized_hist = true;
        base.num_threads = 1;
        let reference = train_distributed(&shards, &base, ps).unwrap();
        assert!(reference.report.rounds[0].quant_hist.is_some());

        for (threads, batch, fused, subtraction) in [
            (2usize, 25usize, false, false),
            (4, 10_000, false, false),
            (2, 25, true, false),
            (8, 40, true, false),
            (4, 25, true, true),
        ] {
            let mut cfg = base.clone();
            cfg.num_threads = threads;
            cfg.batch_size = batch;
            cfg.opts.fused_layer = fused;
            cfg.opts.hist_subtraction = subtraction;
            let out = train_distributed(&shards, &cfg, ps).unwrap();
            if subtraction {
                // Subtraction builds different nodes (different telemetry);
                // model equality is a float-tolerance property of the f32
                // derive — not asserted here (covered by tests/fused.rs for
                // the f32 path). Just require training to succeed and stay
                // quantized.
                assert!(out.report.rounds[0].quant_hist.is_some());
                continue;
            }
            assert_eq!(
                out.model, reference.model,
                "threads={threads} batch={batch} fused={fused}"
            );
            assert_eq!(
                out.report.canonical_json(),
                reference.report.canonical_json(),
                "canonical report drifted at threads={threads} batch={batch} fused={fused}"
            );
        }
    }

    #[test]
    fn quantized_hist_composes_with_sparse_wire_and_low_precision() {
        // The dequantized rows feed the existing push paths unchanged, so
        // dense vs sparse-wire stays bit-identical with quantized
        // accumulation, at full and at 8-bit push precision.
        let (train, _) = classification_data();
        let shards = partition_rows(&train, 2).unwrap();
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        for low_precision in [false, true] {
            let mut dense = small_config();
            dense.opts.low_precision = low_precision;
            dense.opts.quantized_hist = true;
            let mut sparse = dense.clone();
            sparse.opts.sparse_wire = true;
            let a = train_distributed(&shards, &dense, ps).unwrap();
            let b = train_distributed(&shards, &sparse, ps).unwrap();
            assert_eq!(
                a.model, b.model,
                "sparse wire must stay bit-identical under quantized_hist \
                 (low_precision={low_precision})"
            );
        }
    }

    #[test]
    fn sparse_wire_produces_identical_models_and_fewer_bytes() {
        let (train, _) = classification_data();
        let shards = partition_rows(&train, 3).unwrap();
        let ps = PsConfig {
            num_servers: 3,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        for low_precision in [false, true] {
            let mut dense = small_config();
            dense.opts.low_precision = low_precision;
            let mut sparse = dense.clone();
            sparse.opts.sparse_wire = true;
            let a = train_distributed(&shards, &dense, ps).unwrap();
            let b = train_distributed(&shards, &sparse, ps).unwrap();
            assert_eq!(
                a.model, b.model,
                "sparse wire must be bit-identical (low_precision={low_precision})"
            );
            // Per-round training telemetry matches except the wire fields.
            for (ra, rb) in a.report.rounds.iter().zip(&b.report.rounds) {
                assert_eq!(ra.train_loss, rb.train_loss);
                assert_eq!(ra.split_gains, rb.split_gains);
                assert_eq!(ra.node_instances, rb.node_instances);
                assert_eq!(ra.hist_bytes_raw, rb.hist_bytes_raw);
                assert!(ra.sparse_frames.is_none());
                let frames = rb.sparse_frames.as_ref().expect("sparse rounds tally");
                assert_eq!(frames.total_bytes(), rb.hist_bytes_wire);
            }
            // The run-level rollup exists only on the sparse run and its
            // bytes beat the dense f32 exchange.
            assert!(a.report.sparsity.is_none());
            let s = b.report.sparsity.as_ref().expect("sparsity section");
            assert_eq!(s.wire_bytes, s.frames.total_bytes());
            assert!(
                s.wire_bytes < s.raw_bytes,
                "wire {} >= raw {} (low_precision={low_precision})",
                s.wire_bytes,
                s.raw_bytes
            );
        }
    }

    #[test]
    fn learned_default_direction_improves_sparse_splits() {
        use dimboost_data::SparseInstance;
        // Feature 0 pattern: absent and 2.0 are class 1; 0.5 and 1.0 are
        // class 0. No single threshold separates the classes (zeros are
        // glued to the left end of the value axis), but "threshold 1.5 with
        // zeros right" does.
        let mut instances = Vec::new();
        let mut labels = Vec::new();
        for i in 0..400u32 {
            let (value, label) = match i % 4 {
                0 => (None, 1.0),
                1 => (Some(0.5), 0.0),
                2 => (Some(1.0), 0.0),
                _ => (Some(2.0), 1.0),
            };
            let inst = match value {
                Some(v) => SparseInstance::new(vec![0], vec![v]).unwrap(),
                None => SparseInstance::empty(),
            };
            instances.push(inst);
            labels.push(label);
        }
        let ds = Dataset::from_instances(&instances, labels, 1).unwrap();

        let mut config = small_config();
        config.num_trees = 1;
        config.max_depth = 1;
        config.num_candidates = 8;
        config.min_child_weight = 0.0;
        config.learning_rate = 1.0;
        config.opts.low_precision = false;

        let natural = train_single_machine(&ds, &config).unwrap();
        let err_natural = classification_error(&natural.predict_dataset(&ds), ds.labels());

        config.learn_default_direction = true;
        let learned = train_single_machine(&ds, &config).unwrap();
        let err_learned = classification_error(&learned.predict_dataset(&ds), ds.labels());

        assert!(
            err_natural >= 0.24,
            "without default learning one depth-1 split cannot separate: {err_natural}"
        );
        assert_eq!(
            err_learned, 0.0,
            "learned default direction separates exactly"
        );
        // The learned tree routes zeros right.
        match learned.trees()[0].node(0) {
            crate::tree::Node::Internal { default_left, .. } => assert!(!default_left),
            other => panic!("expected a split, got {other:?}"),
        }
    }

    #[test]
    fn multiclass_softmax_learns() {
        use crate::metrics::{multiclass_error, multiclass_log_loss};
        let cfg_data = SparseGenConfig::new(4_000, 200, 15, 77)
            .with_label_kind(LabelKind::Multiclass { classes: 3 });
        let ds = generate(&cfg_data);
        let (train, test) = train_test_split(&ds, 0.2, 77).unwrap();
        let shards = partition_rows(&train, 3).unwrap();
        let mut config = small_config();
        config.loss = LossKind::Softmax { classes: 3 };
        config.num_trees = 8; // rounds: 24 trees total
        let ps = PsConfig {
            num_servers: 3,
            num_partitions: 0,
            cost_model: CostModel::GIGABIT_LAN,
        };
        let out = train_distributed(&shards, &config, ps).unwrap();

        assert_eq!(out.model.num_trees(), 24);
        assert_eq!(out.model.num_classes(), 3);
        assert!(out.model.check_consistency().is_ok());

        let preds = out.model.predict_dataset(&test);
        let err = multiclass_error(&preds, test.labels());
        // Majority baseline is ~2/3 on balanced 3-class data.
        assert!(err < 0.5, "multiclass error {err}");

        let probas = out.model.predict_proba_dataset(&test);
        assert!(probas
            .iter()
            .all(|p| (p.iter().sum::<f32>() - 1.0).abs() < 1e-4));
        let mll = multiclass_log_loss(&probas, test.labels());
        assert!(
            mll < 3.0f64.ln(),
            "mlogloss {mll} not below uniform baseline"
        );

        // Training loss decreases per round.
        let losses: Vec<f64> = out.loss_curve.iter().map(|p| p.train_loss).collect();
        assert_eq!(losses.len(), 8);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "{losses:?}"
        );
    }

    #[test]
    fn multiclass_rejects_bad_labels() {
        let ds = generate(&SparseGenConfig::new(100, 20, 5, 1)); // binary labels 0/1 are valid class ids
        let mut config = small_config();
        config.loss = LossKind::Softmax { classes: 3 };
        let ps = PsConfig {
            num_servers: 1,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        assert!(train_distributed(&[ds], &config, ps).is_ok());

        // Labels outside 0..classes must be rejected.
        let cfg_data = SparseGenConfig::new(100, 20, 5, 2)
            .with_label_kind(LabelKind::Multiclass { classes: 5 });
        let bad = generate(&cfg_data);
        assert!(train_distributed(&[bad], &config, ps)
            .unwrap_err()
            .contains("class indices"),);
    }

    #[test]
    fn multiclass_early_stopping_truncates_whole_rounds() {
        use crate::trainer::EvalOptions;
        let cfg_data = SparseGenConfig::new(1_000, 60, 8, 9)
            .with_label_kind(LabelKind::Multiclass { classes: 3 });
        let ds = generate(&cfg_data);
        let (train, test) = train_test_split(&ds, 0.3, 9).unwrap();
        let mut config = small_config();
        config.loss = LossKind::Softmax { classes: 3 };
        config.num_trees = 6;
        let ps = PsConfig {
            num_servers: 1,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let ev = EvalOptions {
            dataset: &test,
            early_stopping_rounds: Some(1),
        };
        let out = train_with_options(&[train], &config, ps, &eval_opts(ev)).unwrap();
        assert_eq!(
            out.model.num_trees() % 3,
            0,
            "truncation must keep whole rounds"
        );
        assert!(out.model.check_consistency().is_ok());
    }

    #[test]
    fn rejects_invalid_inputs() {
        let ds = generate(&SparseGenConfig::new(10, 5, 2, 1));
        assert!(train_distributed(&[], &small_config(), PsConfig::default()).is_err());

        let empty = Dataset::empty(5);
        assert!(train_distributed(&[empty], &small_config(), PsConfig::default()).is_err());

        let mismatched = vec![ds.clone(), Dataset::empty(7)];
        assert!(train_distributed(&mismatched, &small_config(), PsConfig::default()).is_err());

        let mut bad = small_config();
        bad.num_trees = 0;
        assert!(train_distributed(&[ds], &bad, PsConfig::default()).is_err());
    }

    #[test]
    fn handles_workers_with_empty_shards() {
        let ds = generate(&SparseGenConfig::new(50, 20, 5, 2));
        // 8 workers, 50 rows: every worker has rows; now force empties by
        // using more workers than rows on a tiny set.
        let tiny = generate(&SparseGenConfig::new(3, 20, 5, 2));
        let shards = partition_rows(&tiny, 5).unwrap();
        let mut config = small_config();
        config.num_trees = 2;
        config.min_child_weight = 0.0;
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let out = train_distributed(&shards, &config, ps).unwrap();
        assert_eq!(out.model.num_trees(), 2);
        // Sanity on the larger set too.
        let shards = partition_rows(&ds, 3).unwrap();
        assert!(train_distributed(&shards, &config, ps).is_ok());
    }

    #[test]
    fn more_trees_do_not_hurt_training_loss() {
        let (train, _) = classification_data();
        let mut config = small_config();
        config.num_trees = 12;
        let ps = PsConfig {
            num_servers: 1,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let out = train_distributed(&[train], &config, ps).unwrap();
        let first = out.loss_curve.first().unwrap().train_loss;
        let last = out.loss_curve.last().unwrap().train_loss;
        assert!(last < first, "12 trees: {first} -> {last}");
    }

    #[test]
    fn breakdown_accumulates() {
        let (train, _) = classification_data();
        let shards = partition_rows(&train, 2).unwrap();
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::GIGABIT_LAN,
        };
        let out = train_distributed(&shards, &small_config(), ps).unwrap();
        assert!(out.breakdown.compute_secs > 0.0);
        assert!(out.breakdown.comm.packages > 0);
        assert!(out.breakdown.total_secs() >= out.breakdown.compute_secs);
        // Curve elapsed times are nondecreasing.
        let times: Vec<f64> = out.loss_curve.iter().map(|pt| pt.elapsed_secs).collect();
        assert!(times.windows(2).all(|w| w[1] >= w[0]));
    }
}
