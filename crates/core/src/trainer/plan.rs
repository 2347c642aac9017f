//! The per-run plan: every kernel, exchange and placement decision the
//! [`Optimizations`](crate::config::Optimizations) flags imply, made once in
//! [`TrainPlan::new`]. The stage functions match on the plan; none of them
//! reads a flag.

use dimboost_data::Dataset;

use crate::config::GbdtConfig;
use crate::hist_build::effective_quant_bits;
use crate::scheduler::RoundRobinScheduler;

/// What NEW_TREE makes resident on each worker, and so which accumulator
/// family BUILD_HISTOGRAM runs (see [`super::state::HistData`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Kernel {
    /// Nothing: rows are binned on the fly from the raw shard.
    Raw,
    /// The pre-binned CSR; f32 accumulators.
    Binned,
    /// The pre-binned CSR, its packed-pair view and the tree's fixed-point
    /// gradient codes; integer accumulators.
    Quantized,
}

/// Wire format of the histogram push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Exchange {
    /// Full `f32` rows.
    Dense,
    /// §6.1 low-precision rows.
    DenseQuantized,
    /// Density-adaptive frames per (stripe, feature-block) cell.
    Sparse,
    /// Low-precision codes inside the sparse frames.
    SparseQuantized,
}

/// How FIND_SPLIT reads a merged row back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SplitPull {
    /// §6.3: servers scan their ranges, the worker merges `p` small replies.
    TwoPhase,
    /// The whole merged row crosses the wire and is scanned on the worker.
    FullRow,
}

/// Where a node's instance list comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum InstanceSource {
    /// The node-to-instance index, split in SPLIT_TREE.
    Index,
    /// Routing the whole shard through the partial tree.
    Scan,
}

/// The decisions fixed for a run.
pub(super) struct TrainPlan {
    pub kernel: Kernel,
    /// Raw kernel only: Algorithm 2 instead of dense enumeration.
    pub sparse_rows: bool,
    /// Per-node f32 builds go through the parallel batch builder.
    pub batched: bool,
    /// Build whole layers in one pass where [`TrainPlan::fuses`] admits it.
    fused: bool,
    fused_block_budget: usize,
    pub exchange: Exchange,
    pub split_pull: SplitPull,
    pub instances: InstanceSource,
    pub scheduler: RoundRobinScheduler,
    /// Build only the smaller child of each split; the servers derive its
    /// sibling.
    pub subtraction: bool,
    /// Per-tree Bernoulli row subsampling ratio, when below 1.
    pub row_sample: Option<f64>,
    /// σ < 1: the sampled feature set, and so the binning, changes per tree.
    pub rebin_each_tree: bool,
    pub threads: usize,
    pub batch_size: usize,
    pub compress_bits: u8,
    /// Requested accumulator width; demoted per shard in NEW_TREE.
    pub quant_hist_bits: u8,
    /// Smallest effective accumulator width across shards (telemetry).
    pub quant_bits_min: u8,
}

impl TrainPlan {
    /// Normalises `config.opts` into the plan. `fused_layer` and
    /// `quantized_hist` both imply the binned representation, so
    /// `pre_binning` next to either changes nothing.
    pub fn new(config: &GbdtConfig, shards: &[Dataset]) -> Self {
        let (o, w) = (config.opts, shards.len());
        let effective = |s: &Dataset| effective_quant_bits(config.quant_hist_bits, s.num_rows());
        Self {
            kernel: if o.quantized_hist {
                Kernel::Quantized
            } else if o.pre_binning || o.fused_layer {
                Kernel::Binned
            } else {
                Kernel::Raw
            },
            sparse_rows: o.sparse_hist,
            batched: o.parallel_batch,
            fused: o.fused_layer,
            fused_block_budget: config.fused_block_budget,
            exchange: match (o.sparse_wire, o.low_precision) {
                (false, false) => Exchange::Dense,
                (false, true) => Exchange::DenseQuantized,
                (true, false) => Exchange::Sparse,
                (true, true) => Exchange::SparseQuantized,
            },
            split_pull: match o.two_phase_split {
                true => SplitPull::TwoPhase,
                false => SplitPull::FullRow,
            },
            instances: match o.node_index {
                true => InstanceSource::Index,
                false => InstanceSource::Scan,
            },
            scheduler: match o.task_scheduler {
                true => RoundRobinScheduler::new(w),
                false => RoundRobinScheduler::single_agent(w),
            },
            subtraction: o.hist_subtraction,
            row_sample: Some(config.instance_sample_ratio).filter(|&r| r < 1.0),
            rebin_each_tree: config.feature_sample_ratio < 1.0,
            threads: config.num_threads,
            batch_size: config.batch_size,
            compress_bits: config.compress_bits,
            quant_hist_bits: config.quant_hist_bits,
            quant_bits_min: shards
                .iter()
                .map(effective)
                .min()
                .unwrap_or(config.quant_hist_bits),
        }
    }

    /// Whether a layer of `nodes` build nodes runs the fused kernel. The
    /// f32 kernel gives every thread a `[nodes × row_len]` block, so it
    /// falls back to per-node builds when those would exceed the budget;
    /// the quantized kernel tiles its nodes and is exempt (and per-node
    /// would be bit-identical anyway).
    pub fn fuses(&self, nodes: usize, row_len: usize) -> bool {
        let blocks = nodes.saturating_mul(row_len).saturating_mul(4);
        self.fused
            && (self.kernel == Kernel::Quantized
                || blocks.saturating_mul(self.threads.max(1)) <= self.fused_block_budget)
    }

    /// FINISH may add leaf weights along the index's leaf ranges only when
    /// the index covers every row of the shard.
    pub fn index_covers_shard(&self) -> bool {
        self.instances == InstanceSource::Index && self.row_sample.is_none()
    }
}
