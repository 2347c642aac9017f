use dimboost_ps::SplitParams;
use serde::{Deserialize, Serialize};

/// Which loss function drives the boosting objective (Section 2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LossKind {
    /// Logistic loss for binary classification (labels in {0, 1}).
    Logistic,
    /// Squared loss for regression.
    Square,
    /// Softmax cross-entropy for multiclass classification (labels in
    /// `0..classes`). **Extension beyond the paper** (which evaluates binary
    /// classification only): each boosting round grows one tree per class.
    Softmax {
        /// Number of classes (≥ 2).
        classes: u32,
    },
}

impl LossKind {
    /// Trees grown per boosting round: 1 for scalar losses, `classes` for
    /// softmax.
    pub fn trees_per_round(&self) -> usize {
        match self {
            LossKind::Softmax { classes } => *classes as usize,
            _ => 1,
        }
    }

    /// Checks that `labels` (the `what` set) are valid targets for this
    /// loss: softmax needs class indices in `0..classes`; the scalar losses
    /// accept any label.
    pub fn check_labels(&self, labels: &[f32], what: &str) -> Result<(), String> {
        let LossKind::Softmax { classes } = *self else {
            return Ok(());
        };
        match labels
            .iter()
            .find(|&&y| y < 0.0 || y.fract() != 0.0 || y as u32 >= classes)
        {
            Some(y) => Err(format!(
                "softmax {what} labels must be class indices in 0..{classes}, got {y}"
            )),
            None => Ok(()),
        }
    }
}

/// The optimization toggles evaluated one by one in Table 3. Each flag turns
/// one of the paper's proposed techniques on; with everything off the system
/// degenerates to the "basic algorithm" baseline of Section 7.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Optimizations {
    /// Sparsity-aware histogram construction (Section 5.1, Algorithm 2).
    /// Off: dense enumeration of every feature of every instance.
    pub sparse_hist: bool,
    /// Parallel batch histogram construction (Section 5.2). Off: one thread
    /// builds each node's histogram sequentially.
    pub parallel_batch: bool,
    /// The node-to-instance index (Section 5.2). Off: the instances of each
    /// tree node are recomputed by routing the whole shard through the
    /// partially built tree.
    pub node_index: bool,
    /// The round-robin task scheduler (Section 6.2). Off: a single agent
    /// worker finds the split of every active node.
    pub task_scheduler: bool,
    /// Two-phase (server-side + worker-side) split finding (Section 6.3).
    /// Off: workers pull entire merged histogram rows.
    pub two_phase_split: bool,
    /// Low-precision gradient histograms (Section 6.1). Off: full `f32`
    /// rows are pushed to the parameter server.
    pub low_precision: bool,
    /// **Extension (not in the paper):** pre-binned histogram
    /// construction. Each nonzero's bucket is resolved once after
    /// PULL_SKETCH and reused across every layer (and, with σ = 1, every
    /// tree), removing the per-build binary searches. Costs ~12 bytes per
    /// nonzero of worker memory.
    pub pre_binning: bool,
    /// **Extension (not in the paper):** sibling histogram subtraction.
    /// Below the root, only the smaller child of each split is built and
    /// pushed; the other child's merged histogram is derived on the servers
    /// as `parent − child`, halving construction and push cost per layer.
    /// LightGBM ships this trick; DimBoost's paper does not, so it defaults
    /// to off and is excluded from [`Optimizations::ALL`].
    pub hist_subtraction: bool,
    /// **Extension (not in the paper):** layer-fused histogram
    /// construction (see `crate::fused`): one statically-striped pass over
    /// the binned shard builds every build node of the layer at once,
    /// instead of one pass (and one thread-team dispatch) per node.
    /// Implies the pre-binned representation (the binned shard is built
    /// whenever this flag is on). Excluded from [`Optimizations::ALL`] so
    /// paper-faithful ablation configs keep it off.
    pub fused_layer: bool,
    /// **Extension (not in the paper):** density-adaptive sparse histogram
    /// exchange (after Vasiloudis et al.'s block-distributed GBT). Each
    /// worker pushes per-(stripe, feature-block) deltas under the smallest
    /// of three wire layouts (dense / bitmap / runs; the low-precision path
    /// packs codes, scales, and zero values the same way), and the PS adds
    /// each decoded block on arrival, as it does a dense row — bit-identical
    /// to the dense exchange while `hist_bytes_wire` tracks the true frame
    /// sizes. Excluded from [`Optimizations::ALL`] so paper-faithful
    /// ablation configs keep the paper's dense exchange.
    pub sparse_wire: bool,
    /// **Extension (not in the paper):** quantized integer histogram
    /// accumulation (see `crate::hist_build` / DESIGN.md §15). Gradients
    /// are fixed-point-quantized once per tree
    /// (`GbdtConfig::quant_hist_bits`, deterministic rounding, scale
    /// derived like the §6.1 wire quantizer's) and histogram cells
    /// accumulate packed integer code pairs — associative, so histogram
    /// and model bytes are bit-identical across **any** `(threads,
    /// batch_size)`, and the hot loop does half the read-modify-writes of
    /// the f32 builders. Implies the pre-binned representation; composes
    /// with `fused_layer` (cache-tiled layer kernel), `hist_subtraction`,
    /// and `sparse_wire`/`low_precision` (rows dequantize once before the
    /// PS push). Excluded from [`Optimizations::ALL`]: the paper's
    /// accumulator is f32, which stays as the ablation baseline.
    pub quantized_hist: bool,
}

impl Optimizations {
    /// Every optimization the paper proposes — the full DimBoost system.
    /// (Extensions beyond the paper, like `hist_subtraction`, stay off.)
    pub const ALL: Optimizations = Optimizations {
        sparse_hist: true,
        parallel_batch: true,
        node_index: true,
        task_scheduler: true,
        two_phase_split: true,
        low_precision: true,
        pre_binning: false,
        hist_subtraction: false,
        fused_layer: false,
        sparse_wire: false,
        quantized_hist: false,
    };

    /// Everything off — the basic algorithm.
    pub const NONE: Optimizations = Optimizations {
        sparse_hist: false,
        parallel_batch: false,
        node_index: false,
        task_scheduler: false,
        two_phase_split: false,
        low_precision: false,
        pre_binning: false,
        hist_subtraction: false,
        fused_layer: false,
        sparse_wire: false,
        quantized_hist: false,
    };
}

impl Default for Optimizations {
    fn default() -> Self {
        Self::ALL
    }
}

/// Training hyper-parameters, mirroring the paper's protocol section
/// (Section 7.1): `T` trees, maximal depth `d`, `K` split candidates,
/// feature sampling ratio `σ`, batch size `b`, compression bits `r`,
/// threads `q`, and learning rate `η`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GbdtConfig {
    /// Number of trees `T`.
    pub num_trees: usize,
    /// Maximum tree depth `d` (number of split levels; leaves sit at depth
    /// `d`, so a tree stores up to `2^(d+1) − 1` nodes and `2^d − 1`
    /// internal-node histograms — the paper's `GradHist` row count).
    pub max_depth: usize,
    /// Number of split candidates per feature `K`.
    pub num_candidates: usize,
    /// Feature sampling ratio `σ` per tree.
    pub feature_sample_ratio: f64,
    /// Instance (row) subsampling ratio per tree — stochastic gradient
    /// boosting. `1.0` (the paper's setting) uses every instance.
    pub instance_sample_ratio: f64,
    /// Shrinkage learning rate `η`.
    pub learning_rate: f32,
    /// L2 regularization on leaf weights (λ).
    pub lambda: f64,
    /// L1 regularization on leaf weights (α, XGBoost's `reg_alpha`);
    /// `0.0` — the paper's objective — by default.
    pub alpha: f64,
    /// Per-leaf complexity penalty (γ).
    pub gamma: f64,
    /// Minimum Hessian sum per child.
    pub min_child_weight: f64,
    /// **Extension (not in the paper):** learn the default direction of
    /// zero (absent) values per split — XGBoost's sparsity-aware split
    /// finding. Off, zeros follow the threshold comparison, as in
    /// Algorithm 1.
    pub learn_default_direction: bool,
    /// Parallel batch size `b` (instances per batch).
    pub batch_size: usize,
    /// Worker thread count `q` for histogram construction.
    pub num_threads: usize,
    /// Compression bit width `r` when low-precision pushes are enabled.
    pub compress_bits: u8,
    /// Rank-error target for the quantile sketches proposing candidates.
    pub sketch_eps: f64,
    /// Loss function.
    pub loss: LossKind,
    /// Master seed for feature sampling and stochastic rounding.
    pub seed: u64,
    /// Optimization toggles (Table 3).
    pub opts: Optimizations,
    /// Record an event-level trace of the run on the simulated clock
    /// (see [`dimboost_simnet::trace`]). Off by default: events cost
    /// memory proportional to rounds × nodes. Metrics percentiles are
    /// collected either way.
    pub collect_trace: bool,
    /// Memory budget in bytes for the fused layer kernel's per-thread
    /// histogram blocks (`build_nodes × row_len × 4 × num_threads`). When
    /// a layer's blocks would exceed it, the trainer falls back to
    /// per-node builds for that layer. Only consulted when
    /// `opts.fused_layer` is on.
    pub fused_block_budget: usize,
    /// Bit width for the quantized histogram accumulator's fixed-point
    /// gradient codes (`opts.quantized_hist`; DESIGN.md §15). In `2..=16`
    /// like `compress_bits`; per shard the trainer may *demote* it so a
    /// 32-bit lane can never overflow (`rows · levels(bits) ≤ i32::MAX` —
    /// see `hist_build::effective_quant_bits`). 12 bits keeps the
    /// quantization step ≤ max|g| / 2047, comfortably below split-decision
    /// noise at trainer scales, while leaving narrow-mode headroom.
    pub quant_hist_bits: u8,
}

/// 256 MiB — far above any realistic layer at the paper's settings
/// (e.g. depth 8, 100k features × 20 buckets ≈ 2^7 × 4 M f32 ≈ 2 GiB
/// would exceed it and fall back, as intended).
fn default_fused_block_budget() -> usize {
    256 << 20
}

impl Default for GbdtConfig {
    fn default() -> Self {
        Self {
            num_trees: 10,
            max_depth: 5,
            num_candidates: 20,
            feature_sample_ratio: 1.0,
            instance_sample_ratio: 1.0,
            learning_rate: 0.1,
            lambda: 1.0,
            alpha: 0.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            learn_default_direction: false,
            batch_size: 10_000,
            num_threads: 4,
            compress_bits: 8,
            sketch_eps: 0.02,
            loss: LossKind::Logistic,
            seed: 42,
            opts: Optimizations::ALL,
            collect_trace: false,
            fused_block_budget: default_fused_block_budget(),
            quant_hist_bits: 12,
        }
    }
}

impl GbdtConfig {
    /// The split-objective parameters used by Algorithm 1's scan.
    pub fn split_params(&self) -> SplitParams {
        SplitParams {
            lambda: self.lambda,
            alpha: self.alpha,
            gamma: self.gamma,
            min_child_weight: self.min_child_weight,
            learn_default_direction: self.learn_default_direction,
        }
    }

    /// Validates configuration invariants, returning a description of the
    /// first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_trees == 0 {
            return Err("num_trees must be positive".into());
        }
        if self.max_depth == 0 || self.max_depth > 20 {
            return Err(format!(
                "max_depth must be in 1..=20, got {}",
                self.max_depth
            ));
        }
        if self.num_candidates == 0 {
            return Err("num_candidates must be positive".into());
        }
        if !(0.0 < self.feature_sample_ratio && self.feature_sample_ratio <= 1.0) {
            return Err(format!(
                "feature_sample_ratio must be in (0, 1], got {}",
                self.feature_sample_ratio
            ));
        }
        if !(0.0 < self.instance_sample_ratio && self.instance_sample_ratio <= 1.0) {
            return Err(format!(
                "instance_sample_ratio must be in (0, 1], got {}",
                self.instance_sample_ratio
            ));
        }
        if self.learning_rate <= 0.0 {
            return Err("learning_rate must be positive".into());
        }
        if !(2..=16).contains(&self.compress_bits) {
            return Err(format!(
                "compress_bits must be in 2..=16, got {}",
                self.compress_bits
            ));
        }
        if !(2..=16).contains(&self.quant_hist_bits) {
            return Err(format!(
                "quant_hist_bits must be in 2..=16, got {}",
                self.quant_hist_bits
            ));
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if self.num_threads == 0 {
            return Err("num_threads must be positive".into());
        }
        if !(self.sketch_eps > 0.0 && self.sketch_eps < 0.5) {
            return Err(format!(
                "sketch_eps must be in (0, 0.5), got {}",
                self.sketch_eps
            ));
        }
        if let LossKind::Softmax { classes } = self.loss {
            if classes < 2 {
                return Err(format!("softmax needs at least 2 classes, got {classes}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert_eq!(GbdtConfig::default().validate(), Ok(()));
    }

    #[test]
    fn validation_catches_bad_values() {
        let bad = [
            GbdtConfig {
                num_trees: 0,
                ..GbdtConfig::default()
            },
            GbdtConfig {
                max_depth: 0,
                ..GbdtConfig::default()
            },
            GbdtConfig {
                feature_sample_ratio: 1.5,
                ..GbdtConfig::default()
            },
            GbdtConfig {
                instance_sample_ratio: 0.0,
                ..GbdtConfig::default()
            },
            GbdtConfig {
                compress_bits: 1,
                ..GbdtConfig::default()
            },
            GbdtConfig {
                quant_hist_bits: 17,
                ..GbdtConfig::default()
            },
            GbdtConfig {
                sketch_eps: 0.9,
                ..GbdtConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "config should be invalid: {c:?}");
        }
    }

    #[test]
    fn split_params_mirror_config() {
        let c = GbdtConfig {
            lambda: 2.0,
            gamma: 0.5,
            min_child_weight: 3.0,
            ..GbdtConfig::default()
        };
        let p = c.split_params();
        assert_eq!(p.lambda, 2.0);
        assert_eq!(p.gamma, 0.5);
        assert_eq!(p.min_child_weight, 3.0);
    }

    #[test]
    fn optimization_presets() {
        let all = Optimizations::ALL;
        let none = Optimizations::NONE;
        assert!(all.sparse_hist && all.low_precision && !all.hist_subtraction);
        assert!(!none.sparse_hist && !none.two_phase_split);
        assert_eq!(Optimizations::default(), all);
    }
}
