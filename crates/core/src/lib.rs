//! # dimboost-core
//!
//! The GBDT training system of *DimBoost: Boosting Gradient Boosting
//! Decision Tree to Higher Dimensions* (SIGMOD 2018), implemented from
//! scratch on top of the workspace's parameter-server ([`dimboost_ps`]) and
//! simulated-network ([`dimboost_simnet`]) substrates.
//!
//! The crate is organized around the paper's sections:
//!
//! | Paper | Module |
//! |---|---|
//! | §2.2 losses & gradients | [`loss`] |
//! | §2.2 Algorithm 1 (greedy splitting) | [`dimboost_ps::split`] (server-side UDF) |
//! | §5.1 Algorithm 2 (sparsity-aware histograms) | [`hist_build`] |
//! | §5.2 node-to-instance index | [`node_index`] |
//! | §5.2 parallel batch construction | [`parallel`] |
//! | §6.1 low-precision histograms | [`dimboost_ps::quantize`] |
//! | §6.2 round-robin task scheduler | [`scheduler`] |
//! | §6.3 two-phase split finding | wired up in [`trainer`] |
//! | §4.4 seven-phase worker plan | [`trainer`] |
//!
//! Every optimization is a toggle in [`Optimizations`], which is what the
//! Table 3 ablation benchmark flips one flag at a time.

pub mod binned;
#[cfg_attr(not(test), deny(clippy::unwrap_used))]
pub mod checkpoint;
pub mod config;
#[cfg_attr(not(test), deny(clippy::unwrap_used))]
mod cursor;
pub mod fused;
pub mod hist_build;
pub mod loss;
pub mod meta;
pub mod metrics;
pub mod model;
#[cfg_attr(not(test), deny(clippy::unwrap_used))]
pub mod model_io;
pub mod node_index;
pub mod parallel;
pub mod pool;
pub mod report;
pub mod scheduler;
pub mod trainer;
pub mod tree;

pub use checkpoint::{
    CheckpointError, CheckpointFingerprint, CheckpointOptions, TrainCheckpoint, CHECKPOINT_FILE,
};
pub use config::{GbdtConfig, LossKind, Optimizations};
pub use loss::{loss_for, GradPair, Loss};
pub use meta::FeatureMeta;
pub use model::GbdtModel;
pub use model_io::{load_model, load_model_file, save_model, save_model_file, ModelIoError};
pub use node_index::NodeIndex;
pub use pool::WorkerPool;
pub use report::{NodeInstances, PhaseReport, QuantHistRecord, RoundRecord, RunReport, SpanTimer};
pub use scheduler::RoundRobinScheduler;
pub use trainer::{
    local_sketches, sketch_columns, train_distributed, train_single_machine, train_with_options,
    worker_eps, EvalOptions, LossPoint, RobustOptions, RunBreakdown, TrainError, TrainOptions,
    TrainOutput,
};
pub use tree::{Node, Tree};

// Re-export the PS-side pieces that form part of the public training API.
pub use dimboost_ps::split::{FinalSplit, PullSplitResult, SplitDecision};
pub use dimboost_ps::{NodeSplit, SplitParams};

// Re-export the simnet observability types surfaced by `TrainOutput` and
// `RunReport` so consumers need not depend on the simnet crate directly.
pub use dimboost_simnet::{
    FaultPlan, FaultSession, FaultSummary, MetricExport, Trace, TraceBus, TraceEvent,
};
