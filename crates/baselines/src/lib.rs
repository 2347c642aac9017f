//! Baseline distributed GBDT trainers (Section 2.3 of the paper).
//!
//! The paper compares DimBoost against four systems on two axes: **model
//! aggregation strategy** and **dense vs sparsity-aware histogram
//! construction**. Those two are all this crate implements. Everything else
//! is the code the DimBoost trainer itself runs, in `dimboost-core`:
//! `sketch_columns` + `worker_eps` (candidate proposal, off each row
//! partition's column view), `FeatureMeta::decide` (the split rule over a
//! merged row), `Tree::apply_decision` + `NodeIndex::split_column`
//! (SPLIT_TREE) and `NodeIndex::update_scores` (the prediction update). One
//! ensemble loop (`driver::train`) drives them and
//! is handed a `Strategy` — data-parallel over one of three collectives, or
//! feature-parallel — that turns a layer's active nodes into split
//! decisions and says what that cost:
//!
//! * [`BaselineKind::Mllib`] — MapReduce-style all-to-one reduce: the
//!   statistics of each tree node are collected on one designated worker
//!   (`reduceByKey`), which chooses the split.
//! * [`BaselineKind::Xgboost`] — binomial-tree AllReduce: local histograms
//!   are merged bottom-up over `log w` non-overlapping steps; every worker
//!   ends with the global histogram.
//! * [`BaselineKind::Lightgbm`] — recursive-halving ReduceScatter: each
//!   worker ends up owning `1/w` of the merged histogram and finds splits
//!   for its own features; non-power-of-two worker counts pay double.
//! * [`train_tencentboost`] — TencentBoost: the parameter-server
//!   architecture *without* DimBoost's optimizations (no sparsity-aware
//!   construction, no low precision, no two-phase split, no scheduler) —
//!   which is precisely `dimboost_core::train_distributed` with
//!   [`dimboost_core::Optimizations::NONE`].
//!
//! * [`train_lightgbm_feature_parallel`] — LightGBM's column-partitioned
//!   mode: no histogram crosses the network, every worker holds every row.
//!
//! The data-parallel baselines build histograms with the traditional dense
//! enumeration (the paper observes existing systems "implicitly assume that
//! the dataset is dense during histogram construction") and without
//! DimBoost's parallel-batch scheme.

mod driver;
mod feature_parallel;

pub use driver::{train_baseline, train_tencentboost, BaselineKind, BaselineOutput};
pub use feature_parallel::train_lightgbm_feature_parallel;
