//! # DimBoost
//!
//! A from-scratch Rust reproduction of *DimBoost: Boosting Gradient Boosting
//! Decision Tree to Higher Dimensions* (SIGMOD 2018).
//!
//! This facade crate re-exports the workspace crates under one roof so that
//! examples and downstream users can depend on a single `dimboost` package:
//!
//! * [`data`] — datasets, synthetic generators, LibSVM IO, partitioning.
//! * [`sketch`] — Greenwald–Khanna mergeable quantile sketches.
//! * [`simnet`] — the simulated cluster: network cost model + collectives.
//! * [`ps`] — the parameter server (range-hash sharding, push/pull UDFs).
//! * [`core`] — the GBDT algorithm and the DimBoost distributed trainer.
//! * [`predict`] — compiled, deterministic batch inference engine.
//! * [`serving`] — open-loop traffic simulation: arrivals, SLO batching,
//!   load shedding, and hot-swap on the simnet clock.
//! * [`baselines`] — MLlib/XGBoost/LightGBM/TencentBoost-style trainers.
//! * [`linalg`] — sparse PCA (dimension-reduction experiment).
//!
//! ## Quickstart
//!
//! ```
//! use dimboost::data::synthetic::{generate, SparseGenConfig};
//! use dimboost::data::partition::train_test_split;
//! use dimboost::core::{train_single_machine, GbdtConfig};
//!
//! let dataset = generate(&SparseGenConfig::new(2_000, 500, 20, 42));
//! let (train, test) = train_test_split(&dataset, 0.1, 42).unwrap();
//! let mut config = GbdtConfig::default();
//! config.num_trees = 5;
//! config.max_depth = 4;
//! let model = train_single_machine(&train, &config).unwrap();
//! let error = dimboost::core::metrics::classification_error(
//!     &model.predict_dataset(&test), test.labels());
//! assert!(error < 0.5);
//! ```

pub use dimboost_baselines as baselines;
pub use dimboost_core as core;
pub use dimboost_data as data;
pub use dimboost_linalg as linalg;
pub use dimboost_predict as predict;
pub use dimboost_ps as ps;
pub use dimboost_serving as serving;
pub use dimboost_simnet as simnet;
pub use dimboost_sketch as sketch;
