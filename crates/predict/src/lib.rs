//! Compiled, deterministic inference for trained DimBoost models.
//!
//! Training evaluates trees through [`dimboost_core::Tree`], a pointer-free
//! but enum-tagged implicit heap array: every step matches on a `Node` enum
//! and touches a `2^(depth+1)−1`-slot array even when the tree is mostly
//! `Unused`. That is fine inside the trainer's eval loop, but the ROADMAP's
//! north star serves "heavy traffic from millions of users" — a serving
//! path wants a flat, cache-friendly layout and a batch engine whose
//! throughput runs are reproducible.
//!
//! This crate provides that path in two layers:
//!
//! * [`compiled::CompiledModel`] — a trained [`GbdtModel`] compiled into one
//!   packed array of 16-byte nodes (slot, threshold or leaf weight, child,
//!   default direction) per tree in BFS order, reachable nodes only, plus a
//!   feature→slot map over the features the trees test (built only when it
//!   costs no more than the nodes). Rows are scored in blocks of eight:
//!   scattered into short per-row slot vectors and walked branch-free, or —
//!   when rows are dense next to the ensemble's depth, or the model has no
//!   slot map — binary-searched per node. Scores are **bit-equal** to the interpreted
//!   `Tree` path on every loss (binary, regression, multiclass) and either
//!   walk; an equivalence test pins this.
//! * [`engine`] — batch scoring over sparse rows (one [`ScoreScratch`] per
//!   stripe) with the same **static round-robin striping** rule the batched
//!   histogram builders use: thread `t` owns batches `t, t+threads, …` and
//!   results are merged in batch-index order, so output bytes are
//!   bit-identical across reruns and across any `(threads, batch_size)`.
//!
//! Scoring speed is measured by the `serve` workload of the repository's
//! `benchmark/` package; `dimboost predict` is the command-line front end.
//!
//! [`GbdtModel`]: dimboost_core::GbdtModel

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod compiled;
pub mod engine;

pub use compiled::{CompiledModel, ScoreScratch};
pub use engine::{score_raw, score_transformed, EngineConfig};
