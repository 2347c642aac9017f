//! Host-wall train/serve benchmark for the DimBoost reproduction.
//!
//! Everything here measures the repository's crates from outside, through
//! their public functions; nothing inside `crates/` knows this package
//! exists. See `README.md` for the workloads, the metric tables, and how
//! to read the output files.
//!
//! * [`workload`] — the four fixed presets and the configs derived from them.
//! * [`setup`] — seed → synthetic data → LibSVM round trip → split → shards.
//! * [`train`] / [`serve`] — the end-to-end measurements (spans off).
//! * [`replay`] — the scripted round-0 replay that attributes one boosting
//!   round to layers, span by span.
//! * [`probes`] — isolated measurements on worker 0's root histogram row.
//! * [`run`] — one process = one workload in one mode (the end-to-end run
//!   lives there, the traced run in [`layers`]); [`suite`] spawns one
//!   process per workload and prints/compares the results.

pub mod json;
pub mod layers;
pub mod measure;
pub mod probes;
pub mod replay;
pub mod run;
pub mod serve;
pub mod setup;
pub mod spans;
pub mod suite;
pub mod train;
pub mod workload;
