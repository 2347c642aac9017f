//! Mergeable quantile sketches for split-candidate proposal.
//!
//! The paper builds per-feature quantile sketches on each worker
//! (CREATE_SKETCH), merges them on the parameter server, and derives K split
//! candidates per feature from the merged summary (PULL_SKETCH). The paper's
//! prototype uses Yahoo DataSketches; the Greenwald–Khanna (GK) summary
//! implemented here is one of the alternatives the paper itself cites
//! (Section 2.2, \[18\]) and provides the same mergeable ε-approximate
//! quantile guarantees.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod candidates;
mod gk;

pub use candidates::{bucket_in, propose_candidates, SplitCandidates};
pub use gk::{GkScratch, GkSketch};
