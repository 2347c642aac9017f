//! The DimBoost parameter server (Sections 4 and 6 of the paper).
//!
//! The PS stores the global model state as partitioned vectors (Figure 6):
//! quantile sketches (`QtSk`), sampled features (`SmpFeat`), the gradient
//! histograms of the active tree nodes (`GradHist`, `2^d − 1` rows of
//! `2·K·M·σ` values), and the per-node split results (`SpFeat`, `SpVal`,
//! `SpGain`). Workers interact with it through *push* (merge an update into
//! a parameter) and *pull* (query a parameter) operations; both are
//! user-definable, and DimBoost's two-phase split finding (Section 6.3) is
//! implemented exactly as the paper describes — by moving Algorithm 1's
//! split scan (lines 10–17) into the pull function so each server returns
//! one candidate split instead of its whole histogram shard.
//!
//! * [`RangeHashPartitioner`] — the hybrid range-hash partitioning of
//!   Section 4.3.
//! * [`HistogramLayout`] — the flat feature-major layout of one `GradHist`
//!   row.
//! * [`quantize`] — the low-precision (d-bit fixed point, stochastically
//!   rounded) histogram representation of Section 6.1 / Appendix A.1.
//! * [`split`] — the server-side split scan (the pull UDF) and the
//!   [`split::NodeSplit`] record it returns.
//! * [`ParameterServer`] — the sharded store itself, safe for concurrent
//!   worker threads.
//!
//! Communication accounting: every push/pull records the bytes and packages
//! it would put on the wire into a [`dimboost_simnet::StatsRecorder`];
//! phase-level simulated *time* is charged by the trainer using the Table 1
//! closed forms (see `dimboost-simnet`), so overlapping worker pushes are
//! not double-counted.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod layout;
mod partition;
pub mod quantize;
mod server;
pub mod sparse;
pub mod split;

pub use layout::HistogramLayout;
pub use partition::RangeHashPartitioner;
pub use server::{ParameterServer, PsConfig};
pub use split::{NodeSplit, SplitParams};
