//! Simulated cluster substrate for the DimBoost reproduction.
//!
//! The paper's evaluation runs on physical clusters (5 and 50 machines on
//! 1 Gb Ethernet). This crate substitutes an in-process simulation with two
//! halves:
//!
//! * **A real data path.** The collective operators in [`collectives`]
//!   execute the actual step-structured algorithms of the systems the paper
//!   analyses (Section 3, Figure 3): all-to-one reduce (MLlib), binomial-tree
//!   AllReduce (XGBoost), recursive-halving ReduceScatter (LightGBM), and the
//!   parameter-server batch exchange (DimBoost). Every operator merges real
//!   `f32` buffers and is tested to produce identical sums.
//!
//! * **A simulated clock.** Communication time is charged by the α/β/γ cost
//!   model of Section 3 ([`CostModel`]): α latency per package, β transfer
//!   time per byte, γ merge time per byte. The per-operator formulas are
//!   exactly those of Table 1, so the paper's communication analysis is
//!   reproduced by construction while the data path keeps the simulation
//!   honest.
//!
//! [`CommStats`] accumulates bytes, packages, and simulated seconds so the
//! trainer can decompose run time into computation and communication
//! (Figure 13).
//!
//! On top of the aggregates, [`trace`] records an event-level timeline on
//! the simulated clock (exportable as Chrome-trace-event JSON) and
//! [`registry`] collects counters/gauges/histograms with deterministic
//! percentile exports.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod analyze;
pub mod collectives;
mod cost;
pub mod emit;
pub mod fault;
pub mod kv;
pub mod registry;
mod stats;
pub mod trace;
pub mod wire;

pub use analyze::{analyze_trace, AnalyzeError, TraceProfile};
pub use cost::{CostModel, SimTime};
pub use fault::{FaultPlan, FaultSession, FaultSummary, MembershipSummary};
pub use registry::{FixedHistogram, Metric, MetricExport, MetricsRegistry};
pub use stats::{CommLedger, CommStats, Phase, StatsRecorder};
pub use trace::{Lane, Trace, TraceBus, TraceEvent};
