//! Production-serving simulation for the DimBoost reproduction.
//!
//! The training side of the repo answers "how fast can the cluster learn
//! the model"; this crate answers the natural follow-up — "what happens
//! when the *trained* model meets traffic". It drives the compiled scoring
//! engine (`dimboost-predict`) under an **open-loop** request-arrival
//! process on the simulated clock, with the queueing policies a production
//! scorer actually needs:
//!
//! * **Seeded arrivals** ([`arrival`]): exponential inter-arrival gaps
//!   drawn through the same SplitMix64-style decision hashing the fault
//!   layer uses — pure in `(seed, request index)`, so the whole traffic
//!   trace is a function of the seed, never of execution order.
//! * **Bounded queues + load shedding** ([`sim`]): each tenant owns a
//!   FIFO queue of fixed capacity; an arrival that finds its queue full is
//!   shed at admission and counted, never silently dropped.
//! * **Adaptive batching under a latency SLO**: a free server dispatches a
//!   tenant's batch when it fills *or* when the oldest queued request's
//!   slack (SLO minus predicted service time) expires, whichever is first.
//! * **Multi-model tenancy with zero-downtime hot-swap**: scripted model
//!   swaps apply atomically between batches; an in-flight batch finishes
//!   on the model it was dispatched with, and every served request records
//!   the model epoch that scored it.
//!
//! The data path is real — every request is scored through
//! [`dimboost_predict::CompiledModel`] on an actual dataset row; only
//! *time* is simulated. Latency, wait, batch-size, and queue-depth
//! distributions flow through [`dimboost_simnet::MetricsRegistry`]
//! histograms into a `{"kind":"serving_sim"}` report ([`report`]) whose
//! canonical form is byte-identical across reruns and gated by
//! `report_diff` in ci.sh.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod analyze;
pub mod arrival;
pub mod report;
pub mod sim;

pub use analyze::{analyze_serve_trace, is_serve_trace, ServeAnalyzeError, ServeProfile};
pub use arrival::{poisson_arrivals, Arrival};
pub use report::{ServeSimReport, TenantReport};
pub use sim::{run_serve_sim, ModelSwap, ServeSimConfig, ServeSimResult, ServedRecord, TenantSpec};
