//! The event-driven serving simulation.
//!
//! A single scoring server (the compiled engine is itself batched and
//! deterministic, so one logical server models a serving replica) consumes
//! per-tenant FIFO queues on the simulated clock. Four event kinds drive
//! the loop — request arrival, batch completion, dispatch-deadline expiry,
//! and scripted model swap — and ties are broken in a fixed order
//! (completion, then arrival; swaps apply before any dispatch decision at
//! the same instant), so the whole execution is a pure function of
//! `(tenants, swaps, data, arrivals, config)`.
//!
//! **Batching policy.** A free server dispatches the tenant whose oldest
//! queued request has waited longest, as soon as that tenant's batch is
//! full (`max_batch` requests) *or* the head request's slack has expired.
//! The slack deadline is `arrival + max(0, slo − predicted_service)` where
//! `predicted_service = service_fixed + service_per_row · batch_rows` for
//! the batch that would dispatch now — growing queues pull the deadline
//! earlier, which is what makes the batching adaptive.
//!
//! **Shed policy.** Admission control happens at arrival: a request whose
//! tenant queue already holds `queue_capacity` entries is shed and counted
//! (globally and per tenant). Everything admitted is eventually served
//! unless the horizon cuts the simulation first, giving the conservation
//! identity `arrived == served + shed + in_flight_at_end`, which
//! [`run_serve_sim`] asserts.
//!
//! **Swap protocol.** A [`ModelSwap`] replaces a tenant's model at a
//! scripted simulated time and bumps the tenant's *epoch*. Swaps apply
//! between batches only: a batch in flight keeps the model it was
//! dispatched with (scores are computed at dispatch — physically, scoring
//! happens during the service interval), and every [`ServedRecord`] carries
//! the epoch that scored it, so tests can pin pre/post-swap scores
//! bit-exactly against each model standalone.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Instant;

use dimboost_data::Dataset;
use dimboost_predict::{CompiledModel, ScoreScratch};
use dimboost_simnet::{Metric, MetricsRegistry};

use crate::arrival::Arrival;
use crate::report::{fnv1a64_extend, ServeSimReport, TenantReport, FNV_OFFSET};

/// One served model: a stable name (used as the report's array identity
/// key) plus the compiled model that scores its requests.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name, e.g. `tenant0`. Must be unique across tenants.
    pub name: String,
    /// The model serving this tenant (epoch 0).
    pub model: CompiledModel,
}

/// A scripted zero-downtime model swap.
#[derive(Debug, Clone)]
pub struct ModelSwap {
    /// Simulated time at which the swap applies.
    pub at_secs: f64,
    /// Tenant whose model is replaced.
    pub tenant: usize,
    /// Human-readable label for the trace line.
    pub label: String,
    /// The replacement model (the tenant's epoch increments by one).
    pub model: CompiledModel,
}

/// Simulation knobs. All times are simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSimConfig {
    /// Seed echoed into the report (the arrival schedule is built from it).
    pub seed: u64,
    /// Per-tenant queue capacity; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Maximum requests per dispatched batch.
    pub max_batch: usize,
    /// Latency SLO: the batcher aims to complete every request within this
    /// budget, and completions beyond it count as SLO violations.
    pub slo_secs: f64,
    /// Fixed service cost per dispatched batch.
    pub service_fixed_secs: f64,
    /// Incremental service cost per batched request.
    pub service_per_row_secs: f64,
    /// Stop processing events after this simulated time; queued and
    /// in-flight requests are reported as `in_flight_at_end`. `None` drains
    /// every admitted request.
    pub horizon_secs: Option<f64>,
}

impl Default for ServeSimConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            queue_capacity: 256,
            max_batch: 16,
            slo_secs: 0.05,
            service_fixed_secs: 1e-4,
            service_per_row_secs: 1e-5,
            horizon_secs: None,
        }
    }
}

/// One served request, in completion order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServedRecord {
    /// Index of the request in the arrival schedule.
    pub request: u64,
    /// Tenant that served it.
    pub tenant: usize,
    /// Dataset row it scored.
    pub row: usize,
    /// Arrival time.
    pub arrival_secs: f64,
    /// Batch dispatch time.
    pub dispatch_secs: f64,
    /// Batch completion time (`latency = complete − arrival`).
    pub complete_secs: f64,
    /// Model epoch that scored the request (0 before any swap).
    pub epoch: usize,
    /// The transformed prediction, bit-exact to the model standalone.
    pub score: f32,
}

/// Everything a simulation run produces.
#[derive(Debug, Clone)]
pub struct ServeSimResult {
    /// The aggregated report (canonical JSON is rerun-stable).
    pub report: ServeSimReport,
    /// Per-request records in completion order.
    pub records: Vec<ServedRecord>,
    /// Deterministic plain-text event trace, one event per line.
    pub trace: String,
}

struct Pending {
    request: u64,
    arrival: f64,
    row: usize,
}

struct TenantState<'a> {
    model: &'a CompiledModel,
    epoch: usize,
    queue: VecDeque<Pending>,
    arrived: u64,
    served: u64,
    shed: u64,
    swaps: u64,
    checksum: u64,
}

struct InFlight {
    tenant: usize,
    epoch: usize,
    dispatched_at: f64,
    done_at: f64,
    scored: Vec<(Pending, f32)>,
}

/// Predicted service time for an `n`-request batch.
fn service_secs(cfg: &ServeSimConfig, n: usize) -> f64 {
    cfg.service_fixed_secs + cfg.service_per_row_secs * n as f64
}

/// The time at which `t`'s head request runs out of slack: if the batch
/// that would dispatch *now* were dispatched then, it would just meet the
/// SLO (or is already past hope, in which case the deadline is the arrival
/// itself — dispatch as soon as possible).
fn slack_deadline(t: &TenantState<'_>, cfg: &ServeSimConfig) -> f64 {
    let head = t.queue.front().expect("deadline of an empty queue");
    let predicted = service_secs(cfg, t.queue.len().min(cfg.max_batch));
    head.arrival + (cfg.slo_secs - predicted).max(0.0)
}

/// Among tenants that are dispatchable at `now` (batch full, or head slack
/// expired), the one whose head request has waited longest; ties keep the
/// lowest tenant index. `None` when nothing is ready.
fn pick_dispatchable(ts: &[TenantState<'_>], now: f64, cfg: &ServeSimConfig) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (i, t) in ts.iter().enumerate() {
        if t.queue.is_empty() {
            continue;
        }
        if t.queue.len() >= cfg.max_batch || slack_deadline(t, cfg) <= now {
            let head = t.queue.front().expect("nonempty").arrival;
            if best.is_none_or(|(h, _)| head < h) {
                best = Some((head, i));
            }
        }
    }
    best.map(|(_, i)| i)
}

/// Runs the serving simulation to completion (or to the horizon).
///
/// Bit-deterministic: equal inputs produce byte-identical
/// [`ServeSimResult::trace`] strings and canonical reports. The
/// conservation identity `arrived == served + shed + in_flight_at_end` is
/// asserted before returning.
///
/// # Panics
/// On structurally invalid input: no tenants, zero capacities, a
/// non-positive SLO, negative service costs, or arrivals/swaps referencing
/// out-of-range tenants or rows.
pub fn run_serve_sim(
    tenants: &[TenantSpec],
    swaps: &[ModelSwap],
    data: &Dataset,
    arrivals: &[Arrival],
    config: &ServeSimConfig,
) -> ServeSimResult {
    assert!(!tenants.is_empty(), "need at least one tenant");
    assert!(config.queue_capacity > 0, "queue_capacity must be positive");
    assert!(config.max_batch > 0, "max_batch must be positive");
    assert!(config.slo_secs > 0.0, "slo_secs must be positive");
    assert!(
        config.service_fixed_secs >= 0.0 && config.service_per_row_secs >= 0.0,
        "service costs must not be negative"
    );
    for a in arrivals {
        assert!(a.tenant < tenants.len(), "arrival targets unknown tenant");
        assert!(a.row < data.num_rows(), "arrival row out of range");
    }
    for s in swaps {
        assert!(s.tenant < tenants.len(), "swap targets unknown tenant");
    }

    let wall_start = Instant::now();
    let mut registry = MetricsRegistry::new();
    let mut records: Vec<ServedRecord> = Vec::new();

    // Self-describing header so offline analysis (`dimboost analyze`)
    // needs nothing but the trace file. f64s print with
    // shortest-round-trip `Display`, so parsing them back is bit-exact.
    let mut trace = crate::analyze::trace_header(tenants.len(), config);

    // Stable sort: same-instant swaps apply in script order.
    let mut swap_order: Vec<&ModelSwap> = swaps.iter().collect();
    swap_order.sort_by(|a, b| a.at_secs.total_cmp(&b.at_secs));

    let mut ts: Vec<TenantState<'_>> = tenants
        .iter()
        .map(|spec| TenantState {
            model: &spec.model,
            epoch: 0,
            queue: VecDeque::new(),
            arrived: 0,
            served: 0,
            shed: 0,
            swaps: 0,
            checksum: FNV_OFFSET,
        })
        .collect();

    let horizon = config.horizon_secs.unwrap_or(f64::INFINITY);
    let mut now = 0.0f64;
    let mut ai = 0usize; // next arrival
    let mut si = 0usize; // next swap
    let mut in_flight: Option<InFlight> = None;
    // One scoring scratch and score buffer for the whole run.
    let mut scratch = ScoreScratch::new();
    let mut batch_scores = vec![0.0f32; config.max_batch];
    let mut total_queued = 0usize;
    let (mut arrived, mut admitted, mut served, mut shed) = (0u64, 0u64, 0u64, 0u64);
    let (mut batches, mut swap_count, mut slo_violations) = (0u64, 0u64, 0u64);

    loop {
        // Scripted swaps due now apply before any dispatch decision at this
        // instant — the swap is atomic between batches.
        while si < swap_order.len() && swap_order[si].at_secs <= now {
            let sw = swap_order[si];
            let t = &mut ts[sw.tenant];
            t.model = &sw.model;
            t.epoch += 1;
            t.swaps += 1;
            swap_count += 1;
            let _ = writeln!(
                trace,
                "swap t={now} tenant={} epoch={} label={}",
                sw.tenant, t.epoch, sw.label
            );
            si += 1;
        }

        // A free server dispatches the most overdue ready tenant.
        if in_flight.is_none() {
            if let Some(idx) = pick_dispatchable(&ts, now, config) {
                let t = &mut ts[idx];
                let n = t.queue.len().min(config.max_batch);
                let model = t.model;
                let epoch = t.epoch;
                let mut scored = Vec::with_capacity(n);
                for _ in 0..n {
                    let p = t.queue.pop_front().expect("picked tenant has a queue");
                    registry.observe("sim/serve/wait_secs", now - p.arrival);
                    scored.push((p, 0.0));
                }
                // The data path is real: score the batch's rows with the
                // tenant's current model, at dispatch time.
                let scores = &mut batch_scores[..n];
                model.predict_rows(
                    scored.iter().map(|(p, _)| data.row(p.row)),
                    &mut scratch,
                    scores,
                );
                for ((_, s), &v) in scored.iter_mut().zip(scores.iter()) {
                    *s = v;
                }
                total_queued -= n;
                batches += 1;
                registry.observe("sim/serve/batch_rows", n as f64);
                let _ = writeln!(
                    trace,
                    "dispatch t={now} tenant={idx} rows={n} epoch={epoch}"
                );
                in_flight = Some(InFlight {
                    tenant: idx,
                    epoch,
                    dispatched_at: now,
                    done_at: now + service_secs(config, n),
                    scored,
                });
                continue;
            }
        }

        // Advance to the next event.
        let t_arr = arrivals.get(ai).map_or(f64::INFINITY, |a| a.at_secs);
        let t_done = in_flight.as_ref().map_or(f64::INFINITY, |b| b.done_at);
        let t_swap = swap_order.get(si).map_or(f64::INFINITY, |s| s.at_secs);
        let t_deadline = if in_flight.is_none() {
            ts.iter()
                .filter(|t| !t.queue.is_empty())
                .map(|t| slack_deadline(t, config))
                .fold(f64::INFINITY, f64::min)
        } else {
            f64::INFINITY
        };
        let next = t_arr.min(t_done).min(t_swap).min(t_deadline);
        if !next.is_finite() || next > horizon {
            break;
        }
        now = next.max(now);

        // Fixed tie order at equal instants: completion frees the server
        // first, then the arrival is admitted; swap/deadline instants need
        // no action here (the loop head handles them).
        if t_done <= now {
            let b = in_flight.take().expect("completion without a batch");
            let rows = b.scored.len();
            let t = &mut ts[b.tenant];
            for (p, score) in b.scored {
                let latency = b.done_at - p.arrival;
                registry.observe("sim/serve/latency_secs", latency);
                if latency > config.slo_secs {
                    slo_violations += 1;
                }
                t.served += 1;
                served += 1;
                t.checksum = fnv1a64_extend(t.checksum, score);
                records.push(ServedRecord {
                    request: p.request,
                    tenant: b.tenant,
                    row: p.row,
                    arrival_secs: p.arrival,
                    dispatch_secs: b.dispatched_at,
                    complete_secs: b.done_at,
                    epoch: b.epoch,
                    score,
                });
            }
            let _ = writeln!(
                trace,
                "complete t={now} tenant={} rows={rows} epoch={}",
                b.tenant, b.epoch
            );
            continue;
        }
        if t_arr <= now {
            let a = arrivals[ai];
            let request = ai as u64;
            ai += 1;
            arrived += 1;
            let t = &mut ts[a.tenant];
            t.arrived += 1;
            if t.queue.len() >= config.queue_capacity {
                // Admission control: shed at arrival, count, move on.
                t.shed += 1;
                shed += 1;
                let _ = writeln!(
                    trace,
                    "shed t={now} req={request} tenant={} depth={total_queued}",
                    a.tenant
                );
            } else {
                t.queue.push_back(Pending {
                    request,
                    arrival: a.at_secs,
                    row: a.row,
                });
                total_queued += 1;
                admitted += 1;
                registry.observe("sim/serve/queue_depth", total_queued as f64);
                let _ = writeln!(
                    trace,
                    "arrive t={now} req={request} tenant={} row={} depth={total_queued}",
                    a.tenant, a.row
                );
            }
            continue;
        }
    }

    let in_flight_at_end =
        total_queued as u64 + in_flight.as_ref().map_or(0, |b| b.scored.len() as u64);
    assert_eq!(
        arrived,
        served + shed + in_flight_at_end,
        "request conservation broken: {arrived} arrived vs {served} served + {shed} shed + {in_flight_at_end} in flight"
    );

    registry.counter_add("sim/serve/arrived", arrived);
    registry.counter_add("sim/serve/admitted", admitted);
    registry.counter_add("sim/serve/served", served);
    registry.counter_add("sim/serve/shed", shed);
    registry.counter_add("sim/serve/batches", batches);
    registry.counter_add("sim/serve/swaps", swap_count);
    registry.counter_add("sim/serve/slo_violations", slo_violations);
    registry.gauge_set("sim/serve/clock_secs", now);
    let wall_secs = wall_start.elapsed().as_secs_f64();
    registry.observe("wall/serve/run_secs", wall_secs);

    // Tail percentiles straight from the latency histogram — the registry
    // export carries p50/p95/p99; serving wants p999 and the exact max too.
    let (p50, p99, p999, lmax) = match registry.get("sim/serve/latency_secs") {
        Some(Metric::Histogram(h)) => (
            h.quantile(0.50),
            h.quantile(0.99),
            h.quantile(0.999),
            h.max(),
        ),
        _ => (0.0, 0.0, 0.0, 0.0),
    };

    let tenant_reports: Vec<TenantReport> = tenants
        .iter()
        .zip(&ts)
        .map(|(spec, t)| TenantReport {
            name: spec.name.clone(),
            arrived: t.arrived,
            served: t.served,
            shed: t.shed,
            swaps: t.swaps,
            final_epoch: t.epoch as u64,
            score_checksum: t.checksum,
        })
        .collect();

    let saturation_rps = if service_secs(config, config.max_batch) > 0.0 {
        config.max_batch as f64 / service_secs(config, config.max_batch)
    } else {
        0.0
    };
    let report = ServeSimReport {
        seed: config.seed,
        requests_planned: arrivals.len() as u64,
        arrived,
        admitted,
        served,
        shed,
        in_flight_at_end,
        batches,
        swaps: swap_count,
        slo_violations,
        queue_capacity: config.queue_capacity,
        max_batch: config.max_batch,
        slo_secs: config.slo_secs,
        service_fixed_secs: config.service_fixed_secs,
        service_per_row_secs: config.service_per_row_secs,
        sim_clock_secs: now,
        throughput_rps: if now > 0.0 { served as f64 / now } else { 0.0 },
        saturation_rps,
        latency_p50_secs: p50,
        latency_p99_secs: p99,
        latency_p999_secs: p999,
        latency_max_secs: lmax,
        wall_secs,
        tenants: tenant_reports,
        percentiles: registry.export(),
    };
    ServeSimResult {
        report,
        records,
        trace,
    }
}
