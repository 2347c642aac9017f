//! SLO analytics over the serve-sim event trace.
//!
//! [`run_serve_sim`](crate::run_serve_sim) emits a deterministic plain-text
//! trace — one `arrive`/`shed`/`dispatch`/`complete`/`swap` line per event
//! behind a `# serve-sim-trace v1` header carrying the configuration. This
//! module replays that text and decomposes every served request's latency
//! into its three causes:
//!
//! * **queue wait** — time between arrival and dispatch during which the
//!   server was *busy* with earlier batches (capacity problem);
//! * **formation wait** — time between arrival and dispatch during which
//!   the server was *free* but the batcher was still accumulating the
//!   batch or burning slack (policy problem);
//! * **service** — dispatch to completion (cost-model problem).
//!
//! `queue + formation + service == latency` holds per request by
//! construction (the two waits partition `[arrival, dispatch]` against the
//! server-busy intervals). On top of the decomposition the profiler reports
//! per-tenant SLO attainment with exact latency quantiles (sorted, not
//! histogram-bucketed), a fixed-window timeline of arrive/serve/shed/SLO
//! rates, and the same conservation identity the simulator asserts
//! (`arrived == served + shed + in_flight_at_end`) — re-proved from the
//! trace alone, so a corrupted trace fails loudly.
//!
//! Output is a canonical `{"kind":"trace_profile","source":"serve_sim"}`
//! JSON document, byte-identical across reruns of the same configuration,
//! gated by `report_diff` in ci.sh next to the training profile.

use std::collections::VecDeque;

use dimboost_simnet::emit::{quantile, JsonWriter};
use dimboost_simnet::kv::{self, Fields, LineError};

use crate::sim::ServeSimConfig;

/// Fixed window count for the timeline (the last window absorbs the
/// end-of-trace remainder).
const TIMELINE_WINDOWS: usize = 20;

/// Why a serve-sim trace failed analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAnalyzeError {
    /// The text does not start with a `# serve-sim-trace v1` header.
    MissingHeader,
    /// The header is malformed (bad or missing `key=value`).
    Header(String),
    /// A trace line is malformed or structurally impossible (1-based line).
    Line { line: usize, message: String },
    /// The conservation identity does not hold over the replay.
    Conservation(String),
}

impl std::fmt::Display for ServeAnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeAnalyzeError::MissingHeader => {
                write!(
                    f,
                    "not a serve-sim trace: missing `# serve-sim-trace v1` header"
                )
            }
            ServeAnalyzeError::Header(m) => write!(f, "bad serve-sim trace header: {m}"),
            ServeAnalyzeError::Line { line, message } => {
                write!(f, "bad serve-sim trace line {line}: {message}")
            }
            ServeAnalyzeError::Conservation(m) => write!(f, "conservation broken: {m}"),
        }
    }
}

impl std::error::Error for ServeAnalyzeError {}

impl From<LineError> for ServeAnalyzeError {
    fn from(e: LineError) -> Self {
        ServeAnalyzeError::Line {
            line: e.line,
            message: e.message,
        }
    }
}

/// Per-tenant latency decomposition and SLO attainment.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantProfile {
    /// Tenant index (names live in the serving report; the trace only
    /// carries indices).
    pub tenant: usize,
    /// Requests arrived / served / shed.
    pub arrived: u64,
    /// Served requests.
    pub served: u64,
    /// Shed requests.
    pub shed: u64,
    /// Model swaps applied.
    pub swaps: u64,
    /// Total queue wait across served requests.
    pub queue_wait_secs: f64,
    /// Total batch-formation wait across served requests.
    pub formation_wait_secs: f64,
    /// Total service time across served requests.
    pub service_secs: f64,
    /// Served requests whose latency met the SLO.
    pub slo_ok: u64,
    /// Exact latency quantiles over this tenant's served requests.
    pub latency_p50_secs: f64,
    /// 99th percentile.
    pub latency_p99_secs: f64,
    /// Worst latency.
    pub latency_max_secs: f64,
}

/// One fixed-width window of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineWindow {
    /// Window index, `0..TIMELINE_WINDOWS`.
    pub window: usize,
    /// Window start on the simulated clock.
    pub begin_secs: f64,
    /// Window end.
    pub end_secs: f64,
    /// Arrivals (admitted + shed) whose arrival time falls in the window.
    pub arrived: u64,
    /// Requests completed in the window.
    pub served: u64,
    /// Requests shed in the window.
    pub shed: u64,
    /// Of the completions, how many met the SLO.
    pub slo_ok: u64,
}

/// The full profile of one serve-sim trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeProfile {
    /// Tenant count from the header.
    pub tenants: usize,
    /// Seed echoed from the header.
    pub seed: u64,
    /// Queue capacity from the header.
    pub queue_capacity: usize,
    /// Max batch size from the header.
    pub max_batch: usize,
    /// The SLO the batcher aimed for.
    pub slo_secs: f64,
    /// Trace event lines replayed.
    pub events: u64,
    /// Requests arrived / served / shed, and batches dispatched.
    pub arrived: u64,
    /// Served requests.
    pub served: u64,
    /// Shed requests.
    pub shed: u64,
    /// Requests still queued or in flight when the trace ends.
    pub in_flight_at_end: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Model swaps applied.
    pub swaps: u64,
    /// Last event time: the clock when the trace ends.
    pub end_secs: f64,
    /// Total queue wait across served requests.
    pub queue_wait_secs: f64,
    /// Total batch-formation wait across served requests.
    pub formation_wait_secs: f64,
    /// Total service time across served requests.
    pub service_secs: f64,
    /// Served requests whose latency met the SLO.
    pub slo_ok: u64,
    /// `slo_ok / served` (1 when nothing was served).
    pub slo_attainment: f64,
    /// Exact latency quantiles over all served requests.
    pub latency_p50_secs: f64,
    /// 99th percentile.
    pub latency_p99_secs: f64,
    /// Worst latency.
    pub latency_max_secs: f64,
    /// Per-tenant decomposition, by tenant index.
    pub per_tenant: Vec<TenantProfile>,
    /// Fixed-window arrive/serve/shed/SLO timeline.
    pub timeline: Vec<TimelineWindow>,
}

/// Overlap of `[a, b]` with the busy intervals (ascending, disjoint),
/// starting the scan at `*cursor` (monotone across calls in arrival order
/// is not guaranteed, so the cursor only skips intervals ending before the
/// earliest arrival still live — callers pass a fresh cursor per batch).
fn busy_overlap(busy: &[(f64, f64)], a: f64, b: f64) -> f64 {
    // Binary search for the first interval that could intersect [a, b].
    let mut lo = busy.partition_point(|&(_, end)| end <= a);
    let mut acc = 0.0;
    while lo < busy.len() {
        let (s, e) = busy[lo];
        if s >= b {
            break;
        }
        let left = s.max(a);
        let right = e.min(b);
        if right > left {
            acc += right - left;
        }
        lo += 1;
    }
    acc
}

/// Replays a serve-sim trace and profiles it. Pure and deterministic:
/// byte-identical traces produce byte-identical
/// [`ServeProfile::canonical_json`] documents.
///
/// # Errors
/// Typed [`ServeAnalyzeError`]s on a missing/bad header, malformed or
/// structurally impossible lines (a completion without a dispatch, a
/// dispatch of more requests than are queued), and a broken conservation
/// identity.
pub fn analyze_serve_trace(text: &str) -> Result<ServeProfile, ServeAnalyzeError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(ServeAnalyzeError::MissingHeader)?;
    let rest = header
        .strip_prefix("# serve-sim-trace v1 ")
        .ok_or(ServeAnalyzeError::MissingHeader)?;
    // The header also carries the service-cost knobs, which the replay
    // does not need: a subset read, like every event line below.
    let (tenants, seed, queue_capacity, max_batch, slo_secs) = Fields::parse(1, rest)
        .and_then(|mut h| {
            Ok((
                h.get::<usize>("tenants")?,
                h.get("seed")?,
                h.get("queue_cap")?,
                h.get("max_batch")?,
                h.get::<f64>("slo")?,
            ))
        })
        .map_err(|e| ServeAnalyzeError::Header(e.message))?;
    if tenants == 0 {
        return Err(ServeAnalyzeError::Header("tenants must be positive".into()));
    }

    struct Queued {
        arrival: f64,
    }
    struct Flight {
        tenant: usize,
        dispatched_at: f64,
        arrivals: Vec<f64>,
    }
    #[derive(Default)]
    struct TenantAcc {
        arrived: u64,
        served: u64,
        shed: u64,
        swaps: u64,
        queue_wait: f64,
        formation_wait: f64,
        service: f64,
        slo_ok: u64,
        latencies: Vec<f64>,
        queue: VecDeque<Queued>,
    }
    // The profile lists every tenant the header declares, idle ones too, so
    // the count has no bound in the text — ask the allocator instead of
    // assuming it says yes.
    let mut ts: Vec<TenantAcc> = Vec::new();
    ts.try_reserve_exact(tenants).map_err(|_| {
        ServeAnalyzeError::Header(format!("tenants={tenants} is more than memory can hold"))
    })?;
    ts.resize_with(tenants, TenantAcc::default);

    let mut events = 0u64;
    let (mut arrived, mut served, mut shed) = (0u64, 0u64, 0u64);
    let (mut batches, mut swaps) = (0u64, 0u64);
    let mut end_secs = 0.0f64;
    let mut in_flight: Option<Flight> = None;
    // Completed batches' [dispatch, complete] server-busy intervals, in
    // chronological order (single server → disjoint and ascending).
    let mut busy: Vec<(f64, f64)> = Vec::new();
    let mut all_latencies: Vec<f64> = Vec::new();
    // (time, kind, tenant, slo_ok) rolled into the timeline at the end —
    // kind: 0 arrive, 1 serve, 2 shed.
    let mut ticks: Vec<(f64, u8, bool)> = Vec::new();

    for (i, raw) in lines {
        let line = i + 1;
        let err = |message: String| ServeAnalyzeError::Line { line, message };
        let (kind, mut rest) = kv::keyword(raw);
        if kind == "swap" {
            // A swap's `label=` is free text to the end of the line.
            rest = rest
                .split_once(" label=")
                .map_or(rest, |(fields, _)| fields);
        }
        let mut f = Fields::parse(line, rest)?;
        let t: f64 = f.get("t")?;
        if t < end_secs {
            return Err(err(format!("time goes backwards: t={t} after {end_secs}")));
        }
        end_secs = t;
        events += 1;
        let tenant_of = |f: &mut Fields<'_>| -> Result<usize, ServeAnalyzeError> {
            let idx: usize = f.get("tenant")?;
            if idx >= tenants {
                return Err(err(format!(
                    "tenant={idx} out of range (header says {tenants})"
                )));
            }
            Ok(idx)
        };
        match kind {
            "arrive" => {
                let tenant = tenant_of(&mut f)?;
                arrived += 1;
                ts[tenant].arrived += 1;
                ts[tenant].queue.push_back(Queued { arrival: t });
                ticks.push((t, 0, false));
            }
            "shed" => {
                let tenant = tenant_of(&mut f)?;
                arrived += 1;
                shed += 1;
                ts[tenant].arrived += 1;
                ts[tenant].shed += 1;
                ticks.push((t, 0, false));
                ticks.push((t, 2, false));
            }
            "dispatch" => {
                if in_flight.is_some() {
                    return Err(err("dispatch while a batch is already in flight".into()));
                }
                let tenant = tenant_of(&mut f)?;
                let rows: usize = f.get("rows")?;
                if rows == 0 || rows > ts[tenant].queue.len() {
                    return Err(err(format!(
                        "dispatch of {rows} rows but tenant {tenant} has {} queued",
                        ts[tenant].queue.len()
                    )));
                }
                let arrivals = ts[tenant].queue.drain(..rows).map(|q| q.arrival).collect();
                batches += 1;
                in_flight = Some(Flight {
                    tenant,
                    dispatched_at: t,
                    arrivals,
                });
            }
            "complete" => {
                let Some(flight) = in_flight.take() else {
                    return Err(err("complete without a batch in flight".into()));
                };
                let tenant = tenant_of(&mut f)?;
                if tenant != flight.tenant {
                    return Err(err(format!(
                        "complete for tenant {tenant} but tenant {} is in flight",
                        flight.tenant
                    )));
                }
                let service = t - flight.dispatched_at;
                let acc = &mut ts[tenant];
                for &arrival in &flight.arrivals {
                    let wait = flight.dispatched_at - arrival;
                    // The server-busy share of the wait is queue wait; the
                    // remainder is batch formation. The request's own batch
                    // starts at dispatch, so it never self-counts.
                    let queued = busy_overlap(&busy, arrival, flight.dispatched_at);
                    let latency = t - arrival;
                    acc.served += 1;
                    served += 1;
                    acc.queue_wait += queued;
                    acc.formation_wait += wait - queued;
                    acc.service += service;
                    if latency <= slo_secs {
                        acc.slo_ok += 1;
                    }
                    acc.latencies.push(latency);
                    all_latencies.push(latency);
                    ticks.push((t, 1, latency <= slo_secs));
                }
                busy.push((flight.dispatched_at, t));
            }
            "swap" => {
                let tenant = tenant_of(&mut f)?;
                swaps += 1;
                ts[tenant].swaps += 1;
            }
            other => return Err(err(format!("unknown event kind `{other}`"))),
        }
    }

    // Conservation, re-proved from the trace alone.
    let queued_at_end: u64 = ts.iter().map(|t| t.queue.len() as u64).sum();
    let in_flight_at_end =
        queued_at_end + in_flight.as_ref().map_or(0, |f| f.arrivals.len() as u64);
    if arrived != served + shed + in_flight_at_end {
        return Err(ServeAnalyzeError::Conservation(format!(
            "{arrived} arrived != {served} served + {shed} shed + {in_flight_at_end} in flight"
        )));
    }

    // Exact quantiles: sort, then nearest-rank.
    all_latencies.sort_by(f64::total_cmp);
    let slo_ok: u64 = ts.iter().map(|t| t.slo_ok).sum();
    let per_tenant: Vec<TenantProfile> = ts
        .into_iter()
        .enumerate()
        .map(|(tenant, mut t)| {
            t.latencies.sort_by(f64::total_cmp);
            TenantProfile {
                tenant,
                arrived: t.arrived,
                served: t.served,
                shed: t.shed,
                swaps: t.swaps,
                queue_wait_secs: t.queue_wait,
                formation_wait_secs: t.formation_wait,
                service_secs: t.service,
                slo_ok: t.slo_ok,
                latency_p50_secs: quantile(&t.latencies, 0.50),
                latency_p99_secs: quantile(&t.latencies, 0.99),
                latency_max_secs: t.latencies.last().copied().unwrap_or(0.0),
            }
        })
        .collect();

    // Fixed-window timeline over [0, end].
    let width = if end_secs > 0.0 {
        end_secs / TIMELINE_WINDOWS as f64
    } else {
        0.0
    };
    let mut timeline: Vec<TimelineWindow> = (0..TIMELINE_WINDOWS)
        .map(|w| TimelineWindow {
            window: w,
            begin_secs: width * w as f64,
            end_secs: if w + 1 == TIMELINE_WINDOWS {
                end_secs
            } else {
                width * (w + 1) as f64
            },
            arrived: 0,
            served: 0,
            shed: 0,
            slo_ok: 0,
        })
        .collect();
    if width > 0.0 {
        for (t, kind, ok) in ticks {
            let w = ((t / width) as usize).min(TIMELINE_WINDOWS - 1);
            match kind {
                0 => timeline[w].arrived += 1,
                1 => {
                    timeline[w].served += 1;
                    if ok {
                        timeline[w].slo_ok += 1;
                    }
                }
                _ => timeline[w].shed += 1,
            }
        }
    }

    Ok(ServeProfile {
        tenants,
        seed,
        queue_capacity,
        max_batch,
        slo_secs,
        events,
        arrived,
        served,
        shed,
        in_flight_at_end,
        batches,
        swaps,
        end_secs,
        queue_wait_secs: per_tenant.iter().map(|t| t.queue_wait_secs).sum(),
        formation_wait_secs: per_tenant.iter().map(|t| t.formation_wait_secs).sum(),
        service_secs: per_tenant.iter().map(|t| t.service_secs).sum(),
        slo_ok,
        slo_attainment: if served > 0 {
            slo_ok as f64 / served as f64
        } else {
            1.0
        },
        latency_p50_secs: quantile(&all_latencies, 0.50),
        latency_p99_secs: quantile(&all_latencies, 0.99),
        latency_max_secs: all_latencies.last().copied().unwrap_or(0.0),
        per_tenant,
        timeline,
    })
}

impl ServeProfile {
    /// The canonical `{"kind":"trace_profile","source":"serve_sim"}` JSON
    /// document — byte-identical across reruns, `report_diff`-gateable.
    pub fn canonical_json(&self) -> String {
        let mut w = JsonWriter::canonical();
        w.str("kind", "trace_profile");
        w.str("source", "serve_sim");
        w.u64("tenants", self.tenants as u64);
        w.u64("seed", self.seed);
        w.u64("queue_capacity", self.queue_capacity as u64);
        w.u64("max_batch", self.max_batch as u64);
        w.f64("slo_secs", self.slo_secs);
        w.u64("events", self.events);
        w.u64("arrived", self.arrived);
        w.u64("served", self.served);
        w.u64("shed", self.shed);
        w.u64("in_flight_at_end", self.in_flight_at_end);
        w.u64("batches", self.batches);
        w.u64("swaps", self.swaps);
        w.f64("end_secs", self.end_secs);
        w.object("latency", |w| {
            w.f64("queue_wait_secs", self.queue_wait_secs);
            w.f64("formation_wait_secs", self.formation_wait_secs);
            w.f64("service_secs", self.service_secs);
            w.f64("p50_secs", self.latency_p50_secs);
            w.f64("p99_secs", self.latency_p99_secs);
            w.f64("max_secs", self.latency_max_secs);
        });
        w.object("slo", |w| {
            w.u64("ok", self.slo_ok);
            w.u64("violations", self.served - self.slo_ok);
            w.f64("attainment", self.slo_attainment);
        });
        w.array("per_tenant", &self.per_tenant, |w, t| {
            w.elem_object(|w| {
                w.u64("tenant", t.tenant as u64);
                w.u64("arrived", t.arrived);
                w.u64("served", t.served);
                w.u64("shed", t.shed);
                w.u64("swaps", t.swaps);
                w.f64("queue_wait_secs", t.queue_wait_secs);
                w.f64("formation_wait_secs", t.formation_wait_secs);
                w.f64("service_secs", t.service_secs);
                w.u64("slo_ok", t.slo_ok);
                w.f64("latency_p50_secs", t.latency_p50_secs);
                w.f64("latency_p99_secs", t.latency_p99_secs);
                w.f64("latency_max_secs", t.latency_max_secs);
            })
        });
        w.array("timeline", &self.timeline, |w, win| {
            w.elem_object(|w| {
                w.u64("window", win.window as u64);
                w.f64("begin_secs", win.begin_secs);
                w.f64("end_secs", win.end_secs);
                w.u64("arrived", win.arrived);
                w.u64("served", win.served);
                w.u64("shed", win.shed);
                w.u64("slo_ok", win.slo_ok);
            })
        });
        w.finish()
    }

    /// Folded flamegraph stacks for the latency decomposition:
    /// `tenant<i>;<cause> <integer ns>` lines, causes `queue_wait` /
    /// `formation_wait` / `service`.
    pub fn folded_stacks(&self) -> String {
        let mut out = String::new();
        for t in &self.per_tenant {
            for (cause, secs) in [
                ("formation_wait", t.formation_wait_secs),
                ("queue_wait", t.queue_wait_secs),
                ("service", t.service_secs),
            ] {
                let ns = (secs * 1e9).round() as u64;
                if ns > 0 {
                    out.push_str(&format!("tenant{};{cause} {ns}\n", t.tenant));
                }
            }
        }
        out
    }

    /// Human-readable summary; `top` bounds the per-tenant rows (worst SLO
    /// attainment first).
    pub fn summary(&self, top: usize) -> String {
        let mut out = format!(
            "serve-sim profile: {} events, {} tenants, clock ends at {:.6}s\n\
             requests: {} arrived = {} served + {} shed + {} in flight ({} batches, {} swaps)\n\
             latency split: queue {:.6}s vs formation {:.6}s vs service {:.6}s\n\
             slo {}s: {:.2}% attainment ({} ok / {} served), p50 {:.6}s p99 {:.6}s max {:.6}s\n",
            self.events,
            self.tenants,
            self.end_secs,
            self.arrived,
            self.served,
            self.shed,
            self.in_flight_at_end,
            self.batches,
            self.swaps,
            self.queue_wait_secs,
            self.formation_wait_secs,
            self.service_secs,
            self.slo_secs,
            self.slo_attainment * 100.0,
            self.slo_ok,
            self.served,
            self.latency_p50_secs,
            self.latency_p99_secs,
            self.latency_max_secs,
        );
        let mut ranked: Vec<&TenantProfile> = self.per_tenant.iter().collect();
        ranked.sort_by(|a, b| {
            let att = |t: &TenantProfile| {
                if t.served > 0 {
                    t.slo_ok as f64 / t.served as f64
                } else {
                    1.0
                }
            };
            att(a).total_cmp(&att(b)).then(a.tenant.cmp(&b.tenant))
        });
        out.push_str(&format!(
            "{:<8} {:>8} {:>8} {:>6} {:>12} {:>14} {:>12} {:>8}\n",
            "tenant", "served", "shed", "swaps", "queue_s", "formation_s", "service_s", "slo%"
        ));
        for t in ranked.into_iter().take(top) {
            let att = if t.served > 0 {
                t.slo_ok as f64 / t.served as f64 * 100.0
            } else {
                100.0
            };
            out.push_str(&format!(
                "tenant{:<2} {:>8} {:>8} {:>6} {:>12.6} {:>14.6} {:>12.6} {:>7.1}%\n",
                t.tenant,
                t.served,
                t.shed,
                t.swaps,
                t.queue_wait_secs,
                t.formation_wait_secs,
                t.service_secs,
                att
            ));
        }
        out
    }
}

/// True when `text` looks like a serve-sim trace (used by `dimboost
/// analyze` to dispatch between the train and serving analyzers).
pub fn is_serve_trace(text: &str) -> bool {
    text.starts_with("# serve-sim-trace v1 ")
}

/// Convenience: the header the simulator writes for `config` — kept next
/// to the parser so the two can never drift apart silently.
pub fn trace_header(tenants: usize, config: &ServeSimConfig) -> String {
    format!(
        "# serve-sim-trace v1 tenants={} seed={} queue_cap={} max_batch={} \
         slo={} service_fixed={} service_per_row={}\n",
        tenants,
        config.seed,
        config.queue_capacity,
        config.max_batch,
        config.slo_secs,
        config.service_fixed_secs,
        config.service_per_row_secs
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> String {
        // Two tenants, slo 0.05; hand-written schedule:
        //   t=0.00 req0 arrives (tenant 0), t=0.01 req1 arrives (tenant 0)
        //   t=0.02 batch of 2 dispatches, completes t=0.04
        //   t=0.03 req2 arrives (tenant 1) while the server is busy
        //   t=0.04 req2 dispatches alone, completes t=0.06
        //   t=0.05 req3 arrives and is shed
        concat!(
            "# serve-sim-trace v1 tenants=2 seed=7 queue_cap=1 max_batch=2 ",
            "slo=0.05 service_fixed=0.0001 service_per_row=0.00001\n",
            "arrive t=0 req=0 tenant=0 row=1 depth=1\n",
            "arrive t=0.01 req=1 tenant=0 row=2 depth=2\n",
            "dispatch t=0.02 tenant=0 rows=2 epoch=0\n",
            "arrive t=0.03 req=2 tenant=1 row=3 depth=1\n",
            "complete t=0.04 tenant=0 rows=2 epoch=0\n",
            "swap t=0.04 tenant=1 epoch=1 label=refresh\n",
            "dispatch t=0.04 tenant=1 rows=1 epoch=1\n",
            "shed t=0.05 req=3 tenant=1 depth=1\n",
            "complete t=0.06 tenant=1 rows=1 epoch=1\n",
        )
        .to_string()
    }

    #[test]
    fn decomposes_latency_into_queue_formation_service() {
        let p = analyze_serve_trace(&sample_trace()).unwrap();
        assert_eq!(
            (p.arrived, p.served, p.shed, p.in_flight_at_end),
            (4, 3, 1, 0)
        );
        assert_eq!((p.batches, p.swaps), (2, 1));
        // Tenant 0's two requests never waited on a busy server: pure
        // formation wait (0.02 + 0.01), service 2 × 0.02.
        let t0 = &p.per_tenant[0];
        assert!((t0.queue_wait_secs - 0.0).abs() < 1e-12, "{t0:?}");
        assert!((t0.formation_wait_secs - 0.03).abs() < 1e-12, "{t0:?}");
        assert!((t0.service_secs - 0.04).abs() < 1e-12, "{t0:?}");
        // Tenant 1 arrived at 0.03 while the server was busy until 0.04:
        // 0.01 queue wait, no formation wait, 0.02 service.
        let t1 = &p.per_tenant[1];
        assert!((t1.queue_wait_secs - 0.01).abs() < 1e-12, "{t1:?}");
        assert!(t1.formation_wait_secs.abs() < 1e-12, "{t1:?}");
        // Per-request: queue + formation + service == latency.
        let total = p.queue_wait_secs + p.formation_wait_secs + p.service_secs;
        let latencies = 0.04 + 0.03 + 0.03; // req0, req1, req2
        assert!((total - latencies).abs() < 1e-12);
        // SLO 0.05: every latency (0.04, 0.03, 0.03) is within budget.
        assert_eq!(p.slo_ok, 3);
        assert!((p.slo_attainment - 1.0).abs() < 1e-15);
        assert_eq!(p.timeline.len(), 20);
        let arrived: u64 = p.timeline.iter().map(|w| w.arrived).sum();
        let served: u64 = p.timeline.iter().map(|w| w.served).sum();
        assert_eq!((arrived, served), (p.arrived, p.served));
    }

    #[test]
    fn canonical_json_is_deterministic() {
        let a = analyze_serve_trace(&sample_trace()).unwrap();
        let b = analyze_serve_trace(&sample_trace()).unwrap();
        assert_eq!(a, b);
        let j = a.canonical_json();
        assert_eq!(j, b.canonical_json());
        assert!(j.starts_with("{\"kind\":\"trace_profile\",\"source\":\"serve_sim\","));
        assert!(!j.contains("wall"));
        let folded = a.folded_stacks();
        assert!(folded.contains("tenant0;formation_wait "));
        assert!(folded.contains("tenant1;queue_wait "));
    }

    #[test]
    fn malformed_traces_are_typed_errors_not_panics() {
        assert_eq!(
            analyze_serve_trace(""),
            Err(ServeAnalyzeError::MissingHeader)
        );
        assert_eq!(
            analyze_serve_trace("arrive t=0 req=0 tenant=0 row=1 depth=1\n"),
            Err(ServeAnalyzeError::MissingHeader)
        );
        assert!(matches!(
            analyze_serve_trace("# serve-sim-trace v1 tenants=1 seed=0\n"),
            Err(ServeAnalyzeError::Header(_))
        ));
        // A completion with nothing in flight is structural corruption.
        let bad = sample_trace().replace("dispatch t=0.02 tenant=0 rows=2 epoch=0\n", "");
        assert!(matches!(
            analyze_serve_trace(&bad),
            Err(ServeAnalyzeError::Line { .. })
        ));
        // Deleting an arrival breaks conservation (dispatch of 2 with 1
        // queued) — also caught structurally.
        let bad = sample_trace().replace("arrive t=0.01 req=1 tenant=0 row=2 depth=2\n", "");
        assert!(analyze_serve_trace(&bad).is_err());
    }

    #[test]
    fn header_helper_matches_parser() {
        let cfg = ServeSimConfig::default();
        let header = trace_header(3, &cfg);
        assert!(is_serve_trace(&header));
        let p = analyze_serve_trace(&header).unwrap();
        assert_eq!(p.tenants, 3);
        assert_eq!(p.seed, cfg.seed);
        assert_eq!(p.queue_capacity, cfg.queue_capacity);
        assert_eq!(p.max_batch, cfg.max_batch);
        assert_eq!(p.slo_secs.to_bits(), cfg.slo_secs.to_bits());
        assert_eq!(p.events, 0);
    }
}
