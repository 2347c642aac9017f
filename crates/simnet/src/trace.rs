//! Event-level tracing on the simulated clock.
//!
//! Aggregates (the per-phase [`CommLedger`], SpanTimer max/skew) say *how
//! much* each phase cost; the trace says *when* and *where* — which worker
//! straggles, how PS queues back up during the batched FIND_SPLIT pulls,
//! whether a change moved the tail or the mean. The [`TraceBus`] records one
//! event per ledger record (plus annotation events that carry no cost), each
//! stamped with a deterministic sequence number, so the canonical export is
//! byte-identical across reruns.
//!
//! # Clock model
//!
//! The trainer is barrier-synchronous: simulated time advances only through
//! explicit charges (`StatsRecorder::charge`), which act as barriers across
//! all workers. The bus therefore keeps a single global cursor `now`:
//!
//! * **Collective** events (charges) occupy `[now, now + t]` on the `net`
//!   track and advance `now`.
//! * **Request** events (PS push/pull operations) are stamped at `now` on
//!   the issuing worker's track with the exact `sim_time` the ledger was
//!   charged (usually zero — the trainer charges batched exchanges, not
//!   individual requests).
//! * **Service** events model each server's share of a request: the
//!   request's bytes split near-evenly across servers, each server merging
//!   its share at `γ` seconds/byte behind a per-server busy cursor. These
//!   derived events expose queueing (wait = start − arrival) and are
//!   *excluded* from the ledger-sum invariant — they re-describe work whose
//!   cost the charges already account for.
//! * **Compute** events mark worker phase slices at `now` with zero
//!   simulated duration and the measured wall seconds attached as an
//!   annotation (wall time is nondeterministic and never moves the clock).
//!
//! # Invariants (enforced by [`validate_events`] and proptests)
//!
//! * sequence numbers are exactly `0..n` in emission order;
//! * per track, events are non-overlapping with non-decreasing begin times;
//! * folding Request + Collective events into a [`CommLedger`] in sequence
//!   order reproduces the recorder's ledger **bit-exactly** (same f64 fold
//!   order, exact u64 byte/package counts).

use std::sync::Arc;

use parking_lot::Mutex;

use crate::emit::fmt_f64;
use crate::kv::{self, Fields, LineError};
use crate::registry::{FixedHistogram, MetricExport, MetricsRegistry};
use crate::{CommLedger, CostModel, Phase, SimTime};

/// A side lane: where an injected fault or an elastic-membership change
/// is recorded, next to the charge that accounts for its cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Drops, retries, backoff waits, outages, crashes, losses.
    Fault,
    /// Joins, leaves, stripe moves, dilation, backups, stale rejects.
    Membership,
}

impl Lane {
    /// The lane's track, event kind, and metric prefixes (event counter,
    /// seconds histogram).
    fn parts(self) -> (Track, EventKind, &'static str, &'static str) {
        match self {
            Lane::Fault => (
                Track::Fault,
                EventKind::Fault,
                "sim/faults/",
                "sim/fault_secs/",
            ),
            Lane::Membership => (
                Track::Membership,
                EventKind::Membership,
                "sim/membership/",
                "sim/membership_secs/",
            ),
        }
    }
}

/// One horizontal lane of the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Track {
    /// A worker's lane: PS requests it issues, its compute slices.
    Worker(u32),
    /// A server's lane: derived service events with queueing.
    Server(u32),
    /// The shared network lane: barrier charges.
    Net,
    /// The fault-injection lane: drops, retries, backoff waits, outages,
    /// crashes, lost workers (see [`crate::fault`]).
    Fault,
    /// The elastic-membership lane: joins, leaves, stripe handoffs, epoch
    /// bumps, straggler/speed/load dilation, speculative backups (see
    /// [`crate::fault`]).
    Membership,
}

impl Track {
    /// Stable display name (also the Chrome thread name).
    pub fn label(self) -> String {
        match self {
            Track::Worker(w) => format!("worker {w}"),
            Track::Server(s) => format!("server {s}"),
            Track::Net => "net".to_string(),
            Track::Fault => "faults".to_string(),
            Track::Membership => "membership".to_string(),
        }
    }

    /// Stable Chrome `tid`, collision-free for **every** `u32` worker and
    /// server index: net is 0, workers occupy `1 ..= 2^32`, servers occupy
    /// `2^32 + 1 ..= 2^33`, and the fault lane sits above both at
    /// `2^33 + 1`. (The previous scheme based servers at 1001, so
    /// `Worker(1000)` and `Server(0)` shared a lane — large clusters would
    /// have interleaved two tracks and tripped the per-track monotonicity
    /// validation.) The membership lane sits one above the fault lane.
    pub fn tid(self) -> u64 {
        const SERVER_BASE: u64 = (1 << 32) + 1;
        const FAULT_TID: u64 = (1 << 33) + 1;
        const MEMBERSHIP_TID: u64 = (1 << 33) + 2;
        match self {
            Track::Net => 0,
            Track::Worker(w) => 1 + w as u64,
            Track::Server(s) => SERVER_BASE + s as u64,
            Track::Fault => FAULT_TID,
            Track::Membership => MEMBERSHIP_TID,
        }
    }

    /// Compact stable code used by the events-text format: `net`, `w3`,
    /// `s1`, `fault`, `membership`.
    pub fn code(self) -> String {
        match self {
            Track::Worker(w) => format!("w{w}"),
            Track::Server(s) => format!("s{s}"),
            Track::Net => "net".to_string(),
            Track::Fault => "fault".to_string(),
            Track::Membership => "membership".to_string(),
        }
    }

    /// Inverse of [`Track::code`].
    pub fn from_code(code: &str) -> Option<Track> {
        match code {
            "net" => Some(Track::Net),
            "fault" => Some(Track::Fault),
            "membership" => Some(Track::Membership),
            _ => {
                if let Some(w) = code.strip_prefix('w') {
                    w.parse().ok().map(Track::Worker)
                } else if let Some(s) = code.strip_prefix('s') {
                    s.parse().ok().map(Track::Server)
                } else {
                    None
                }
            }
        }
    }
}

/// What kind of activity an event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A worker phase slice (wall-clock annotation, zero simulated time).
    Compute,
    /// A PS push/pull operation as the ledger saw it.
    Request,
    /// A derived per-server service slice (queueing view).
    Service,
    /// A simulated-time charge: a barrier on the net track.
    Collective,
    /// An injected fault or its recovery cost (drop, retry backoff, outage
    /// wait, crash, lost worker). The matching simulated time
    /// is charged separately through the ledger, so fault events never count
    /// toward the ledger-sum invariant.
    Fault,
    /// An elastic-membership event or its cost (join, leave, stripe
    /// handoff/re-shard, elastic dilation, speculative backup, stale-epoch
    /// reject). Like faults, the matching simulated time is charged
    /// separately through the ledger, so membership events never count
    /// toward the ledger-sum invariant.
    Membership,
}

impl EventKind {
    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Compute => "compute",
            EventKind::Request => "request",
            EventKind::Service => "service",
            EventKind::Collective => "collective",
            EventKind::Fault => "fault",
            EventKind::Membership => "membership",
        }
    }

    /// True for the kinds whose `(bytes, packages, sim_dur)` fold into the
    /// [`CommLedger`]-sum invariant.
    pub fn counts_toward_ledger(self) -> bool {
        matches!(self, EventKind::Request | EventKind::Collective)
    }

    /// Inverse of [`EventKind::name`].
    pub fn from_name(name: &str) -> Option<EventKind> {
        Some(match name {
            "compute" => EventKind::Compute,
            "request" => EventKind::Request,
            "service" => EventKind::Service,
            "collective" => EventKind::Collective,
            "fault" => EventKind::Fault,
            "membership" => EventKind::Membership,
            _ => return None,
        })
    }
}

/// One begin/end interval on the simulated clock.
///
/// The end time is `begin + sim_dur`; the duration is stored explicitly
/// rather than as a second timestamp so the ledger-sum invariant can compare
/// the *recorded* durations bit-exactly (recomputing `end − begin` would
/// lose ulps).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Deterministic sequence number: position in emission order.
    pub seq: u64,
    /// Lane the event belongs to.
    pub track: Track,
    /// Activity kind.
    pub kind: EventKind,
    /// Execution-plan phase the event is attributed to.
    pub phase: Phase,
    /// Operation name (e.g. `push_histogram`, `pull_split`).
    pub name: &'static str,
    /// Begin time on the simulated clock.
    pub begin: SimTime,
    /// Simulated duration (exactly what the ledger was charged, for
    /// Request/Collective events).
    pub sim_dur: SimTime,
    /// Payload bytes.
    pub bytes: u64,
    /// Package count.
    pub packages: u64,
    /// Measured wall seconds (Compute events only; nondeterministic).
    pub wall_secs: f64,
}

impl TraceEvent {
    /// End time on the simulated clock.
    pub fn end(&self) -> SimTime {
        SimTime(self.begin.0 + self.sim_dur.0)
    }
}

#[derive(Debug)]
struct BusState {
    capture: bool,
    events: Vec<TraceEvent>,
    seq: u64,
    /// Worker currently issuing PS requests (None → attributed to net).
    origin: Option<u32>,
    /// Global simulated clock; advanced only by charges (barriers).
    now: f64,
    server_busy: Vec<f64>,
    server_pending: Vec<u64>,
    gamma: f64,
    metrics: MetricsRegistry,
}

impl BusState {
    #[allow(clippy::too_many_arguments)] // private funnel mirroring TraceEvent's fields
    fn push(
        &mut self,
        track: Track,
        kind: EventKind,
        phase: Phase,
        name: &'static str,
        begin: f64,
        sim_dur: f64,
        bytes: u64,
        packages: u64,
        wall_secs: f64,
    ) {
        if !self.capture {
            // Sequence numbers still advance so metrics-only runs and
            // capturing runs agree on counters.
            self.seq += 1;
            return;
        }
        self.events.push(TraceEvent {
            seq: self.seq,
            track,
            kind,
            phase,
            name,
            begin: SimTime(begin),
            sim_dur: SimTime(sim_dur),
            bytes,
            packages,
            wall_secs,
        });
        self.seq += 1;
    }

    /// Derived per-server service slices for one request's payload.
    fn serve(&mut self, phase: Phase, name: &'static str, bytes: u64) {
        let servers = self.server_busy.len();
        if servers == 0 || bytes == 0 {
            return;
        }
        let base = bytes / servers as u64;
        let extra = bytes % servers as u64;
        for s in 0..servers {
            let share = base + u64::from((s as u64) < extra);
            if share == 0 {
                continue;
            }
            let arrival = self.now;
            let start = self.server_busy[s].max(arrival);
            let wait = start - arrival;
            let dur = self.gamma * share as f64;
            if start > arrival {
                self.server_pending[s] += 1;
            } else {
                self.server_pending[s] = 0;
            }
            self.server_busy[s] = start + dur;
            let depth = self.server_pending[s];
            self.metrics
                .observe_with("sim/ps_service_secs", dur, secs_buckets);
            self.metrics
                .observe_with("sim/ps_queue_wait_secs", wait, secs_buckets);
            self.metrics
                .observe_with("sim/ps_queue_depth", depth as f64, depth_buckets);
            self.push(
                Track::Server(s as u32),
                EventKind::Service,
                phase,
                name,
                start,
                dur,
                share,
                1,
                0.0,
            );
        }
    }
}

fn secs_buckets() -> FixedHistogram {
    FixedHistogram::log_spaced(1e-9, 1e4, 3)
}

fn depth_buckets() -> FixedHistogram {
    FixedHistogram::log_spaced(1.0, 1e4, 3)
}

fn bytes_buckets() -> FixedHistogram {
    FixedHistogram::log_spaced(1.0, 1e12, 3)
}

/// The shared, clonable event bus. One per training run; every recorder,
/// timer, and collective that should appear in the trace holds a clone.
#[derive(Debug, Clone)]
pub struct TraceBus {
    workers: usize,
    servers: usize,
    inner: Arc<Mutex<BusState>>,
}

impl TraceBus {
    /// A bus for `workers` workers and `servers` servers under `cost`.
    /// With `capture == false` only the metrics registry is fed — no events
    /// are stored (the cheap always-on mode).
    pub fn new(workers: usize, servers: usize, cost: CostModel, capture: bool) -> Self {
        TraceBus {
            workers,
            servers,
            inner: Arc::new(Mutex::new(BusState {
                capture,
                events: Vec::new(),
                seq: 0,
                origin: None,
                now: 0.0,
                server_busy: vec![0.0; servers],
                server_pending: vec![0; servers],
                gamma: cost.gamma,
                metrics: MetricsRegistry::new(),
            })),
        }
    }

    /// True when events are being stored (not just metrics).
    pub fn capturing(&self) -> bool {
        self.inner.lock().capture
    }

    /// Declares which worker issues the PS requests that follow
    /// (`None` → attribute to the net track).
    pub fn set_worker(&self, worker: Option<u32>) {
        self.inner.lock().origin = worker;
    }

    /// A PS request/response as the ledger recorded it. Called by
    /// `StatsRecorder` for every tagged record, with identical arguments —
    /// that single funnel is what makes the ledger-sum invariant structural.
    pub fn on_request(
        &self,
        phase: Phase,
        name: &'static str,
        bytes: u64,
        packages: u64,
        time: SimTime,
    ) {
        let mut st = self.inner.lock();
        let track = match st.origin {
            Some(w) => Track::Worker(w),
            None => Track::Net,
        };
        let begin = st.now;
        st.metrics.counter_add("sim/ps_requests", 1);
        st.metrics
            .observe_with("sim/ps_request_bytes", bytes as f64, bytes_buckets);
        st.push(
            track,
            EventKind::Request,
            phase,
            name,
            begin,
            time.0,
            bytes,
            packages,
            0.0,
        );
        if st.origin.is_some() {
            st.serve(phase, name, bytes);
        }
        // A request recorded with nonzero simulated time is a synchronous
        // operation in the barrier model: it, too, advances the clock
        // (otherwise the next event on the same track would overlap it).
        st.now += time.0;
    }

    /// A simulated-time charge: a barrier that advances the global clock.
    pub fn on_charge(&self, phase: Phase, time: SimTime) {
        let mut st = self.inner.lock();
        let begin = st.now;
        st.push(
            Track::Net,
            EventKind::Collective,
            phase,
            phase.name(),
            begin,
            time.0,
            0,
            0,
            0.0,
        );
        st.now += time.0;
        let now = st.now;
        // The barrier drains every server queue.
        for s in 0..st.server_busy.len() {
            st.server_busy[s] = st.server_busy[s].max(now);
            st.server_pending[s] = 0;
        }
        st.metrics.gauge_set("sim/clock_secs", now);
    }

    /// An injected fault, a membership change, or its cost, on `lane`.
    /// Emitted *before* the charge that accounts for `dur` on the ledger,
    /// at the current clock and without advancing it, so the interval
    /// `[now, now + dur]` lines up with the barrier that follows it and the
    /// lane stays monotone. `count` is free-form per event name.
    pub fn on_lane(
        &self,
        lane: Lane,
        phase: Phase,
        name: &'static str,
        dur: SimTime,
        bytes: u64,
        count: u64,
    ) {
        let (track, kind, events, secs) = lane.parts();
        let mut st = self.inner.lock();
        let begin = st.now;
        st.metrics.counter_add(&format!("{events}{name}"), 1);
        if dur.0 > 0.0 {
            st.metrics
                .observe_with(&format!("{secs}{name}"), dur.0, secs_buckets);
        }
        st.push(track, kind, phase, name, begin, dur.0, bytes, count, 0.0);
    }

    /// A worker phase slice measured on the wall clock.
    pub fn on_compute(&self, worker: u32, phase: Phase, wall_secs: f64) {
        let slot = self.open_compute(worker, phase);
        self.close_compute(slot, wall_secs);
    }

    /// Places a worker's phase slice at `now` before its seconds are known.
    /// A stage that interleaves a worker's compute with its requests opens
    /// every worker's slice first and closes each with the compute seconds
    /// it measured, so the slices keep the sequence numbers and begin times
    /// they have when compute and requests are separate stages.
    pub fn open_compute(&self, worker: u32, phase: Phase) -> ComputeSlot {
        let mut st = self.inner.lock();
        let begin = st.now;
        let event = st.capture.then_some(st.events.len());
        st.push(
            Track::Worker(worker),
            EventKind::Compute,
            phase,
            "compute",
            begin,
            0.0,
            0,
            0,
            0.0,
        );
        ComputeSlot { phase, event }
    }

    /// Books the measured wall seconds of a slice opened by
    /// [`TraceBus::open_compute`].
    pub fn close_compute(&self, slot: ComputeSlot, wall_secs: f64) {
        let mut st = self.inner.lock();
        st.metrics.observe_with(
            &format!("wall/phase_secs/{}", slot.phase.name()),
            wall_secs,
            secs_buckets,
        );
        if let Some(event) = slot.event.and_then(|i| st.events.get_mut(i)) {
            event.wall_secs = wall_secs;
        }
    }

    /// Flat export of the metrics registry (sorted by name).
    pub fn export_metrics(&self) -> Vec<MetricExport> {
        self.inner.lock().metrics.export()
    }

    /// A copy of the events recorded so far (tests, checks).
    pub fn snapshot_events(&self) -> Vec<TraceEvent> {
        self.inner.lock().events.clone()
    }

    /// Drains the bus into a finished [`Trace`].
    pub fn finish(&self) -> Trace {
        let mut st = self.inner.lock();
        Trace {
            workers: self.workers,
            servers: self.servers,
            events: std::mem::take(&mut st.events),
        }
    }
}

/// A Compute event placed by [`TraceBus::open_compute`], waiting for its
/// wall seconds.
#[derive(Debug)]
pub struct ComputeSlot {
    phase: Phase,
    /// Index of the event on a capturing bus.
    event: Option<usize>,
}

/// A finished event trace for one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Worker count (one track each).
    pub workers: usize,
    /// Server count (one track each).
    pub servers: usize,
    /// Events in emission (sequence) order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Full Chrome-trace-event JSON, loadable in Perfetto / `chrome://tracing`.
    ///
    /// Compute events are rendered with their measured *wall* duration so
    /// straggler slices are visible; to keep each track's timeline monotone
    /// the exporter replays events against a per-track wall offset (the sum
    /// of wall durations already rendered on that track). Timestamps are
    /// therefore a visualization aid; `args.sim_us`/`args.sim_dur_us` carry
    /// the exact simulated times. Because wall durations differ across
    /// reruns, this export is **not** canonical.
    pub fn chrome_json(&self) -> String {
        self.chrome_json_impl(true)
    }

    /// Canonical Chrome-trace-event JSON: pure simulated clock, wall-clock
    /// annotations omitted. Byte-identical across reruns of the same
    /// configuration.
    pub fn canonical_chrome_json(&self) -> String {
        self.chrome_json_impl(false)
    }

    fn chrome_json_impl(&self, with_wall: bool) -> String {
        let mut out = String::with_capacity(256 + self.events.len() * 160);
        out.push('[');
        let mut first = true;
        let mut emit = |s: String, out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&s);
        };

        emit(
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"dimboost sim\"}}"
                .to_string(),
            &mut out,
        );
        for track in self.tracks() {
            emit(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    track.tid(),
                    track.label()
                ),
                &mut out,
            );
        }

        // Wall replay offsets and the last emitted timestamp, per track.
        let mut offsets: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
        let mut cursor: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
        for e in &self.events {
            let tid = e.track.tid();
            let offset = if with_wall {
                *offsets.get(&tid).unwrap_or(&0.0)
            } else {
                0.0
            };
            let dur = if with_wall && e.kind == EventKind::Compute {
                e.wall_secs
            } else {
                e.sim_dur.0
            };
            // Clamp to the track's last timestamp: `(b + off) + d` and
            // `b + (off + d)` round differently, so without this the next
            // begin can land one ulp before the previous end.
            let last = *cursor.get(&tid).unwrap_or(&0.0);
            let begin_us = ((e.begin.0 + offset) * 1e6).max(last);
            let end_us = ((e.begin.0 + offset + dur) * 1e6).max(begin_us);
            cursor.insert(tid, end_us);
            let mut args = format!(
                "\"seq\":{},\"kind\":\"{}\",\"phase\":\"{}\",\"bytes\":{},\"packages\":{},\
                 \"sim_us\":{},\"sim_dur_us\":{}",
                e.seq,
                e.kind.name(),
                e.phase.name(),
                e.bytes,
                e.packages,
                fmt_f64(e.begin.0 * 1e6),
                fmt_f64(e.sim_dur.0 * 1e6),
            );
            if with_wall && e.kind == EventKind::Compute {
                args.push_str(&format!(",\"wall_ms\":{}", fmt_f64(e.wall_secs * 1e3)));
            }
            emit(
                format!(
                    "{{\"ph\":\"B\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":0,\"tid\":{},\
                     \"ts\":{},\"args\":{{{}}}}}",
                    e.name,
                    e.phase.name(),
                    tid,
                    fmt_f64(begin_us),
                    args
                ),
                &mut out,
            );
            emit(
                format!(
                    "{{\"ph\":\"E\",\"pid\":0,\"tid\":{},\"ts\":{}}}",
                    tid,
                    fmt_f64(end_us)
                ),
                &mut out,
            );
            if with_wall && e.kind == EventKind::Compute {
                offsets.insert(tid, offset + e.wall_secs);
            }
        }
        out.push_str("\n]\n");
        out
    }

    /// Every track that can appear, in stable order: net, workers, servers,
    /// and — only when their events were recorded — the fault and
    /// membership lanes.
    pub fn tracks(&self) -> Vec<Track> {
        let mut tracks = vec![Track::Net];
        tracks.extend((0..self.workers as u32).map(Track::Worker));
        tracks.extend((0..self.servers as u32).map(Track::Server));
        if self.events.iter().any(|e| e.track == Track::Fault) {
            tracks.push(Track::Fault);
        }
        if self.events.iter().any(|e| e.track == Track::Membership) {
            tracks.push(Track::Membership);
        }
        tracks
    }

    /// Plain-text timeline summary: per-track activity and the head of the
    /// event stream.
    pub fn timeline(&self) -> String {
        let end: f64 = self.events.iter().map(|e| e.end().0).fold(0.0f64, f64::max);
        let mut out = format!(
            "trace: {} events, {} workers + {} servers + net, sim clock ends at {:.4}s\n",
            self.events.len(),
            self.workers,
            self.servers,
            end
        );
        out.push_str(&format!(
            "{:<12} {:>8} {:>12} {:>14}\n",
            "track", "events", "busy(sim s)", "bytes"
        ));
        for track in self.tracks() {
            let mut n = 0u64;
            let mut busy = 0.0f64;
            let mut bytes = 0u64;
            for e in self.events.iter().filter(|e| e.track == track) {
                n += 1;
                busy += e.sim_dur.0;
                bytes += e.bytes;
            }
            if n == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<12} {:>8} {:>12.4} {:>14}\n",
                track.label(),
                n,
                busy,
                bytes
            ));
        }
        let head = 12.min(self.events.len());
        if head > 0 {
            out.push_str("first events:\n");
            for e in &self.events[..head] {
                out.push_str(&format!(
                    "  [{:>4}] t={:<10.6} {:<10} {:<15} {:<24} bytes={:<10} dur={:.6}s\n",
                    e.seq,
                    e.begin.0,
                    e.track.label(),
                    e.phase.name(),
                    format!("{}:{}", e.kind.name(), e.name),
                    e.bytes,
                    e.sim_dur.0
                ));
            }
        }
        out
    }

    /// Runs [`validate_events`] over this trace.
    pub fn validate(&self) -> Result<(), String> {
        validate_events(&self.events)
    }

    /// Canonical events-text export: one line per event, every simulated
    /// time printed with Rust's shortest-round-trip `f64` formatting so
    /// [`Trace::parse_events_text`] reconstructs the stream **bit-exactly**.
    /// Wall-clock annotations are omitted (they are nondeterministic), which
    /// makes this artifact byte-identical across reruns — it is the
    /// interchange format between a run and the offline `dimboost analyze`
    /// profiler.
    pub fn events_text(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str(&format!(
            "# dimboost-trace-events v1 workers={} servers={} events={}\n",
            self.workers,
            self.servers,
            self.events.len()
        ));
        for e in &self.events {
            out.push_str(&format!(
                "event seq={} track={} kind={} phase={} name={} begin={} dur={} bytes={} pkgs={}\n",
                e.seq,
                e.track.code(),
                e.kind.name(),
                e.phase.name(),
                e.name,
                e.begin.0,
                e.sim_dur.0,
                e.bytes,
                e.packages
            ));
        }
        out
    }

    /// Parses an [`Trace::events_text`] document back into a trace.
    ///
    /// Because the export uses shortest-round-trip `f64` formatting, the
    /// parsed event stream is bit-identical to the one exported (wall-clock
    /// annotations, which the export drops, come back as zero). Lines follow
    /// [`crate::kv`]'s reading rules, so every malformed input — missing or
    /// corrupt header, an unknown or repeated field, a non-finite time, a
    /// truncated file whose header promises more events than follow (a
    /// trace ending with an open span) — is a typed [`TraceParseError`],
    /// never a panic.
    pub fn parse_events_text(text: &str) -> Result<Trace, TraceParseError> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .and_then(|h| h.strip_prefix("# dimboost-trace-events v1"))
            .filter(|rest| rest.is_empty() || rest.starts_with(char::is_whitespace))
            .ok_or(TraceParseError::MissingHeader)?;
        let (workers, servers, expected): (usize, usize, usize) = Fields::strict(1, header, |f| {
            Ok((f.get("workers")?, f.get("servers")?, f.get("events")?))
        })
        .map_err(|e| TraceParseError::Header(e.message))?;

        // The header's count is a promise to check, not a size to allocate:
        // no more events can follow than lines do.
        let mut events = Vec::with_capacity(expected.min(lines.clone().count()));
        for (i, line) in lines.enumerate() {
            let lineno = i + 2;
            let (keyword, rest) = kv::keyword(line);
            if keyword.is_empty() {
                continue;
            }
            if keyword != "event" {
                return Err(TraceParseError::Line {
                    line: lineno,
                    message: format!("expected an `event` line, got {:?}", line.trim()),
                });
            }
            events.push(Fields::strict(lineno, rest, |f| {
                Ok(TraceEvent {
                    seq: f.get("seq")?,
                    track: f.named("track", Track::from_code)?,
                    kind: f.named("kind", EventKind::from_name)?,
                    phase: f.named("phase", Phase::from_name)?,
                    name: intern_name(f.str("name")?),
                    begin: SimTime(f.get("begin")?),
                    sim_dur: SimTime(f.get("dur")?),
                    bytes: f.get("bytes")?,
                    packages: f.get("pkgs")?,
                    wall_secs: 0.0,
                })
            })?);
        }
        if events.len() != expected {
            return Err(TraceParseError::Truncated {
                expected,
                got: events.len(),
            });
        }
        Ok(Trace {
            workers,
            servers,
            events,
        })
    }
}

/// Why an events-text document failed to parse. A truncated file — the
/// header promises more events than follow, i.e. the trace ends with an
/// open span — is [`TraceParseError::Truncated`], a clean error rather than
/// a panic or a silently shorter trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// The first line is not a `# dimboost-trace-events v1 ...` header.
    MissingHeader,
    /// The header line is malformed (bad key, value, or missing count).
    Header(String),
    /// The header promised `expected` events but only `got` parsed —
    /// the file was cut off mid-stream.
    Truncated {
        /// Event count the header declared.
        expected: usize,
        /// Events actually present.
        got: usize,
    },
    /// One event line is malformed.
    Line {
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::MissingHeader => {
                write!(
                    f,
                    "not an events-text trace (missing `# dimboost-trace-events v1` header)"
                )
            }
            TraceParseError::Header(m) => write!(f, "bad events-text header: {m}"),
            TraceParseError::Truncated { expected, got } => write!(
                f,
                "truncated trace: header declares {expected} events but only {got} follow"
            ),
            TraceParseError::Line { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for TraceParseError {}

impl From<LineError> for TraceParseError {
    fn from(e: LineError) -> Self {
        TraceParseError::Line {
            line: e.line,
            message: e.message,
        }
    }
}

/// Interns an operation name so parsed events can carry the `&'static str`
/// the in-memory representation uses. Each distinct name leaks once, which
/// is bounded by the small fixed vocabulary of operation names.
fn intern_name(name: &str) -> &'static str {
    // The names the tracer itself emits, fast-pathed without a lock.
    for known in [
        "compute",
        "push_histogram",
        "pull_split",
        "push_sketches",
        "pull_sketches",
        "push_gradients",
        "join",
        "leave",
        "stripe_handoff",
        "stripe_reshard",
        "elastic_dilation",
        "speculative_backup",
        "backup_win",
        "stale_reject",
    ] {
        if known == name {
            return known;
        }
    }
    for phase in Phase::ALL {
        if phase.name() == name {
            return phase.name();
        }
    }
    static INTERNED: std::sync::OnceLock<Mutex<Vec<&'static str>>> = std::sync::OnceLock::new();
    let mut table = INTERNED.get_or_init(|| Mutex::new(Vec::new())).lock();
    if let Some(found) = table.iter().find(|n| **n == name) {
        return found;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    table.push(leaked);
    leaked
}

/// Structural well-formedness of an event stream:
///
/// * sequence numbers are exactly `0..n` in order;
/// * no negative times or durations;
/// * per track, begin times are non-decreasing and events do not overlap
///   (every implicit begin has its matching end before the next begin).
pub fn validate_events(events: &[TraceEvent]) -> Result<(), String> {
    let mut last_end: std::collections::HashMap<u64, (f64, f64)> = std::collections::HashMap::new();
    for (i, e) in events.iter().enumerate() {
        if e.seq != i as u64 {
            return Err(format!("event {i}: seq {} != position {i}", e.seq));
        }
        let bad = |v: f64| v.is_nan() || v < 0.0;
        if bad(e.begin.0) || bad(e.sim_dur.0) || bad(e.wall_secs) {
            return Err(format!(
                "event {i}: negative or NaN time (begin={}, dur={}, wall={})",
                e.begin.0, e.sim_dur.0, e.wall_secs
            ));
        }
        let tid = e.track.tid();
        if let Some(&(prev_begin, prev_end)) = last_end.get(&tid) {
            if e.begin.0 < prev_begin {
                return Err(format!(
                    "event {i}: track {} begin {} precedes previous begin {}",
                    e.track.label(),
                    e.begin.0,
                    prev_begin
                ));
            }
            if e.begin.0 < prev_end {
                return Err(format!(
                    "event {i}: track {} begin {} overlaps previous end {}",
                    e.track.label(),
                    e.begin.0,
                    prev_end
                ));
            }
        }
        last_end.insert(tid, (e.begin.0, e.end().0));
    }
    Ok(())
}

/// Folds the ledger-relevant events (Request + Collective) into a
/// [`CommLedger`] in sequence order. For a trace produced through
/// `StatsRecorder` this reproduces the recorder's ledger **bit-exactly**:
/// same per-phase f64 fold order, exact byte/package counts.
pub fn comm_totals(events: &[TraceEvent]) -> CommLedger {
    let mut ledger = CommLedger::new();
    for e in events {
        if e.kind.counts_toward_ledger() {
            ledger.record(e.phase, e.bytes, e.packages, e.sim_dur);
        }
    }
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> TraceBus {
        TraceBus::new(2, 2, CostModel::GIGABIT_LAN, true)
    }

    #[test]
    fn requests_and_charges_build_a_valid_trace() {
        let b = bus();
        b.set_worker(Some(0));
        b.on_request(
            Phase::BuildHistogram,
            "push_histogram",
            4000,
            2,
            SimTime::ZERO,
        );
        b.set_worker(Some(1));
        b.on_request(
            Phase::BuildHistogram,
            "push_histogram",
            4000,
            2,
            SimTime::ZERO,
        );
        b.set_worker(None);
        b.on_charge(Phase::BuildHistogram, SimTime(0.25));
        b.on_request(Phase::FindSplit, "pull_split", 96, 2, SimTime::ZERO);
        b.on_charge(Phase::FindSplit, SimTime(0.05));
        let trace = b.finish();
        trace.validate().unwrap();
        // 2 requests + 2*2 service + 2 charges + 1 net request = 9 events.
        assert_eq!(trace.events.len(), 9);
        // The second charge begins where the first ended.
        let charges: Vec<&TraceEvent> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Collective)
            .collect();
        assert_eq!(charges[0].begin, SimTime::ZERO);
        assert_eq!(charges[1].begin, SimTime(0.25));
    }

    #[test]
    fn comm_totals_match_direct_ledger() {
        let b = bus();
        let mut direct = CommLedger::new();
        b.set_worker(Some(0));
        for i in 0..10u64 {
            let t = SimTime(i as f64 * 1e-4);
            b.on_request(Phase::CreateSketch, "push_sketches", 100 + i, 3, t);
            direct.record(Phase::CreateSketch, 100 + i, 3, t);
        }
        b.set_worker(None);
        b.on_charge(Phase::CreateSketch, SimTime(0.125));
        direct.record(Phase::CreateSketch, 0, 0, SimTime(0.125));
        let trace = b.finish();
        assert_eq!(comm_totals(&trace.events), direct);
    }

    #[test]
    fn service_events_queue_behind_busy_servers() {
        let b = bus();
        b.set_worker(Some(0));
        b.on_request(
            Phase::BuildHistogram,
            "push_histogram",
            1_000_000,
            1,
            SimTime::ZERO,
        );
        b.set_worker(Some(1));
        b.on_request(
            Phase::BuildHistogram,
            "push_histogram",
            1_000_000,
            1,
            SimTime::ZERO,
        );
        let trace = b.finish();
        trace.validate().unwrap();
        let services: Vec<&TraceEvent> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Service)
            .collect();
        assert_eq!(services.len(), 4);
        // Second request's service on server 0 starts after the first ends.
        let s0: Vec<&&TraceEvent> = services
            .iter()
            .filter(|e| e.track == Track::Server(0))
            .collect();
        assert_eq!(s0.len(), 2);
        assert_eq!(s0[1].begin, s0[0].end());
        assert!(s0[1].begin.0 > 0.0);
    }

    #[test]
    fn canonical_export_is_deterministic_and_omits_wall() {
        let run = || {
            let b = bus();
            b.on_compute(0, Phase::BuildHistogram, 0.123);
            b.set_worker(Some(0));
            b.on_request(
                Phase::BuildHistogram,
                "push_histogram",
                64,
                1,
                SimTime::ZERO,
            );
            b.set_worker(None);
            b.on_charge(Phase::BuildHistogram, SimTime(0.5));
            b.finish()
        };
        let a = run().canonical_chrome_json();
        let c = run().canonical_chrome_json();
        assert_eq!(a, c);
        assert!(!a.contains("wall_ms"));
        assert!(a.contains("\"ph\":\"B\""));
        assert!(a.contains("\"thread_name\""));
        // The full export carries the wall annotation.
        assert!(run().chrome_json().contains("wall_ms"));
    }

    #[test]
    fn capture_off_records_metrics_but_no_events() {
        let b = TraceBus::new(1, 1, CostModel::GIGABIT_LAN, false);
        b.set_worker(Some(0));
        b.on_request(Phase::FindSplit, "pull_split", 48, 1, SimTime::ZERO);
        b.on_charge(Phase::FindSplit, SimTime(0.1));
        assert!(b.finish().events.is_empty());
        let metrics = b.export_metrics();
        assert!(metrics.iter().any(|m| m.name == "sim/ps_requests"));
    }

    #[test]
    fn validate_rejects_out_of_order_tracks() {
        let mk = |seq: u64, begin: f64| TraceEvent {
            seq,
            track: Track::Net,
            kind: EventKind::Collective,
            phase: Phase::Finish,
            name: "x",
            begin: SimTime(begin),
            sim_dur: SimTime::ZERO,
            bytes: 0,
            packages: 0,
            wall_secs: 0.0,
        };
        assert!(validate_events(&[mk(0, 1.0), mk(1, 0.5)]).is_err());
        assert!(validate_events(&[mk(0, 0.5), mk(1, 1.0)]).is_ok());
        assert!(validate_events(&[mk(1, 0.0)]).is_err());
    }

    #[test]
    fn tids_never_collide_at_the_worker_server_boundary() {
        // Regression: the old scheme based servers at tid 1001, so
        // Worker(1000) landed on Server(0)'s lane. Build a bus right at
        // that boundary and require every track's tid to be distinct.
        let workers = 1500u32;
        let servers = 8u32;
        let mut seen = std::collections::HashMap::new();
        let tracks = std::iter::once(Track::Net)
            .chain((0..workers).map(Track::Worker))
            .chain((0..servers).map(Track::Server))
            .chain([Track::Fault, Track::Membership]);
        for track in tracks {
            if let Some(other) = seen.insert(track.tid(), track) {
                panic!("tid {} shared by {track:?} and {other:?}", track.tid());
            }
        }
        // The extremes stay distinct too: the last worker, the last server,
        // and the fault/membership lanes all occupy different lanes.
        assert_ne!(Track::Worker(u32::MAX).tid(), Track::Server(0).tid());
        assert_ne!(Track::Server(u32::MAX).tid(), Track::Fault.tid());
        assert_ne!(Track::Fault.tid(), Track::Membership.tid());
        // A bus built at the boundary still yields a validating trace.
        let b = TraceBus::new(workers as usize, 2, CostModel::GIGABIT_LAN, true);
        b.set_worker(Some(1000));
        b.on_request(
            Phase::BuildHistogram,
            "push_histogram",
            64,
            1,
            SimTime::ZERO,
        );
        b.set_worker(None);
        b.on_charge(Phase::BuildHistogram, SimTime(0.1));
        b.finish().validate().unwrap();
    }

    #[test]
    fn export_metrics_is_canonically_sorted_by_name() {
        // Profile reports embed this export verbatim; the order must be a
        // pure function of the metric names, never of observation order.
        // Feed two buses the same traffic in different phase orders and
        // require identical, name-sorted exports.
        let feed = |phases: &[Phase]| {
            let b = TraceBus::new(2, 2, CostModel::GIGABIT_LAN, false);
            for &phase in phases {
                b.set_worker(Some(0));
                b.on_request(phase, "push_histogram", 512, 1, SimTime::ZERO);
                b.set_worker(None);
                b.on_charge(phase, SimTime(0.01));
            }
            b.export_metrics()
        };
        let a = feed(&[Phase::BuildHistogram, Phase::FindSplit]);
        let c = feed(&[Phase::FindSplit, Phase::BuildHistogram]);
        let names: Vec<&str> = a.iter().map(|m| m.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "export must be sorted by name");
        assert!(!names.is_empty());
        assert_eq!(a, c, "observation order leaked into the export");
    }

    #[test]
    fn track_codes_round_trip() {
        for track in [
            Track::Net,
            Track::Fault,
            Track::Membership,
            Track::Worker(0),
            Track::Worker(1000),
            Track::Server(0),
            Track::Server(7),
        ] {
            assert_eq!(Track::from_code(&track.code()), Some(track));
        }
        assert_eq!(Track::from_code("x9"), None);
        assert_eq!(Track::from_code("w"), None);
    }

    #[test]
    fn membership_events_record_without_advancing_the_clock() {
        let b = bus();
        b.on_charge(Phase::NewTree, SimTime(0.5));
        b.on_lane(
            Lane::Membership,
            Phase::NewTree,
            "join",
            SimTime::ZERO,
            0,
            3,
        );
        b.on_lane(
            Lane::Membership,
            Phase::NewTree,
            "stripe_handoff",
            SimTime(0.25),
            4096,
            1,
        );
        b.on_charge(Phase::NewTree, SimTime(0.25));
        let trace = b.finish();
        trace.validate().unwrap();
        let membership: Vec<&TraceEvent> = trace
            .events
            .iter()
            .filter(|e| e.track == Track::Membership)
            .collect();
        assert_eq!(membership.len(), 2);
        // Emitted at the clock, without moving it: the handoff interval
        // lines up with the charge that follows it.
        assert_eq!(membership[0].begin, SimTime(0.5));
        assert_eq!(membership[1].begin, SimTime(0.5));
        assert_eq!(membership[1].end(), SimTime(0.75));
        assert!(membership.iter().all(|e| e.kind == EventKind::Membership));
        assert!(!EventKind::Membership.counts_toward_ledger());
        // The membership lane appears in the track list, after faults'
        // position, and the canonical text round-trips bit-exactly.
        assert!(trace.tracks().contains(&Track::Membership));
        let parsed = Trace::parse_events_text(&trace.events_text()).unwrap();
        assert_eq!(parsed.events, trace.events);
    }

    #[test]
    fn events_text_round_trips_bit_exactly() {
        let b = bus();
        b.on_compute(0, Phase::BuildHistogram, 0.125);
        b.set_worker(Some(0));
        b.on_request(
            Phase::BuildHistogram,
            "push_histogram",
            4001,
            2,
            SimTime(1e-7),
        );
        b.set_worker(None);
        b.on_charge(Phase::BuildHistogram, SimTime(0.1 + 1e-13));
        b.on_charge(Phase::Finish, SimTime(0.0375));
        let trace = b.finish();
        let parsed = Trace::parse_events_text(&trace.events_text()).unwrap();
        assert_eq!(parsed.workers, trace.workers);
        assert_eq!(parsed.servers, trace.servers);
        assert_eq!(parsed.events.len(), trace.events.len());
        for (a, b) in parsed.events.iter().zip(&trace.events) {
            // Everything but the (deliberately dropped) wall annotation is
            // identical, with times compared on exact bits.
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.track, b.track);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.phase, b.phase);
            assert_eq!(a.name, b.name);
            assert_eq!(a.begin.0.to_bits(), b.begin.0.to_bits());
            assert_eq!(a.sim_dur.0.to_bits(), b.sim_dur.0.to_bits());
            assert_eq!(a.bytes, b.bytes);
            assert_eq!(a.packages, b.packages);
            assert_eq!(a.wall_secs, 0.0);
        }
        // Re-exporting the parsed trace reproduces the document byte for byte.
        assert_eq!(parsed.events_text(), trace.events_text());
    }

    #[test]
    fn truncated_events_text_is_a_typed_error_not_a_panic() {
        let b = bus();
        b.set_worker(Some(0));
        b.on_request(Phase::FindSplit, "pull_split", 96, 2, SimTime::ZERO);
        b.set_worker(None);
        b.on_charge(Phase::FindSplit, SimTime(0.05));
        let text = b.finish().events_text();
        // Cut the document mid-stream: the header now promises more events
        // than follow — a trace ending with an open span.
        let open_ended: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        match Trace::parse_events_text(&open_ended) {
            Err(TraceParseError::Truncated { expected, got }) => {
                assert!(got < expected, "{got} vs {expected}");
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Other malformed inputs are typed errors too.
        assert_eq!(
            Trace::parse_events_text(""),
            Err(TraceParseError::MissingHeader)
        );
        assert_eq!(
            Trace::parse_events_text("not a trace\n"),
            Err(TraceParseError::MissingHeader)
        );
        assert!(matches!(
            Trace::parse_events_text("# dimboost-trace-events v1 workers=1 servers=1\n"),
            Err(TraceParseError::Header(_))
        ));
        let garbled = text.replace("kind=collective", "kind=collectively");
        assert!(matches!(
            Trace::parse_events_text(&garbled),
            Err(TraceParseError::Line { .. })
        ));
    }

    #[test]
    fn empty_and_single_event_traces_are_well_behaved() {
        // Empty: timeline renders, validation passes, events-text round-trips.
        let empty = TraceBus::new(1, 1, CostModel::GIGABIT_LAN, true).finish();
        assert!(empty.timeline().contains("0 events"));
        empty.validate().unwrap();
        let parsed = Trace::parse_events_text(&empty.events_text()).unwrap();
        assert!(parsed.events.is_empty());
        // Single event: same story.
        let b = TraceBus::new(1, 1, CostModel::GIGABIT_LAN, true);
        b.on_charge(Phase::Finish, SimTime(0.25));
        let single = b.finish();
        assert_eq!(single.events.len(), 1);
        single.validate().unwrap();
        assert!(single.timeline().contains("1 events"));
        let parsed = Trace::parse_events_text(&single.events_text()).unwrap();
        assert_eq!(parsed.events, single.events);
    }

    #[test]
    fn timeline_names_tracks() {
        let b = bus();
        b.set_worker(Some(1));
        b.on_request(Phase::FindSplit, "pull_split", 480, 10, SimTime::ZERO);
        b.set_worker(None);
        b.on_charge(Phase::FindSplit, SimTime(0.01));
        let t = b.finish().timeline();
        assert!(t.contains("worker 1"));
        assert!(t.contains("net"));
        assert!(t.contains("find_split"));
    }
}
