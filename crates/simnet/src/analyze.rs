//! Deterministic trace analytics: the profiler behind `train --profile`
//! and the CLI `analyze` subcommand.
//!
//! The trace ([`crate::trace`]) records *what happened*; this module
//! explains *why the run took as long as it did*. [`analyze_trace`] is a
//! pure pass over a finished [`Trace`] computing:
//!
//! * **Critical-path decomposition.** The clock model is barrier-
//!   synchronous: simulated time advances only through Collective charges
//!   and synchronous Requests, in sequence order. The chain of those
//!   clock-advancing events *is* the dependency chain that bounds the run —
//!   every other event (service, compute, fault) happens inside one of its
//!   segments. The profiler replays the chain and asserts the structural
//!   identity **`critical_path_total == final sim time` bit-exactly**: the
//!   segments must tile `[0, T]` with every boundary equal on exact f64
//!   bits, because each segment's begin was produced by the same
//!   `now += dur` fold the profiler re-runs. Segments are attributed to
//!   `(track, phase)` and merged into per-round entries.
//! * **Utilization and wait decomposition.** Per-track busy/idle against
//!   the clock span (`busy + idle == span` by construction, with
//!   `busy <= span` enforced as a conservation check), plus the PS split of
//!   server time into queue wait vs service. Service events are replayed
//!   against per-server cursors exactly as the bus computed them
//!   (`start = cursor.max(arrival)`), so a corrupted service duration is
//!   caught at the next event on that server.
//! * **Fault stretch attribution.** Fault events carry the extra simulated
//!   time each injected fault cost; their fold is the stretch over the
//!   fault-free schedule, reported per fault kind with
//!   `faultfree_estimate_secs = total − stretch`.
//! * **Membership (elasticity) stretch attribution.** Mirrors the fault
//!   stretch for the elastic-membership lane: joins, leaves, stripe
//!   handoffs, elastic dilation, and speculative backups each carry the
//!   simulated time they added, folded per event name next to the fault
//!   stretch.
//! * **Folded-stacks export.** `track;phase;name value` lines (value =
//!   integer nanoseconds of simulated time) in the format flamegraph
//!   renderers consume.
//!
//! Everything lands in a canonical `{"kind":"trace_profile"}` JSON document
//! ([`TraceProfile::canonical_json`]): pure simulated clock, f64s printed
//! with shortest-round-trip formatting, byte-identical across reruns —
//! `report_diff` gates it in CI exactly like run and serving reports.
//!
//! # Float-fold caveat (why there are two totals)
//!
//! `total_secs` is the sequence-order fold of segment durations — the exact
//! computation that produced the clock, hence the bit-exact identity.
//! `attributed_secs` re-folds the same durations grouped per
//! `(track, phase)` bucket; f64 addition is not associative, so the grouped
//! fold may differ from the sequence fold in the last ulps. The profiler
//! checks the two agree to a documented 1e-9 relative tolerance (and that
//! the integer event/byte attributions agree *exactly*) — the same reason
//! [`crate::CommLedger`] defines its total as the fold of its per-phase
//! buckets rather than keeping two float totals.

use std::collections::BTreeMap;

use crate::emit::JsonWriter;
use crate::trace::{EventKind, Trace, Track};
use crate::Phase;

/// Why a trace failed analysis. Every variant is a structural violation of
/// the clock model — an analyzer gate, not a parse problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// The event stream failed [`crate::trace::validate_events`].
    Invalid(String),
    /// The critical-path identity is broken: the clock-advancing chain does
    /// not tile `[0, final sim time]` bit-exactly.
    CriticalPath(String),
    /// A conservation identity is broken: per-track `busy + idle == span`,
    /// the service-replay continuity, or the attribution sums.
    Conservation(String),
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::Invalid(m) => write!(f, "invalid trace: {m}"),
            AnalyzeError::CriticalPath(m) => write!(f, "critical-path identity broken: {m}"),
            AnalyzeError::Conservation(m) => write!(f, "conservation broken: {m}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// One merged run of consecutive critical-path segments sharing
/// `(round, phase)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PathEntry {
    /// Boosting round the entry belongs to (0 = pre-round setup; the first
    /// `new_tree` segment opens round 1).
    pub round: u64,
    /// Track code (`net`, `w0`, …) of the member contributing the most
    /// simulated time (first on ties).
    pub track: String,
    /// Phase every member shares.
    pub phase: Phase,
    /// Begin of the first member on the simulated clock.
    pub begin_secs: f64,
    /// Sequence-order fold of the members' durations.
    pub secs: f64,
    /// Member segment count.
    pub events: u64,
    /// Member payload bytes.
    pub bytes: u64,
}

/// Total simulated time attributed to one `(track, phase)` pair across the
/// whole critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Track code (`net`, `w0`, …).
    pub track: String,
    /// Phase.
    pub phase: Phase,
    /// Sequence-order fold of this bucket's segment durations.
    pub secs: f64,
    /// Segments in the bucket.
    pub events: u64,
    /// Payload bytes in the bucket.
    pub bytes: u64,
}

/// The critical path: the chain of clock-advancing events and where its
/// time went.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Sequence-order fold of every segment duration. Bit-exactly equal to
    /// the final simulated time (checked by [`analyze_trace`]).
    pub total_secs: f64,
    /// Fold of the attribution buckets in `(track, phase)` order — agrees
    /// with `total_secs` up to float regrouping (see module docs).
    pub attributed_secs: f64,
    /// Clock-advancing segments on the path.
    pub segments: u64,
    /// Consecutive segments merged per `(round, phase)`.
    pub entries: Vec<PathEntry>,
    /// Per-`(track, phase)` totals, sorted by track code then phase order.
    pub attribution: Vec<Attribution>,
}

/// One boosting round's share of the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundProfile {
    /// Round index (0 = pre-round setup).
    pub round: u64,
    /// First segment begin.
    pub begin_secs: f64,
    /// Last segment end.
    pub end_secs: f64,
    /// Sequence-order fold of the round's segment durations.
    pub secs: f64,
    /// Segments in the round.
    pub segments: u64,
}

/// Busy/idle/blocked decomposition of one track against the clock span.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackUtilization {
    /// Track code (`net`, `w0`, `s1`, `fault`).
    pub track: String,
    /// Events on the track.
    pub events: u64,
    /// Fold of the track's simulated durations.
    pub busy_secs: f64,
    /// `span − busy` (non-negative by the conservation check).
    pub idle_secs: f64,
    /// Time the track's work sat queued (servers: the fold of service
    /// queue waits; zero elsewhere).
    pub blocked_secs: f64,
    /// Payload bytes on the track.
    pub bytes: u64,
}

/// The parameter-server queue-wait vs service split.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PsProfile {
    /// Derived service events across all servers.
    pub service_events: u64,
    /// Fold of service durations (γ-model merge time).
    pub service_secs: f64,
    /// Fold of queue waits (`start − arrival`).
    pub queue_wait_secs: f64,
    /// Deepest per-server backlog observed.
    pub max_queue_depth: u64,
}

/// Fault-stretch attribution for one fault kind.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultKind {
    /// Fault event name (`retry_backoff`, `outage_wait`, …).
    pub name: String,
    /// Events of this kind.
    pub events: u64,
    /// Fold of their durations.
    pub secs: f64,
}

/// Stretch the injected faults added over the fault-free schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStretch {
    /// Fault events recorded.
    pub events: u64,
    /// Fold of every fault duration: the schedule stretch.
    pub stretch_secs: f64,
    /// `total − stretch`: what the run would have cost fault-free.
    pub faultfree_estimate_secs: f64,
    /// Per-kind breakdown, sorted by name.
    pub by_name: Vec<FaultKind>,
}

/// Stretch that elastic membership (joins, leaves, heterogeneous speeds,
/// speculative backups) added over the fixed-membership schedule. Mirrors
/// [`FaultStretch`] on the membership lane; the per-kind rows reuse
/// [`FaultKind`].
#[derive(Debug, Clone, PartialEq)]
pub struct MembershipStretch {
    /// Membership events recorded.
    pub events: u64,
    /// Fold of every membership duration: the elasticity stretch.
    pub stretch_secs: f64,
    /// `total − stretch`: what the run would have cost with fixed
    /// membership and uniform hardware.
    pub fixed_estimate_secs: f64,
    /// Per-kind breakdown (`join`, `stripe_handoff`, `elastic_dilation`,
    /// `backup_win`, …), sorted by name.
    pub by_name: Vec<FaultKind>,
}

/// The full profile of one training trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    /// Worker count.
    pub workers: usize,
    /// Server count.
    pub servers: usize,
    /// Events in the trace.
    pub events: u64,
    /// Final simulated time: the sequence-order fold of every
    /// clock-advancing duration (== `critical_path.total_secs`).
    pub sim_end_secs: f64,
    /// The critical path and its attribution.
    pub critical_path: CriticalPath,
    /// Per-round share of the path.
    pub rounds: Vec<RoundProfile>,
    /// Per-track busy/idle/blocked decomposition.
    pub utilization: Vec<TrackUtilization>,
    /// PS queue-wait vs service split.
    pub ps: PsProfile,
    /// Fault stretch, when the trace has a fault lane.
    pub faults: Option<FaultStretch>,
    /// Elasticity stretch, when the trace has a membership lane.
    pub membership: Option<MembershipStretch>,
    /// Folded flamegraph stacks: `track;phase;name` → integer nanoseconds.
    pub stacks: Vec<(String, u64)>,
}

/// Relative tolerance for the regrouped attribution fold (see module docs).
const REGROUP_TOL: f64 = 1e-9;

/// `total += add` for a count read from the trace: a parsed-but-hostile
/// events file can carry counters whose sum leaves `u64` (a panic in debug
/// builds, a silent wrap in release), so every such sum is checked.
fn checked_total(total: &mut u64, add: u64, what: &str, seq: u64) -> Result<(), AnalyzeError> {
    *total = total.checked_add(add).ok_or_else(|| {
        AnalyzeError::Invalid(format!("event seq {seq}: {what} total overflows u64"))
    })?;
    Ok(())
}

/// Analyzes a finished trace. Pure and deterministic: equal traces produce
/// equal profiles, and [`TraceProfile::canonical_json`] is byte-identical
/// across reruns of the same configuration.
///
/// # Errors
/// [`AnalyzeError::Invalid`] when the stream fails structural validation,
/// [`AnalyzeError::CriticalPath`] when the clock-advancing chain does not
/// tile `[0, T]` bit-exactly, and [`AnalyzeError::Conservation`] when a
/// track's busy time exceeds the clock span, the service replay diverges,
/// or the attribution does not sum back to the total.
pub fn analyze_trace(trace: &Trace) -> Result<TraceProfile, AnalyzeError> {
    trace.validate().map_err(AnalyzeError::Invalid)?;

    // --- Sequence-order replay state -----------------------------------
    let mut clock = 0.0f64; // replicates BusState::now
    let mut last_arrival = 0.0f64; // clock when the last request was issued

    // Replicates server_busy / server_pending: one `(busy, pending, barrier
    // seen)` entry per server, created on first use, so the header's
    // server count is a bound to check and never an allocation size.
    // `barrier` is the clock and ordinal of the last charge; an entry that
    // predates it is drained before use.
    let mut queues: BTreeMap<u32, (f64, u64, u64)> = BTreeMap::new();
    let mut barrier = (0.0f64, 0u64);

    let mut segments = 0u64;
    let mut round = 0u64;
    let mut in_new_tree = false;
    let mut entries: Vec<PathEntry> = Vec::new();
    let mut entry_best: (f64, String) = (f64::NEG_INFINITY, String::new());
    let mut rounds: Vec<RoundProfile> = Vec::new();
    let mut attribution: BTreeMap<(String, usize), (f64, u64, u64)> = BTreeMap::new();
    let mut tracks: BTreeMap<u64, (String, u64, f64, f64, u64)> = BTreeMap::new();
    let mut ps = PsProfile::default();
    let mut fault_events = 0u64;
    let mut fault_stretch = 0.0f64;
    let mut fault_kinds: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    let mut membership_events = 0u64;
    let mut membership_stretch = 0.0f64;
    let mut membership_kinds: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();

    for e in &trace.events {
        let dur = e.sim_dur.0;
        let code = e.track.code();

        // Per-track busy/events/bytes (idle is derived at the end).
        {
            let entry = tracks
                .entry(e.track.tid())
                .or_insert_with(|| (code.clone(), 0, 0.0, 0.0, 0));
            entry.1 += 1;
            entry.2 += dur;
            checked_total(&mut entry.4, e.bytes, "per-track byte", e.seq)?;
        }

        // Folded stacks: simulated time by (track, phase, name).
        if dur > 0.0 {
            let ns = (dur * 1e9).round() as u64;
            let stack = stacks
                .entry(format!("{};{};{}", code, e.phase.name(), e.name))
                .or_insert(0);
            checked_total(stack, ns, "folded-stack nanosecond", e.seq)?;
        }

        match e.kind {
            EventKind::Collective | EventKind::Request => {
                // A clock-advancing segment must begin exactly where the
                // replayed clock stands — the tiling half of the identity.
                if e.begin.0.to_bits() != clock.to_bits() {
                    return Err(AnalyzeError::CriticalPath(format!(
                        "segment seq {} ({}/{}) begins at {} but the clock stands at {} — \
                         the critical path does not tile the run",
                        e.seq,
                        code,
                        e.phase.name(),
                        e.begin.0,
                        clock
                    )));
                }
                segments += 1;
                if e.phase == Phase::NewTree && !in_new_tree {
                    round += 1;
                }
                in_new_tree = e.phase == Phase::NewTree;

                // Merge into the open (round, phase) entry, or open one.
                let same = entries
                    .last()
                    .is_some_and(|p| p.round == round && p.phase == e.phase);
                if same {
                    let p = entries.last_mut().expect("just checked");
                    p.secs += dur;
                    p.events += 1;
                    checked_total(&mut p.bytes, e.bytes, "critical-path byte", e.seq)?;
                } else {
                    entries.push(PathEntry {
                        round,
                        track: code.clone(),
                        phase: e.phase,
                        begin_secs: e.begin.0,
                        secs: dur,
                        events: 1,
                        bytes: e.bytes,
                    });
                    entry_best = (f64::NEG_INFINITY, String::new());
                }
                if dur > entry_best.0 {
                    entry_best = (dur, code.clone());
                    entries.last_mut().expect("pushed above").track = entry_best.1.clone();
                }

                // Per-round totals.
                let same_round = rounds.last().is_some_and(|r| r.round == round);
                if same_round {
                    let r = rounds.last_mut().expect("just checked");
                    r.secs += dur;
                    r.segments += 1;
                    r.end_secs = e.begin.0 + dur;
                } else {
                    rounds.push(RoundProfile {
                        round,
                        begin_secs: e.begin.0,
                        end_secs: e.begin.0 + dur,
                        secs: dur,
                        segments: 1,
                    });
                }

                // Per-(track, phase) attribution bucket.
                let bucket = attribution
                    .entry((code.clone(), e.phase.index()))
                    .or_insert((0.0, 0, 0));
                bucket.0 += dur;
                bucket.1 += 1;
                checked_total(&mut bucket.2, e.bytes, "attribution byte", e.seq)?;

                if e.kind == EventKind::Request {
                    last_arrival = clock;
                }
                clock += dur; // replicates `st.now += time.0`
                if e.kind == EventKind::Collective {
                    // The barrier drains every server queue.
                    barrier = (clock, barrier.1 + 1);
                }
            }
            EventKind::Service => {
                let Track::Server(s) = e.track else {
                    return Err(AnalyzeError::Invalid(format!(
                        "service event seq {} off a server track",
                        e.seq
                    )));
                };
                if s as usize >= trace.servers {
                    return Err(AnalyzeError::Invalid(format!(
                        "service event seq {} on server {s} but the trace declares {}",
                        e.seq, trace.servers
                    )));
                }
                let (busy, pending, seen) = queues.entry(s).or_insert((0.0, 0, 0));
                if *seen != barrier.1 {
                    // The clock never runs backwards, so the latest barrier
                    // subsumes every earlier one this queue slept through.
                    (*busy, *pending, *seen) = (busy.max(barrier.0), 0, barrier.1);
                }
                // Replay the bus arithmetic exactly: start = busy.max(arrival).
                let expected = busy.max(last_arrival);
                if e.begin.0.to_bits() != expected.to_bits() {
                    return Err(AnalyzeError::Conservation(format!(
                        "service seq {} on s{s} begins at {} but the replayed cursor \
                         expects {} — the queue-wait/service split does not conserve",
                        e.seq, e.begin.0, expected
                    )));
                }
                let wait = e.begin.0 - last_arrival;
                if e.begin.0 > last_arrival {
                    *pending += 1;
                } else {
                    *pending = 0;
                }
                ps.max_queue_depth = ps.max_queue_depth.max(*pending);
                ps.service_events += 1;
                ps.service_secs += dur;
                ps.queue_wait_secs += wait;
                *busy = e.begin.0 + dur;
                let entry = tracks.get_mut(&e.track.tid()).expect("inserted above");
                entry.3 += wait;
            }
            EventKind::Fault => {
                fault_events += 1;
                fault_stretch += dur;
                let kind = fault_kinds.entry(e.name.to_string()).or_insert((0, 0.0));
                kind.0 += 1;
                kind.1 += dur;
            }
            EventKind::Membership => {
                membership_events += 1;
                membership_stretch += dur;
                let kind = membership_kinds
                    .entry(e.name.to_string())
                    .or_insert((0, 0.0));
                kind.0 += 1;
                kind.1 += dur;
            }
            EventKind::Compute => {}
        }
    }

    // --- Identity checks ------------------------------------------------
    // Tiling verified every segment; the fold half is structural given it,
    // but assert it anyway so the gate is self-contained.
    if let Some(last) = trace
        .events
        .iter()
        .rev()
        .find(|e| e.kind.counts_toward_ledger())
    {
        if clock.to_bits() != last.end().0.to_bits() {
            return Err(AnalyzeError::CriticalPath(format!(
                "critical-path total {} != final sim time {}",
                clock,
                last.end().0
            )));
        }
    }
    let span = clock;

    // Attribution rows, sorted by track code then phase order, and the
    // regrouped fold checked against the sequence fold.
    let attribution: Vec<Attribution> = attribution
        .into_iter()
        .map(|((track, phase), (secs, events, bytes))| Attribution {
            track,
            phase: Phase::ALL[phase],
            secs,
            events,
            bytes,
        })
        .collect();
    let attributed_secs = attribution.iter().map(|a| a.secs).sum::<f64>();
    let attributed_events = attribution.iter().map(|a| a.events).sum::<u64>();
    if attributed_events != segments {
        return Err(AnalyzeError::Conservation(format!(
            "attribution covers {attributed_events} segments but the path has {segments}"
        )));
    }
    if (attributed_secs - span).abs() > REGROUP_TOL * span.max(1.0) {
        return Err(AnalyzeError::Conservation(format!(
            "attribution sums to {attributed_secs} but the critical path totals {span}"
        )));
    }

    // Utilization in stable track order; busy must fit inside the span.
    let mut utilization = Vec::with_capacity(tracks.len());
    for (_, (track, events, busy, blocked, bytes)) in tracks {
        if busy > span {
            return Err(AnalyzeError::Conservation(format!(
                "track {track}: busy {busy} exceeds the clock span {span} \
                 (busy + idle == span conservation broken)"
            )));
        }
        utilization.push(TrackUtilization {
            track,
            events,
            busy_secs: busy,
            idle_secs: span - busy,
            blocked_secs: blocked,
            bytes,
        });
    }

    let faults = (fault_events > 0).then(|| FaultStretch {
        events: fault_events,
        stretch_secs: fault_stretch,
        faultfree_estimate_secs: span - fault_stretch,
        by_name: fault_kinds
            .into_iter()
            .map(|(name, (events, secs))| FaultKind { name, events, secs })
            .collect(),
    });

    let membership = (membership_events > 0).then(|| MembershipStretch {
        events: membership_events,
        stretch_secs: membership_stretch,
        fixed_estimate_secs: span - membership_stretch,
        by_name: membership_kinds
            .into_iter()
            .map(|(name, (events, secs))| FaultKind { name, events, secs })
            .collect(),
    });

    Ok(TraceProfile {
        workers: trace.workers,
        servers: trace.servers,
        events: trace.events.len() as u64,
        sim_end_secs: span,
        critical_path: CriticalPath {
            total_secs: clock,
            attributed_secs,
            segments,
            entries,
            attribution,
        },
        rounds,
        utilization,
        ps,
        faults,
        membership,
        stacks: stacks.into_iter().collect(),
    })
}

impl TraceProfile {
    /// The canonical `{"kind":"trace_profile","source":"train"}` JSON
    /// document: pure simulated clock, byte-identical across reruns of the
    /// same configuration, gateable by `report_diff`.
    pub fn canonical_json(&self) -> String {
        let by_name = |w: &mut JsonWriter, kinds: &[FaultKind]| {
            w.array("by_name", kinds, |w, k| {
                w.elem_object(|w| {
                    w.str("name", &k.name);
                    w.u64("events", k.events);
                    w.f64("secs", k.secs);
                })
            })
        };
        let mut w = JsonWriter::canonical();
        w.str("kind", "trace_profile");
        w.str("source", "train");
        w.u64("workers", self.workers as u64);
        w.u64("servers", self.servers as u64);
        w.u64("events", self.events);
        w.f64("sim_end_secs", self.sim_end_secs);
        w.object("critical_path", |w| {
            let path = &self.critical_path;
            w.f64("total_secs", path.total_secs);
            w.f64("attributed_secs", path.attributed_secs);
            w.u64("segments", path.segments);
            w.array("attribution", &path.attribution, |w, a| {
                w.elem_object(|w| {
                    w.str("track", &a.track);
                    w.str("phase", a.phase.name());
                    w.f64("secs", a.secs);
                    w.u64("events", a.events);
                    w.u64("bytes", a.bytes);
                })
            });
            w.array("entries", &path.entries, |w, p| {
                w.elem_object(|w| {
                    w.u64("round", p.round);
                    w.str("track", &p.track);
                    w.str("phase", p.phase.name());
                    w.f64("begin_secs", p.begin_secs);
                    w.f64("secs", p.secs);
                    w.u64("events", p.events);
                    w.u64("bytes", p.bytes);
                })
            });
        });
        w.array("rounds", &self.rounds, |w, r| {
            w.elem_object(|w| {
                w.u64("round", r.round);
                w.f64("begin_secs", r.begin_secs);
                w.f64("end_secs", r.end_secs);
                w.f64("secs", r.secs);
                w.u64("segments", r.segments);
            })
        });
        w.array("utilization", &self.utilization, |w, u| {
            w.elem_object(|w| {
                w.str("track", &u.track);
                w.u64("events", u.events);
                w.f64("busy_secs", u.busy_secs);
                w.f64("idle_secs", u.idle_secs);
                w.f64("blocked_secs", u.blocked_secs);
                w.u64("bytes", u.bytes);
            })
        });
        w.object("ps", |w| {
            w.u64("service_events", self.ps.service_events);
            w.f64("service_secs", self.ps.service_secs);
            w.f64("queue_wait_secs", self.ps.queue_wait_secs);
            w.u64("max_queue_depth", self.ps.max_queue_depth);
        });
        if let Some(f) = &self.faults {
            w.object("faults", |w| {
                w.u64("events", f.events);
                w.f64("stretch_secs", f.stretch_secs);
                w.f64("faultfree_estimate_secs", f.faultfree_estimate_secs);
                by_name(w, &f.by_name);
            });
        }
        if let Some(m) = &self.membership {
            w.object("membership", |w| {
                w.u64("events", m.events);
                w.f64("stretch_secs", m.stretch_secs);
                w.f64("fixed_estimate_secs", m.fixed_estimate_secs);
                by_name(w, &m.by_name);
            });
        }
        w.finish()
    }

    /// Folded flamegraph stacks: one `track;phase;name value` line per
    /// stack, value in integer simulated nanoseconds, sorted by stack —
    /// pipe straight into `flamegraph.pl` or load in speedscope.
    pub fn folded_stacks(&self) -> String {
        let mut out = String::with_capacity(self.stacks.len() * 48);
        for (stack, ns) in &self.stacks {
            out.push_str(&format!("{stack} {ns}\n"));
        }
        out
    }

    /// Human-readable summary: the headline identity, per-round totals, and
    /// the `top` largest attribution buckets.
    pub fn summary(&self, top: usize) -> String {
        let mut out = format!(
            "trace profile: {} events, {} workers + {} servers, sim clock ends at {:.6}s\n\
             critical path: {} segments, total {:.6}s (== final sim time, bit-exact)\n",
            self.events,
            self.workers,
            self.servers,
            self.sim_end_secs,
            self.critical_path.segments,
            self.critical_path.total_secs,
        );
        if self.ps.service_events > 0 {
            out.push_str(&format!(
                "ps: {} service events, service {:.6}s vs queue wait {:.6}s, max depth {}\n",
                self.ps.service_events,
                self.ps.service_secs,
                self.ps.queue_wait_secs,
                self.ps.max_queue_depth
            ));
        }
        if let Some(f) = &self.faults {
            out.push_str(&format!(
                "faults: {} events stretched the schedule by {:.6}s (fault-free estimate {:.6}s)\n",
                f.events, f.stretch_secs, f.faultfree_estimate_secs
            ));
        }
        if let Some(m) = &self.membership {
            out.push_str(&format!(
                "membership: {} events stretched the schedule by {:.6}s \
                 (fixed-membership estimate {:.6}s)\n",
                m.events, m.stretch_secs, m.fixed_estimate_secs
            ));
        }
        out.push_str(&format!(
            "top {} critical-path contributors by (track, phase):\n",
            top.min(self.critical_path.attribution.len())
        ));
        out.push_str(&format!(
            "{:<8} {:<16} {:>12} {:>8} {:>12} {:>7}\n",
            "track", "phase", "secs", "events", "bytes", "share"
        ));
        let mut ranked: Vec<&Attribution> = self.critical_path.attribution.iter().collect();
        ranked.sort_by(|a, b| {
            b.secs
                .total_cmp(&a.secs)
                .then_with(|| a.track.cmp(&b.track))
                .then_with(|| a.phase.index().cmp(&b.phase.index()))
        });
        for a in ranked.into_iter().take(top) {
            let share = if self.sim_end_secs > 0.0 {
                a.secs / self.sim_end_secs * 100.0
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<8} {:<16} {:>12.6} {:>8} {:>12} {:>6.1}%\n",
                a.track,
                a.phase.name(),
                a.secs,
                a.events,
                a.bytes,
                share
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Lane, TraceBus};
    use crate::{CostModel, SimTime};

    /// A small but representative bus: setup, two rounds with queued
    /// service events, a trailing finish barrier.
    fn sample_trace() -> Trace {
        let b = TraceBus::new(3, 2, CostModel::GIGABIT_LAN, true);
        b.set_worker(None);
        b.on_charge(Phase::CreateSketch, SimTime(0.02));
        for round in 0..2 {
            b.on_charge(Phase::NewTree, SimTime(0.001));
            for w in 0..3 {
                b.set_worker(Some(w));
                b.on_request(
                    Phase::BuildHistogram,
                    "push_histogram",
                    1_000_000,
                    2,
                    SimTime::ZERO,
                );
            }
            b.set_worker(None);
            b.on_charge(Phase::BuildHistogram, SimTime(0.25 + round as f64 * 0.01));
            b.set_worker(Some(0));
            b.on_request(Phase::FindSplit, "pull_split", 96, 2, SimTime(1e-5));
            b.set_worker(None);
            b.on_charge(Phase::FindSplit, SimTime(0.05));
        }
        b.on_charge(Phase::Finish, SimTime(0.01));
        b.finish()
    }

    #[test]
    fn critical_path_total_equals_final_sim_time_bit_exactly() {
        let trace = sample_trace();
        let profile = analyze_trace(&trace).unwrap();
        // The headline identity, compared on exact bits.
        let last_end = trace
            .events
            .iter()
            .rfind(|e| e.kind.counts_toward_ledger())
            .unwrap()
            .end()
            .0;
        assert_eq!(
            profile.critical_path.total_secs.to_bits(),
            last_end.to_bits()
        );
        assert_eq!(profile.sim_end_secs.to_bits(), last_end.to_bits());
        // Attribution covers every segment exactly and sums back to the
        // total (float regrouping tolerance; integer counts exact).
        let events: u64 = profile
            .critical_path
            .attribution
            .iter()
            .map(|a| a.events)
            .sum();
        assert_eq!(events, profile.critical_path.segments);
        assert!(
            (profile.critical_path.attributed_secs - profile.critical_path.total_secs).abs()
                <= 1e-9 * profile.critical_path.total_secs.max(1.0)
        );
        // Two boosting rounds plus the setup pseudo-round.
        assert_eq!(profile.rounds.len(), 3);
        assert_eq!(profile.rounds[0].round, 0);
        assert_eq!(profile.rounds[2].round, 2);
    }

    #[test]
    fn utilization_and_ps_split_conserve() {
        let profile = analyze_trace(&sample_trace()).unwrap();
        let span = profile.sim_end_secs;
        for u in &profile.utilization {
            // busy + idle == span is structural; both halves non-negative.
            assert!(u.busy_secs >= 0.0 && u.idle_secs >= 0.0, "{u:?}");
            assert_eq!(
                (u.busy_secs + u.idle_secs).to_bits(),
                (u.busy_secs + (span - u.busy_secs)).to_bits()
            );
        }
        // Three concurrent 1 MB pushes against two servers must queue.
        assert!(profile.ps.service_events > 0);
        assert!(profile.ps.queue_wait_secs > 0.0, "{:?}", profile.ps);
        assert!(profile.ps.max_queue_depth >= 1);
        let servers: f64 = profile
            .utilization
            .iter()
            .filter(|u| u.track.starts_with('s'))
            .map(|u| u.blocked_secs)
            .sum();
        assert_eq!(servers.to_bits(), {
            // blocked on server tracks is exactly the PS queue wait, split
            // per server — regrouped fold, so compare with tolerance.
            assert!((servers - profile.ps.queue_wait_secs).abs() <= 1e-12);
            servers.to_bits()
        });
    }

    #[test]
    fn corrupted_duration_breaks_the_critical_path_identity() {
        let mut trace = sample_trace();
        // Shrink a mid-stream collective: the next segment's begin no
        // longer matches the replayed clock (a gap — validate_events still
        // passes because gaps are legal per track).
        let idx = trace
            .events
            .iter()
            .position(|e| e.kind == EventKind::Collective && e.sim_dur.0 > 0.1)
            .unwrap();
        trace.events[idx].sim_dur = SimTime(0.0);
        trace.validate().expect("gapped trace still validates");
        match analyze_trace(&trace) {
            Err(AnalyzeError::CriticalPath(m)) => {
                assert!(m.contains("does not tile"), "{m}")
            }
            other => panic!("expected CriticalPath, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_service_breaks_conservation() {
        let mut trace = sample_trace();
        // Inflate the last service event on its server far beyond the run:
        // busy exceeds the clock span on that track.
        let idx = trace
            .events
            .iter()
            .rposition(|e| e.kind == EventKind::Service)
            .unwrap();
        trace.events[idx].sim_dur = SimTime(99.0);
        match analyze_trace(&trace) {
            Err(AnalyzeError::Conservation(m)) => {
                assert!(m.contains("conserve") || m.contains("conservation"), "{m}")
            }
            other => panic!("expected Conservation, got {other:?}"),
        }
        // A mid-stream service duration corruption is caught by the replay
        // continuity check (or, when it overlaps, by validation).
        let mut trace = sample_trace();
        let idx = trace
            .events
            .iter()
            .position(|e| e.kind == EventKind::Service)
            .unwrap();
        trace.events[idx].sim_dur = SimTime(0.0);
        assert!(analyze_trace(&trace).is_err());
    }

    #[test]
    fn profile_json_is_deterministic_and_canonical() {
        let a = analyze_trace(&sample_trace()).unwrap();
        let b = analyze_trace(&sample_trace()).unwrap();
        assert_eq!(a, b);
        let ja = a.canonical_json();
        assert_eq!(ja, b.canonical_json());
        assert!(ja.starts_with("{\"kind\":\"trace_profile\",\"source\":\"train\","));
        assert!(!ja.contains("wall"), "profiles must stay wall-clock free");
        // The events-text round trip yields the same profile byte for byte:
        // offline analysis == in-process analysis.
        let trace = sample_trace();
        let parsed = Trace::parse_events_text(&trace.events_text()).unwrap();
        assert_eq!(analyze_trace(&parsed).unwrap().canonical_json(), ja);
    }

    #[test]
    fn folded_stacks_render_track_phase_name() {
        let profile = analyze_trace(&sample_trace()).unwrap();
        let folded = profile.folded_stacks();
        assert!(folded.contains("net;build_histogram;build_histogram "));
        assert!(folded.contains("s0;build_histogram;push_histogram "));
        for line in folded.lines() {
            let (stack, value) = line.rsplit_once(' ').unwrap();
            assert_eq!(stack.split(';').count(), 3, "{line}");
            let _: u64 = value.parse().unwrap();
        }
    }

    #[test]
    fn hostile_byte_counters_are_an_error_not_an_overflow() {
        // Well-formed text, counters no run could produce: two segments of
        // one (round, phase) whose bytes sum past u64.
        let text = "# dimboost-trace-events v1 workers=1 servers=1 events=2\n\
            event seq=0 track=net kind=collective phase=finish name=finish begin=0 dur=0.5 bytes=18446744073709551615 pkgs=18446744073709551615\n\
            event seq=1 track=net kind=collective phase=finish name=finish begin=0.5 dur=0.5 bytes=18446744073709551615 pkgs=18446744073709551615\n";
        let trace = Trace::parse_events_text(text).unwrap();
        match analyze_trace(&trace) {
            Err(AnalyzeError::Invalid(m)) => {
                assert!(m.contains("byte total overflows u64"), "{m}")
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        // One such event alone is merely odd.
        let one = text.replace("events=2", "events=1");
        let one = one.lines().take(2).collect::<Vec<_>>().join("\n") + "\n";
        assert!(analyze_trace(&Trace::parse_events_text(&one).unwrap()).is_ok());
    }

    #[test]
    fn empty_trace_profiles_cleanly() {
        let empty = TraceBus::new(1, 1, CostModel::GIGABIT_LAN, true).finish();
        let profile = analyze_trace(&empty).unwrap();
        assert_eq!(profile.sim_end_secs, 0.0);
        assert_eq!(profile.critical_path.segments, 0);
        assert!(profile.utilization.is_empty());
        assert!(profile.faults.is_none());
        assert!(profile.canonical_json().contains("\"events\":0,"));
    }

    #[test]
    fn fault_stretch_is_attributed() {
        let b = TraceBus::new(1, 1, CostModel::GIGABIT_LAN, true);
        b.on_lane(
            Lane::Fault,
            Phase::BuildHistogram,
            "retry_backoff",
            SimTime(0.01),
            0,
            1,
        );
        b.on_charge(Phase::BuildHistogram, SimTime(0.05));
        b.on_charge(Phase::Finish, SimTime(0.01));
        let profile = analyze_trace(&b.finish()).unwrap();
        let f = profile.faults.expect("fault lane present");
        assert_eq!(f.events, 1);
        assert_eq!(f.by_name[0].name, "retry_backoff");
        assert!((f.stretch_secs - 0.01).abs() < 1e-15);
        assert!(f.faultfree_estimate_secs < profile.sim_end_secs);
        assert!(profile.membership.is_none());
    }

    #[test]
    fn membership_stretch_is_attributed_next_to_faults() {
        let b = TraceBus::new(2, 1, CostModel::GIGABIT_LAN, true);
        b.on_lane(
            Lane::Membership,
            Phase::NewTree,
            "join",
            SimTime::ZERO,
            0,
            1,
        );
        b.on_lane(
            Lane::Membership,
            Phase::NewTree,
            "stripe_handoff",
            SimTime(0.02),
            4096,
            1,
        );
        b.on_charge(Phase::NewTree, SimTime(0.03));
        b.on_lane(
            Lane::Membership,
            Phase::BuildHistogram,
            "elastic_dilation",
            SimTime(0.05),
            0,
            1,
        );
        b.on_charge(Phase::BuildHistogram, SimTime(0.15));
        b.on_charge(Phase::Finish, SimTime(0.01));
        let profile = analyze_trace(&b.finish()).unwrap();
        let m = profile.membership.clone().expect("membership lane present");
        assert_eq!(m.events, 3);
        assert!((m.stretch_secs - 0.07).abs() < 1e-15);
        assert!(
            (m.fixed_estimate_secs - (profile.sim_end_secs - 0.07)).abs() < 1e-15,
            "{m:?}"
        );
        let names: Vec<&str> = m.by_name.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names, vec!["elastic_dilation", "join", "stripe_handoff"]);
        // No fault lane in this trace; the sections are independent.
        assert!(profile.faults.is_none());
        let json = profile.canonical_json();
        assert!(json.contains("\"membership\":{\"events\":3,"));
        assert!(json.contains("\"fixed_estimate_secs\""));
        assert!(!json.contains("wall"), "profiles must stay wall-clock free");
        assert!(profile.summary(5).contains("membership: 3 events"));
    }
}
