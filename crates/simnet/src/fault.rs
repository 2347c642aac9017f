//! Deterministic fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] is a *seeded, pure* description of everything that goes
//! wrong during a run: per-message drop/duplication probabilities, transient
//! server-partition outage windows, per-worker straggler slowdown factors,
//! a worker crash at round *k*, and permanently lost workers with a
//! degradation policy. Every stochastic decision is a hash of
//! `(plan seed, worker, message seq, attempt)` — not a stateful RNG — so the
//! fate of a message does not depend on the order in which other messages
//! were faulted, and the same plan replays the identical fault schedule on
//! every rerun.
//!
//! # The exactness invariant
//!
//! Faults may change *timing*, never the *learned model*. The retry loop in
//! `dimboost-ps` delivers every message exactly once to the server state
//! (per-worker sequence ids deduplicated server-side), records each logical
//! operation in the [`crate::CommLedger`] exactly once, and charges all
//! recovery overhead (timeouts, backoff, outage waits, straggler dilation)
//! as *pure simulated time* on the phase that suffered it. A faulted run
//! and a clean run with the same training seed therefore produce
//! bit-identical models and bit-identical per-phase byte/package counts;
//! only the `sim_time` columns and the `faults`/`membership` report
//! sections differ.
//!
//! # One cluster model
//!
//! Every session times its run against the stripe→machine overlay (see
//! [`FaultSession::membership_dilation`]), whatever lines the plan has: a
//! straggler is a per-machine rate factor, a redistributed loss is a cold
//! leave, and a join or leave re-homes stripes.
//!
//! Because everything lands on the simulated clock, a faulted run is itself
//! deterministic: rerunning it reproduces the same canonical report and
//! trace byte-for-byte.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::emit::JsonWriter;
use crate::kv::{self, Fields, LineError};
use crate::Phase;

/// Retries are capped; after this many attempts the network "heals" and the
/// message is force-delivered so every run terminates.
pub const MAX_ATTEMPTS: u32 = 64;

/// What happens to one delivery attempt of one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Delivered and acknowledged: the op applies and the client moves on.
    Deliver,
    /// Lost before reaching the server: nothing applies; the client times
    /// out, backs off, and retries.
    DropRequest,
    /// Applied server-side but the acknowledgement is lost: the client
    /// retries and the duplicate is absorbed by sequence-id deduplication.
    DropAck,
    /// Delivered twice (e.g. a retransmit raced the original): the second
    /// copy is absorbed by deduplication.
    Duplicate,
}

/// A per-worker slowdown: the worker's share of `phase` (all phases when
/// `None`) takes `factor`× as long on the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerSpec {
    /// Worker the slowdown applies to.
    pub worker: u32,
    /// Multiplicative slowdown (≥ 1.0).
    pub factor: f64,
    /// Phase the slowdown applies to; `None` = every phase.
    pub phase: Option<Phase>,
}

/// A transient window during which a server partition is unreachable:
/// operations arriving inside `[start, start + duration)` (simulated
/// seconds) block until the window ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageSpec {
    /// Server the outage hits (informational: the batched PS ops touch
    /// every partition, so any dark server blocks the op).
    pub server: u32,
    /// Window start on the simulated clock, in seconds.
    pub start: f64,
    /// Window length in seconds.
    pub duration: f64,
}

/// What the trainer does about a permanently lost worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossPolicy {
    /// The lost machine leaves the overlay cold, like `leave …
    /// policy=redistribute`: its stripes re-shard onto the survivors. Each
    /// stripe's computation (and its push/RNG streams) continue unchanged,
    /// so the model stays bit-identical; the adopters' heavier load
    /// dilates the simulated phase times instead.
    Redistribute,
    /// Abort the run with an error.
    Abort,
}

/// A worker that is permanently lost at the start of round `round`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossSpec {
    /// Worker that disappears.
    pub worker: u32,
    /// Round (0-based) at whose start the loss is detected.
    pub round: usize,
    /// Degradation policy.
    pub policy: LossPolicy,
}

/// A machine that joins the cluster at the start of round `round` and
/// receives a deterministic re-shard of logical stripes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinSpec {
    /// Machine id of the joiner (must not already be live).
    pub worker: u32,
    /// Round (0-based) at whose start the join takes effect.
    pub round: usize,
}

/// How a gracefully departing machine's stripes reach their new owners.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeavePolicy {
    /// The leaver streams its stripe state to the adopters before going
    /// dark: cheap per-stripe transfer charged as `handoff_secs`.
    Handoff,
    /// The leaver vanishes and the adopters re-read the stripes cold from
    /// the deterministic partition: charged as `reshard_secs` (2× the
    /// handoff byte cost).
    Redistribute,
}

/// A machine that gracefully leaves the cluster at the start of round
/// `round`, handing its stripes to the remaining machines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaveSpec {
    /// Machine id of the leaver (must be live; never the last machine).
    pub worker: u32,
    /// Round (0-based) at whose start the leave takes effect.
    pub round: usize,
    /// How the stripe state moves.
    pub policy: LeavePolicy,
}

/// A heterogeneous-hardware multiplier: every phase charged to `worker`
/// takes `factor`× as long on the simulated clock (≥ 1, stretch-only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedSpec {
    /// Machine id the multiplier applies to.
    pub worker: u32,
    /// Service-time multiplier (≥ 1.0).
    pub factor: f64,
}

/// A seeded, deterministic fault schedule. See the module docs for the
/// exactness invariant and [`FaultPlan::parse`] for the text format.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all per-message fate and jitter hashes.
    pub seed: u64,
    /// Probability a delivery attempt is lost before reaching the server.
    pub drop_p: f64,
    /// Probability an attempt applies but its acknowledgement is lost.
    pub ack_drop_p: f64,
    /// Probability an attempt is delivered twice.
    pub dup_p: f64,
    /// Client timeout before declaring an attempt lost, in simulated
    /// seconds.
    pub timeout_secs: f64,
    /// Base of the exponential backoff, in simulated seconds.
    pub backoff_base_secs: f64,
    /// Cap on a single backoff delay, in simulated seconds. The cap is a
    /// true upper bound: jitter multiplies the *capped* exponential term by
    /// a factor in `[0.5, 1)` and therefore never grows it, so every delay
    /// satisfies `delay <= backoff_max_secs` (see
    /// [`FaultPlan::backoff_secs`]).
    pub backoff_max_secs: f64,
    /// Straggler slowdowns.
    pub stragglers: Vec<StragglerSpec>,
    /// Server outage windows.
    pub outages: Vec<OutageSpec>,
    /// Crash the (non-resumed) run at the start of this round.
    pub crash_round: Option<usize>,
    /// Permanently lost workers.
    pub losses: Vec<LossSpec>,
    /// Machines joining the cluster mid-run.
    pub joins: Vec<JoinSpec>,
    /// Machines gracefully leaving the cluster mid-run.
    pub leaves: Vec<LeaveSpec>,
    /// Heterogeneous per-machine service-time multipliers.
    pub speeds: Vec<SpeedSpec>,
    /// Speculative-backup threshold: when a machine's phase time exceeds
    /// `threshold ×` the median, a backup machine replays its stripes and
    /// the earlier (bit-identical) result wins on the simulated clock.
    pub speculate_threshold: Option<f64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_p: 0.0,
            ack_drop_p: 0.0,
            dup_p: 0.0,
            timeout_secs: 0.05,
            backoff_base_secs: 0.01,
            backoff_max_secs: 1.0,
            stragglers: Vec::new(),
            outages: Vec::new(),
            crash_round: None,
            losses: Vec::new(),
            joins: Vec::new(),
            leaves: Vec::new(),
            speeds: Vec::new(),
            speculate_threshold: None,
        }
    }
}

/// SplitMix64-style avalanche over a running state word.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-independent hash of one decision point: pure in its coordinates,
/// so any consumer (fault fates here, the serving simulation's arrival
/// process) draws the same value no matter when or how often it asks.
pub fn decision_hash(seed: u64, worker: u32, seq: u64, attempt: u32, salt: u64) -> u64 {
    let mut h = mix64(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    h = mix64(h ^ u64::from(worker));
    h = mix64(h ^ seq);
    mix64(h ^ u64::from(attempt))
}

/// Maps a hash to a uniform value in `[0, 1)`.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// The fate of `attempt` (0-based) of message `seq` from `worker`.
    /// Pure in `(self.seed, worker, seq, attempt)`.
    pub fn fate(&self, worker: u32, seq: u64, attempt: u32) -> Fate {
        let u = unit(decision_hash(self.seed, worker, seq, attempt, 1));
        if u < self.drop_p {
            Fate::DropRequest
        } else if u < self.drop_p + self.ack_drop_p {
            Fate::DropAck
        } else if u < self.drop_p + self.ack_drop_p + self.dup_p {
            Fate::Duplicate
        } else {
            Fate::Deliver
        }
    }

    /// Exponential backoff with deterministic jitter for retrying `attempt`
    /// of `(worker, seq)`: `min(base · 2^attempt, max) · U[0.5, 1)` where
    /// `U` is hashed from the same coordinates. The jitter factor lies in
    /// `[0.5, 1)` (it can round up to 1.0 in U's top ulp), so the delay is
    /// bounded by
    /// `min(base · 2^attempt, max) / 2 <= delay <= min(base · 2^attempt, max)`
    /// — in particular `delay <= backoff_max_secs` always; the cap applies
    /// to the exponential term and jitter never grows it, so the cap holds
    /// *after* jitter. Pure in `(seed, worker, seq, attempt)`.
    pub fn backoff_secs(&self, worker: u32, seq: u64, attempt: u32) -> f64 {
        let exp = self.backoff_base_secs * 2f64.powi(attempt.min(48) as i32);
        let capped = exp.min(self.backoff_max_secs);
        let j = unit(decision_hash(self.seed, worker, seq, attempt, 2));
        capped * (0.5 + 0.5 * j)
    }

    /// How long an operation arriving at simulated time `now` must wait for
    /// all outage windows covering `now` to pass (0.0 when none do).
    pub fn outage_wait(&self, now: f64) -> f64 {
        self.outages
            .iter()
            .filter(|o| now >= o.start && now < o.start + o.duration)
            .map(|o| o.start + o.duration - now)
            .fold(0.0, f64::max)
    }

    /// True when the plan can perturb message delivery at all (used to
    /// decide whether a run needs the resilience machinery).
    pub fn perturbs_messages(&self) -> bool {
        self.drop_p > 0.0 || self.ack_drop_p > 0.0 || self.dup_p > 0.0 || !self.outages.is_empty()
    }

    /// Checks that every line naming a machine — `straggler`, `speed`,
    /// `lose`, `leave` — names one of the run's `workers` initial machines
    /// or one a `join` line adds. The error names the offending line.
    pub fn check_machines(&self, workers: u32) -> Result<(), String> {
        let known = |m: u32| m < workers || self.joins.iter().any(|j| j.worker == m);
        let named = (self.stragglers.iter().map(|s| ("straggler", s.worker)))
            .chain(self.speeds.iter().map(|s| ("speed", s.worker)))
            .chain(self.losses.iter().map(|l| ("lose", l.worker)))
            .chain(self.leaves.iter().map(|l| ("leave", l.worker)));
        for (keyword, machine) in named {
            if !known(machine) {
                return Err(format!(
                    "fault plan: `{keyword} worker={machine}` names a machine the run never \
                     has: it has {workers} workers and no join adds machine {machine}"
                ));
            }
        }
        Ok(())
    }

    /// Order-sensitive digest of the membership schedule (joins, leaves,
    /// speed factors, speculation threshold — deliberately *not* `lose`
    /// directives, so a checkpoint written before an abort can resume under
    /// a plan with the fatal `lose` removed). Folded into the checkpoint
    /// fingerprint: resuming under a different membership history would
    /// silently change epoch numbering and stripe placement, so it must
    /// fail loudly instead.
    pub fn membership_digest(&self) -> u64 {
        let mut h = mix64(0x454C_4153_5449_4331); // "ELASTIC1"
        for j in &self.joins {
            h = mix64(h ^ 1);
            h = mix64(h ^ u64::from(j.worker));
            h = mix64(h ^ j.round as u64);
        }
        for l in &self.leaves {
            h = mix64(h ^ 2);
            h = mix64(h ^ u64::from(l.worker));
            h = mix64(h ^ l.round as u64);
            h = mix64(
                h ^ match l.policy {
                    LeavePolicy::Handoff => 0,
                    LeavePolicy::Redistribute => 1,
                },
            );
        }
        for s in &self.speeds {
            h = mix64(h ^ 3);
            h = mix64(h ^ u64::from(s.worker));
            h = mix64(h ^ s.factor.to_bits());
        }
        if let Some(t) = self.speculate_threshold {
            h = mix64(h ^ 4);
            h = mix64(h ^ t.to_bits());
        }
        h
    }

    /// Parses the line-based plan format. Blank lines and `#` comments —
    /// whole-line or trailing — are ignored. Directives:
    ///
    /// ```text
    /// seed 42
    /// drop 0.05                  # request-loss probability per attempt
    /// ack_drop 0.02              # ack-loss probability per attempt
    /// dup 0.01                   # duplication probability per attempt
    /// timeout_secs 0.05
    /// backoff_base_secs 0.01
    /// backoff_max_secs 1.0
    /// straggler worker=1 factor=3.0 [phase=build_histogram]
    /// outage server=0 start=0.5 dur=0.25
    /// crash round=2
    /// lose worker=2 round=3 policy=redistribute|abort
    /// join worker=3 round=1          # machine joins, takes a re-shard
    /// leave worker=0 round=2 policy=handoff|redistribute
    /// speed worker=1 factor=2.5      # heterogeneous hardware (≥ 1)
    /// speculate threshold=1.5        # backup when > 1.5× median
    /// ```
    ///
    /// The `key=value` directives follow [`crate::kv`]'s reading rules: an
    /// unknown or repeated key, a bare token and a non-finite number are
    /// each a line-numbered error (`crash round=2 typo=1` does not parse).
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or(raw);
            plan.directive(i + 1, line)
                .map_err(|e| format!("fault plan {e}"))?;
        }
        let total = plan.drop_p + plan.ack_drop_p + plan.dup_p;
        if total > 1.0 {
            return Err(format!(
                "fault plan: drop + ack_drop + dup probabilities sum to {total} > 1"
            ));
        }
        Ok(plan)
    }

    /// Applies one comment-stripped plan line.
    fn directive(&mut self, line: usize, text: &str) -> Result<(), LineError> {
        let (keyword, rest) = kv::keyword(text);
        let err = |message: String| LineError { line, message };
        // `keyword value` directives carry one bare number.
        let scalar = || {
            let mut tokens = rest.split_whitespace();
            match (tokens.next(), tokens.next()) {
                (Some(raw), None) => Ok(raw),
                _ => Err(err(format!("expected exactly one value after {keyword}"))),
            }
        };
        let prob = || {
            let p: f64 = kv::value(line, keyword, scalar()?)?;
            if !(0.0..=1.0).contains(&p) {
                return Err(err(format!(
                    "{keyword} probability must be in [0, 1], got {p}"
                )));
            }
            Ok(p)
        };
        let secs = || {
            let secs: f64 = kv::value(line, keyword, scalar()?)?;
            if secs < 0.0 {
                return Err(err("timeout/backoff durations must be non-negative".into()));
            }
            Ok(secs)
        };
        // A stretch factor: `key`'s value, which must be at least 1.
        let stretch = |f: &mut Fields<'_>, key: &str| {
            let factor: f64 = f.get(key)?;
            if factor < 1.0 {
                return Err(f.error(format!("{keyword} {key} must be ≥ 1, got {factor}")));
            }
            Ok(factor)
        };
        match keyword {
            "" => {}
            "seed" => self.seed = kv::value(line, keyword, scalar()?)?,
            "drop" => self.drop_p = prob()?,
            "ack_drop" => self.ack_drop_p = prob()?,
            "dup" => self.dup_p = prob()?,
            "timeout_secs" => self.timeout_secs = secs()?,
            "backoff_base_secs" => self.backoff_base_secs = secs()?,
            "backoff_max_secs" => self.backoff_max_secs = secs()?,
            "straggler" => self.stragglers.push(Fields::strict(line, rest, |f| {
                Ok(StragglerSpec {
                    worker: f.get("worker")?,
                    factor: stretch(f, "factor")?,
                    phase: match f.take("phase") {
                        Some(name) => Some(
                            Phase::from_name(name)
                                .ok_or_else(|| f.error(format!("unknown phase {name:?}")))?,
                        ),
                        None => None,
                    },
                })
            })?),
            "outage" => self.outages.push(Fields::strict(line, rest, |f| {
                Ok(OutageSpec {
                    server: f.get("server")?,
                    start: f.get("start")?,
                    duration: f.get("dur")?,
                })
            })?),
            "crash" => self.crash_round = Some(Fields::strict(line, rest, |f| f.get("round"))?),
            "lose" => self.losses.push(Fields::strict(line, rest, |f| {
                Ok(LossSpec {
                    worker: f.get("worker")?,
                    round: f.get("round")?,
                    policy: f.named("policy", |p| match p {
                        "redistribute" => Some(LossPolicy::Redistribute),
                        "abort" => Some(LossPolicy::Abort),
                        _ => None,
                    })?,
                })
            })?),
            "join" => self.joins.push(Fields::strict(line, rest, |f| {
                Ok(JoinSpec {
                    worker: f.get("worker")?,
                    round: f.get("round")?,
                })
            })?),
            "leave" => self.leaves.push(Fields::strict(line, rest, |f| {
                Ok(LeaveSpec {
                    worker: f.get("worker")?,
                    round: f.get("round")?,
                    policy: f.named("policy", |p| match p {
                        "handoff" => Some(LeavePolicy::Handoff),
                        "redistribute" => Some(LeavePolicy::Redistribute),
                        _ => None,
                    })?,
                })
            })?),
            "speed" => self.speeds.push(Fields::strict(line, rest, |f| {
                Ok(SpeedSpec {
                    worker: f.get("worker")?,
                    factor: stretch(f, "factor")?,
                })
            })?),
            "speculate" => {
                self.speculate_threshold =
                    Some(Fields::strict(line, rest, |f| stretch(f, "threshold"))?)
            }
            other => return Err(err(format!("unknown directive {other:?}"))),
        }
        Ok(())
    }
}

/// Aggregated fault effects for one run — the `faults` section of the run
/// report. All fields are deterministic in `(plan, training config)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultSummary {
    /// The plan seed (so reports self-describe the schedule they ran under).
    pub plan_seed: u64,
    /// Delivery attempts lost before reaching the server.
    pub request_drops: u64,
    /// Attempts that applied but whose acknowledgement was lost.
    pub ack_drops: u64,
    /// Attempts delivered twice.
    pub duplicates: u64,
    /// Redundant deliveries absorbed by sequence-id deduplication.
    pub dedup_hits: u64,
    /// Client-side retries (each preceded by a timeout).
    pub retries: u64,
    /// Messages force-delivered after [`MAX_ATTEMPTS`] attempts.
    pub forced_deliveries: u64,
    /// Total simulated seconds spent in timeouts + backoff.
    pub backoff_secs: f64,
    /// Total simulated seconds spent waiting out server outages.
    pub outage_wait_secs: f64,
    /// Crashes injected (0 or 1).
    pub crashes: u64,
    /// Workers permanently lost.
    pub workers_lost: u64,
}

/// Aggregated elasticity effects for one run — the `membership` section of
/// the run report. Counters are structural (strict under report diffing);
/// `*_secs` fields are simulated-time stretch that diffs under tolerance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MembershipSummary {
    /// Machines that joined mid-run.
    pub joins: u64,
    /// Machines that gracefully left mid-run.
    pub leaves: u64,
    /// Logical stripes re-homed by joins and leaves combined.
    pub stripes_moved: u64,
    /// Final membership epoch (bumped once per join/leave).
    pub epoch: u64,
    /// Speculative backups launched against chronic stragglers.
    pub speculative_backups: u64,
    /// Backups whose bit-identical result finished first.
    pub backup_wins: u64,
    /// Stale-epoch operations rejected by the parameter server.
    pub stale_rejects: u64,
    /// Simulated seconds spent streaming stripe state on graceful handoff.
    pub handoff_secs: f64,
    /// Simulated seconds spent cold re-reading stripes on redistribute.
    pub reshard_secs: f64,
    /// Simulated seconds added by elastic load/speed dilation.
    pub elastic_secs: f64,
    /// Simulated seconds saved by winning speculative backups.
    pub speculation_saved_secs: f64,
}

impl FaultSummary {
    /// Writes the summary's members into the object open on `w`.
    pub fn emit(&self, w: &mut JsonWriter) {
        w.u64("plan_seed", self.plan_seed);
        w.u64("request_drops", self.request_drops);
        w.u64("ack_drops", self.ack_drops);
        w.u64("duplicates", self.duplicates);
        w.u64("dedup_hits", self.dedup_hits);
        w.u64("retries", self.retries);
        w.u64("forced_deliveries", self.forced_deliveries);
        w.f64("backoff_secs", self.backoff_secs);
        w.f64("outage_wait_secs", self.outage_wait_secs);
        w.u64("crashes", self.crashes);
        w.u64("workers_lost", self.workers_lost);
    }
}

impl MembershipSummary {
    /// Writes the summary's members into the object open on `w`.
    pub fn emit(&self, w: &mut JsonWriter) {
        w.u64("joins", self.joins);
        w.u64("leaves", self.leaves);
        w.u64("stripes_moved", self.stripes_moved);
        w.u64("epoch", self.epoch);
        w.u64("speculative_backups", self.speculative_backups);
        w.u64("backup_wins", self.backup_wins);
        w.u64("stale_rejects", self.stale_rejects);
        w.f64("handoff_secs", self.handoff_secs);
        w.f64("reshard_secs", self.reshard_secs);
        w.f64("elastic_secs", self.elastic_secs);
        w.f64("speculation_saved_secs", self.speculation_saved_secs);
    }
}

/// One stripe re-homed by a membership event (reported by
/// [`FaultSession::apply_join`] / [`FaultSession::apply_leave`] so the
/// trainer can charge the transfer deterministically).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeMove {
    /// Logical stripe id (== the initial shard id).
    pub stripe: u32,
    /// Previous owner.
    pub from: u32,
    /// New owner.
    pub to: u32,
}

/// A speculative-backup decision for one charged interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackupDecision {
    /// Machine whose per-phase time tripped the threshold.
    pub straggler: u32,
    /// Machine replaying the straggler's stripes.
    pub backup: u32,
    /// Dilation factor without speculation.
    pub raw_factor: f64,
    /// Dilation factor with the backup racing the straggler. Strictly less
    /// than `raw_factor` iff the backup wins.
    pub effective_factor: f64,
}

/// The elastic dilation for one phase: multiply charged phase time by
/// `factor`; `backup` describes the speculation race when one launched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticDilation {
    /// Simulated-time multiplier (≥ 1.0).
    pub factor: f64,
    /// The speculative backup launched for this interval, if any.
    pub backup: Option<BackupDecision>,
}

/// Stripe→machine overlay: which physical machine currently *executes*
/// each logical stripe. Aggregation identity lives entirely in the stripe,
/// so this table affects simulated time only — never model bytes.
#[derive(Debug)]
struct MembershipState {
    /// `assignment[stripe]` = owning machine id.
    assignment: Vec<u32>,
    /// Live machine ids (ordered for deterministic iteration).
    live: BTreeSet<u32>,
    /// Bumped once per join/leave; tags PS dedup so a departed machine's
    /// late retries can never merge into the new epoch.
    epoch: u64,
    summary: MembershipSummary,
}

impl MembershipState {
    fn load(&self, machine: u32) -> usize {
        self.assignment.iter().filter(|&&m| m == machine).count()
    }
}

#[derive(Debug)]
struct SessionState {
    summary: FaultSummary,
    /// Worker currently issuing PS requests (mirrors `TraceBus::set_worker`).
    origin: Option<u32>,
    /// Next per-worker message sequence id.
    next_seq: HashMap<u32, u64>,
    /// The stripe→machine overlay every phase is timed against.
    membership: MembershipState,
}

/// Shared per-run fault state: the immutable [`FaultPlan`] plus the mutable
/// counters, message sequence ids, and the stripe→machine overlay. One
/// session is created per training run and shared (via `Arc`) between the
/// trainer and the parameter server.
#[derive(Debug)]
pub struct FaultSession {
    plan: FaultPlan,
    inner: Mutex<SessionState>,
}

impl FaultSession {
    /// A fresh session for `plan` over `stripes` logical stripes: machines
    /// `0..stripes` are live and machine `i` owns stripe `i` (the initial
    /// 1:1 placement).
    pub fn new(plan: FaultPlan, stripes: usize) -> Arc<Self> {
        let plan_seed = plan.seed;
        Arc::new(FaultSession {
            plan,
            inner: Mutex::new(SessionState {
                summary: FaultSummary {
                    plan_seed,
                    ..FaultSummary::default()
                },
                origin: None,
                next_seq: HashMap::new(),
                membership: MembershipState {
                    assignment: (0..stripes as u32).collect(),
                    live: (0..stripes as u32).collect(),
                    epoch: 0,
                    summary: MembershipSummary::default(),
                },
            }),
        })
    }

    /// The immutable plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Mirrors `TraceBus::set_worker`: which worker issues the PS requests
    /// that follow (`None` → requests are not subject to message faults).
    pub fn set_worker(&self, worker: Option<u32>) {
        self.inner.lock().origin = worker;
    }

    /// The currently declared requesting worker.
    pub fn current_worker(&self) -> Option<u32> {
        self.inner.lock().origin
    }

    /// Assigns the next message sequence id for `worker`. Ids are monotone
    /// per worker and never reused, which is what makes server-side
    /// deduplication sound.
    pub fn next_seq(&self, worker: u32) -> u64 {
        let mut st = self.inner.lock();
        let seq = st.next_seq.entry(worker).or_insert(0);
        let out = *seq;
        *seq += 1;
        out
    }

    /// Snapshot of the accumulated counters.
    pub fn summary(&self) -> FaultSummary {
        self.inner.lock().summary
    }

    // ---- counter hooks (called by the PS retry loop / trainer) -----------

    /// Records one request-loss.
    pub fn on_request_drop(&self) {
        self.inner.lock().summary.request_drops += 1;
    }

    /// Records one ack-loss.
    pub fn on_ack_drop(&self) {
        self.inner.lock().summary.ack_drops += 1;
    }

    /// Records one duplicated delivery.
    pub fn on_duplicate(&self) {
        self.inner.lock().summary.duplicates += 1;
    }

    /// Records one redundant delivery absorbed by deduplication.
    pub fn on_dedup_hit(&self) {
        self.inner.lock().summary.dedup_hits += 1;
    }

    /// Records one retry and the timeout + backoff seconds it cost.
    pub fn on_retry(&self, wait_secs: f64) {
        let mut st = self.inner.lock();
        st.summary.retries += 1;
        st.summary.backoff_secs += wait_secs;
    }

    /// Records one forced delivery (retry cap reached).
    pub fn on_forced_delivery(&self) {
        self.inner.lock().summary.forced_deliveries += 1;
    }

    /// Accumulates outage-wait seconds.
    pub fn add_outage_wait_secs(&self, secs: f64) {
        self.inner.lock().summary.outage_wait_secs += secs;
    }

    /// Records the injected crash.
    pub fn on_crash(&self) {
        self.inner.lock().summary.crashes += 1;
    }

    /// Records one permanently lost machine (its stripes leave through
    /// [`FaultSession::apply_leave`]).
    pub fn on_worker_lost(&self) {
        self.inner.lock().summary.workers_lost += 1;
    }

    // ---- elastic membership (stripe→machine overlay) ---------------------
    //
    // Logical *stripes* are the initial shard set and are immutable for the
    // whole run: the f32 histogram merge at the PS is grouping-sensitive,
    // so bit-identity with the fixed-membership baseline requires that the
    // per-stripe push streams never change. Membership events only re-map
    // stripes to physical machines, which affects the simulated clock and
    // the trace — never model bytes.

    /// Current membership epoch: 0 before any event. The PS tags
    /// deduplication state with this, so operations issued under an older
    /// epoch are rejected instead of merged.
    pub fn membership_epoch(&self) -> u64 {
        self.inner.lock().membership.epoch
    }

    /// Whether `machine` is live in the overlay. A lost machine is one the
    /// overlay no longer has live.
    pub fn is_live(&self, machine: u32) -> bool {
        self.inner.lock().membership.live.contains(&machine)
    }

    /// Snapshot `(stripe→machine assignment, live set, epoch)` for
    /// checkpointing.
    pub fn membership_snapshot(&self) -> (Vec<u32>, Vec<u32>, u64) {
        let st = self.inner.lock();
        let m = &st.membership;
        (
            m.assignment.clone(),
            m.live.iter().copied().collect(),
            m.epoch,
        )
    }

    /// Restores a checkpointed overlay snapshot on resume (overwrites the
    /// initial placement).
    pub fn restore_membership(&self, assignment: Vec<u32>, live: Vec<u32>, epoch: u64) {
        let summary = MembershipSummary {
            epoch,
            ..MembershipSummary::default()
        };
        self.inner.lock().membership = MembershipState {
            assignment,
            live: live.into_iter().collect(),
            epoch,
            summary,
        };
    }

    /// A machine joins: bump the epoch and rebalance deterministically —
    /// while the most-loaded machine (ties → smallest id) carries at least
    /// two more stripes than the joiner, the joiner adopts that machine's
    /// highest-numbered stripe. Returns the stripe moves so the trainer can
    /// charge the transfers.
    pub fn apply_join(&self, worker: u32) -> Result<Vec<StripeMove>, String> {
        let m = &mut self.inner.lock().membership;
        if !m.live.insert(worker) {
            return Err(format!("join: machine {worker} is already live"));
        }
        m.epoch += 1;
        m.summary.joins += 1;
        let mut moves = Vec::new();
        loop {
            let (donor, donor_load) =
                m.live
                    .iter()
                    .map(|&id| (id, m.load(id)))
                    .fold(
                        (worker, 0),
                        |acc, (id, load)| {
                            if load > acc.1 {
                                (id, load)
                            } else {
                                acc
                            }
                        },
                    );
            if donor == worker || donor_load < m.load(worker) + 2 {
                break;
            }
            let stripe = (0..m.assignment.len())
                .rev()
                .find(|&s| m.assignment[s] == donor)
                .expect("donor load > 0");
            m.assignment[stripe] = worker;
            m.summary.stripes_moved += 1;
            moves.push(StripeMove {
                stripe: stripe as u32,
                from: donor,
                to: worker,
            });
        }
        m.summary.epoch = m.epoch;
        Ok(moves)
    }

    /// A machine leaves (gracefully or via a loss): bump the epoch and
    /// re-home its stripes deterministically — in stripe order, each goes
    /// to the currently least-loaded live machine (ties → smallest id).
    /// Returns the stripe moves. The last live machine cannot leave.
    pub fn apply_leave(&self, worker: u32) -> Result<Vec<StripeMove>, String> {
        let m = &mut self.inner.lock().membership;
        if !m.live.remove(&worker) {
            return Err(format!("leave: machine {worker} is not live"));
        }
        if m.live.is_empty() {
            m.live.insert(worker);
            return Err(format!("leave: machine {worker} is the last live machine"));
        }
        m.epoch += 1;
        m.summary.leaves += 1;
        let mut moves = Vec::new();
        for stripe in 0..m.assignment.len() {
            if m.assignment[stripe] != worker {
                continue;
            }
            let (dest, _) = m
                .live
                .iter()
                .map(|&id| (id, m.load(id)))
                .fold(None, |acc: Option<(u32, usize)>, (id, load)| match acc {
                    Some((_, best)) if best <= load => acc,
                    _ => Some((id, load)),
                })
                .expect("live set is non-empty");
            m.assignment[stripe] = dest;
            m.summary.stripes_moved += 1;
            moves.push(StripeMove {
                stripe: stripe as u32,
                from: worker,
                to: dest,
            });
        }
        m.summary.epoch = m.epoch;
        Ok(moves)
    }

    /// The elastic dilation for `phase`. Each live machine `m` with load
    /// `> 0` would finish its share in
    /// `d_m = speed(m) × load(m) × straggler(m, phase)` units of the clean
    /// per-stripe time; the phase takes the max. With `speculate
    /// threshold=F` and `max > F × median`, a backup launches on the
    /// per-stripe-fastest other machine at time `F × median` and replays
    /// the straggler's stripes from scratch; the earlier bit-identical
    /// result wins, so the effective factor is
    /// `min(max, F × median + rate(backup) × load(straggler))`.
    pub fn membership_dilation(&self, phase: Phase) -> ElasticDilation {
        let st = self.inner.lock();
        let m = &st.membership;
        // Per-stripe service rate of one machine: hardware speed × any
        // straggler slowdown matching this phase.
        let rate = |id: u32| -> f64 {
            let speed = self
                .plan
                .speeds
                .iter()
                .filter(|s| s.worker == id)
                .map(|s| s.factor)
                .fold(1.0, f64::max);
            let straggler = self
                .plan
                .stragglers
                .iter()
                .filter(|s| s.worker == id)
                .filter(|s| s.phase.is_none() || s.phase == Some(phase))
                .map(|s| s.factor)
                .fold(1.0, f64::max);
            speed * straggler
        };
        let loaded: Vec<(u32, f64)> = m
            .live
            .iter()
            .filter(|&&id| m.load(id) > 0)
            .map(|&id| (id, rate(id) * m.load(id) as f64))
            .collect();
        let Some(&(_, first)) = loaded.first() else {
            return ElasticDilation {
                factor: 1.0,
                backup: None,
            };
        };
        let (straggler, raw) =
            loaded.iter().fold(
                (loaded[0].0, first),
                |acc, &(id, d)| {
                    if d > acc.1 {
                        (id, d)
                    } else {
                        acc
                    }
                },
            );
        let mut sorted: Vec<f64> = loaded.iter().map(|&(_, d)| d).collect();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        };
        if let Some(threshold) = self.plan.speculate_threshold {
            let launch = threshold * median;
            let backup_candidate = m
                .live
                .iter()
                .filter(|&&id| id != straggler)
                .map(|&id| (id, rate(id)))
                .fold(None, |acc: Option<(u32, f64)>, (id, r)| match acc {
                    Some((_, best)) if best <= r => acc,
                    _ => Some((id, r)),
                });
            if raw > launch {
                if let Some((backup, backup_rate)) = backup_candidate {
                    let replay = launch + backup_rate * m.load(straggler) as f64;
                    let effective = raw.min(replay);
                    return ElasticDilation {
                        factor: effective.max(1.0),
                        backup: Some(BackupDecision {
                            straggler,
                            backup,
                            raw_factor: raw,
                            effective_factor: effective,
                        }),
                    };
                }
            }
        }
        ElasticDilation {
            factor: raw.max(1.0),
            backup: None,
        }
    }

    /// Snapshot of the accumulated membership counters.
    pub fn membership_summary(&self) -> MembershipSummary {
        self.inner.lock().membership.summary
    }

    /// Accumulates graceful-handoff transfer seconds.
    pub fn add_handoff_secs(&self, secs: f64) {
        self.inner.lock().membership.summary.handoff_secs += secs;
    }

    /// Accumulates cold re-shard seconds.
    pub fn add_reshard_secs(&self, secs: f64) {
        self.inner.lock().membership.summary.reshard_secs += secs;
    }

    /// Accumulates elastic-dilation seconds.
    pub fn add_elastic_secs(&self, secs: f64) {
        self.inner.lock().membership.summary.elastic_secs += secs;
    }

    /// Records one speculative backup launch (and its win, when the backup
    /// finished first, with the simulated seconds it saved).
    pub fn on_backup(&self, won: bool, saved_secs: f64) {
        let s = &mut self.inner.lock().membership.summary;
        s.speculative_backups += 1;
        if won {
            s.backup_wins += 1;
            s.speculation_saved_secs += saved_secs;
        }
    }

    /// Records one stale-epoch operation rejected by the PS.
    pub fn on_stale_reject(&self) {
        self.inner.lock().membership.summary.stale_rejects += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fates_are_deterministic_and_order_independent() {
        let plan = FaultPlan {
            seed: 7,
            drop_p: 0.3,
            ack_drop_p: 0.2,
            dup_p: 0.1,
            ..FaultPlan::default()
        };
        // Same coordinates → same fate, regardless of query order.
        let forward: Vec<Fate> = (0..50).map(|s| plan.fate(1, s, 0)).collect();
        let backward: Vec<Fate> = (0..50).rev().map(|s| plan.fate(1, s, 0)).collect();
        assert_eq!(
            forward,
            backward.into_iter().rev().collect::<Vec<_>>(),
            "fates must not depend on query order"
        );
        // All four fates occur at these probabilities over enough messages.
        let fates: Vec<Fate> = (0..2000).map(|s| plan.fate(0, s, 0)).collect();
        for f in [
            Fate::Deliver,
            Fate::DropRequest,
            Fate::DropAck,
            Fate::Duplicate,
        ] {
            assert!(fates.contains(&f), "{f:?} never occurred");
        }
        // Empirical drop rate within a loose tolerance of the plan's.
        // n = 2000 Bernoulli(0.3) draws: sd ≈ sqrt(0.3·0.7/2000) ≈ 0.0102,
        // so ±0.05 is ~5 sd — effectively never flaky for a fixed seed.
        let drops = fates.iter().filter(|&&f| f == Fate::DropRequest).count();
        let rate = drops as f64 / 2000.0;
        assert!((rate - 0.3).abs() < 0.05, "drop rate {rate}");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan {
            seed: 1,
            drop_p: 0.5,
            ..FaultPlan::default()
        };
        let b = FaultPlan {
            seed: 2,
            ..a.clone()
        };
        let fa: Vec<Fate> = (0..64).map(|s| a.fate(0, s, 0)).collect();
        let fb: Vec<Fate> = (0..64).map(|s| b.fate(0, s, 0)).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn backoff_grows_exponentially_until_capped() {
        let plan = FaultPlan {
            backoff_base_secs: 0.01,
            backoff_max_secs: 0.5,
            ..FaultPlan::default()
        };
        // Jitter is in [0.5, 1): bounds follow from min(base·2^a, max).
        for attempt in 0..12 {
            let ideal = (0.01 * 2f64.powi(attempt)).min(0.5);
            let b = plan.backoff_secs(3, 9, attempt as u32);
            assert!(b >= ideal * 0.5 && b < ideal, "attempt {attempt}: {b}");
        }
        // Deterministic.
        assert_eq!(plan.backoff_secs(3, 9, 4), plan.backoff_secs(3, 9, 4));
    }

    #[test]
    fn outage_wait_covers_windows() {
        let plan = FaultPlan {
            outages: vec![
                OutageSpec {
                    server: 0,
                    start: 1.0,
                    duration: 0.5,
                },
                OutageSpec {
                    server: 1,
                    start: 1.25,
                    duration: 0.5,
                },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(plan.outage_wait(0.5), 0.0);
        assert!((plan.outage_wait(1.0) - 0.5).abs() < 1e-12);
        // Overlapping windows: wait for the later one to clear.
        assert!((plan.outage_wait(1.3) - 0.45).abs() < 1e-12);
        assert_eq!(plan.outage_wait(2.0), 0.0);
    }

    #[test]
    fn parses_full_plan() {
        let text = "\
# chaos for the smoke config
seed 42
drop 0.05
ack_drop 0.02
dup 0.01
timeout_secs 0.02
backoff_base_secs 0.005
backoff_max_secs 0.25

straggler worker=1 factor=3.0 phase=build_histogram
straggler worker=0 factor=1.5
outage server=0 start=0.5 dur=0.25
crash round=2
lose worker=2 round=3 policy=redistribute
";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.drop_p, 0.05);
        assert_eq!(plan.ack_drop_p, 0.02);
        assert_eq!(plan.dup_p, 0.01);
        assert_eq!(plan.timeout_secs, 0.02);
        assert_eq!(plan.stragglers.len(), 2);
        assert_eq!(plan.stragglers[0].phase, Some(Phase::BuildHistogram));
        assert_eq!(plan.stragglers[1].phase, None);
        assert_eq!(plan.outages.len(), 1);
        assert_eq!(plan.crash_round, Some(2));
        assert_eq!(
            plan.losses,
            vec![LossSpec {
                worker: 2,
                round: 3,
                policy: LossPolicy::Redistribute,
            }]
        );
        assert!(plan.perturbs_messages());
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(FaultPlan::parse("drop 1.5").is_err());
        assert!(FaultPlan::parse("drop -0.1").is_err());
        assert!(FaultPlan::parse("drop 0.6\nack_drop 0.6").is_err());
        assert!(FaultPlan::parse("straggler worker=0 factor=0.5").is_err());
        assert!(FaultPlan::parse("straggler worker=0 factor=2 phase=nope").is_err());
        assert!(FaultPlan::parse("lose worker=0 round=1 policy=shrug").is_err());
        assert!(FaultPlan::parse("warp speed=9").is_err());
        assert!(FaultPlan::parse("seed 1 2").is_err());
        assert!(FaultPlan::parse("crash when=now").is_err());
        // The error names the offending line.
        let err = FaultPlan::parse("seed 1\ndrop nope").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn parses_membership_directives() {
        let text = "\
join worker=3 round=1
leave worker=0 round=2 policy=handoff
leave worker=1 round=3 policy=redistribute
speed worker=2 factor=2.5
speculate threshold=1.5
";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(
            plan.joins,
            vec![JoinSpec {
                worker: 3,
                round: 1
            }]
        );
        assert_eq!(
            plan.leaves,
            vec![
                LeaveSpec {
                    worker: 0,
                    round: 2,
                    policy: LeavePolicy::Handoff,
                },
                LeaveSpec {
                    worker: 1,
                    round: 3,
                    policy: LeavePolicy::Redistribute,
                },
            ]
        );
        assert_eq!(
            plan.speeds,
            vec![SpeedSpec {
                worker: 2,
                factor: 2.5,
            }]
        );
        assert_eq!(plan.speculate_threshold, Some(1.5));
        // Membership directives alone do not perturb message delivery.
        assert!(!plan.perturbs_messages());
    }

    #[test]
    fn parse_rejects_bad_membership_input() {
        assert!(FaultPlan::parse("join worker=1").is_err()); // missing round
        assert!(FaultPlan::parse("leave worker=1 round=2").is_err()); // missing policy
        assert!(FaultPlan::parse("leave worker=1 round=2 policy=abort").is_err());
        assert!(FaultPlan::parse("speed worker=1 factor=0.5").is_err()); // < 1
        assert!(FaultPlan::parse("speculate threshold=0.9").is_err()); // < 1
        let err = FaultPlan::parse("seed 1\nspeed worker=1 factor=nope").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn parse_rejects_unknown_keys_on_every_directive() {
        for line in [
            "straggler worker=0 factor=2 typo=1",
            "outage server=0 start=0.5 dur=0.25 extra=x",
            "crash round=2 typo=1",
            "lose worker=0 round=1 policy=abort x=1",
            "join worker=3 round=1 shard=2",
            "leave worker=0 round=1 policy=handoff when=now",
            "speed worker=1 factor=2 phase=finish",
            "speculate threshold=1.5 worker=0",
            "join worker=3 round=1 bare",
        ] {
            let err = FaultPlan::parse(&format!("seed 1\n{line}")).unwrap_err();
            assert!(err.contains("line 2"), "{line}: {err}");
        }
    }

    #[test]
    fn membership_digest_covers_elastic_directives_only() {
        let base = FaultPlan::parse("join worker=3 round=1\nspeed worker=1 factor=2").unwrap();
        // `lose` and message faults do not move the digest …
        let with_lose =
            FaultPlan::parse("join worker=3 round=1\nspeed worker=1 factor=2\ndrop 0.1\nlose worker=0 round=2 policy=abort")
                .unwrap();
        assert_eq!(base.membership_digest(), with_lose.membership_digest());
        // … but every elastic directive does.
        for extra in [
            "join worker=4 round=2",
            "leave worker=0 round=2 policy=handoff",
            "leave worker=0 round=2 policy=redistribute",
            "speed worker=2 factor=3",
            "speculate threshold=1.5",
        ] {
            let changed = FaultPlan::parse(&format!(
                "join worker=3 round=1\nspeed worker=1 factor=2\n{extra}"
            ))
            .unwrap();
            assert_ne!(
                base.membership_digest(),
                changed.membership_digest(),
                "{extra}"
            );
        }
        assert_eq!(
            base.membership_digest(),
            base.clone().membership_digest(),
            "digest is pure"
        );
    }

    #[test]
    fn join_and_leave_rebalance_deterministically() {
        let s = FaultSession::new(FaultPlan::default(), 3);
        assert_eq!(s.membership_epoch(), 0);
        // Joining an already-live machine is an error.
        assert!(s.apply_join(2).is_err());
        // 3 stripes over 3 machines: a joiner finds no gap ≥ 2, takes none.
        let moves = s.apply_join(3).unwrap();
        assert!(moves.is_empty());
        assert_eq!(s.membership_epoch(), 1);
        // Machine 0 leaves: stripe 0 goes to the least-loaded machine with
        // the smallest id — the empty joiner 3.
        let moves = s.apply_leave(0).unwrap();
        assert_eq!(
            moves,
            vec![StripeMove {
                stripe: 0,
                from: 0,
                to: 3,
            }]
        );
        assert_eq!(s.membership_epoch(), 2);
        // Machine 3 leaves again: its stripe lands on machine 1 (smallest
        // id among the tied machines 1 and 2).
        let moves = s.apply_leave(3).unwrap();
        assert_eq!(
            moves,
            vec![StripeMove {
                stripe: 0,
                from: 3,
                to: 1,
            }]
        );
        // Machine 1 now owns stripes {0, 1}; a fresh joiner takes its
        // highest-numbered stripe to close the gap.
        let moves = s.apply_join(7).unwrap();
        assert_eq!(
            moves,
            vec![StripeMove {
                stripe: 1,
                from: 1,
                to: 7,
            }]
        );
        // Leaving a non-live machine is an error; so is the last machine.
        assert!(s.apply_leave(0).is_err());
        let sum = s.membership_summary();
        assert_eq!(sum.joins, 2);
        assert_eq!(sum.leaves, 2);
        assert_eq!(sum.stripes_moved, 3);
        assert_eq!(sum.epoch, 4);
        // Snapshot / restore round-trips the overlay.
        let (assignment, live, epoch) = s.membership_snapshot();
        let t = FaultSession::new(FaultPlan::default(), 3);
        t.restore_membership(assignment.clone(), live.clone(), epoch);
        assert_eq!(t.membership_snapshot(), (assignment, live, epoch));
    }

    #[test]
    fn last_machine_cannot_leave() {
        let s = FaultSession::new(FaultPlan::default(), 1);
        let err = s.apply_leave(0).unwrap_err();
        assert!(err.contains("last live machine"), "{err}");
        // The failed leave did not mutate the overlay.
        assert_eq!(s.membership_epoch(), 0);
        assert_eq!(s.membership_snapshot().1, vec![0]);
    }

    #[test]
    fn elastic_dilation_tracks_load_speed_and_stragglers() {
        let plan = FaultPlan::parse(
            "speed worker=1 factor=3\nstraggler worker=2 factor=2 phase=build_histogram",
        )
        .unwrap();
        let s = FaultSession::new(plan, 3);
        // Uniform 1-stripe loads: machine 1 runs 3× slow everywhere, and
        // machine 2 runs 2× slow in build_histogram only.
        assert_eq!(s.membership_dilation(Phase::Finish).factor, 3.0);
        assert_eq!(s.membership_dilation(Phase::BuildHistogram).factor, 3.0);
        // Machine 1 leaves; its stripe lands on machine 0 (load 2).
        s.apply_leave(1).unwrap();
        assert_eq!(s.membership_dilation(Phase::Finish).factor, 2.0);
        // In build_histogram the straggler (1 stripe × 2) ties the doubled
        // machine 0; max is still 2.
        assert_eq!(s.membership_dilation(Phase::BuildHistogram).factor, 2.0);
    }

    #[test]
    fn speculation_races_a_backup_against_the_straggler() {
        let plan = FaultPlan::parse("speed worker=0 factor=6\nspeculate threshold=1.5").unwrap();
        let s = FaultSession::new(plan, 3);
        // d = [6, 1, 1]; median 1, threshold trips at 1.5; the backup
        // (machine 1, rate 1) replays stripe 0 by 1.5 + 1 = 2.5 < 6.
        let d = s.membership_dilation(Phase::BuildHistogram);
        let b = d.backup.expect("backup launched");
        assert_eq!(b.straggler, 0);
        assert_eq!(b.backup, 1);
        assert_eq!(b.raw_factor, 6.0);
        assert!((b.effective_factor - 2.5).abs() < 1e-12, "{b:?}");
        assert_eq!(d.factor, b.effective_factor);
        // A losing backup: straggler barely over the threshold, replay from
        // scratch is slower, so the straggler's own finish stands.
        let plan = FaultPlan::parse("speed worker=0 factor=2\nspeculate threshold=1.2").unwrap();
        let s = FaultSession::new(plan, 3);
        let d = s.membership_dilation(Phase::BuildHistogram);
        let b = d.backup.expect("backup launched");
        assert_eq!(b.raw_factor, 2.0);
        assert!((b.effective_factor - 2.0).abs() < 1e-12, "{b:?}");
        assert_eq!(d.factor, 2.0);
        // Below the threshold no backup launches at all.
        let plan = FaultPlan::parse("speed worker=0 factor=2\nspeculate threshold=3").unwrap();
        let s = FaultSession::new(plan, 3);
        assert!(s
            .membership_dilation(Phase::BuildHistogram)
            .backup
            .is_none());
    }

    #[test]
    fn membership_summary_accumulates() {
        let s = FaultSession::new(FaultPlan::default(), 2);
        s.add_handoff_secs(0.25);
        s.add_reshard_secs(0.5);
        s.add_elastic_secs(1.5);
        s.on_backup(false, 0.0);
        s.on_backup(true, 0.75);
        s.on_stale_reject();
        let sum = s.membership_summary();
        assert!((sum.handoff_secs - 0.25).abs() < 1e-12);
        assert!((sum.reshard_secs - 0.5).abs() < 1e-12);
        assert!((sum.elastic_secs - 1.5).abs() < 1e-12);
        assert_eq!(sum.speculative_backups, 2);
        assert_eq!(sum.backup_wins, 1);
        assert!((sum.speculation_saved_secs - 0.75).abs() < 1e-12);
        assert_eq!(sum.stale_rejects, 1);
    }

    #[test]
    fn session_prices_stragglers_and_losses_on_the_overlay() {
        let plan = FaultPlan {
            stragglers: vec![
                StragglerSpec {
                    worker: 0,
                    factor: 2.0,
                    phase: Some(Phase::BuildHistogram),
                },
                StragglerSpec {
                    worker: 1,
                    factor: 4.0,
                    phase: None,
                },
            ],
            ..FaultPlan::default()
        };
        let s = FaultSession::new(plan, 3);
        assert_eq!(s.next_seq(0), 0);
        assert_eq!(s.next_seq(0), 1);
        assert_eq!(s.next_seq(1), 0);
        let factor = |phase| s.membership_dilation(phase).factor;
        assert_eq!(factor(Phase::BuildHistogram), 4.0);
        assert_eq!(factor(Phase::Finish), 4.0);
        // Losing the all-phase straggler is a cold leave: its stripe lands
        // on machine 0 (tied loads → smallest id), which now carries two
        // stripes and keeps its phase-specific slowdown.
        assert!(s.is_live(1));
        let moves = s.apply_leave(1).unwrap();
        assert_eq!(
            moves,
            vec![StripeMove {
                stripe: 1,
                from: 1,
                to: 0,
            }]
        );
        assert!(!s.is_live(1));
        assert_eq!(factor(Phase::BuildHistogram), 4.0); // 2.0 × 2 stripes
        assert_eq!(factor(Phase::Finish), 2.0); // 1.0 × 2 stripes
    }

    #[test]
    fn summary_accumulates() {
        let s = FaultSession::new(
            FaultPlan {
                seed: 9,
                ..FaultPlan::default()
            },
            1,
        );
        s.on_request_drop();
        s.on_ack_drop();
        s.on_duplicate();
        s.on_dedup_hit();
        s.on_retry(0.125);
        s.on_retry(0.25);
        s.on_forced_delivery();
        s.add_outage_wait_secs(0.5);
        s.on_crash();
        s.on_worker_lost();
        let sum = s.summary();
        assert_eq!(sum.plan_seed, 9);
        assert_eq!(sum.request_drops, 1);
        assert_eq!(sum.ack_drops, 1);
        assert_eq!(sum.duplicates, 1);
        assert_eq!(sum.dedup_hits, 1);
        assert_eq!(sum.retries, 2);
        assert_eq!(sum.forced_deliveries, 1);
        assert!((sum.backoff_secs - 0.375).abs() < 1e-12);
        assert!((sum.outage_wait_secs - 0.5).abs() < 1e-12);
        assert_eq!(sum.crashes, 1);
        assert_eq!(sum.workers_lost, 1);
    }
}
