//! The simulated cluster a run talks to (parameter server, trace bus) and
//! the robustness layer around it: fault session, the stripe→machine
//! overlay every fault plan is timed against, scripted round-boundary
//! events, checkpoints. Without a fault plan every method here is inert:
//! `charge` is `ps.charge`, `set_worker` tags the trace bus only,
//! `round_boundary` returns `Ok`.

use std::sync::Arc;

use dimboost_data::Dataset;
use dimboost_ps::{ParameterServer, PsConfig};
use dimboost_simnet::fault::{LeavePolicy, LossPolicy, StripeMove};
use dimboost_simnet::{CostModel, FaultSession, Lane, Phase, SimTime, TraceBus};

use super::state::TrainState;
use super::{invalid, RobustOptions, TrainError};
use crate::checkpoint::{CheckpointFingerprint, CheckpointOptions, TrainCheckpoint};
use crate::config::GbdtConfig;

pub(super) struct Harness<'a> {
    pub ps: ParameterServer,
    pub bus: TraceBus,
    /// Present exactly when the run has a fault plan. Its overlay changes
    /// only *placement* and simulated timing: the logical stripes are the
    /// initial shard set, immutable for the run, so per-stripe worker state
    /// and push order never change and the model stays bit-identical to a
    /// fixed-membership run (f32 histogram merging is grouping-sensitive).
    pub session: Option<Arc<FaultSession>>,
    /// The scripted crash fires only on a fresh run: a resumed run is the
    /// recovery from exactly that crash.
    crash_armed: bool,
    cost: CostModel,
    /// Resident bytes of each logical stripe (what re-homing it moves).
    stripe_bytes: Vec<u64>,
    checkpoint: Option<&'a CheckpointOptions>,
    fingerprint: CheckpointFingerprint,
    config: &'a GbdtConfig,
}

impl<'a> Harness<'a> {
    /// Brings the cluster up: fault session, the checkpoint a `resume` run
    /// continues (returned for [`TrainState::from_checkpoint`]), the PS with
    /// trace and faults attached, and the overlay at the placement the
    /// start round expects.
    pub fn start(
        shards: &[Dataset],
        config: &'a GbdtConfig,
        ps_config: PsConfig,
        robust: &'a RobustOptions,
        warm_start: bool,
    ) -> Result<(Self, Option<TrainCheckpoint>), TrainError> {
        let plan = robust.fault_plan.as_ref();
        let w = shards.len();
        if let Some(plan) = plan {
            plan.check_machines(w as u32).map_err(invalid)?;
        }
        let session = plan.map(|plan| FaultSession::new(plan.clone(), w));
        let fingerprint = CheckpointFingerprint::for_run(
            config,
            shards,
            plan.map_or(0, |p| p.membership_digest()),
        );
        let checkpoint = robust.checkpoint.as_ref();
        let resume = if robust.resume {
            let opts =
                checkpoint.ok_or_else(|| invalid("resume requires a checkpoint directory"))?;
            if warm_start {
                return Err(invalid("resume cannot be combined with warm start"));
            }
            let ck = TrainCheckpoint::load_for_resume(&opts.dir, &fingerprint)?;
            if ck.next_round > config.num_trees {
                return Err(invalid(format!(
                    "checkpoint is ahead of the run: next round {} of {}",
                    ck.next_round, config.num_trees
                )));
            }
            Some(ck)
        } else {
            None
        };

        let ps = ParameterServer::new(shards[0].num_features(), ps_config);
        // The trace bus rides along on every PS interaction (through the
        // shared StatsRecorder) and on every timed compute phase. With
        // collect_trace off it still aggregates metrics percentiles.
        let (servers, cost) = (ps_config.num_servers, ps_config.cost_model);
        let bus = TraceBus::new(w, servers, cost, config.collect_trace);
        ps.attach_trace(bus.clone());
        if let Some(ck) = &resume {
            // The resumed report accounts for the whole logical run: absorb
            // the pre-crash ledger before any new charges land.
            ps.recorder().preload(&ck.ledger);
        }
        if let Some(session) = &session {
            ps.attach_faults(session.clone());
            // The snapshot reproduces the exact placement and epoch
            // numbering the interrupted run had reached, machines lost
            // before the crash included.
            if let Some((assignment, live, epoch)) =
                resume.as_ref().and_then(|ck| ck.membership.clone())
            {
                if assignment.len() != w {
                    return Err(invalid(format!(
                        "checkpoint overlay places {} stripes, the run has {w}",
                        assignment.len()
                    )));
                }
                session.restore_membership(assignment, live, epoch);
            }
            ps.set_epoch(session.membership_epoch());
        }
        let stripe_bytes = shards
            .iter()
            .map(|s| (8 * s.nnz() + 8 * s.num_rows()) as u64);
        let harness = Self {
            ps,
            bus,
            session,
            crash_armed: resume.is_none(),
            cost,
            stripe_bytes: stripe_bytes.collect(),
            checkpoint,
            fingerprint,
            config,
        };
        Ok((harness, resume))
    }

    /// Tags PS interactions with the issuing worker on both the trace bus
    /// and the fault session (per-worker message sequence numbers).
    pub fn set_worker(&self, worker: Option<u32>) {
        self.bus.set_worker(worker);
        if let Some(session) = &self.session {
            session.set_worker(worker);
        }
    }

    /// Charges a phase-tagged communication time, dilated by the overlay:
    /// the phase finishes when the slowest live machine drains its stripes
    /// (speed × straggler × load, see `FaultSession::membership_dilation`),
    /// and speculation can cap a chronic straggler by replaying its stripes
    /// on a backup. Dilation adds simulated *time* only — bytes and
    /// packages stay identical to the fault-free run, preserving the
    /// exactness invariant.
    pub fn charge(&self, phase: Phase, time: SimTime) {
        let (ps, recorder) = (&self.ps, self.ps.recorder());
        ps.charge(phase, time);
        let Some(session) = &self.session else {
            return;
        };
        let event = |name, secs| recorder.lane_event(Lane::Membership, phase, name, secs, 0, 1);
        let d = session.membership_dilation(phase);
        if let Some(b) = d.backup {
            let won = b.effective_factor < b.raw_factor;
            let saved = time.seconds() * (b.raw_factor - b.effective_factor);
            session.on_backup(won, saved);
            event("speculative_backup", SimTime::ZERO);
            if won {
                // The win's saved seconds are a *reduction*, not schedule
                // stretch — recorded with zero duration so the trace
                // profile attributes only real stretch.
                event("backup_win", SimTime::ZERO);
            }
        }
        if d.factor > 1.0 {
            let extra = time.seconds() * (d.factor - 1.0);
            session.add_elastic_secs(extra);
            event("elastic_dilation", SimTime(extra));
            ps.charge(phase, SimTime(extra));
        }
    }

    /// Records one membership `event` ("join"/"leave"), charges the stripe
    /// transfers it caused, and retags the PS with the bumped epoch so any
    /// late retry from the old placement is rejected, not merged.
    ///
    /// A graceful handoff streams the resident partition (α + bytes·β); a
    /// cold re-shard (redistribute, or a lost machine that cannot hand off)
    /// re-reads and re-bins it on the receiver, modelled at twice that.
    /// Pure simulated time — bytes appear only on the membership trace
    /// lane, never in the communication ledger.
    fn rehome(
        &self,
        session: &FaultSession,
        event: &'static str,
        moves: &[StripeMove],
        graceful: bool,
    ) {
        let recorder = self.ps.recorder();
        let record = |name, secs, bytes| {
            recorder.lane_event(Lane::Membership, Phase::NewTree, name, secs, bytes, 1)
        };
        record(event, SimTime::ZERO, 0);
        for mv in moves {
            let bytes = self.stripe_bytes[mv.stripe as usize];
            let base = self.cost.alpha + bytes as f64 * self.cost.beta;
            let (name, secs) = if graceful {
                session.add_handoff_secs(base);
                ("stripe_handoff", base)
            } else {
                session.add_reshard_secs(2.0 * base);
                ("stripe_reshard", 2.0 * base)
            };
            record(name, SimTime(secs), bytes);
            self.ps.charge(Phase::NewTree, SimTime(secs));
        }
        self.ps.set_epoch(session.membership_epoch());
    }

    /// Scripted faults that fire before `round`: the crash, then membership
    /// events (joins first, then graceful leaves), then permanent worker
    /// losses.
    pub fn round_boundary(&self, round: usize, state: &TrainState) -> Result<(), TrainError> {
        let Some(session) = &self.session else {
            return Ok(());
        };
        let plan = session.plan();
        let fault = |name| {
            let recorder = self.ps.recorder();
            recorder.lane_event(Lane::Fault, Phase::NewTree, name, SimTime::ZERO, 0, 1)
        };
        if self.crash_armed && plan.crash_round == Some(round) {
            session.on_crash();
            fault("crash");
            // Force a crash-time checkpoint regardless of the cadence, so
            // recovery loses no completed round.
            let checkpoint = match self.checkpoint {
                Some(opts) => Some(self.snapshot(state, round).save_to_dir(&opts.dir)?),
                None => None,
            };
            return Err(TrainError::Crashed { round, checkpoint });
        }
        for spec in plan.joins.iter().filter(|j| j.round == round) {
            let moves = session.apply_join(spec.worker).map_err(invalid)?;
            self.rehome(session, "join", &moves, true);
        }
        for spec in plan.leaves.iter().filter(|l| l.round == round) {
            let moves = session.apply_leave(spec.worker).map_err(invalid)?;
            let graceful = matches!(spec.policy, LeavePolicy::Handoff);
            self.rehome(session, "leave", &moves, graceful);
        }
        for spec in &plan.losses {
            // A machine the overlay no longer has live is already gone.
            if spec.round != round || !session.is_live(spec.worker) {
                continue;
            }
            if matches!(spec.policy, LossPolicy::Abort) {
                let worker = spec.worker;
                return Err(TrainError::WorkerLost { worker, round });
            }
            // Redistribute: a dead machine cannot hand off, so its stripes
            // cold re-shard onto the survivors. The logical computation
            // (and so the model) is unchanged; the adopters' heavier load
            // dilates every later phase.
            session.on_worker_lost();
            fault("worker_lost");
            let moves = session.apply_leave(spec.worker).map_err(invalid)?;
            self.rehome(session, "leave", &moves, false);
        }
        Ok(())
    }

    fn snapshot(&self, state: &TrainState, next_round: usize) -> TrainCheckpoint {
        let membership = self.session.as_ref().map(|s| s.membership_snapshot());
        let fingerprint = self.fingerprint.clone();
        let ledger = self.ps.comm_ledger();
        state.checkpoint(self.config, fingerprint, next_round, ledger, membership)
    }

    /// Rolling checkpoint after `round` (atomic tmp + rename), on the
    /// configured cadence.
    pub fn rolling_checkpoint(&self, round: usize, state: &TrainState) -> Result<(), TrainError> {
        if let Some(opts) = self.checkpoint {
            if (round + 1).is_multiple_of(opts.every.max(1)) {
                self.snapshot(state, round + 1).save_to_dir(&opts.dir)?;
            }
        }
        Ok(())
    }
}
