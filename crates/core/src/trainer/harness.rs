//! The simulated cluster a run talks to (parameter server, trace bus) and
//! the robustness layer around it: fault session, elastic membership
//! overlay, scripted round-boundary events, checkpoints. Without a fault
//! plan every method here is inert: `charge` is `ps.charge`, `set_worker`
//! tags the trace bus only, `round_boundary` returns `Ok`.

use std::sync::Arc;

use dimboost_data::Dataset;
use dimboost_ps::{ParameterServer, PsConfig};
use dimboost_simnet::fault::{LeavePolicy, LossPolicy, StripeMove};
use dimboost_simnet::{CostModel, FaultSession, Phase, SimTime, TraceBus};

use super::state::TrainState;
use super::{invalid, RobustOptions, TrainError};
use crate::checkpoint::{CheckpointFingerprint, CheckpointOptions, TrainCheckpoint};
use crate::config::GbdtConfig;

pub(super) struct Harness<'a> {
    pub ps: ParameterServer,
    pub bus: TraceBus,
    pub session: Option<Arc<FaultSession>>,
    /// The plan scripts joins/leaves/speeds. They change only *placement*
    /// and simulated timing: the logical stripes are the initial shard set,
    /// immutable for the run, so per-stripe worker state and push order
    /// never change and the model stays bit-identical to a fixed-membership
    /// run (f32 histogram merging is grouping-sensitive).
    membership_on: bool,
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
    /// trace and faults attached, and the membership overlay at the
    /// placement the start round expects.
    pub fn start(
        shards: &[Dataset],
        config: &'a GbdtConfig,
        ps_config: PsConfig,
        robust: &'a RobustOptions,
        warm_start: bool,
    ) -> Result<(Self, Option<TrainCheckpoint>), TrainError> {
        let plan = robust.fault_plan.as_ref();
        let session = plan.map(|plan| FaultSession::new(plan.clone()));
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
        let start_round = resume.as_ref().map_or(0, |ck| ck.next_round);
        if let (Some(session), Some(_)) = (&session, &resume) {
            // Workers redistributed before the crash stay lost in the resumed run.
            for spec in &session.plan().losses {
                if spec.round < start_round && matches!(spec.policy, LossPolicy::Redistribute) {
                    session.mark_lost(spec.worker);
                }
            }
        }

        let ps = ParameterServer::new(shards[0].num_features(), ps_config);
        // The trace bus rides along on every PS interaction (through the
        // shared StatsRecorder) and on every timed compute phase. With
        // collect_trace off it still aggregates metrics percentiles.
        let (w, servers, cost) = (shards.len(), ps_config.num_servers, ps_config.cost_model);
        let bus = TraceBus::new(w, servers, cost, config.collect_trace);
        ps.attach_trace(bus.clone());
        if let Some(session) = &session {
            ps.attach_faults(session.clone());
        }
        if let Some(ck) = &resume {
            // The resumed report accounts for the whole logical run: absorb
            // the pre-crash ledger before any new charges land.
            ps.recorder().preload(&ck.ledger);
        }
        let membership_on = plan.is_some_and(|p| p.has_membership_events());
        if let (true, Some(session)) = (membership_on, &session) {
            session.init_membership(w);
            match resume.as_ref().and_then(|ck| ck.membership.clone()) {
                // The snapshot reproduces the exact placement and epoch
                // numbering the interrupted run had reached.
                Some((assignment, live, epoch)) => {
                    session.restore_membership(assignment, live, epoch);
                }
                // Fresh run, or a pre-elastic checkpoint: replay the
                // schedule up to the start round.
                None => replay_membership_to(session, start_round)?,
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
            membership_on,
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

    /// Charges a phase-tagged communication time, dilated by any live
    /// stragglers (and by permanent worker losses under the redistribute
    /// policy: survivors carry the lost shard's traffic on their links).
    /// Dilation adds simulated *time* only — bytes and packages stay
    /// identical to the fault-free run, preserving the exactness invariant.
    pub fn charge(&self, phase: Phase, time: SimTime) {
        let (ps, recorder) = (&self.ps, self.ps.recorder());
        ps.charge(phase, time);
        let Some(session) = &self.session else {
            return;
        };
        if self.membership_on {
            // Elastic schedule: a phase finishes when the slowest live
            // machine drains its stripes (rate × load, see
            // `FaultSession::membership_dilation`); speculation can cap a
            // chronic straggler by replaying its stripes on a backup.
            let d = session.membership_dilation(phase);
            if let Some(b) = d.backup {
                let won = b.effective_factor < b.raw_factor;
                let saved = time.seconds() * (b.raw_factor - b.effective_factor);
                session.on_backup(won, saved);
                recorder.membership_event(phase, "speculative_backup", SimTime::ZERO, 0, 1);
                if won {
                    // The win's saved seconds are a *reduction*, not
                    // schedule stretch — recorded with zero duration so the
                    // trace profile attributes only real stretch.
                    recorder.membership_event(phase, "backup_win", SimTime::ZERO, 0, 1);
                }
            }
            if d.factor > 1.0 {
                let extra = time.seconds() * (d.factor - 1.0);
                session.add_elastic_secs(extra);
                recorder.membership_event(phase, "elastic_dilation", SimTime(extra), 0, 1);
                ps.charge(phase, SimTime(extra));
            }
        } else {
            let dilation = session.dilation(phase);
            if dilation > 1.0 {
                let extra = time.seconds() * (dilation - 1.0);
                session.add_straggler_secs(extra);
                recorder.fault_event(phase, "straggler_dilation", SimTime(extra), 0, 1);
                ps.charge(phase, SimTime(extra));
            }
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
        recorder.membership_event(Phase::NewTree, event, SimTime::ZERO, 0, 1);
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
            recorder.membership_event(Phase::NewTree, name, SimTime(secs), bytes, 1);
            self.ps.charge(Phase::NewTree, SimTime(secs));
        }
        self.ps.set_epoch(session.membership_epoch());
    }

    /// Scripted faults that fire before `round`: the crash, membership
    /// events (joins first, then graceful leaves — the order
    /// `replay_membership_to` uses), and permanent worker losses.
    pub fn round_boundary(&self, round: usize, state: &TrainState) -> Result<(), TrainError> {
        let Some(session) = &self.session else {
            return Ok(());
        };
        let (plan, recorder) = (session.plan(), self.ps.recorder());
        if self.crash_armed && plan.crash_round == Some(round) {
            session.on_crash();
            recorder.fault_event(Phase::NewTree, "crash", SimTime::ZERO, 0, 1);
            // Force a crash-time checkpoint regardless of the cadence, so
            // recovery loses no completed round.
            let checkpoint = match self.checkpoint {
                Some(opts) => Some(self.snapshot(state, round).save_to_dir(&opts.dir)?),
                None => None,
            };
            return Err(TrainError::Crashed { round, checkpoint });
        }
        if self.membership_on {
            for spec in plan.joins.iter().filter(|j| j.round == round) {
                let moves = session.apply_join(spec.worker).map_err(invalid)?;
                self.rehome(session, "join", &moves, true);
            }
            for spec in plan.leaves.iter().filter(|l| l.round == round) {
                let moves = session.apply_leave(spec.worker).map_err(invalid)?;
                let graceful = matches!(spec.policy, LeavePolicy::Handoff);
                self.rehome(session, "leave", &moves, graceful);
            }
        }
        for spec in &plan.losses {
            if spec.round != round || session.is_lost(spec.worker) {
                continue;
            }
            if matches!(spec.policy, LossPolicy::Abort) {
                let worker = spec.worker;
                return Err(TrainError::WorkerLost { worker, round });
            }
            // Redistribute: the lost shard is re-read by the survivors; the
            // logical computation (and so the model) is unchanged, but every
            // communication phase dilates — see `FaultSession::dilation`.
            session.mark_lost(spec.worker);
            recorder.fault_event(Phase::NewTree, "worker_lost", SimTime::ZERO, 0, 1);
            // Under the elastic overlay a dead machine also leaves the
            // membership: its stripes cold re-shard onto the survivors.
            if self.membership_on {
                let moves = session.apply_leave(spec.worker).map_err(invalid)?;
                self.rehome(session, "leave", &moves, false);
            }
        }
        Ok(())
    }

    fn snapshot(&self, state: &TrainState, next_round: usize) -> TrainCheckpoint {
        let membership = self.session.as_ref().and_then(|s| s.membership_snapshot());
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

/// Reconstructs the membership overlay a run had reached after rounds
/// `0..start` by replaying the plan's schedule (a resume with no
/// checkpointed snapshot to restore). The rebalance is a pure function of
/// the event sequence, so replay and live application agree exactly; the
/// per-round order mirrors the live path: joins, leaves, redistribute-losses.
fn replay_membership_to(session: &FaultSession, start: usize) -> Result<(), TrainError> {
    let plan = session.plan();
    for round in 0..start {
        for spec in plan.joins.iter().filter(|j| j.round == round) {
            session.apply_join(spec.worker).map_err(invalid)?;
        }
        for spec in plan.leaves.iter().filter(|l| l.round == round) {
            session.apply_leave(spec.worker).map_err(invalid)?;
        }
        for spec in plan.losses.iter().filter(|l| l.round == round) {
            if matches!(spec.policy, LossPolicy::Redistribute) {
                session.apply_leave(spec.worker).map_err(invalid)?;
            }
        }
    }
    Ok(())
}
