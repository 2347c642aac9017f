//! Elastic cluster membership, end to end: scripted joins, leaves, speed
//! skew, and speculative backups may stretch the simulated clock but must
//! never change the learned model, the communication ledger, or the loss
//! curve. Logical data stripes are fixed for the whole run, so any
//! membership schedule is byte-identical to the fixed-membership run in
//! everything except timing.

use std::sync::OnceLock;

use dimboost::core::model_io::model_to_bytes;
use dimboost::core::{
    train_with_options, CheckpointOptions, FaultPlan, GbdtConfig, RobustOptions, RoundRecord,
    TrainError, TrainOptions, TrainOutput,
};
use dimboost::data::partition::partition_rows;
use dimboost::data::synthetic::{generate, SparseGenConfig};
use dimboost::data::Dataset;
use dimboost::ps::PsConfig;
use dimboost::simnet::trace::Track;
use dimboost::simnet::{CostModel, Phase};

fn shards() -> Vec<Dataset> {
    let ds = generate(&SparseGenConfig::new(900, 120, 8, 31));
    partition_rows(&ds, 3).unwrap()
}

fn config() -> GbdtConfig {
    GbdtConfig {
        num_trees: 5,
        max_depth: 4,
        num_candidates: 10,
        seed: 17,
        collect_trace: true,
        ..GbdtConfig::default()
    }
}

fn ps() -> PsConfig {
    PsConfig {
        num_servers: 2,
        num_partitions: 0,
        cost_model: CostModel::GIGABIT_LAN,
    }
}

fn run(robust: &RobustOptions) -> Result<TrainOutput, TrainError> {
    let options = TrainOptions {
        robust: robust.clone(),
        ..TrainOptions::default()
    };
    train_with_options(&shards(), &config(), ps(), &options)
}

fn run_plan(plan: &str) -> TrainOutput {
    run(&RobustOptions {
        fault_plan: Some(FaultPlan::parse(plan).unwrap()),
        ..RobustOptions::default()
    })
    .unwrap()
}

/// Rounds with the run-to-run wall-clock field cleared: everything left is
/// a pure function of the merged global histograms (split gains, node
/// instance counts, histogram bytes) and the model updates, so equality
/// here means the per-round global histograms were bit-equal too.
fn strip_wall(rounds: &[RoundRecord]) -> Vec<RoundRecord> {
    rounds
        .iter()
        .map(|r| RoundRecord {
            compute_secs: 0.0,
            ..r.clone()
        })
        .collect()
}

/// The fixed-membership reference run, computed once.
fn reference() -> &'static TrainOutput {
    static REF: OnceLock<TrainOutput> = OnceLock::new();
    REF.get_or_init(|| run(&RobustOptions::default()).unwrap())
}

/// The full elastic schedule: a machine joins, one retires gracefully, one
/// is torn down cold, one runs on chronically slow hardware, and backups
/// cover whoever stalls a round badly enough.
const ELASTIC: &str = "join worker=3 round=1\n\
                       leave worker=0 round=2 policy=handoff\n\
                       leave worker=1 round=3 policy=redistribute\n\
                       speed worker=1 factor=2.0\n\
                       speculate threshold=1.5\n";

#[test]
fn elastic_membership_changes_timing_but_never_the_model() {
    let clean = reference();
    let elastic = run_plan(ELASTIC);

    // Headline invariant: model bytes are cmp-identical to the
    // uninterrupted fixed-membership run.
    assert_eq!(
        model_to_bytes(&clean.model),
        model_to_bytes(&elastic.model),
        "membership churn changed the learned model"
    );
    // The communication ledger is identical too: stripe transfers and
    // re-shards are charged as pure simulated time, never as ledger bytes.
    assert_eq!(clean.breakdown.comm.bytes, elastic.breakdown.comm.bytes);
    assert_eq!(
        clean.breakdown.comm.packages,
        elastic.breakdown.comm.packages
    );
    for phase in Phase::ALL {
        match (clean.report.phase(phase), elastic.report.phase(phase)) {
            (Some(c), Some(e)) => {
                assert_eq!(c.comm.bytes, e.comm.bytes, "{phase:?} bytes diverged");
                assert_eq!(
                    c.comm.packages, e.comm.packages,
                    "{phase:?} packages diverged"
                );
            }
            (None, None) => {}
            _ => panic!("{phase:?} present in only one report"),
        }
    }
    // Per-round telemetry — split gains, node instance counts, histogram
    // bytes — is bit-equal, and the clock only stretched.
    assert_eq!(
        strip_wall(&clean.report.rounds),
        strip_wall(&elastic.report.rounds)
    );
    assert!(elastic.breakdown.comm.sim_time > clean.breakdown.comm.sim_time);

    // The schedule was actually applied and accounted.
    let m = elastic
        .report
        .membership
        .as_ref()
        .expect("elastic run reports membership");
    assert_eq!(m.joins, 1);
    assert_eq!(m.leaves, 2);
    assert!(m.stripes_moved > 0, "no stripes moved");
    assert_eq!(m.epoch, 3, "one epoch bump per join/leave");
    assert!(m.handoff_secs > 0.0, "graceful leave charged no handoff");
    assert!(m.reshard_secs > 0.0, "cold leave charged no re-shard");
    assert!(m.elastic_secs > 0.0, "speed skew stretched nothing");
    assert!(
        clean.report.membership.is_none(),
        "fixed-membership run reported membership"
    );

    // The churn is visible on the membership trace track.
    let trace = elastic.trace.as_ref().unwrap();
    assert!(
        trace.events.iter().any(|e| e.track == Track::Membership),
        "no membership events on the timeline"
    );
}

#[test]
fn elastic_runs_are_exactly_reproducible() {
    let a = run_plan(ELASTIC);
    let b = run_plan(ELASTIC);
    assert_eq!(a.report.canonical_json(), b.report.canonical_json());
    assert_eq!(
        a.trace.as_ref().unwrap().canonical_chrome_json(),
        b.trace.as_ref().unwrap().canonical_chrome_json()
    );
}

#[test]
fn speculative_backups_win_against_a_chronic_straggler() {
    // One machine is 8x slow; backups launch at 1.5x the median.
    let slow = "speed worker=1 factor=8.0\n";
    let speculative = format!("{slow}speculate threshold=1.5\n");

    let without = run_plan(slow);
    let with = run_plan(&speculative);

    // Same model either way — a backup replays the same stripes and the
    // bit-identical earlier finisher wins.
    assert_eq!(model_to_bytes(&without.model), model_to_bytes(&with.model));
    assert_eq!(
        model_to_bytes(&reference().model),
        model_to_bytes(&with.model)
    );

    let m = with.report.membership.as_ref().unwrap();
    assert!(m.speculative_backups > 0, "no backups launched");
    assert!(m.backup_wins > 0, "no backup beat the straggler");
    assert!(m.speculation_saved_secs > 0.0, "wins saved no time");
    assert!(
        with.breakdown.comm.sim_time < without.breakdown.comm.sim_time,
        "speculation did not shorten the run ({} vs {})",
        with.breakdown.comm.sim_time.seconds(),
        without.breakdown.comm.sim_time.seconds()
    );

    // The backups are visible in the trace.
    let trace = with.trace.as_ref().unwrap();
    assert!(
        trace.events.iter().any(|e| e.track == Track::Membership),
        "no membership events on the timeline"
    );
}

#[test]
fn checkpoint_resume_mid_schedule_is_bit_exact() {
    let dir = std::env::temp_dir().join("dimboost_elasticity_ckpt");
    let _ = std::fs::remove_dir_all(&dir);

    let uninterrupted = run_plan(ELASTIC);

    // Crash at round 3 — after the join and both leaves have reshaped the
    // cluster — and resume from the checkpointed membership snapshot.
    let plan = format!("{ELASTIC}crash round=3\n");
    let crashing = RobustOptions {
        fault_plan: Some(FaultPlan::parse(&plan).unwrap()),
        checkpoint: Some(CheckpointOptions::new(&dir)),
        resume: false,
    };
    let err = run(&crashing).unwrap_err();
    assert!(
        matches!(err, TrainError::Crashed { round: 3, .. }),
        "expected the scripted crash, got {err}"
    );
    let resumed = run(&RobustOptions {
        resume: true,
        ..crashing
    })
    .unwrap();
    assert_eq!(resumed.report.resumed_from_round, Some(3));

    assert_eq!(
        model_to_bytes(&uninterrupted.model),
        model_to_bytes(&resumed.model),
        "resume under an elastic schedule diverged"
    );
    assert_eq!(
        strip_wall(&uninterrupted.report.rounds),
        strip_wall(&resumed.report.rounds)
    );
    // The restored overlay carries the same epoch and placement history.
    let (u, r) = (
        uninterrupted.report.membership.as_ref().unwrap(),
        resumed.report.membership.as_ref().unwrap(),
    );
    assert_eq!(u.epoch, r.epoch);

    std::fs::remove_dir_all(&dir).ok();
}

mod membership_schedules {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Turns an arbitrary event stream into a valid membership plan,
    /// tracking the live set in exactly the order the trainer applies
    /// events (per round: joins in plan order, then leaves). Returns the
    /// plan text plus the join/leave counts it settled on.
    fn plan_for(events: &[(usize, u8)]) -> (String, u64, u64) {
        let mut live: std::collections::BTreeSet<u32> = (0..3).collect();
        let mut next_id = 3u32;
        let mut lines = String::new();
        let (mut joins, mut leaves) = (0u64, 0u64);
        for round in 0..config().num_trees {
            for _ in events.iter().filter(|&&(r, k)| r == round && k == 0) {
                lines.push_str(&format!("join worker={next_id} round={round}\n"));
                live.insert(next_id);
                next_id += 1;
                joins += 1;
            }
            for &(_, kind) in events.iter().filter(|&&(r, k)| r == round && k != 0) {
                if live.len() <= 1 {
                    continue; // the last machine cannot leave
                }
                // Retire the smallest or largest live id, by handoff or by
                // cold redistribute, depending on the sampled kind.
                let victim = if kind % 2 == 1 {
                    *live.iter().next().unwrap()
                } else {
                    *live.iter().next_back().unwrap()
                };
                let policy = if kind < 3 { "handoff" } else { "redistribute" };
                lines.push_str(&format!(
                    "leave worker={victim} round={round} policy={policy}\n"
                ));
                live.remove(&victim);
                leaves += 1;
            }
        }
        (lines, joins, leaves)
    }

    proptest! {
        /// Any sequence of join/leave events yields per-round telemetry
        /// (split gains, node instances, histogram bytes — all pure
        /// functions of the merged global histograms) and a final model
        /// bit-equal to the fixed-membership run.
        #[test]
        fn any_schedule_matches_the_fixed_membership_run(
            events in vec((0usize..5, 0u8..5), 0..8)
        ) {
            let (plan, joins, leaves) = plan_for(&events);
            let elastic = run(&RobustOptions {
                fault_plan: Some(FaultPlan::parse(&plan).unwrap()),
                ..RobustOptions::default()
            })
            .unwrap();
            let clean = reference();
            prop_assert_eq!(
                model_to_bytes(&clean.model),
                model_to_bytes(&elastic.model),
                "schedule {:?} changed the model",
                plan
            );
            prop_assert_eq!(
                strip_wall(&clean.report.rounds),
                strip_wall(&elastic.report.rounds),
                "schedule {:?} changed per-round telemetry",
                plan
            );
            prop_assert_eq!(clean.breakdown.comm.bytes, elastic.breakdown.comm.bytes);
            prop_assert_eq!(clean.breakdown.comm.packages, elastic.breakdown.comm.packages);
            match &elastic.report.membership {
                Some(m) => {
                    prop_assert_eq!(m.joins, joins);
                    prop_assert_eq!(m.leaves, leaves);
                    prop_assert_eq!(m.epoch, joins + leaves);
                }
                None => prop_assert!(
                    plan.is_empty(),
                    "non-empty schedule reported no membership"
                ),
            }
        }
    }
}
