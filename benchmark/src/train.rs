//! End-to-end training measurement: repeated `train_distributed` calls on
//! fixed shards, timed from outside, with the output checks that make a
//! speed number mean something (same model every time, loss went down,
//! finite hold-out loss).

use std::time::Instant;

use dimboost_core::metrics::log_loss;
use dimboost_core::model_io::model_to_bytes;
use dimboost_core::{train_distributed, GbdtConfig, TrainOutput};
use dimboost_data::Dataset;
use dimboost_ps::PsConfig;
use dimboost_simnet::Phase;

use crate::measure::{fnv1a64, process_cpu_secs, Checks, Metric};

/// One timed `train_distributed` call.
#[derive(Debug, Clone)]
pub struct TrainCall {
    /// Host wall seconds across the call.
    pub wall_secs: f64,
    /// Process CPU seconds across the call (all threads).
    pub cpu_secs: f64,
    /// FNV-1a 64 of the serialized model.
    pub model_fnv: u64,
    /// What the program reported.
    pub output: TrainOutput,
}

impl TrainCall {
    /// Checks that `other` (same shards, same config) produced the same
    /// model bytes.
    pub fn check_same_model(&self, other: &TrainCall, checks: &mut Checks) {
        let (want, got) = (self.model_fnv, other.model_fnv);
        checks.check(want == got, || {
            format!("model bytes differ across repeats: fnv {want:016x} vs {got:016x}")
        });
    }
}

/// Trains once, timing the call from outside. An `Err` from the trainer is
/// counted as a failed operation and yields `None`.
pub fn timed_train(
    shards: &[Dataset],
    config: &GbdtConfig,
    ps_config: PsConfig,
    checks: &mut Checks,
) -> Option<TrainCall> {
    let cpu_before = process_cpu_secs();
    let start = Instant::now();
    let result = train_distributed(shards, config, ps_config);
    let wall_secs = start.elapsed().as_secs_f64();
    let cpu_secs = process_cpu_secs() - cpu_before;
    checks.ops(1);
    match result {
        Ok(output) => Some(TrainCall {
            wall_secs,
            cpu_secs,
            model_fnv: fnv1a64(&model_to_bytes(&output.model)),
            output,
        }),
        Err(e) => {
            checks.fail(format!("train_distributed returned Err: {e}"));
            None
        }
    }
}

/// A set of timed calls with identical inputs.
#[derive(Debug, Clone, Default)]
pub struct TrainRuns {
    /// Every successful call, in order.
    pub calls: Vec<TrainCall>,
}

impl TrainRuns {
    /// Adds a call, checking its model against the first one's: the same
    /// shards and config must give the same bytes every time.
    pub fn push(&mut self, call: TrainCall, checks: &mut Checks) {
        if let Some(first) = self.calls.first() {
            first.check_same_model(&call, checks);
        }
        self.calls.push(call);
    }

    /// The first call's output (all calls agree — see [`TrainRuns::push`]).
    pub fn reference(&self) -> Option<&TrainOutput> {
        self.calls.first().map(|c| &c.output)
    }

    /// Host wall seconds of every call.
    pub fn walls(&self) -> Vec<f64> {
        self.calls.iter().map(|c| c.wall_secs).collect()
    }

    fn report_samples(&self, f: impl Fn(&TrainOutput) -> f64) -> Vec<f64> {
        self.calls.iter().map(|c| f(&c.output)).collect()
    }

    /// What the program's own `RunReport` says, median over the calls —
    /// the `trainer.*` per-layer metrics.
    pub fn trainer_metrics(&self) -> Vec<Metric> {
        let phase = |p: Phase| {
            self.report_samples(move |o| o.report.phase(p).map_or(0.0, |r| r.compute_max_secs))
        };
        // NEW_TREE's report row already includes the gradient pass, and
        // PULL_SKETCH has no timed compute, so six rows cover the report.
        vec![
            Metric::median_of(
                "trainer.compute_s",
                "s",
                self.report_samples(|o| o.report.compute_secs),
            ),
            Metric::median_of("trainer.create_sketch_s", "s", phase(Phase::CreateSketch)),
            Metric::median_of("trainer.new_tree_s", "s", phase(Phase::NewTree)),
            Metric::median_of(
                "trainer.build_histogram_s",
                "s",
                phase(Phase::BuildHistogram),
            ),
            Metric::median_of("trainer.split_tree_s", "s", phase(Phase::SplitTree)),
            Metric::median_of("trainer.finish_s", "s", phase(Phase::Finish)),
            Metric::median_of(
                "trainer.cpu_s",
                "s",
                self.calls.iter().map(|c| c.cpu_secs).collect(),
            ),
        ]
    }
}

/// The training end-to-end metrics from `runs` (non-empty), with the
/// quality checks: the loss curve went down and the hold-out loss is
/// finite.
pub fn end_to_end_metrics(
    runs: &TrainRuns,
    train_rows: usize,
    test: &Dataset,
    checks: &mut Checks,
) -> Vec<Metric> {
    let Some(output) = runs.reference() else {
        checks.check(false, || "no successful train call to report".to_string());
        return Vec::new();
    };
    let walls = runs.walls();
    let trees = output.model.num_trees();
    let work = (train_rows * trees) as f64;

    let curve: Vec<f64> = output.loss_curve.iter().map(|p| p.train_loss).collect();
    let final_loss = curve.last().copied().unwrap_or(f64::NAN);
    let went_down = final_loss < std::f64::consts::LN_2
        && curve.first().is_some_and(|&first| final_loss <= first);
    checks.check(went_down, || {
        format!("training loss did not decrease: {curve:?}")
    });

    let test_logloss = log_loss(&output.model.predict_dataset(test), test.labels());
    checks.check(test_logloss.is_finite(), || {
        format!("test log-loss is not finite: {test_logloss}")
    });

    vec![
        Metric::median_of("train_wall_s", "s", walls.clone()),
        Metric::derived("train_rows_per_s", "1/s", &walls, |w| work / w),
        Metric::exact(
            "comm_sim_s",
            "sim_s",
            output.breakdown.comm.sim_time.seconds(),
        ),
        Metric::exact("comm_bytes", "B", output.breakdown.comm.bytes as f64),
        Metric::exact("final_train_loss", "nats", final_loss),
        Metric::exact("test_logloss", "nats", test_logloss),
    ]
}
