//! One process, one workload, one mode.
//!
//! `--trace 0` is the **end-to-end** run (here): spans off, `collect_trace`
//! off, set-up repeated for a median, then the measuring window cut into
//! rounds that each train and serve. `--trace 1` is the **traced** run
//! ([`crate::layers`]).

use std::path::{Path, PathBuf};
use std::time::Instant;

use dimboost_core::GbdtConfig;

use crate::json::{num, obj, text, Json};
use crate::measure::{host_json, peak_rss_mib, Checks, Metric, BENCH_THREADS};
use crate::serve::{self, ServeBudget};
use crate::setup::{prepare, Prepared};
use crate::spans::{self, Recorder, Span};
use crate::train::{self, timed_train, TrainRuns};
use crate::workload::Workload;

/// What one process was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The preset (already reduced when `smoke`).
    pub workload: Workload,
    /// Seed for the data and arrival generators.
    pub seed: u64,
    /// Length of the measuring window in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Tiny shapes and minimum repeat counts.
    pub smoke: bool,
    /// Directory for the output files (inside the checkout).
    pub out_dir: PathBuf,
}

/// What one process measured.
#[derive(Debug)]
pub struct RunResult {
    /// Operations attempted/failed and the failure messages.
    pub checks: Checks,
    /// The metrics of the mode that ran.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The driver's last-line object: `correct`, `attempted`, `failed`,
    /// `metrics` (value and unit per metric).
    pub fn contract_json(&self) -> Json {
        obj([
            ("correct", Json::Bool(self.checks.failed == 0)),
            ("attempted", num(self.checks.attempted.max(1) as f64)),
            ("failed", num(self.checks.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                obj([("value", num(m.value)), ("unit", text(m.unit))]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Minimum repeat counts; `smoke` keeps the same code paths at the lowest
/// counts that still exercise the across-repeat checks.
pub(crate) struct Repeats {
    pub(crate) setup: usize,
    /// Interleaved measuring rounds of the end-to-end run.
    pub(crate) rounds: usize,
    /// Nominal wall seconds of one round.
    pub(crate) round_secs: f64,
    /// 256-row calls per round, at least.
    pub(crate) batch_calls: usize,
    pub(crate) replays: usize,
    pub(crate) traced_trains: usize,
}

impl Repeats {
    pub(crate) fn for_mode(smoke: bool) -> Self {
        if smoke {
            Self {
                setup: 2,
                rounds: 2,
                round_secs: 0.25,
                batch_calls: 50,
                replays: 1,
                traced_trains: 1,
            }
        } else {
            Self {
                setup: 5,
                rounds: 5,
                round_secs: 2.0,
                batch_calls: 400,
                replays: 3,
                traced_trains: 2,
            }
        }
    }
}

/// Runs the workload in the requested mode and writes the output files.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let mut checks = Checks::default();
    let (metrics, detail, spans) = if args.trace {
        crate::layers::traced(args, &mut checks)?
    } else {
        (end_to_end(args, &mut checks)?, Vec::new(), None)
    };
    let result = RunResult { checks, metrics };
    write_outputs(args, &result, detail, spans.as_deref())?;
    Ok(result)
}

/// Runs set-up `reps` times, keeping the last result, each repetition's
/// wall seconds, and — for `train_in_setup` workloads — the model training
/// calls that are part of their set-up.
pub(crate) fn repeated_setup(
    args: &RunArgs,
    config: &GbdtConfig,
    reps: usize,
    rec: &mut Recorder,
    checks: &mut Checks,
) -> Result<(Prepared, Vec<f64>, TrainRuns), String> {
    let scratch = args.out_dir.join("tmp");
    let mut prepared: Option<Prepared> = None;
    let mut secs = Vec::with_capacity(reps);
    let mut trains = TrainRuns::default();
    for _ in 0..reps {
        // Free the previous copy first so peak RSS does not depend on how
        // often set-up is repeated.
        drop(prepared.take());
        let start = Instant::now();
        let p = rec.span("setup", "harness", None, |rec| {
            prepare(&args.workload, args.seed, &scratch, rec, checks)
        })?;
        if args.workload.train_in_setup {
            let call = rec.span("trainer.train_distributed", "trainer", None, |_| {
                timed_train(&p.shards, config, args.workload.ps_config(), checks)
            });
            if let Some(call) = call {
                trains.push(call, checks);
            }
        }
        secs.push(start.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let _ = std::fs::remove_dir(&scratch);
    Ok((prepared.expect("reps >= 1"), secs, trains))
}

fn end_to_end(args: &RunArgs, checks: &mut Checks) -> Result<Vec<Metric>, String> {
    let workload = &args.workload;
    let config = workload.gbdt_config(BENCH_THREADS);
    let ps_config = workload.ps_config();
    let repeats = Repeats::for_mode(args.smoke);
    let mut rec = Recorder::new(false);

    let (prepared, setup_secs, mut runs) =
        repeated_setup(args, &config, repeats.setup, &mut rec, checks)?;

    // The measuring window. The host this runs on is shared: it has slow
    // spells that last seconds. So the window is cut into rounds and every
    // round measures everything — a slow spell then touches a share of
    // each metric's samples and the medians hold.
    let begin = Instant::now();
    // Not a sample: first-touch page faults, the lazily created thread
    // pool. Its model is the one the serving stage scores with.
    let warmup = if workload.train_in_setup {
        None
    } else {
        timed_train(&prepared.shards, &config, ps_config, checks)
    };
    let model = match warmup.as_ref().or(runs.calls.first()) {
        Some(call) => call.output.model.clone(),
        None => return Err("no successful training call".to_string()),
    };
    let mut bench = serve::ServeBench::new(
        &model,
        &prepared.train,
        args.seed,
        workload.sim_requests,
        &mut rec,
        checks,
    );
    let train_slice = repeats.round_secs * workload.train_share();
    let serve_slice = ServeBudget::split(repeats.round_secs - train_slice, 1, repeats.batch_calls);
    let mut rounds = 0;
    while rounds < repeats.rounds || begin.elapsed().as_secs_f64() < args.seconds {
        rounds += 1;
        if !workload.train_in_setup {
            let slice = Instant::now();
            while let Some(call) = timed_train(&prepared.shards, &config, ps_config, checks) {
                runs.push(call, checks);
                if slice.elapsed().as_secs_f64() >= train_slice {
                    break;
                }
            }
        }
        bench.measure(serve_slice, &mut rec, checks);
    }
    if let (Some(warm), Some(first)) = (&warmup, runs.calls.first()) {
        first.check_same_model(warm, checks);
    }

    let mut metrics = vec![Metric::median_of("setup_s", "s", setup_secs)];
    metrics.extend(train::end_to_end_metrics(
        &runs,
        prepared.train.num_rows(),
        &prepared.test,
        checks,
    ));
    metrics.extend(bench.end_to_end_metrics());
    metrics.push(Metric::exact("peak_rss_mib", "MiB", peak_rss_mib()));
    Ok(metrics)
}

fn write_file(path: &Path, value: &Json) -> Result<(), String> {
    std::fs::write(path, crate::json::to_string(value) + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Writes `<workload>.json` (end-to-end) or `<workload>.layers.json` and
/// `<workload>.spans.json` (traced) into the output directory.
fn write_outputs(
    args: &RunArgs,
    result: &RunResult,
    detail: Vec<(String, Json)>,
    spans: Option<&[Span]>,
) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let mut members = vec![
        ("benchmark".to_string(), text("dimboost-benchmark")),
        (
            "mode".to_string(),
            text(if args.trace { "traced" } else { "end_to_end" }),
        ),
        ("workload".to_string(), text(args.workload.name)),
        ("seed".to_string(), num(args.seed as f64)),
        ("seconds".to_string(), num(args.seconds)),
        ("smoke".to_string(), Json::Bool(args.smoke)),
        ("host".to_string(), host_json()),
        ("shape".to_string(), args.workload.shape_json()),
        ("correct".to_string(), Json::Bool(result.checks.failed == 0)),
        ("attempted".to_string(), num(result.checks.attempted as f64)),
        ("failed".to_string(), num(result.checks.failed as f64)),
        (
            "failures".to_string(),
            Json::Arr(result.checks.failures.iter().map(text).collect()),
        ),
    ];
    members.extend(detail);
    members.push((
        "metrics".to_string(),
        Json::Obj(
            result
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.detail_json()))
                .collect(),
        ),
    ));
    let suffix = if args.trace { "layers.json" } else { "json" };
    let name = args.workload.name;
    write_file(
        &args.out_dir.join(format!("{name}.{suffix}")),
        &Json::Obj(members),
    )?;
    if let Some(spans) = spans {
        write_file(
            &args.out_dir.join(format!("{name}.spans.json")),
            &spans::to_json(spans),
        )?;
    }
    Ok(())
}
