//! The traced (`--trace 1`) run: every per-layer metric of one workload.
//!
//! Harness spans are on. The window goes to four stages: set-up under
//! spans (`data.*`); full training with the program's own trace off, on,
//! and at the probe thread count (`trainer.*`, `simnet.sim_s.*`,
//! `simnet.trace_overhead_frac`); then, repeated, *one-tree training call →
//! scripted replay of that tree → isolated probes* (`sketch.*`, `core.*`,
//! `ps.*`, `simnet.wire.*`, `replay.*`); then the serving layers
//! (`predict.*`, `serving.*`).

use std::time::Instant;

use dimboost_core::{GbdtConfig, GbdtModel};
use dimboost_data::Dataset;
use dimboost_ps::PsConfig;
use dimboost_simnet::Phase;

use crate::json::{num, obj, Json};
use crate::measure::{median, probe_threads, Checks, Metric, BENCH_THREADS};
use crate::probes::run_probes;
use crate::replay::{reconcile, replay_round0, ReplayCounts};
use crate::run::{repeated_setup, Repeats, RunArgs};
use crate::serve::{ServeBench, ServeBudget};
use crate::spans::{self, Recorder, Span};
use crate::train::{timed_train, TrainRuns};

/// Metrics, extra members for `<workload>.layers.json`, and the spans.
pub(crate) type Traced = (Vec<Metric>, Vec<(String, Json)>, Option<Vec<Span>>);

/// Time metrics that are exactly "seconds inside spans called `<name>`
/// (metric name minus `_s`), summed per repetition, median over
/// repetitions".
const SPAN_SECONDS: [&str; 23] = [
    "sketch.build_s",
    "sketch.merge_s",
    "sketch.propose_s",
    "core.grad_s",
    "core.binned_build_s",
    "core.quantbinned_build_s",
    "core.qgrads_quantize_s",
    "core.hist_build_s",
    "core.hist_build_t1_s",
    "core.hist.sparse_batched_s",
    "core.hist.binned_batched_s",
    "core.hist.fused_s",
    "core.hist.fused_quant_s",
    "core.node_index_split_s",
    "core.pred_update_s",
    "core.loss_eval_s",
    "ps.quantize_row_s",
    "ps.push_s",
    "ps.pull_split_s",
    "ps.derive_sibling_s",
    "ps.init_clear_s",
    "ps.sparse.encode_qblock_s",
    "ps.sparse.decode_qblock_s",
];

/// Per-repetition seconds of every span name seen under a replay root or
/// its probes root; the replay's value wins when both have the name (an
/// off-path probe only fills in what the replay did not execute).
#[derive(Default)]
struct SpanSamples {
    by_name: Vec<(&'static str, Vec<f64>)>,
}

impl SpanSamples {
    fn add_repetition(&mut self, replay: &[Span], probes: &[Span]) {
        let mut seen: Vec<&'static str> = Vec::new();
        for spans in [replay, probes] {
            for span in spans {
                if seen.contains(&span.name) {
                    continue;
                }
                seen.push(span.name);
                let secs = spans::total_secs(spans, span.name);
                match self.by_name.iter_mut().find(|(n, _)| *n == span.name) {
                    Some((_, samples)) => samples.push(secs),
                    None => self.by_name.push((span.name, vec![secs])),
                }
            }
        }
    }

    fn get(&self, span: &str) -> &[f64] {
        self.by_name
            .iter()
            .find(|(n, _)| *n == span)
            .map_or(&[], |(_, samples)| samples)
    }

    /// `amount` per second of span `span`, median over repetitions.
    fn rate(&self, metric: &'static str, unit: &'static str, span: &str, amount: f64) -> Metric {
        Metric::derived(metric, unit, self.get(span), |secs| amount / secs)
    }
}

/// `data.*`: set-up under spans, mean per repetition.
fn data_layer(
    args: &RunArgs,
    config: &GbdtConfig,
    reps: usize,
    rec: &mut Recorder,
    checks: &mut Checks,
    metrics: &mut Vec<Metric>,
) -> Result<crate::setup::Prepared, String> {
    let mark = rec.mark();
    let (prepared, _, _) = repeated_setup(args, config, reps, rec, checks)?;
    let spans = rec.since(mark);
    let per_rep = |name: &str| spans::total_secs(spans, name) / reps as f64;
    metrics.extend([
        Metric::exact("data.generate_s", "s", per_rep("data.generate")),
        Metric::exact(
            "data.libsvm_read_mb_per_s",
            "MB/s",
            prepared.libsvm_bytes as f64 / 1e6 / per_rep("data.libsvm_read"),
        ),
        Metric::exact("data.partition_s", "s", per_rep("data.partition")),
    ]);
    Ok(prepared)
}

/// `trainer.*` and the simulated-clock side of `simnet.*`: full training
/// calls, alternately plain, with `collect_trace`, and at the probe thread
/// count. Returns the trained model for the serving layers.
#[allow(clippy::too_many_arguments)]
fn trainer_layer(
    shards: &[Dataset],
    config: &GbdtConfig,
    ps_config: PsConfig,
    budget_secs: f64,
    min_rounds: usize,
    rec: &mut Recorder,
    checks: &mut Checks,
    metrics: &mut Vec<Metric>,
) -> Result<GbdtModel, String> {
    let with_trace = GbdtConfig {
        collect_trace: true,
        ..config.clone()
    };
    let threaded = GbdtConfig {
        num_threads: probe_threads(),
        ..config.clone()
    };
    let mut plain = TrainRuns::default();
    let mut traced_walls: Vec<f64> = Vec::new();
    let mut threaded_walls: Vec<f64> = Vec::new();
    let begin = Instant::now();
    while threaded_walls.len() < min_rounds || begin.elapsed().as_secs_f64() < budget_secs {
        let train = |name, config: &GbdtConfig, rec: &mut Recorder, checks: &mut Checks| {
            rec.span(name, "trainer", None, |_| {
                timed_train(shards, config, ps_config, checks)
            })
        };
        let calls = (
            train("trainer.train_distributed", config, rec, checks),
            train("trainer.train_distributed_traced", &with_trace, rec, checks),
            train("trainer.train_distributed_tn", &threaded, rec, checks),
        );
        let (Some(a), Some(b), Some(c)) = calls else {
            break;
        };
        checks.check(b.output.trace.is_some(), || {
            "collect_trace = true returned no trace".to_string()
        });
        plain.push(a, checks);
        traced_walls.push(b.wall_secs);
        threaded_walls.push(c.wall_secs);
    }
    let output = plain
        .reference()
        .ok_or("no successful full training call")?;
    let plain_wall = median(&plain.walls());
    metrics.extend(plain.trainer_metrics());
    metrics.push(Metric::exact(
        "trainer.thread_speedup",
        "x",
        plain_wall / median(&threaded_walls),
    ));
    for (name, phases) in [
        (
            "simnet.sim_s.sketch",
            &[Phase::CreateSketch, Phase::PullSketch][..],
        ),
        ("simnet.sim_s.build_histogram", &[Phase::BuildHistogram][..]),
        ("simnet.sim_s.find_split", &[Phase::FindSplit][..]),
        ("simnet.sim_s.split_tree", &[Phase::SplitTree][..]),
    ] {
        let secs: f64 = phases
            .iter()
            .filter_map(|&p| output.report.phase(p))
            .map(|r| r.comm.sim_time.seconds())
            .sum();
        metrics.push(Metric::exact(name, "sim_s", secs));
    }
    metrics.push(Metric::exact(
        "simnet.trace_overhead_frac",
        "frac",
        median(&traced_walls) / plain_wall - 1.0,
    ));
    Ok(output.model.clone())
}

/// What the first replay repetition fixed; later repetitions must agree.
struct ReplayFacts {
    counts: ReplayCounts,
    row_len: usize,
    binned_bytes: usize,
    quantbinned_bytes: usize,
    layer_self_secs: Vec<(&'static str, f64)>,
    wire_bytes_equal: bool,
}

/// `sketch.*`, `core.*`, `ps.*`, `simnet.wire.*` and `replay.*`: repeated
/// *train one tree → replay it → probe*.
#[allow(clippy::too_many_arguments)]
fn replay_layers(
    shards: &[Dataset],
    config: &GbdtConfig,
    ps_config: PsConfig,
    budget_secs: f64,
    min_reps: usize,
    rec: &mut Recorder,
    checks: &mut Checks,
    metrics: &mut Vec<Metric>,
) -> Result<Vec<(String, Json)>, String> {
    let one_tree = GbdtConfig {
        num_trees: 1,
        ..config.clone()
    };
    let mut train1_walls: Vec<f64> = Vec::new();
    let mut totals: Vec<f64> = Vec::new();
    let mut ps_fracs: Vec<f64> = Vec::new();
    let mut samples = SpanSamples::default();
    let mut facts: Option<ReplayFacts> = None;
    let begin = Instant::now();
    while totals.len() < min_reps || begin.elapsed().as_secs_f64() < budget_secs {
        let Some(train1) = rec.span("trainer.train_distributed_1tree", "trainer", None, |_| {
            timed_train(shards, &one_tree, ps_config, checks)
        }) else {
            break;
        };
        let mark = rec.mark();
        let mut outcome = replay_round0(shards, &one_tree, ps_config, &train1.output, rec)?;
        checks.ops(1);
        reconcile(&outcome, &train1.output, checks);
        run_probes(shards, &one_tree, ps_config, &mut outcome, rec);

        let recorded = rec.since(mark);
        let (replay_spans, replay_base) = spans::descendants(recorded, mark, "replay");
        let (probe_spans, _) = spans::descendants(recorded, mark, "probes");
        samples.add_repetition(replay_spans, probe_spans);
        let layer_self_secs = spans::layer_self_secs(replay_spans, replay_base);
        let total: f64 = layer_self_secs.iter().map(|(_, secs)| secs).sum();
        let ps_secs: f64 = layer_self_secs
            .iter()
            .filter(|(layer, _)| *layer == "ps")
            .map(|(_, secs)| secs)
            .sum();
        train1_walls.push(train1.wall_secs);
        totals.push(total);
        ps_fracs.push(ps_secs / total);

        match &facts {
            None => {
                let workers = &outcome.workers;
                facts = Some(ReplayFacts {
                    counts: outcome.counts,
                    row_len: outcome.meta.layout().row_len(),
                    binned_bytes: workers
                        .iter()
                        .filter_map(|w| w.binned.as_ref().map(|b| b.memory_bytes()))
                        .sum(),
                    quantbinned_bytes: workers
                        .iter()
                        .filter_map(|w| w.qbinned.as_ref().map(|q| q.memory_bytes()))
                        .sum(),
                    layer_self_secs,
                    wire_bytes_equal: train1
                        .output
                        .report
                        .rounds
                        .first()
                        .is_some_and(|r| r.hist_bytes_wire == outcome.counts.push_bytes_wire),
                });
            }
            Some(first) => checks.check(first.counts == outcome.counts, || {
                format!(
                    "replay counts differ across repetitions: {:?} vs {:?}",
                    first.counts, outcome.counts
                )
            }),
        }
    }
    let facts = facts.ok_or("no replay repetition completed")?;
    let counts = &facts.counts;

    for name in SPAN_SECONDS {
        let span = name.strip_suffix("_s").expect("listed names end in _s");
        metrics.push(Metric::median_of(name, "s", samples.get(span).to_vec()));
    }
    for (name, unit, value) in [
        ("sketch.inserts", "count", counts.sketch_inserts),
        ("core.hist_entries", "count", counts.hist_entries),
        ("core.hist_cells", "count", counts.hist_cells),
        ("core.binned_bytes", "B", facts.binned_bytes as u64),
        (
            "core.quantbinned_bytes",
            "B",
            facts.quantbinned_bytes as u64,
        ),
        (
            "core.pool_constructions",
            "count",
            dimboost_core::pool::pool_constructions() as u64,
        ),
        ("ps.quantize_elems", "count", counts.quantize_elems),
        ("ps.push_calls", "count", counts.push_calls),
        ("ps.push_bytes_raw", "B", counts.push_bytes_raw),
        ("ps.push_bytes_wire", "B", counts.push_bytes_wire),
        ("ps.pull_split_calls", "count", counts.pull_split_calls),
    ] {
        metrics.push(Metric::exact(name, unit, value as f64));
    }
    let row_mb = 4.0 * facts.row_len as f64 / 1e6;
    metrics.extend([
        samples.rate(
            "core.hist_entries_per_s",
            "1/s",
            "core.hist_build",
            counts.hist_entries as f64,
        ),
        samples.rate(
            "core.hist_cells_per_s",
            "1/s",
            "core.hist_build",
            counts.hist_cells as f64,
        ),
        samples.rate(
            "simnet.wire.encode_dense_mb_per_s",
            "MB/s",
            "simnet.wire.encode_dense",
            row_mb,
        ),
        samples.rate(
            "simnet.wire.decode_dense_mb_per_s",
            "MB/s",
            "simnet.wire.decode_dense",
            row_mb,
        ),
        samples.rate(
            "simnet.wire.encode_sparse_mb_per_s",
            "MB/s",
            "simnet.wire.encode_sparse",
            row_mb,
        ),
        samples.rate(
            "simnet.wire.decode_sparse_mb_per_s",
            "MB/s",
            "simnet.wire.decode_sparse",
            row_mb,
        ),
        Metric::exact(
            "core.hist_thread_speedup",
            "x",
            median(samples.get("core.hist_build_t1")) / median(samples.get("core.hist_build_tn")),
        ),
        Metric::exact(
            "ps.wire_reduction_x",
            "x",
            counts.push_bytes_raw as f64 / counts.push_bytes_wire as f64,
        ),
    ]);

    // Unaccounted time is defined on the reported medians, so
    // total + unaccounted = train1_wall holds for the numbers a reader sees.
    let (train1_wall, total) = (median(&train1_walls), median(&totals));
    metrics.extend([
        Metric::median_of("replay.train1_wall_s", "s", train1_walls),
        Metric::median_of("replay.total_s", "s", totals),
        Metric::exact("replay.unaccounted_s", "s", train1_wall - total),
        Metric::exact(
            "replay.unaccounted_frac",
            "frac",
            (train1_wall - total) / train1_wall,
        ),
        Metric::median_of("replay.ps_frac", "frac", ps_fracs),
    ]);

    Ok(vec![
        ("row_len".to_string(), num(facts.row_len as f64)),
        (
            "replay_layer_self_secs".to_string(),
            Json::Obj(
                facts
                    .layer_self_secs
                    .iter()
                    .map(|(layer, secs)| (layer.to_string(), num(*secs)))
                    .collect(),
            ),
        ),
        (
            "replay_info".to_string(),
            obj([
                ("split_mismatches", num(counts.split_mismatches as f64)),
                (
                    "wire_bytes_equal_report",
                    Json::Bool(facts.wire_bytes_equal),
                ),
            ]),
        ),
    ])
}

/// Runs the traced mode for `args`.
pub(crate) fn traced(args: &RunArgs, checks: &mut Checks) -> Result<Traced, String> {
    let workload = &args.workload;
    let config = workload.gbdt_config(BENCH_THREADS);
    let ps_config = workload.ps_config();
    let repeats = Repeats::for_mode(args.smoke);
    let mut rec = Recorder::new(true);
    let mut metrics: Vec<Metric> = Vec::new();

    let prepared = data_layer(
        args,
        &config,
        repeats.setup.min(3),
        &mut rec,
        checks,
        &mut metrics,
    )?;
    let model = trainer_layer(
        &prepared.shards,
        &config,
        ps_config,
        args.seconds * 0.3,
        repeats.traced_trains,
        &mut rec,
        checks,
        &mut metrics,
    )?;
    let detail = replay_layers(
        &prepared.shards,
        &config,
        ps_config,
        args.seconds * 0.45,
        repeats.replays,
        &mut rec,
        checks,
        &mut metrics,
    )?;
    let mut bench = ServeBench::new(
        &model,
        &prepared.train,
        args.seed,
        workload.sim_requests,
        &mut rec,
        checks,
    );
    metrics.extend(bench.layer_metrics(
        ServeBudget::split(
            args.seconds * 0.25,
            repeats.rounds.min(3),
            repeats.batch_calls,
        ),
        &mut rec,
        checks,
    ));
    drop(bench);

    spans::check_well_formed(rec.spans()).map_err(|e| format!("span tree: {e}"))?;
    Ok((metrics, detail, Some(rec.spans().to_vec())))
}
