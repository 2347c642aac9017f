//! Serving measurement: the same `CompiledModel` used three ways — one big
//! batch (`score_raw` over the whole training split), many small batches
//! (256-row slices), and row-at-a-time inside `run_serve_sim` — with the
//! output checks that pin the scores to the interpreted model.

use std::time::Instant;

use dimboost_core::GbdtModel;
use dimboost_data::Dataset;
use dimboost_predict::{score_raw, CompiledModel, EngineConfig};
use dimboost_serving::sim::{run_serve_sim, ModelSwap, ServeSimConfig, ServeSimResult, TenantSpec};
use dimboost_serving::{poisson_arrivals, Arrival};

use crate::measure::{median, probe_threads, quantile, repeat_for, Checks, Metric, BENCH_THREADS};
use crate::spans::Recorder;
use crate::workload::{BATCH_SIZE, PROGRAM_SEED};

/// Rows per small-batch scoring call.
const SLICE_ROWS: usize = 256;
/// Distinct slices the small-batch loop cycles through.
const MAX_SLICES: usize = 32;
/// Offered load of the serve-sim trace, requests per simulated second —
/// about a third of the default config's saturation rate (61.5k), so
/// nothing is shed.
const SIM_RATE_RPS: f64 = 20_000.0;

/// How one slice of serving measurement spends its time.
#[derive(Debug, Clone, Copy)]
pub struct ServeBudget {
    /// Wall seconds of whole-dataset scoring.
    pub score_secs: f64,
    /// Wall seconds of 256-row calls.
    pub batch_secs: f64,
    /// Wall seconds of serve-sim runs.
    pub sim_secs: f64,
    /// Minimum whole-dataset calls and serve-sim runs per slice.
    pub min_runs: usize,
    /// Minimum 256-row calls per slice.
    pub min_batch_calls: usize,
}

impl ServeBudget {
    /// `secs` split 30 % whole-dataset, 20 % small batches, 50 % serve-sim.
    pub fn split(secs: f64, min_runs: usize, min_batch_calls: usize) -> Self {
        Self {
            score_secs: secs * 0.3,
            batch_secs: secs * 0.2,
            sim_secs: secs * 0.5,
            min_runs,
            min_batch_calls,
        }
    }
}

/// A compiled model with everything the serving stage derives from it.
struct ServeModels {
    /// The full model, compiled.
    full: CompiledModel,
    /// The "previous version" served by tenant 1 until the hot-swap: the
    /// first half of the ensemble.
    previous: CompiledModel,
    /// Wall seconds `CompiledModel::compile` took for the full model.
    compile_secs: f64,
}

/// Compiles `model` and its first-half "previous version".
fn compile_models(model: &GbdtModel, rec: &mut Recorder) -> ServeModels {
    let start = Instant::now();
    let full = rec.span("predict.compile", "predict", None, |_| {
        CompiledModel::compile(model)
    });
    let compile_secs = start.elapsed().as_secs_f64();
    let half = model.num_trees().div_ceil(2);
    let previous = CompiledModel::compile(&GbdtModel::new(
        model.trees()[..half].to_vec(),
        model.learning_rate(),
        model.loss(),
        model.num_features(),
    ));
    ServeModels {
        full,
        previous,
        compile_secs,
    }
}

fn engine(threads: usize) -> EngineConfig {
    EngineConfig {
        threads,
        batch_size: BATCH_SIZE,
    }
}

/// Checks that the compiled engine's raw scores equal the interpreted
/// model's, element by element, at `threads` threads. Equality is on f32
/// *values*: where every tree routes a row to a `-0.0` leaf the interpreted
/// sum is `-0.0` and the compiled one `+0.0` (seen on seed 10 of
/// `highdim-paper`), which no caller can tell apart; any other difference,
/// one ulp included, fails.
fn check_scores_match(
    model: &GbdtModel,
    compiled: &CompiledModel,
    data: &Dataset,
    threads: usize,
    checks: &mut Checks,
) {
    let want = model.predict_raw_dataset(data);
    let got = score_raw(compiled, data, &engine(threads));
    let wrong =
        want.len().abs_diff(got.len()) + want.iter().zip(&got).filter(|(a, b)| a != b).count();
    checks.check(wrong == 0, || {
        format!("{wrong} compiled scores differ from GbdtModel::predict_raw_dataset")
    });
}

/// Wall seconds of whole-dataset `score_raw` calls.
fn time_whole_dataset(
    compiled: &CompiledModel,
    data: &Dataset,
    threads: usize,
    budget_secs: f64,
    min_runs: usize,
    checks: &mut Checks,
) -> Vec<f64> {
    let config = engine(threads);
    let samples = repeat_for(budget_secs, min_runs, || {
        std::hint::black_box(score_raw(compiled, std::hint::black_box(data), &config));
    });
    checks.ops(samples.len() as u64);
    samples
}

/// Contiguous 256-row slices of `data`, spread over its length.
fn small_slices(data: &Dataset) -> Vec<Dataset> {
    let rows = data.num_rows();
    let len = SLICE_ROWS.min(rows);
    let count = (rows / len.max(1)).clamp(1, MAX_SLICES);
    let stride = (rows - len) / count.max(1);
    (0..count)
        .map(|s| {
            let lo = s * stride;
            data.subset(&(lo..lo + len).collect::<Vec<usize>>())
        })
        .collect()
}

/// Wall seconds of each small-batch `score_raw` call, cycling `slices`.
fn time_small_batches(
    compiled: &CompiledModel,
    slices: &[Dataset],
    threads: usize,
    budget_secs: f64,
    min_calls: usize,
    checks: &mut Checks,
) -> Vec<f64> {
    let config = engine(threads);
    let mut next = 0usize;
    let samples = repeat_for(budget_secs, min_calls, || {
        let slice = &slices[next % slices.len()];
        next += 1;
        std::hint::black_box(score_raw(compiled, std::hint::black_box(slice), &config));
    });
    checks.ops(samples.len() as u64);
    samples
}

/// The serve-sim script: a seeded Poisson trace over two tenants and one
/// hot-swap of tenant 1 halfway through.
struct SimScript {
    /// The two tenants.
    tenants: Vec<TenantSpec>,
    /// The single swap.
    swaps: Vec<ModelSwap>,
    /// The arrival trace.
    arrivals: Vec<Arrival>,
    /// Wall seconds `poisson_arrivals` took.
    arrivals_secs: f64,
    /// The simulation config (repo defaults; nothing here depends on the
    /// seed).
    config: ServeSimConfig,
}

/// Builds the script. Only the arrival trace depends on `seed`.
fn sim_script(
    models: &ServeModels,
    seed: u64,
    requests: usize,
    rows: usize,
    rec: &mut Recorder,
) -> SimScript {
    let start = Instant::now();
    let arrivals = rec.span("serving.arrivals", "serving", None, |_| {
        poisson_arrivals(seed, requests, SIM_RATE_RPS, 2, rows)
    });
    let arrivals_secs = start.elapsed().as_secs_f64();
    let swap_at = arrivals.last().map_or(0.0, |a| a.at_secs) / 2.0;
    SimScript {
        tenants: vec![
            TenantSpec {
                name: "tenant0".to_string(),
                model: models.full.clone(),
            },
            TenantSpec {
                name: "tenant1".to_string(),
                model: models.previous.clone(),
            },
        ],
        swaps: vec![ModelSwap {
            at_secs: swap_at,
            tenant: 1,
            label: "full".to_string(),
            model: models.full.clone(),
        }],
        arrivals,
        arrivals_secs,
        config: ServeSimConfig {
            seed: PROGRAM_SEED,
            ..ServeSimConfig::default()
        },
    }
}

/// Runs the script once; returns the host wall seconds across the call and
/// what the simulation produced.
fn run_sim(script: &SimScript, data: &Dataset, rec: &mut Recorder) -> (f64, ServeSimResult) {
    let start = Instant::now();
    let result = rec.span("serving.sim", "serving", None, |_| {
        run_serve_sim(
            &script.tenants,
            &script.swaps,
            data,
            &script.arrivals,
            &script.config,
        )
    });
    (start.elapsed().as_secs_f64(), result)
}

/// Output checks on one simulation: every request arrived and was served,
/// none shed, the swap happened, and every served score is bit-equal to
/// the standalone prediction of the model that was live at dispatch.
fn check_sim(
    result: &ServeSimResult,
    script: &SimScript,
    models: &ServeModels,
    data: &Dataset,
    checks: &mut Checks,
) {
    let r = &result.report;
    checks.check(
        r.arrived == script.arrivals.len() as u64
            && r.arrived == r.served + r.shed + r.in_flight_at_end
            && r.in_flight_at_end == 0,
        || {
            format!(
                "serve-sim conservation: planned {} arrived {} served {} shed {} in flight {}",
                script.arrivals.len(),
                r.arrived,
                r.served,
                r.shed,
                r.in_flight_at_end
            )
        },
    );
    checks.check(r.shed == 0, || {
        format!("serve-sim shed {} requests", r.shed)
    });
    checks.check(r.swaps == 1, || {
        format!("serve-sim applied {} swaps", r.swaps)
    });
    let wrong = result
        .records
        .iter()
        .filter(|rec| {
            let model = if rec.tenant == 1 && rec.epoch == 0 {
                &models.previous
            } else {
                &models.full
            };
            model.predict(&data.row(rec.row)).to_bits() != rec.score.to_bits()
        })
        .count();
    checks.check(wrong == 0, || {
        format!("{wrong} served scores differ from the standalone model")
    });
}

/// Sorted request latencies (completion − arrival) in simulated seconds.
fn sim_latencies(result: &ServeSimResult) -> Vec<f64> {
    let mut latencies: Vec<f64> = result
        .records
        .iter()
        .map(|r| r.complete_secs - r.arrival_secs)
        .collect();
    latencies.sort_by(f64::total_cmp);
    latencies
}

/// What is kept of the first simulation (a 300k-request result holds tens
/// of MB, and keeping one alive across later runs makes peak RSS depend on
/// heap layout).
struct SimSummary {
    served: u64,
    batches: u64,
    shed: u64,
    /// Per-tenant score checksums; every later run must reproduce them.
    checksums: Vec<u64>,
    /// Sorted request latencies, simulated seconds.
    latencies: Vec<f64>,
}

/// The serving measurement of one model on one dataset. Samples accumulate
/// over any number of [`ServeBench::measure`] slices, so a caller can
/// interleave serving with other work and a slow spell of the host touches
/// a share of every metric's samples instead of all samples of one metric.
pub struct ServeBench<'a> {
    model: &'a GbdtModel,
    data: &'a Dataset,
    models: ServeModels,
    slices: Vec<Dataset>,
    script: SimScript,
    /// Wall seconds of whole-dataset calls.
    whole: Vec<f64>,
    /// Wall seconds of 256-row calls.
    small: Vec<f64>,
    /// Host wall seconds of simulations.
    sim_walls: Vec<f64>,
    first_sim: Option<SimSummary>,
}

impl<'a> ServeBench<'a> {
    /// Compiles the model, checks its scores against the interpreted model
    /// and builds the serve-sim script. Only the arrival trace depends on
    /// `seed`.
    pub fn new(
        model: &'a GbdtModel,
        data: &'a Dataset,
        seed: u64,
        sim_requests: usize,
        rec: &mut Recorder,
        checks: &mut Checks,
    ) -> Self {
        let models = compile_models(model, rec);
        check_scores_match(model, &models.full, data, BENCH_THREADS, checks);
        let script = sim_script(&models, seed, sim_requests, data.num_rows(), rec);
        Self {
            model,
            data,
            slices: small_slices(data),
            models,
            script,
            whole: Vec::new(),
            small: Vec::new(),
            sim_walls: Vec::new(),
            first_sim: None,
        }
    }

    /// One slice of measuring: whole-dataset calls, then 256-row calls,
    /// then simulations, each for its share of `budget`.
    pub fn measure(&mut self, budget: ServeBudget, rec: &mut Recorder, checks: &mut Checks) {
        self.whole.extend(time_whole_dataset(
            &self.models.full,
            self.data,
            BENCH_THREADS,
            budget.score_secs,
            budget.min_runs,
            checks,
        ));
        self.small.extend(time_small_batches(
            &self.models.full,
            &self.slices,
            BENCH_THREADS,
            budget.batch_secs,
            budget.min_batch_calls,
            checks,
        ));
        let begin = Instant::now();
        let mut runs = 0;
        while runs < budget.min_runs || begin.elapsed().as_secs_f64() < budget.sim_secs {
            runs += 1;
            self.simulate(rec, checks);
        }
    }

    /// One timed simulation. The first is checked in full; every later one
    /// must reproduce its per-tenant score checksums.
    fn simulate(&mut self, rec: &mut Recorder, checks: &mut Checks) {
        let (wall_secs, result) = run_sim(&self.script, self.data, rec);
        checks.ops(1);
        self.sim_walls.push(wall_secs);
        let report = &result.report;
        let checksums: Vec<u64> = report.tenants.iter().map(|t| t.score_checksum).collect();
        match &self.first_sim {
            None => {
                check_sim(&result, &self.script, &self.models, self.data, checks);
                self.first_sim = Some(SimSummary {
                    served: report.served,
                    batches: report.batches,
                    shed: report.shed,
                    checksums,
                    latencies: sim_latencies(&result),
                });
            }
            Some(first) => checks.check(first.checksums == checksums, || {
                "serve-sim score checksums differ across repeats".to_string()
            }),
        }
    }

    fn first_sim(&self) -> &SimSummary {
        self.first_sim
            .as_ref()
            .expect("measure() runs at least one simulation")
    }

    /// The serving end-to-end metrics. Call after at least one
    /// [`ServeBench::measure`].
    pub fn end_to_end_metrics(&self) -> Vec<Metric> {
        let rows = self.data.num_rows() as f64;
        let sim = self.first_sim();
        let served = sim.served as f64;
        vec![
            Metric::derived("score_rows_per_s", "1/s", &self.whole, |w| rows / w),
            Metric::derived("score_batch256_p50_us", "us", &self.small, |s| s * 1e6),
            Metric::derived("serve_sim_requests_per_s", "1/s", &self.sim_walls, |w| {
                served / w
            }),
            Metric::exact(
                "serve_sim_p99_latency_ms",
                "sim_ms",
                quantile(&sim.latencies, 0.99) * 1e3,
            ),
        ]
    }

    /// The `predict.*` and `serving.*` per-layer metrics: `score_secs` of
    /// `budget` is split between the compiled engine at one thread, at
    /// [`probe_threads`] threads, and the interpreted model; the rest is one
    /// [`ServeBench::measure`] slice.
    pub fn layer_metrics(
        &mut self,
        budget: ServeBudget,
        rec: &mut Recorder,
        checks: &mut Checks,
    ) -> Vec<Metric> {
        let (model, data) = (self.model, self.data);
        let each = budget.score_secs / 3.0;
        check_scores_match(model, &self.models.full, data, probe_threads(), checks);
        let tn = rec.span("predict.score_tn", "predict", None, |_| {
            time_whole_dataset(
                &self.models.full,
                data,
                probe_threads(),
                each,
                budget.min_runs,
                checks,
            )
        });
        let interp = rec.span("predict.interpreted", "core", None, |_| {
            let samples = repeat_for(each, budget.min_runs, || {
                std::hint::black_box(model.predict_raw_dataset(std::hint::black_box(data)));
            });
            checks.ops(samples.len() as u64);
            samples
        });
        self.measure(
            ServeBudget {
                score_secs: each,
                ..budget
            },
            rec,
            checks,
        );

        let rows = data.num_rows() as f64;
        let sim = self.first_sim();
        vec![
            Metric::exact("predict.compile_s", "s", self.models.compile_secs),
            Metric::exact(
                "predict.model_bytes",
                "B",
                self.models.full.memory_bytes() as f64,
            ),
            Metric::derived("predict.score_t1_rows_per_s", "1/s", &self.whole, |w| {
                rows / w
            }),
            Metric::derived("predict.score_tn_rows_per_s", "1/s", &tn, |w| rows / w),
            Metric::exact(
                "predict.thread_speedup",
                "x",
                median(&self.whole) / median(&tn),
            ),
            Metric::derived("predict.interp_rows_per_s", "1/s", &interp, |w| rows / w),
            Metric::exact(
                "predict.score_batch256_p99_us",
                "us",
                quantile(&self.small, 0.99) * 1e6,
            ),
            Metric::exact("serving.arrivals_s", "s", self.script.arrivals_secs),
            Metric::median_of("serving.sim_wall_s", "s", self.sim_walls.clone()),
            Metric::exact("serving.batches", "count", sim.batches as f64),
            Metric::exact(
                "serving.mean_batch",
                "rows",
                sim.served as f64 / sim.batches.max(1) as f64,
            ),
            Metric::exact("serving.shed", "count", sim.shed as f64),
            Metric::exact(
                "serving.p50_latency_ms",
                "sim_ms",
                quantile(&sim.latencies, 0.5) * 1e3,
            ),
        ]
    }
}
