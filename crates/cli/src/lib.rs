//! Command-line interface for the DimBoost reproduction.
//!
//! Subcommands:
//!
//! * `train` — train a model on a LibSVM file (optionally on a simulated
//!   multi-worker cluster) and save it.
//! * `predict` — score a LibSVM/CSV file with a saved model through the
//!   compiled inference engine (`dimboost-predict`).
//! * `serve-sim` — open-loop traffic simulation over one or more saved
//!   models (`dimboost-serving`): seeded arrivals, SLO batching, load
//!   shedding, hot-swap, and a canonical `serving_sim` report.
//! * `analyze` — profile a recorded trace (train events-text or serve-sim)
//!   into a canonical `trace_profile` report: critical-path decomposition,
//!   utilization/wait split, SLO breakdown, folded flamegraph stacks.
//! * `evaluate` — report error / log-loss / AUC of a model on a file.
//! * `gen` — write a synthetic dataset in LibSVM format.
//!
//! Each subcommand has one flag table (`*_flags`, read through the
//! `flags` module) from which parsing, range checks and the [`usage`]
//! synopsis all derive; [`parse_args`] is a pure function so the whole
//! surface is unit-testable.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod flags;

use std::path::{Display, Path, PathBuf};

use dimboost_core::metrics::{
    auc, classification_error, log_loss, multiclass_error, multiclass_log_loss, rmse,
};
use dimboost_core::{
    load_model_file, save_model_file, CheckpointOptions, FaultPlan, GbdtConfig, LossKind,
    RobustOptions, TrainCheckpoint, TrainError, TrainOptions,
};
use dimboost_data::csv::{read_csv_file, CsvOptions};
use dimboost_data::libsvm::{read_libsvm_file, write_libsvm, LibsvmOptions};
use dimboost_data::partition::{partition_rows, train_test_split};
use dimboost_data::synthetic::{generate, SparseGenConfig};
use dimboost_data::Dataset;
use dimboost_predict::{score_raw, score_transformed, CompiledModel, EngineConfig};
use dimboost_ps::PsConfig;
use dimboost_serving::{
    analyze_serve_trace, is_serve_trace, poisson_arrivals, ModelSwap, ServeSimConfig, TenantSpec,
};
use dimboost_simnet::{analyze_trace, CostModel, Trace};
use flags::{Flags, ANY, FINITE, NON_NEGATIVE, POSITIVE, UNIT_INTERVAL};

/// A fully-parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Train a model from a LibSVM file (boxed, like `ServeSim`: both are
    /// much larger than the rest).
    Train(Box<TrainArgs>),
    /// Score a LibSVM/CSV file with a saved model.
    Predict(PredictArgs),
    /// Open-loop traffic simulation over saved models.
    ServeSim(Box<ServeSimArgs>),
    /// Profile a recorded trace into a canonical trace_profile report.
    Analyze(AnalyzeArgs),
    /// Evaluate a saved model on a LibSVM file.
    Evaluate(EvalArgs),
    /// Generate a synthetic LibSVM dataset.
    Gen(GenArgs),
    /// Print a saved model's structure and feature importance.
    Inspect(InspectArgs),
    /// Print usage.
    Help,
}

/// Arguments for `train`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainArgs {
    /// Input LibSVM file.
    pub data: PathBuf,
    /// Output model path.
    pub model: PathBuf,
    /// Simulated worker count.
    pub workers: usize,
    /// Parameter-server count (0 = same as workers).
    pub servers: usize,
    /// Fraction held out for a test report after training.
    pub test_fraction: f64,
    /// Feature indices in the file start at 0 instead of 1.
    pub zero_based: bool,
    /// Stop after this many rounds without held-out improvement.
    pub early_stop: Option<usize>,
    /// Write the JSON run report (per-phase compute/comm, per-round
    /// telemetry) here after training.
    pub report: Option<PathBuf>,
    /// Write the canonical (timing-free, rerun-stable) run report here.
    pub report_canonical: Option<PathBuf>,
    /// Write a Chrome-trace-event JSON of the run (load in Perfetto or
    /// `chrome://tracing`) and print the plain-text timeline summary.
    pub trace: Option<PathBuf>,
    /// Write the canonical trace: pure simulated clock, no wall-clock
    /// annotations, byte-identical across reruns.
    pub trace_canonical: Option<PathBuf>,
    /// Write the events-text trace: the exact event stream with
    /// shortest-round-trip f64s, parseable back bit-exactly by `analyze`.
    pub trace_events: Option<PathBuf>,
    /// Profile the run's trace in-process and write the canonical
    /// `trace_profile` JSON here (same bytes `analyze` produces offline).
    pub profile: Option<PathBuf>,
    /// Deterministic fault plan file injected into the simulated cluster.
    pub fault_plan: Option<PathBuf>,
    /// Directory for the rolling training checkpoint.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence in boosting rounds (requires `--checkpoint-dir`).
    pub checkpoint_every: usize,
    /// Resume from the checkpoint in `--checkpoint-dir`.
    pub resume: bool,
    /// Hyper-parameters.
    pub config: GbdtConfig,
}

/// Arguments for `predict`.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictArgs {
    /// Input LibSVM (or, with `csv`, CSV) file.
    pub data: PathBuf,
    /// Saved model path.
    pub model: PathBuf,
    /// Where to write predictions (stdout when `None`).
    pub output: Option<PathBuf>,
    /// Emit raw additive scores instead of transformed predictions
    /// (multiclass models emit `K` space-separated scores per row).
    pub raw: bool,
    /// Feature indices in the file start at 0 instead of 1.
    pub zero_based: bool,
    /// Parse the input as CSV (label in column 0) instead of LibSVM.
    pub csv: bool,
    /// Scoring threads.
    pub threads: usize,
    /// Rows per scoring batch.
    pub batch_size: usize,
}

/// Arguments for `serve-sim`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSimArgs {
    /// Input LibSVM (or, with `csv`, CSV) file whose rows the simulated
    /// requests score.
    pub data: PathBuf,
    /// Saved model paths, one per tenant (repeat `--model`).
    pub models: Vec<PathBuf>,
    /// Requests in the arrival schedule.
    pub requests: usize,
    /// Mean arrival rate, requests per simulated second (all tenants).
    pub rate: f64,
    /// Seed for the arrival schedule.
    pub seed: u64,
    /// Per-tenant queue capacity (arrivals beyond it are shed).
    pub queue_cap: usize,
    /// Maximum requests per dispatched batch.
    pub max_batch: usize,
    /// Latency SLO in simulated seconds.
    pub slo: f64,
    /// Fixed service cost per batch, simulated seconds.
    pub service_fixed: f64,
    /// Incremental service cost per batched request, simulated seconds.
    pub service_per_row: f64,
    /// Stop the simulation at this simulated time (default: drain).
    pub horizon: Option<f64>,
    /// Simulated time of the scripted model swap.
    pub swap_at: Option<f64>,
    /// Tenant index whose model the swap replaces.
    pub swap_tenant: usize,
    /// Replacement model file for the swap.
    pub swap_model: Option<PathBuf>,
    /// Checkpoint directory to load the replacement model from (the
    /// checkpointed model swaps in mid-stream).
    pub swap_checkpoint: Option<PathBuf>,
    /// Feature indices in the file start at 0 instead of 1.
    pub zero_based: bool,
    /// Parse the input as CSV (label in column 0) instead of LibSVM.
    pub csv: bool,
    /// Write the timed JSON serving-sim report here.
    pub report: Option<PathBuf>,
    /// Write the canonical (timing-free, rerun-stable) report here.
    pub report_canonical: Option<PathBuf>,
    /// Write the deterministic plain-text event trace here.
    pub trace: Option<PathBuf>,
    /// Profile the run's trace in-process and write the canonical
    /// `trace_profile` JSON here (same bytes `analyze` produces offline).
    pub profile: Option<PathBuf>,
}

/// Arguments for `analyze`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeArgs {
    /// Trace file to profile: a train events-text trace
    /// (`train --trace-events`) or a serve-sim trace (`serve-sim --trace`),
    /// distinguished by their header lines.
    pub trace: PathBuf,
    /// Write the canonical `trace_profile` JSON here.
    pub out: Option<PathBuf>,
    /// Write folded flamegraph stacks here.
    pub folded: Option<PathBuf>,
    /// Rows in the printed summary table.
    pub top: usize,
}

/// Arguments for `evaluate`.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalArgs {
    /// Input LibSVM file.
    pub data: PathBuf,
    /// Saved model path.
    pub model: PathBuf,
    /// Feature indices in the file start at 0 instead of 1.
    pub zero_based: bool,
}

/// Arguments for `inspect`.
#[derive(Debug, Clone, PartialEq)]
pub struct InspectArgs {
    /// Saved model path.
    pub model: PathBuf,
    /// How many top features to list.
    pub top: usize,
    /// Dump the full structure of tree `i`.
    pub dump_tree: Option<usize>,
}

/// Arguments for `gen`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenArgs {
    /// Output LibSVM path.
    pub out: PathBuf,
    /// Rows to generate.
    pub rows: usize,
    /// Feature count.
    pub features: usize,
    /// Average nonzeros per row.
    pub nnz: usize,
    /// RNG seed.
    pub seed: u64,
}

/// A subcommand's flag table: a function that reads each flag of the
/// subcommand through [`Flags`] (see [`flags`]), then applies the cross-flag
/// rules no single flag can declare.
type Build = fn(&mut Flags) -> Result<Command, String>;

const SUBCOMMANDS: [(&str, Build); 7] = [
    ("train", train_flags),
    ("predict", predict_flags),
    ("serve-sim", serve_sim_flags),
    ("analyze", analyze_flags),
    ("evaluate", evaluate_flags),
    ("gen", gen_flags),
    ("inspect", inspect_flags),
];

/// Parses a raw argument list (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let name = match args.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => return Ok(Command::Help),
        Some(name) => name,
    };
    let (sub, build) = SUBCOMMANDS
        .iter()
        .find(|(sub, _)| *sub == name)
        .ok_or_else(|| format!("unknown subcommand {name:?} (try `dimboost help`)"))?;
    flags::parse(sub, *build, &args[1..])
}

/// Usage text: a synopsis generated from the flag tables, then the prose.
pub fn usage() -> String {
    let mut out = String::from("dimboost — DimBoost (SIGMOD'18) GBDT trainer\n\nUSAGE:\n");
    for (sub, build) in SUBCOMMANDS {
        out += &flags::synopsis(&format!("dimboost {sub}"), &flags::table(build));
    }
    out + "  dimboost help\n\n" + USAGE_PROSE
}

const USAGE_PROSE: &str = "\
`predict` scores through the compiled inference engine (packed 16-byte
tree nodes, statically striped batches): output bytes are bit-identical
across reruns and across any `--threads`/`--batch-size`, and equal to the
interpreted evaluation path. `--threads`/`--batch-size` on `train`
control the batched histogram builder the same way. `--fused-layer`
builds all of a layer's node histograms in one pass over the pre-binned
shard (implies the binned representation); reruns stay bit-identical for
fixed `--threads`/`--batch-size`. `--quantized-hist` accumulates
histograms as packed fixed-point integers (`--quant-hist-bits` codes,
default 12): integer addition is associative, so the learned model bytes
are bit-identical across **any** `--threads`/`--batch-size` — and across
the per-node vs `--fused-layer` paths — not just across reruns of one
configuration. `--sparse-wire` ships histogram pushes
as density-adaptive sparse frames (dense / bitmap / runs, smallest per
message; composes with `--bits` low precision): the learned model is
bit-identical to the dense exchange while `hist_bytes_wire` and the
BUILD_HISTOGRAM exchange charge track the true frame bytes, reported in
the `sparsity` section.

`serve-sim` replays an open-loop Poisson arrival stream (seeded, pure in
`--seed`) against one tenant per `--model` on the simulated clock: bounded
queues shed at admission, batches dispatch when full or when the oldest
request's SLO slack expires, and `--swap-at` hot-swaps a tenant's model
(from a file or a training checkpoint) atomically between batches. The
canonical report and event trace are byte-identical across reruns.

`analyze` profiles a recorded trace — a train events-text trace
(`train --trace-events`) or a serve-sim trace (`serve-sim --trace`),
told apart by their headers — into a canonical `trace_profile` report:
critical-path decomposition attributed per (track, phase) with the
`critical_path_total == final sim time` identity checked bit-exactly,
busy/idle/blocked utilization, PS queue-wait vs service split, fault
stretch, and per-tenant SLO breakdown for serving traces. `--folded`
writes flamegraph-ready folded stacks. `--profile` on `train` and
`serve-sim` emits the same bytes in-process.

A `--fault-plan` file scripts deterministic faults (stragglers, message
drops, duplicates, server outages, a crash, permanent worker losses) into
the simulated cluster; faults change timing only, never the learned model.
A run that crashes under the plan exits with status 3 after writing its
checkpoint; rerun with `--resume` to continue it bit-exactly. A line that
names a machine the run never has (not one of its workers, and added by
no `join`) is an error.

The same file scripts elastic membership: `join worker=N round=R` adds a
machine at a round boundary, `leave worker=N round=R policy=handoff|
redistribute` retires one (handoff charges a warm stripe transfer,
redistribute a 2x cold re-shard), `speed worker=N factor=F` makes a
machine chronically slow, and `speculate threshold=F` launches a backup
copy of the slowest machine's work whenever a round runs more than F
times the median, keeping the faster finisher. Logical data stripes are
fixed for the whole run and re-sharded deterministically, so any
membership schedule yields byte-identical model, ledger, and loss curve
to the fixed-membership run — only simulated time stretches, reported
under `membership` in the report and on the membership trace track.
Stragglers and `lose … policy=redistribute` (a cold leave) are timed by
the same stripe→machine model, so every plan reports `membership`.
";

fn train_flags(f: &mut Flags) -> Result<Command, String> {
    let mut config = GbdtConfig::default();
    config.num_trees = f.value_or("--trees N", ANY, config.num_trees);
    config.max_depth = f.value_or("--depth D", ANY, config.max_depth);
    config.learning_rate = f.value_or("--lr F", ANY, config.learning_rate);
    config.num_candidates = f.value_or("--candidates K", ANY, config.num_candidates);
    config.feature_sample_ratio =
        f.value_or("--feature-sample F", ANY, config.feature_sample_ratio);
    config.instance_sample_ratio = f.value_or("--row-sample F", ANY, config.instance_sample_ratio);
    config.compress_bits = f.value_or("--bits N", ANY, config.compress_bits);
    let loss: Option<String> = f.optional("--loss logistic|square|softmax", ANY);
    let classes: Option<u32> = f.optional("--classes K", &[POSITIVE]);
    config.seed = f.value_or("--seed N", ANY, config.seed);
    config.learn_default_direction = f.switch("--default-direction");
    config.opts.pre_binning = f.switch("--pre-binning");
    config.opts.hist_subtraction = f.switch("--hist-subtraction");
    config.opts.fused_layer = f.switch("--fused-layer");
    config.opts.sparse_wire = f.switch("--sparse-wire");
    config.opts.quantized_hist = f.switch("--quantized-hist");
    config.quant_hist_bits = f.value_or("--quant-hist-bits N", ANY, config.quant_hist_bits);
    config.num_threads = f.value_or("--threads Q", &[POSITIVE], config.num_threads);
    config.batch_size = f.value_or("--batch-size B", &[POSITIVE], config.batch_size);
    let mut args = TrainArgs {
        data: f.required("--data <libsvm>"),
        model: f.required("--model <out>"),
        workers: f.value_or("--workers W", &[POSITIVE], 1),
        servers: f.value_or("--servers P", ANY, 0),
        test_fraction: f.value_or("--test-fraction F", &[UNIT_INTERVAL], 0.0),
        zero_based: f.switch("--zero-based"),
        early_stop: f.optional("--early-stop R", ANY),
        report: f.optional("--report <json>", ANY),
        report_canonical: f.optional("--report-canonical <json>", ANY),
        trace: f.optional("--trace <json>", ANY),
        trace_canonical: f.optional("--trace-canonical <json>", ANY),
        trace_events: f.optional("--trace-events <path>", ANY),
        profile: f.optional("--profile <json>", ANY),
        fault_plan: f.optional("--fault-plan <file>", ANY),
        checkpoint_dir: f.optional("--checkpoint-dir <dir>", ANY),
        checkpoint_every: f.value_or("--checkpoint-every N", &[POSITIVE], 1),
        resume: f.switch("--resume"),
        config,
    };
    // Resolved here, after both were read, so their order cannot matter.
    args.config.loss = match (loss.as_deref(), classes) {
        (None | Some("softmax"), Some(classes)) => LossKind::Softmax { classes },
        (Some("softmax"), None) => return Err("--loss softmax requires --classes K".into()),
        (None | Some("logistic"), None) => LossKind::Logistic,
        (Some("square"), None) => LossKind::Square,
        (Some(binary @ ("logistic" | "square")), Some(_)) => {
            return Err(format!("--loss {binary} conflicts with --classes"))
        }
        (Some(other), _) => return Err(format!("unknown loss {other:?}")),
    };
    args.config.collect_trace = args.trace.is_some()
        || args.trace_canonical.is_some()
        || args.trace_events.is_some()
        || args.profile.is_some();
    if args.early_stop.is_some() && args.test_fraction <= 0.0 {
        return Err("--early-stop requires --test-fraction > 0".into());
    }
    if args.checkpoint_dir.is_none() && (args.resume || args.checkpoint_every != 1) {
        return Err("--resume and --checkpoint-every require --checkpoint-dir".into());
    }
    Ok(Command::Train(Box::new(args)))
}

fn predict_flags(f: &mut Flags) -> Result<Command, String> {
    let engine = EngineConfig::default();
    Ok(Command::Predict(PredictArgs {
        data: f.required("--data <libsvm|csv>"),
        model: f.required("--model <file>"),
        output: f.optional("--output <path>", ANY),
        raw: f.switch("--raw"),
        zero_based: f.switch("--zero-based"),
        csv: f.switch("--csv"),
        threads: f.value_or("--threads Q", &[POSITIVE], engine.threads),
        batch_size: f.value_or("--batch-size B", &[POSITIVE], engine.batch_size),
    }))
}

fn serve_sim_flags(f: &mut Flags) -> Result<Command, String> {
    let args = ServeSimArgs {
        data: f.required("--data <libsvm|csv>"),
        models: f.repeated("--model <file>"),
        requests: f.value_or("--requests N", &[POSITIVE], 1_000),
        rate: f.value_or("--rate RPS", &[POSITIVE, FINITE], 500.0),
        seed: f.value_or("--seed N", ANY, 42),
        queue_cap: f.value_or("--queue-cap N", &[POSITIVE], 256),
        max_batch: f.value_or("--max-batch N", &[POSITIVE], 16),
        slo: f.value_or("--slo SECS", &[POSITIVE, FINITE], 0.05),
        service_fixed: f.value_or("--service-fixed SECS", &[FINITE, NON_NEGATIVE], 1e-4),
        service_per_row: f.value_or("--service-per-row SECS", &[FINITE, NON_NEGATIVE], 1e-5),
        horizon: f.optional("--horizon SECS", &[POSITIVE]),
        swap_at: f.optional("--swap-at SECS", &[FINITE, NON_NEGATIVE]),
        swap_tenant: f.value_or("--swap-tenant I", ANY, 0),
        swap_model: f.optional("--swap-model <file>", ANY),
        swap_checkpoint: f.optional("--swap-checkpoint <dir>", ANY),
        zero_based: f.switch("--zero-based"),
        csv: f.switch("--csv"),
        report: f.optional("--report <json>", ANY),
        report_canonical: f.optional("--report-canonical <json>", ANY),
        trace: f.optional("--trace <path>", ANY),
        profile: f.optional("--profile <json>", ANY),
    };
    // A swap needs a time and exactly one model source, and must name a
    // loaded tenant.
    let sources =
        usize::from(args.swap_model.is_some()) + usize::from(args.swap_checkpoint.is_some());
    if args.swap_at.is_some() && sources != 1 {
        return Err("--swap-at requires exactly one of --swap-model or --swap-checkpoint".into());
    }
    if args.swap_at.is_none() && sources != 0 {
        return Err("--swap-model/--swap-checkpoint requires --swap-at".into());
    }
    if args.swap_at.is_some() && args.swap_tenant >= args.models.len() {
        return Err(format!(
            "--swap-tenant {} out of range for {} model(s)",
            args.swap_tenant,
            args.models.len()
        ));
    }
    Ok(Command::ServeSim(Box::new(args)))
}

fn analyze_flags(f: &mut Flags) -> Result<Command, String> {
    Ok(Command::Analyze(AnalyzeArgs {
        trace: f.required("--trace <path>"),
        out: f.optional("--out <json>", ANY),
        folded: f.optional("--folded <path>", ANY),
        top: f.value_or("--top N", &[POSITIVE], 10),
    }))
}

fn evaluate_flags(f: &mut Flags) -> Result<Command, String> {
    Ok(Command::Evaluate(EvalArgs {
        data: f.required("--data <libsvm>"),
        model: f.required("--model <file>"),
        zero_based: f.switch("--zero-based"),
    }))
}

fn gen_flags(f: &mut Flags) -> Result<Command, String> {
    Ok(Command::Gen(GenArgs {
        out: f.required("--out <path>"),
        rows: f.value_or("--rows N", ANY, 1_000),
        features: f.value_or("--features M", &[POSITIVE], 100),
        nnz: f.value_or("--nnz Z", ANY, 10),
        seed: f.value_or("--seed N", ANY, 42),
    }))
}

fn inspect_flags(f: &mut Flags) -> Result<Command, String> {
    Ok(Command::Inspect(InspectArgs {
        model: f.required("--model <file>"),
        top: f.value_or("--top N", ANY, 10),
        dump_tree: f.optional("--dump-tree I", ANY),
    }))
}

fn libsvm_opts(zero_based: bool, num_features: Option<usize>) -> LibsvmOptions {
    LibsvmOptions {
        one_based: !zero_based,
        num_features,
        binarize_labels: true,
    }
}

/// Loads a scoring input (LibSVM by default, CSV with `csv`). Labels are
/// kept as-is — scoring ignores them.
fn read_scoring_data(
    path: &Path,
    csv: bool,
    zero_based: bool,
    num_features: usize,
) -> Result<Dataset, String> {
    if csv {
        let opts = CsvOptions {
            binarize_labels: false,
            ..CsvOptions::default()
        };
        read_csv_file(path, opts).map_err(|e| e.to_string())
    } else {
        let mut opts = libsvm_opts(zero_based, Some(num_features));
        opts.binarize_labels = false;
        read_libsvm_file(path, opts).map_err(|e| e.to_string())
    }
}

/// Renders scores one row per line; rows wider than one score (raw
/// multiclass) are space-separated. `f32` Display is shortest-round-trip,
/// so the text is a faithful, deterministic encoding of the score bits.
fn scores_text(scores: &[f32], width: usize) -> String {
    let mut text = String::with_capacity(scores.len() * 10);
    for row in scores.chunks(width.max(1)) {
        for (i, s) in row.iter().enumerate() {
            if i > 0 {
                text.push(' ');
            }
            text.push_str(&format!("{s}"));
        }
        text.push('\n');
    }
    text
}

/// A runtime failure, carrying the process exit status to report.
///
/// Most failures exit with status 1; a *simulated* worker crash injected by
/// a fault plan exits with status 3 so scripts can tell "the run died as
/// scripted — resume it" apart from a genuine error.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError {
    /// Human-readable message (printed to stderr by the binary).
    pub message: String,
    /// Process exit status (1 = error, 3 = simulated crash).
    pub exit_code: i32,
}

impl CliError {
    /// Substring test on the message, mirroring `str::contains` so error
    /// assertions read the same as they did when `run` returned `String`.
    pub fn contains(&self, needle: &str) -> bool {
        self.message.contains(needle)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError {
            message,
            exit_code: 1,
        }
    }
}

/// Executes a parsed command, writing human-readable output to stdout.
pub fn run(command: Command) -> Result<(), CliError> {
    match command {
        Command::Help => {
            println!("{}", usage());
            Ok(())
        }
        Command::Inspect(args) => run_inspect(&args),
        Command::Gen(args) => run_gen(&args),
        Command::Train(args) => run_train(&args),
        Command::Predict(args) => run_predict(&args),
        Command::ServeSim(args) => run_serve_sim(&args),
        Command::Analyze(args) => run_analyze(&args),
        Command::Evaluate(args) => run_evaluate(&args),
    }
}

/// Writes one output file (`what` names it if that fails) and hands back
/// its path for the caller's announcement, so nothing is announced before
/// it is on disk.
fn write_artifact<'p>(path: &'p Path, what: &str, text: &str) -> Result<Display<'p>, CliError> {
    std::fs::write(path, text).map_err(|e| format!("write {what}: {e}"))?;
    Ok(path.display())
}

/// Compiled-engine scores are bit-equal to the interpreted path, so
/// scoring through it changes no output byte.
fn load_compiled(path: &Path) -> Result<CompiledModel, CliError> {
    let model = load_model_file(path).map_err(|e| e.to_string())?;
    Ok(CompiledModel::compile(&model))
}

fn run_inspect(args: &InspectArgs) -> Result<(), CliError> {
    let model = load_model_file(&args.model).map_err(|e| e.to_string())?;
    println!(
        "model: {} trees (depth <= {}), {} features, {} classes, lr {}, loss {:?}",
        model.num_trees(),
        model
            .trees()
            .iter()
            .map(|t| t.max_depth())
            .max()
            .unwrap_or(0),
        model.num_features(),
        model.num_classes(),
        model.learning_rate(),
        model.loss()
    );
    let leaves: usize = model.trees().iter().map(|t| t.num_leaves()).sum();
    let splits: usize = model.trees().iter().map(|t| t.num_internal()).sum();
    println!("totals: {splits} splits, {leaves} leaves");
    println!("top features by gain:");
    for (f, g) in model.top_features(args.top) {
        println!("  f{f:<8} gain {g:.4}");
    }
    if let Some(i) = args.dump_tree {
        let tree = model
            .trees()
            .get(i)
            .ok_or_else(|| format!("tree {i} out of {}", model.num_trees()))?;
        println!("\ntree {i}:\n{}", tree.dump());
    }
    Ok(())
}

fn run_gen(args: &GenArgs) -> Result<(), CliError> {
    let ds = generate(&SparseGenConfig::new(
        args.rows,
        args.features,
        args.nnz,
        args.seed,
    ));
    let file = std::fs::File::create(&args.out).map_err(|e| format!("create output: {e}"))?;
    write_libsvm(file, &ds).map_err(|e| e.to_string())?;
    println!(
        "wrote {} rows x {} features ({} nonzeros) to {}",
        ds.num_rows(),
        ds.num_features(),
        ds.nnz(),
        args.out.display()
    );
    Ok(())
}

fn run_train(args: &TrainArgs) -> Result<(), CliError> {
    let mut opts = libsvm_opts(args.zero_based, None);
    if !matches!(args.config.loss, LossKind::Logistic) {
        // Square keeps raw targets; softmax keeps class indices.
        opts.binarize_labels = false;
    }
    let full = read_libsvm_file(&args.data, opts).map_err(|e| e.to_string())?;
    println!(
        "loaded {} rows x {} features from {}",
        full.num_rows(),
        full.num_features(),
        args.data.display()
    );
    let (train, test) = if args.test_fraction > 0.0 {
        let (tr, te) = train_test_split(&full, args.test_fraction, args.config.seed)
            .map_err(|e| e.to_string())?;
        (tr, Some(te))
    } else {
        (full, None)
    };
    let shards = partition_rows(&train, args.workers).map_err(|e| e.to_string())?;
    let servers = if args.servers == 0 {
        args.workers
    } else {
        args.servers
    };
    let ps = PsConfig {
        num_servers: servers,
        num_partitions: 0,
        cost_model: CostModel::GIGABIT_LAN,
    };
    let fault_plan = match &args.fault_plan {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("read fault plan {}: {e}", path.display()))?;
            let plan = FaultPlan::parse(&text);
            Some(plan.map_err(|e| format!("fault plan {}: {e}", path.display()))?)
        }
        None => None,
    };
    let checkpoint = args.checkpoint_dir.as_ref().map(|dir| {
        let mut ck = CheckpointOptions::new(dir.clone());
        ck.every = args.checkpoint_every;
        ck
    });
    let options = TrainOptions {
        eval: match (&test, args.early_stop) {
            (Some(test), Some(rounds)) => Some(dimboost_core::EvalOptions {
                dataset: test,
                early_stopping_rounds: Some(rounds),
            }),
            _ => None,
        },
        init: None,
        robust: RobustOptions {
            fault_plan,
            checkpoint,
            resume: args.resume,
        },
    };
    let out =
        dimboost_core::train_with_options(&shards, &args.config, ps, &options).map_err(|e| {
            CliError {
                message: e.to_string(),
                exit_code: match e {
                    TrainError::Crashed { .. } => 3,
                    _ => 1,
                },
            }
        })?;
    if let Some(round) = out.report.resumed_from_round {
        println!("resumed from checkpoint at round {round}");
    }
    if let Some(best) = out.best_iteration {
        println!(
            "early stopping: best round {best}, kept {} trees",
            out.model.num_trees()
        );
    }
    println!(
        "trained {} trees; compute {:.2}s, simulated comm {:.2}s ({} bytes)",
        out.model.num_trees(),
        out.breakdown.compute_secs,
        out.breakdown.comm.sim_time.seconds(),
        out.breakdown.comm.bytes
    );
    print!("{}", out.report.summary());
    if let Some(f) = &out.report.faults {
        println!(
            "faults (plan seed {}): {} retries, {} request drops, {} ack drops, \
             {} duplicates ({} deduplicated), {} forced deliveries",
            f.plan_seed,
            f.retries,
            f.request_drops,
            f.ack_drops,
            f.duplicates,
            f.dedup_hits,
            f.forced_deliveries
        );
    }
    if let Some(m) = &out.report.membership {
        println!(
            "membership: {} joins, {} leaves, {} stripes moved (epoch {}); \
             handoff {:.2}s, re-shard {:.2}s, dilation {:.2}s; \
             {} backups ({} wins, {:.2}s saved), {} stale pushes rejected",
            m.joins,
            m.leaves,
            m.stripes_moved,
            m.epoch,
            m.handoff_secs,
            m.reshard_secs,
            m.elastic_secs,
            m.speculative_backups,
            m.backup_wins,
            m.speculation_saved_secs,
            m.stale_rejects
        );
    }
    // Save the model before the (optional) report: an unwritable report
    // path must not discard the training run's primary artifact.
    save_model_file(&out.model, &args.model).map_err(|e| e.to_string())?;
    println!("model saved to {}", args.model.display());
    if let Some(path) = &args.report {
        let path = write_artifact(path, "report", &out.report.json())?;
        println!("run report written to {path}");
    }
    if let Some(path) = &args.report_canonical {
        let path = write_artifact(path, "canonical report", &out.report.canonical_json())?;
        println!("canonical report written to {path}");
    }
    if let Some(trace) = &out.trace {
        print!("{}", trace.timeline());
        if let Some(path) = &args.trace {
            let path = write_artifact(path, "trace", &trace.chrome_json())?;
            println!("trace written to {path} (load in Perfetto)");
        }
        if let Some(path) = &args.trace_canonical {
            let path = write_artifact(path, "canonical trace", &trace.canonical_chrome_json())?;
            println!("canonical trace written to {path}");
        }
        if let Some(path) = &args.trace_events {
            let path = write_artifact(path, "events trace", &trace.events_text())?;
            println!("events trace written to {path}");
        }
        if let Some(path) = &args.profile {
            // Same analyzer `analyze` runs offline, so the two paths
            // produce byte-identical profiles.
            let profile = analyze_trace(trace).map_err(|e| format!("profile trace: {e}"))?;
            let path = write_artifact(path, "profile", &profile.canonical_json())?;
            println!("trace profile written to {path}");
        }
    }
    if let Some(last) = out.loss_curve.last() {
        println!("final train loss: {:.5}", last.train_loss);
    }
    if let Some(test) = test {
        let probs = out.model.predict_dataset(&test);
        match args.config.loss {
            LossKind::Logistic => println!(
                "held-out: error {:.4}, logloss {:.4}, auc {:.4}",
                classification_error(&probs, test.labels()),
                log_loss(&probs, test.labels()),
                auc(&probs, test.labels())
            ),
            LossKind::Square => {
                println!("held-out rmse: {:.4}", rmse(&probs, test.labels()))
            }
            LossKind::Softmax { .. } => {
                let probas = out.model.predict_proba_dataset(&test);
                println!(
                    "held-out: error {:.4}, mlogloss {:.4}",
                    multiclass_error(&probs, test.labels()),
                    multiclass_log_loss(&probas, test.labels())
                );
            }
        }
    }
    Ok(())
}

fn run_predict(args: &PredictArgs) -> Result<(), CliError> {
    let compiled = load_compiled(&args.model)?;
    let num_features = compiled.num_features();
    let ds = read_scoring_data(&args.data, args.csv, args.zero_based, num_features)?;
    let engine = EngineConfig {
        threads: args.threads,
        batch_size: args.batch_size,
    };
    let (preds, width) = if args.raw {
        let k = compiled.num_classes();
        (score_raw(&compiled, &ds, &engine), k)
    } else {
        (score_transformed(&compiled, &ds, &engine), 1)
    };
    let text = scores_text(&preds, width);
    match &args.output {
        Some(path) => {
            let path = write_artifact(path, "output", &text)?;
            println!("wrote {} predictions to {path}", preds.len() / width);
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn run_serve_sim(args: &ServeSimArgs) -> Result<(), CliError> {
    let mut compiled: Vec<CompiledModel> = Vec::new();
    for path in &args.models {
        compiled.push(load_compiled(path)?);
    }
    let swap_replacement = match (&args.swap_model, &args.swap_checkpoint) {
        (Some(path), None) => Some((load_compiled(path)?, path.display().to_string())),
        (None, Some(dir)) => {
            // The hot-swap source can be a live training checkpoint: the
            // checkpointed model loads and swaps in mid-stream.
            let ck = TrainCheckpoint::load_from_dir(dir)
                .map_err(|e| format!("load swap checkpoint: {e}"))?;
            Some((
                CompiledModel::compile(&ck.model),
                format!("checkpoint:{}@round{}", dir.display(), ck.next_round),
            ))
        }
        _ => None,
    };
    let num_features = compiled
        .iter()
        .chain(swap_replacement.iter().map(|(m, _)| m))
        .map(|m| m.num_features())
        .max()
        .unwrap_or(0);
    let ds = read_scoring_data(&args.data, args.csv, args.zero_based, num_features)?;
    if ds.num_rows() == 0 {
        return Err(format!("{} has no rows to serve", args.data.display()).into());
    }
    let tenants: Vec<TenantSpec> = compiled
        .into_iter()
        .enumerate()
        .map(|(i, model)| TenantSpec {
            name: format!("tenant{i}"),
            model,
        })
        .collect();
    let swaps: Vec<ModelSwap> = match (args.swap_at, swap_replacement) {
        (Some(at_secs), Some((model, label))) => vec![ModelSwap {
            at_secs,
            tenant: args.swap_tenant,
            label,
            model,
        }],
        _ => Vec::new(),
    };
    let config = ServeSimConfig {
        seed: args.seed,
        queue_capacity: args.queue_cap,
        max_batch: args.max_batch,
        slo_secs: args.slo,
        service_fixed_secs: args.service_fixed,
        service_per_row_secs: args.service_per_row,
        horizon_secs: args.horizon,
    };
    let arrivals = poisson_arrivals(
        args.seed,
        args.requests,
        args.rate,
        tenants.len(),
        ds.num_rows(),
    );
    let result = dimboost_serving::run_serve_sim(&tenants, &swaps, &ds, &arrivals, &config);
    println!("{}", result.report.summary());
    if let Some(path) = &args.report {
        let path = write_artifact(path, "serve-sim report", &result.report.json(true))?;
        println!("serve-sim report written to {path}");
    }
    if let Some(path) = &args.report_canonical {
        let json = result.report.canonical_json();
        let path = write_artifact(path, "canonical serve-sim report", &json)?;
        println!("canonical serve-sim report written to {path}");
    }
    if let Some(path) = &args.trace {
        let path = write_artifact(path, "serve-sim trace", &result.trace)?;
        println!("serve-sim trace written to {path}");
    }
    if let Some(path) = &args.profile {
        // Profile the run's own trace text — the same analyzer `analyze`
        // runs offline, so the bytes match exactly.
        let profile = analyze_serve_trace(&result.trace)
            .map_err(|e| format!("profile serve-sim trace: {e}"))?;
        let path = write_artifact(path, "serve-sim profile", &profile.canonical_json())?;
        println!("serve-sim profile written to {path}");
    }
    Ok(())
}

fn run_analyze(args: &AnalyzeArgs) -> Result<(), CliError> {
    let text = std::fs::read_to_string(&args.trace)
        .map_err(|e| format!("read trace {}: {e}", args.trace.display()))?;
    // The header line says which analyzer owns the trace.
    let (json, stacks, summary) = if is_serve_trace(&text) {
        let p = analyze_serve_trace(&text).map_err(|e| e.to_string())?;
        (p.canonical_json(), p.folded_stacks(), p.summary(args.top))
    } else {
        let trace = Trace::parse_events_text(&text)
            .map_err(|e| format!("{}: {e}", args.trace.display()))?;
        let p = analyze_trace(&trace).map_err(|e| e.to_string())?;
        (p.canonical_json(), p.folded_stacks(), p.summary(args.top))
    };
    if let Some(path) = &args.out {
        let path = write_artifact(path, "profile", &json)?;
        println!("trace profile written to {path}");
    }
    if let Some(path) = &args.folded {
        let path = write_artifact(path, "folded stacks", &stacks)?;
        println!("folded stacks written to {path}");
    }
    print!("{summary}");
    Ok(())
}

fn run_evaluate(args: &EvalArgs) -> Result<(), CliError> {
    let model = load_model_file(&args.model).map_err(|e| e.to_string())?;
    let mut opts = libsvm_opts(args.zero_based, Some(model.num_features()));
    if !matches!(model.loss(), LossKind::Logistic) {
        opts.binarize_labels = false;
    }
    let ds = read_libsvm_file(&args.data, opts).map_err(|e| e.to_string())?;
    let probs = model.predict_dataset(&ds);
    match model.loss() {
        LossKind::Logistic => {
            println!("error:   {:.4}", classification_error(&probs, ds.labels()));
            println!("logloss: {:.4}", log_loss(&probs, ds.labels()));
            println!("auc:     {:.4}", auc(&probs, ds.labels()));
        }
        LossKind::Square => {
            println!("rmse: {:.4}", rmse(&probs, ds.labels()));
        }
        LossKind::Softmax { .. } => {
            let probas = model.predict_proba_dataset(&ds);
            println!("error:    {:.4}", multiclass_error(&probs, ds.labels()));
            println!("mlogloss: {:.4}", multiclass_log_loss(&probas, ds.labels()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_help_and_empty() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&strs(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&strs(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn rejects_unknown_subcommand_and_flags() {
        assert!(parse_args(&strs(&["explode"])).is_err());
        assert!(parse_args(&strs(&["train", "--data", "x", "--model", "y", "--what"])).is_err());
        assert!(parse_args(&strs(&["predict", "--data", "x"])).is_err());
        let err = parse_args(&strs(&["bench", "--data", "d", "--model", "m"])).unwrap_err();
        assert!(err.contains("unknown subcommand"), "{err}");
    }

    #[test]
    fn parses_full_train_invocation() {
        let cmd = parse_args(&strs(&[
            "train",
            "--data",
            "d.libsvm",
            "--model",
            "m.bin",
            "--trees",
            "7",
            "--depth",
            "3",
            "--lr",
            "0.2",
            "--workers",
            "4",
            "--servers",
            "2",
            "--candidates",
            "15",
            "--feature-sample",
            "0.8",
            "--row-sample",
            "0.5",
            "--bits",
            "4",
            "--loss",
            "square",
            "--seed",
            "9",
            "--test-fraction",
            "0.1",
            "--zero-based",
        ]))
        .unwrap();
        let Command::Train(args) = cmd else {
            panic!("expected train")
        };
        assert_eq!(args.data, PathBuf::from("d.libsvm"));
        assert_eq!(args.config.num_trees, 7);
        assert_eq!(args.config.max_depth, 3);
        assert_eq!(args.config.learning_rate, 0.2);
        assert_eq!(args.workers, 4);
        assert_eq!(args.servers, 2);
        assert_eq!(args.config.num_candidates, 15);
        assert_eq!(args.config.feature_sample_ratio, 0.8);
        assert_eq!(args.config.instance_sample_ratio, 0.5);
        assert_eq!(args.config.compress_bits, 4);
        assert_eq!(args.config.loss, LossKind::Square);
        assert_eq!(args.config.seed, 9);
        assert_eq!(args.test_fraction, 0.1);
        assert!(args.zero_based);
    }

    #[test]
    fn train_requires_data_and_model() {
        assert!(parse_args(&strs(&["train", "--model", "m"])).is_err());
        assert!(parse_args(&strs(&["train", "--data", "d"])).is_err());
        assert!(parse_args(&strs(&["train", "--data"])).is_err()); // missing value
    }

    #[test]
    fn rejects_bad_numbers_and_loss() {
        assert!(parse_args(&strs(&[
            "train", "--data", "d", "--model", "m", "--trees", "x"
        ]))
        .is_err());
        assert!(parse_args(&strs(&[
            "train", "--data", "d", "--model", "m", "--loss", "hinge"
        ]))
        .is_err());
    }

    #[test]
    fn end_to_end_gen_train_predict_evaluate() {
        let dir = std::env::temp_dir();
        let data = dir.join("dimboost_cli_test.libsvm");
        let model = dir.join("dimboost_cli_test.model");
        let preds = dir.join("dimboost_cli_test.preds");
        let report = dir.join("dimboost_cli_test.report.json");

        run(parse_args(&strs(&[
            "gen",
            "--out",
            data.to_str().unwrap(),
            "--rows",
            "600",
            "--features",
            "80",
            "--nnz",
            "8",
            "--seed",
            "5",
        ]))
        .unwrap())
        .unwrap();

        run(parse_args(&strs(&[
            "train",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--trees",
            "4",
            "--depth",
            "3",
            "--lr",
            "0.3",
            "--workers",
            "2",
            "--test-fraction",
            "0.2",
            "--report",
            report.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.starts_with("{\"workers\":2,"), "{json}");
        assert!(json.contains("\"phase\":\"build_histogram\""));
        assert!(json.contains("\"rounds\":[{\"round\":0,"));

        run(parse_args(&strs(&[
            "predict",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--output",
            preds.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        let lines = std::fs::read_to_string(&preds).unwrap();
        assert_eq!(lines.lines().count(), 600);
        assert!(lines.lines().all(|l| {
            let p: f32 = l.parse().unwrap();
            (0.0..=1.0).contains(&p)
        }));

        run(parse_args(&strs(&[
            "evaluate",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();

        for f in [&data, &model, &preds, &report] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn train_writes_trace_artifacts() {
        let dir = std::env::temp_dir();
        let data = dir.join("dimboost_cli_trace.libsvm");
        let model = dir.join("dimboost_cli_trace.model");
        let trace = dir.join("dimboost_cli_trace.trace.json");
        let canon = dir.join("dimboost_cli_trace.canonical.json");
        let report_canon = dir.join("dimboost_cli_trace.report.json");

        run(parse_args(&strs(&[
            "gen",
            "--out",
            data.to_str().unwrap(),
            "--rows",
            "400",
            "--features",
            "50",
            "--nnz",
            "6",
        ]))
        .unwrap())
        .unwrap();

        let cmd = parse_args(&strs(&[
            "train",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--trees",
            "2",
            "--depth",
            "3",
            "--workers",
            "3",
            "--trace",
            trace.to_str().unwrap(),
            "--trace-canonical",
            canon.to_str().unwrap(),
            "--report-canonical",
            report_canon.to_str().unwrap(),
        ]))
        .unwrap();
        let Command::Train(args) = &cmd else { panic!() };
        assert!(args.config.collect_trace);
        run(cmd.clone()).unwrap();

        let full = std::fs::read_to_string(&trace).unwrap();
        assert!(full.starts_with('['), "{full}");
        assert!(full.contains("\"thread_name\""));
        assert!(full.contains("\"wall_ms\""));
        let canonical = std::fs::read_to_string(&canon).unwrap();
        assert!(!canonical.contains("wall_ms"));
        // Canonical artifacts are rerun-stable: train again, compare bytes.
        run(cmd).unwrap();
        assert_eq!(canonical, std::fs::read_to_string(&canon).unwrap());
        let report = std::fs::read_to_string(&report_canon).unwrap();
        assert!(report.contains("\"percentiles\":["), "{report}");

        for f in [&data, &model, &trace, &canon, &report_canon] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn parses_analyze() {
        let cmd = parse_args(&strs(&[
            "analyze", "--trace", "t.events", "--out", "p.json", "--folded", "s.folded", "--top",
            "5",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Analyze(AnalyzeArgs {
                trace: "t.events".into(),
                out: Some("p.json".into()),
                folded: Some("s.folded".into()),
                top: 5,
            })
        );
        // Missing/malformed trace path and degenerate --top are parse-time
        // usage errors (exit 2 through the binary).
        assert!(parse_args(&strs(&["analyze"])).is_err());
        assert!(parse_args(&strs(&["analyze", "--trace"])).is_err());
        assert!(parse_args(&strs(&["analyze", "--trace", "t", "--top", "0"])).is_err());
        assert!(parse_args(&strs(&["analyze", "--trace", "t", "--what"])).is_err());
    }

    #[test]
    fn analyze_matches_in_process_profiles_for_train_and_serve() {
        let dir = std::env::temp_dir();
        let data = dir.join("dimboost_cli_analyze.libsvm");
        let model = dir.join("dimboost_cli_analyze.model");
        let events = dir.join("dimboost_cli_analyze.events");
        let profile = dir.join("dimboost_cli_analyze.profile.json");
        let offline = dir.join("dimboost_cli_analyze.offline.json");
        let folded = dir.join("dimboost_cli_analyze.folded");
        let strace = dir.join("dimboost_cli_analyze.serve.trace");
        let sprofile = dir.join("dimboost_cli_analyze.serve.profile.json");
        let soffline = dir.join("dimboost_cli_analyze.serve.offline.json");

        run(parse_args(&strs(&[
            "gen",
            "--out",
            data.to_str().unwrap(),
            "--rows",
            "400",
            "--features",
            "50",
            "--nnz",
            "6",
        ]))
        .unwrap())
        .unwrap();

        // Train with both the events-text trace and the in-process profile.
        let cmd = parse_args(&strs(&[
            "train",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--trees",
            "2",
            "--depth",
            "3",
            "--workers",
            "3",
            "--servers",
            "2",
            "--trace-events",
            events.to_str().unwrap(),
            "--profile",
            profile.to_str().unwrap(),
        ]))
        .unwrap();
        let Command::Train(args) = &cmd else { panic!() };
        assert!(args.config.collect_trace, "--profile must imply the trace");
        run(cmd).unwrap();

        // Offline analysis of the events trace must produce the same bytes
        // as the in-process profile.
        run(parse_args(&strs(&[
            "analyze",
            "--trace",
            events.to_str().unwrap(),
            "--out",
            offline.to_str().unwrap(),
            "--folded",
            folded.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        let in_process = std::fs::read_to_string(&profile).unwrap();
        assert!(in_process.starts_with("{\"kind\":\"trace_profile\",\"source\":\"train\","));
        assert_eq!(in_process, std::fs::read_to_string(&offline).unwrap());
        let stacks = std::fs::read_to_string(&folded).unwrap();
        assert!(stacks.contains("net;build_histogram;"), "{stacks}");

        // Same contract for serve-sim traces.
        run(parse_args(&strs(&[
            "serve-sim",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--requests",
            "200",
            "--rate",
            "4000",
            "--trace",
            strace.to_str().unwrap(),
            "--profile",
            sprofile.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        run(parse_args(&strs(&[
            "analyze",
            "--trace",
            strace.to_str().unwrap(),
            "--out",
            soffline.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        let in_process = std::fs::read_to_string(&sprofile).unwrap();
        assert!(in_process.starts_with("{\"kind\":\"trace_profile\",\"source\":\"serve_sim\","));
        assert_eq!(in_process, std::fs::read_to_string(&soffline).unwrap());

        // A missing trace file is a runtime error, not a panic.
        let err = run(Command::Analyze(AnalyzeArgs {
            trace: dir.join("dimboost_cli_analyze.nope"),
            out: None,
            folded: None,
            top: 10,
        }))
        .unwrap_err();
        assert!(err.contains("read trace"), "{err}");

        for f in [
            &data, &model, &events, &profile, &offline, &folded, &strace, &sprofile, &soffline,
        ] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn parses_inspect() {
        let cmd = parse_args(&strs(&[
            "inspect",
            "--model",
            "m.bin",
            "--top",
            "3",
            "--dump-tree",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Inspect(InspectArgs {
                model: "m.bin".into(),
                top: 3,
                dump_tree: Some(1)
            })
        );
        assert!(parse_args(&strs(&["inspect"])).is_err());
    }

    #[test]
    fn inspect_runs_on_trained_model() {
        let dir = std::env::temp_dir();
        let data = dir.join("dimboost_cli_inspect.libsvm");
        let model = dir.join("dimboost_cli_inspect.model");
        run(parse_args(&strs(&[
            "gen",
            "--out",
            data.to_str().unwrap(),
            "--rows",
            "300",
            "--features",
            "40",
            "--nnz",
            "6",
        ]))
        .unwrap())
        .unwrap();
        run(parse_args(&strs(&[
            "train",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--trees",
            "2",
            "--depth",
            "3",
        ]))
        .unwrap())
        .unwrap();
        run(parse_args(&strs(&[
            "inspect",
            "--model",
            model.to_str().unwrap(),
            "--top",
            "5",
            "--dump-tree",
            "0",
        ]))
        .unwrap())
        .unwrap();
        // Out-of-range tree index is a clean error.
        let err = run(Command::Inspect(InspectArgs {
            model: model.clone(),
            top: 3,
            dump_tree: Some(99),
        }))
        .unwrap_err();
        assert!(err.contains("out of"), "{err}");
        for f in [&data, &model] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn parses_extension_flags() {
        let cmd = parse_args(&strs(&[
            "train",
            "--data",
            "d",
            "--model",
            "m",
            "--pre-binning",
            "--hist-subtraction",
            "--fused-layer",
            "--sparse-wire",
            "--quantized-hist",
            "--quant-hist-bits",
            "10",
            "--default-direction",
            "--early-stop",
            "3",
            "--test-fraction",
            "0.1",
        ]))
        .unwrap();
        let Command::Train(args) = cmd else { panic!() };
        assert!(args.config.opts.pre_binning);
        assert!(args.config.opts.hist_subtraction);
        assert!(args.config.opts.fused_layer);
        assert!(args.config.opts.sparse_wire);
        assert!(args.config.opts.quantized_hist);
        assert_eq!(args.config.quant_hist_bits, 10);
        assert!(args.config.learn_default_direction);
        assert_eq!(args.early_stop, Some(3));
        // Early stopping without a held-out fraction is rejected.
        assert!(parse_args(&strs(&[
            "train",
            "--data",
            "d",
            "--model",
            "m",
            "--early-stop",
            "3",
        ]))
        .is_err());
    }

    #[test]
    fn parses_softmax_and_requires_classes() {
        let cmd = parse_args(&strs(&[
            "train",
            "--data",
            "d",
            "--model",
            "m",
            "--loss",
            "softmax",
            "--classes",
            "4",
        ]))
        .unwrap();
        let Command::Train(args) = cmd else { panic!() };
        assert_eq!(args.config.loss, LossKind::Softmax { classes: 4 });
        // --classes alone also selects softmax.
        let cmd = parse_args(&strs(&[
            "train",
            "--data",
            "d",
            "--model",
            "m",
            "--classes",
            "3",
        ]))
        .unwrap();
        let Command::Train(args) = cmd else { panic!() };
        assert_eq!(args.config.loss, LossKind::Softmax { classes: 3 });
        // softmax without classes is an error.
        assert!(parse_args(&strs(&[
            "train", "--data", "d", "--model", "m", "--loss", "softmax"
        ]))
        .is_err());
        // The two flags resolve after the walk, so either order gives the
        // same arguments...
        let base = ["train", "--data", "d", "--model", "m"];
        let with = |extra: &[&str]| {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend_from_slice(extra);
            parse_args(&strs(&argv))
        };
        let loss_first = with(&["--loss", "softmax", "--classes", "3"]).unwrap();
        let classes_first = with(&["--classes", "3", "--loss", "softmax"]).unwrap();
        assert_eq!(loss_first, classes_first);
        let Command::Train(args) = classes_first else {
            panic!()
        };
        assert_eq!(args.config.loss, LossKind::Softmax { classes: 3 });
        // ...and a binary loss never silently becomes softmax (or the
        // reverse): the conflict is a usage error naming both flags.
        for extra in [
            &["--loss", "square", "--classes", "2"],
            &["--classes", "2", "--loss", "square"],
            &["--loss", "logistic", "--classes", "2"],
        ] {
            let err = with(extra).unwrap_err();
            assert!(err.contains("--loss") && err.contains("--classes"), "{err}");
        }
        assert!(with(&["--classes", "0"]).is_err());
    }

    #[test]
    fn flag_tables_synopsis_and_parser_agree() {
        use flags::Need;
        // A value the flag accepts, derived from its synopsis placeholder.
        fn sample(placeholder: &str) -> &str {
            match placeholder {
                p if p.starts_with('<') => "x",
                p if p.contains('|') => p.split('|').next().unwrap(),
                "F" | "SECS" => "0.5",
                _ => "1",
            }
        }
        let text = usage();
        let tables: Vec<_> = SUBCOMMANDS
            .iter()
            .map(|(sub, build)| (*sub, flags::table(*build)))
            .collect();
        for (sub, specs) in &tables {
            // This subcommand's block of the synopsis: its header line up
            // to the next one.
            let start = text.find(&format!("  dimboost {sub} ")).unwrap();
            let end = text[start + 1..].find("\n  dimboost ").unwrap() + start + 1;
            let block = &text[start..end];
            // The shortest valid invocation: every required flag, sampled.
            let mut base = vec![*sub];
            for spec in specs.iter().filter(|s| s.need != Need::Optional) {
                base.extend([spec.name, sample(spec.value.unwrap())]);
            }
            let parse_with = |extra: &[&str]| {
                let mut argv = base.clone();
                argv.extend_from_slice(extra);
                parse_args(&strs(&argv))
            };
            assert!(parse_with(&[]).is_ok(), "{sub}: {base:?}");
            for spec in specs {
                let token = match spec.value {
                    Some(placeholder) => format!("{} {placeholder}", spec.name),
                    None => format!("[{}]", spec.name),
                };
                assert!(block.contains(&token), "{sub}: {token:?} not in\n{block}");
                // The walk and the flag's own reader accept the sample; only
                // a cross-flag rule (`--early-stop` alone, say) may object.
                let extra: Vec<&str> = [spec.name]
                    .into_iter()
                    .chain(spec.value.map(sample))
                    .collect();
                if let Err(e) = parse_with(&extra) {
                    let from_walk = ["unknown flag", "missing value", "invalid value", " must "]
                        .iter()
                        .any(|needle| e.contains(needle));
                    assert!(
                        !from_walk && !e.starts_with(&format!("{sub} requires")),
                        "{sub} {extra:?}: {e}"
                    );
                }
                if spec.value.is_some() {
                    let err = parse_with(&[spec.name]).unwrap_err();
                    assert_eq!(err, format!("missing value for {}", spec.name));
                }
            }
            // Flags of other subcommands, and flags of none, are rejected.
            let foreign = tables
                .iter()
                .flat_map(|(_, other)| other.iter().map(|spec| spec.name))
                .filter(|name| specs.iter().all(|spec| spec.name != *name));
            for name in foreign.chain(["--nope"]) {
                let err = parse_with(&[name]).unwrap_err();
                assert_eq!(err, format!("unknown flag {name:?} for {sub}"));
            }
        }
        // `gen --rows 0` writes an empty dataset today and keeps doing so.
        assert!(parse_args(&strs(&["gen", "--out", "x", "--rows", "0"])).is_ok());
    }

    #[test]
    fn predict_with_missing_model_fails_cleanly() {
        let err = run(Command::Predict(PredictArgs {
            data: "nonexistent.libsvm".into(),
            model: "nonexistent.model".into(),
            output: None,
            raw: false,
            zero_based: false,
            csv: false,
            threads: 2,
            batch_size: 64,
        }))
        .unwrap_err();
        assert!(err.contains("I/O error"), "{err}");
        assert_eq!(err.exit_code, 1);
    }

    #[test]
    fn parses_predict_flags() {
        let cmd = parse_args(&strs(&[
            "predict",
            "--data",
            "d.csv",
            "--model",
            "m.bin",
            "--csv",
            "--raw",
            "--threads",
            "8",
            "--batch-size",
            "256",
        ]))
        .unwrap();
        let Command::Predict(args) = cmd else {
            panic!()
        };
        assert!(args.csv && args.raw);
        assert_eq!((args.threads, args.batch_size), (8, 256));

        // Degenerate values are rejected at parse time.
        assert!(parse_args(&strs(&[
            "predict",
            "--data",
            "d",
            "--model",
            "m",
            "--threads",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn parses_serve_sim_flags_and_validates_knobs() {
        let cmd = parse_args(&strs(&[
            "serve-sim",
            "--data",
            "d.libsvm",
            "--model",
            "a.json",
            "--model",
            "b.json",
            "--requests",
            "200",
            "--rate",
            "800",
            "--seed",
            "7",
            "--queue-cap",
            "32",
            "--max-batch",
            "8",
            "--slo",
            "0.02",
            "--service-fixed",
            "0.001",
            "--service-per-row",
            "0.0001",
            "--horizon",
            "1.5",
            "--swap-at",
            "0.5",
            "--swap-tenant",
            "1",
            "--swap-model",
            "c.json",
            "--report-canonical",
            "rc.json",
            "--trace",
            "t.txt",
        ]))
        .unwrap();
        let Command::ServeSim(args) = cmd else {
            panic!()
        };
        assert_eq!(args.models.len(), 2);
        assert_eq!((args.requests, args.seed), (200, 7));
        assert_eq!((args.queue_cap, args.max_batch), (32, 8));
        assert_eq!(args.rate, 800.0);
        assert_eq!(args.slo, 0.02);
        assert_eq!(args.horizon, Some(1.5));
        assert_eq!(args.swap_at, Some(0.5));
        assert_eq!(args.swap_tenant, 1);
        assert_eq!(args.swap_model, Some(PathBuf::from("c.json")));
        assert_eq!(args.report_canonical, Some(PathBuf::from("rc.json")));
        assert_eq!(args.trace, Some(PathBuf::from("t.txt")));

        let base = ["serve-sim", "--data", "d", "--model", "m"];
        let with = |extra: &[&str]| {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend_from_slice(extra);
            parse_args(&strs(&argv))
        };
        assert!(with(&[]).is_ok());
        assert!(with(&["--requests", "0"]).is_err());
        assert!(with(&["--rate", "0"]).is_err());
        assert!(with(&["--rate", "inf"]).is_err());
        assert!(with(&["--queue-cap", "0"]).is_err());
        assert!(with(&["--max-batch", "0"]).is_err());
        assert!(with(&["--slo", "0"]).is_err());
        assert!(with(&["--service-per-row", "-1"]).is_err());
        assert!(with(&["--horizon", "0"]).is_err());
        // Swap flags must come as a consistent set.
        assert!(with(&["--swap-at", "0.5"]).is_err());
        assert!(with(&["--swap-model", "b.json"]).is_err());
        assert!(with(&["--swap-checkpoint", "ck"]).is_err());
        assert!(with(&[
            "--swap-at",
            "0.5",
            "--swap-model",
            "b",
            "--swap-checkpoint",
            "ck"
        ])
        .is_err());
        // Swap tenant must name a loaded model.
        assert!(with(&[
            "--swap-at",
            "0.5",
            "--swap-model",
            "b",
            "--swap-tenant",
            "1"
        ])
        .is_err());
        assert!(parse_args(&strs(&["serve-sim", "--data", "d"])).is_err());
        assert!(parse_args(&strs(&["serve-sim", "--model", "m"])).is_err());
    }

    #[test]
    fn serve_sim_end_to_end_is_rerun_stable_and_swaps_from_checkpoint() {
        let dir = std::env::temp_dir().join("dimboost_cli_serve_sim");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.libsvm");
        let model_a = dir.join("a.model");
        let ckpts = dir.join("ckpts");

        run(parse_args(&strs(&[
            "gen",
            "--out",
            data.to_str().unwrap(),
            "--rows",
            "300",
            "--features",
            "40",
            "--nnz",
            "6",
            "--seed",
            "3",
        ]))
        .unwrap())
        .unwrap();
        run(parse_args(&strs(&[
            "train",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model_a.to_str().unwrap(),
            "--trees",
            "3",
            "--depth",
            "3",
        ]))
        .unwrap())
        .unwrap();
        // A second, different model left behind as a *checkpoint* — the
        // swap source exercises the load-a-checkpoint-mid-stream path.
        let plan = dir.join("plan.txt");
        std::fs::write(&plan, "seed 1\ncrash round=2\n").unwrap();
        let err = run(parse_args(&strs(&[
            "train",
            "--data",
            data.to_str().unwrap(),
            "--model",
            dir.join("b.model").to_str().unwrap(),
            "--trees",
            "5",
            "--depth",
            "2",
            "--seed",
            "99",
            "--fault-plan",
            plan.to_str().unwrap(),
            "--checkpoint-dir",
            ckpts.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap_err();
        assert_eq!(err.exit_code, 3, "{err}");

        let serve = |tag: &str| {
            let canon = dir.join(format!("canon_{tag}.json"));
            let trace = dir.join(format!("trace_{tag}.txt"));
            run(parse_args(&strs(&[
                "serve-sim",
                "--data",
                data.to_str().unwrap(),
                "--model",
                model_a.to_str().unwrap(),
                "--requests",
                "300",
                "--rate",
                "4000",
                "--seed",
                "21",
                "--queue-cap",
                "64",
                "--max-batch",
                "8",
                "--slo",
                "0.01",
                "--swap-at",
                "0.03",
                "--swap-checkpoint",
                ckpts.to_str().unwrap(),
                "--report",
                dir.join(format!("timed_{tag}.json")).to_str().unwrap(),
                "--report-canonical",
                canon.to_str().unwrap(),
                "--trace",
                trace.to_str().unwrap(),
            ]))
            .unwrap())
            .unwrap();
            (
                std::fs::read_to_string(canon).unwrap(),
                std::fs::read_to_string(trace).unwrap(),
            )
        };
        let (canon_a, trace_a) = serve("a");
        let (canon_b, trace_b) = serve("b");
        assert_eq!(canon_a, canon_b, "canonical serve-sim reports must match");
        assert_eq!(trace_a, trace_b, "serve-sim traces must match");
        assert!(
            canon_a.starts_with("{\"kind\":\"serving_sim\""),
            "{canon_a}"
        );
        assert!(canon_a.contains("\"swaps\":1"), "{canon_a}");
        assert!(!canon_a.contains("wall"), "{canon_a}");
        assert!(trace_a.contains("swap t="), "{trace_a}");
        let timed = std::fs::read_to_string(dir.join("timed_a.json")).unwrap();
        assert!(timed.contains("\"wall_secs\":"), "{timed}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn train_parses_threading_flags() {
        let cmd = parse_args(&strs(&[
            "train",
            "--data",
            "d",
            "--model",
            "m",
            "--threads",
            "6",
            "--batch-size",
            "500",
        ]))
        .unwrap();
        let Command::Train(args) = cmd else { panic!() };
        assert_eq!(args.config.num_threads, 6);
        assert_eq!(args.config.batch_size, 500);
    }

    #[test]
    fn predict_end_to_end_is_rerun_stable() {
        let dir = std::env::temp_dir().join("dimboost_cli_predict_rerun");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.libsvm");
        let model = dir.join("model.bin");

        run(parse_args(&strs(&[
            "gen",
            "--out",
            data.to_str().unwrap(),
            "--rows",
            "500",
            "--features",
            "60",
            "--nnz",
            "8",
            "--seed",
            "13",
        ]))
        .unwrap())
        .unwrap();
        run(parse_args(&strs(&[
            "train",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--trees",
            "3",
            "--depth",
            "3",
        ]))
        .unwrap())
        .unwrap();

        let predict = |tag: &str, threads: &str, batch_size: &str| {
            let preds = dir.join(format!("preds_{tag}.txt"));
            run(parse_args(&strs(&[
                "predict",
                "--data",
                data.to_str().unwrap(),
                "--model",
                model.to_str().unwrap(),
                "--threads",
                threads,
                "--batch-size",
                batch_size,
                "--output",
                preds.to_str().unwrap(),
            ]))
            .unwrap())
            .unwrap();
            std::fs::read_to_string(preds).unwrap()
        };
        // The repo-wide serving determinism gate, in-process form: score
        // bytes are rerun-identical, and identical across thread counts
        // and batch sizes.
        let a = predict("a", "4", "64");
        assert_eq!(a.lines().count(), 500);
        assert_eq!(predict("b", "4", "64"), a);
        assert_eq!(predict("c", "2", "100"), a);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn predict_raw_multiclass_emits_k_scores_per_row() {
        let dir = std::env::temp_dir().join("dimboost_cli_multiclass");
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("model.bin");
        // Small three-class LibSVM data (+0.01 keeps every value nonzero so
        // the sparse encoding stores all three features).
        let libsvm = dir.join("data.libsvm");
        let mut text = String::new();
        for i in 0..90 {
            text.push_str(&format!(
                "{} 1:{} 2:{} 3:{}\n",
                i % 3,
                (i % 7) as f32 * 0.5 + 0.01,
                ((i + 2) % 5) as f32 * 0.25 + 0.01,
                (i % 2) as f32 + 0.01
            ));
        }
        std::fs::write(&libsvm, text).unwrap();
        run(parse_args(&strs(&[
            "train",
            "--data",
            libsvm.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--trees",
            "6",
            "--depth",
            "2",
            "--classes",
            "3",
        ]))
        .unwrap())
        .unwrap();
        let preds = dir.join("raw.txt");
        run(parse_args(&strs(&[
            "predict",
            "--data",
            libsvm.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--raw",
            "--output",
            preds.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        let text = std::fs::read_to_string(&preds).unwrap();
        assert_eq!(text.lines().count(), 90);
        // The old interpreter path panicked on multiclass --raw; the
        // compiled engine emits K space-separated scores per row.
        assert!(text.lines().all(|l| l.split(' ').count() == 3), "{text}");

        // The same rows as CSV (label column first) score identically.
        let csv = dir.join("data.csv");
        let mut csv_text = String::from("label,f0,f1,f2\n");
        for i in 0..90 {
            csv_text.push_str(&format!(
                "{},{},{},{}\n",
                i % 3,
                (i % 7) as f32 * 0.5 + 0.01,
                ((i + 2) % 5) as f32 * 0.25 + 0.01,
                (i % 2) as f32 + 0.01
            ));
        }
        std::fs::write(&csv, csv_text).unwrap();
        let csv_preds = dir.join("raw_csv.txt");
        run(parse_args(&strs(&[
            "predict",
            "--data",
            csv.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--raw",
            "--csv",
            "--output",
            csv_preds.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        assert_eq!(std::fs::read_to_string(&csv_preds).unwrap(), text);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parses_robustness_flags() {
        let cmd = parse_args(&strs(&[
            "train",
            "--data",
            "d",
            "--model",
            "m",
            "--fault-plan",
            "plan.txt",
            "--checkpoint-dir",
            "ckpts",
            "--checkpoint-every",
            "2",
            "--resume",
        ]))
        .unwrap();
        let Command::Train(args) = cmd else { panic!() };
        assert_eq!(args.fault_plan, Some(PathBuf::from("plan.txt")));
        assert_eq!(args.checkpoint_dir, Some(PathBuf::from("ckpts")));
        assert_eq!(args.checkpoint_every, 2);
        assert!(args.resume);
        // --resume / --checkpoint-every need somewhere to put checkpoints.
        for extra in [&["--resume"][..], &["--checkpoint-every", "2"][..]] {
            let mut argv = vec!["train", "--data", "d", "--model", "m"];
            argv.extend_from_slice(extra);
            let err = parse_args(&strs(&argv)).unwrap_err();
            assert!(err.contains("--checkpoint-dir"), "{err}");
        }
        assert!(parse_args(&strs(&[
            "train",
            "--data",
            "d",
            "--model",
            "m",
            "--checkpoint-dir",
            "c",
            "--checkpoint-every",
            "0",
        ]))
        .is_err());
    }

    #[test]
    fn train_with_missing_fault_plan_fails_cleanly() {
        let dir = std::env::temp_dir();
        let data = dir.join("dimboost_cli_badplan.libsvm");
        run(parse_args(&strs(&[
            "gen",
            "--out",
            data.to_str().unwrap(),
            "--rows",
            "100",
            "--features",
            "20",
            "--nnz",
            "4",
        ]))
        .unwrap())
        .unwrap();
        let err = run(parse_args(&strs(&[
            "train",
            "--data",
            data.to_str().unwrap(),
            "--model",
            dir.join("dimboost_cli_badplan.model").to_str().unwrap(),
            "--fault-plan",
            dir.join("dimboost_cli_no_such_plan.txt").to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap_err();
        assert!(err.contains("read fault plan"), "{err}");
        assert_eq!(err.exit_code, 1);
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn end_to_end_crash_and_resume_matches_clean_run() {
        let dir = std::env::temp_dir().join("dimboost_cli_crash_resume");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.libsvm");
        let clean_model = dir.join("clean.model");
        let faulted_model = dir.join("faulted.model");
        let plan = dir.join("plan.txt");
        let ckpts = dir.join("ckpts");

        run(parse_args(&strs(&[
            "gen",
            "--out",
            data.to_str().unwrap(),
            "--rows",
            "400",
            "--features",
            "60",
            "--nnz",
            "6",
            "--seed",
            "11",
        ]))
        .unwrap())
        .unwrap();

        let train_argv = |model: &std::path::Path, extra: &[&str]| {
            let mut argv = vec![
                "train".to_string(),
                "--data".into(),
                data.to_str().unwrap().into(),
                "--model".into(),
                model.to_str().unwrap().into(),
                "--trees".into(),
                "5".into(),
                "--depth".into(),
                "3".into(),
                "--workers".into(),
                "2".into(),
                "--seed".into(),
                "7".into(),
            ];
            argv.extend(extra.iter().map(|s| s.to_string()));
            parse_args(&argv).unwrap()
        };

        // Reference: uninterrupted run, no faults.
        run(train_argv(&clean_model, &[])).unwrap();

        // Faulted run: drops + a straggler + a scripted crash at round 3.
        std::fs::write(
            &plan,
            "seed 42\ndrop 0.2\nack_drop 0.1\ndup 0.1\n\
             straggler worker=1 factor=2.5 phase=build_histogram\n\
             crash round=3\n",
        )
        .unwrap();
        let plan_s = plan.to_str().unwrap();
        let ckpt_s = ckpts.to_str().unwrap();
        let err = run(train_argv(
            &faulted_model,
            &["--fault-plan", plan_s, "--checkpoint-dir", ckpt_s],
        ))
        .unwrap_err();
        assert_eq!(err.exit_code, 3, "{err}");
        assert!(err.contains("simulated worker crash at round 3"), "{err}");

        // Resume from the crash-time checkpoint under the same fault plan.
        run(train_argv(
            &faulted_model,
            &[
                "--fault-plan",
                plan_s,
                "--checkpoint-dir",
                ckpt_s,
                "--resume",
            ],
        ))
        .unwrap();

        // Exactness invariant: faults + crash + resume change timing only,
        // never the learned model.
        let clean = std::fs::read(&clean_model).unwrap();
        let faulted = std::fs::read(&faulted_model).unwrap();
        assert_eq!(clean, faulted, "faulted model diverged from clean run");

        std::fs::remove_dir_all(&dir).ok();
    }
}
