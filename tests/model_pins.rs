//! Cross-commit pins: FNV-1a-64 hashes of everything a training run
//! produces deterministically — model bytes, the canonical run report, the
//! per-phase communication ledger, the loss/eval curves and the canonical
//! trace — over the flag lattice and every trainer side path (softmax,
//! sampling, eval, warm start, faults, elastic membership, crash/resume).
//!
//! Every other determinism test in the repo compares two runs of the *same*
//! build. This one compares against hashes recorded on an earlier commit
//! (the parent of the trainer staging refactor), so a change that moves a
//! single f32 addition, RNG draw, PS call, `charge` or trace event fails
//! here even if it is perfectly reproducible run to run.
//!
//! The recording commit predates `train_with_options`: the table was
//! produced there by this very file through a scratch-only adapter with
//! that signature over the old `train_impl`, nothing else changed.
//!
//! Re-recording (only when a PR *intends* to change what is computed): run
//! `cargo test --test model_pins -- --nocapture`, and paste the printed
//! table over [`PINS`].

use dimboost::core::model_io::model_to_bytes;
use dimboost::core::{
    train_with_options, CheckpointOptions, EvalOptions, FaultPlan, GbdtConfig, LossKind,
    Optimizations, RobustOptions, TrainError, TrainOptions, TrainOutput,
};
use dimboost::data::partition::partition_rows;
use dimboost::data::synthetic::{generate, LabelKind, SparseGenConfig};
use dimboost::data::Dataset;
use dimboost::ps::PsConfig;
use dimboost::simnet::CostModel;

// ---- hashing ---------------------------------------------------------------

#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.0
}

/// `[model, report, ledger, curves, trace]`.
type Pin = [u64; 5];

fn pin_of(out: &TrainOutput) -> Pin {
    let mut ledger = Fnv::new();
    for c in std::iter::once(&out.breakdown.comm)
        .chain(std::iter::once(&out.report.comm))
        .chain(out.report.phases.iter().map(|p| &p.comm))
    {
        ledger.u64(c.bytes);
        ledger.u64(c.packages);
        ledger.u64(c.sim_time.seconds().to_bits());
    }
    for p in &out.report.phases {
        ledger.bytes(format!("{:?}", p.phase).as_bytes());
    }
    let mut curves = Fnv::new();
    for p in out.loss_curve.iter().chain(&out.eval_curve) {
        curves.u64(p.tree as u64);
        curves.u64(p.train_loss.to_bits());
    }
    curves.u64(out.loss_curve.len() as u64);
    curves.u64(out.best_iteration.map_or(u64::MAX, |b| b as u64));
    curves.u64(out.model.num_trees() as u64);
    let trace = out.trace.as_ref().expect("pins run with collect_trace");
    [
        fnv(&model_to_bytes(&out.model)),
        fnv(out.report.canonical_json().as_bytes()),
        ledger.0,
        curves.0,
        fnv(trace.canonical_chrome_json().as_bytes()),
    ]
}

// ---- fixtures --------------------------------------------------------------

fn binary_data() -> Dataset {
    generate(&SparseGenConfig::new(600, 60, 8, 5))
}

fn shards() -> Vec<Dataset> {
    partition_rows(&binary_data(), 3).unwrap()
}

fn ps() -> PsConfig {
    PsConfig {
        num_servers: 2,
        num_partitions: 0,
        cost_model: CostModel::GIGABIT_LAN,
    }
}

/// Batch size far below the shard size, so `threads: 4` really stripes.
fn config(opts: Optimizations, threads: usize) -> GbdtConfig {
    GbdtConfig {
        num_trees: 3,
        max_depth: 4,
        num_candidates: 8,
        learning_rate: 0.3,
        num_threads: threads,
        batch_size: 40,
        seed: 13,
        opts,
        collect_trace: true,
        ..GbdtConfig::default()
    }
}

fn with(base: Optimizations, edit: impl FnOnce(&mut Optimizations)) -> Optimizations {
    let mut o = base;
    edit(&mut o);
    o
}

fn all_extensions() -> Optimizations {
    with(Optimizations::ALL, |o| {
        o.pre_binning = true;
        o.hist_subtraction = true;
        o.fused_layer = true;
        o.sparse_wire = true;
        o.quantized_hist = true;
    })
}

fn train(shards: &[Dataset], config: &GbdtConfig, opts: &TrainOptions<'_>) -> TrainOutput {
    train_with_options(shards, config, ps(), opts).unwrap()
}

fn plain(config: &GbdtConfig) -> Pin {
    pin_of(&train(&shards(), config, &TrainOptions::default()))
}

fn robust(plan: &str) -> TrainOptions<'static> {
    TrainOptions {
        robust: RobustOptions {
            fault_plan: Some(FaultPlan::parse(plan).unwrap()),
            ..RobustOptions::default()
        },
        ..TrainOptions::default()
    }
}

const CHAOS: &str = "seed 77\n\
                     drop 0.15\n\
                     ack_drop 0.1\n\
                     dup 0.1\n\
                     straggler worker=1 factor=3.0 phase=build_histogram\n\
                     outage server=0 start=0.01 dur=0.05\n";

const ELASTIC: &str = "join worker=3 round=1\n\
                       leave worker=0 round=2 policy=handoff\n\
                       speed worker=1 factor=2.0\n\
                       speculate threshold=1.5\n";

/// Crash at round 2 under `plan`, then resume from the crash-time
/// checkpoint; pins the resumed run.
fn crash_and_resume(name: &str, plan: &str, config: &GbdtConfig) -> Pin {
    let dir =
        std::env::temp_dir().join(format!("dimboost_model_pins_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = robust(&format!("{plan}crash round=2\n"));
    opts.robust.checkpoint = Some(CheckpointOptions::new(&dir));
    match train_with_options(&shards(), config, ps(), &opts) {
        Err(TrainError::Crashed {
            round: 2,
            checkpoint: Some(_),
        }) => {}
        other => panic!("{name}: expected a crash at round 2, got {other:?}"),
    }
    opts.robust.resume = true;
    let out = train(&shards(), config, &opts);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.report.resumed_from_round, Some(2));
    pin_of(&out)
}

// ---- the lattice -----------------------------------------------------------

fn lattice() -> Vec<(String, Pin)> {
    const ALL: Optimizations = Optimizations::ALL;
    let mut out: Vec<(String, Pin)> = Vec::new();

    let flags: Vec<(&str, Optimizations)> = vec![
        ("none", Optimizations::NONE),
        ("all", ALL),
        // Each Table 3 flag off alone.
        ("all-sparse_hist", with(ALL, |o| o.sparse_hist = false)),
        (
            "all-parallel_batch",
            with(ALL, |o| o.parallel_batch = false),
        ),
        ("all-node_index", with(ALL, |o| o.node_index = false)),
        (
            "all-task_scheduler",
            with(ALL, |o| o.task_scheduler = false),
        ),
        (
            "all-two_phase_split",
            with(ALL, |o| o.two_phase_split = false),
        ),
        ("all-low_precision", with(ALL, |o| o.low_precision = false)),
        // Each extension flag on alone.
        ("all+pre_binning", with(ALL, |o| o.pre_binning = true)),
        (
            "all+hist_subtraction",
            with(ALL, |o| o.hist_subtraction = true),
        ),
        ("all+fused_layer", with(ALL, |o| o.fused_layer = true)),
        ("all+sparse_wire", with(ALL, |o| o.sparse_wire = true)),
        ("all+quantized_hist", with(ALL, |o| o.quantized_hist = true)),
        ("all+extensions", all_extensions()),
        // The "implies" pairs: must hash equal to their `+X` rows above.
        (
            "all+fused_layer+pre_binning",
            with(ALL, |o| {
                o.fused_layer = true;
                o.pre_binning = true;
            }),
        ),
        (
            "all+quantized_hist+pre_binning",
            with(ALL, |o| {
                o.quantized_hist = true;
                o.pre_binning = true;
            }),
        ),
        // Kernel × exchange × pull corners no single-flag row reaches.
        (
            "dense+batched",
            with(Optimizations::NONE, |o| o.parallel_batch = true),
        ),
        (
            "binned-unbatched",
            with(Optimizations::NONE, |o| o.pre_binning = true),
        ),
        (
            "fused+scan",
            with(ALL, |o| {
                o.fused_layer = true;
                o.node_index = false;
            }),
        ),
        (
            "quantized+fused",
            with(ALL, |o| {
                o.quantized_hist = true;
                o.fused_layer = true;
            }),
        ),
        (
            "quantized+scan+subtraction",
            with(ALL, |o| {
                o.quantized_hist = true;
                o.node_index = false;
                o.hist_subtraction = true;
            }),
        ),
        (
            "sparse_wire-f32+full-pull",
            with(ALL, |o| {
                o.sparse_wire = true;
                o.low_precision = false;
                o.two_phase_split = false;
            }),
        ),
        (
            "subtraction-f32-wire",
            with(ALL, |o| {
                o.hist_subtraction = true;
                o.low_precision = false;
            }),
        ),
    ];
    for threads in [1usize, 4] {
        for (name, opts) in &flags {
            out.push((format!("{name}/t{threads}"), plain(&config(*opts, threads))));
        }
        // Fused under a block budget that admits the root layer only: deeper
        // layers fall back to per-node binned builds.
        let mut budgeted = config(with(ALL, |o| o.fused_layer = true), threads);
        let probe = train(&shards(), &budgeted, &TrainOptions::default());
        let round = &probe.report.rounds[0];
        let row_bytes = round.hist_bytes_raw as usize / (3 * round.node_instances.len());
        budgeted.fused_block_budget = row_bytes * threads;
        out.push((format!("fused-budget/t{threads}"), plain(&budgeted)));
    }

    // ---- side paths (threads 4 unless noted) -------------------------------
    let softmax_ds = generate(
        &SparseGenConfig::new(450, 40, 8, 3).with_label_kind(LabelKind::Multiclass { classes: 3 }),
    );
    let softmax_shards = partition_rows(&softmax_ds, 3).unwrap();
    for (name, opts) in [("softmax", ALL), ("softmax+extensions", all_extensions())] {
        let mut c = config(opts, 4);
        c.loss = LossKind::Softmax { classes: 3 };
        let pin = pin_of(&train(&softmax_shards, &c, &TrainOptions::default()));
        out.push((name.into(), pin));
    }

    for (name, opts) in [
        ("row-subsample", ALL),
        ("row-subsample-scan", with(ALL, |o| o.node_index = false)),
        ("row-subsample+extensions", all_extensions()),
    ] {
        let mut c = config(opts, 4);
        c.instance_sample_ratio = 0.7;
        out.push((name.into(), plain(&c)));
    }

    for (name, opts) in [
        ("feature-sample", ALL),
        (
            "feature-sample+pre_binning",
            with(ALL, |o| o.pre_binning = true),
        ),
        ("feature-sample+extensions", all_extensions()),
    ] {
        let mut c = config(opts, 4);
        c.feature_sample_ratio = 0.5;
        out.push((name.into(), plain(&c)));
    }

    let mut square = config(ALL, 4);
    square.loss = LossKind::Square;
    let regression =
        generate(&SparseGenConfig::new(600, 60, 8, 5).with_label_kind(LabelKind::Regression));
    let pin = pin_of(&train(
        &partition_rows(&regression, 3).unwrap(),
        &square,
        &TrainOptions::default(),
    ));
    out.push(("square".into(), pin));

    // Eval + early stopping: a high learning rate on a tiny set overfits
    // within a few rounds, so the stop actually fires and truncates.
    let eval_ds = generate(&SparseGenConfig::new(200, 60, 8, 99));
    let mut c = config(ALL, 4);
    c.num_trees = 12;
    c.learning_rate = 1.0;
    let ev = EvalOptions {
        dataset: &eval_ds,
        early_stopping_rounds: Some(2),
    };
    let stopped = train(
        &shards(),
        &c,
        &TrainOptions {
            eval: Some(ev),
            ..TrainOptions::default()
        },
    );
    assert!(
        stopped.loss_curve.len() < c.num_trees,
        "early stopping never fired; the pin would not cover truncation"
    );
    out.push(("eval+early-stop".into(), pin_of(&stopped)));
    let ev = EvalOptions {
        dataset: &eval_ds,
        early_stopping_rounds: None,
    };
    let evaluated = train(
        &shards(),
        &config(all_extensions(), 4),
        &TrainOptions {
            eval: Some(ev),
            ..TrainOptions::default()
        },
    );
    out.push(("eval+extensions".into(), pin_of(&evaluated)));

    // Warm start: two more rounds on top of a 3-round model, with eval.
    let first = train(&shards(), &config(ALL, 4), &TrainOptions::default());
    let mut more = config(ALL, 4);
    more.num_trees = 2;
    let warm = train(
        &shards(),
        &more,
        &TrainOptions {
            eval: Some(ev),
            init: Some(&first.model),
            ..TrainOptions::default()
        },
    );
    out.push(("warm-start".into(), pin_of(&warm)));

    // Faults and elasticity (5 rounds so the schedule has room).
    let mut long = config(ALL, 4);
    long.num_trees = 5;
    let mut long_ext = config(all_extensions(), 4);
    long_ext.num_trees = 5;
    out.push((
        "chaos".into(),
        pin_of(&train(&shards(), &long, &robust(CHAOS))),
    ));
    out.push((
        "chaos+extensions".into(),
        pin_of(&train(&shards(), &long_ext, &robust(CHAOS))),
    ));
    out.push((
        "elastic".into(),
        pin_of(&train(&shards(), &long, &robust(ELASTIC))),
    ));
    let lossy = format!("{ELASTIC}lose worker=2 round=3 policy=redistribute\n");
    out.push((
        "elastic+lose".into(),
        pin_of(&train(&shards(), &long_ext, &robust(&lossy))),
    ));
    out.push((
        "lose-redistribute".into(),
        pin_of(&train(
            &shards(),
            &long,
            &robust("lose worker=1 round=2 policy=redistribute\n"),
        )),
    ));

    out.push((
        "crash-resume".into(),
        crash_and_resume("plain", CHAOS, &long),
    ));
    out.push((
        "crash-resume+extensions".into(),
        crash_and_resume("ext", CHAOS, &long_ext),
    ));
    out.push((
        "crash-resume-elastic".into(),
        crash_and_resume("elastic", ELASTIC, &long),
    ));
    out
}

/// Recorded on commit b86c32f (the parent of the trainer staging refactor).
#[rustfmt::skip]
const PINS: &[(&str, Pin)] = &[
    ("none/t1", [0x346d1faa7f21c7be, 0xd62427fc5f0e4bc0, 0x932a3aa14f4bbb70, 0xa5387fec4b225245, 0x44bad553d39610e3]),
    ("all/t1", [0x801ca8e7335c0185, 0x804764a92a816f77, 0x91337079617b68bc, 0xb84d6d53f57e61c4, 0x11900bf41090555d]),
    ("all-sparse_hist/t1", [0xf48d1a38bb9e8d1f, 0xa8b3c7c827828172, 0x91337079617b68bc, 0xac9c186db51ff784, 0x11900bf41090555d]),
    ("all-parallel_batch/t1", [0x801ca8e7335c0185, 0x804764a92a816f77, 0x91337079617b68bc, 0xb84d6d53f57e61c4, 0x11900bf41090555d]),
    ("all-node_index/t1", [0x801ca8e7335c0185, 0x804764a92a816f77, 0x91337079617b68bc, 0xb84d6d53f57e61c4, 0xd34e4cf60144474b]),
    ("all-task_scheduler/t1", [0x801ca8e7335c0185, 0x0323a41de7894121, 0x5d313a36db7cbea7, 0xb84d6d53f57e61c4, 0xdda32ed7ef286cd8]),
    ("all-two_phase_split/t1", [0x801ca8e7335c0185, 0x2ca653942495e295, 0x2a534adadfa4ed35, 0xb84d6d53f57e61c4, 0xee3c4974104832a3]),
    ("all-low_precision/t1", [0x671ba435cb372029, 0xe7e51a78795e9e56, 0x2ccbb510a309a8d1, 0x5feb30e02f579433, 0x9c87c7ca36c33faf]),
    ("all+pre_binning/t1", [0x801ca8e7335c0185, 0x804764a92a816f77, 0x91337079617b68bc, 0xb84d6d53f57e61c4, 0x11900bf41090555d]),
    ("all+hist_subtraction/t1", [0xfca166101d7841ee, 0x5d760fda792b9f20, 0x52bb17f8b891320f, 0x1beb9994568288cb, 0x8d9d38abf31059f5]),
    ("all+fused_layer/t1", [0x801ca8e7335c0185, 0x804764a92a816f77, 0x91337079617b68bc, 0xb84d6d53f57e61c4, 0x11900bf41090555d]),
    ("all+sparse_wire/t1", [0x801ca8e7335c0185, 0xc0e432e1b752a3a1, 0x923fd0b0a86ba224, 0xb84d6d53f57e61c4, 0xe9dc0fa1fa353df4]),
    ("all+quantized_hist/t1", [0x275c872c2677332f, 0xb2b25daf55124d3f, 0x91337079617b68bc, 0xccefac22d8c53154, 0x11900bf41090555d]),
    ("all+extensions/t1", [0xe04161dc357fbefd, 0xea9e07f2ba36ba42, 0x9afba19bd533a406, 0x8bf8da5a7cff9d09, 0x44d75e97a452380a]),
    ("all+fused_layer+pre_binning/t1", [0x801ca8e7335c0185, 0x804764a92a816f77, 0x91337079617b68bc, 0xb84d6d53f57e61c4, 0x11900bf41090555d]),
    ("all+quantized_hist+pre_binning/t1", [0x275c872c2677332f, 0xb2b25daf55124d3f, 0x91337079617b68bc, 0xccefac22d8c53154, 0x11900bf41090555d]),
    ("dense+batched/t1", [0x346d1faa7f21c7be, 0xd62427fc5f0e4bc0, 0x932a3aa14f4bbb70, 0xa5387fec4b225245, 0x44bad553d39610e3]),
    ("binned-unbatched/t1", [0x671ba435cb372029, 0x4c08e5bfc6b509fe, 0x932a3aa14f4bbb70, 0x5feb30e02f579433, 0x44bad553d39610e3]),
    ("fused+scan/t1", [0x801ca8e7335c0185, 0x804764a92a816f77, 0x91337079617b68bc, 0xb84d6d53f57e61c4, 0xd34e4cf60144474b]),
    ("quantized+fused/t1", [0x275c872c2677332f, 0xb2b25daf55124d3f, 0x91337079617b68bc, 0xccefac22d8c53154, 0x11900bf41090555d]),
    ("quantized+scan+subtraction/t1", [0xe04161dc357fbefd, 0x17201dcc29a168f0, 0x52bb17f8b891320f, 0x8bf8da5a7cff9d09, 0x9038fabf840bed84]),
    ("sparse_wire-f32+full-pull/t1", [0x671ba435cb372029, 0x50cb252a342d4620, 0x2f48c725a5cb56d9, 0x5feb30e02f579433, 0x07af389f7c61156e]),
    ("subtraction-f32-wire/t1", [0x0990606d286686b1, 0xab31bb78c1f3dfd6, 0x41191db50423a773, 0x09840f317132f2ed, 0xf44731eaa1a21247]),
    ("fused-budget/t1", [0x801ca8e7335c0185, 0x804764a92a816f77, 0x91337079617b68bc, 0xb84d6d53f57e61c4, 0x11900bf41090555d]),
    ("none/t4", [0x346d1faa7f21c7be, 0xd62427fc5f0e4bc0, 0x932a3aa14f4bbb70, 0xa5387fec4b225245, 0x44bad553d39610e3]),
    ("all/t4", [0xfb97080eb147d620, 0x244d6b68e72a0f21, 0x91337079617b68bc, 0x4f0724f3e2be28ee, 0x11900bf41090555d]),
    ("all-sparse_hist/t4", [0xbdfbc01c05314890, 0x9ef449e37249b373, 0x91337079617b68bc, 0xa5e30320d14d6b4d, 0x11900bf41090555d]),
    ("all-parallel_batch/t4", [0x801ca8e7335c0185, 0x804764a92a816f77, 0x91337079617b68bc, 0xb84d6d53f57e61c4, 0x11900bf41090555d]),
    ("all-node_index/t4", [0xfb97080eb147d620, 0x244d6b68e72a0f21, 0x91337079617b68bc, 0x4f0724f3e2be28ee, 0xd34e4cf60144474b]),
    ("all-task_scheduler/t4", [0xfb97080eb147d620, 0x2f5c2aab406d713f, 0x5d313a36db7cbea7, 0x4f0724f3e2be28ee, 0xdda32ed7ef286cd8]),
    ("all-two_phase_split/t4", [0xfb97080eb147d620, 0x28bc2d68f2c64a67, 0x2a534adadfa4ed35, 0x4f0724f3e2be28ee, 0xee3c4974104832a3]),
    ("all-low_precision/t4", [0x8dcde9a98613b48d, 0x302f9f39a12f5969, 0x2ccbb510a309a8d1, 0x0b07b5fd243c723a, 0x9c87c7ca36c33faf]),
    ("all+pre_binning/t4", [0xfb97080eb147d620, 0x244d6b68e72a0f21, 0x91337079617b68bc, 0x4f0724f3e2be28ee, 0x11900bf41090555d]),
    ("all+hist_subtraction/t4", [0x0aa1a2d51a8922e5, 0x51878cb6e8bcb988, 0x52bb17f8b891320f, 0x5216a613c2c77766, 0x8d9d38abf31059f5]),
    ("all+fused_layer/t4", [0x9f9815666b82aac9, 0x21a5ec54581f912a, 0x91337079617b68bc, 0xef5b2246d602f8c6, 0x11900bf41090555d]),
    ("all+sparse_wire/t4", [0xfb97080eb147d620, 0x93f1dc9972d5fc1f, 0x923fd0b0a86ba224, 0x4f0724f3e2be28ee, 0xe9dc0fa1fa353df4]),
    ("all+quantized_hist/t4", [0x275c872c2677332f, 0xb2b25daf55124d3f, 0x91337079617b68bc, 0xccefac22d8c53154, 0x11900bf41090555d]),
    ("all+extensions/t4", [0xe04161dc357fbefd, 0xea9e07f2ba36ba42, 0x9afba19bd533a406, 0x8bf8da5a7cff9d09, 0x44d75e97a452380a]),
    ("all+fused_layer+pre_binning/t4", [0x9f9815666b82aac9, 0x21a5ec54581f912a, 0x91337079617b68bc, 0xef5b2246d602f8c6, 0x11900bf41090555d]),
    ("all+quantized_hist+pre_binning/t4", [0x275c872c2677332f, 0xb2b25daf55124d3f, 0x91337079617b68bc, 0xccefac22d8c53154, 0x11900bf41090555d]),
    ("dense+batched/t4", [0x887ffb47ce220e5f, 0x9bebdd281433f1be, 0x932a3aa14f4bbb70, 0xd306fe6904e277ce, 0x44bad553d39610e3]),
    ("binned-unbatched/t4", [0x671ba435cb372029, 0x4c08e5bfc6b509fe, 0x932a3aa14f4bbb70, 0x5feb30e02f579433, 0x44bad553d39610e3]),
    ("fused+scan/t4", [0x9f9815666b82aac9, 0x21a5ec54581f912a, 0x91337079617b68bc, 0xef5b2246d602f8c6, 0xd34e4cf60144474b]),
    ("quantized+fused/t4", [0x275c872c2677332f, 0xb2b25daf55124d3f, 0x91337079617b68bc, 0xccefac22d8c53154, 0x11900bf41090555d]),
    ("quantized+scan+subtraction/t4", [0xe04161dc357fbefd, 0x17201dcc29a168f0, 0x52bb17f8b891320f, 0x8bf8da5a7cff9d09, 0x9038fabf840bed84]),
    ("sparse_wire-f32+full-pull/t4", [0x8dcde9a98613b48d, 0xb59a9aca23cb952f, 0xadf68a78c1e141c6, 0x0b07b5fd243c723a, 0x73f88188cad22100]),
    ("subtraction-f32-wire/t4", [0xae412356d89401e2, 0x610c4242dd7bc072, 0x41191db50423a773, 0x202e738f15cc1b57, 0xf44731eaa1a21247]),
    ("fused-budget/t4", [0xfb97080eb147d620, 0x244d6b68e72a0f21, 0x91337079617b68bc, 0x4f0724f3e2be28ee, 0x11900bf41090555d]),
    ("softmax", [0x01f04d399ab0ad71, 0x914d0967ddd3db17, 0xeaf9d59f3d1606d8, 0xb9b66bdf67bd839f, 0x6203f94960f25aff]),
    ("softmax+extensions", [0xe9ddbab811f22c64, 0xf3bdd0c81b8fa6ea, 0x7cd7aaa11de85cd2, 0x960b3c45dbfd6195, 0xffaa0b15bc0f2676]),
    ("row-subsample", [0x09147df0210fc17d, 0xd6d0b24b08bded65, 0xcccde9149b057a2c, 0x1a1822dfac587ec8, 0x8f56fe3e5ab506a4]),
    ("row-subsample-scan", [0x09147df0210fc17d, 0xd6d0b24b08bded65, 0xcccde9149b057a2c, 0x1a1822dfac587ec8, 0x04e98102503dfef7]),
    ("row-subsample+extensions", [0x3a6b3890f6ec5cf5, 0xd78375d686f66d05, 0x870a5cb791258d92, 0xea39a520bf48129e, 0x8118690f5bc98c43]),
    ("feature-sample", [0xaf6b0f2192d0cb85, 0xa06fcd644c59c415, 0x64917884c6c0fe34, 0x240512df9ee21861, 0x0a2daa0e7ca04c31]),
    ("feature-sample+pre_binning", [0xaf6b0f2192d0cb85, 0xa06fcd644c59c415, 0x64917884c6c0fe34, 0x240512df9ee21861, 0x0a2daa0e7ca04c31]),
    ("feature-sample+extensions", [0x2ef2b3ee78ac7ed4, 0x1b718f0c16816d82, 0xd29e38d0ef6fc29c, 0xd36ca3f8b272195c, 0xe3eb892600384b7e]),
    ("square", [0xcc3db0b27ad052ea, 0x03b78ba9c4a6ccac, 0x171eaf031e8e6248, 0x76200f93558bd942, 0xc7fe07a7b6233f69]),
    ("eval+early-stop", [0x55ab146a124a9c6b, 0x34da60888a1220ae, 0xcccde9149b057a2c, 0xf12a0ff2998e0d61, 0xd748c9f6f5b850e7]),
    ("eval+extensions", [0xe04161dc357fbefd, 0xea9e07f2ba36ba42, 0x9afba19bd533a406, 0xf24331c2a8ef44c2, 0x44d75e97a452380a]),
    ("warm-start", [0x305a1d8229ff14d6, 0xd2d33451f0c4b4de, 0x61feaf9dfbeb8433, 0x3fb417db05b3a489, 0xb984b915fba55b74]),
    ("chaos", [0xb3ba456fd7361a61, 0x6ef7927631037820, 0x57857999399b5749, 0x44eacba21be12f63, 0xc6830f5082d836ad]),
    ("chaos+extensions", [0x53169f0286920905, 0x5d3a1cd026d434e5, 0xc589aafab3c28064, 0x5e17753f11617a0c, 0xcfd8a6fccb76f727]),
    ("elastic", [0xb3ba456fd7361a61, 0x8a148bb89bb4047b, 0x9415f1752c61cd8a, 0x44eacba21be12f63, 0x2d36f04fe75af0b3]),
    ("elastic+lose", [0x53169f0286920905, 0x31e17b0739bdc920, 0x1f6f6d7caff25eb4, 0x5e17753f11617a0c, 0xc47ee78d0a8bb0b3]),
    ("lose-redistribute", [0xb3ba456fd7361a61, 0xe94ad473bf145fd0, 0x916a9bdfd28dc2fe, 0x44eacba21be12f63, 0xd9446812bc6a1634]),
    ("crash-resume", [0xb3ba456fd7361a61, 0xa9b2aae6cbb416c2, 0x643297f3c531e238, 0x44eacba21be12f63, 0xd678268c99f8d12b]),
    ("crash-resume+extensions", [0x53169f0286920905, 0x9d0c3ce462afc197, 0x9122881eab7cec61, 0x5e17753f11617a0c, 0x9370ef97ec3e866e]),
    ("crash-resume-elastic", [0xb3ba456fd7361a61, 0x764093d335f1ff65, 0x9415f1752c61cd8a, 0x44eacba21be12f63, 0x7131c946b7eb037b]),
];

#[test]
fn outputs_match_the_hashes_recorded_on_the_parent_commit() {
    let actual = lattice();
    let table: String = actual
        .iter()
        .map(|(name, p)| {
            format!(
                "    (\"{name}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}]),\n",
                p[0], p[1], p[2], p[3], p[4]
            )
        })
        .collect();
    let columns = ["model", "report", "ledger", "curves", "trace"];
    let mut diffs = Vec::new();
    for (i, (name, pin)) in actual.iter().enumerate() {
        match PINS.get(i) {
            Some((want_name, want)) if want_name == name => {
                for (c, col) in columns.iter().enumerate() {
                    if pin[c] != want[c] {
                        diffs.push(format!("{name}: {col} hash changed"));
                    }
                }
            }
            _ => diffs.push(format!("{name}: no pin recorded at row {i}")),
        }
    }
    if actual.len() != PINS.len() {
        diffs.push(format!("{} rows run, {} pinned", actual.len(), PINS.len()));
    }
    assert!(
        diffs.is_empty(),
        "{} pin(s) differ from the recorded table:\n  {}\nactual table:\n{table}",
        diffs.len(),
        diffs.join("\n  ")
    );
}

/// `fused_layer` and `quantized_hist` imply the binned representation:
/// turning `pre_binning` on next to them must change nothing.
#[test]
fn implied_pre_binning_rows_hash_equal() {
    let pin = |name: &str| {
        PINS.iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no pin named {name}"))
            .1
    };
    for t in [1, 4] {
        for flag in ["fused_layer", "quantized_hist"] {
            assert_eq!(
                pin(&format!("all+{flag}/t{t}")),
                pin(&format!("all+{flag}+pre_binning/t{t}")),
                "{flag} with pre_binning on vs off, threads {t}"
            );
        }
        // Integer accumulation: quantized rows are also equal across threads
        // and across per-node vs fused.
        assert_eq!(
            pin("all+quantized_hist/t1")[0],
            pin(&format!("quantized+fused/t{t}"))[0]
        );
    }
}
