//! Ablation of the *extensions beyond the paper* (DESIGN.md §4b), so their
//! costs/benefits are measured with the same harness as the paper's own
//! optimizations:
//!
//! * sibling histogram subtraction — histogram bytes and build time saved;
//! * row subsampling — compute saved per tree vs. accuracy;
//! * feature-parallel LightGBM — the communication/computation/memory
//!   trade-off of Section 2.3's column-partitioned mode;
//! * early stopping — trees saved on a plateauing run.

use dimboost_baselines::train_lightgbm_feature_parallel;
use dimboost_baselines::BaselineKind;
use dimboost_bench::{fmt_bytes, fmt_secs, print_table, run, Scale, System};
use dimboost_core::metrics::classification_error;
use dimboost_core::{train_with_options, EvalOptions, GbdtConfig, Optimizations, TrainOptions};
use dimboost_data::partition::{partition_rows, train_test_split};
use dimboost_data::synthetic::{gender_like, generate};
use dimboost_ps::PsConfig;
use dimboost_simnet::CostModel;

fn main() {
    let scale = Scale::from_env();
    let cfg_data = gender_like(42)
        .with_rows(scale.pick(10_000, 40_000))
        .with_features(scale.pick(3_000, 20_000));
    let ds = generate(&cfg_data);
    let (train, test) = train_test_split(&ds, 0.1, 42).unwrap();
    let workers = scale.pick(5, 10);
    let shards = partition_rows(&train, workers).unwrap();
    let cost = CostModel::GIGABIT_LAN;
    let dimboost =
        |cfg: &GbdtConfig| run(System::DimBoost, &shards, cfg, workers, cost, Some(&test));
    let base = GbdtConfig {
        num_trees: scale.pick(5, 20),
        max_depth: scale.pick(5, 7),
        num_candidates: 20,
        learning_rate: 0.2,
        num_threads: 4,
        ..GbdtConfig::default()
    };

    // ---- Sibling histogram subtraction. -----------------------------------
    let mut rows = Vec::new();
    for (label, sub) in [
        ("paper optimizations only", false),
        ("+ sibling subtraction", true),
    ] {
        let mut cfg = base.clone();
        cfg.opts = Optimizations {
            hist_subtraction: sub,
            ..Optimizations::ALL
        };
        let r = dimboost(&cfg);
        rows.push(vec![
            label.into(),
            fmt_secs(r.compute_secs),
            fmt_secs(r.comm_secs),
            fmt_bytes(r.comm_bytes),
            format!("{:.4}", r.test_error.unwrap()),
        ]);
    }
    print_table(
        "Extension: sibling histogram subtraction",
        &["configuration", "compute", "comm(sim)", "bytes", "test err"],
        &rows,
    );

    // ---- Pre-binned construction. -------------------------------------------
    let mut rows = Vec::new();
    for (label, binning) in [
        ("bin per build (Algorithm 2)", false),
        ("+ pre-binning", true),
    ] {
        let mut cfg = base.clone();
        cfg.opts.pre_binning = binning;
        let r = dimboost(&cfg);
        rows.push(vec![
            label.into(),
            fmt_secs(r.compute_secs),
            fmt_secs(r.total_secs()),
        ]);
    }
    print_table(
        "Extension: pre-binned histogram construction",
        &["configuration", "compute", "total"],
        &rows,
    );

    // ---- Row subsampling. ---------------------------------------------------
    let mut rows = Vec::new();
    for ratio in [1.0f64, 0.5, 0.25] {
        let mut cfg = base.clone();
        cfg.instance_sample_ratio = ratio;
        let r = dimboost(&cfg);
        rows.push(vec![
            format!("{:.0}% rows/tree", ratio * 100.0),
            fmt_secs(r.compute_secs),
            fmt_secs(r.total_secs()),
            format!("{:.4}", r.test_error.unwrap()),
        ]);
    }
    print_table(
        "Extension: stochastic row subsampling",
        &["configuration", "compute", "total", "test err"],
        &rows,
    );

    // ---- Feature-parallel vs data-parallel LightGBM. -------------------------
    let lightgbm = System::Collective(BaselineKind::Lightgbm);
    let data_parallel = run(lightgbm, &shards, &base, workers, cost, Some(&test));
    let fp = train_lightgbm_feature_parallel(&train, workers, &base, cost).unwrap();
    let fp_err = classification_error(&fp.model.predict_dataset(&test), test.labels());
    print_table(
        "Extension: LightGBM feature-parallel vs data-parallel (Section 2.3)",
        &[
            "mode",
            "compute",
            "comm(sim)",
            "bytes",
            "test err",
            "memory/worker",
        ],
        &[
            vec![
                "data-parallel".into(),
                fmt_secs(data_parallel.compute_secs),
                fmt_secs(data_parallel.comm_secs),
                fmt_bytes(data_parallel.comm_bytes),
                format!("{:.4}", data_parallel.test_error.unwrap()),
                fmt_bytes((train.memory_bytes() / workers) as u64),
            ],
            vec![
                "feature-parallel".into(),
                fmt_secs(fp.breakdown.compute_secs),
                fmt_secs(fp.breakdown.comm.sim_time.seconds()),
                fmt_bytes(fp.breakdown.comm.bytes),
                format!("{fp_err:.4}"),
                // The paper's critique: the whole dataset on every worker.
                fmt_bytes(train.memory_bytes() as u64),
            ],
        ],
    );

    // ---- Early stopping. ------------------------------------------------------
    let mut cfg = base.clone();
    cfg.num_trees = scale.pick(15, 40);
    cfg.learning_rate = 0.5; // plateaus quickly
    let options = TrainOptions {
        eval: Some(EvalOptions {
            dataset: &test,
            early_stopping_rounds: Some(3),
        }),
        ..TrainOptions::default()
    };
    let ps = PsConfig {
        num_servers: workers,
        num_partitions: 0,
        cost_model: cost,
    };
    let out = train_with_options(&shards, &cfg, ps, &options).unwrap();
    println!(
        "\nExtension: early stopping — budget {} rounds, stopped with {} trees (best round {:?})",
        cfg.num_trees,
        out.model.num_trees(),
        out.best_iteration,
    );
    let pts: Vec<String> = out
        .eval_curve
        .iter()
        .map(|p| format!("({}, {:.4})", p.tree, p.train_loss))
        .collect();
    println!("eval curve: {}", pts.join(" "));
}
