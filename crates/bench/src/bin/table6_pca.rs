//! Table 6 — impact of dimension reduction.
//!
//! The paper runs PCA (Spark MLlib) on Gender down to 10K dimensions, then
//! trains: PCA takes 64 minutes, training 9 minutes, and the test error
//! *worsens* from 0.2514 to 0.2785. Shapes to reproduce: (1) PCA cost
//! dominates and makes the end-to-end pipeline slower than training
//! directly in high dimension; (2) the reduced model is less accurate.

use dimboost_bench::{fmt_secs, print_table, run, timed, Scale, System};
use dimboost_core::GbdtConfig;
use dimboost_data::partition::{partition_rows, train_test_split};
use dimboost_data::synthetic::{gender_like, generate};
use dimboost_linalg::{Pca, PcaConfig};
use dimboost_simnet::CostModel;

fn main() {
    let scale = Scale::from_env();
    let cfg_data = gender_like(42)
        .with_rows(scale.pick(6_000, 40_000))
        .with_features(scale.pick(3_000, 33_000));
    let ds = generate(&cfg_data);
    let (train, test) = train_test_split(&ds, 0.1, 42).unwrap();
    let workers = scale.pick(5, 10);
    let target_dim = scale.pick(32, 96);

    let config = GbdtConfig {
        num_trees: scale.pick(8, 20),
        max_depth: scale.pick(4, 7),
        num_candidates: 20,
        learning_rate: 0.2,
        num_threads: 4,
        ..GbdtConfig::default()
    };

    // Direct training in the full dimension.
    let shards = partition_rows(&train, workers).unwrap();
    let (dimboost, cost) = (System::DimBoost, CostModel::GIGABIT_LAN);
    let direct = run(dimboost, &shards, &config, workers, cost, Some(&test));

    // PCA to `target_dim`, then train in the reduced space.
    let (pca, t_pca) = timed(|| {
        Pca::fit(
            &train,
            &PcaConfig {
                components: target_dim,
                iterations: 12,
                seed: 42,
            },
        )
        .expect("PCA failed")
    });
    let (reduced_sets, t_project) = timed(|| (pca.transform(&train), pca.transform(&test)));
    let (red_train, red_test) = reduced_sets;
    let red_shards = partition_rows(&red_train, workers).unwrap();
    let reduced = run(
        dimboost,
        &red_shards,
        &config,
        workers,
        cost,
        Some(&red_test),
    );

    let pca_total = t_pca + t_project;
    print_table(
        "Table 6: impact of dimension reduction",
        &[
            "method",
            "PCA time",
            "train time",
            "end-to-end",
            "test error",
        ],
        &[
            vec![
                format!("PCA to {target_dim} dims + train"),
                fmt_secs(pca_total),
                fmt_secs(reduced.total_secs()),
                fmt_secs(pca_total + reduced.total_secs()),
                format!("{:.4}", reduced.test_error.unwrap()),
            ],
            vec![
                "direct (no PCA)".into(),
                "0".into(),
                fmt_secs(direct.total_secs()),
                fmt_secs(direct.total_secs()),
                format!("{:.4}", direct.test_error.unwrap()),
            ],
        ],
    );
    let worse_error = reduced.test_error.unwrap() > direct.test_error.unwrap();
    let slower = pca_total + reduced.total_secs() > direct.total_secs();
    println!(
        "\nshape check: PCA pipeline slower end-to-end: {} | PCA degrades accuracy: {}",
        if slower {
            "REPRODUCED"
        } else {
            "NOT reproduced at this scale"
        },
        if worse_error {
            "REPRODUCED"
        } else {
            "NOT reproduced at this scale"
        },
    );
}
