//! Table 5 — impact of feature dimension on accuracy.
//!
//! The paper trains prefixes of the Gender feature space (Gender-10K,
//! Gender-100K, Gender-330K): test error falls from 0.3014 → 0.2714 →
//! 0.2514 as more features are used. Shape to reproduce: test error
//! decreases monotonically with the feature prefix length, because the
//! generator spreads informative features over the whole range.

use dimboost_bench::{print_table, run, Scale, System};
use dimboost_core::GbdtConfig;
use dimboost_data::partition::{partition_rows, train_test_split};
use dimboost_data::synthetic::{gender_like, generate};
use dimboost_simnet::CostModel;

fn main() {
    let scale = Scale::from_env();
    let full_m = scale.pick(6_000, 33_000);
    let cfg_data = gender_like(42)
        .with_rows(scale.pick(12_000, 40_000))
        .with_features(full_m);
    let ds = generate(&cfg_data);
    let workers = scale.pick(5, 10);

    // Prefixes at ~3%, ~30%, and 100% of the feature space, mirroring
    // Gender-10K / Gender-100K / Gender-330K.
    let prefixes = [full_m * 3 / 100, full_m * 30 / 100, full_m];

    let config = GbdtConfig {
        num_trees: scale.pick(8, 20),
        max_depth: scale.pick(4, 7),
        num_candidates: 20,
        learning_rate: 0.2,
        num_threads: 4,
        ..GbdtConfig::default()
    };

    let cost = CostModel::GIGABIT_LAN;
    let mut rows = Vec::new();
    let mut errors = Vec::new();
    for &m in &prefixes {
        let sub = ds.restrict_features(m);
        let (train, test) = train_test_split(&sub, 0.1, 42).unwrap();
        let shards = partition_rows(&train, workers).unwrap();
        let test = Some(&test);
        let r = run(System::DimBoost, &shards, &config, workers, cost, test);
        let err = r.test_error.unwrap();
        errors.push(err);
        rows.push(vec![
            format!("Gender-{m}"),
            format!("{err:.4}"),
            format!("{:.4}", r.curve.last().unwrap().train_loss),
        ]);
    }
    print_table(
        "Table 5: impact of feature dimension",
        &["dataset prefix", "test error", "train loss"],
        &rows,
    );
    // Test error is deterministic in the seed, so the verdict gates.
    let monotone = errors.windows(2).all(|w| w[1] <= w[0] + 1e-9);
    println!(
        "\nshape check: error decreases with more features: {}",
        if monotone {
            "REPRODUCED"
        } else {
            "NOT monotone"
        }
    );
    if !monotone {
        std::process::exit(1);
    }
}
