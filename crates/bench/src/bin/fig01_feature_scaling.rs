//! Figure 1 — run time of an XGBoost-style system vs DimBoost as the
//! feature dimension grows.
//!
//! Paper claim to reproduce: XGBoost's run time grows steeply with the
//! number of features (dense construction + full-histogram allreduce),
//! while DimBoost grows much more slowly (sparsity-aware construction +
//! compressed scatter-style aggregation), so the gap widens with dimension.

use dimboost_baselines::BaselineKind;
use dimboost_bench::{fmt_secs, print_table, run, Scale, System};
use dimboost_core::GbdtConfig;
use dimboost_data::partition::partition_rows;
use dimboost_data::synthetic::{gender_like, generate};
use dimboost_simnet::CostModel;

fn main() {
    let scale = Scale::from_env();
    let rows = scale.pick(4_000, 20_000);
    let dims = match scale {
        Scale::Quick => vec![500, 1_000, 2_000, 4_000],
        Scale::Full => vec![2_000, 8_000, 16_000, 33_000],
    };
    let (workers, cost) = (5, CostModel::GIGABIT_LAN);

    // One Gender-shaped dataset at the largest dimension; prefixes give the
    // smaller-dimension variants, exactly how the paper derives Gender-10K.
    let full = generate(
        &gender_like(42)
            .with_rows(rows)
            .with_features(*dims.last().unwrap()),
    );

    let config = GbdtConfig {
        num_trees: scale.pick(3, 10),
        max_depth: 4,
        num_candidates: 20,
        learning_rate: 0.1,
        num_threads: 4,
        ..GbdtConfig::default()
    };

    let mut table = Vec::new();
    for &m in &dims {
        let ds = full.restrict_features(m);
        let shards = partition_rows(&ds, workers).unwrap();
        let [dim, xgb] = [System::DimBoost, System::Collective(BaselineKind::Xgboost)]
            .map(|system| run(system, &shards, &config, workers, cost, None));
        table.push(vec![
            m.to_string(),
            fmt_secs(xgb.total_secs()),
            fmt_secs(dim.total_secs()),
            format!("{:.1}x", xgb.total_secs() / dim.total_secs()),
        ]);
        println!(
            "m={m}: XGBoost {} (compute {}, comm {}), DimBoost {} (compute {}, comm {})",
            fmt_secs(xgb.total_secs()),
            fmt_secs(xgb.compute_secs),
            fmt_secs(xgb.comm_secs),
            fmt_secs(dim.total_secs()),
            fmt_secs(dim.compute_secs),
            fmt_secs(dim.comm_secs),
        );
    }
    print_table(
        "Figure 1: run time vs #features (Gender-shaped data)",
        &["#features", "XGBoost", "DimBoost", "speedup"],
        &table,
    );
}
