//! Figure 14 (Appendix A.3) — the five systems on a *low-dimensional*
//! dataset (Synthesis-2: many rows, 1000 features).
//!
//! Shape to reproduce: DimBoost still wins (paper: 7.8× vs XGBoost, 4.5×
//! vs TencentBoost), but here the edge comes mostly from the computation
//! side (parallel training paradigm), since communication is cheap at low
//! dimension.

use dimboost_bench::{print_speedups, print_table, result_row, run, Scale, System, RESULT_HEADER};
use dimboost_core::GbdtConfig;
use dimboost_data::partition::{partition_rows, train_test_split};
use dimboost_data::synthetic::{generate, low_dim_like};
use dimboost_simnet::CostModel;

fn main() {
    let scale = Scale::from_env();
    let cfg_data = low_dim_like(42).with_rows(scale.pick(15_000, 60_000));
    let ds = generate(&cfg_data);
    let (train, test) = train_test_split(&ds, 0.1, 42).unwrap();
    let workers = scale.pick(10, 50);
    let shards = partition_rows(&train, workers).unwrap();

    let config = GbdtConfig {
        num_trees: scale.pick(5, 20),
        max_depth: scale.pick(4, 7),
        num_candidates: 20,
        num_threads: 4,
        ..GbdtConfig::default()
    };
    let cost = CostModel::GIGABIT_LAN;

    let results =
        System::ALL.map(|system| run(system, &shards, &config, workers, cost, Some(&test)));
    let table: Vec<Vec<String>> = results.iter().map(result_row).collect();
    print_table(
        &format!("Figure 14: low-dimensional dataset ({} workers)", workers),
        &RESULT_HEADER,
        &table,
    );
    print_speedups(&results);
}
