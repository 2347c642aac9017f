//! Figure 12 — end-to-end comparison of the five systems on the three
//! datasets: (a) RCV1-shaped on a small cluster, (b) Synthesis-shaped on a
//! small cluster, (c) Gender-shaped on the large cluster (where the paper
//! excludes LightGBM and MLlib fails to finish).
//!
//! Shapes to reproduce: DimBoost fastest everywhere; MLlib slowest by far;
//! the gap over XGBoost grows with dimensionality (4.2× on RCV1 → ~9× on
//! Synthesis/Gender in the paper); TencentBoost sits between XGBoost and
//! DimBoost; all systems converge to comparable training loss, DimBoost
//! fastest against wall-clock.
//!
//! Usage: `fig12_end_to_end [rcv1|synthesis|gender|all]`

use dimboost_baselines::BaselineKind;
use dimboost_bench::{
    print_speedups, print_table, result_row, run, Scale, System, SystemResult, RESULT_HEADER,
};
use dimboost_core::GbdtConfig;
use dimboost_data::partition::{partition_rows, train_test_split};
use dimboost_data::synthetic::{gender_like, generate, rcv1_like, synthesis_like};
use dimboost_simnet::CostModel;

struct Setup {
    name: &'static str,
    dataset: dimboost_data::synthetic::SparseGenConfig,
    workers: usize,
    systems: &'static [System],
}

fn convergence_summary(r: &SystemResult) -> String {
    // Time (modelled seconds) to reach within 5% of the run's final loss.
    let last = r.curve.last().map(|p| p.train_loss).unwrap_or(f64::NAN);
    let target = last * 1.05;
    let t = r
        .curve
        .iter()
        .find(|p| p.train_loss <= target)
        .map(|p| p.elapsed_secs)
        .unwrap_or(f64::NAN);
    format!("{:.2}s to within 5% of final loss {:.4}", t, last)
}

fn compare(setup: &Setup, scale: Scale) {
    let rows_scale = match scale {
        Scale::Quick => 0.25,
        Scale::Full => 1.0,
    };
    let feat_scale = match scale {
        Scale::Quick => 0.25,
        Scale::Full => 1.0,
    };
    let mut cfg_data = setup.dataset.clone();
    cfg_data.rows = ((cfg_data.rows as f64 * rows_scale) as usize).max(1_000);
    cfg_data.features = ((cfg_data.features as f64 * feat_scale) as usize).max(200);
    cfg_data.avg_nnz = cfg_data.avg_nnz.min(cfg_data.features / 2);

    let ds = generate(&cfg_data);
    let (train, test) = train_test_split(&ds, 0.1, 42).unwrap();
    println!(
        "\n#### {} : {} rows x {} features (z={:.0}), {} workers ####",
        setup.name,
        train.num_rows(),
        train.num_features(),
        train.avg_nnz(),
        setup.workers
    );
    let shards = partition_rows(&train, setup.workers).unwrap();
    let config = GbdtConfig {
        num_trees: scale.pick(5, 20),
        max_depth: scale.pick(4, 7),
        num_candidates: 20,
        learning_rate: 0.1,
        num_threads: 4,
        batch_size: 10_000,
        ..GbdtConfig::default()
    };
    let cost = CostModel::GIGABIT_LAN;

    let results: Vec<SystemResult> = setup
        .systems
        .iter()
        .map(|&system| run(system, &shards, &config, setup.workers, cost, Some(&test)))
        .collect();

    let table: Vec<Vec<String>> = results.iter().map(result_row).collect();
    print_table(
        &format!("Figure 12 ({}) — run time", setup.name),
        &RESULT_HEADER,
        &table,
    );

    print_speedups(&results);
    println!("\nconvergence (training loss vs modelled time):");
    for r in &results {
        println!("  {:<13} {}", r.system, convergence_summary(r));
        let pts: Vec<String> = r
            .curve
            .iter()
            .map(|p| format!("({:.2}s, {:.4})", p.elapsed_secs, p.train_loss))
            .collect();
        println!("    curve: {}", pts.join(" "));
    }
}

fn main() {
    let scale = Scale::from_env();
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let setups = [
        Setup {
            name: "rcv1",
            dataset: rcv1_like(42),
            workers: 5,
            systems: &System::ALL,
        },
        Setup {
            name: "synthesis",
            dataset: synthesis_like(42),
            workers: 5,
            systems: &System::ALL,
        },
        Setup {
            name: "gender",
            dataset: gender_like(42),
            workers: scale.pick(10, 50),
            // The paper excludes LightGBM (no Yarn/HDFS support) and MLlib
            // fails to finish on Gender; we mirror the lineup.
            systems: &[
                System::DimBoost,
                System::TencentBoost,
                System::Collective(BaselineKind::Xgboost),
            ],
        },
    ];
    for setup in &setups {
        if which == "all" || which == setup.name {
            compare(setup, scale);
        }
    }
}
