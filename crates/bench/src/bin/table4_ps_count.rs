//! Table 4 — impact of the number of parameter servers.
//!
//! The paper trains Gender on 50 workers and varies p ∈ {5, 20, 50}: run
//! time drops from 38 → 23 → 17 minutes (2.2× from 5 to 50 servers).
//! Shape to reproduce: end-to-end time decreases monotonically as servers
//! are added, because each server's inbound link carries `w·h/p` bytes.

use dimboost_bench::{fmt_secs, print_table, run, Scale, System};
use dimboost_core::GbdtConfig;
use dimboost_data::partition::partition_rows;
use dimboost_data::synthetic::{gender_like, generate};
use dimboost_simnet::CostModel;

fn main() {
    let scale = Scale::from_env();
    let workers = scale.pick(10, 50);
    let servers = match scale {
        Scale::Quick => vec![1, 4, 10],
        Scale::Full => vec![5, 20, 50],
    };
    let cfg_data = gender_like(42)
        .with_rows(scale.pick(8_000, 40_000))
        .with_features(scale.pick(4_000, 33_000));
    let ds = generate(&cfg_data);
    let shards = partition_rows(&ds, workers).unwrap();
    let config = GbdtConfig {
        num_trees: scale.pick(3, 20),
        max_depth: scale.pick(4, 7),
        num_candidates: 20,
        num_threads: 4,
        ..GbdtConfig::default()
    };

    let cost = CostModel::GIGABIT_LAN;
    let mut rows = Vec::new();
    let mut slowest = None;
    for &p in &servers {
        let r = run(System::DimBoost, &shards, &config, p, cost, None);
        let total = r.total_secs();
        let base = *slowest.get_or_insert(total);
        rows.push(vec![
            p.to_string(),
            fmt_secs(r.compute_secs),
            fmt_secs(r.comm_secs),
            fmt_secs(total),
            format!("{:.2}x", base / total),
        ]);
    }
    print_table(
        &format!("Table 4: impact of #parameter servers ({workers} workers)"),
        &[
            "#servers",
            "compute",
            "comm(sim)",
            "total",
            "speedup vs fewest",
        ],
        &rows,
    );
}
