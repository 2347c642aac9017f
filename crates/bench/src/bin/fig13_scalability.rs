//! Figure 13 (Appendix A.2) — scalability: run time decomposed into data
//! loading, computation, and communication as machines are added.
//!
//! Shapes to reproduce: loading time drops ~linearly with machines;
//! computation drops sublinearly (split finding does not parallelize with
//! instances); communication appears at w ≥ 2 but does not grow
//! significantly with more workers (the PS exchange's bandwidth term is
//! constant in w).

use dimboost_bench::{fmt_secs, phase_rows, print_table, run, timed, Scale, System, PHASE_HEADER};
use dimboost_core::GbdtConfig;
use dimboost_data::partition::partition_rows;
use dimboost_data::synthetic::{generate, rcv1_like, synthesis_like, SparseGenConfig};
use dimboost_simnet::CostModel;

fn sweep(name: &str, cfg_data: &SparseGenConfig, workers: &[usize], config: &GbdtConfig) {
    let ds = generate(cfg_data);
    let cost = CostModel::GIGABIT_LAN;
    let mut rows = Vec::new();
    let mut last_report = None;
    for &w in workers {
        // "Loading": materializing each worker's shard from the source
        // (stands in for the HDFS read, split evenly across machines).
        let (shards, t_load_total) = timed(|| partition_rows(&ds, w).unwrap());
        let load = t_load_total / w as f64;
        let r = run(System::DimBoost, &shards, config, w, cost, None);
        rows.push(vec![
            w.to_string(),
            fmt_secs(load),
            fmt_secs(r.compute_secs),
            fmt_secs(r.comm_secs),
            fmt_secs(load + r.total_secs()),
        ]);
        r.write_artifacts(&format!("fig13_{}_w{w}", name.replace(' ', "_")));
        last_report = r.report.map(|report| (w, report));
    }
    print_table(
        &format!("Figure 13: scalability on {name}"),
        &[
            "workers",
            "loading",
            "computation",
            "communication(sim)",
            "total",
        ],
        &rows,
    );
    // Per-phase view of the widest run: where the added machines spend
    // their time, and how skewed the workers are.
    if let Some((w, report)) = last_report {
        print_table(
            &format!("Per-phase breakdown on {name} (w = {w})"),
            &PHASE_HEADER,
            &phase_rows(&report),
        );
    }
}

fn main() {
    let scale = Scale::from_env();
    let config = GbdtConfig {
        num_trees: scale.pick(4, 20),
        max_depth: scale.pick(4, 7),
        num_candidates: 20,
        num_threads: 4,
        ..GbdtConfig::default()
    };

    let rcv1 = rcv1_like(42).with_rows(scale.pick(8_000, 20_000));
    sweep("RCV1-shaped", &rcv1, &[1, 2, 5], &config);

    let synthesis = synthesis_like(42)
        .with_rows(scale.pick(10_000, 40_000))
        .with_features(scale.pick(3_000, 10_000));
    sweep(
        "Synthesis-shaped",
        &synthesis,
        &scale.pick_slice(&[2, 5, 10], &[10, 20, 50]),
        &config,
    );
}

trait PickSlice {
    fn pick_slice<'a>(&self, quick: &'a [usize], full: &'a [usize]) -> Vec<usize>;
}

impl PickSlice for Scale {
    fn pick_slice<'a>(&self, quick: &'a [usize], full: &'a [usize]) -> Vec<usize> {
        match self {
            Scale::Quick => quick.to_vec(),
            Scale::Full => full.to_vec(),
        }
    }
}
