//! The paper's shape claims about the compared systems, as assertions.
//!
//! Every system runs through the one harness entry, [`run`], and every
//! assertion reads a deterministic column — simulated communication seconds
//! or payload bytes, which are pure functions of the seed. Nothing reads
//! `compute_secs` or any other wall clock. Sizes are far below the `quick`
//! scale of the experiment binaries (this runs unoptimised) but keep the
//! histogram rows wide enough — tens of thousands of floats — that the
//! bandwidth term dominates, which is the regime the claims are about; the
//! small-message crossover is pinned separately by `simnet`'s unit tests.

use std::cmp::Ordering::{self, Greater, Less};

use dimboost_baselines::BaselineKind;
use dimboost_bench::{run, table3_steps, System, SystemResult};
use dimboost_core::GbdtConfig;
use dimboost_data::partition::partition_rows;
use dimboost_data::synthetic::{gender_like, generate};
use dimboost_data::Dataset;
use dimboost_simnet::{CostModel, Phase};

const COST: CostModel = CostModel::GIGABIT_LAN;

/// Gender-shaped (very sparse, wide), scaled down.
fn gender(rows: usize, features: usize) -> Dataset {
    generate(&gender_like(42).with_rows(rows).with_features(features))
}

fn config() -> GbdtConfig {
    GbdtConfig {
        num_trees: 1,
        max_depth: 4,
        num_candidates: 20,
        ..GbdtConfig::default()
    }
}

/// Each value stands in `direction` to the one before it.
fn strictly(direction: Ordering, what: &str, values: &[f64]) {
    assert!(
        values
            .windows(2)
            .all(|w| w[1].partial_cmp(&w[0]) == Some(direction)),
        "{what} should be strictly {direction:?} step by step: {values:?}"
    );
}

/// Figure 1: the gap between an XGBoost-style system and DimBoost widens
/// with the feature dimension. On simulated time the *ratio* grows (latency
/// and server fan-in do not scale with the row). On bytes both systems are
/// linear in the row length, so their ratio is flat near 2 — at every scale
/// tried, the bins' `quick` included — and what widens is the absolute gap.
#[test]
fn figure1_gap_over_allreduce_widens_with_dimension() {
    let full = gender(600, 2_000);
    let xgboost = System::Collective(BaselineKind::Xgboost);
    let (mut secs_ratio, mut bytes_gap) = (Vec::new(), Vec::new());
    for m in [500, 1_000, 2_000] {
        let shards = partition_rows(&full.restrict_features(m), 5).unwrap();
        let [dim, xgb] =
            [System::DimBoost, xgboost].map(|s| run(s, &shards, &config(), 5, COST, None));
        assert!(
            xgb.comm_bytes as f64 > 1.5 * dim.comm_bytes as f64,
            "M = {m}: XGBoost-style {} B vs DimBoost {} B",
            xgb.comm_bytes,
            dim.comm_bytes
        );
        secs_ratio.push(xgb.comm_secs / dim.comm_secs);
        bytes_gap.push(xgb.comm_bytes as f64 - dim.comm_bytes as f64);
    }
    assert!(secs_ratio[0] > 1.0, "{secs_ratio:?}");
    strictly(Greater, "comm_secs ratio as M grows", &secs_ratio);
    strictly(Greater, "comm_bytes gap as M grows", &bytes_gap);
}

/// Table 3c: task scheduler, two-phase split and low-precision histograms
/// each cut simulated communication when added, and the latter two cut the
/// bytes of the phase they act on.
#[test]
fn table3c_each_find_split_optimization_cuts_communication() {
    let shards = partition_rows(&gender(400, 2_000), 5).unwrap();
    let steps: Vec<SystemResult> = table3_steps()
        .into_iter()
        .map(|(_, opts)| {
            let cfg = GbdtConfig { opts, ..config() };
            run(System::DimBoost, &shards, &cfg, 5, COST, None)
        })
        .collect();
    let secs: Vec<f64> = steps.iter().map(|r| r.comm_secs).collect();
    strictly(Less, "comm_secs over the cumulative steps", &secs);
    let [_, scheduler, two_phase, low_precision] = &steps[..] else {
        panic!("Table 3c has four steps");
    };
    assert!(
        two_phase.phase_bytes(Phase::FindSplit) < scheduler.phase_bytes(Phase::FindSplit),
        "two-phase split should shrink FIND_SPLIT's pulls"
    );
    assert!(
        low_precision.phase_bytes(Phase::BuildHistogram)
            < two_phase.phase_bytes(Phase::BuildHistogram),
        "low precision should shrink BUILD_HISTOGRAM's pushes"
    );
}

/// Table 4: at a fixed worker count, adding parameter servers cuts
/// communication time — each server's link carries `w·h/p` bytes.
#[test]
fn table4_more_servers_cut_communication() {
    let shards = partition_rows(&gender(400, 2_000), 10).unwrap();
    let secs: Vec<f64> = [1, 4, 10]
        .iter()
        .map(|&p| run(System::DimBoost, &shards, &config(), p, COST, None).comm_secs)
        .collect();
    strictly(Less, "comm_secs as servers go 1 -> 4 -> 10", &secs);
}

/// Figure 12's line-up at w = 5: DimBoost moves the fewest bytes and spends
/// the least simulated time communicating; the unoptimised PS moves the
/// most bytes; all-to-one reduce costs more time than AllReduce.
#[test]
fn figure12_communication_ordering_of_the_five_systems() {
    let shards = partition_rows(&gender(300, 2_000), 5).unwrap();
    let results = System::ALL.map(|s| run(s, &shards, &config(), 5, COST, None));
    let [dim, tencent, xgboost, _lightgbm, mllib] = &results;
    for other in &results[1..] {
        assert!(
            dim.comm_bytes < other.comm_bytes && dim.comm_secs < other.comm_secs,
            "DimBoost ({} B, {} s) vs {} ({} B, {} s)",
            dim.comm_bytes,
            dim.comm_secs,
            other.system,
            other.comm_bytes,
            other.comm_secs
        );
    }
    let most = results.iter().max_by_key(|r| r.comm_bytes).unwrap();
    assert_eq!(most.system, tencent.system, "TencentBoost moves the most");
    assert!(
        mllib.comm_secs > xgboost.comm_secs,
        "MLlib-style {} s vs XGBoost-style {} s",
        mllib.comm_secs,
        xgboost.comm_secs
    );
}
