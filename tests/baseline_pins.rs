//! Cross-commit pins for the baseline systems: FNV-1a-64 hashes of what
//! `train_baseline` (MLlib / XGBoost / LightGBM style) and
//! `train_lightgbm_feature_parallel` produce deterministically — model
//! bytes, the communication ledger, and the loss curve — the same scheme as
//! `tests/model_pins.rs` uses for the DimBoost trainer.
//!
//! The table was recorded on commit 7f34204, the parent of the change that
//! moved the baselines onto the growth functions they now share with the
//! trainer: this file was written first and run against the untouched
//! hand-written loops in `driver.rs` / `feature_parallel.rs`, the hashes
//! pasted, and only then the loops replaced. A change that moves one f32
//! addition, one `CommStats::record` or one RNG draw in the baselines fails
//! here even if it is perfectly reproducible run to run.
//!
//! Worker counts: 3 exercises the collectives' non-power-of-two paths, 4 the
//! plain ones; feature-parallel runs at 1 (no exchange at all) and 4.
//! `elapsed_secs` is wall time and is not hashed.
//!
//! Re-recording (only when a PR *intends* to change what is computed): run
//! `cargo test --test baseline_pins -- --nocapture`, and paste the printed
//! table over [`PINS`].

use dimboost::baselines::{
    train_baseline, train_lightgbm_feature_parallel, BaselineKind, BaselineOutput,
};
use dimboost::core::model_io::model_to_bytes;
use dimboost::core::{GbdtConfig, LossKind};
use dimboost::data::partition::partition_rows;
use dimboost::data::synthetic::{generate, LabelKind, SparseGenConfig};
use dimboost::data::Dataset;
use dimboost::simnet::CostModel;

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

/// `[model, comm, curve]`.
type Pin = [u64; 3];

fn pin_of(out: &BaselineOutput) -> Pin {
    let mut model = Fnv::new();
    model.bytes(&model_to_bytes(&out.model));
    let mut comm = Fnv::new();
    let c = &out.breakdown.comm;
    comm.u64(c.bytes);
    comm.u64(c.packages);
    comm.u64(c.sim_time.seconds().to_bits());
    let mut curve = Fnv::new();
    for p in &out.loss_curve {
        curve.u64(p.tree as u64);
        curve.u64(p.train_loss.to_bits());
    }
    curve.u64(out.loss_curve.len() as u64);
    [model.0, comm.0, curve.0]
}

fn data(label: LabelKind) -> Dataset {
    let mut cfg = SparseGenConfig::new(600, 60, 8, 5);
    cfg.label_kind = label;
    generate(&cfg)
}

fn config() -> GbdtConfig {
    GbdtConfig {
        num_trees: 3,
        max_depth: 4,
        num_candidates: 8,
        learning_rate: 0.3,
        seed: 13,
        ..GbdtConfig::default()
    }
}

fn collective(kind: BaselineKind, ds: &Dataset, workers: usize, config: &GbdtConfig) -> Pin {
    let shards = partition_rows(ds, workers).unwrap();
    pin_of(&train_baseline(kind, &shards, config, CostModel::GIGABIT_LAN).unwrap())
}

fn feature_parallel(ds: &Dataset, workers: usize, config: &GbdtConfig) -> Pin {
    pin_of(&train_lightgbm_feature_parallel(ds, workers, config, CostModel::GIGABIT_LAN).unwrap())
}

fn grid() -> Vec<(String, Pin)> {
    let binary = data(LabelKind::Binary);
    let base = config();
    let mut out = Vec::new();
    for kind in [
        BaselineKind::Mllib,
        BaselineKind::Xgboost,
        BaselineKind::Lightgbm,
    ] {
        for workers in [3, 4] {
            out.push((
                format!("{}/w{workers}", kind.name()),
                collective(kind, &binary, workers, &base),
            ));
        }
    }
    for workers in [1, 4] {
        out.push((
            format!("feature-parallel/w{workers}"),
            feature_parallel(&binary, workers, &base),
        ));
    }
    // Side paths of the shared loop: per-tree feature sampling (a
    // feature-parallel worker then owns the sampled part of its slice,
    // possibly nothing) and the other scalar loss.
    let sampled = GbdtConfig {
        feature_sample_ratio: 0.4,
        ..config()
    };
    out.push((
        "XGBoost/w3/feature-sample".into(),
        collective(BaselineKind::Xgboost, &binary, 3, &sampled),
    ));
    out.push((
        "feature-parallel/w4/feature-sample".into(),
        feature_parallel(&binary, 4, &sampled),
    ));
    let square = GbdtConfig {
        loss: LossKind::Square,
        ..config()
    };
    let regression = data(LabelKind::Regression);
    out.push((
        "LightGBM/w3/square".into(),
        collective(BaselineKind::Lightgbm, &regression, 3, &square),
    ));
    out.push((
        "feature-parallel/w4/square".into(),
        feature_parallel(&regression, 4, &square),
    ));
    out
}

/// Recorded on commit 7f34204 (the parent of the shared-growth-loop change).
#[rustfmt::skip]
const PINS: &[(&str, Pin)] = &[
    ("MLlib/w3", [0xa2b4d31c5571feff, 0x6e79b328a725b2c4, 0x5f30d83d1380756e]),
    ("MLlib/w4", [0xe80d05081a6140d3, 0x48d2cdae98ccffd8, 0xe9a05a1d72b81f8e]),
    ("XGBoost/w3", [0x346d1faa7f21c7be, 0xf2864987fcee2351, 0x5f30d83d1380756e]),
    ("XGBoost/w4", [0x000bb6011871cca2, 0x313f5b798a34aaa7, 0x790dc60be190b5a2]),
    ("LightGBM/w3", [0x5b0ca45517a07065, 0x412032234f309411, 0xd5f5d6746929bf5e]),
    ("LightGBM/w4", [0x1a6037fd3e555def, 0x2e3c5c153454eed3, 0x5cd6f400e8baead9]),
    ("feature-parallel/w1", [0xc8ddf302b29996ed, 0x81d23fd7003c2305, 0x3069ed2973581bc0]),
    ("feature-parallel/w4", [0x71e2e6773f49e60a, 0xe709522cf534e417, 0x421495c6538edab4]),
    ("XGBoost/w3/feature-sample", [0x75bb5f6f5d2b4baf, 0xa020fe299c80ff97, 0x13f64497d0c3da4f]),
    ("feature-parallel/w4/feature-sample", [0x4273b4139a249dc5, 0x49a20f8da366b3bb, 0x0aa0b1ca3e0f02d2]),
    ("LightGBM/w3/square", [0x406b6669bbc5d52b, 0xaf32610a9f477c71, 0xb93b82e70faddc09]),
    ("feature-parallel/w4/square", [0x07442d58887d7018, 0x1ca943a3987c201e, 0x19a45a4765d77b4d]),
];

#[test]
fn baseline_outputs_match_the_hashes_recorded_on_the_parent_commit() {
    let actual = grid();
    let table: String = actual
        .iter()
        .map(|(name, p)| {
            format!(
                "    (\"{name}\", [{:#018x}, {:#018x}, {:#018x}]),\n",
                p[0], p[1], p[2]
            )
        })
        .collect();
    let columns = ["model", "comm", "curve"];
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
