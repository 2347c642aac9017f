//! Integration tests for the extensions beyond the paper, exercised through
//! the public facade the way a downstream user would.

use dimboost::core::metrics::{classification_error, multiclass_error};
use dimboost::core::{
    load_model, save_model, train_distributed, train_with_options, EvalOptions, GbdtConfig,
    LossKind, Optimizations, TrainOptions,
};
use dimboost::data::partition::{partition_rows, train_test_split};
use dimboost::data::synthetic::{generate, LabelKind, SparseGenConfig};
use dimboost::ps::PsConfig;
use dimboost::simnet::CostModel;

fn ps(workers: usize) -> PsConfig {
    PsConfig {
        num_servers: workers,
        num_partitions: 0,
        cost_model: CostModel::GIGABIT_LAN,
    }
}

#[test]
fn full_extension_stack_trains_and_roundtrips() {
    // Everything at once: sibling subtraction + pre-binning + learned
    // default directions + row subsampling + early stopping, multiworker,
    // then serialize/deserialize and keep predicting identically.
    let ds = generate(&SparseGenConfig::new(3_000, 400, 20, 99));
    let (train, test) = train_test_split(&ds, 0.2, 99).unwrap();
    let shards = partition_rows(&train, 4).unwrap();
    let config = GbdtConfig {
        num_trees: 12,
        max_depth: 4,
        learning_rate: 0.3,
        instance_sample_ratio: 0.8,
        learn_default_direction: true,
        opts: Optimizations {
            hist_subtraction: true,
            pre_binning: true,
            ..Optimizations::ALL
        },
        ..GbdtConfig::default()
    };
    let options = TrainOptions {
        eval: Some(EvalOptions {
            dataset: &test,
            early_stopping_rounds: Some(4),
        }),
        ..TrainOptions::default()
    };
    let out = train_with_options(&shards, &config, ps(4), &options).unwrap();
    let err = classification_error(&out.model.predict_dataset(&test), test.labels());
    assert!(err < 0.42, "extension stack error {err}");
    assert!(out.model.check_consistency().is_ok());

    let mut buf = Vec::new();
    save_model(&out.model, &mut buf).unwrap();
    let back = load_model(buf.as_slice()).unwrap();
    assert_eq!(back, out.model);
    assert_eq!(
        back.predict_dataset(&test),
        out.model.predict_dataset(&test)
    );
}

#[test]
fn multiclass_distributed_with_warm_start() {
    let cfg_data = SparseGenConfig::new(3_000, 200, 15, 55)
        .with_label_kind(LabelKind::Multiclass { classes: 3 });
    let ds = generate(&cfg_data);
    let (train, test) = train_test_split(&ds, 0.2, 55).unwrap();
    let shards = partition_rows(&train, 3).unwrap();
    let mut config = GbdtConfig {
        num_trees: 4,
        max_depth: 4,
        learning_rate: 0.3,
        loss: LossKind::Softmax { classes: 3 },
        ..GbdtConfig::default()
    };
    config.opts.low_precision = false;

    let first = train_distributed(&shards, &config, ps(3)).unwrap();
    assert_eq!(first.model.num_trees(), 12); // 4 rounds x 3 classes

    // Continue for 4 more rounds and check it helps (or at least not hurts).
    let options = TrainOptions {
        init: Some(&first.model),
        ..TrainOptions::default()
    };
    let cont = train_with_options(&shards, &config, ps(3), &options).unwrap();
    assert_eq!(cont.model.num_trees(), 24);
    let err_first = multiclass_error(&first.model.predict_dataset(&test), test.labels());
    let err_cont = multiclass_error(&cont.model.predict_dataset(&test), test.labels());
    assert!(
        err_cont <= err_first + 0.02,
        "warm start regressed: {err_first} -> {err_cont}"
    );
    assert!(err_cont < 2.0 / 3.0, "beats random 3-class guessing");
}

#[test]
fn feature_importance_is_stable_across_serialization() {
    let ds = generate(&SparseGenConfig::new(1_500, 100, 10, 7));
    let config = GbdtConfig {
        num_trees: 5,
        learning_rate: 0.3,
        ..GbdtConfig::default()
    };
    let shards = partition_rows(&ds, 2).unwrap();
    let out = train_distributed(&shards, &config, ps(2)).unwrap();
    let mut buf = Vec::new();
    save_model(&out.model, &mut buf).unwrap();
    let back = load_model(buf.as_slice()).unwrap();
    assert_eq!(back.feature_importance(), out.model.feature_importance());
    assert_eq!(back.top_features(5), out.model.top_features(5));
}
