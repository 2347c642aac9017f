//! Multiclass classification with the softmax objective (extension beyond
//! the paper): each boosting round grows one tree per class; prediction is
//! the argmax of the per-class score columns.
//!
//! ```sh
//! cargo run --release --example multiclass
//! ```

use dimboost::core::metrics::{multiclass_error, multiclass_log_loss};
use dimboost::core::{train_with_options, EvalOptions, GbdtConfig, LossKind, TrainOptions};
use dimboost::data::partition::{partition_rows, train_test_split};
use dimboost::data::synthetic::{generate, LabelKind, SparseGenConfig};
use dimboost::ps::PsConfig;
use dimboost::simnet::CostModel;

fn main() {
    let classes = 4u32;
    let cfg_data = SparseGenConfig::new(12_000, 1_500, 25, 21)
        .with_label_kind(LabelKind::Multiclass { classes });
    let dataset = generate(&cfg_data);
    let (train, test) = train_test_split(&dataset, 0.15, 21).expect("split failed");
    println!(
        "dataset: {} rows x {} features, {} classes",
        dataset.num_rows(),
        dataset.num_features(),
        classes
    );

    let shards = partition_rows(&train, 4).expect("partitioning failed");
    let config = GbdtConfig {
        num_trees: 12, // boosting rounds => 12 * 4 trees total
        max_depth: 5,
        learning_rate: 0.4,
        loss: LossKind::Softmax { classes },
        ..GbdtConfig::default()
    };
    let ps = PsConfig {
        num_servers: 4,
        num_partitions: 0,
        cost_model: CostModel::GIGABIT_LAN,
    };
    let options = TrainOptions {
        eval: Some(EvalOptions {
            dataset: &test,
            early_stopping_rounds: Some(4),
        }),
        ..TrainOptions::default()
    };
    let out = train_with_options(&shards, &config, ps, &options).expect("training failed");

    println!(
        "trained {} trees ({} rounds x {} classes), best round {:?}",
        out.model.num_trees(),
        out.model.num_trees() / classes as usize,
        classes,
        out.best_iteration
    );
    for (t, e) in out.loss_curve.iter().zip(&out.eval_curve) {
        println!(
            "  round {:>2}: train mlogloss {:.4}, eval mlogloss {:.4}",
            t.tree / classes as usize,
            t.train_loss,
            e.train_loss
        );
    }

    let preds = out.model.predict_dataset(&test);
    let probas = out.model.predict_proba_dataset(&test);
    println!(
        "\ntest error {:.4} (random guess = {:.4}), test mlogloss {:.4}",
        multiclass_error(&preds, test.labels()),
        1.0 - 1.0 / classes as f64,
        multiclass_log_loss(&probas, test.labels())
    );
    println!(
        "top features by gain: {:?}",
        out.model
            .top_features(5)
            .iter()
            .map(|&(f, _)| f)
            .collect::<Vec<_>>()
    );
}
