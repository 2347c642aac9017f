//! The trained ensemble: `ŷ_i = Σ_t η·f_t(x_i)` (Equation 1).

use dimboost_data::{Dataset, RowView};
use serde::{Deserialize, Serialize};

use crate::config::{GbdtConfig, LossKind};
use crate::loss::loss_for;
use crate::tree::Tree;

/// A trained GBDT model: `T` regression trees combined with shrinkage `η`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GbdtModel {
    trees: Vec<Tree>,
    learning_rate: f32,
    loss: LossKind,
    num_features: usize,
}

impl GbdtModel {
    /// Assembles a model from trained trees.
    pub fn new(trees: Vec<Tree>, learning_rate: f32, loss: LossKind, num_features: usize) -> Self {
        Self {
            trees,
            learning_rate,
            loss,
            num_features,
        }
    }

    /// The trees of the ensemble.
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Shrinkage learning rate η.
    pub fn learning_rate(&self) -> f32 {
        self.learning_rate
    }

    /// The loss the model was trained with.
    pub fn loss(&self) -> LossKind {
        self.loss
    }

    /// Dimensionality the model was trained on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of score columns: 1 for scalar losses, `classes` for softmax.
    /// Trees are stored round-major: tree `i` contributes to class `i % K`.
    pub fn num_classes(&self) -> usize {
        self.loss.trees_per_round()
    }

    /// Per-class raw additive scores for one instance (length
    /// [`Self::num_classes`]).
    pub fn predict_scores(&self, row: &RowView<'_>) -> Vec<f32> {
        let k = self.num_classes();
        let mut scores = vec![0.0f32; k];
        for (i, tree) in self.trees.iter().enumerate() {
            scores[i % k] += self.learning_rate * tree.predict(row);
        }
        scores
    }

    /// Raw additive score for one instance (scalar losses).
    ///
    /// # Panics
    /// Panics for softmax models — use [`Self::predict_scores`].
    pub fn predict_raw(&self, row: &RowView<'_>) -> f32 {
        assert_eq!(
            self.num_classes(),
            1,
            "multiclass model: use predict_scores"
        );
        // Fold from +0.0 like `predict_scores`, the trainer and the compiled
        // engine: `Iterator::sum::<f32>()` starts from -0.0, which survives
        // a row routed only to -0.0 leaves.
        self.trees
            .iter()
            .fold(0.0f32, |acc, t| acc + self.learning_rate * t.predict(row))
    }

    /// Per-class probabilities: sigmoid for logistic (`[1−p, p]` collapsed
    /// to `[p]`… returned as a single-element vec), softmax for multiclass,
    /// the raw value for square loss.
    pub fn predict_proba(&self, row: &RowView<'_>) -> Vec<f32> {
        match self.loss {
            LossKind::Softmax { .. } => {
                let mut scores = self.predict_scores(row);
                crate::loss::softmax_inplace(&mut scores);
                scores
            }
            kind => vec![loss_for(kind).transform(self.predict_raw(row))],
        }
    }

    /// Predicted class index: argmax class for softmax, `p ≥ 0.5` for
    /// logistic. Meaningless for square loss (returns 0).
    pub fn predict_class(&self, row: &RowView<'_>) -> usize {
        match self.loss {
            LossKind::Softmax { .. } => {
                let scores = self.predict_scores(row);
                scores
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(c, _)| c)
                    .unwrap_or(0)
            }
            LossKind::Logistic => usize::from(self.predict(row) >= 0.5),
            LossKind::Square => 0,
        }
    }

    /// Transformed prediction: probability of class 1 for logistic, value
    /// for square, predicted class index (as `f32`) for softmax.
    pub fn predict(&self, row: &RowView<'_>) -> f32 {
        match self.loss {
            LossKind::Softmax { .. } => self.predict_class(row) as f32,
            kind => loss_for(kind).transform(self.predict_raw(row)),
        }
    }

    /// Raw scores for every row of a dataset (scalar losses only).
    pub fn predict_raw_dataset(&self, dataset: &Dataset) -> Vec<f32> {
        (0..dataset.num_rows())
            .map(|i| self.predict_raw(&dataset.row(i)))
            .collect()
    }

    /// [`Self::predict_scores`] for every row, flattened (`num_classes` per
    /// row). Bit-equal to the trainer's incremental score updates: both sum
    /// the same trees in the same per-class order.
    pub(crate) fn predict_scores_dataset(&self, dataset: &Dataset) -> Vec<f32> {
        let mut scores = Vec::with_capacity(dataset.num_rows() * self.num_classes());
        for (row, _) in dataset.iter_rows() {
            scores.extend(self.predict_scores(&row));
        }
        scores
    }

    /// Transformed predictions for every row (see [`Self::predict`]).
    pub fn predict_dataset(&self, dataset: &Dataset) -> Vec<f32> {
        (0..dataset.num_rows())
            .map(|i| self.predict(&dataset.row(i)))
            .collect()
    }

    /// Per-class probabilities for every row.
    pub fn predict_proba_dataset(&self, dataset: &Dataset) -> Vec<Vec<f32>> {
        (0..dataset.num_rows())
            .map(|i| self.predict_proba(&dataset.row(i)))
            .collect()
    }

    /// Leaf indices reached by an instance, one per tree — the "GBDT as
    /// feature transformer" embedding (each tree one-hot encodes its leaf).
    pub fn predict_leaf_indices(&self, row: &RowView<'_>) -> Vec<u32> {
        self.trees.iter().map(|t| t.route(row, 0)).collect()
    }

    /// Gain-based feature importance: total objective gain contributed by
    /// splits on each feature, over all trees (length
    /// [`Self::num_features`]).
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut importance = vec![0.0f64; self.num_features];
        for tree in &self.trees {
            for node in tree.nodes() {
                if let crate::tree::Node::Internal { feature, gain, .. } = *node {
                    if (feature as usize) < importance.len() {
                        importance[feature as usize] += gain as f64;
                    }
                }
            }
        }
        importance
    }

    /// Split-count feature importance: how many splits test each feature.
    pub fn feature_split_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_features];
        for tree in &self.trees {
            for node in tree.nodes() {
                if let crate::tree::Node::Internal { feature, .. } = *node {
                    if (feature as usize) < counts.len() {
                        counts[feature as usize] += 1;
                    }
                }
            }
        }
        counts
    }

    /// The `top_n` most important features by gain, descending, as
    /// `(feature, total gain)` pairs (zero-gain features omitted).
    pub fn top_features(&self, top_n: usize) -> Vec<(u32, f64)> {
        let mut pairs: Vec<(u32, f64)> = self
            .feature_importance()
            .into_iter()
            .enumerate()
            .filter(|&(_, g)| g > 0.0)
            .map(|(f, g)| (f as u32, g))
            .collect();
        pairs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.truncate(top_n);
        pairs
    }

    /// Whether boosting can continue on top of this model under `config`
    /// over data with `num_features` columns: the combined ensemble has one
    /// loss, one shrinkage factor and one dimensionality.
    pub(crate) fn check_warm_start(
        &self,
        config: &GbdtConfig,
        num_features: usize,
    ) -> Result<(), String> {
        if self.loss != config.loss {
            return Err(format!(
                "warm start loss mismatch: model {:?} vs config {:?}",
                self.loss, config.loss
            ));
        }
        if self.learning_rate != config.learning_rate {
            return Err(format!(
                "warm start learning-rate mismatch: model {} vs config {}",
                self.learning_rate, config.learning_rate
            ));
        }
        if self.num_features != num_features {
            return Err(format!(
                "warm start dimensionality mismatch: model {} vs data {}",
                self.num_features, num_features
            ));
        }
        self.check_consistency()
    }

    /// Structural sanity check over all trees, including the round-major
    /// grouping invariant for multiclass models.
    pub fn check_consistency(&self) -> Result<(), String> {
        let k = self.num_classes();
        if k > 1 && !self.trees.len().is_multiple_of(k) {
            return Err(format!(
                "{} trees do not divide into {k}-class rounds",
                self.trees.len()
            ));
        }
        for (t, tree) in self.trees.iter().enumerate() {
            tree.check_consistency()
                .map_err(|e| format!("tree {t}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Node;
    use dimboost_data::SparseInstance;

    fn toy_model() -> GbdtModel {
        let mut t1 = Tree::new(1);
        t1.set_internal(0, 0, 0.5);
        t1.set_leaf(1, -1.0);
        t1.set_leaf(2, 1.0);
        let mut t2 = Tree::new(1);
        t2.set_leaf(0, 0.5);
        GbdtModel::new(vec![t1, t2], 0.1, LossKind::Logistic, 2)
    }

    fn toy_data() -> Dataset {
        let insts = vec![
            SparseInstance::new(vec![0], vec![0.1]).unwrap(),
            SparseInstance::new(vec![0], vec![0.9]).unwrap(),
        ];
        Dataset::from_instances(&insts, vec![0.0, 1.0], 2).unwrap()
    }

    #[test]
    fn raw_prediction_is_shrunk_sum() {
        let m = toy_model();
        let ds = toy_data();
        // Row 0: tree1 -> -1.0, tree2 -> 0.5 => 0.1*(-0.5) = -0.05
        assert!((m.predict_raw(&ds.row(0)) + 0.05).abs() < 1e-6);
        assert!((m.predict_raw(&ds.row(1)) - 0.15).abs() < 1e-6);
    }

    #[test]
    fn logistic_transform_applied() {
        let m = toy_model();
        let ds = toy_data();
        let probs = m.predict_dataset(&ds);
        assert!(probs[0] < 0.5 && probs[1] > 0.5);
        let raw = m.predict_raw_dataset(&ds);
        assert!(raw[0] < 0.0 && raw[1] > 0.0);
    }

    #[test]
    fn square_loss_identity_transform() {
        let mut t = Tree::new(1);
        t.set_leaf(0, 2.0);
        let m = GbdtModel::new(vec![t], 0.5, LossKind::Square, 2);
        let ds = toy_data();
        assert_eq!(m.predict(&ds.row(0)), 1.0);
    }

    #[test]
    fn leaf_indices_are_valid_leaves() {
        let m = toy_model();
        let ds = toy_data();
        let leaves = m.predict_leaf_indices(&ds.row(0));
        assert_eq!(leaves.len(), 2);
        // Tree 0: value 0.1 <= 0.5 -> leaf 1; tree 1 is a root leaf.
        assert_eq!(leaves, vec![1, 0]);
        for (t, &leaf) in leaves.iter().enumerate() {
            assert!(matches!(m.trees()[t].node(leaf), Node::Leaf { .. }));
        }
    }

    #[test]
    fn feature_importance_sums_gains() {
        let mut t1 = Tree::new(2);
        t1.set_internal_with_gain(0, 0, 0.5, 3.0);
        t1.set_internal_with_gain(1, 2, 0.1, 1.5);
        t1.set_leaf(3, 0.0);
        t1.set_leaf(4, 0.0);
        t1.set_leaf(2, 0.0);
        let mut t2 = Tree::new(1);
        t2.set_internal_with_gain(0, 0, 0.7, 2.0);
        t2.set_leaf(1, 0.0);
        t2.set_leaf(2, 0.0);
        let m = GbdtModel::new(vec![t1, t2], 0.1, LossKind::Logistic, 4);
        let imp = m.feature_importance();
        assert_eq!(imp, vec![5.0, 0.0, 1.5, 0.0]);
        assert_eq!(m.feature_split_counts(), vec![2, 0, 1, 0]);
        assert_eq!(m.top_features(10), vec![(0, 5.0), (2, 1.5)]);
        assert_eq!(m.top_features(1), vec![(0, 5.0)]);
    }

    #[test]
    fn trained_model_importance_finds_informative_features() {
        use crate::trainer::train_single_machine;
        use crate::GbdtConfig;
        use dimboost_data::synthetic::{generate, SparseGenConfig};
        let mut cfg_data = SparseGenConfig::new(2_000, 100, 20, 3);
        cfg_data.informative = 5;
        cfg_data.informative_bias = 0.8;
        let ds = generate(&cfg_data);
        let cfg = GbdtConfig {
            num_trees: 5,
            learning_rate: 0.3,
            ..GbdtConfig::default()
        };
        let model = train_single_machine(&ds, &cfg).unwrap();
        let top = model.top_features(5);
        assert!(!top.is_empty());
        // Most of the gain should concentrate on few features.
        let total: f64 = model.feature_importance().iter().sum();
        let top_gain: f64 = top.iter().map(|&(_, g)| g).sum();
        assert!(top_gain > 0.5 * total, "top-5 hold {top_gain} of {total}");
    }

    #[test]
    fn tree_dump_renders_structure() {
        let mut t = Tree::new(1);
        t.set_internal_with_gain(0, 7, 0.5, 1.25);
        t.set_leaf(1, -0.5);
        t.set_leaf(2, 0.5);
        let dump = t.dump();
        assert!(dump.contains("f7 <= 0.5"), "{dump}");
        assert!(dump.contains("gain=1.2500"), "{dump}");
        assert!(dump.contains("leaf weight=-0.5000"), "{dump}");
        assert_eq!(dump.lines().count(), 3);
    }

    #[test]
    fn consistency_propagates_tree_errors() {
        let bad = Tree::new(1); // unused root
        let m = GbdtModel::new(vec![bad], 0.1, LossKind::Logistic, 2);
        assert!(m.check_consistency().unwrap_err().contains("tree 0"));
        assert!(toy_model().check_consistency().is_ok());
    }
}
