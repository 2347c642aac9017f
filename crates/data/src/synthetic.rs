//! Seeded synthetic dataset generators.
//!
//! The paper evaluates on three high-dimensional datasets (Table 2) plus one
//! low-dimensional dataset (Appendix A.3). Two of the four (*Synthesis*,
//! *Gender*) are unavailable — one synthetic to the authors, one proprietary
//! to Tencent — so this module generates shape-compatible substitutes:
//! same row/feature/sparsity profile, with a sparse ground-truth logistic
//! signal whose informative features are spread uniformly over the whole
//! feature range. Spreading the signal matters: it is what makes prefix
//! feature subsets (Gender-10K style, Section 7.3.4) lose accuracy, which
//! Table 5 measures.
//!
//! Presets are scaled down from the paper's cluster-sized datasets to
//! laptop-sized defaults; every preset is a plain [`SparseGenConfig`] whose
//! fields can be overridden before calling [`generate`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Dataset, DatasetBuilder};

/// What kind of label the generator attaches to each row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelKind {
    /// Binary {0, 1} labels drawn from a logistic model over the ground-truth
    /// logit (the paper's gender-prediction setting).
    Binary,
    /// Continuous labels equal to the ground-truth logit plus Gaussian noise
    /// (for exercising the squared loss).
    Regression,
    /// Class-index labels in `0..classes`: each class gets its own
    /// ground-truth weight vector and the label is the argmax logit (plus
    /// label noise). For exercising the softmax objective.
    Multiclass {
        /// Number of classes (≥ 2).
        classes: u32,
    },
}

/// Configuration for the sparse synthetic generator.
#[derive(Debug, Clone)]
pub struct SparseGenConfig {
    /// Number of rows (instances).
    pub rows: usize,
    /// Number of features (dimensionality `M`).
    pub features: usize,
    /// Average nonzeros per row (the paper's `z`).
    pub avg_nnz: usize,
    /// Number of informative (nonzero-weight) features in the ground truth,
    /// spread uniformly over the feature range.
    pub informative: usize,
    /// Fraction of each row's nonzeros drawn from the informative set rather
    /// than uniformly; models the fact that predictive features are common.
    pub informative_bias: f64,
    /// Probability of flipping a binary label (label noise).
    pub label_noise: f64,
    /// Label model.
    pub label_kind: LabelKind,
    /// RNG seed; identical configs produce identical datasets.
    pub seed: u64,
}

impl SparseGenConfig {
    /// A reasonable default template used by the presets.
    pub fn new(rows: usize, features: usize, avg_nnz: usize, seed: u64) -> Self {
        Self {
            rows,
            features,
            avg_nnz,
            informative: (features / 100).clamp(10, 1000),
            informative_bias: 0.3,
            label_noise: 0.05,
            label_kind: LabelKind::Binary,
            seed,
        }
    }

    /// Overrides the row count (for scaling experiments up or down).
    pub fn with_rows(mut self, rows: usize) -> Self {
        self.rows = rows;
        self
    }

    /// Overrides the feature count.
    pub fn with_features(mut self, features: usize) -> Self {
        self.features = features;
        self
    }

    /// Switches the label model.
    pub fn with_label_kind(mut self, kind: LabelKind) -> Self {
        self.label_kind = kind;
        self
    }
}

/// Shape-compatible substitute for RCV1 (paper: 0.7M rows × 47K features,
/// 76 nnz/row), scaled to laptop size.
pub fn rcv1_like(seed: u64) -> SparseGenConfig {
    SparseGenConfig::new(20_000, 4_700, 76, seed)
}

/// Shape-compatible substitute for the paper's *Synthesis* dataset
/// (50M × 100K, 100 nnz/row), scaled down.
pub fn synthesis_like(seed: u64) -> SparseGenConfig {
    SparseGenConfig::new(40_000, 10_000, 100, seed)
}

/// Shape-compatible substitute for Tencent's *Gender* dataset
/// (122M × 330K, 107 nnz/row), scaled down. Keep the feature count the
/// largest of the presets — it is the high-dimensional stress case.
pub fn gender_like(seed: u64) -> SparseGenConfig {
    SparseGenConfig::new(40_000, 33_000, 107, seed)
}

/// Shape-compatible substitute for the low-dimensional *Synthesis-2* dataset
/// of Appendix A.3 (100M × 1000), scaled down.
pub fn low_dim_like(seed: u64) -> SparseGenConfig {
    SparseGenConfig::new(60_000, 1_000, 100, seed)
}

/// Standard normal sample via Box–Muller (keeps us off non-allowlisted
/// distribution crates).
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Generates a dataset from the configuration. Deterministic in the config.
pub fn generate(config: &SparseGenConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let m = config.features;
    let informative = config.informative.min(m).max(1);

    // Ground-truth weights: informative feature ids spread evenly over the
    // whole range (stride placement with jitter), weights ~ N(0, 1).
    let stride = m as f64 / informative as f64;
    let mut truth: Vec<(u32, f64)> = Vec::with_capacity(informative);
    for j in 0..informative {
        let base = (j as f64 * stride) as usize;
        let jitter = if stride >= 2.0 {
            rng.random_range(0..stride as usize)
        } else {
            0
        };
        let f = (base + jitter).min(m - 1) as u32;
        truth.push((f, normal(&mut rng)));
    }
    truth.sort_unstable_by_key(|&(f, _)| f);
    truth.dedup_by_key(|&mut (f, _)| f);
    let informative_ids: Vec<u32> = truth.iter().map(|&(f, _)| f).collect();
    // Dense lookup for weights (informative is small relative to m, but a
    // dense array keeps the per-row loop branch-free). Multiclass labels get
    // one weight vector per class over the same informative ids.
    let n_logits = match config.label_kind {
        LabelKind::Multiclass { classes } => (classes as usize).max(2),
        _ => 1,
    };
    let mut weights = vec![vec![0.0f64; m]; n_logits];
    for &(f, w) in &truth {
        weights[0][f as usize] = w;
    }
    for class_weights in weights.iter_mut().skip(1) {
        for &f in &informative_ids {
            class_weights[f as usize] = normal(&mut rng);
        }
    }

    // First pass: generate rows and raw logits (one per class).
    let mut rows: Vec<(Vec<u32>, Vec<f32>)> = Vec::with_capacity(config.rows);
    let mut logits: Vec<Vec<f64>> = Vec::with_capacity(config.rows);
    let mut scratch: Vec<u32> = Vec::new();
    for _ in 0..config.rows {
        // Row sparsity ~ N(avg, avg/4), clamped to [1, m].
        let nnz_f = config.avg_nnz as f64 + normal(&mut rng) * (config.avg_nnz as f64 / 4.0);
        let nnz = (nnz_f.round().max(1.0) as usize).min(m);
        let n_inf = ((nnz as f64 * config.informative_bias) as usize).min(informative_ids.len());

        scratch.clear();
        for _ in 0..n_inf {
            scratch.push(informative_ids[rng.random_range(0..informative_ids.len())]);
        }
        for _ in n_inf..nnz {
            scratch.push(rng.random_range(0..m as u32));
        }
        scratch.sort_unstable();
        scratch.dedup();

        let mut indices = Vec::with_capacity(scratch.len());
        let mut values = Vec::with_capacity(scratch.len());
        let mut row_logits = vec![0.0f64; n_logits];
        for &f in scratch.iter() {
            // Mostly-positive feature values with a negative tail, so both
            // sides of the zero bucket are exercised.
            let v: f32 = if rng.random::<f64>() < 0.1 {
                -(rng.random::<f32>() * 1.5 + 0.05)
            } else {
                rng.random::<f32>() * 1.95 + 0.05
            };
            for (l, class_weights) in row_logits.iter_mut().zip(&weights) {
                *l += class_weights[f as usize] * v as f64;
            }
            indices.push(f);
            values.push(v);
        }
        logits.push(row_logits);
        rows.push((indices, values));
    }

    // Standardize each logit column so the labels carry a strong, learnable
    // signal regardless of the sparsity configuration.
    let n = logits.len().max(1) as f64;
    let mut means = vec![0.0f64; n_logits];
    let mut stds = vec![0.0f64; n_logits];
    for c in 0..n_logits {
        let mean = logits.iter().map(|l| l[c]).sum::<f64>() / n;
        let var = logits
            .iter()
            .map(|l| (l[c] - mean) * (l[c] - mean))
            .sum::<f64>()
            / n;
        means[c] = mean;
        stds[c] = var.sqrt().max(1e-12);
    }

    let mut builder =
        DatasetBuilder::with_capacity(m, rows.len(), rows.iter().map(|(i, _)| i.len()).sum());
    for ((indices, values), row_logits) in rows.into_iter().zip(logits) {
        let z = |c: usize| 2.0 * (row_logits[c] - means[c]) / stds[c];
        let label = match config.label_kind {
            LabelKind::Binary => {
                let p = sigmoid(z(0));
                let mut y = if rng.random::<f64>() < p { 1.0 } else { 0.0 };
                if rng.random::<f64>() < config.label_noise {
                    y = 1.0 - y;
                }
                y
            }
            LabelKind::Regression => (z(0) + 0.1 * normal(&mut rng)) as f32,
            LabelKind::Multiclass { classes } => {
                let k = (classes as usize).max(2);
                let mut best = 0usize;
                for c in 1..k {
                    if z(c) > z(best) {
                        best = c;
                    }
                }
                if rng.random::<f64>() < config.label_noise {
                    best = rng.random_range(0..k);
                }
                best as f32
            }
        };
        builder
            .push_raw(&indices, &values, label)
            .expect("generated rows are sorted and in range");
    }
    builder
        .finish()
        .expect("generator produces consistent arrays")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = SparseGenConfig::new(200, 500, 20, 7);
        assert_eq!(generate(&cfg), generate(&cfg));
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&SparseGenConfig::new(200, 500, 20, 1));
        let b = generate(&SparseGenConfig::new(200, 500, 20, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn shape_matches_config() {
        let cfg = SparseGenConfig::new(500, 1000, 30, 3);
        let ds = generate(&cfg);
        assert_eq!(ds.num_rows(), 500);
        assert_eq!(ds.num_features(), 1000);
        // Average sparsity within 25% of target (dedup can shave a little).
        let z = ds.avg_nnz();
        assert!(z > 0.75 * 30.0 && z < 1.25 * 30.0, "avg nnz {z}");
    }

    #[test]
    fn binary_labels_are_binary_and_balanced() {
        let ds = generate(&SparseGenConfig::new(2000, 500, 20, 11));
        let ones = ds.labels().iter().filter(|&&y| y == 1.0).count();
        assert!(ds.labels().iter().all(|&y| y == 0.0 || y == 1.0));
        // The standardized logit is symmetric, so classes are roughly even.
        assert!(ones > 600 && ones < 1400, "ones = {ones}");
    }

    #[test]
    fn regression_labels_are_continuous() {
        let cfg = SparseGenConfig::new(500, 200, 10, 5).with_label_kind(LabelKind::Regression);
        let ds = generate(&cfg);
        let distinct: std::collections::HashSet<u32> =
            ds.labels().iter().map(|y| y.to_bits()).collect();
        assert!(distinct.len() > 400);
    }

    #[test]
    fn multiclass_labels_cover_all_classes() {
        let cfg = SparseGenConfig::new(3_000, 300, 15, 17)
            .with_label_kind(LabelKind::Multiclass { classes: 4 });
        let ds = generate(&cfg);
        let mut counts = [0usize; 4];
        for &y in ds.labels() {
            assert!(
                y >= 0.0 && y.fract() == 0.0 && (y as usize) < 4,
                "bad label {y}"
            );
            counts[y as usize] += 1;
        }
        // Argmax over standardized symmetric logits -> roughly balanced.
        for (c, &count) in counts.iter().enumerate() {
            assert!(count > 300, "class {c} underrepresented: {counts:?}");
        }
    }

    #[test]
    fn multiclass_is_deterministic() {
        let cfg = SparseGenConfig::new(200, 100, 10, 5)
            .with_label_kind(LabelKind::Multiclass { classes: 3 });
        assert_eq!(generate(&cfg), generate(&cfg));
    }

    #[test]
    fn values_include_negatives() {
        let ds = generate(&SparseGenConfig::new(1000, 300, 20, 9));
        let negs = (0..ds.num_rows())
            .flat_map(|i| ds.row(i).values().to_vec())
            .filter(|&v| v < 0.0)
            .count();
        assert!(negs > 0, "expected some negative feature values");
    }

    #[test]
    fn presets_have_paper_shapes() {
        let g = gender_like(0);
        assert_eq!(g.avg_nnz, 107);
        assert!(g.features > synthesis_like(0).features);
        assert_eq!(low_dim_like(0).features, 1_000);
        assert_eq!(rcv1_like(0).avg_nnz, 76);
    }

    #[test]
    fn informative_signal_is_learnable_by_single_feature() {
        // The most-informative feature should correlate with the label:
        // a sanity check that the generator actually embeds signal.
        let mut cfg = SparseGenConfig::new(4000, 100, 30, 13);
        cfg.informative = 5;
        cfg.informative_bias = 0.8;
        cfg.label_noise = 0.0;
        let ds = generate(&cfg);
        // Find the feature with max |corr| against labels.
        let mut best = 0.0f64;
        let stats = ds.column_stats();
        for (f, stat) in stats.iter().enumerate() {
            if stat.nnz < 100 {
                continue;
            }
            let mut sum_xy = 0.0;
            let mut sum_x = 0.0;
            let mut sum_x2 = 0.0;
            let mut sum_y = 0.0;
            let mut sum_y2 = 0.0;
            let n = ds.num_rows() as f64;
            for (row, y) in ds.iter_rows() {
                let x = row.get(f as u32) as f64;
                let y = y as f64;
                sum_xy += x * y;
                sum_x += x;
                sum_x2 += x * x;
                sum_y += y;
                sum_y2 += y * y;
            }
            let cov = sum_xy / n - (sum_x / n) * (sum_y / n);
            let vx = sum_x2 / n - (sum_x / n) * (sum_x / n);
            let vy = sum_y2 / n - (sum_y / n) * (sum_y / n);
            if vx > 0.0 && vy > 0.0 {
                best = best.max((cov / (vx.sqrt() * vy.sqrt())).abs());
            }
        }
        assert!(
            best > 0.15,
            "max |corr| {best} too weak — no embedded signal"
        );
    }
}
