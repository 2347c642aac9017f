//! Loss functions and their first/second-order gradients (Section 2.2).
//!
//! GBDT is trained additively: each tree fits the first- and second-order
//! gradients (`g_i`, `h_i`) of the loss at the current prediction, following
//! the LogitBoost second-order expansion the paper adopts from XGBoost.

use crate::config::LossKind;

/// A first-/second-order gradient pair for one instance.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GradPair {
    /// First-order gradient `g = ∂l/∂ŷ`.
    pub g: f32,
    /// Second-order gradient `h = ∂²l/∂ŷ²`.
    pub h: f32,
}

/// A boosting loss: maps a raw score and a label to a loss value and its
/// gradients, and transforms raw scores into user-facing predictions.
pub trait Loss: Send + Sync {
    /// Loss value for one instance.
    fn loss(&self, score: f32, label: f32) -> f64;
    /// First- and second-order gradients at the current score.
    fn grad(&self, score: f32, label: f32) -> GradPair;
    /// Transforms a raw additive score into the output space (probability
    /// for classification, identity for regression).
    fn transform(&self, score: f32) -> f32;
    /// Display name.
    fn name(&self) -> &'static str;
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Logistic loss `l = −y·log(p) − (1−y)·log(1−p)` with `p = σ(ŷ)`, for
/// labels in {0, 1}. Gradients: `g = p − y`, `h = p·(1 − p)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogisticLoss;

impl Loss for LogisticLoss {
    fn loss(&self, score: f32, label: f32) -> f64 {
        // Numerically stable: log(1 + e^{-s}) + (1-y)·s.
        let s = score as f64;
        let y = label as f64;
        let log1p_exp = if s > 0.0 {
            (-s).exp().ln_1p()
        } else {
            s.exp().ln_1p() - s
        };
        log1p_exp + (1.0 - y) * s
    }

    fn grad(&self, score: f32, label: f32) -> GradPair {
        let p = sigmoid(score);
        GradPair {
            g: p - label,
            h: (p * (1.0 - p)).max(1e-16),
        }
    }

    fn transform(&self, score: f32) -> f32 {
        sigmoid(score)
    }

    fn name(&self) -> &'static str {
        "logistic"
    }
}

/// Squared loss `l = ½·(ŷ − y)²`. Gradients: `g = ŷ − y`, `h = 1`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SquareLoss;

impl Loss for SquareLoss {
    fn loss(&self, score: f32, label: f32) -> f64 {
        // Subtract in f64: the finite-difference tests probe tiny
        // perturbations that f32 subtraction would round away.
        let d = score as f64 - label as f64;
        0.5 * d * d
    }

    fn grad(&self, score: f32, label: f32) -> GradPair {
        GradPair {
            g: score - label,
            h: 1.0,
        }
    }

    fn transform(&self, score: f32) -> f32 {
        score
    }

    fn name(&self) -> &'static str {
        "square"
    }
}

/// Resolves a *scalar* [`LossKind`] to its implementation.
///
/// # Panics
/// Panics on [`LossKind::Softmax`], whose per-class gradients do not fit
/// the scalar interface — the trainer handles it through
/// [`softmax_grads`] / [`softmax_loss`] instead.
pub fn loss_for(kind: LossKind) -> &'static dyn Loss {
    match kind {
        LossKind::Logistic => &LogisticLoss,
        LossKind::Square => &SquareLoss,
        LossKind::Softmax { .. } => {
            panic!("softmax is vector-valued; use softmax_grads/softmax_loss")
        }
    }
}

// ---- Multiclass softmax (extension beyond the paper) -----------------------

/// In-place softmax over a score vector (numerically stable).
pub fn softmax_inplace(scores: &mut [f32]) {
    let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
        sum += *s;
    }
    let inv = 1.0 / sum.max(f32::MIN_POSITIVE);
    for s in scores.iter_mut() {
        *s *= inv;
    }
}

/// Per-class gradients of the softmax cross-entropy at the given raw
/// scores: `g_c = p_c − 1[y = c]`, `h_c = p_c·(1 − p_c)` (the diagonal of
/// the softmax Hessian, floored away from zero). `out` must hold one pair
/// per class.
pub fn softmax_grads(scores: &[f32], label: usize, out: &mut [GradPair]) {
    debug_assert_eq!(scores.len(), out.len());
    debug_assert!(
        label < scores.len(),
        "label {label} out of {} classes",
        scores.len()
    );
    let mut probs = scores.to_vec();
    softmax_inplace(&mut probs);
    for (c, (o, &p)) in out.iter_mut().zip(&probs).enumerate() {
        let y = f32::from(c == label);
        *o = GradPair {
            g: p - y,
            h: (p * (1.0 - p)).max(1e-16),
        };
    }
}

/// Summed loss of per-instance raw scores `preds` (`k` per row, class-major)
/// against `labels`, in row order. `scalar_loss: None` is softmax.
pub(crate) fn summed_loss(
    scalar_loss: Option<&dyn Loss>,
    k: usize,
    preds: &[f32],
    labels: &[f32],
) -> f64 {
    let per_row = labels.iter().enumerate().map(|(i, &y)| match scalar_loss {
        Some(loss) => loss.loss(preds[i], y),
        None => softmax_loss(&preds[i * k..(i + 1) * k], y as usize),
    });
    per_row.sum::<f64>()
}

/// Softmax cross-entropy loss `−log p_y` at the given raw scores.
pub fn softmax_loss(scores: &[f32], label: usize) -> f64 {
    debug_assert!(label < scores.len());
    // Stable log-sum-exp.
    let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
    let lse: f64 = scores
        .iter()
        .map(|&s| (s as f64 - max).exp())
        .sum::<f64>()
        .ln()
        + max;
    lse - scores[label] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check of first and second derivatives.
    fn check_gradients(loss: &dyn Loss, score: f32, label: f32) {
        // A power-of-two step is exactly representable in f32, so the
        // central differences are free of rounding noise.
        let eps = 0.0625f32;
        let gp = loss.grad(score, label);
        let l_plus = loss.loss(score + eps, label);
        let l_minus = loss.loss(score - eps, label);
        let num_g = (l_plus - l_minus) / (2.0 * eps as f64);
        assert!(
            (num_g - gp.g as f64).abs() < 1e-3,
            "{}: g mismatch at ({score}, {label}): {num_g} vs {}",
            loss.name(),
            gp.g
        );
        let l0 = loss.loss(score, label);
        let num_h = (l_plus - 2.0 * l0 + l_minus) / (eps as f64 * eps as f64);
        assert!(
            (num_h - gp.h as f64).abs() < 1e-2,
            "{}: h mismatch at ({score}, {label}): {num_h} vs {}",
            loss.name(),
            gp.h
        );
    }

    #[test]
    fn logistic_gradients_match_finite_differences() {
        for score in [-3.0f32, -0.5, 0.0, 0.5, 3.0] {
            for label in [0.0f32, 1.0] {
                check_gradients(&LogisticLoss, score, label);
            }
        }
    }

    #[test]
    fn square_gradients_match_finite_differences() {
        for score in [-2.0f32, 0.0, 1.5] {
            for label in [-1.0f32, 0.0, 2.5] {
                check_gradients(&SquareLoss, score, label);
            }
        }
    }

    #[test]
    fn logistic_loss_is_stable_at_extremes() {
        let l = LogisticLoss;
        assert!(l.loss(100.0, 1.0).is_finite());
        assert!(l.loss(-100.0, 0.0).is_finite());
        assert!(l.loss(100.0, 0.0) > 99.0); // ~s for confident wrong answer
        assert!(l.loss(100.0, 1.0) < 1e-3);
    }

    #[test]
    fn logistic_hessian_strictly_positive() {
        let gp = LogisticLoss.grad(40.0, 1.0);
        assert!(gp.h > 0.0);
    }

    #[test]
    fn transforms() {
        assert_eq!(SquareLoss.transform(2.5), 2.5);
        assert!((LogisticLoss.transform(0.0) - 0.5).abs() < 1e-6);
        assert!(LogisticLoss.transform(10.0) > 0.99);
    }

    #[test]
    fn loss_for_dispatch() {
        assert_eq!(loss_for(LossKind::Logistic).name(), "logistic");
        assert_eq!(loss_for(LossKind::Square).name(), "square");
    }

    #[test]
    #[should_panic(expected = "vector-valued")]
    fn loss_for_rejects_softmax() {
        loss_for(LossKind::Softmax { classes: 3 });
    }

    #[test]
    fn softmax_probabilities_sum_to_one() {
        let mut s = vec![1.0f32, 2.0, 3.0, -1.0];
        softmax_inplace(&mut s);
        let sum: f32 = s.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(s.windows(2).take(2).all(|w| w[0] < w[1]));
        // Stability at extreme scores.
        let mut big = vec![1000.0f32, 999.0];
        softmax_inplace(&mut big);
        assert!(big.iter().all(|p| p.is_finite()));
        assert!((big.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_grads_match_finite_differences() {
        let scores = [0.5f32, -1.0, 2.0];
        let eps = 0.0625f32;
        for label in 0..3 {
            let mut grads = vec![GradPair::default(); 3];
            softmax_grads(&scores, label, &mut grads);
            for c in 0..3 {
                let mut plus = scores;
                plus[c] += eps;
                let mut minus = scores;
                minus[c] -= eps;
                let num_g =
                    (softmax_loss(&plus, label) - softmax_loss(&minus, label)) / (2.0 * eps as f64);
                assert!(
                    (num_g - grads[c].g as f64).abs() < 1e-3,
                    "label {label} class {c}: {num_g} vs {}",
                    grads[c].g
                );
                let l0 = softmax_loss(&scores, label);
                let num_h = (softmax_loss(&plus, label) - 2.0 * l0 + softmax_loss(&minus, label))
                    / (eps as f64 * eps as f64);
                assert!(
                    (num_h - grads[c].h as f64).abs() < 1e-2,
                    "label {label} class {c}: h {num_h} vs {}",
                    grads[c].h
                );
            }
        }
    }

    #[test]
    fn softmax_grads_sum_to_zero() {
        let scores = [0.1f32, 0.2, 0.3, 0.4];
        let mut grads = vec![GradPair::default(); 4];
        softmax_grads(&scores, 2, &mut grads);
        let g_sum: f32 = grads.iter().map(|p| p.g).sum();
        assert!(
            g_sum.abs() < 1e-6,
            "softmax gradients must sum to zero: {g_sum}"
        );
        assert!(grads.iter().all(|p| p.h > 0.0));
    }

    #[test]
    fn softmax_loss_prefers_correct_class() {
        let confident = [5.0f32, -5.0];
        assert!(softmax_loss(&confident, 0) < 0.01);
        assert!(softmax_loss(&confident, 1) > 5.0);
    }

    #[test]
    fn trees_per_round() {
        assert_eq!(LossKind::Logistic.trees_per_round(), 1);
        assert_eq!(LossKind::Square.trees_per_round(), 1);
        assert_eq!(LossKind::Softmax { classes: 5 }.trees_per_round(), 5);
    }
}
