//! A single-hidden-layer MLP binary classifier with hand-derived gradients.
//!
//! The paper's future-work section proposes replacing the linear D-Step with
//! "a deep neural network ... to learn a non-linear directionality function".
//! This is that extension: `p = σ(w2 · tanh(W1 x + b1) + b2)`, trained by SGD
//! on binary cross-entropy. Gradients are derived by hand (consistent with
//! the project's no-autodiff substitution).

use serde::{Deserialize, Serialize};

use crate::activations::sigmoid;
use crate::logreg::{decayed_lr, prefetch_row, ROW_AHEAD};
use crate::matrix::DenseMatrix;
use crate::rng::Pcg32;

/// Training hyper-parameters for [`Mlp::fit`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Hidden layer width.
    pub hidden: usize,
    /// Number of passes over the data.
    pub epochs: usize,
    /// Learning rate (linearly decayed).
    pub lr: f32,
    /// L2 regularization on all weights.
    pub l2: f32,
    /// RNG seed for initialization and shuffling.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig { hidden: 16, epochs: 30, lr: 0.05, l2: 1e-4, seed: 0x11a5 }
    }
}

/// One-hidden-layer MLP for binary classification.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    w1: DenseMatrix, // hidden × input
    b1: Vec<f32>,
    w2: Vec<f32>, // hidden
    b2: f32,
}

impl Mlp {
    /// Creates an MLP with Xavier-style uniform initialization.
    pub fn new(input: usize, hidden: usize, rng: &mut Pcg32) -> Self {
        let bound1 = (6.0 / (input + hidden) as f32).sqrt();
        let w1 = DenseMatrix::from_fn(hidden, input, |_, _| (rng.next_f32() * 2.0 - 1.0) * bound1);
        let bound2 = (6.0 / (hidden + 1) as f32).sqrt();
        let w2 = (0..hidden).map(|_| (rng.next_f32() * 2.0 - 1.0) * bound2).collect();
        Mlp { w1, b1: vec![0.0; hidden], w2, b2: 0.0 }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.w1.cols()
    }

    /// Hidden activations `tanh(W1 x + b1)`.
    fn hidden_out(&self, x: &[f32], h: &mut [f32]) {
        for (j, hj) in h.iter_mut().enumerate() {
            *hj = (crate::vecops::dot(self.w1.row(j), x) + self.b1[j]).tanh();
        }
    }

    /// Predicted probability for `x`.
    pub fn predict_proba(&self, x: &[f32]) -> f32 {
        let mut h = vec![0.0f32; self.w2.len()];
        self.hidden_out(x, &mut h);
        sigmoid(crate::vecops::dot(&self.w2, &h) + self.b2)
    }

    /// One SGD step on `(x, y)`; returns the pre-update probability.
    pub fn sgd_step(&mut self, x: &[f32], y: f32, lr: f32, l2: f32) -> f32 {
        let hidden = self.w2.len();
        let mut h = vec![0.0f32; hidden];
        self.hidden_out(x, &mut h);
        let z = crate::vecops::dot(&self.w2, &h) + self.b2;
        let p = sigmoid(z);
        let gz = p - y; // dL/dz
                        // Output layer.
        let mut gh = vec![0.0f32; hidden]; // dL/dh
        for j in 0..hidden {
            gh[j] = gz * self.w2[j];
            self.w2[j] -= lr * (gz * h[j] + l2 * self.w2[j]);
        }
        self.b2 -= lr * gz;
        // Hidden layer: dL/da_j = gh_j * (1 - h_j²).
        for j in 0..hidden {
            let ga = gh[j] * (1.0 - h[j] * h[j]);
            let row = self.w1.row_mut(j);
            for (wji, &xi) in row.iter_mut().zip(x) {
                *wji -= lr * (ga * xi + l2 * *wji);
            }
            self.b1[j] -= lr * ga;
        }
        p
    }

    /// Trains by shuffled SGD on `(xs, ys)`, one row of `xs` per example.
    ///
    /// The loop shares [`LogisticRegression::fit`]'s schedule
    /// ([`decayed_lr`]) and its row prefetch: the row `ROW_AHEAD` positions
    /// ahead in the visit order is pulled into cache before it is needed.
    ///
    /// [`LogisticRegression::fit`]: crate::logreg::LogisticRegression::fit
    pub fn fit(&mut self, xs: &DenseMatrix, ys: &[f32], cfg: &MlpConfig) {
        assert_eq!(xs.rows(), ys.len(), "xs and ys must align");
        assert!(xs.rows() > 0, "empty training set");
        let mut rng = Pcg32::seed_from_u64(cfg.seed ^ 0xabcdef);
        let mut order: Vec<usize> = (0..xs.rows()).collect();
        let total = (cfg.epochs * xs.rows()).max(1) as u64;
        let mut step = 0u64;
        for _ in 0..cfg.epochs {
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(i + 1);
                order.swap(i, j);
            }
            for (k, &i) in order.iter().enumerate() {
                if let Some(&ahead) = order.get(k + ROW_AHEAD) {
                    prefetch_row(xs, ys, ahead);
                }
                let lr = decayed_lr(cfg.lr, step, total);
                self.sgd_step(xs.row(i), ys[i], lr, cfg.l2);
                step += 1;
            }
        }
    }

    /// Classification accuracy at threshold 0.5.
    pub fn accuracy(&self, xs: &DenseMatrix, ys: &[f32]) -> f64 {
        if ys.is_empty() {
            return 0.0;
        }
        let ok = ys
            .iter()
            .enumerate()
            .filter(|&(i, &y)| (self.predict_proba(xs.row(i)) >= 0.5) == (y >= 0.5))
            .count();
        ok as f64 / ys.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// XOR — not linearly separable, so a passing test demonstrates the
    /// hidden layer is doing real work.
    fn xor_data(n: usize, seed: u64) -> (DenseMatrix, Vec<f32>) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.gen_bool(0.5);
            let b = rng.gen_bool(0.5);
            let jitter = || (0.0, 0.1);
            let _ = jitter;
            let fx = if a { 1.0 } else { -1.0 } + (rng.next_f32() - 0.5) * 0.2;
            let fy = if b { 1.0 } else { -1.0 } + (rng.next_f32() - 0.5) * 0.2;
            xs.extend([fx, fy]);
            ys.push(if a ^ b { 1.0 } else { 0.0 });
        }
        (DenseMatrix::from_vec(n, 2, xs), ys)
    }

    #[test]
    fn learns_xor() {
        let (xs, ys) = xor_data(400, 1);
        let mut rng = Pcg32::seed_from_u64(2);
        let mut mlp = Mlp::new(2, 8, &mut rng);
        mlp.fit(&xs, &ys, &MlpConfig { hidden: 8, epochs: 200, lr: 0.1, l2: 0.0, seed: 3 });
        let acc = mlp.accuracy(&xs, &ys);
        assert!(acc > 0.95, "XOR accuracy {acc}");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = Pcg32::seed_from_u64(5);
        let mlp = Mlp::new(3, 4, &mut rng);
        let x = vec![0.3f32, -0.7, 0.2];
        let y = 1.0f32;
        // Analytic gradient of b2 is (p - y); check against finite diff of
        // the cross-entropy loss.
        let p = mlp.predict_proba(&x);
        let eps = 1e-3f32;
        let mut plus = mlp.clone();
        plus.b2 += eps;
        let mut minus = mlp.clone();
        minus.b2 -= eps;
        let loss = |m: &Mlp| -> f32 {
            let q = m.predict_proba(&x).clamp(1e-6, 1.0 - 1e-6);
            -(y * q.ln() + (1.0 - y) * (1.0 - q).ln())
        };
        let fd = (loss(&plus) - loss(&minus)) / (2.0 * eps);
        let analytic = p - y;
        assert!((fd - analytic).abs() < 1e-2, "fd {fd} vs analytic {analytic}");
    }

    #[test]
    fn probabilities_in_range() {
        let mut rng = Pcg32::seed_from_u64(6);
        let mlp = Mlp::new(4, 6, &mut rng);
        for i in 0..20 {
            let x: Vec<f32> = (0..4).map(|j| ((i * j) as f32).sin()).collect();
            let p = mlp.predict_proba(&x);
            assert!((0.0..=1.0).contains(&p));
        }
        assert_eq!(mlp.input_dim(), 4);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn rejects_empty() {
        let mut rng = Pcg32::seed_from_u64(7);
        let mut mlp = Mlp::new(2, 2, &mut rng);
        mlp.fit(&DenseMatrix::zeros(0, 2), &[], &MlpConfig::default());
    }
}
