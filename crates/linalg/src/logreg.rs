//! Logistic regression — the directionality-function model of Sec. 3.2 and
//! the D-Step of DeepDirect (Sec. 4.5.2).
//!
//! `d(e) = σ(w · x_e + b)` trained by mini-batchless SGD on the binary
//! cross-entropy with optional L2 regularization and per-sample weights.
//! Supports warm-starting `w, b` from the E-Step's joint classifier
//! (`w', b'`), as Algorithm 1 line 20 prescribes.

use serde::{Deserialize, Serialize};

use crate::activations::{cross_entropy, sigmoid};
use crate::matrix::DenseMatrix;
use crate::rng::Pcg32;

/// Training hyper-parameters for [`LogisticRegression::fit`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogRegConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Initial learning rate, decayed linearly to `lr / 100`.
    pub lr: f32,
    /// L2 regularization strength (applied to `w`, not `b`).
    pub l2: f32,
    /// Seed for the shuffling RNG.
    pub seed: u64,
}

impl Default for LogRegConfig {
    fn default() -> Self {
        LogRegConfig { epochs: 20, lr: 0.1, l2: 1e-4, seed: 0x5eed }
    }
}

/// A binary logistic regression model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogisticRegression {
    /// Weight vector `w`.
    pub w: Vec<f32>,
    /// Bias `b`.
    pub b: f32,
}

impl LogisticRegression {
    /// Zero-initialized model over `dim` features.
    pub fn new(dim: usize) -> Self {
        LogisticRegression { w: vec![0.0; dim], b: 0.0 }
    }

    /// Model warm-started from existing parameters (D-Step initialization).
    pub fn from_params(w: Vec<f32>, b: f32) -> Self {
        LogisticRegression { w, b }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.w.len()
    }

    /// Raw decision value `w · x + b`.
    #[inline]
    pub fn decision(&self, x: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), self.w.len());
        crate::vecops::dot(&self.w, x) + self.b
    }

    /// Predicted probability `σ(w · x + b)`.
    #[inline]
    pub fn predict_proba(&self, x: &[f32]) -> f32 {
        sigmoid(self.decision(x))
    }

    /// Hard 0/1 prediction at threshold 0.5.
    #[inline]
    pub fn predict(&self, x: &[f32]) -> bool {
        self.decision(x) >= 0.0
    }

    /// One SGD step on a single `(x, y)` example with sample weight `sw` and
    /// learning rate `lr`. Labels may be soft (`y ∈ [0, 1]`).
    #[inline]
    pub fn sgd_step(&mut self, x: &[f32], y: f32, sw: f32, lr: f32, l2: f32) {
        let p = self.predict_proba(x);
        let g = sw * (p - y); // ∂CE/∂z for soft labels
        for (wi, xi) in self.w.iter_mut().zip(x) {
            *wi -= lr * (g * xi + l2 * *wi);
        }
        self.b -= lr * g;
    }

    /// Trains on `xs.row(i) → ys[i]` (with optional per-sample weights) by
    /// shuffled SGD.
    ///
    /// Each epoch visits the rows in a fresh Fisher–Yates order, at a rate
    /// decayed linearly over all steps ([`decayed_lr`]). The rows live in
    /// one contiguous matrix, and the loop prefetches the row `ROW_AHEAD`
    /// positions ahead in the visit order, so the random gather overlaps
    /// the update instead of stalling it. The prefetch changes no value: the
    /// shuffle, the visit order and every float operation are the same as
    /// a plain loop's.
    ///
    /// # Panics
    /// Panics when shapes disagree or the dataset is empty.
    pub fn fit(
        &mut self,
        xs: &DenseMatrix,
        ys: &[f32],
        sample_weights: Option<&[f32]>,
        cfg: &LogRegConfig,
    ) {
        self.fit_inner(xs, ys, sample_weights, cfg, None);
    }

    /// Like [`fit`](Self::fit), but invokes `progress(epoch, log_loss)` after
    /// every epoch (1-based). The loss is only computed when a callback is
    /// attached, so `fit` pays nothing for this hook.
    pub fn fit_with_progress(
        &mut self,
        xs: &DenseMatrix,
        ys: &[f32],
        sample_weights: Option<&[f32]>,
        cfg: &LogRegConfig,
        progress: &mut dyn FnMut(usize, f64),
    ) {
        self.fit_inner(xs, ys, sample_weights, cfg, Some(progress));
    }

    fn fit_inner(
        &mut self,
        xs: &DenseMatrix,
        ys: &[f32],
        sample_weights: Option<&[f32]>,
        cfg: &LogRegConfig,
        mut progress: Option<&mut dyn FnMut(usize, f64)>,
    ) {
        assert_eq!(xs.rows(), ys.len(), "xs and ys must align");
        assert!(xs.rows() > 0, "empty training set");
        if let Some(sw) = sample_weights {
            assert_eq!(sw.len(), xs.rows(), "sample weights must align");
        }
        let mut rng = Pcg32::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..xs.rows()).collect();
        let total_steps = (cfg.epochs * xs.rows()).max(1) as u64;
        let mut step = 0u64;
        for epoch in 0..cfg.epochs {
            // Fisher–Yates shuffle.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(i + 1);
                order.swap(i, j);
            }
            for (k, &i) in order.iter().enumerate() {
                if let Some(&ahead) = order.get(k + ROW_AHEAD) {
                    prefetch_row(xs, ys, ahead);
                }
                let lr = decayed_lr(cfg.lr, step, total_steps);
                let sw = sample_weights.map_or(1.0, |s| s[i]);
                self.sgd_step(xs.row(i), ys[i], sw, lr, cfg.l2);
                step += 1;
            }
            if let Some(cb) = progress.as_deref_mut() {
                cb(epoch + 1, self.log_loss(xs, ys));
            }
        }
    }

    /// Mean binary cross-entropy of the model on a dataset.
    pub fn log_loss(&self, xs: &DenseMatrix, ys: &[f32]) -> f64 {
        assert_eq!(xs.rows(), ys.len());
        if ys.is_empty() {
            return 0.0;
        }
        let total: f64 = ys
            .iter()
            .enumerate()
            .map(|(i, &y)| cross_entropy(y as f64, self.predict_proba(xs.row(i)) as f64))
            .sum();
        total / ys.len() as f64
    }

    /// Classification accuracy at threshold 0.5 against hard labels.
    pub fn accuracy(&self, xs: &DenseMatrix, ys: &[f32]) -> f64 {
        assert_eq!(xs.rows(), ys.len());
        if ys.is_empty() {
            return 0.0;
        }
        let correct =
            ys.iter().enumerate().filter(|&(i, &y)| self.predict(xs.row(i)) == (y >= 0.5)).count();
        correct as f64 / ys.len() as f64
    }
}

/// How many positions ahead in the shuffled visit order the SGD loop of
/// [`LogisticRegression::fit`] prefetches a row.
/// Eight steps of a 32-to-64-float update take about one DRAM round trip.
/// A constant, not a knob: no value depends on it.
const ROW_AHEAD: usize = 8;

/// Prefetches training row `i` and its label (see [`ROW_AHEAD`]).
#[inline(always)]
fn prefetch_row(xs: &DenseMatrix, ys: &[f32], i: usize) {
    crate::kernels::prefetch(xs.row(i).as_ptr(), xs.cols());
    crate::kernels::prefetch(&ys[i], 1);
}

/// The learning rate at SGD step `step` of `total`: `base` decayed linearly
/// to `base / 100`, the schedule of [`LogisticRegression::fit`].
///
/// `step` is counted as an integer, so the rate keeps falling past 2^24
/// steps (an `f32` counter stops at 2^24 and freezes the rate there). Below
/// 2^24 every step is exact in `f32`, so the rate is bit-identical to the
/// `f32`-counter schedule it replaced.
#[inline]
pub fn decayed_lr(base: f32, step: u64, total: u64) -> f32 {
    base * (1.0 - step as f32 / total as f32).max(0.01)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable 2-D blobs.
    fn blobs(n: usize, seed: u64) -> (DenseMatrix, Vec<f32>) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(4 * n);
        let mut ys = Vec::with_capacity(2 * n);
        for _ in 0..n {
            xs.extend([1.0 + rng.next_f32(), 1.0 + rng.next_f32()]);
            ys.push(1.0);
            xs.extend([-1.0 - rng.next_f32(), -1.0 - rng.next_f32()]);
            ys.push(0.0);
        }
        (DenseMatrix::from_vec(2 * n, 2, xs), ys)
    }

    #[test]
    fn learns_separable_blobs() {
        let (xs, ys) = blobs(200, 1);
        let mut lr = LogisticRegression::new(2);
        lr.fit(&xs, &ys, None, &LogRegConfig::default());
        assert!(lr.accuracy(&xs, &ys) > 0.99);
        assert!(lr.log_loss(&xs, &ys) < 0.2);
    }

    #[test]
    fn warm_start_preserved() {
        let lr = LogisticRegression::from_params(vec![1.0, -2.0], 0.5);
        assert_eq!(lr.w, vec![1.0, -2.0]);
        assert_eq!(lr.b, 0.5);
        assert_eq!(lr.dim(), 2);
        // decision = 1*1 + (-2)*1 + 0.5 = -0.5 → class 0.
        assert!(!lr.predict(&[1.0, 1.0]));
        assert!(lr.predict_proba(&[1.0, 1.0]) < 0.5);
    }

    #[test]
    fn progress_reports_decreasing_loss_without_changing_fit() {
        let (xs, ys) = blobs(100, 3);
        let cfg = LogRegConfig::default();
        let mut plain = LogisticRegression::new(2);
        plain.fit(&xs, &ys, None, &cfg);
        let mut observed = LogisticRegression::new(2);
        let mut epochs = Vec::new();
        observed.fit_with_progress(&xs, &ys, None, &cfg, &mut |epoch, loss| {
            epochs.push((epoch, loss));
        });
        assert_eq!(observed.w, plain.w, "progress hook must not change training");
        assert_eq!(observed.b, plain.b);
        assert_eq!(epochs.len(), cfg.epochs);
        assert_eq!(epochs[0].0, 1);
        assert!(epochs.iter().all(|&(_, l)| l.is_finite()));
        assert!(epochs.last().unwrap().1 < epochs[0].1, "loss should decrease across epochs");
    }

    #[test]
    fn l2_shrinks_weights() {
        let (xs, ys) = blobs(100, 2);
        let mut free = LogisticRegression::new(2);
        free.fit(&xs, &ys, None, &LogRegConfig { l2: 0.0, ..Default::default() });
        let mut reg = LogisticRegression::new(2);
        reg.fit(&xs, &ys, None, &LogRegConfig { l2: 0.5, ..Default::default() });
        let n_free = crate::vecops::norm2(&free.w);
        let n_reg = crate::vecops::norm2(&reg.w);
        assert!(n_reg < n_free, "L2 must shrink ({n_reg} vs {n_free})");
    }

    #[test]
    fn sample_weights_bias_decision() {
        // Conflicting labels on the same point; heavier weight should win.
        let xs = DenseMatrix::from_vec(2, 1, vec![1.0, 1.0]);
        let ys = vec![1.0f32, 0.0];
        let sw = vec![10.0f32, 1.0];
        let mut lr = LogisticRegression::new(1);
        lr.fit(&xs, &ys, Some(&sw), &LogRegConfig { epochs: 200, ..Default::default() });
        assert!(lr.predict_proba(&[1.0]) > 0.5);
    }

    #[test]
    fn soft_labels_converge_to_target() {
        // Single feature always 1, soft label 0.7: optimum is p = 0.7.
        let xs = DenseMatrix::from_vec(50, 1, vec![1.0; 50]);
        let ys = vec![0.7f32; 50];
        let mut lr = LogisticRegression::new(1);
        lr.fit(&xs, &ys, None, &LogRegConfig { epochs: 300, l2: 0.0, ..Default::default() });
        let p = lr.predict_proba(&[1.0]);
        assert!((p - 0.7).abs() < 0.05, "p = {p}");
    }

    /// The D-Step's update is the gradient of the objective it claims:
    /// `(θ − θ') / lr` after one `sgd_step` equals a central difference, in
    /// f64, of `sw·CE(σ(w·x + b), y) + (l2/2)·‖w‖²` for every `w_i` and for
    /// `b` (which carries no L2 term).
    ///
    /// Tolerance: `1e-4·(1 + |fd|)`. The step runs in f32, and the power-of-
    /// two `lr` makes the division exact, so the recovered gradient is off
    /// by a few f32 ulps of `θ` over `lr` (≈ 1e-6 here). The f64 difference
    /// with `h = 1e-6` is good to ≈ 1e-9. A missing `sw`, an L2 term on
    /// `b`, or a halved L2 term on `w` each fails it by more than 5e-3.
    #[test]
    fn sgd_step_matches_finite_difference_of_the_weighted_l2_objective() {
        const DIM: usize = 8;
        let objective = |w: &[f64], b: f64, x: &[f32], y: f64, sw: f64, l2: f64| -> f64 {
            let z: f64 = w.iter().zip(x).map(|(wi, &xi)| wi * f64::from(xi)).sum::<f64>() + b;
            let p = crate::activations::sigmoid64(z);
            sw * cross_entropy(y, p) + 0.5 * l2 * w.iter().map(|wi| wi * wi).sum::<f64>()
        };
        let lr = 0.25f32;
        let h = 1e-6f64;
        for seed in 0..200u64 {
            let mut rng = Pcg32::seed_from_u64(seed);
            let mut unit = || rng.next_f32() * 2.0 - 1.0;
            let x: Vec<f32> = (0..DIM).map(|_| unit()).collect();
            let model = LogisticRegression::from_params((0..DIM).map(|_| unit()).collect(), unit());
            let y = (unit() + 1.0) / 2.0;
            let sw = 0.1 + 1.45 * (unit() + 1.0);
            let l2 = 0.05 * (unit() + 1.0);

            let mut stepped = model.clone();
            stepped.sgd_step(&x, y, sw, lr, l2);

            let w64: Vec<f64> = model.w.iter().map(|&v| f64::from(v)).collect();
            let b64 = f64::from(model.b);
            let (y, sw, l2) = (f64::from(y), f64::from(sw), f64::from(l2));
            let check = |what: String, analytic: f32, fd: f64| {
                let err = (f64::from(analytic) - fd).abs();
                assert!(
                    err <= 1e-4 * (1.0 + fd.abs()),
                    "seed {seed}: {what}: update {analytic} vs finite difference {fd}"
                );
            };
            for i in 0..DIM {
                let (mut plus, mut minus) = (w64.clone(), w64.clone());
                plus[i] += h;
                minus[i] -= h;
                let fd = (objective(&plus, b64, &x, y, sw, l2)
                    - objective(&minus, b64, &x, y, sw, l2))
                    / (2.0 * h);
                check(format!("w[{i}]"), (model.w[i] - stepped.w[i]) / lr, fd);
            }
            let fd = (objective(&w64, b64 + h, &x, y, sw, l2)
                - objective(&w64, b64 - h, &x, y, sw, l2))
                / (2.0 * h);
            check("b".to_string(), (model.b - stepped.b) / lr, fd);
        }
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn rejects_empty_dataset() {
        let mut lr = LogisticRegression::new(1);
        lr.fit(&DenseMatrix::zeros(0, 1), &[], None, &LogRegConfig::default());
    }

    #[test]
    fn decayed_lr_keeps_falling_past_f32_step_precision() {
        // 19.49M steps: a paper-scale D-Step (649,742 rows × 30 epochs).
        let total = 19_492_260u64;
        let at = |step: u64| decayed_lr(0.05, step, total);
        let edge = 1u64 << 24;
        assert!(at(edge + 1) < at(edge - 1000), "rate froze at 2^24");
        assert!(at(edge + 1000) < at(edge + 1), "rate froze past 2^24");
        assert!(at(total - 1) < at(edge + 1000));
        assert_eq!(at(total), 0.05 * 0.01, "floor is base / 100");
    }

    #[test]
    fn decayed_lr_matches_the_f32_counter_below_2_pow_24() {
        // The schedule the integer counter replaced, for the steps where an
        // f32 counter is still exact.
        let total = 1_000_003u64;
        let mut step_f = 0f32;
        for step in 0..total {
            let old = 0.1f32 * (1.0 - step_f / total as f32).max(0.01);
            assert_eq!(decayed_lr(0.1, step, total).to_bits(), old.to_bits(), "step {step}");
            step_f += 1.0;
        }
    }

    #[test]
    fn serde_roundtrip() {
        let lr = LogisticRegression::from_params(vec![0.25, -0.5], 1.5);
        let s = serde_json::to_string(&lr).unwrap();
        let lr2: LogisticRegression = serde_json::from_str(&s).unwrap();
        assert_eq!(lr2.w, lr.w);
        assert_eq!(lr2.b, lr.b);
    }
}
