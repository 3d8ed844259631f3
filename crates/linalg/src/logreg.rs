//! Logistic regression — the directionality-function model of Sec. 3.2 and
//! the D-Step of DeepDirect (Sec. 4.5.2).
//!
//! `d(e) = σ(w · x_e + b)` on the binary cross-entropy with L2
//! regularization on `w`. Two ways to fit it live here:
//!
//! * [`LogisticRegression::fit`], mini-batchless shuffled SGD with optional
//!   per-sample weights, which the HF and LINE baselines train with;
//! * the pieces of a Newton solve, which the D-Step runs: [`NewtonSums`]
//!   sums the objective, its gradient and (on request) its Hessian over a
//!   run of rows in `f64`, with the L2 term centred on an anchor the caller
//!   picks (the D-Step anchors it at the warm start), and
//!   [`NewtonPoint::direction`] turns a gradient and a Hessian into a step
//!   through [`cholesky_solve`]. The caller owns the rows, the parallel
//!   passes, which passes sum a Hessian, and the line search.
//!
//! Either way a fit can warm-start `w, b` from the E-Step's joint
//! classifier (`w', b'`), as Algorithm 1 line 20 prescribes.

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
        assert_eq!(xs.rows(), ys.len(), "xs and ys must align");
        assert!(xs.rows() > 0, "empty training set");
        if let Some(sw) = sample_weights {
            assert_eq!(sw.len(), xs.rows(), "sample weights must align");
        }
        let mut rng = Pcg32::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..xs.rows()).collect();
        let total_steps = (cfg.epochs * xs.rows()).max(1) as u64;
        let mut step = 0u64;
        for _ in 0..cfg.epochs {
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

/// Sums over a run of rows of what one Newton step on the L2-regularised
/// logistic objective needs.
///
/// The objective, over `n` rows `(x, y)` with parameters `θ = [w; b]` and
/// an anchor `w₀`, is
///
/// `F(θ) = (1/n) Σ CE(σ(w·x + b), y) + (l2/2)·‖w − w₀‖²`
///
/// with `b` unregularised. At `w₀ = 0` it is the per-row objective whose
/// gradient [`LogisticRegression::sgd_step`] follows. The accumulator sums
/// the cross-entropy, its gradient `(p − y)·z` and its Hessian
/// `p(1 − p)·z zᵀ` over `z = [x; 1]`, all in `f64`, the Hessian as a
/// packed lower triangle updated row by row; [`finish`] divides by the row
/// count and adds the L2 terms. Rows are added in a fixed order and partial
/// sums are [`merge`]d in a fixed order, so every total depends only on how
/// the caller cuts and orders its rows.
///
/// [`finish`]: Self::finish
/// [`merge`]: Self::merge
#[derive(Debug, Clone)]
pub struct NewtonSums {
    rows: usize,
    loss: f64,
    /// `Σ (p − y)·z`, bias last.
    grad: Vec<f64>,
    /// `Σ p(1 − p)·z zᵀ`, packed like [`NewtonPoint::hess`]; empty when
    /// only the gradient is summed.
    hess: Vec<f64>,
}

impl NewtonSums {
    /// Empty sums over `dim` features and a bias, with or without the
    /// Hessian.
    pub fn new(dim: usize, hessian: bool) -> Self {
        let packed = if hessian { (dim + 1) * (dim + 2) / 2 } else { 0 };
        NewtonSums { rows: 0, loss: 0.0, grad: vec![0.0; dim + 1], hess: vec![0.0; packed] }
    }

    /// Adds one row: features `x`, (possibly soft) label `y ∈ [0, 1]`, at
    /// parameters `theta = [w; b]`.
    #[inline]
    pub fn add(&mut self, theta: &[f64], x: &[f64], y: f64) {
        let dim = self.grad.len() - 1;
        debug_assert_eq!(theta.len(), dim + 1);
        debug_assert_eq!(x.len(), dim);
        let s = theta[..dim].iter().zip(x).fold(theta[dim], |s, (t, xi)| s + t * xi);
        // CE(σ(s), y) = softplus(s) − y·s for any s, and σ(s), from one
        // exponential. `ln(1 + e)` with e ≤ 1 is off by at most 1e-16 from
        // `ln_1p`, and cheaper.
        let e = (-s.abs()).exp();
        self.loss += s.max(0.0) + (1.0 + e).ln() - y * s;
        let p = if s >= 0.0 { 1.0 / (1.0 + e) } else { e / (1.0 + e) };
        let r = p - y;
        for (g, xi) in self.grad.iter_mut().zip(x) {
            *g += r * xi;
        }
        self.grad[dim] += r;
        self.rows += 1;
        if self.hess.is_empty() {
            return;
        }
        // Row i of the triangle holds (i, 0..=i); row `dim` is the bias's.
        let h = p * (1.0 - p);
        let mut at = 0;
        for (i, &xi) in x.iter().enumerate() {
            let u = h * xi;
            for (hk, xk) in self.hess[at..=at + i].iter_mut().zip(x) {
                *hk += u * xk;
            }
            at += i + 1;
        }
        for (hk, xk) in self.hess[at..].iter_mut().zip(x) {
            *hk += h * xk;
        }
        self.hess[at + dim] += h;
    }

    /// `self + other`, term by term.
    ///
    /// # Panics
    /// Panics when the two were built for different shapes.
    pub fn merge(mut self, other: NewtonSums) -> NewtonSums {
        assert_eq!(self.grad.len(), other.grad.len(), "merging sums of different shapes");
        assert_eq!(self.hess.len(), other.hess.len(), "merging sums of different shapes");
        self.rows += other.rows;
        self.loss += other.loss;
        let ours = self.grad.iter_mut().chain(&mut self.hess);
        for (a, b) in ours.zip(other.grad.iter().chain(&other.hess)) {
            *a += b;
        }
        self
    }

    /// The objective, its gradient and (when summed) its Hessian at the
    /// `theta` the rows were added with: the sums over the row count plus
    /// the L2 terms, which pull every parameter but the last (the bias)
    /// towards `anchor`.
    ///
    /// # Panics
    /// Panics when no row was added or `anchor` does not match `theta`.
    pub fn finish(mut self, theta: &[f64], anchor: &[f64], l2: f64) -> NewtonPoint {
        assert!(self.rows > 0, "empty training set");
        assert_eq!(theta.len(), self.grad.len());
        let dim = theta.len() - 1;
        assert_eq!(anchor.len(), dim, "the anchor covers w, not b");
        let inv = 1.0 / self.rows as f64;
        let mut sq = 0.0;
        for ((g, t), a) in self.grad.iter_mut().zip(&theta[..dim]).zip(anchor) {
            let off = t - a;
            *g = *g * inv + l2 * off;
            sq += off * off;
        }
        self.grad[dim] *= inv;
        for h in &mut self.hess {
            *h *= inv;
        }
        if !self.hess.is_empty() {
            for i in 0..dim {
                self.hess[i * (i + 3) / 2] += l2;
            }
        }
        NewtonPoint { objective: self.loss * inv + 0.5 * l2 * sq, grad: self.grad, hess: self.hess }
    }
}

/// The objective of [`NewtonSums`] at one point, with its gradient and
/// (packed lower-triangular, possibly empty) Hessian.
#[derive(Debug, Clone)]
pub struct NewtonPoint {
    /// `F(θ)`.
    pub objective: f64,
    /// `∇F(θ)`, bias last.
    pub grad: Vec<f64>,
    /// `∇²F(θ)` as a packed lower triangle, row after row (entry
    /// `(i, j ≤ i)` at `i(i + 1)/2 + j`); empty when the sums were
    /// gradient-only.
    pub hess: Vec<f64>,
}

impl NewtonPoint {
    /// `max_i |∇F(θ)_i|`.
    pub fn grad_max_norm(&self) -> f64 {
        self.grad.iter().fold(0.0, |m, g| m.max(g.abs()))
    }

    /// The direction `d = −H⁻¹ ∇F` for a Hessian `hess` (packed like
    /// [`NewtonPoint::hess`], and possibly summed at another point), or
    /// `None` when `hess` is not numerically positive definite.
    pub fn direction(&self, hess: &[f64]) -> Option<Vec<f64>> {
        let mut d: Vec<f64> = self.grad.iter().map(|g| -g).collect();
        cholesky_solve(hess, &mut d)?;
        Some(d)
    }
}

/// Solves `A x = b` in place of `b` for a symmetric positive definite `A`
/// given as a packed lower triangle (the layout of [`NewtonPoint::hess`]).
///
/// Returns `None`, leaving `b` unspecified, when a pivot is not positive
/// and finite, i.e. `A` is not numerically positive definite.
pub fn cholesky_solve(packed: &[f64], b: &mut [f64]) -> Option<()> {
    let n = b.len();
    assert_eq!(packed.len(), n * (n + 1) / 2, "packed matrix does not match the right-hand side");
    let at = |i: usize, j: usize| i * (i + 1) / 2 + j;
    // A = L Lᵀ, L packed the same way.
    let mut l = packed.to_vec();
    for i in 0..n {
        for j in 0..=i {
            let mut v = l[at(i, j)];
            for k in 0..j {
                v -= l[at(i, k)] * l[at(j, k)];
            }
            if i == j {
                if !(v > 0.0 && v.is_finite()) {
                    return None;
                }
                l[at(i, i)] = v.sqrt();
            } else {
                l[at(i, j)] = v / l[at(j, j)];
            }
        }
    }
    // L y = b, then Lᵀ x = y.
    for i in 0..n {
        let mut v = b[i];
        for k in 0..i {
            v -= l[at(i, k)] * b[k];
        }
        b[i] = v / l[at(i, i)];
    }
    for i in (0..n).rev() {
        let mut v = b[i];
        for k in i + 1..n {
            v -= l[at(k, i)] * b[k];
        }
        b[i] = v / l[at(i, i)];
    }
    Some(())
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

    /// Random rows over `dim` features with soft labels, and a point
    /// `θ = [w; b]` to evaluate at.
    fn newton_fixture(dim: usize, rows: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>, Vec<f64>) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut unit = || f64::from(rng.next_f32()) * 2.0 - 1.0;
        let xs: Vec<Vec<f64>> = (0..rows).map(|_| (0..dim).map(|_| unit()).collect()).collect();
        let ys: Vec<f64> = (0..rows).map(|_| (unit() + 1.0) / 2.0).collect();
        let theta: Vec<f64> = (0..=dim).map(|_| 1.5 * unit()).collect();
        (xs, ys, theta)
    }

    fn newton_point(
        xs: &[Vec<f64>],
        ys: &[f64],
        theta: &[f64],
        l2: f64,
        hessian: bool,
    ) -> NewtonPoint {
        let mut sums = NewtonSums::new(theta.len() - 1, hessian);
        for (x, &y) in xs.iter().zip(ys) {
            sums.add(theta, x, y);
        }
        sums.finish(theta, &anchor(theta.len() - 1), l2)
    }

    /// A fixed nonzero anchor for the L2 term over `dim` weights.
    fn anchor(dim: usize) -> Vec<f64> {
        (0..dim).map(|i| 0.5 - 0.2 * i as f64).collect()
    }

    /// `(i, j)` of a packed lower triangle, either side of the diagonal.
    fn packed(hess: &[f64], i: usize, j: usize) -> f64 {
        let (i, j) = if j > i { (j, i) } else { (i, j) };
        hess[i * (i + 1) / 2 + j]
    }

    /// [`NewtonSums`] sums the gradient and Hessian of the objective it
    /// reports: a central difference of `finish`'s objective matches every
    /// gradient component, and a central difference of the gradient
    /// matches every Hessian entry, the unregularised bias included.
    ///
    /// With `h = 1e-5` in `f64` a central difference is good to about
    /// 1e-9; an L2 term on the bias, a halved or missing one on `w`, an
    /// anchor dropped or taken with the wrong sign, or a Hessian entry off
    /// by one row misses `1e-6` by far.
    #[test]
    fn newton_sums_match_finite_differences_of_the_objective() {
        const DIM: usize = 6;
        let h = 1e-5;
        for seed in 0..20u64 {
            let (xs, ys, theta) = newton_fixture(DIM, 75, seed);
            let l2 = 0.05 * (seed as f64 + 1.0);
            let at = newton_point(&xs, &ys, &theta, l2, true);
            let shifted = |i: usize, by: f64| {
                let mut t = theta.clone();
                t[i] += by;
                newton_point(&xs, &ys, &t, l2, false)
            };
            for i in 0..=DIM {
                let (plus, minus) = (shifted(i, h), shifted(i, -h));
                let fd = (plus.objective - minus.objective) / (2.0 * h);
                assert!(
                    (at.grad[i] - fd).abs() <= 1e-6 * (1.0 + fd.abs()),
                    "seed {seed}: gradient[{i}] {} vs finite difference {fd}",
                    at.grad[i]
                );
                for j in 0..=DIM {
                    let fd = (plus.grad[j] - minus.grad[j]) / (2.0 * h);
                    let entry = packed(&at.hess, i, j);
                    assert!(
                        (entry - fd).abs() <= 1e-6 * (1.0 + fd.abs()),
                        "seed {seed}: hessian[{i}][{j}] {entry} vs finite difference {fd}"
                    );
                }
            }
        }
    }

    /// The pass after a solver's last step sums no Hessian; that must not
    /// change the objective or the gradient it reports.
    #[test]
    fn gradient_only_sums_report_the_same_objective_and_gradient() {
        let (xs, ys, theta) = newton_fixture(9, 70, 3);
        let full = newton_point(&xs, &ys, &theta, 0.01, true);
        let grad_only = newton_point(&xs, &ys, &theta, 0.01, false);
        assert_eq!(full.objective.to_bits(), grad_only.objective.to_bits());
        assert_eq!(full.grad, grad_only.grad);
        assert!(grad_only.hess.is_empty());
    }

    #[test]
    fn merged_sums_match_one_run_of_rows() {
        let (xs, ys, theta) = newton_fixture(5, 50, 4);
        let whole = newton_point(&xs, &ys, &theta, 0.02, true);
        let part = |range: std::ops::Range<usize>| {
            let mut sums = NewtonSums::new(5, true);
            for r in range {
                sums.add(&theta, &xs[r], ys[r]);
            }
            sums
        };
        let merged =
            part(0..7).merge(part(7..33)).merge(part(33..50)).finish(&theta, &anchor(5), 0.02);
        assert!((merged.objective - whole.objective).abs() < 1e-12);
        for (a, b) in
            merged.grad.iter().chain(&merged.hess).zip(whole.grad.iter().chain(&whole.hess))
        {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn cholesky_solves_positive_definite_systems_and_rejects_others() {
        // A = Bᵀ B + I for a random B, so A is positive definite.
        const N: usize = 7;
        let mut rng = Pcg32::seed_from_u64(11);
        let b: Vec<f64> = (0..N * N).map(|_| f64::from(rng.next_f32()) - 0.5).collect();
        let a = |i: usize, j: usize| {
            (0..N).map(|k| b[k * N + i] * b[k * N + j]).sum::<f64>()
                + if i == j { 1.0 } else { 0.0 }
        };
        let packed_a: Vec<f64> =
            (0..N).flat_map(|i| (0..=i).map(move |j| (i, j))).map(|(i, j)| a(i, j)).collect();
        let rhs: Vec<f64> = (0..N).map(|i| i as f64 - 3.0).collect();
        let mut x = rhs.clone();
        cholesky_solve(&packed_a, &mut x).expect("A is positive definite");
        for (i, want) in rhs.iter().enumerate() {
            let ax: f64 = x.iter().enumerate().map(|(j, xj)| a(i, j) * xj).sum();
            assert!((ax - want).abs() < 1e-12, "row {i}: {ax} vs {want}");
        }
        // [[1, 2], [2, 1]] has eigenvalues 3 and −1.
        assert!(cholesky_solve(&[1.0, 2.0, 1.0], &mut [1.0, 1.0]).is_none());
        assert!(cholesky_solve(&[f64::NAN], &mut [1.0]).is_none());
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
