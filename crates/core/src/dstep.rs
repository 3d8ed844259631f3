//! The D-Step: learning the directionality function from the embeddings
//! (Sec. 4.5.2, Algorithm 1 lines 19–21).
//!
//! The labeled universe ties (directed ties and their mirrors) form the
//! training set; features are the embedding rows `m_e`. The paper's head is
//! a logistic regression with L2 regularization, initialized from the
//! E-Step's joint classifier `(w', b')`. The paper gives neither the centre
//! of that L2 term nor an optimiser. Here the L2 term pulls `w` towards
//! `w'` (DESIGN.md §7.17), and [`train`] solves the objective with damped
//! Newton steps on the warm start's Hessian, each one deterministic
//! parallel pass over the labeled ties (DESIGN.md §7.9).

use dd_linalg::logreg::{LogisticRegression, NewtonPoint, NewtonSums};
use dd_linalg::matrix::DenseMatrix;
use dd_runtime::{chunk_size, Pool, Threads};
use dd_telemetry::EpochProgress;
use serde::{Deserialize, Serialize};

use crate::config::DeepDirectConfig;
use crate::estep::EStepParams;
use crate::universe::TieUniverse;

/// The trained directionality-function head.
///
/// An enum with one variant on purpose: its serialized form
/// `{"Logistic":{…}}` is stored in every `.ddm` meta section and hashed into
/// the model fingerprint that `/healthz` and every score response carry.
/// Flattening it to a bare [`LogisticRegression`] would change the
/// fingerprint of every stored model and so the served bytes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum DirectionalityHead {
    /// Logistic regression `d(e) = σ(w · m_e + b)` (Eq. 26).
    Logistic(LogisticRegression),
}

impl DirectionalityHead {
    /// Directionality value `d(e) ∈ [0, 1]` for a feature vector.
    ///
    /// The logistic head scores through [`dd_linalg::kernels::dot8_f64`]
    /// with f64 accumulation in the kernel's fixed lane order — the same
    /// policy as the model's hot path, so fold-in scores share its
    /// bit-compatibility guarantees. Training is untouched: it goes through
    /// [`dd_linalg::LogisticRegression`]'s own f32 loops.
    #[inline]
    pub fn score(&self, embedding: &[f32]) -> f64 {
        let DirectionalityHead::Logistic(lr) = self;
        dd_linalg::sigmoid64(dd_linalg::kernels::dot8_f64(&lr.w, embedding) + f64::from(lr.b))
    }
}

/// Feature dimensionality of the D-Step under `cfg`: the embedding `m_e`,
/// extended with the connection vector `n_e` under `context_features`.
pub fn feature_dim(cfg: &DeepDirectConfig) -> usize {
    if cfg.context_features {
        2 * cfg.dim
    } else {
        cfg.dim
    }
}

/// Newton's stopping test: every component of the objective's gradient at
/// the head (in its stored `f32` values) is at most this in magnitude.
///
/// A constant, not a knob. Rounding a converged `f64` solution to `f32`
/// moves the gradient by about `‖H‖·|w|·2⁻²⁴`, about 5e-8 on the paper's
/// data, so the test sits above that floor. Iterates are kept in `f32`,
/// so the gradient the solver tests is the gradient at the head it
/// returns.
pub const GRAD_TOL: f64 = 1e-6;

/// Armijo's sufficient-decrease constant for the backtracking line search.
const ARMIJO: f64 = 1e-4;

/// Step halvings the line search tries before it gives up on a direction.
const MAX_HALVINGS: u32 = 30;

/// Trains the D-Step head on the labeled ties of the universe.
///
/// The head minimises the mean cross-entropy over the labeled ties plus
/// `(dstep_l2/2)·‖w − w'‖²`, with `b` unregularised, by damped Newton
/// steps from the warm start `(w', b')` (Algorithm 1 line 20); under
/// `context_features` the context half of `w'` is zero. The Hessian is
/// summed once, at the warm start, and every step solves against it; each
/// step sums the objective and gradient at its trial point in one
/// [`Pool::par_map_reduce`] pass over the labeled ties, reading each row
/// straight from `estep.m` (`‖ estep.n` under `context_features`); the
/// chunks depend only on the row count and fold in chunk order, so a given
/// E-Step result yields a bit-identical head at any `threads`. A
/// backtracking line search keeps every step a descent step. The solve
/// stops when the gradient's max-norm is at most [`GRAD_TOL`], when no
/// `f32` step makes progress, when the Hessian is not positive definite,
/// or after `dstep_epochs` steps; `0` keeps the warm start. With an
/// observer attached, each step reports the objective as a `"dstep"`
/// [`EpochProgress`].
pub fn train(
    universe: &TieUniverse,
    estep: &EStepParams,
    cfg: &DeepDirectConfig,
) -> DirectionalityHead {
    train_traced(universe, estep, cfg, None)
}

/// [`train`], reporting the solver pool's call and chunk spans as children
/// of `stage` when given, so a trace shows each Newton pass. Tracing is
/// observational only: the head is bit-identical with or without a stage
/// span (DESIGN.md §7.12).
pub fn train_traced(
    universe: &TieUniverse,
    estep: &EStepParams,
    cfg: &DeepDirectConfig,
    stage: Option<&dd_telemetry::Span>,
) -> DirectionalityHead {
    let rows = LabeledRows::new(universe, estep, cfg);
    // Warm start from (w', b') per Algorithm 1 line 20; the context half
    // (extension) starts at zero.
    let mut w0 = estep.w.clone();
    w0.resize(feature_dim(cfg), 0.0);
    let mut head = LogisticRegression::from_params(w0, estep.b);
    if cfg.dstep_epochs == 0 {
        return DirectionalityHead::Logistic(head);
    }
    // The L2 term's centre: w' (and zero for the context half).
    let anchor: Vec<f64> = head.w.iter().map(|&v| f64::from(v)).collect();
    let threads =
        Threads::new(cfg.threads).expect("DeepDirectConfig.threads is zero; call validate() first");
    let pool = Pool::new("dstep", threads);
    if let Some(span) = stage {
        pool.set_trace(span.observer(), span.context());
    }
    let l2 = f64::from(cfg.dstep_l2);
    let evaluate =
        |head: &LogisticRegression, hessian: bool| rows.point(&pool, head, &anchor, l2, hessian);

    let max_steps = cfg.dstep_epochs;
    // The Hessian is summed once, at the warm start, and serves every
    // step: the L2 term holds the head near w', where the Hessian barely
    // moves, and every later pass sums only the objective and gradient
    // (DESIGN.md §7.9).
    let mut at = evaluate(&head, true);
    let hess = std::mem::take(&mut at.hess);
    let mut steps = 0;
    'steps: while steps < max_steps && at.grad_max_norm() > GRAD_TOL {
        let Some(d) = at.direction(&hess) else { break };
        let slope: f64 = at.grad.iter().zip(&d).map(|(g, di)| g * di).sum();
        let mut t = 1.0;
        let mut halvings = 0;
        let (next, next_at) = loop {
            let trial = step_of(&head, &d, t);
            if trial.w == head.w && trial.b == head.b {
                // No representable step remains along d.
                break 'steps;
            }
            let trial_at = evaluate(&trial, false);
            if trial_at.objective <= at.objective + ARMIJO * t * slope {
                break (trial, trial_at);
            }
            halvings += 1;
            if halvings > MAX_HALVINGS {
                break 'steps;
            }
            t *= 0.5;
        };
        steps += 1;
        head = next;
        at = next_at;
        cfg.observer.on_epoch(&EpochProgress {
            stage: "dstep".to_string(),
            epoch: steps as u64,
            total_epochs: max_steps as u64,
            loss: at.objective,
        });
    }
    DirectionalityHead::Logistic(head)
}

/// `θ = [w; b]` of a head, in `f64`.
fn theta_of(head: &LogisticRegression) -> Vec<f64> {
    head.w.iter().chain([&head.b]).map(|&v| f64::from(v)).collect()
}

/// The head at `θ + t·d`, rounded to `f32`.
fn step_of(head: &LogisticRegression, d: &[f64], t: f64) -> LogisticRegression {
    let theta = theta_of(head);
    let mut moved = theta.iter().zip(d).map(|(&v, &di)| (v + t * di) as f32);
    let w = moved.by_ref().take(head.w.len()).collect();
    let b = moved.next().expect("θ carries the bias last");
    LogisticRegression::from_params(w, b)
}

/// The labeled ties as the D-Step reads them: each tie's index into the
/// E-Step's matrices and its label, in universe order. Features are read
/// in place, `m_e` (`‖ n_e` under `context_features`).
struct LabeledRows<'a> {
    ties: Vec<(u32, f32)>,
    m: &'a DenseMatrix,
    contexts: Option<&'a DenseMatrix>,
}

impl<'a> LabeledRows<'a> {
    fn new(universe: &TieUniverse, estep: &'a EStepParams, cfg: &DeepDirectConfig) -> Self {
        let ties: Vec<(u32, f32)> = universe
            .labeled_ties()
            .map(|(i, tie)| (i as u32, tie.label.expect("labeled_ties yields labeled ties")))
            .collect();
        assert!(!ties.is_empty(), "TDL requires at least one directed tie (Definition 1)");
        LabeledRows { ties, m: &estep.m, contexts: cfg.context_features.then_some(&estep.n) }
    }

    /// One pass over the rows: the objective with its L2 term centred on
    /// `anchor`, its gradient and (when `hessian`) its Hessian at `head`.
    /// Chunks are `chunk_size(rows)`
    /// long and fold in chunk order, so the sums are bit-identical at any
    /// pool size.
    fn point(
        &self,
        pool: &Pool,
        head: &LogisticRegression,
        anchor: &[f64],
        l2: f64,
        hessian: bool,
    ) -> NewtonPoint {
        let theta = theta_of(head);
        let dim = theta.len() - 1;
        let n = self.ties.len();
        let sums = pool.par_map_reduce(
            n,
            chunk_size(n),
            |range| {
                let mut sums = NewtonSums::new(dim, hessian);
                let mut x = vec![0.0f64; dim];
                for &(i, y) in &self.ties[range] {
                    let i = i as usize;
                    let (m_part, n_part) = x.split_at_mut(self.m.cols());
                    for (xi, &v) in m_part.iter_mut().zip(self.m.row(i)) {
                        *xi = f64::from(v);
                    }
                    if let Some(ctx) = self.contexts {
                        for (xi, &v) in n_part.iter_mut().zip(ctx.row(i)) {
                            *xi = f64::from(v);
                        }
                    }
                    sums.add(&theta, &x, f64::from(y));
                }
                sums
            },
            NewtonSums::merge,
        );
        sums.expect("at least one labeled tie").finish(&theta, anchor, l2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estep;
    use dd_graph::generators::{social_network, SocialNetConfig};
    use dd_graph::sampling::hide_directions;
    use dd_linalg::logreg::LogRegConfig;
    use dd_linalg::rng::Pcg32;
    use dd_linalg::{cross_entropy, sigmoid64};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (TieUniverse, EStepParams, DeepDirectConfig) {
        let gen_cfg = SocialNetConfig { n_nodes: 120, ..Default::default() };
        let mut grng = StdRng::seed_from_u64(seed);
        let net = social_network(&gen_cfg, &mut grng).network;
        let hidden = hide_directions(&net, 0.5, &mut grng);
        let mut rng = Pcg32::seed_from_u64(seed);
        let u = TieUniverse::build(&hidden.network, 8, &mut rng);
        let cfg = DeepDirectConfig {
            dim: 16,
            max_iterations: Some(50_000),
            ..DeepDirectConfig::default()
        };
        let e = estep::train(&u, &cfg);
        (u, e.params, cfg)
    }

    #[test]
    fn logistic_head_fits_labels() {
        let (u, params, cfg) = setup(1);
        let head = train(&u, &params, &cfg);
        let mut correct = 0;
        let mut total = 0;
        for (i, tie) in u.labeled_ties() {
            let d = head.score(params.m.row(i));
            assert!((0.0..=1.0).contains(&d));
            if (d >= 0.5) == (tie.label.unwrap() >= 0.5) {
                correct += 1;
            }
            total += 1;
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.85, "D-Step train accuracy {acc}");
    }

    #[test]
    fn reverse_pairs_get_complementary_scores() {
        let (u, params, cfg) = setup(3);
        let head = train(&u, &params, &cfg);
        // For a directed tie and its mirror the scores should mostly
        // straddle 0.5 in opposite directions.
        let mut agree = 0usize;
        let mut total = 0usize;
        for (i, tie) in u.labeled_ties() {
            if tie.label == Some(1.0) {
                let rev = u.find(tie.dst, tie.src).unwrap();
                let d_fwd = head.score(params.m.row(i));
                let d_rev = head.score(params.m.row(rev));
                if d_fwd > d_rev {
                    agree += 1;
                }
                total += 1;
            }
        }
        let frac = agree as f64 / total as f64;
        assert!(frac > 0.85, "forward beats mirror on {frac} of ties");
    }

    /// The labeled rows as the D-Step sees them: features (`m_e`, or
    /// `m_e ‖ n_e` under `context_features`) and labels, in universe order.
    fn rows(
        u: &TieUniverse,
        params: &EStepParams,
        cfg: &DeepDirectConfig,
    ) -> (DenseMatrix, Vec<f32>) {
        let mut flat = Vec::new();
        let mut ys = Vec::new();
        for (i, tie) in u.labeled_ties() {
            flat.extend_from_slice(params.m.row(i));
            if cfg.context_features {
                flat.extend_from_slice(params.n.row(i));
            }
            ys.push(tie.label.unwrap());
        }
        (DenseMatrix::from_vec(ys.len(), feature_dim(cfg), flat), ys)
    }

    /// The D-Step objective `mean CE + (l2/2)·‖w − w'‖²` and its gradient
    /// (bias last) at `head`, summed row by row in plain serial `f64`: the
    /// reference the solver is checked against. `w'` is the E-Step's `w`,
    /// zero-extended over the context half under `context_features`.
    fn reference(
        xs: &DenseMatrix,
        ys: &[f32],
        params: &EStepParams,
        l2: f32,
        head: &DirectionalityHead,
    ) -> (f64, Vec<f64>) {
        let DirectionalityHead::Logistic(lr) = head;
        let dim = lr.w.len();
        let mut loss = 0.0;
        let mut grad = vec![0.0; dim + 1];
        for (r, &y) in ys.iter().enumerate() {
            let x = xs.row(r);
            let mut z = f64::from(lr.b);
            for (&w, &v) in lr.w.iter().zip(x) {
                z += f64::from(w) * f64::from(v);
            }
            let (p, y) = (sigmoid64(z), f64::from(y));
            loss += cross_entropy(y, p);
            for (g, &v) in grad.iter_mut().zip(x) {
                *g += (p - y) * f64::from(v);
            }
            grad[dim] += p - y;
        }
        let (n, l2) = (ys.len() as f64, f64::from(l2));
        let mut sq = 0.0;
        for (k, (g, &w)) in grad.iter_mut().zip(&lr.w).enumerate() {
            let off = f64::from(w) - params.w.get(k).map_or(0.0, |&a| f64::from(a));
            *g = *g / n + l2 * off;
            sq += off * off;
        }
        grad[dim] /= n;
        (loss / n + 0.5 * l2 * sq, grad)
    }

    fn bits(head: &DirectionalityHead) -> (Vec<u32>, u32) {
        let DirectionalityHead::Logistic(lr) = head;
        (lr.w.iter().map(|w| w.to_bits()).collect(), lr.b.to_bits())
    }

    #[test]
    fn solved_head_meets_first_order_optimality() {
        for context_features in [false, true] {
            let (u, params, cfg) = setup(5);
            let cfg = DeepDirectConfig { context_features, ..cfg };
            let head = train(&u, &params, &cfg);
            let (xs, ys) = rows(&u, &params, &cfg);
            let (_, grad) = reference(&xs, &ys, &params, cfg.dstep_l2, &head);
            let max = grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));
            assert!(
                max <= GRAD_TOL,
                "context {context_features}: gradient max-norm {max:e} at the head"
            );
        }
    }

    #[test]
    fn head_is_bit_identical_at_any_thread_count() {
        for context_features in [false, true] {
            let (u, params, cfg) = setup(6);
            let fit = |threads| {
                let cfg = DeepDirectConfig { threads, context_features, ..cfg.clone() };
                bits(&train(&u, &params, &cfg))
            };
            let serial = fit(1);
            assert_eq!(fit(2), serial, "context {context_features}: 2 threads");
            assert_eq!(fit(8), serial, "context {context_features}: 8 threads");
        }
    }

    /// The head is rounded to `f32`, which can hide a reduction order that
    /// depends on the pool size, so the pass's `f64` sums are pinned too.
    #[test]
    fn newton_sums_are_bit_identical_at_any_thread_count() {
        for context_features in [false, true] {
            let (u, params, cfg) = setup(9);
            let cfg = DeepDirectConfig { context_features, ..cfg };
            let rows = LabeledRows::new(&u, &params, &cfg);
            let mut w = params.w.clone();
            w.resize(feature_dim(&cfg), 0.25);
            let anchor: Vec<f64> = w.iter().map(|&v| f64::from(v) - 0.5).collect();
            let head = LogisticRegression::from_params(w, params.b);
            let point = |threads| {
                let pool = Pool::new("test", Threads::new(threads).unwrap());
                let at = rows.point(&pool, &head, &anchor, 1e-4, true);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                (at.objective.to_bits(), bits(&at.grad), bits(&at.hess))
            };
            let serial = point(1);
            assert_eq!(point(2), serial, "context {context_features}: 2 threads");
            assert_eq!(point(8), serial, "context {context_features}: 8 threads");
        }
    }

    #[test]
    fn zero_steps_keep_the_warm_start() {
        let (u, params, cfg) = setup(7);
        let cfg = DeepDirectConfig { dstep_epochs: 0, ..cfg };
        let DirectionalityHead::Logistic(lr) = train(&u, &params, &cfg);
        assert_eq!(lr.w, params.w);
        assert_eq!(lr.b.to_bits(), params.b.to_bits());
        let cfg = DeepDirectConfig { context_features: true, ..cfg };
        let DirectionalityHead::Logistic(lr) = train(&u, &params, &cfg);
        assert_eq!(lr.w[..cfg.dim], params.w[..]);
        assert!(lr.w[cfg.dim..].iter().all(|&w| w == 0.0), "the context half starts at zero");
    }

    /// The solve reaches an objective, its own, no higher than the 30
    /// shuffled SGD epochs it replaced, run here with that D-Step's exact
    /// settings (its `l2` was 1e-4).
    #[test]
    fn solved_objective_is_no_higher_than_thirty_sgd_epochs() {
        let (u, params, cfg) = setup(8);
        let (xs, ys) = rows(&u, &params, &cfg);
        let mut sgd = LogisticRegression::from_params(params.w.clone(), params.b);
        let sgd_cfg = LogRegConfig { epochs: 30, lr: 0.05, l2: 1e-4, seed: cfg.seed ^ 0xd5 };
        sgd.fit(&xs, &ys, None, &sgd_cfg);
        let (sgd_objective, _) =
            reference(&xs, &ys, &params, cfg.dstep_l2, &DirectionalityHead::Logistic(sgd));
        let (newton_objective, _) =
            reference(&xs, &ys, &params, cfg.dstep_l2, &train(&u, &params, &cfg));
        assert!(
            newton_objective <= sgd_objective,
            "Newton {newton_objective} vs 30 SGD epochs {sgd_objective}"
        );
    }
}
