//! The D-Step: learning the directionality function from the embeddings
//! (Sec. 4.5.2, Algorithm 1 lines 19–21).
//!
//! The labeled universe ties (directed ties and their mirrors) form the
//! training set; features are the embedding rows `m_e`. The paper's head is
//! a logistic regression with L2 regularization, warm-started from the
//! E-Step's joint classifier `(w', b')`.

use dd_linalg::logreg::{LogRegConfig, LogisticRegression};
use dd_linalg::matrix::DenseMatrix;
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

/// Trains the D-Step head on the labeled ties of the universe.
pub fn train(
    universe: &TieUniverse,
    estep: &EStepParams,
    cfg: &DeepDirectConfig,
) -> DirectionalityHead {
    // One contiguous row per labeled tie, in universe order, so the
    // shuffled SGD gathers from one buffer it can prefetch ahead in.
    let rows = universe.labeled_ties().count();
    let mut flat: Vec<f32> = Vec::with_capacity(rows * feature_dim(cfg));
    let mut ys: Vec<f32> = Vec::with_capacity(rows);
    for (i, tie) in universe.labeled_ties() {
        flat.extend_from_slice(estep.m.row(i));
        if cfg.context_features {
            flat.extend_from_slice(estep.n.row(i));
        }
        ys.push(tie.label.expect("labeled_ties yields labeled ties"));
    }
    assert!(!ys.is_empty(), "TDL requires at least one directed tie (Definition 1)");
    let xs = DenseMatrix::from_vec(rows, feature_dim(cfg), flat);
    // Warm start from (w', b') per Algorithm 1 line 20; the context half
    // (extension) starts at zero.
    let mut w0 = estep.w.clone();
    w0.resize(feature_dim(cfg), 0.0);
    let mut lr = LogisticRegression::from_params(w0, estep.b);
    let logreg_cfg = LogRegConfig {
        epochs: cfg.dstep_epochs,
        lr: 0.05,
        l2: cfg.dstep_l2,
        seed: cfg.seed ^ 0xd5,
    };
    if cfg.observer.is_enabled() {
        let total_epochs = cfg.dstep_epochs as u64;
        lr.fit_with_progress(&xs, &ys, None, &logreg_cfg, &mut |epoch, loss| {
            cfg.observer.on_epoch(&EpochProgress {
                stage: "dstep".to_string(),
                epoch: epoch as u64,
                total_epochs,
                loss,
            });
        });
    } else {
        lr.fit(&xs, &ys, None, &logreg_cfg);
    }
    DirectionalityHead::Logistic(lr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estep;
    use dd_graph::generators::{social_network, SocialNetConfig};
    use dd_graph::sampling::hide_directions;
    use dd_linalg::rng::Pcg32;
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
}
