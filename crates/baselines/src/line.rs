//! The **LINE** baseline (Tang et al., WWW 2015) — node-based network
//! embedding with first- and second-order proximity, used as the paper's
//! representative node-embedding comparator (Sec. 6.1).
//!
//! Following the paper's protocol, node vectors of dimension `l` are learned
//! (half first-order, half second-order, concatenated per node — the
//! standard LINE recipe), and a social tie `(u, v)` is represented by the
//! concatenation of the two endpoint vectors (`2l` features). A logistic
//! regression on these features learns the directionality function.
//!
//! First-order proximity treats every social tie symmetrically
//! (`σ(u_i · u_j)`); second-order models directed co-occurrence through
//! separate context vectors. Both are trained with edge sampling plus
//! negative sampling from `P_n(v) ∝ deg(v)^{3/4}`.

use dd_graph::{MixedSocialNetwork, NodeId};
use dd_linalg::activations::sigmoid;
use dd_linalg::alias::AliasTable;
use dd_linalg::logreg::{LogRegConfig, LogisticRegression};
use dd_linalg::matrix::DenseMatrix;
use dd_linalg::rng::Pcg32;
use dd_linalg::vecops::dot;

use crate::traits::{DirectionalityLearner, TieScorer};

/// Configuration for the LINE baseline.
#[derive(Debug, Clone)]
pub struct LineConfig {
    /// Node embedding dimension `l` (split evenly between first- and
    /// second-order halves). The paper uses `l = 64` so that the
    /// concatenated edge feature matches DeepDirect's 128 dimensions.
    pub dim: usize,
    /// Negative samples per edge draw.
    pub negatives: usize,
    /// Total edge-sampling iterations per order; `None` = `tau · |E|`.
    pub max_iterations: Option<u64>,
    /// Epoch multiplier when `max_iterations` is `None`.
    pub tau: f64,
    /// Initial learning rate (linearly decayed).
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
    /// Logistic regression training parameters for the directionality head.
    pub logreg: LogRegConfig,
}

impl Default for LineConfig {
    fn default() -> Self {
        LineConfig {
            dim: 64,
            negatives: 5,
            max_iterations: None,
            tau: 10.0,
            lr: 0.05,
            seed: 0x11e,
            logreg: LogRegConfig::default(),
        }
    }
}

/// The LINE learner.
#[derive(Debug, Clone, Default)]
pub struct LineLearner {
    /// Configuration.
    pub config: LineConfig,
}

impl LineLearner {
    /// Creates a LINE learner with the given configuration.
    pub fn new(config: LineConfig) -> Self {
        LineLearner { config }
    }

    /// Trains the node embeddings and returns the per-node vectors
    /// (first-order half ++ second-order half).
    pub fn embed(&self, g: &MixedSocialNetwork) -> DenseMatrix {
        let cfg = &self.config;
        let half = (cfg.dim / 2).max(1);
        let n = g.n_nodes();
        let mut rng = Pcg32::seed_from_u64(cfg.seed);

        // Edge list over ordered instances; uniform edge sampling.
        let edges: Vec<(u32, u32)> = g.iter_ties().map(|(_, t)| (t.src.0, t.dst.0)).collect();
        if edges.is_empty() {
            return DenseMatrix::zeros(n, 2 * half);
        }
        let node_weights: Vec<f64> =
            (0..n).map(|i| g.social_degree(NodeId(i as u32)) as f64).collect();
        let pn = AliasTable::unigram_pow(&node_weights, 0.75);

        let total = cfg
            .max_iterations
            .unwrap_or_else(|| (cfg.tau * edges.len() as f64).round() as u64)
            .max(1);

        // --- First order: symmetric σ(u_i · u_j) over node vectors ---
        let mut v1 = DenseMatrix::uniform_init(n, half, &mut rng);
        let mut grad = vec![0.0f32; half];
        for it in 0..total {
            let lr = cfg.lr * (1.0 - it as f32 / total as f32).max(1e-4);
            let (a, b) = edges[rng.gen_range(edges.len())];
            let (a, b) = (a as usize, b as usize);
            if a == b {
                continue;
            }
            grad.iter_mut().for_each(|x| *x = 0.0);
            {
                let (ra, rb) = v1.two_rows_mut(a, b);
                let gpos = sigmoid(dot(ra, rb)) - 1.0;
                for d in 0..half {
                    grad[d] += gpos * rb[d];
                    rb[d] -= lr * gpos * ra[d];
                }
            }
            for _ in 0..cfg.negatives {
                let c = pn.sample(&mut rng);
                if c == a || c == b {
                    continue;
                }
                let (ra, rc) = v1.two_rows_mut(a, c);
                let gneg = sigmoid(dot(ra, rc));
                for d in 0..half {
                    grad[d] += gneg * rc[d];
                    rc[d] -= lr * gneg * ra[d];
                }
            }
            let ra = v1.row_mut(a);
            for d in 0..half {
                ra[d] -= lr * grad[d];
            }
        }

        // --- Second order: directed, with context vectors ---
        let mut v2 = DenseMatrix::uniform_init(n, half, &mut rng);
        let mut ctx = DenseMatrix::zeros(n, half);
        for it in 0..total {
            let lr = cfg.lr * (1.0 - it as f32 / total as f32).max(1e-4);
            let (a, b) = edges[rng.gen_range(edges.len())];
            let (a, b) = (a as usize, b as usize);
            grad.iter_mut().for_each(|x| *x = 0.0);
            {
                let ra = v2.row(a);
                let cb = ctx.row_mut(b);
                let gpos = sigmoid(dot(ra, cb)) - 1.0;
                for d in 0..half {
                    grad[d] += gpos * cb[d];
                    cb[d] -= lr * gpos * ra[d];
                }
            }
            for _ in 0..cfg.negatives {
                let c = pn.sample(&mut rng);
                if c == b {
                    continue;
                }
                let ra = v2.row(a);
                let cc = ctx.row_mut(c);
                let gneg = sigmoid(dot(ra, cc));
                for d in 0..half {
                    grad[d] += gneg * cc[d];
                    cc[d] -= lr * gneg * ra[d];
                }
            }
            let ra = v2.row_mut(a);
            for d in 0..half {
                ra[d] -= lr * grad[d];
            }
        }

        // Concatenate halves per node.
        DenseMatrix::from_fn(
            n,
            2 * half,
            |r, c| {
                if c < half {
                    v1.get(r, c)
                } else {
                    v2.get(r, c - half)
                }
            },
        )
    }
}

/// A fitted LINE directionality function: edge features are endpoint-vector
/// concatenations scored by a logistic regression.
pub struct LineScorer {
    nodes: DenseMatrix,
    model: LogisticRegression,
}

impl LineScorer {
    fn features(&self, u: NodeId, v: NodeId) -> Vec<f32> {
        let dim = self.nodes.cols();
        let mut x = Vec::with_capacity(2 * dim);
        x.extend_from_slice(self.nodes.row(u.index()));
        x.extend_from_slice(self.nodes.row(v.index()));
        x
    }
}

impl TieScorer for LineScorer {
    fn score(&self, u: NodeId, v: NodeId) -> f64 {
        if u.index() >= self.nodes.rows() || v.index() >= self.nodes.rows() {
            return 0.5;
        }
        self.model.predict_proba(&self.features(u, v)) as f64
    }
}

impl DirectionalityLearner for LineLearner {
    fn fit(&self, g: &MixedSocialNetwork) -> Box<dyn TieScorer> {
        let nodes = self.embed(g);
        let dim = nodes.cols();
        let rows = 2 * g.counts().directed;
        let mut flat: Vec<f32> = Vec::with_capacity(rows * 2 * dim);
        let mut ys: Vec<f32> = Vec::with_capacity(rows);
        for (_, u, v) in g.directed_ties() {
            for (a, b, y) in [(u, v, 1.0), (v, u, 0.0)] {
                flat.extend_from_slice(nodes.row(a.index()));
                flat.extend_from_slice(nodes.row(b.index()));
                ys.push(y);
            }
        }
        assert!(!ys.is_empty(), "LINE requires directed ties for training");
        let xs = DenseMatrix::from_vec(ys.len(), 2 * dim, flat);
        let mut model = LogisticRegression::new(2 * dim);
        model.fit(&xs, &ys, None, &self.config.logreg);
        Box::new(LineScorer { nodes, model })
    }

    fn name(&self) -> &'static str {
        "LINE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_graph::generators::{social_network, SocialNetConfig};
    use dd_graph::sampling::hide_directions;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_cfg() -> LineConfig {
        LineConfig { dim: 16, max_iterations: Some(80_000), ..Default::default() }
    }

    #[test]
    fn embeddings_have_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = social_network(&SocialNetConfig { n_nodes: 100, ..Default::default() }, &mut rng)
            .network;
        let e = LineLearner::new(quick_cfg()).embed(&g);
        assert_eq!(e.rows(), 100);
        assert_eq!(e.cols(), 16);
        // Vectors are not all zero after training.
        assert!(e.as_slice().iter().any(|&x| x.abs() > 1e-4));
    }

    #[test]
    fn neighbors_are_closer_than_strangers() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = social_network(&SocialNetConfig { n_nodes: 150, ..Default::default() }, &mut rng)
            .network;
        let e = LineLearner::new(quick_cfg()).embed(&g);
        use dd_linalg::vecops::{norm2, sq_dist};
        let cos = |a: &[f32], b: &[f32]| dot(a, b) / (norm2(a) * norm2(b)).max(1e-9);
        let _ = sq_dist;
        let mut adj_sum = 0.0;
        let mut adj_n = 0;
        for (_, t) in g.iter_ties().take(300) {
            adj_sum += cos(e.row(t.src.index()), e.row(t.dst.index())) as f64;
            adj_n += 1;
        }
        let mut rnd_sum = 0.0;
        let mut rnd_n = 0;
        use rand::Rng;
        for _ in 0..300 {
            let a = rng.gen_range(0..150usize);
            let b = rng.gen_range(0..150usize);
            if a == b || g.has_tie_between(NodeId(a as u32), NodeId(b as u32)) {
                continue;
            }
            rnd_sum += cos(e.row(a), e.row(b)) as f64;
            rnd_n += 1;
        }
        let adj = adj_sum / adj_n as f64;
        let rnd = rnd_sum / rnd_n as f64;
        assert!(adj > rnd, "adjacent cos {adj} should exceed random {rnd}");
    }

    #[test]
    fn learns_directions_better_than_chance() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = social_network(&SocialNetConfig { n_nodes: 200, ..Default::default() }, &mut rng)
            .network;
        let h = hide_directions(&g, 0.5, &mut rng);
        let scorer = LineLearner::new(quick_cfg()).fit(&h.network);
        let mut correct = 0usize;
        for &(u, v) in &h.truth {
            if scorer.score(u, v) >= scorer.score(v, u) {
                correct += 1;
            }
        }
        let acc = correct as f64 / h.truth.len() as f64;
        assert!(acc > 0.55, "LINE accuracy {acc} should beat chance");
    }

    #[test]
    fn out_of_range_is_neutral() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = social_network(&SocialNetConfig { n_nodes: 60, ..Default::default() }, &mut rng)
            .network;
        let scorer = LineLearner::new(quick_cfg()).fit(&g);
        assert_eq!(scorer.score(NodeId(100), NodeId(0)), 0.5);
    }
}
