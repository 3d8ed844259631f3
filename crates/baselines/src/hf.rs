//! The handcrafted-feature baseline **HF** (Sec. 3 of the paper).
//!
//! Features for an ordered tie `(u, v)`:
//!
//! * 4 degree features: `deg_out(u)`, `deg_out(v)`, `deg_in(u)`, `deg_in(v)`
//!   under the mixed definitions of Eqs. 1–2,
//! * 4 centrality features: closeness and betweenness of both endpoints
//!   (Eqs. 3–4, undirected view),
//! * 16 directed triad counts `ee_1..ee_16` (Sec. 3.1).
//!
//! The directionality function is a logistic regression (Eq. 5) trained on
//! two instances per directed tie — `(u, v)` with label 1 and `(v, u)` with
//! label 0 — over standardized features.

use std::sync::Arc;

use dd_graph::centrality::{
    betweenness_all_threads, betweenness_sampled_threads, closeness_all_threads,
    closeness_sampled_threads,
};
use dd_graph::degrees::all_mixed_degrees;
use dd_graph::triads::{triad_counts, N_TRIAD_TYPES};
use dd_graph::{MixedSocialNetwork, NodeId};
use dd_linalg::logreg::{LogRegConfig, LogisticRegression};
use dd_linalg::matrix::DenseMatrix;
use dd_linalg::scaler::StandardScaler;
use dd_runtime::{chunk_size, Pool, Threads};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::traits::{DirectionalityLearner, TieScorer};

/// Number of handcrafted features per ordered tie.
pub const N_FEATURES: usize = 8 + N_TRIAD_TYPES;

/// Configuration for the HF baseline.
#[derive(Debug, Clone)]
pub struct HfConfig {
    /// Number of pivot sources for sampled centrality; `None` = exact
    /// (one BFS per node — fine up to a few thousand nodes).
    pub centrality_samples: Option<usize>,
    /// Logistic regression training parameters.
    pub logreg: LogRegConfig,
    /// Seed for centrality pivot sampling.
    pub seed: u64,
    /// Worker threads for centrality and feature extraction. Must be at
    /// least 1 (see [`HfConfig::validate`]); results are bit-identical at
    /// any thread count (DESIGN.md §7.9).
    pub threads: usize,
}

impl Default for HfConfig {
    fn default() -> Self {
        HfConfig {
            centrality_samples: Some(64),
            logreg: LogRegConfig::default(),
            seed: 0x4f5,
            threads: 1,
        }
    }
}

impl HfConfig {
    /// Validates the configuration, rejecting `threads == 0`.
    pub fn validate(&self) -> Result<(), String> {
        Threads::new(self.threads).map_err(|e| format!("HfConfig.threads: {e}"))?;
        Ok(())
    }

    fn threads(&self) -> Threads {
        Threads::new(self.threads).expect("HfConfig.threads is zero; call validate() first")
    }
}

/// Precomputed per-node statistics reused across feature extractions.
#[derive(Debug, Clone)]
pub struct NodeStats {
    /// `deg_out` per node (Eq. 1).
    pub deg_out: Vec<f64>,
    /// `deg_in` per node (Eq. 2).
    pub deg_in: Vec<f64>,
    /// Closeness centrality per node (Eq. 3).
    pub closeness: Vec<f64>,
    /// Betweenness centrality per node (Eq. 4).
    pub betweenness: Vec<f64>,
}

impl NodeStats {
    /// Computes all per-node statistics for `g`, running the centrality
    /// BFS passes on `cfg.threads` workers.
    pub fn compute(g: &MixedSocialNetwork, cfg: &HfConfig) -> Self {
        let threads = cfg.threads();
        let (deg_out, deg_in) = all_mixed_degrees(g);
        let (closeness, betweenness) = match cfg.centrality_samples {
            None => (closeness_all_threads(g, threads), betweenness_all_threads(g, threads)),
            Some(k) => {
                // Pivot draws happen serially before the parallel BFS
                // passes, so estimates depend only on the seed.
                let mut rng = StdRng::seed_from_u64(cfg.seed);
                (
                    closeness_sampled_threads(g, k, &mut rng, threads),
                    betweenness_sampled_threads(g, k, &mut rng, threads),
                )
            }
        };
        NodeStats { deg_out, deg_in, closeness, betweenness }
    }
}

/// Extracts the raw (unscaled) feature vector `x_{uv}` for the ordered tie
/// `(u, v)`.
pub fn tie_features(g: &MixedSocialNetwork, stats: &NodeStats, u: NodeId, v: NodeId) -> Vec<f32> {
    let mut x = Vec::with_capacity(N_FEATURES);
    x.push(stats.deg_out[u.index()] as f32);
    x.push(stats.deg_out[v.index()] as f32);
    x.push(stats.deg_in[u.index()] as f32);
    x.push(stats.deg_in[v.index()] as f32);
    x.push(stats.closeness[u.index()] as f32);
    x.push(stats.closeness[v.index()] as f32);
    x.push(stats.betweenness[u.index()] as f32);
    x.push(stats.betweenness[v.index()] as f32);
    for c in triad_counts(g, u, v) {
        x.push(c as f32);
    }
    x
}

/// Builds the HF training matrix on a caller-owned pool: two instances per
/// directed tie — `(u, v)` labelled 1 and `(v, u)` labelled 0 (Sec. 3.2) —
/// in the deterministic order fwd/rev per tie, ties in graph order.
///
/// Feature rows are pure functions of the (read-only) graph and stats, so
/// the matrix is bit-identical at any thread count.
pub fn training_matrix(
    g: &MixedSocialNetwork,
    stats: &NodeStats,
    pool: &Pool,
) -> (Vec<Vec<f32>>, Vec<f32>) {
    let ordered: Vec<(NodeId, NodeId)> = g.directed_ties().map(|(_, u, v)| (u, v)).collect();
    let n_rows = 2 * ordered.len();
    let xs = pool.par_map(n_rows, |i| {
        let (u, v) = ordered[i / 2];
        if i % 2 == 0 {
            tie_features(g, stats, u, v)
        } else {
            tie_features(g, stats, v, u)
        }
    });
    let ys = (0..n_rows).map(|i| if i % 2 == 0 { 1.0 } else { 0.0 }).collect();
    (xs, ys)
}

/// The HF learner.
#[derive(Debug, Clone, Default)]
pub struct HfLearner {
    /// Configuration.
    pub config: HfConfig,
}

impl HfLearner {
    /// Creates an HF learner with the given configuration.
    pub fn new(config: HfConfig) -> Self {
        HfLearner { config }
    }
}

/// A fitted HF directionality function.
pub struct HfScorer {
    graph: Arc<MixedSocialNetwork>,
    stats: NodeStats,
    scaler: StandardScaler,
    model: LogisticRegression,
}

impl HfScorer {
    /// Training accuracy on the labeled instances (diagnostic).
    pub fn model(&self) -> &LogisticRegression {
        &self.model
    }
}

impl TieScorer for HfScorer {
    fn score(&self, u: NodeId, v: NodeId) -> f64 {
        if u.index() >= self.graph.n_nodes() || v.index() >= self.graph.n_nodes() {
            return 0.5;
        }
        let mut x = tie_features(&self.graph, &self.stats, u, v);
        self.scaler.transform_row(&mut x);
        self.model.predict_proba(&x) as f64
    }
}

impl DirectionalityLearner for HfLearner {
    fn fit(&self, g: &MixedSocialNetwork) -> Box<dyn TieScorer> {
        self.config.validate().expect("invalid HfConfig");
        let stats = NodeStats::compute(g, &self.config);
        let pool = Pool::new("hf.features", self.config.threads());
        let (xs, ys) = training_matrix(g, &stats, &pool);
        assert!(!xs.is_empty(), "HF requires directed ties for training");
        let scaler = StandardScaler::fit(&xs);
        let mut scaled = DenseMatrix::from_vec(ys.len(), N_FEATURES, xs.concat());
        let rows_per_chunk = chunk_size(ys.len());
        pool.par_chunks_mut(scaled.as_mut_slice(), rows_per_chunk * N_FEATURES, |_, rows| {
            for row in rows.chunks_exact_mut(N_FEATURES) {
                scaler.transform_row(row);
            }
        });
        let mut model = LogisticRegression::new(N_FEATURES);
        model.fit(&scaled, &ys, None, &self.config.logreg);
        Box::new(HfScorer { graph: Arc::new(g.clone()), stats, scaler, model })
    }

    fn name(&self) -> &'static str {
        "HF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_graph::generators::{social_network, SocialNetConfig};
    use dd_graph::sampling::hide_directions;

    fn hidden_net(seed: u64) -> (MixedSocialNetwork, Vec<(NodeId, NodeId)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gen = SocialNetConfig { n_nodes: 200, ..Default::default() };
        let g = social_network(&gen, &mut rng).network;
        let h = hide_directions(&g, 0.5, &mut rng);
        (h.network, h.truth)
    }

    #[test]
    fn feature_vector_shape_and_asymmetry() {
        let (g, _) = hidden_net(1);
        let cfg = HfConfig::default();
        let stats = NodeStats::compute(&g, &cfg);
        let (_, u, v) = g.directed_ties().next().unwrap();
        let fwd = tie_features(&g, &stats, u, v);
        let rev = tie_features(&g, &stats, v, u);
        assert_eq!(fwd.len(), N_FEATURES);
        assert_eq!(rev.len(), N_FEATURES);
        // Degree features swap when the order swaps.
        assert_eq!(fwd[0], rev[1]);
        assert_eq!(fwd[2], rev[3]);
        assert_eq!(fwd[4], rev[5]);
    }

    #[test]
    fn learns_directions_better_than_chance() {
        let (g, truth) = hidden_net(2);
        let scorer = HfLearner::default().fit(&g);
        let mut correct = 0usize;
        for &(u, v) in &truth {
            if scorer.score(u, v) >= scorer.score(v, u) {
                correct += 1;
            }
        }
        let acc = correct as f64 / truth.len() as f64;
        assert!(acc > 0.6, "HF accuracy {acc} should beat chance");
    }

    #[test]
    fn scores_are_probabilities_and_safe() {
        let (g, _) = hidden_net(3);
        let scorer = HfLearner::default().fit(&g);
        for (_, t) in g.iter_ties().take(20) {
            let d = scorer.score(t.src, t.dst);
            assert!((0.0..=1.0).contains(&d));
        }
        // Out-of-range nodes are neutral, not a panic.
        assert_eq!(scorer.score(NodeId(10_000), NodeId(0)), 0.5);
    }

    #[test]
    fn validate_rejects_zero_threads() {
        let cfg = HfConfig { threads: 0, ..Default::default() };
        assert!(cfg.validate().is_err());
        assert!(HfConfig::default().validate().is_ok());
    }

    #[test]
    fn training_matrix_is_bit_identical_across_thread_counts() {
        let (g, _) = hidden_net(6);
        let base = HfConfig::default();
        let stats1 = NodeStats::compute(&g, &base);
        let (xs1, ys1) = training_matrix(&g, &stats1, &Pool::new("t", Threads::serial()));
        for threads in [2, 8] {
            let cfg = HfConfig { threads, ..Default::default() };
            let stats = NodeStats::compute(&g, &cfg);
            assert!(stats
                .betweenness
                .iter()
                .zip(&stats1.betweenness)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            let pool = Pool::new("t", Threads::new(threads).unwrap());
            let (xs, ys) = training_matrix(&g, &stats, &pool);
            assert_eq!(ys, ys1);
            assert_eq!(xs, xs1, "threads={threads}");
        }
    }

    #[test]
    fn exact_centrality_mode_works() {
        let (g, truth) = hidden_net(4);
        let learner = HfLearner::new(HfConfig { centrality_samples: None, ..Default::default() });
        let scorer = learner.fit(&g);
        let mut correct = 0usize;
        for &(u, v) in &truth {
            if scorer.score(u, v) >= scorer.score(v, u) {
                correct += 1;
            }
        }
        assert!(correct as f64 / truth.len() as f64 > 0.6);
        assert_eq!(learner.name(), "HF");
    }
}
