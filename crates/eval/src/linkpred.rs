//! The link-prediction experiment of Sec. 6.3 (Fig. 8).
//!
//! Protocol: extract 80% of the social ties into a network `G'`; candidate
//! pairs are the 2-hop neighbor pairs of `G'`; pairs connected in the
//! original `G` are positives, the rest negatives. Pairs are ranked by the
//! weighted Jaccard coefficient (Eq. 29) over either the raw adjacency
//! matrix or a directionality adjacency matrix, and ranked quality is
//! measured by ROC-AUC.

use dd_graph::hash::FxHashSet;
use dd_graph::sampling::induced_subnetwork;
use dd_graph::{MixedSocialNetwork, NetworkBuilder, NodeId, TieKind};
use deepdirect::apps::quantify::DirectionalityAdjacency;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::auc::roc_auc;

/// A link-prediction evaluation instance.
pub struct LinkPredInstance {
    /// The 80% training network `G'`.
    pub train: MixedSocialNetwork,
    /// Candidate ordered pairs (2-hop neighbors in `G'`, unconnected in
    /// `G'`).
    pub candidates: Vec<(NodeId, NodeId)>,
    /// Label per candidate: connected in the full network `G`.
    pub labels: Vec<bool>,
}

/// Builds a link-prediction instance from `g`.
///
/// `keep_frac` of the social ties (default protocol: 0.8) form the training
/// network. Candidates are 2-hop pairs in the training network; at most
/// `max_candidates` are kept (sampled uniformly) to bound the evaluation.
pub fn build_instance<R: Rng>(
    g: &MixedSocialNetwork,
    keep_frac: f64,
    max_candidates: usize,
    rng: &mut R,
) -> LinkPredInstance {
    assert!((0.0..=1.0).contains(&keep_frac));
    // Collect social ties (canonical form) and keep a random subset.
    #[derive(Clone, Copy)]
    enum T {
        D(u32, u32),
        B(u32, u32),
        U(u32, u32),
    }
    let mut all: Vec<T> = Vec::with_capacity(g.counts().total());
    for (_, u, v) in g.directed_ties() {
        all.push(T::D(u.0, v.0));
    }
    for (_, u, v) in g.bidirectional_pairs() {
        all.push(T::B(u.0, v.0));
    }
    for (_, u, v) in g.undirected_pairs() {
        all.push(T::U(u.0, v.0));
    }
    all.shuffle(rng);
    let keep = ((all.len() as f64) * keep_frac).round() as usize;
    let keep = keep.clamp(1, all.len());
    let mut b = NetworkBuilder::new(g.n_nodes());
    let mut kept_directed = 0usize;
    for &t in &all[..keep] {
        match t {
            T::D(u, v) => {
                b.add_directed(NodeId(u), NodeId(v)).expect("unique");
                kept_directed += 1;
            }
            T::B(u, v) => {
                b.add_bidirectional(NodeId(u), NodeId(v)).expect("unique");
            }
            T::U(u, v) => {
                b.add_undirected(NodeId(u), NodeId(v)).expect("unique");
            }
        }
    }
    // Guarantee at least one directed tie so G' stays a valid mixed network.
    if kept_directed == 0 {
        for &t in &all[keep..] {
            if let T::D(u, v) = t {
                b.add_directed(NodeId(u), NodeId(v)).expect("unique");
                break;
            }
        }
    }
    let train = b.build().expect("directed tie ensured");

    // 2-hop candidate pairs in G' (undirected view — "all the 2-hop
    // neighbors" of Sec. 6.3), excluding pairs already connected in G'.
    // Each unordered pair appears once; the Jaccard of Eq. 29 is evaluated
    // in both orders at scoring time.
    let mut candidates: Vec<(NodeId, NodeId)> = Vec::new();
    let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
    for u in train.nodes() {
        for &w in train.neighbors(u) {
            for &v in train.neighbors(w) {
                if v == u || train.has_tie_between(u, v) {
                    continue;
                }
                let key = if u < v { (u.0, v.0) } else { (v.0, u.0) };
                if seen.insert(key) {
                    candidates.push((u, v));
                }
            }
        }
    }
    if candidates.len() > max_candidates {
        candidates.shuffle(rng);
        candidates.truncate(max_candidates);
    }
    let labels = candidates.iter().map(|&(u, v)| g.has_tie_between(u, v)).collect();
    LinkPredInstance { train, candidates, labels }
}

impl LinkPredInstance {
    /// Scores all candidates with the weighted Jaccard of Eq. 29 over the
    /// given adjacency matrix and returns the ROC-AUC. Candidates are
    /// unordered pairs, so both orders are scored and summed.
    pub fn auc_with(&self, adjacency: &DirectionalityAdjacency) -> f64 {
        let scores: Vec<f64> = self
            .candidates
            .iter()
            .map(|&(u, v)| adjacency.jaccard(u, v) + adjacency.jaccard(v, u))
            .collect();
        roc_auc(&scores, &self.labels)
    }

    /// AUC using the raw 0/1 adjacency matrix of the training network.
    pub fn auc_unweighted(&self) -> f64 {
        self.auc_with(&DirectionalityAdjacency::unweighted(&self.train))
    }

    /// AUC using the directionality adjacency matrix built from `score`.
    pub fn auc_quantified<F>(&self, score: F) -> f64
    where
        F: FnMut(NodeId, NodeId) -> f64,
    {
        self.auc_with(&DirectionalityAdjacency::quantified(&self.train, score))
    }

    /// Fraction of candidates that are positive (class balance diagnostic).
    pub fn positive_rate(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.labels.iter().filter(|&&l| l).count() as f64 / self.labels.len() as f64
    }
}

/// Convenience: sub-sample `g` to `target_nodes` before building an
/// instance (the Fig. 8 experiments run on BFS samples).
pub fn build_instance_sampled<R: Rng>(
    g: &MixedSocialNetwork,
    target_nodes: usize,
    keep_frac: f64,
    max_candidates: usize,
    rng: &mut R,
) -> LinkPredInstance {
    if g.n_nodes() <= target_nodes {
        return build_instance(g, keep_frac, max_candidates, rng);
    }
    let order = dd_graph::traversal::bfs_order(
        g,
        NodeId(rng.gen_range(0..g.n_nodes() as u32)),
        target_nodes,
    );
    let (sub, _) = induced_subnetwork(g, &order);
    // The induced sub-network may lack directed ties only in pathological
    // cases; fall back to the full network then.
    if sub.counts().directed == 0 {
        return build_instance(g, keep_frac, max_candidates, rng);
    }
    build_instance(&sub, keep_frac, max_candidates, rng)
}

/// Returns true when over half the social ties of `g` are bidirectional —
/// the rule Sec. 6.3 uses to select datasets for the experiment.
pub fn is_bidirectional_heavy(g: &MixedSocialNetwork) -> bool {
    let c = g.counts();
    let _ = TieKind::Bidirectional; // (documents which kind the test is about)
    c.bidirectional * 2 > c.total()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_graph::generators::{social_network, SocialNetConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64, reciprocity: f64) -> MixedSocialNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        social_network(
            &SocialNetConfig { n_nodes: 300, reciprocity, closure_prob: 0.5, ..Default::default() },
            &mut rng,
        )
        .network
    }

    #[test]
    fn instance_has_candidates_and_positives() {
        let g = net(1, 0.5);
        let mut rng = StdRng::seed_from_u64(2);
        let inst = build_instance(&g, 0.8, 20_000, &mut rng);
        assert!(!inst.candidates.is_empty());
        let pr = inst.positive_rate();
        assert!(pr > 0.0 && pr < 1.0, "positive rate {pr} must be mixed");
        // Training network keeps roughly 80% of ties.
        let frac = inst.train.counts().total() as f64 / g.counts().total() as f64;
        assert!((frac - 0.8).abs() < 0.02);
    }

    #[test]
    fn jaccard_ranking_beats_random() {
        let g = net(3, 0.5);
        let mut rng = StdRng::seed_from_u64(4);
        let inst = build_instance(&g, 0.8, 20_000, &mut rng);
        let auc = inst.auc_unweighted();
        assert!(auc > 0.5, "raw Jaccard AUC {auc} should beat random");
    }

    #[test]
    fn quantified_matrix_changes_scores() {
        let g = net(5, 0.6);
        let mut rng = StdRng::seed_from_u64(6);
        let inst = build_instance(&g, 0.8, 10_000, &mut rng);
        let raw = inst.auc_unweighted();
        let weighted = inst.auc_quantified(|_, _| 0.5);
        // Both are valid AUCs; constant reweighting of bidirectional cells
        // shifts path weights and therefore the ranking.
        assert!((0.0..=1.0).contains(&raw));
        assert!((0.0..=1.0).contains(&weighted));
    }

    #[test]
    fn candidate_cap_is_respected() {
        let g = net(7, 0.5);
        let mut rng = StdRng::seed_from_u64(8);
        let inst = build_instance(&g, 0.8, 100, &mut rng);
        assert!(inst.candidates.len() <= 100);
        assert_eq!(inst.candidates.len(), inst.labels.len());
    }

    #[test]
    fn bidirectional_heavy_detection() {
        assert!(is_bidirectional_heavy(&net(9, 0.7)));
        assert!(!is_bidirectional_heavy(&net(10, 0.1)));
    }

    #[test]
    fn sampled_instance_respects_target() {
        let g = net(11, 0.5);
        let mut rng = StdRng::seed_from_u64(12);
        let inst = build_instance_sampled(&g, 100, 0.8, 5_000, &mut rng);
        assert_eq!(inst.train.n_nodes(), 100);
    }
}
