//! Fold-in inference: scoring ordered pairs that were **not** in the
//! training network.
//!
//! The paper's model only defines `d(e)` for embedded ties. For a new pair
//! `(u, v)` (e.g. a candidate link), we exploit the structure of the
//! connected-tie objective: at convergence the embedding of a tie `(x, v)`
//! aligns with the connection vectors of the out-ties of its head `v`, so
//! all ties sharing the head `v` cluster together. A new tie `(u, v)` would
//! land in that cluster; its fold-in embedding is therefore the mean of the
//! trained embeddings of the existing in-ties of `v`, excluding the pair
//! `(u, v)` itself — which can already be embedded as the universe mirror
//! of a trained `(v, u)` tie — so the estimate never leaks the very edge
//! being scored. (The reverse pair `(v, u)` points into `u`, not `v`, so it
//! is never part of `v`'s head cluster in the first place.)
//!
//! This is an extension of this implementation (documented in DESIGN.md §6),
//! not part of the paper.
//!
//! This module keeps the old pairwise definition: the f32 mean of the
//! in-row embeddings, through the head. Served fold-in never has a row to
//! leave out, so the system scores a head once, as the sigmoid of the mean
//! in-row logit ([`ScoreTable::head_score`](crate::ScoreTable::head_score)),
//! which agrees with this to within 1e-6. Nothing in the system calls this
//! module; it stays only while perfbench's `foldin.*` layers time
//! [`FoldInIndex`] (ROADMAP item 3). Its index holds a slot per node id up
//! to the largest, so a model whose ids reach near `u32::MAX` cannot be
//! scored here.

use dd_graph::NodeId;

use crate::model::DirectionalityModel;

/// Owned per-head index of embedded ties, decoupled from any model borrow:
/// the old pairwise fold-in (see the [module docs](self)), kept for
/// perfbench's `foldin.*` layers.
///
/// [`FoldInScorer`] wraps this with a borrowed model for one-shot use.
/// All methods take the model explicitly — callers must pass the same model
/// the index was built from (row numbers are meaningless across models).
pub struct FoldInIndex {
    /// For each node id, the embedding rows of ties pointing *into* it.
    in_rows: Vec<Vec<u32>>,
}

impl FoldInIndex {
    /// Builds the per-head in-tie index (`O(|ties|)`), under a
    /// `foldin.build` telemetry span when the model's config carries an
    /// observer.
    pub fn build(model: &DirectionalityModel) -> Self {
        let (index, _) = model.config().observer.time("foldin.build", || {
            let max_node =
                model.ties().iter().map(|&(u, v)| u.max(v)).max().map_or(0, |m| m as usize + 1);
            let mut in_rows: Vec<Vec<u32>> = vec![Vec::new(); max_node];
            for (row, &(_, dst)) in model.ties().iter().enumerate() {
                in_rows[dst as usize].push(row as u32);
            }
            FoldInIndex { in_rows }
        });
        index
    }

    /// Buffer-reusing fold-in: writes the mean embedding of `v`'s in-ties
    /// (excluding the pair `(u, v)` itself) into `acc` and returns `true`,
    /// or returns `false` when `v` has no usable in-ties (leaving `acc`
    /// cleared). Reusing `acc` across calls makes this allocation-free; the
    /// arithmetic is identical to the allocating
    /// [`FoldInScorer::foldin_embedding`], bit for bit.
    pub fn foldin_embedding_into(
        &self,
        model: &DirectionalityModel,
        u: NodeId,
        v: NodeId,
        acc: &mut Vec<f32>,
    ) -> bool {
        acc.clear();
        let Some(rows) = self.in_rows.get(v.index()) else { return false };
        acc.resize(model.dim(), 0.0);
        let mut count = 0usize;
        for &row in rows {
            let (src, _) = model.ties()[row as usize];
            if src == u.0 {
                continue;
            }
            for (a, &b) in acc.iter_mut().zip(model.embedding_row(row as usize)) {
                *a += b;
            }
            count += 1;
        }
        if count == 0 {
            acc.clear();
            return false;
        }
        for a in acc.iter_mut() {
            *a /= count as f32;
        }
        true
    }

    /// Directionality value for any ordered pair: exact when embedded,
    /// fold-in otherwise, `0.5` when nothing is known about the head.
    /// `scratch` is the reusable fold-in buffer (see
    /// [`foldin_embedding_into`](Self::foldin_embedding_into)).
    ///
    /// Fold-in scoring uses the embedding half of the feature vector only;
    /// under the `context_features` extension the context half is
    /// approximated by zeros (its warm-start value).
    pub fn score_into(
        &self,
        model: &DirectionalityModel,
        u: NodeId,
        v: NodeId,
        scratch: &mut Vec<f32>,
    ) -> f64 {
        if let Some(d) = model.score(u, v) {
            return d;
        }
        self.foldin_score_into(model, u, v, scratch).unwrap_or(0.5)
    }

    /// Pure fold-in score (never consults the exact path): `None` when the
    /// head has no usable in-ties.
    pub fn foldin_score_into(
        &self,
        model: &DirectionalityModel,
        u: NodeId,
        v: NodeId,
        scratch: &mut Vec<f32>,
    ) -> Option<f64> {
        if !self.foldin_embedding_into(model, u, v, scratch) {
            return None;
        }
        if model.config().context_features {
            scratch.resize(2 * model.config().dim, 0.0);
        }
        Some(model.head().score(scratch))
    }
}

/// Fold-in scorer over a trained [`DirectionalityModel`].
///
/// Builds a per-head index of embedded ties once, then scores arbitrary
/// ordered pairs: known pairs exactly, unknown pairs via head-cluster
/// fold-in, and pairs with an unseen head neutrally (`0.5`).
pub struct FoldInScorer<'m> {
    model: &'m DirectionalityModel,
    index: FoldInIndex,
}

impl<'m> FoldInScorer<'m> {
    /// Builds the fold-in index (`O(|ties|)`), under a `foldin.build`
    /// telemetry span when the model's config carries an observer.
    pub fn new(model: &'m DirectionalityModel) -> Self {
        FoldInScorer { model, index: FoldInIndex::build(model) }
    }

    /// The fold-in embedding for an *unseen* pair `(u, v)`: the mean
    /// embedding of `v`'s existing in-ties, excluding the pair `(u, v)`
    /// itself. Returns `None` when `v` has no usable in-ties.
    ///
    /// Allocates a fresh buffer per call; hot paths should hold a scratch
    /// `Vec<f32>` and use [`foldin_embedding_into`](Self::foldin_embedding_into).
    pub fn foldin_embedding(&self, u: NodeId, v: NodeId) -> Option<Vec<f32>> {
        let mut acc = Vec::new();
        if self.index.foldin_embedding_into(self.model, u, v, &mut acc) {
            Some(acc)
        } else {
            None
        }
    }

    /// Buffer-reusing variant of [`foldin_embedding`](Self::foldin_embedding);
    /// see [`FoldInIndex::foldin_embedding_into`].
    pub fn foldin_embedding_into(&self, u: NodeId, v: NodeId, acc: &mut Vec<f32>) -> bool {
        self.index.foldin_embedding_into(self.model, u, v, acc)
    }

    /// Directionality value for any ordered pair: exact when embedded,
    /// fold-in otherwise, `0.5` when nothing is known about the head.
    ///
    /// Routed through the buffer-reusing path ([`score_into`](Self::score_into))
    /// so both spellings share one code path and stay bit-identical.
    pub fn score(&self, u: NodeId, v: NodeId) -> f64 {
        let mut scratch = Vec::new();
        self.score_into(u, v, &mut scratch)
    }

    /// Buffer-reusing variant of [`score`](Self::score) for hot loops;
    /// see [`FoldInIndex::score_into`].
    pub fn score_into(&self, u: NodeId, v: NodeId, scratch: &mut Vec<f32>) -> f64 {
        self.index.score_into(self.model, u, v, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeepDirect, DeepDirectConfig};
    use dd_graph::generators::{social_network, SocialNetConfig};
    use dd_graph::sampling::induced_subnetwork;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trained_model() -> (dd_graph::MixedSocialNetwork, DirectionalityModel) {
        let mut rng = StdRng::seed_from_u64(31);
        let g = social_network(&SocialNetConfig { n_nodes: 150, ..Default::default() }, &mut rng)
            .network;
        let cfg = DeepDirectConfig {
            dim: 16,
            max_iterations: Some(400_000),
            seed: 31,
            ..Default::default()
        };
        let model = DeepDirect::new(cfg).fit(&g);
        (g, model)
    }

    #[test]
    fn known_pairs_score_exactly() {
        let (g, model) = trained_model();
        let scorer = FoldInScorer::new(&model);
        for (_, t) in g.iter_ties().take(30) {
            assert_eq!(scorer.score(t.src, t.dst), model.score(t.src, t.dst).unwrap());
        }
    }

    #[test]
    fn unseen_pairs_get_foldin_scores() {
        let (g, model) = trained_model();
        let scorer = FoldInScorer::new(&model);
        // Find a non-adjacent pair where the head has in-ties.
        let mut tested = 0;
        'outer: for u in g.nodes() {
            for v in g.nodes() {
                if u == v || g.has_tie_between(u, v) {
                    continue;
                }
                if g.in_ties(v).is_empty() {
                    continue;
                }
                assert!(model.score(u, v).is_none(), "pair should be unseen");
                let d = scorer.score(u, v);
                assert!((0.0..=1.0).contains(&d));
                assert!(scorer.foldin_embedding(u, v).is_some());
                tested += 1;
                if tested > 10 {
                    break 'outer;
                }
            }
        }
        assert!(tested > 0, "found unseen pairs to test");
    }

    #[test]
    fn buffer_reuse_is_bit_identical_to_allocating_path() {
        let (g, model) = trained_model();
        let scorer = FoldInScorer::new(&model);
        // One scratch reused across every query — stale contents from the
        // previous iteration must not leak into the next result.
        let mut scratch = Vec::new();
        let mut checked_emb = 0usize;
        let nodes: Vec<NodeId> = g.nodes().collect();
        for (i, &u) in nodes.iter().enumerate().take(40) {
            let v = nodes[(i * 7 + 3) % nodes.len()];
            if u == v {
                continue;
            }
            assert_eq!(
                scorer.score(u, v).to_bits(),
                scorer.score_into(u, v, &mut scratch).to_bits()
            );
            let alloc = scorer.foldin_embedding(u, v);
            let mut reused = vec![f32::NAN; 3]; // poisoned: _into must clear it
            let ok = scorer.foldin_embedding_into(u, v, &mut reused);
            match alloc {
                Some(a) => {
                    assert!(ok);
                    assert_eq!(a.len(), reused.len());
                    for (x, y) in a.iter().zip(&reused) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                    checked_emb += 1;
                }
                None => {
                    assert!(!ok);
                    assert!(reused.is_empty(), "failed fold-in must clear the buffer");
                }
            }
        }
        assert!(checked_emb > 10, "exercised real fold-in embeddings");
    }

    #[test]
    fn foldin_excludes_the_queried_pair_itself_not_the_reverse() {
        // Pinning the satellite-3 decision: for a query (u, v) the mean over
        // v's in-ties drops exactly the row (u, v) — which exists whenever
        // the reverse (v, u) was a trained directed tie, because the
        // universe embeds its mirror — and keeps everything else. A reverse
        // row (v, u) points into u, never into v, so there is nothing else
        // to exclude.
        let (g, model) = trained_model();
        let scorer = FoldInScorer::new(&model);
        let dim = model.dim();
        let (_, v, u) = g
            .directed_ties()
            .find(|&(_, s, d)| {
                // A trained tie (v, u): its mirror (u, v) is embedded, and v
                // must keep at least one other in-tie so the mean exists.
                model.tie_row(d, s).is_some()
                    && model.ties().iter().filter(|&&(src, dst)| dst == s.0 && src != d.0).count()
                        >= 1
            })
            .expect("a directed tie with an embedded mirror");
        assert!(model.tie_row(u, v).is_some(), "mirror (u,v) must be embedded");

        // Manual mean over in-rows of v excluding src == u, mirroring the
        // documented contract, bit for bit.
        let mut mean = vec![0.0f32; dim];
        let mut count = 0usize;
        for (row, &(src, dst)) in model.ties().iter().enumerate() {
            if dst != v.0 || src == u.0 {
                continue;
            }
            for (a, &b) in mean.iter_mut().zip(model.embedding_row(row)) {
                *a += b;
            }
            count += 1;
        }
        assert!(count >= 1);
        for a in mean.iter_mut() {
            *a /= count as f32;
        }
        let got = scorer.foldin_embedding(u, v).expect("fold-in mean exists");
        for (x, y) in got.iter().zip(&mean) {
            assert_eq!(x.to_bits(), y.to_bits());
        }

        // And the excluded row really was in v's head cluster: including it
        // changes the mean, so the exclusion is observable.
        let mut mean_all = vec![0.0f32; dim];
        let mut count_all = 0usize;
        for (row, &(_, dst)) in model.ties().iter().enumerate() {
            if dst != v.0 {
                continue;
            }
            for (a, &b) in mean_all.iter_mut().zip(model.embedding_row(row)) {
                *a += b;
            }
            count_all += 1;
        }
        for a in mean_all.iter_mut() {
            *a /= count_all as f32;
        }
        assert_eq!(count_all, count + 1, "exactly the (u,v) row is excluded");
        assert!(
            got.iter().zip(&mean_all).any(|(x, y)| x.to_bits() != y.to_bits()),
            "excluding (u,v) must be observable in the mean"
        );
    }

    #[test]
    fn foldin_tracks_head_receiverness() {
        // The fold-in score toward a high-status head should exceed the
        // fold-in score toward a low-status head, on average.
        let mut rng = StdRng::seed_from_u64(32);
        let gen = social_network(&SocialNetConfig { n_nodes: 200, ..Default::default() }, &mut rng);
        let g = gen.network;
        let cfg = DeepDirectConfig {
            dim: 16,
            max_iterations: Some(600_000),
            seed: 32,
            ..Default::default()
        };
        let model = DeepDirect::new(cfg).fit(&g);
        let scorer = FoldInScorer::new(&model);
        // Rank nodes by status; compare fold-in scores into top vs bottom.
        let mut by_status: Vec<NodeId> = g.nodes().collect();
        by_status
            .sort_by(|a, b| gen.status[a.index()].partial_cmp(&gen.status[b.index()]).unwrap());
        let low = by_status[5];
        let high = by_status[by_status.len() - 6];
        let probe = by_status[by_status.len() / 2];
        let d_high = scorer.score(probe, high);
        let d_low = scorer.score(probe, low);
        assert!(d_high > d_low, "fold-in should prefer high-status heads: {d_high} vs {d_low}");
    }

    #[test]
    fn unseen_head_is_neutral() {
        let (g, model) = trained_model();
        // Model trained on the full network; restrict to a sub-universe by
        // querying a node id outside the network.
        let _ = g;
        let scorer = FoldInScorer::new(&model);
        assert_eq!(scorer.score(NodeId(0), NodeId(9_999)), 0.5);
    }

    #[test]
    fn foldin_generalizes_to_heldout_ties() {
        // Train on an induced subgraph missing some ties; fold-in must
        // orient held-out directed ties better than chance.
        let mut rng = StdRng::seed_from_u64(33);
        let g = social_network(&SocialNetConfig { n_nodes: 200, ..Default::default() }, &mut rng)
            .network;
        // Train on the sub-network of the first 170 nodes.
        let nodes: Vec<NodeId> = g.nodes().take(170).collect();
        let (sub, _) = induced_subnetwork(&g, &nodes);
        let cfg = DeepDirectConfig {
            dim: 16,
            max_iterations: Some(600_000),
            seed: 33,
            ..Default::default()
        };
        let model = DeepDirect::new(cfg).fit(&sub);
        let scorer = FoldInScorer::new(&model);
        // Held-out: directed ties of g inside the first 170 nodes that the
        // subgraph shares are "known"; instead evaluate on random unseen
        // pairs oriented by status via the full graph's directed ties that
        // are NOT in the sub-network — there are none by construction, so
        // evaluate orientation of known ties through pure fold-in instead.
        let mut ok = 0usize;
        let mut total = 0usize;
        for (_, u, v) in sub.directed_ties().take(300) {
            let fe_fwd = scorer.foldin_embedding(u, v);
            let fe_rev = scorer.foldin_embedding(v, u);
            if let (Some(f), Some(r)) = (fe_fwd, fe_rev) {
                let df = model.head().score(&f);
                let dr = model.head().score(&r);
                total += 1;
                if df > dr {
                    ok += 1;
                }
            }
        }
        assert!(total > 100);
        let acc = ok as f64 / total as f64;
        assert!(acc > 0.6, "fold-in orientation accuracy {acc}");
    }
}
