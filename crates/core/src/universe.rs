//! The training tie universe: preprocessing of Algorithm 1, lines 1–9.
//!
//! The E-Step embeds *ordered* ties. The universe therefore contains:
//!
//! * every ordered instance of the mixed network (bidirectional and
//!   undirected ties already materialize in both orders), and
//! * a *mirror* `(v, u)` for every directed tie `(u, v) ∈ E_d`, as the paper
//!   prescribes ("we add `(v, u)` to `E_d` and record their labels"), with
//!   labels `y_{uv} = 1`, `y_{vu} = 0`.
//!
//! By construction every universe tie has its reverse present, so the tie
//! degree simplifies to `deg_tie(e=(u,v)) = outdeg(v) − 1`.
//!
//! For each undirected tie the universe precomputes the Degree Consistency
//! pseudo-label `y^d` (Eq. 14) and the sampled common-neighbor tie pairs
//! `t(u, v)` feeding the Triad Status pseudo-label `y^t` (Eq. 15).

use dd_graph::hash::FxHashMap;
use dd_graph::triads::common_neighbors;
use dd_graph::{MixedSocialNetwork, NodeId, TieKind};
use dd_linalg::bytes::advise_huge_pages;
use dd_linalg::rng::Pcg32;
use dd_runtime::{chunk_size, split_streams, Pool, Threads};
use serde::{Deserialize, Serialize};

/// Classification of a universe tie.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UniverseKind {
    /// An original directed tie (label 1).
    Directed,
    /// The added reverse of a directed tie (label 0).
    Mirror,
    /// One order of a bidirectional tie.
    Bidirectional,
    /// One order of an undirected tie.
    Undirected,
}

/// One ordered tie in the training universe.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct UniverseTie {
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Kind within the universe.
    pub kind: UniverseKind,
    /// Supervision label: `Some(1.0)` for directed ties, `Some(0.0)` for
    /// mirrors, `None` otherwise.
    pub label: Option<f32>,
    /// Degree Consistency pseudo-label `y^d` (Eq. 14); `Some` only for
    /// undirected ties.
    pub pseudo_degree: Option<f32>,
}

/// The frozen training universe.
#[derive(Debug, Clone)]
pub struct TieUniverse {
    n_nodes: usize,
    ties: Vec<UniverseTie>,
    out_offsets: Vec<u32>,
    out_ties: Vec<u32>,
    tie_degrees: Vec<u32>,
    /// For each undirected universe tie `e = (u, v)`: the universe indices of
    /// `(u, w)` and `(v, w)` for each sampled common neighbor `w ∈ t(u, v)`.
    triad_samples: Vec<Vec<(u32, u32)>>,
    n_connected_pairs: u64,
}

impl TieUniverse {
    /// Builds the universe from a mixed social network.
    ///
    /// `gamma` caps the number of common neighbors sampled into `t(u, v)`
    /// per undirected tie. Equivalent to [`TieUniverse::build_with_threads`]
    /// at one thread; the chunked structure is identical, so the serial and
    /// parallel builds agree bit-for-bit.
    pub fn build(g: &MixedSocialNetwork, gamma: usize, rng: &mut Pcg32) -> Self {
        Self::build_with_threads(g, gamma, rng, Threads::serial())
    }

    /// Builds the universe on `threads` workers.
    ///
    /// The connected-tie-pair enumeration (tie degrees) and the
    /// common-neighbor triad sampling are parallelized over fixed chunks of
    /// ties, each chunk drawing from its own [`Pcg32`] stream split off
    /// `rng` (stream `i` belongs to chunk `i`, not to a thread), so the
    /// universe is bit-identical at any thread count.
    pub fn build_with_threads(
        g: &MixedSocialNetwork,
        gamma: usize,
        rng: &mut Pcg32,
        threads: Threads,
    ) -> Self {
        Self::build_traced(g, gamma, rng, threads, None)
    }

    /// Builds the universe on `threads` workers, reporting the internal
    /// pool's call/chunk spans as children of `stage` when given.
    ///
    /// Tracing is observational only: the pool's chunk structure, RNG
    /// streams, and reduction order are identical with or without a stage
    /// span, so traced and untraced builds agree bit-for-bit (DESIGN.md
    /// §7.12).
    pub fn build_traced(
        g: &MixedSocialNetwork,
        gamma: usize,
        rng: &mut Pcg32,
        threads: Threads,
        stage: Option<&dd_telemetry::Span>,
    ) -> Self {
        let counts = g.counts();
        let n_universe = g.n_ordered_ties() + counts.directed;
        // `ties` and `triad_samples` are read at random indices by every
        // E-Step draw, so each goes on 2 MiB pages before its first write
        // (DESIGN.md §7.9, "TLB reach").
        let mut ties: Vec<UniverseTie> = Vec::with_capacity(n_universe);
        advise_huge_pages(ties.spare_capacity_mut());
        // Original instances first (so network TieIds map 1:1 onto the first
        // `g.n_ordered_ties()` universe indices), then mirrors.
        for (_, t) in g.iter_ties() {
            let (kind, label, pseudo_degree) = match t.kind {
                TieKind::Directed => (UniverseKind::Directed, Some(1.0), None),
                TieKind::Bidirectional => (UniverseKind::Bidirectional, None, None),
                TieKind::Undirected => {
                    // Degree Consistency pseudo-label. Eq. 14 as printed
                    // (`y^d_uv = deg(u)/(deg(u)+deg(v))`) contradicts
                    // Definition 5 ("directed ties usually link from nodes
                    // with lower degrees to those with higher degrees"): it
                    // would assign a *low* pseudo-label exactly when the
                    // pattern predicts the direction u → v. We implement the
                    // pattern-consistent form `deg(v)/(deg(u)+deg(v))` and
                    // document the deviation in DESIGN.md.
                    let du = g.social_degree(t.src) as f64;
                    let dv = g.social_degree(t.dst) as f64;
                    let yd = if du + dv > 0.0 { (dv / (du + dv)) as f32 } else { 0.5 };
                    (UniverseKind::Undirected, None, Some(yd))
                }
            };
            ties.push(UniverseTie { src: t.src, dst: t.dst, kind, label, pseudo_degree });
        }
        for (_, u, v) in g.directed_ties() {
            ties.push(UniverseTie {
                src: v,
                dst: u,
                kind: UniverseKind::Mirror,
                label: Some(0.0),
                pseudo_degree: None,
            });
        }

        // CSR by source over universe ties.
        let n_nodes = g.n_nodes();
        let mut out_offsets = vec![0u32; n_nodes + 1];
        for t in &ties {
            out_offsets[t.src.index() + 1] += 1;
        }
        for i in 0..n_nodes {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut cursor: Vec<u32> = out_offsets[..n_nodes].to_vec();
        let mut out_ties = vec![0u32; ties.len()];
        for (i, t) in ties.iter().enumerate() {
            let c = &mut cursor[t.src.index()];
            out_ties[*c as usize] = i as u32;
            *c += 1;
        }

        // Only the triad sampling below needs pair lookups, so the map is
        // local: it is freed when the build returns, before the E-Step.
        let mut pair_index: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        pair_index.reserve(ties.len());
        for (i, t) in ties.iter().enumerate() {
            pair_index.insert((t.src.0, t.dst.0), i as u32);
        }

        let pool = Pool::new("universe.build", threads);
        if let Some(span) = stage {
            pool.set_trace(span.observer(), span.context());
        }

        // Every universe tie has its reverse present, so deg_tie = outdeg−1.
        // This is the connected-tie-pair enumeration: Σ deg_tie = |C(G)|.
        let tie_degrees: Vec<u32> = pool.par_map(ties.len(), |i| {
            let t = &ties[i];
            let od = out_offsets[t.dst.index() + 1] - out_offsets[t.dst.index()];
            debug_assert!(od >= 1, "reverse tie must exist");
            od - 1
        });
        let n_connected_pairs: u64 = tie_degrees.iter().map(|&d| d as u64).sum();

        // Sampled common-neighbor tie pairs for undirected ties, chunked
        // with one split RNG stream per chunk. Streams are derived from
        // `rng` serially up front, so the samples depend only on the root
        // RNG state and the tie count — never on the thread count.
        let csize = chunk_size(ties.len());
        let streams = split_streams(rng, ties.len().div_ceil(csize));
        let mut triad_samples: Vec<Vec<(u32, u32)>> = Vec::with_capacity(ties.len());
        advise_huge_pages(triad_samples.spare_capacity_mut());
        triad_samples.resize_with(ties.len(), Vec::new);
        pool.par_chunks_mut(&mut triad_samples, csize, |offset, slots| {
            let mut chunk_rng = streams[offset / csize].clone();
            for (j, slot) in slots.iter_mut().enumerate() {
                let t = &ties[offset + j];
                if t.kind != UniverseKind::Undirected {
                    continue;
                }
                let mut cn = common_neighbors(g, t.src, t.dst);
                // Partial Fisher–Yates to sample up to γ without bias.
                let take = gamma.min(cn.len());
                for k in 0..take {
                    let j = k + chunk_rng.gen_range(cn.len() - k);
                    cn.swap(k, j);
                }
                let mut pairs = Vec::with_capacity(take);
                for &w in &cn[..take] {
                    let uw = pair_index.get(&(t.src.0, w.0));
                    let vw = pair_index.get(&(t.dst.0, w.0));
                    if let (Some(&uw), Some(&vw)) = (uw, vw) {
                        pairs.push((uw, vw));
                    }
                }
                *slot = pairs;
            }
        });

        TieUniverse {
            n_nodes,
            ties,
            out_offsets,
            out_ties,
            tie_degrees,
            triad_samples,
            n_connected_pairs,
        }
    }

    /// Number of nodes in the underlying network.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of universe ties (`|E|` after the mirror augmentation).
    pub fn len(&self) -> usize {
        self.ties.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.ties.is_empty()
    }

    /// The universe tie at `idx`.
    #[inline]
    pub fn tie(&self, idx: usize) -> &UniverseTie {
        &self.ties[idx]
    }

    /// All universe ties.
    pub fn ties(&self) -> &[UniverseTie] {
        &self.ties
    }

    /// Universe index of the ordered pair `(u, v)`, if present: a scan of
    /// `u`'s out-ties (universe pairs are unique), so O(outdeg(u)).
    pub fn find(&self, u: NodeId, v: NodeId) -> Option<usize> {
        if u.index() >= self.n_nodes {
            return None;
        }
        self.out_ties(u).iter().map(|&i| i as usize).find(|&i| self.ties[i].dst == v)
    }

    /// Universe indices of ties leaving `u`.
    #[inline]
    pub fn out_ties(&self, u: NodeId) -> &[u32] {
        let s = self.out_offsets[u.index()] as usize;
        let e = self.out_offsets[u.index() + 1] as usize;
        &self.out_ties[s..e]
    }

    /// `deg_tie` of universe tie `idx` (back-tie excluded).
    #[inline]
    pub fn tie_degree(&self, idx: usize) -> u32 {
        self.tie_degrees[idx]
    }

    /// All tie degrees, as `f64` weights for the sampling distributions.
    pub fn tie_degree_weights(&self) -> Vec<f64> {
        self.tie_degrees.iter().map(|&d| d as f64).collect()
    }

    /// `|C(G)|`: the total number of connected tie pairs.
    pub fn n_connected_pairs(&self) -> u64 {
        self.n_connected_pairs
    }

    /// Sampled `t(u, v)` entries for an undirected universe tie: pairs of
    /// universe indices `((u, w), (v, w))`. Empty for other kinds.
    #[inline]
    pub fn triad_samples(&self, idx: usize) -> &[(u32, u32)] {
        &self.triad_samples[idx]
    }

    /// Samples a connected tie `e'` of universe tie `e` uniformly, or `None`
    /// if `deg_tie(e) = 0`.
    #[inline]
    pub fn sample_connected(&self, e: usize, rng: &mut Pcg32) -> Option<usize> {
        if self.tie_degrees[e] == 0 {
            return None;
        }
        let t = &self.ties[e];
        let outs = self.out_ties(t.dst);
        // Exactly one out-tie of `dst` is the back-tie to `src`; rejection
        // sampling terminates in ≤2 expected draws.
        loop {
            let cand = outs[rng.gen_range(outs.len())] as usize;
            if self.ties[cand].dst != t.src {
                return Some(cand);
            }
        }
    }

    /// Iterator over `(index, tie)` for labeled ties (directed + mirrors).
    pub fn labeled_ties(&self) -> impl Iterator<Item = (usize, &UniverseTie)> + '_ {
        self.ties.iter().enumerate().filter(|(_, t)| t.label.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_graph::NetworkBuilder;

    fn small_mixed() -> MixedSocialNetwork {
        // 0→1 directed, 1↔2 bidirectional, 0–2 undirected, 2→3 directed.
        let mut b = NetworkBuilder::new(4);
        b.add_directed(NodeId(0), NodeId(1)).unwrap();
        b.add_bidirectional(NodeId(1), NodeId(2)).unwrap();
        b.add_undirected(NodeId(0), NodeId(2)).unwrap();
        b.add_directed(NodeId(2), NodeId(3)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn universe_size_includes_mirrors() {
        let g = small_mixed();
        let mut rng = Pcg32::seed_from_u64(1);
        let u = TieUniverse::build(&g, 5, &mut rng);
        // Ordered instances: 2 directed + 2 bidi + 2 undir = 6; +2 mirrors.
        assert_eq!(u.len(), 8);
        assert!(!u.is_empty());
        assert_eq!(u.n_nodes(), 4);
    }

    #[test]
    fn labels_follow_the_paper() {
        let g = small_mixed();
        let mut rng = Pcg32::seed_from_u64(2);
        let u = TieUniverse::build(&g, 5, &mut rng);
        let d01 = u.find(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(u.tie(d01).label, Some(1.0));
        assert_eq!(u.tie(d01).kind, UniverseKind::Directed);
        let m10 = u.find(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(u.tie(m10).label, Some(0.0));
        assert_eq!(u.tie(m10).kind, UniverseKind::Mirror);
        let b12 = u.find(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(u.tie(b12).label, None);
        assert_eq!(u.labeled_ties().count(), 4);
    }

    #[test]
    fn pseudo_degree_matches_eq14() {
        let g = small_mixed();
        let mut rng = Pcg32::seed_from_u64(3);
        let u = TieUniverse::build(&g, 5, &mut rng);
        // deg(0) = |{1, 2}| = 2; deg(2) = |{0, 1, 3}| = 3. The (0, 2) tie
        // points toward the higher-degree node, so its pseudo-label is
        // deg(2) / (deg(0) + deg(2)) = 3/5 (pattern-consistent Eq. 14).
        let u02 = u.find(NodeId(0), NodeId(2)).unwrap();
        let yd = u.tie(u02).pseudo_degree.unwrap();
        assert!((yd - 3.0 / 5.0).abs() < 1e-6);
        let u20 = u.find(NodeId(2), NodeId(0)).unwrap();
        let yd2 = u.tie(u20).pseudo_degree.unwrap();
        assert!((yd2 - 2.0 / 5.0).abs() < 1e-6);
        assert!((yd + yd2 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn every_tie_has_reverse_and_degree() {
        let g = small_mixed();
        let mut rng = Pcg32::seed_from_u64(4);
        let u = TieUniverse::build(&g, 5, &mut rng);
        let mut total = 0u64;
        for i in 0..u.len() {
            let t = u.tie(i);
            assert!(u.find(t.dst, t.src).is_some(), "reverse of ({}, {})", t.src, t.dst);
            // deg_tie = outdeg(dst) − 1.
            assert_eq!(u.tie_degree(i) as usize, u.out_ties(t.dst).len() - 1);
            total += u.tie_degree(i) as u64;
        }
        assert_eq!(total, u.n_connected_pairs());
    }

    #[test]
    fn sample_connected_respects_definition() {
        let g = small_mixed();
        let mut rng = Pcg32::seed_from_u64(5);
        let u = TieUniverse::build(&g, 5, &mut rng);
        for i in 0..u.len() {
            let t = *u.tie(i);
            if u.tie_degree(i) == 0 {
                assert_eq!(u.sample_connected(i, &mut rng), None);
                continue;
            }
            for _ in 0..20 {
                let c = u.sample_connected(i, &mut rng).unwrap();
                let ct = u.tie(c);
                assert_eq!(ct.src, t.dst, "connected tie must start at head");
                assert_ne!(ct.dst, t.src, "connected tie must not double back");
            }
        }
    }

    #[test]
    fn triad_samples_reference_correct_ties() {
        // 0–1 undirected with common neighbors 2 and 3.
        let mut b = NetworkBuilder::new(4);
        b.add_undirected(NodeId(0), NodeId(1)).unwrap();
        b.add_directed(NodeId(2), NodeId(0)).unwrap();
        b.add_directed(NodeId(2), NodeId(1)).unwrap();
        b.add_directed(NodeId(0), NodeId(3)).unwrap();
        b.add_directed(NodeId(3), NodeId(1)).unwrap();
        let g = b.build().unwrap();
        let mut rng = Pcg32::seed_from_u64(6);
        let u = TieUniverse::build(&g, 10, &mut rng);
        let e = u.find(NodeId(0), NodeId(1)).unwrap();
        let samples = u.triad_samples(e);
        assert_eq!(samples.len(), 2, "two common neighbors");
        for &(uw, vw) in samples {
            let tuw = u.tie(uw as usize);
            let tvw = u.tie(vw as usize);
            assert_eq!(tuw.src, NodeId(0));
            assert_eq!(tvw.src, NodeId(1));
            assert_eq!(tuw.dst, tvw.dst, "same common neighbor");
        }
        // Non-undirected ties carry no samples.
        let d = u.find(NodeId(2), NodeId(0)).unwrap();
        assert!(u.triad_samples(d).is_empty());
    }

    #[test]
    fn build_is_bit_identical_across_thread_counts() {
        let g = small_mixed();
        let build = |threads: usize| {
            let mut rng = Pcg32::seed_from_u64(99);
            TieUniverse::build_with_threads(&g, 5, &mut rng, Threads::new(threads).unwrap())
        };
        let serial = build(1);
        for threads in [2, 8] {
            let par = build(threads);
            assert_eq!(serial.tie_degrees, par.tie_degrees);
            assert_eq!(serial.triad_samples, par.triad_samples, "threads={threads}");
            assert_eq!(serial.n_connected_pairs, par.n_connected_pairs);
        }
        // The default entry point is the same chunked computation.
        let mut rng = Pcg32::seed_from_u64(99);
        let default_build = TieUniverse::build(&g, 5, &mut rng);
        assert_eq!(serial.triad_samples, default_build.triad_samples);
    }

    #[test]
    fn gamma_caps_triad_samples() {
        let mut b = NetworkBuilder::new(8);
        b.add_undirected(NodeId(0), NodeId(1)).unwrap();
        for w in 2..8u32 {
            b.add_directed(NodeId(w), NodeId(0)).unwrap();
            b.add_directed(NodeId(w), NodeId(1)).unwrap();
        }
        let g = b.build().unwrap();
        let mut rng = Pcg32::seed_from_u64(7);
        let u = TieUniverse::build(&g, 3, &mut rng);
        let e = u.find(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(u.triad_samples(e).len(), 3);
    }
}
