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
//!
//! Each tie also gets one 16-byte draw record: everything an E-Step draw
//! needs to pick `e'` from `c(e)` and find `e`'s triad samples, so the RNG
//! stream waits on one load per draw (DESIGN.md §7.9, "Latency-hidden SGD").

use dd_graph::triads::common_neighbors;
use dd_graph::{MixedSocialNetwork, NodeId, TieKind};
use dd_linalg::bytes::advise_huge_pages;
use dd_linalg::kernels::prefetch;
use dd_linalg::rng::Pcg32;
use dd_runtime::{chunk_size, split_streams, Pool, Threads};
use serde::{Deserialize, Serialize};

use crate::pairs::PairIndex;

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

/// What an E-Step draw reads about universe tie `e = (u, v)`, in one
/// record: `v`'s out-ties are `out_ties[start..start + len]`, the back-tie
/// `(v, u)` sits at position `back` among them, and `e`'s triad samples
/// start at `triads` in the flat pair array (they end where the next
/// tie's start, or at the array's end). Aligned to 16 bytes, so a record
/// never straddles a cache line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(C, align(16))]
pub(crate) struct DrawRecord {
    start: u32,
    /// `outdeg(v)`; `deg_tie(e) = len − 1`.
    len: u32,
    back: u32,
    triads: u32,
}

/// The frozen training universe.
#[derive(Debug, Clone)]
pub struct TieUniverse {
    n_nodes: usize,
    ties: Vec<UniverseTie>,
    out_offsets: Vec<u32>,
    out_ties: Vec<u32>,
    /// One [`DrawRecord`] per universe tie.
    records: Vec<DrawRecord>,
    /// For each undirected universe tie `e = (u, v)`, at
    /// `records[e].triads..`: the universe indices of `(u, w)` and `(v, w)`
    /// for each sampled common neighbor `w ∈ t(u, v)`, ties in index order.
    triad_pairs: Vec<(u32, u32)>,
    n_connected_pairs: u64,
}

/// Hints the CPU to fetch `items[i]`; the address is never dereferenced.
#[inline]
fn prefetch_item<T>(items: &[T], i: usize) {
    prefetch(items.as_ptr().wrapping_add(i).cast(), std::mem::size_of::<T>().div_ceil(4));
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
    /// The draw records (tie degrees and back-tie positions) and the
    /// common-neighbor triad sampling are parallelized over fixed chunks of
    /// ties, each triad chunk drawing from its own [`Pcg32`] stream split
    /// off `rng` (stream `i` belongs to chunk `i`, not to a thread) and the
    /// chunks' pairs concatenated in chunk order, so the universe is
    /// bit-identical at any thread count.
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
        // `ties` and `records` are read at random indices by every E-Step
        // draw, so each goes on 2 MiB pages before its first write
        // (DESIGN.md §7.9, "TLB reach").
        let mut ties: Vec<UniverseTie> = Vec::with_capacity(n_universe);
        advise_huge_pages(ties.spare_capacity_mut());
        // `rev[i]`: the universe index of tie `i`'s reverse. A symmetric
        // instance's is its network twin; a directed tie's is its mirror.
        let mut rev: Vec<u32> = Vec::with_capacity(n_universe);
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
            // A directed tie's entry is set when its mirror is pushed.
            rev.push(t.reverse.map_or(u32::MAX, |r| r.0));
        }
        for (id, u, v) in g.directed_ties() {
            rev[id.index()] = ties.len() as u32;
            rev.push(id.0);
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
        // `pos[i]`: where tie `i` lands within `out_ties(src)`.
        let mut pos = vec![0u32; ties.len()];
        for (i, t) in ties.iter().enumerate() {
            let c = &mut cursor[t.src.index()];
            out_ties[*c as usize] = i as u32;
            pos[i] = *c - out_offsets[t.src.index()];
            *c += 1;
        }

        // Only the triad sampling below needs pair lookups, so the index is
        // local: it is freed when the build returns, before the E-Step.
        let pair_index = PairIndex::new(ties.iter().map(|t| (t.src.0, t.dst.0)));

        let pool = Pool::new("universe.build", threads);
        if let Some(span) = stage {
            pool.set_trace(span.observer(), span.context());
        }

        // Every universe tie has its reverse present, so `e = (u, v)`'s
        // connected ties are `v`'s out-ties minus the back-tie `rev(e)`,
        // which sits at `pos[rev(e)]` among them: deg_tie = outdeg(v) − 1.
        let csize = chunk_size(ties.len());
        let mut records: Vec<DrawRecord> = Vec::with_capacity(ties.len());
        advise_huge_pages(records.spare_capacity_mut());
        records.resize(ties.len(), DrawRecord::default());
        pool.par_chunks_mut(&mut records, csize, |offset, chunk| {
            for (j, r) in chunk.iter_mut().enumerate() {
                let e = offset + j;
                let v = ties[e].dst.index();
                let len = out_offsets[v + 1] - out_offsets[v];
                debug_assert!(len >= 1, "reverse tie must exist");
                *r = DrawRecord {
                    start: out_offsets[v],
                    len,
                    back: pos[rev[e] as usize],
                    triads: 0,
                };
            }
        });
        drop((rev, pos));
        // The connected-tie-pair enumeration: Σ deg_tie = |C(G)|.
        let n_connected_pairs: u64 = records.iter().map(|r| u64::from(r.len - 1)).sum();

        // Sampled common-neighbor tie pairs for undirected ties, chunked
        // with one split RNG stream per chunk. Streams are derived from
        // `rng` serially up front, so the samples depend only on the root
        // RNG state and the tie count — never on the thread count. Each
        // chunk returns its ties' sample counts and its pairs.
        let n_chunks = ties.len().div_ceil(csize);
        let streams = split_streams(rng, n_chunks);
        let chunks = pool.par_map(n_chunks, |ci| {
            let mut chunk_rng = streams[ci].clone();
            let chunk_ties = &ties[ci * csize..ties.len().min((ci + 1) * csize)];
            let mut counts = vec![0u32; chunk_ties.len()];
            let mut pairs = Vec::new();
            for (t, count) in chunk_ties.iter().zip(&mut counts) {
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
                let before = pairs.len();
                for &w in &cn[..take] {
                    let uw = pair_index.get(t.src.0, w.0);
                    let vw = pair_index.get(t.dst.0, w.0);
                    if let (Some(uw), Some(vw)) = (uw, vw) {
                        pairs.push((uw, vw));
                    }
                }
                *count = (pairs.len() - before) as u32;
            }
            (counts, pairs)
        });
        // Concatenate in chunk order: the flat CSR of triad samples.
        let mut triad_pairs = Vec::with_capacity(chunks.iter().map(|(_, p)| p.len()).sum());
        for (ci, (counts, pairs)) in chunks.into_iter().enumerate() {
            let mut at = triad_pairs.len() as u32;
            for (rec, count) in records[ci * csize..].iter_mut().zip(counts) {
                rec.triads = at;
                at += count;
            }
            triad_pairs.extend(pairs);
        }

        TieUniverse {
            n_nodes,
            ties,
            out_offsets,
            out_ties,
            records,
            triad_pairs,
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
        self.records[idx].len - 1
    }

    /// All tie degrees, as `f64` weights for the sampling distributions.
    pub fn tie_degree_weights(&self) -> Vec<f64> {
        self.records.iter().map(|r| f64::from(r.len - 1)).collect()
    }

    /// `|C(G)|`: the total number of connected tie pairs.
    pub fn n_connected_pairs(&self) -> u64 {
        self.n_connected_pairs
    }

    /// Sampled `t(u, v)` entries for an undirected universe tie: pairs of
    /// universe indices `((u, w), (v, w))`. Empty for other kinds.
    #[inline]
    pub fn triad_samples(&self, idx: usize) -> &[(u32, u32)] {
        let end = self.records.get(idx + 1).map_or(self.triad_pairs.len(), |r| r.triads as usize);
        &self.triad_pairs[self.records[idx].triads as usize..end]
    }

    /// Samples a connected tie `e'` of universe tie `e` uniformly, or `None`
    /// if `deg_tie(e) = 0`.
    #[inline]
    pub fn sample_connected(&self, e: usize, rng: &mut Pcg32) -> Option<usize> {
        self.sample_slot(e, rng).map(|slot| self.out_tie_at(slot))
    }

    /// [`TieUniverse::sample_connected`] up to the last load: the position
    /// of `e'` in the out-tie CSR, read off `e`'s record alone. Exactly one
    /// out-tie of `e`'s head is the back-tie, so rejecting its position
    /// draws from the RNG exactly as rejecting the candidate that doubles
    /// back does, in ≤2 expected draws.
    #[inline]
    pub(crate) fn sample_slot(&self, e: usize, rng: &mut Pcg32) -> Option<usize> {
        let DrawRecord { start, len, back, .. } = self.records[e];
        if len <= 1 {
            return None;
        }
        loop {
            let k = rng.gen_range(len as usize);
            if k != back as usize {
                return Some(start as usize + k);
            }
        }
    }

    /// The universe tie at `slot` of the out-tie CSR.
    #[inline]
    pub(crate) fn out_tie_at(&self, slot: usize) -> usize {
        self.out_ties[slot] as usize
    }

    /// Hints the CPU to fetch tie `e`'s record and the next one (where its
    /// triad samples end). Any `e` is fine: nothing is dereferenced.
    #[inline]
    pub(crate) fn prefetch_record(&self, e: usize) {
        prefetch(self.records.as_ptr().wrapping_add(e).cast(), 8);
    }

    /// Hints the CPU to fetch `out_ties[slot]`.
    #[inline]
    pub(crate) fn prefetch_slot(&self, slot: usize) {
        prefetch_item(&self.out_ties, slot);
    }

    /// Hints the CPU to fetch universe tie `e`.
    #[inline]
    pub(crate) fn prefetch_tie(&self, e: usize) {
        prefetch_item(&self.ties, e);
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
            assert_eq!(serial.records, par.records, "threads={threads}");
            assert_eq!(serial.triad_pairs, par.triad_pairs, "threads={threads}");
            assert_eq!(serial.n_connected_pairs, par.n_connected_pairs);
        }
        // The default entry point is the same chunked computation.
        let mut rng = Pcg32::seed_from_u64(99);
        let default_build = TieUniverse::build(&g, 5, &mut rng);
        assert_eq!(serial.records, default_build.records);
        assert_eq!(serial.triad_pairs, default_build.triad_pairs);
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
