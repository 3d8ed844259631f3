//! What a serving shard holds of a model: its scores, not its embeddings.
//!
//! A served score is either a trained row's `d(e)` or, for a pair the
//! stream made live, the fold-in score of its head `v`. Served fold-in
//! never sees a trained pair: a trained pair answers with its row score
//! first, and a dynamic pair is untrained by construction. So the fold-in
//! mean over `v`'s in-ties never has a row `(u, v)` to exclude, and every
//! served fold-in score is a function of `v` alone (DESIGN.md §6).
//!
//! The head is linear before its sigmoid, so the head's score of the mean
//! in-row embedding is the sigmoid of the mean in-row logit. A head's
//! fold-in score is therefore `σ(Σ z_emb / n + b)` over its `n` in-rows,
//! with `z_emb` each row's embedding-half logit, the part of the logit the
//! row's score already computes. One f64 per head, no embedding sums.
//!
//! [`ScoreTable`] therefore keeps one score per row and, for streaming
//! shards, one per head, plus the pair lookup and the model fingerprint.
//! [`ScoreTable::load`] computes them while it streams a `.ddm`, so the
//! embedding block is never resident; [`ScoreTable::of`] takes them from a
//! model in memory. Row scores are bit-identical to
//! [`DirectionalityModel::score_row`]; head scores come from one function,
//! `HeadSlots::score`, on both paths, so they are bit-identical to each
//! other.

use std::io::{Read, Seek};
use std::path::Path;

use dd_graph::NodeId;
use dd_linalg::kernels::dot8_f64;
use dd_linalg::sigmoid64;

use crate::binfmt;
use crate::dstep::DirectionalityHead;
use crate::model::DirectionalityModel;
use crate::pairs::{Buckets, PairIndex};

/// Per-row and per-head scores of one model, and the row of each ordered
/// tie: 12 bytes per tie of sorted `(src, dst)` keys and their rows, found
/// by binary search within the source's bucket, under half of what a hash
/// map of the same ties holds (DESIGN.md §7.13). Frozen after construction:
/// every accessor takes `&self`, so an `Arc<ScoreTable>` serves any number
/// of threads.
#[derive(Debug)]
pub struct ScoreTable {
    /// Row of each ordered tie; a repeated pair answers with its last row.
    index: PairIndex,
    /// `d(e)` of each row.
    row_score: Vec<f64>,
    /// Fold-in score of each head node with at least one in-tie; `None`
    /// when the table was loaded without fold-in.
    head_score: Option<HeadScores>,
    fingerprint: u64,
}

impl ScoreTable {
    pub(crate) fn from_parts(
        index: PairIndex,
        row_score: Vec<f64>,
        head_score: Option<HeadScores>,
        fingerprint: u64,
    ) -> Self {
        ScoreTable { index, row_score, head_score, fingerprint }
    }

    /// The scores of a model in memory, head scores included.
    pub fn of(model: &DirectionalityModel) -> Self {
        let n = model.n_ties();
        let row_score = (0..n).map(|row| model.score_row(row)).collect();
        let DirectionalityHead::Logistic(lr) = model.head();
        let w_emb = &lr.w[..model.dim().min(lr.w.len())];
        let z_emb: Vec<f64> = (0..n).map(|row| dot8_f64(w_emb, model.embedding_row(row))).collect();
        let index = model.pair_index.clone();
        let slots = HeadSlots::new(&index, &mut vec![0; n]);
        let head_score = slots.score(&index, &z_emb, f64::from(lr.b));
        ScoreTable {
            index,
            row_score,
            head_score: Some(head_score),
            fingerprint: model.fingerprint(),
        }
    }

    /// Validates a `.ddm` read from `r` and computes its scores as the
    /// float blocks stream past, holding at most one chunk of them. With
    /// `fold_in`, also scores each head for [`Self::head_score`], from the
    /// row logits and one f64 per head.
    /// Accepts exactly the files [`DirectionalityModel::load`] accepts and
    /// fails on the others with the same message.
    pub fn load<R: Read + Seek>(mut r: R, fold_in: bool) -> Result<Self, String> {
        binfmt::decode_scores(&mut r, fold_in).map_err(|e| e.to_string())
    }

    /// [`Self::load`] from a file. Errors name the offending path.
    pub fn load_from_path<P: AsRef<Path>>(path: P, fold_in: bool) -> Result<Self, String> {
        let path = path.as_ref();
        let f = std::fs::File::open(path)
            .map_err(|e| format!("opening model '{}': {e}", path.display()))?;
        Self::load(f, fold_in).map_err(|e| format!("loading model '{}': {e}", path.display()))
    }

    /// Number of embedded ordered ties (rows).
    pub fn n_ties(&self) -> usize {
        self.row_score.len()
    }

    /// The model's content fingerprint
    /// ([`DirectionalityModel::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Row index for the ordered tie `(u, v)`, if embedded.
    pub fn tie_row(&self, u: NodeId, v: NodeId) -> Option<usize> {
        self.index.get(u.0, v.0).map(|row| row as usize)
    }

    /// `d(e)` of row `row`, bit-identical to
    /// [`DirectionalityModel::score_row`].
    pub fn row_score(&self, row: usize) -> f64 {
        self.row_score[row]
    }

    /// Directionality value `d(u, v)`; `None` when `(u, v)` was not part of
    /// the trained universe.
    pub fn score(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.tie_row(u, v).map(|row| self.row_score[row])
    }

    /// Whether the table holds head scores (built by [`Self::of`], or
    /// loaded with `fold_in`).
    pub fn has_head_scores(&self) -> bool {
        self.head_score.is_some()
    }

    /// Fold-in score of an untrained pair into head `v`, `σ(Σ z_emb / n +
    /// b)` over `v`'s `n` in-rows (see the [module docs](self)): `None`
    /// when `v` has no in-ties, or the table holds no head scores. A bucket
    /// read and a binary search within the bucket.
    pub fn head_score(&self, v: NodeId) -> Option<f64> {
        self.head_score.as_ref()?.get(v.0)
    }
}

/// The distinct heads of a table's ties, sorted and bucketed by `v >> shift`
/// ([`Buckets`], as the pair index buckets sources): where each head's
/// score goes. Sized by the number of heads, never by a node id.
#[derive(Debug)]
pub(crate) struct HeadSlots {
    /// Each distinct head, ascending.
    heads: Vec<u32>,
    /// The heads bucketed by id.
    buckets: Buckets,
}

impl HeadSlots {
    /// The distinct heads of `index`: its destinations scattered into
    /// `scratch` (one word per tie, whatever it held) by bucket, each bucket
    /// sorted and its distinct heads moved to the front. Buckets ascend, so
    /// the heads come out sorted; they are then bucketed again by their
    /// own count, so what is kept is O(heads) whatever the ids.
    pub(crate) fn new(index: &PairIndex, scratch: &mut [u32]) -> Self {
        let by_head = Buckets::scatter(index.heads().map(|(v, _)| (v, v)), |at, v| scratch[at] = v);
        let mut distinct = 0;
        for b in by_head.ranges() {
            scratch[b.clone()].sort_unstable();
            for at in b {
                if distinct == 0 || scratch[at] != scratch[distinct - 1] {
                    scratch[distinct] = scratch[at];
                    distinct += 1;
                }
            }
        }
        let heads = scratch[..distinct].to_vec();
        let buckets = Buckets::scatter(heads.iter().map(|&v| (v, ())), |_, ()| {});
        HeadSlots { heads, buckets }
    }

    /// Slot of head `v`, if it has in-ties.
    fn slot(&self, v: u32) -> Option<usize> {
        let b = self.buckets.range(v);
        let heads = &self.heads[b.clone()];
        let at = heads.partition_point(|&h| h < v);
        (heads.get(at) == Some(&v)).then_some(b.start + at)
    }

    /// Each head's fold-in score, `σ(Σ z_emb / n + b)` in f64 over its `n`
    /// in-rows, from `z_emb`, each row's embedding-half logit, and the
    /// head's bias `b`. The sum runs in `index`'s key order (by source,
    /// then row), the one order both [`ScoreTable::of`] and a streamed
    /// load use, so the two give bit-identical scores. Every row counts,
    /// a repeated pair's included.
    pub(crate) fn score(self, index: &PairIndex, z_emb: &[f64], b: f64) -> HeadScores {
        let mut sum = vec![0.0f64; self.heads.len()];
        let mut count = vec![0u32; self.heads.len()];
        for (v, row) in index.heads() {
            let slot = self.slot(v).expect("every head of the index has a slot");
            sum[slot] += z_emb[row];
            count[slot] += 1;
        }
        for (s, &n) in sum.iter_mut().zip(&count) {
            *s = sigmoid64(*s / f64::from(n) + b);
        }
        HeadScores { slots: self, score: sum }
    }
}

/// One fold-in score per distinct head ([`HeadSlots::score`]).
#[derive(Debug)]
pub(crate) struct HeadScores {
    slots: HeadSlots,
    /// Score of each slot's head.
    score: Vec<f64>,
}

impl HeadScores {
    /// Fold-in score of head `v`, if it has in-ties.
    fn get(&self, v: u32) -> Option<f64> {
        self.slots.slot(v).map(|slot| self.score[slot])
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use dd_linalg::rng::Pcg32;

    use super::*;

    const BIAS: f64 = 0.25;

    /// Scores the heads of `ties` from made-up logits and checks them
    /// against a map that sums each head's logits in key order: the
    /// distinct heads come out sorted, each scores the map's value bit for
    /// bit, the buckets number at most the heads plus one, and each probe
    /// scores exactly when it is a head.
    fn check(ties: &[(u32, u32)], probes: &[u32]) -> HeadScores {
        let z: Vec<f64> = (0..ties.len()).map(|row| (row as f64 * 0.37).sin() * 3.0).collect();
        let index = PairIndex::new(ties.iter().copied());
        let scores = HeadSlots::new(&index, &mut vec![7; ties.len()]).score(&index, &z, BIAS);

        let mut rows: Vec<usize> = (0..ties.len()).collect();
        rows.sort_by_key(|&row| (ties[row], row));
        let mut sums = BTreeMap::new();
        for row in rows {
            let (sum, n) = sums.entry(ties[row].1).or_insert((0.0, 0u32));
            *sum += z[row];
            *n += 1;
        }
        assert!(scores.slots.heads.iter().copied().eq(sums.keys().copied()), "sorted heads");
        let (buckets, _) = scores.slots.buckets.shape();
        assert!(buckets <= sums.len() + 1, "{buckets} buckets for {} heads", sums.len());
        for (&v, &(sum, n)) in &sums {
            let want = sigmoid64(sum / f64::from(n) + BIAS);
            assert_eq!(scores.get(v).map(f64::to_bits), Some(want.to_bits()), "head {v}");
        }
        for &v in probes {
            assert_eq!(scores.get(v).is_some(), sums.contains_key(&v), "probe {v}");
        }
        scores
    }

    /// `n` random ties over ids drawn by `id`, every fourth one a repeat of
    /// an earlier tie, and probes: each id of the ties, its neighbours, and
    /// fresh draws.
    fn random_case(
        rng: &mut Pcg32,
        n: usize,
        mut id: impl FnMut(&mut Pcg32) -> u32,
    ) -> (Vec<(u32, u32)>, Vec<u32>) {
        let mut ties = Vec::with_capacity(n);
        for _ in 0..n {
            let tie = if !ties.is_empty() && rng.gen_range(4) == 0 {
                ties[rng.gen_range(ties.len())]
            } else {
                (id(rng), id(rng))
            };
            ties.push(tie);
        }
        let mut probes: Vec<u32> =
            ties.iter().flat_map(|&(u, v)| [u, v, v.wrapping_add(1), v.wrapping_sub(1)]).collect();
        probes.extend((0..n).map(|_| id(rng)));
        (ties, probes)
    }

    #[test]
    fn head_scores_match_a_map_on_dense_ids_with_repeats() {
        for seed in 0..200 {
            let mut rng = Pcg32::seed_from_u64(seed);
            let n = rng.gen_range(300);
            let nodes = 1 + rng.gen_range(60) as u32;
            let (ties, probes) = random_case(&mut rng, n, |r| r.next_u32() % nodes);
            check(&ties, &probes);
        }
    }

    /// Heads up to `u32::MAX` raise the shift; the buckets still number at
    /// most the heads plus one, so nothing is sized by the largest id.
    #[test]
    fn head_scores_match_a_map_on_ids_near_u32_max() {
        for seed in 0..200 {
            let mut rng = Pcg32::seed_from_u64(1000 + seed);
            let n = 1 + rng.gen_range(300);
            let (mut ties, mut probes) = random_case(&mut rng, n, |r| match r.gen_range(4) {
                0 => u32::MAX - r.next_u32() % 4,
                1 => r.next_u32() % 4,
                _ => r.next_u32(),
            });
            ties.push((3, u32::MAX));
            probes.extend([0, 1, u32::MAX - 1, u32::MAX]);
            let (_, shift) = check(&ties, &probes).slots.buckets.shape();
            assert!(shift > 0, "seed {seed}: ids near u32::MAX left shift 0");
        }
    }

    #[test]
    fn empty_table_and_single_head() {
        let empty = check(&[], &[0, 1, u32::MAX]);
        assert!(empty.slots.heads.is_empty() && empty.score.is_empty());
        for tie in [(0, 0), (3, 7), (u32::MAX, 0), (0, u32::MAX), (u32::MAX, u32::MAX)] {
            let one = check(&[tie], &[0, 1, 6, 7, 8, u32::MAX - 1, u32::MAX]);
            let want = sigmoid64((0.0f64.sin() * 3.0) + BIAS);
            assert_eq!(one.get(tie.1).map(f64::to_bits), Some(want.to_bits()), "{tie:?}");
        }
    }

    /// Every row counts toward its head's mean, each repeat of a pair
    /// included, as the per-row embedding sums counted them.
    #[test]
    fn a_repeated_pair_counts_every_row() {
        let ties = [(1, 5), (2, 5), (1, 5), (1, 5)];
        let z = [1.0, 2.0, 4.0, 8.0];
        let index = PairIndex::new(ties.iter().copied());
        let scores = HeadSlots::new(&index, &mut [0; 4]).score(&index, &z, BIAS);
        // Key order: (1, 5) rows 0, 2, 3, then (2, 5) row 1.
        let want = sigmoid64((1.0 + 4.0 + 8.0 + 2.0) / 4.0 + BIAS);
        assert_eq!(scores.get(5).map(f64::to_bits), Some(want.to_bits()));
        check(&ties, &[1, 2, 5]);
    }

    #[test]
    fn a_node_without_in_ties_has_no_score() {
        // 1 and 2 only send, 4 is no node at all.
        let scores = check(&[(1, 3), (2, 3), (1, 5), (3, 5), (5, 0)], &[0, 1, 2, 3, 4, 5]);
        for v in [1, 2, 4, 6, u32::MAX] {
            assert_eq!(scores.get(v), None, "node {v}");
        }
    }
}
