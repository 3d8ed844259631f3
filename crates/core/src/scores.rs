//! What a serving shard holds of a model: its scores, not its embeddings.
//!
//! A served score is either a trained row's `d(e)` or, for a pair the
//! stream made live, the fold-in score of its head `v`. Served fold-in
//! never sees a trained pair: a trained pair answers with its row score
//! first, and a dynamic pair is untrained by construction. So the fold-in
//! mean over `v`'s in-ties never has a row `(u, v)` to exclude, and every
//! served fold-in score is a function of `v` alone (DESIGN.md §6).
//!
//! [`ScoreTable`] therefore keeps one score per row and, for streaming
//! shards, one per head, plus the pair lookup and the model fingerprint.
//! [`ScoreTable::load`] computes them while it streams a `.ddm`, so the
//! embedding block is never resident; [`ScoreTable::of`] takes them from a
//! model in memory. Both give bit-identical values to
//! [`DirectionalityModel::score_row`] and [`FoldInIndex`](crate::FoldInIndex).

use std::io::{Read, Seek};
use std::path::Path;

use dd_graph::hash::FxHashMap;
use dd_graph::NodeId;

use crate::binfmt;
use crate::config::DeepDirectConfig;
use crate::dstep::{feature_dim, DirectionalityHead};
use crate::model::DirectionalityModel;
use crate::pairs::PairIndex;

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
    head_score: Option<FxHashMap<u32, f64>>,
    fingerprint: u64,
}

impl ScoreTable {
    pub(crate) fn from_parts(
        index: PairIndex,
        row_score: Vec<f64>,
        head_score: Option<FxHashMap<u32, f64>>,
        fingerprint: u64,
    ) -> Self {
        ScoreTable { index, row_score, head_score, fingerprint }
    }

    /// The scores of a model in memory, head scores included.
    pub fn of(model: &DirectionalityModel) -> Self {
        let row_score = (0..model.n_ties()).map(|row| model.score_row(row)).collect();
        let mut heads = HeadSums::new(model.ties().iter().map(|&(_, v)| v), model.dim());
        heads.add(0, model.store.embeddings());
        ScoreTable {
            index: model.pair_index.clone(),
            row_score,
            head_score: Some(heads.finish(model.head(), model.config())),
            fingerprint: model.fingerprint(),
        }
    }

    /// Validates a `.ddm` read from `r` and computes its scores as the
    /// float blocks stream past, holding at most one chunk of them. With
    /// `fold_in`, also sums each head's in-rows for [`Self::head_score`].
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

    /// Fold-in score of an untrained pair into head `v`: `None` when `v`
    /// has no in-ties, or the table holds no head scores. Bit-identical to
    /// [`FoldInIndex::foldin_score_into`](crate::FoldInIndex::foldin_score_into)
    /// for any `(u, v)` that is not a trained pair.
    pub fn head_score(&self, v: NodeId) -> Option<f64> {
        self.head_score.as_ref()?.get(&v.0).copied()
    }
}

/// Per-head sums of the embedding rows pointing into each head, fed the
/// rows in ascending order, which is the order
/// [`FoldInIndex`](crate::FoldInIndex) adds them in. Holds one `dim`-wide
/// `f32` sum per distinct head, so its size follows the number of heads in
/// the file, not the largest node id.
pub(crate) struct HeadSums {
    dim: usize,
    /// Head node of each slot, in order of first appearance.
    heads: Vec<u32>,
    /// Slot of each row's head.
    row_slot: Vec<u32>,
    /// In-rows of each slot.
    count: Vec<u32>,
    /// `dim` sums per slot.
    sum: Vec<f32>,
}

impl HeadSums {
    /// Slots for the head of every row (`dst` in row order).
    pub(crate) fn new(dst: impl Iterator<Item = u32>, dim: usize) -> Self {
        let mut slot_of: FxHashMap<u32, u32> = FxHashMap::default();
        let mut row_slot = Vec::with_capacity(dst.size_hint().0);
        let (mut heads, mut count) = (Vec::new(), Vec::new());
        for v in dst {
            let slot = *slot_of.entry(v).or_insert_with(|| {
                heads.push(v);
                count.push(0);
                heads.len() as u32 - 1
            });
            count[slot as usize] += 1;
            row_slot.push(slot);
        }
        let sum = vec![0.0; heads.len() * dim];
        HeadSums { dim, heads, row_slot, count, sum }
    }

    /// Adds embedding rows `first..` (row-major, `dim` floats each) to
    /// their heads' sums.
    pub(crate) fn add(&mut self, first: usize, rows: &[f32]) {
        if self.dim == 0 {
            return;
        }
        let dim = self.dim;
        for (row, &slot) in rows.chunks_exact(dim).zip(&self.row_slot[first..]) {
            let slot = slot as usize;
            for (a, &b) in self.sum[slot * dim..(slot + 1) * dim].iter_mut().zip(row) {
                *a += b;
            }
        }
    }

    /// Each head's fold-in score: its mean in-row (the sum divided by the
    /// count in `f32`), zero-padded under `context_features`, through the
    /// head.
    pub(crate) fn finish(
        self,
        head: &DirectionalityHead,
        cfg: &DeepDirectConfig,
    ) -> FxHashMap<u32, f64> {
        let dim = self.dim;
        let mut features = vec![0.0f32; feature_dim(cfg)];
        let mut scores = FxHashMap::default();
        scores.reserve(self.heads.len());
        for (slot, &v) in self.heads.iter().enumerate() {
            let n = self.count[slot] as f32;
            for (f, &s) in features[..dim].iter_mut().zip(&self.sum[slot * dim..]) {
                *f = s / n;
            }
            scores.insert(v, head.score(&features));
        }
        scores
    }
}
