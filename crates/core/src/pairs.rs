//! The pair lookup: the row of each ordered tie `(u, v)`, without a hash,
//! and the bucketing by node id it shares with the head scores.

use std::ops::Range;

/// Items grouped by the id each carries, in buckets `id >> shift`, by a
/// counting pass and prefix sums. `shift` is the smallest value that leaves
/// at most `n + 1` buckets for `n` items, so `offsets` never has more than
/// `n + 2` entries whatever the ids: dense ids (every honest file) get
/// `shift = 0`, one bucket per id, and ids up to `u32::MAX` only raise
/// `shift`. No allocation is ever sized by a node id.
#[derive(Debug, Clone)]
pub(crate) struct Buckets {
    /// Bucket `b`'s items are at positions `offsets[b]..offsets[b + 1]`.
    offsets: Vec<u32>,
    shift: u32,
}

impl Buckets {
    /// Buckets `items`, each an id and a payload, and hands `place` each
    /// payload with its position: bucket by bucket, in input order within a
    /// bucket. Three passes over the items: the largest id; the count of
    /// each bucket, then its start; the placement. Positions are `u32`, so
    /// there are at most `u32::MAX` items.
    pub(crate) fn scatter<T, I>(items: I, mut place: impl FnMut(usize, T)) -> Self
    where
        I: ExactSizeIterator<Item = (u32, T)> + Clone,
    {
        let n = items.len();
        let max = items.clone().map(|(id, _)| id).max().unwrap_or(0);
        let mut shift = 0;
        while (max >> shift) as usize > n {
            shift += 1;
        }
        let buckets = (max >> shift) as usize + 1;

        // `offsets[b]` first holds bucket `b`'s start, then serves as its
        // cursor, ending at its end; shifting it one place on restores the
        // starts.
        let mut offsets = vec![0u32; buckets + 1];
        for (id, _) in items.clone() {
            offsets[(id >> shift) as usize + 1] += 1;
        }
        for b in 1..=buckets {
            offsets[b] += offsets[b - 1];
        }
        for (id, item) in items {
            let at = &mut offsets[(id >> shift) as usize];
            place(*at as usize, item);
            *at += 1;
        }
        offsets.copy_within(..buckets, 1);
        offsets[0] = 0;
        Buckets { offsets, shift }
    }

    /// Positions of the bucket `id` falls in; empty past the last bucket.
    pub(crate) fn range(&self, id: u32) -> Range<usize> {
        let b = (id >> self.shift) as usize;
        match (self.offsets.get(b), self.offsets.get(b + 1)) {
            (Some(&lo), Some(&hi)) => lo as usize..hi as usize,
            _ => 0..0,
        }
    }

    /// Each bucket's positions, in bucket order.
    pub(crate) fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.offsets.windows(2).map(|b| b[0] as usize..b[1] as usize)
    }

    /// Number of buckets and the shift, for tests of what a bucketing holds.
    #[cfg(test)]
    pub(crate) fn shape(&self) -> (usize, u32) {
        (self.offsets.len() - 1, self.shift)
    }
}

/// Row of each ordered tie, found by binary search over the ties' keys
/// sorted by `(src, dst)`. Holds 12 bytes per tie (an 8-byte key and a
/// 4-byte row) plus one 4-byte offset per bucket of sources ([`Buckets`]):
/// per-source offsets for dense ids. A repeated pair answers with its last
/// row.
#[derive(Debug, Clone)]
pub(crate) struct PairIndex {
    /// `(src << 32) | dst` of each tie, sorted; equal keys by row.
    keys: Vec<u64>,
    /// Row of each key.
    rows: Vec<u32>,
    /// The keys bucketed by source.
    by_src: Buckets,
}

fn key(u: u32, v: u32) -> u64 {
    u64::from(u) << 32 | u64::from(v)
}

impl PairIndex {
    /// Indexes the ties in row order: [`Buckets::scatter`] places each
    /// key and row in its source's bucket, then each bucket is sorted by
    /// `(key, row)`. Nothing is collected first, so a loader can pass the
    /// two tie payloads it already holds. Rows are `u32`, as a `.ddm`'s row
    /// count is.
    pub(crate) fn new<I>(ties: I) -> Self
    where
        I: ExactSizeIterator<Item = (u32, u32)> + Clone,
    {
        let n = ties.len();
        let mut keys = vec![0u64; n];
        let mut rows = vec![0u32; n];
        let items = ties.enumerate().map(|(row, (u, v))| (u, (key(u, v), row as u32)));
        let by_src = Buckets::scatter(items, |at, (k, row)| {
            keys[at] = k;
            rows[at] = row;
        });

        // In `(key, row)` order a repeated pair's last row comes last, which
        // is the one `get` finds.
        let mut scratch: Vec<(u64, u32)> = Vec::new();
        for b in by_src.ranges() {
            let (keys, rows) = (&mut keys[b.clone()], &mut rows[b]);
            scratch.clear();
            scratch.extend(keys.iter().copied().zip(rows.iter().copied()));
            scratch.sort_unstable();
            for ((k, r), &(sk, sr)) in keys.iter_mut().zip(rows.iter_mut()).zip(&scratch) {
                (*k, *r) = (sk, sr);
            }
        }
        PairIndex { keys, rows, by_src }
    }

    /// Row of the ordered tie `(u, v)`, if indexed: the last row of a
    /// repeated pair.
    pub(crate) fn get(&self, u: u32, v: u32) -> Option<u32> {
        let b = self.by_src.range(u);
        let keys = &self.keys[b.clone()];
        let key = key(u, v);
        let at = keys.partition_point(|&k| k <= key);
        (at > 0 && keys[at - 1] == key).then(|| self.rows[b.start + at - 1])
    }

    /// Every indexed tie as `(dst, row)`, in key order: by source, then
    /// destination, then row. Repeated pairs appear once per row.
    pub(crate) fn heads(&self) -> impl ExactSizeIterator<Item = (u32, usize)> + Clone + '_ {
        self.keys.iter().zip(&self.rows).map(|(&k, &row)| (k as u32, row as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_graph::hash::FxHashMap;
    use dd_linalg::rng::Pcg32;

    /// Builds the index and checks it against a map filled in row order:
    /// every pair of the list and every probe gives the map's answer.
    fn check(ties: &[(u32, u32)], probes: &[(u32, u32)]) {
        let index = PairIndex::new(ties.iter().copied());
        assert!(
            index.by_src.offsets.len() <= ties.len() + 2,
            "{} offsets for {} ties",
            index.by_src.offsets.len(),
            ties.len()
        );
        assert_eq!(index.keys.len(), ties.len());
        let mut reference = FxHashMap::default();
        for (row, &pair) in ties.iter().enumerate() {
            reference.insert(pair, row as u32);
        }
        for &(u, v) in ties.iter().chain(probes) {
            assert_eq!(index.get(u, v), reference.get(&(u, v)).copied(), "pair ({u}, {v})");
        }
    }

    type Pairs = Vec<(u32, u32)>;

    /// `n` random ties over ids drawn by `id`, every fourth one a repeat
    /// of an earlier tie, plus probes: near misses of each tie and fresh
    /// draws.
    fn random_case(
        rng: &mut Pcg32,
        n: usize,
        mut id: impl FnMut(&mut Pcg32) -> u32,
    ) -> (Pairs, Pairs) {
        let mut ties: Pairs = Vec::with_capacity(n);
        for _ in 0..n {
            let tie = if !ties.is_empty() && rng.gen_range(4) == 0 {
                ties[rng.gen_range(ties.len())]
            } else {
                (id(rng), id(rng))
            };
            ties.push(tie);
        }
        let mut probes: Pairs = ties
            .iter()
            .flat_map(|&(u, v)| {
                [(v, u), (u, v.wrapping_add(1)), (u, v.wrapping_sub(1)), (u.wrapping_add(1), v)]
            })
            .collect();
        probes.extend((0..n).map(|_| (id(rng), id(rng))));
        (ties, probes)
    }

    #[test]
    fn matches_a_map_on_dense_ids_with_repeats() {
        for seed in 0..200 {
            let mut rng = Pcg32::seed_from_u64(seed);
            let n = rng.gen_range(300);
            let nodes = 1 + rng.gen_range(60) as u32;
            let (ties, probes) = random_case(&mut rng, n, |r| r.next_u32() % nodes);
            check(&ties, &probes);
        }
    }

    #[test]
    fn matches_a_map_on_ids_from_the_whole_range() {
        for seed in 0..200 {
            let mut rng = Pcg32::seed_from_u64(1000 + seed);
            let n = 1 + rng.gen_range(300);
            let (mut ties, probes) = random_case(&mut rng, n, |r| match r.gen_range(4) {
                0 => u32::MAX - r.next_u32() % 4,
                1 => r.next_u32() % 4,
                _ => r.next_u32(),
            });
            ties.push((u32::MAX, u32::MAX));
            check(&ties, &probes);
            assert!(PairIndex::new(ties.iter().copied()).by_src.shift > 0);
        }
    }

    #[test]
    fn empty_and_single_tie() {
        let probes = [(0, 0), (0, 1), (1, 0), (u32::MAX, 0), (u32::MAX, u32::MAX)];
        check(&[], &probes);
        assert_eq!(PairIndex::new(std::iter::empty()).get(0, 0), None);
        for tie in [(0, 0), (3, 7), (u32::MAX, 0), (0, u32::MAX), (u32::MAX, u32::MAX)] {
            check(&[tie], &probes);
            assert_eq!(PairIndex::new([tie].into_iter()).get(tie.0, tie.1), Some(0));
        }
    }

    #[test]
    fn a_repeated_pair_keeps_its_last_row() {
        let ties = [(5, 1), (2, 9), (5, 1), (5, 0), (5, 1), (2, 9)];
        let index = PairIndex::new(ties.iter().copied());
        assert_eq!(index.get(5, 1), Some(4));
        assert_eq!(index.get(2, 9), Some(5));
        assert_eq!(index.get(5, 0), Some(3));
        assert_eq!(index.get(5, 2), None);
        assert_eq!(index.get(6, 1), None);
        assert_eq!(index.by_src.shift, 0);
    }
}
