//! The pair lookup: the row of each ordered tie `(u, v)`, without a hash.

/// Row of each ordered tie, found by binary search over the ties' keys
/// sorted by `(src, dst)`. Holds 12 bytes per tie (an 8-byte key and a
/// 4-byte row) plus one 4-byte offset per bucket of sources.
///
/// Sources are bucketed by `src >> shift`, with `shift` the smallest value
/// that leaves at most `rows + 1` buckets. Dense ids (every honest file)
/// get `shift = 0`, one bucket per source: per-source offsets. Ids up to
/// `u32::MAX` only raise `shift`, so no allocation is ever sized by a node
/// id. A repeated pair answers with its last row.
#[derive(Debug, Clone)]
pub(crate) struct PairIndex {
    /// `(src << 32) | dst` of each tie, sorted; equal keys by row.
    keys: Vec<u64>,
    /// Row of each key.
    rows: Vec<u32>,
    /// Bucket `b`'s keys are `keys[offsets[b]..offsets[b + 1]]`.
    offsets: Vec<u32>,
    shift: u32,
}

fn key(u: u32, v: u32) -> u64 {
    u64::from(u) << 32 | u64::from(v)
}

impl PairIndex {
    /// Indexes the ties in row order. Four passes over them: the largest
    /// source; the count of each bucket, then its start; the keys and rows
    /// scattered into their buckets in row order; each bucket sorted by
    /// `(key, row)`. Nothing is collected first, so a loader can pass the
    /// two tie payloads it already holds. Rows are `u32`, as a `.ddm`'s row
    /// count is, so there are at most `u32::MAX` ties.
    pub(crate) fn new<I>(ties: I) -> Self
    where
        I: ExactSizeIterator<Item = (u32, u32)> + Clone,
    {
        let n = ties.len();
        let max_src = ties.clone().map(|(u, _)| u).max().unwrap_or(0);
        let mut shift = 0;
        while (max_src >> shift) as usize > n {
            shift += 1;
        }
        let buckets = (max_src >> shift) as usize + 1;

        // `offsets[b]` first holds bucket `b`'s start, then serves as its
        // cursor, ending at its end; shifting it one place on restores the
        // starts.
        let mut offsets = vec![0u32; buckets + 1];
        for (u, _) in ties.clone() {
            offsets[(u >> shift) as usize + 1] += 1;
        }
        for b in 1..=buckets {
            offsets[b] += offsets[b - 1];
        }
        let mut keys = vec![0u64; n];
        let mut rows = vec![0u32; n];
        for (row, (u, v)) in ties.enumerate() {
            let at = &mut offsets[(u >> shift) as usize];
            keys[*at as usize] = key(u, v);
            rows[*at as usize] = row as u32;
            *at += 1;
        }
        offsets.copy_within(..buckets, 1);
        offsets[0] = 0;

        // In `(key, row)` order a repeated pair's last row comes last, which
        // is the one `get` finds.
        let mut scratch: Vec<(u64, u32)> = Vec::new();
        for b in offsets.windows(2) {
            let (lo, hi) = (b[0] as usize, b[1] as usize);
            let (keys, rows) = (&mut keys[lo..hi], &mut rows[lo..hi]);
            scratch.clear();
            scratch.extend(keys.iter().copied().zip(rows.iter().copied()));
            scratch.sort_unstable();
            for ((k, r), &(sk, sr)) in keys.iter_mut().zip(rows.iter_mut()).zip(&scratch) {
                (*k, *r) = (sk, sr);
            }
        }
        PairIndex { keys, rows, offsets, shift }
    }

    /// Row of the ordered tie `(u, v)`, if indexed: the last row of a
    /// repeated pair.
    pub(crate) fn get(&self, u: u32, v: u32) -> Option<u32> {
        let b = (u >> self.shift) as usize;
        let (lo, hi) = (*self.offsets.get(b)? as usize, *self.offsets.get(b + 1)? as usize);
        let keys = &self.keys[lo..hi];
        let key = key(u, v);
        let at = keys.partition_point(|&k| k <= key);
        (at > 0 && keys[at - 1] == key).then(|| self.rows[lo + at - 1])
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
            index.offsets.len() <= ties.len() + 2,
            "{} offsets for {} ties",
            index.offsets.len(),
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
            assert!(PairIndex::new(ties.iter().copied()).shift > 0);
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
        assert_eq!(index.shift, 0);
    }
}
