//! Walker alias method for O(1) sampling from discrete distributions.
//!
//! The E-Step draws ties from `P_c(f) ∝ deg_tie(f)` at each iteration and
//! negatives from the word2vec noise distribution `P_n(f) ∝ deg_tie(f)^{3/4}`
//! (Eq. 9). Both are fixed during training, so an alias table amortizes the
//! construction cost into constant-time draws.

use crate::bytes::advise_huge_pages;
use crate::kernels::prefetch;
use crate::rng::Pcg32;

/// One outcome's column of the table: keep it with probability `prob`,
/// else take `alias`. Packed together so a draw reads one cache line.
#[derive(Debug, Clone, Copy)]
struct AliasEntry {
    prob: f32,
    alias: u32,
}

/// Precomputed alias table over `n` outcomes.
#[derive(Debug, Clone)]
pub struct AliasTable {
    entries: Vec<AliasEntry>,
}

impl AliasTable {
    /// Builds an alias table from non-negative weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one outcome");
        let total: f64 = weights
            .iter()
            .inspect(|w| assert!(w.is_finite() && **w >= 0.0, "weights must be finite and ≥ 0"))
            .sum();
        assert!(total > 0.0, "weights must not all be zero");
        let n = weights.len();
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            if prob[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers are numerically 1.
        for i in small.into_iter().chain(large) {
            prob[i as usize] = 1.0;
        }
        // Sampled at random indices all through the E-Step.
        let mut entries = Vec::with_capacity(n);
        advise_huge_pages(entries.spare_capacity_mut());
        entries
            .extend(prob.iter().zip(alias).map(|(&p, alias)| AliasEntry { prob: p as f32, alias }));
        AliasTable { entries }
    }

    /// Builds the word2vec noise distribution `P_n ∝ w^{3/4}` from raw
    /// weights (typically tie degrees). Zero weights stay zero.
    pub fn unigram_pow(weights: &[f64], power: f64) -> Self {
        let powered: Vec<f64> = weights.iter().map(|w| w.powf(power)).collect();
        // Guard: if every weight was zero, fall back to uniform so callers
        // sampling negatives from a degenerate graph still make progress.
        if powered.iter().all(|&w| crate::float::is_zero(w)) {
            return Self::new(&vec![1.0; weights.len()]);
        }
        Self::new(&powered)
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Draws one outcome index in O(1): [`AliasTable::column`], then
    /// [`AliasTable::resolve`] with the next uniform `f32`.
    #[inline]
    pub fn sample(&self, rng: &mut Pcg32) -> usize {
        let i = self.column(rng);
        self.resolve(i, rng.next_f32())
    }

    /// The first half of a draw: the column it reads, from one
    /// `gen_range`. Reads no entry.
    #[inline]
    pub fn column(&self, rng: &mut Pcg32) -> usize {
        rng.gen_range(self.entries.len())
    }

    /// The second half of a draw: column `i` keeps itself when `u` falls
    /// under its probability, else yields its alias.
    #[inline]
    pub fn resolve(&self, i: usize, u: f32) -> usize {
        let AliasEntry { prob, alias } = self.entries[i];
        if u < prob {
            i
        } else {
            alias as usize
        }
    }

    /// Hints the CPU to fetch column `i`'s entry, so a later
    /// [`AliasTable::resolve`] of it does not wait on memory. Any `i` is
    /// fine: the address is never dereferenced.
    #[inline]
    pub fn prefetch_column(&self, i: usize) {
        prefetch(self.entries.as_ptr().wrapping_add(i).cast(), 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The table as it was before packing: `prob` and `alias` as two
    /// arrays, built and sampled by the same steps.
    struct TwoArrayAlias {
        prob: Vec<f32>,
        alias: Vec<u32>,
    }

    impl TwoArrayAlias {
        fn new(weights: &[f64]) -> Self {
            let total: f64 = weights.iter().sum();
            let n = weights.len();
            let scale = n as f64 / total;
            let mut prob: Vec<f64> = weights.iter().map(|w| w * scale).collect();
            let mut alias = vec![0u32; n];
            let mut small: Vec<u32> = Vec::with_capacity(n);
            let mut large: Vec<u32> = Vec::with_capacity(n);
            for (i, &p) in prob.iter().enumerate() {
                if p < 1.0 {
                    small.push(i as u32);
                } else {
                    large.push(i as u32);
                }
            }
            while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
                alias[s as usize] = l;
                prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
                if prob[l as usize] < 1.0 {
                    small.push(l);
                } else {
                    large.push(l);
                }
            }
            for i in small.into_iter().chain(large) {
                prob[i as usize] = 1.0;
            }
            TwoArrayAlias { prob: prob.into_iter().map(|p| p as f32).collect(), alias }
        }

        fn unigram_pow(weights: &[f64], power: f64) -> Self {
            let powered: Vec<f64> = weights.iter().map(|w| w.powf(power)).collect();
            if powered.iter().all(|&w| crate::float::is_zero(w)) {
                return Self::new(&vec![1.0; weights.len()]);
            }
            Self::new(&powered)
        }

        fn sample(&self, rng: &mut Pcg32) -> usize {
            let i = rng.gen_range(self.prob.len());
            if rng.next_f32() < self.prob[i] {
                i
            } else {
                self.alias[i] as usize
            }
        }
    }

    /// Draws `draws` indices from both tables off one seed each and checks
    /// the sequences and the RNG states they leave agree.
    fn assert_same_draws(packed: &AliasTable, reference: &TwoArrayAlias, seed: u64, draws: usize) {
        let mut a = Pcg32::seed_from_u64(seed);
        let mut b = Pcg32::seed_from_u64(seed);
        for k in 0..draws {
            assert_eq!(packed.sample(&mut a), reference.sample(&mut b), "draw {k}, seed {seed}");
        }
        assert_eq!(a.next_u64(), b.next_u64(), "RNG streams diverged");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn packed_sample_matches_two_array_reference(
            weights in proptest::collection::vec(0.0f64..10.0, 1..64),
            zeros in proptest::collection::vec(0u8..2, 64..=64),
            seed in 0u64..u64::MAX,
        ) {
            // Zero out a random subset, keeping at least one outcome live.
            let mut weights = weights;
            for (w, &z) in weights.iter_mut().zip(&zeros) {
                if z == 1 {
                    *w = 0.0;
                }
            }
            if weights.iter().all(|&w| crate::float::is_zero(w)) {
                weights[0] = 1.0;
            }
            assert_same_draws(&AliasTable::new(&weights), &TwoArrayAlias::new(&weights), seed, 500);
            assert_same_draws(
                &AliasTable::unigram_pow(&weights, 0.75),
                &TwoArrayAlias::unigram_pow(&weights, 0.75),
                seed,
                500,
            );
        }

        #[test]
        fn packed_unigram_all_zero_fallback_matches_reference(n in 1usize..40, seed in 0u64..u64::MAX) {
            let weights = vec![0.0; n];
            assert_same_draws(
                &AliasTable::unigram_pow(&weights, 0.75),
                &TwoArrayAlias::unigram_pow(&weights, 0.75),
                seed,
                200,
            );
        }
    }

    fn empirical(table: &AliasTable, n: usize, draws: usize, seed: u64) -> Vec<f64> {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut counts = vec![0usize; n];
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn matches_target_distribution() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let table = AliasTable::new(&weights);
        let freq = empirical(&table, 4, 200_000, 1);
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expected = w / total;
            assert!((freq[i] - expected).abs() < 0.01, "outcome {i}: {} vs {expected}", freq[i]);
        }
    }

    #[test]
    fn zero_weight_outcomes_never_drawn() {
        let table = AliasTable::new(&[0.0, 1.0, 0.0, 1.0]);
        let freq = empirical(&table, 4, 50_000, 2);
        assert_eq!(freq[0], 0.0);
        assert_eq!(freq[2], 0.0);
        assert!((freq[1] - 0.5).abs() < 0.02);
    }

    #[test]
    fn single_outcome() {
        let table = AliasTable::new(&[5.0]);
        let mut rng = Pcg32::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(table.sample(&mut rng), 0);
        }
        assert_eq!(table.len(), 1);
        assert!(!table.is_empty());
    }

    #[test]
    fn unigram_power_flattens() {
        // With power 3/4 the heavy outcome is under-sampled relative to its
        // raw share.
        let weights = [1.0, 16.0];
        let raw_share = 16.0 / 17.0;
        let table = AliasTable::unigram_pow(&weights, 0.75);
        let freq = empirical(&table, 2, 100_000, 4);
        let pow_share = 16f64.powf(0.75) / (1.0 + 16f64.powf(0.75));
        assert!((freq[1] - pow_share).abs() < 0.01);
        assert!(freq[1] < raw_share);
    }

    #[test]
    fn unigram_all_zero_falls_back_to_uniform() {
        let table = AliasTable::unigram_pow(&[0.0, 0.0, 0.0], 0.75);
        let freq = empirical(&table, 3, 30_000, 5);
        for f in freq {
            assert!((f - 1.0 / 3.0).abs() < 0.02);
        }
    }

    #[test]
    #[should_panic(expected = "at least one outcome")]
    fn rejects_empty() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn rejects_all_zero() {
        let _ = AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_negative() {
        let _ = AliasTable::new(&[1.0, -1.0]);
    }
}
