//! A small, fast PCG32 random number generator for hot training loops.
//!
//! The `rand` crate's `StdRng` (ChaCha12) is cryptographically strong but
//! needlessly slow for SGD sampling, and `SmallRng` is behind a feature flag.
//! PCG32 (Melissa O'Neill, 2014) passes the statistical test batteries that
//! matter for simulation workloads at a cost of a multiply and a shift per
//! draw. Each E-Step worker thread gets its own stream via [`Pcg32::split`].
//! [`Pcg32::jump`] precomputes a skip of many steps along a stream, which
//! the E-Step's look-ahead applies to copies of a worker's generator to
//! guess its later draws.

/// PCG32 (XSH-RR variant) generator state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const MULT: u64 = 6364136223846793005;

/// A precomputed jump of a fixed number of steps along one PCG stream: the
/// affine map `state ↦ mult·state + plus` that `delta` calls of
/// [`Pcg32::next_u32`] compose to. Built once by [`Pcg32::jump`], applied in
/// one multiply-add by [`Pcg32::jumped`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jump {
    mult: u64,
    plus: u64,
    inc: u64,
}

impl Pcg32 {
    /// Creates a generator from a seed and a stream id.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Pcg32 { state: 0, inc: (stream << 1) | 1 };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Creates a generator from a seed on the default stream.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self::new(seed, 0xda3e39cb94b95bdb)
    }

    /// Derives an independent generator for worker `index`, on a distinct
    /// PCG stream (streams differ in the increment, so sequences never
    /// collide even with equal seeds).
    pub fn split(&mut self, index: u64) -> Pcg32 {
        let seed = self.next_u64();
        Pcg32::new(seed, 0x9e3779b97f4a7c15 ^ (index.wrapping_mul(0xbf58476d1ce4e5b9)))
    }

    /// The jump of `delta` steps along this generator's stream (O'Neill's
    /// PCG advance: square-and-multiply over the LCG's affine map, so
    /// O(log delta)). `delta` may be anything up to the 2^64 period.
    pub fn jump(&self, delta: u64) -> Jump {
        let (mut cur_mult, mut cur_plus) = (MULT, self.inc);
        let (mut mult, mut plus) = (1u64, 0u64);
        let mut d = delta;
        while d > 0 {
            if d & 1 == 1 {
                mult = mult.wrapping_mul(cur_mult);
                plus = plus.wrapping_mul(cur_mult).wrapping_add(cur_plus);
            }
            cur_plus = cur_mult.wrapping_add(1).wrapping_mul(cur_plus);
            cur_mult = cur_mult.wrapping_mul(cur_mult);
            d >>= 1;
        }
        Jump { mult, plus, inc: self.inc }
    }

    /// A copy of this generator moved `j`'s steps ahead: it yields what this
    /// one would after that many [`Pcg32::next_u32`] calls. `j` must come
    /// from a generator on the same stream.
    #[inline]
    pub fn jumped(&self, j: &Jump) -> Pcg32 {
        debug_assert_eq!(j.inc, self.inc, "a jump applies only to its own stream");
        Pcg32 { state: j.mult.wrapping_mul(self.state).wrapping_add(j.plus), inc: self.inc }
    }

    /// Next 32 uniformly distributed bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform `f64` in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)` with 24 random bits.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift method
    /// with rejection for exactness.
    #[inline]
    pub fn gen_range(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0, "gen_range bound must be positive");
        let bound = bound as u64;
        // 64-bit multiply-shift over next_u64 keeps bias < 2^-64 even for
        // large bounds; exact rejection is unnecessary at simulation quality.
        let x = self.next_u64();
        ((x as u128 * bound as u128) >> 64) as usize
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Pcg32::seed_from_u64(42);
        let mut b = Pcg32::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
        let mut c = Pcg32::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut rng = Pcg32::seed_from_u64(1);
        let mut sum = 0.0;
        let n = 100_000;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_range_covers_and_bounds() {
        let mut rng = Pcg32::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = rng.gen_range(10);
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit");
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = Pcg32::seed_from_u64(3);
        let mut counts = [0u32; 4];
        let n = 40_000;
        for _ in 0..n {
            counts[rng.gen_range(4)] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.25).abs() < 0.02, "bucket fraction {frac}");
        }
    }

    #[test]
    fn split_streams_diverge() {
        let mut root = Pcg32::seed_from_u64(7);
        let mut a = root.split(0);
        let mut b = root.split(1);
        let mut equal = 0;
        for _ in 0..64 {
            if a.next_u32() == b.next_u32() {
                equal += 1;
            }
        }
        assert!(equal < 4, "split streams should not track each other");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A jump of `k` equals `k` single steps, at the depths the E-Step
        /// looks ahead (`5 + 3λ` per iteration) and beyond.
        #[test]
        fn jump_equals_single_steps(
            seed in 0u64..u64::MAX,
            stream in 0u64..u64::MAX,
            k in 0u64..3000,
            lambda in 0u64..12,
            iters in 1u64..12,
        ) {
            let rng = Pcg32::new(seed, stream);
            for delta in [0, 1, 5 + 3 * lambda, iters * (5 + 3 * lambda), k] {
                let mut stepped = rng.clone();
                for _ in 0..delta {
                    stepped.next_u32();
                }
                prop_assert_eq!(rng.jumped(&rng.jump(delta)), stepped, "delta {}", delta);
            }
        }

        /// Large jumps compose, and the whole 2^64 period comes back round.
        #[test]
        fn large_jumps_compose_and_wrap(
            seed in 0u64..u64::MAX,
            stream in 0u64..u64::MAX,
            a in 0u64..u64::MAX,
            b in 0u64..u64::MAX,
        ) {
            let rng = Pcg32::new(seed, stream);
            let two = rng.jumped(&rng.jump(a)).jumped(&rng.jump(b));
            prop_assert_eq!(two, rng.jumped(&rng.jump(a.wrapping_add(b))));
            let mut lap = rng.jumped(&rng.jump(u64::MAX));
            lap.next_u32();
            prop_assert_eq!(lap, rng);
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = Pcg32::seed_from_u64(9);
        let n = 50_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.015, "frac {frac}");
    }
}
