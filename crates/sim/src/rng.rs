//! Deterministic pseudo-random numbers for the simulator.
//!
//! Implemented from scratch (SplitMix64 seeding a xoshiro256\*\* core) so the
//! simulator does not depend on `rand` and its output is stable across
//! versions — reproducibility of every figure depends on this.

/// xoshiro256\*\* generator with SplitMix64 seeding.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Derives an independent child generator (for per-core streams).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 high bits give a uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift rejection-free mapping (bias negligible for sim use).
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Exponentially distributed value with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.f64(); // (0, 1]
        -mean * u.ln()
    }

    /// Normally distributed value (Box–Muller) with given mean and stddev.
    pub fn normal(&mut self, mean: f64, stddev: f64) -> f64 {
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + stddev * z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::new(9);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn range_inclusive() {
        let mut r = Rng::new(11);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = r.range(3, 5);
            assert!((3..=5).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 5;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = Rng::new(13);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.exp(250.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 250.0).abs() < 5.0, "mean {mean}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = Rng::new(17);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "stddev {}", var.sqrt());
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = Rng::new(5);
        let mut c = a.fork();
        // Parent and child should not be correlated step-for-step.
        let same = (0..100).filter(|_| a.next_u64() == c.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniformity_rough_chi_square() {
        let mut r = Rng::new(23);
        let mut buckets = [0u32; 16];
        let n = 160_000;
        for _ in 0..n {
            buckets[r.below(16) as usize] += 1;
        }
        let expect = n as f64 / 16.0;
        for (i, &b) in buckets.iter().enumerate() {
            let dev = (b as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "bucket {i} off by {dev}");
        }
    }
}
