//! Small, fast, seedable PRNG for dataset synthesis.
//!
//! Xoshiro256++ (Blackman & Vigna) with a SplitMix64 seeder. The dataset
//! generators must be bit-reproducible across runs and platforms so every
//! experiment in EXPERIMENTS.md regenerates identical inputs; a local PRNG
//! with a frozen algorithm guarantees that independent of external crate
//! version bumps.

/// Xoshiro256++ pseudo-random generator.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed via SplitMix64 so that nearby seeds give unrelated streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = move || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next_sm(), next_sm(), next_sm(), next_sm()];
        Xoshiro256 { s }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` (53-bit resolution).
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. `n` must be non-zero.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal via Box–Muller (one value per call; the twin is
    /// discarded to keep the state stream simple and reproducible).
    pub fn normal(&mut self) -> f64 {
        loop {
            let u1 = self.uniform();
            if u1 > 1e-300 {
                let u2 = self.uniform();
                return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Xoshiro256::seed_from_u64(42);
        let mut b = Xoshiro256::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = Xoshiro256::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.uniform();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut r = Xoshiro256::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Xoshiro256::seed_from_u64(13);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Xoshiro256::seed_from_u64(17);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }
}
