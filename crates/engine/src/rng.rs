//! Deterministic, splittable random-number source.
//!
//! Every stochastic element of the simulation (per-processor reference
//! streams, read/write coin flips) draws from a [`SimRng`] derived from
//! a single experiment seed, so whole experiments replay bit-for-bit.
//!
//! The generator is a self-contained xoshiro256++ (Blackman & Vigna),
//! seeded through splitmix64 — the standard seeding recipe — so the
//! simulator carries no external RNG dependency.

use ringmesh_snap::{Codec, Snap, SnapError};

/// Mixes a 64-bit value through the `splitmix64` finalizer; used to
/// derive well-separated child seeds from `(seed, stream-id)` pairs and
/// to expand a 64-bit seed into the generator's 256-bit state.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable random-number generator with the variates the M-MRP
/// workload model needs.
///
/// Wraps a non-cryptographic xoshiro256++ core; use [`SimRng::stream`]
/// to derive independent per-component generators from one experiment
/// seed.
///
/// # Example
///
/// ```
/// use ringmesh_engine::SimRng;
///
/// let mut a = SimRng::from_seed(42).stream(7);
/// let mut b = SimRng::from_seed(42).stream(7);
/// assert_eq!(a.uniform_usize(100), b.uniform_usize(100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        // Expand the seed through a splitmix64 chain; the all-zero
        // state (unreachable from splitmix64 output in practice) would
        // be the only invalid one.
        let mut s = splitmix64(seed);
        let state = std::array::from_fn(|_| {
            s = splitmix64(s);
            s
        });
        SimRng { seed, state }
    }

    /// Derives an independent generator for stream `id`.
    ///
    /// Streams derived from the same `(seed, id)` pair are identical;
    /// different ids give statistically independent sequences. Derivation
    /// depends only on the root seed, not on how many values have been
    /// drawn from `self`.
    pub fn stream(&self, id: u64) -> SimRng {
        SimRng::from_seed(splitmix64(
            self.seed ^ splitmix64(id.wrapping_add(0xA5A5_5A5A)),
        ))
    }

    /// The root seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The xoshiro256++ step: full-period 64-bit output.
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn uniform_usize(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "uniform_usize bound must be positive");
        // Lemire's multiply-shift reduction: bias is at most
        // bound / 2^64, far below anything a simulation could observe.
        ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn uniform_f64(&mut self) -> f64 {
        // 53 top bits — the standard uniform-double recipe.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `(0, 1]` — safe to feed to `ln()`.
    fn uniform_open0(&mut self) -> f64 {
        1.0 - self.uniform_f64()
    }

    /// Bernoulli trial: true with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0,1]");
        self.uniform_f64() < p
    }

    /// Exponentially distributed value with the given `mean`.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        -mean * self.uniform_open0().ln()
    }

    /// Geometrically distributed trial count (>= 1) with success
    /// probability `p`: the number of Bernoulli trials up to and
    /// including the first success.
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "probability {p} outside (0,1]");
        if p >= 1.0 {
            return 1;
        }
        let u = self.uniform_open0();
        (u.ln() / (1.0 - p).ln()).ceil().max(1.0) as u64
    }
}

impl Snap for SimRng {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        self.seed.snap(c)?;
        self.state.snap(c)?;
        if self.state == [0; 4] {
            return Err(SnapError::Corrupt("all-zero xoshiro state".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringmesh_snap::{SnapReader, SnapWriter};

    #[test]
    fn snapshot_resumes_mid_stream() {
        let mut rng = SimRng::from_seed(77);
        for _ in 0..13 {
            rng.next_u64();
        }
        let mut w = SnapWriter::new();
        rng.snap(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut restored = SimRng::from_seed(0);
        restored.snap(&mut SnapReader::new(&bytes)).unwrap();
        for _ in 0..32 {
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
        assert_eq!(rng.seed(), restored.seed());
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(1);
        for _ in 0..100 {
            assert_eq!(a.uniform_usize(1000), b.uniform_usize(1000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(2);
        let same = (0..64)
            .filter(|_| a.uniform_usize(1 << 30) == b.uniform_usize(1 << 30))
            .count();
        assert!(same < 4, "sequences should be essentially disjoint");
    }

    #[test]
    fn streams_are_independent_of_draw_position() {
        let root = SimRng::from_seed(9);
        let mut early = root.stream(3);
        let mut consumed = root.clone();
        for _ in 0..10 {
            consumed.uniform_f64();
        }
        let mut late = consumed.stream(3);
        for _ in 0..16 {
            assert_eq!(early.uniform_usize(1 << 20), late.uniform_usize(1 << 20));
        }
    }

    #[test]
    fn bernoulli_mean_close_to_p() {
        let mut r = SimRng::from_seed(7);
        let n = 20_000;
        let hits = (0..n).filter(|_| r.bernoulli(0.7)).count();
        let mean = hits as f64 / n as f64;
        assert!((mean - 0.7).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = SimRng::from_seed(11);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(25.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 25.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn geometric_mean_close() {
        let mut r = SimRng::from_seed(13);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| r.geometric(0.04)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 25.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn uniform_usize_stays_in_bounds() {
        let mut r = SimRng::from_seed(5);
        assert!((0..10_000).all(|_| r.uniform_usize(7) < 7));
    }

    #[test]
    fn geometric_with_p_one_is_one() {
        let mut r = SimRng::from_seed(17);
        assert_eq!(r.geometric(1.0), 1);
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut r = SimRng::from_seed(21);
        assert!((0..10_000)
            .map(|_| r.uniform_f64())
            .all(|v| (0.0..1.0).contains(&v)));
    }
}
