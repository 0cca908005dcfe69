//! Discrete samplers used by the workload generator.

use crate::stream::StreamRng;
use rand::Rng;

/// Zipf-like sampler over `0..n` via inverse-CDF table lookup.
///
/// Item `i` gets weight `1 / (i+1)^theta`; `theta = 0` degenerates to
/// uniform, larger values concentrate probability on low indices. A caller
/// wanting skew over *arbitrary* items applies its own permutation of the
/// index space (hot items should not always be item 0).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "empty support");
        assert!(theta >= 0.0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point shortfall at the top end (the table
        // is never empty: `n > 0` is asserted above).
        if let Some(top) = cdf.last_mut() {
            *top = 1.0;
        }
        Zipf { cdf }
    }

    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draw one index.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // partition_point returns the count of entries < u, i.e. the first
        // index whose cumulative mass reaches u.
        self.cdf.partition_point(|&c| c < u)
    }

    /// Probability mass of index `i` (for calibration tests).
    pub fn pmf(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

/// Exponential interarrival sampler returning integer nanoseconds.
#[inline]
pub fn exp_ns<R: Rng>(rng: &mut R, mean_ns: f64) -> u64 {
    debug_assert!(mean_ns > 0.0);
    // Inverse transform; clamp u away from 0 to avoid ln(0).
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    (-mean_ns * u.ln()).round().min(u64::MAX as f64) as u64
}

/// Geometric sampler over `1..=max` (number of trials until first success),
/// truncated; used for multiblock request lengths and LRU stack distances.
///
/// Each trial is the integer form of `rng.gen::<f64>() >= p`: a standard
/// `f64` draw is `(next_u64() >> 11) · 2⁻⁵³`, exact, so it is `>= p`
/// exactly when the 53-bit integer reaches `⌈p · 2⁵³⌉` (also exact: scaling
/// by a power of two loses nothing). [`StreamRng::geometric_trials`] runs
/// the trials; for `p ≤ 2⁻⁹` on AVX-512F CPUs it skips the draws that
/// cannot succeed.
#[inline]
pub fn geometric_trunc(rng: &mut StreamRng, p: f64, max: u32) -> u32 {
    debug_assert!(p > 0.0 && p <= 1.0);
    let fail_from = (p * (1u64 << 53) as f64).ceil() as u64;
    rng.geometric_trials(fail_from, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, RngCore, SeedableRng};

    #[test]
    fn uniform_when_theta_zero() {
        let z = Zipf::new(4, 0.0);
        for i in 0..4 {
            assert!((z.pmf(i) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn skew_concentrates_on_low_indices() {
        let z = Zipf::new(100, 1.0);
        assert!(z.pmf(0) > 10.0 * z.pmf(99));
        let flat = Zipf::new(100, 0.2);
        assert!(z.pmf(0) > flat.pmf(0), "higher theta ⇒ hotter head");
    }

    #[test]
    fn sample_frequencies_match_pmf() {
        let z = Zipf::new(10, 0.8);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0u64; 10];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let emp = c as f64 / n as f64;
            assert!(
                (emp - z.pmf(i)).abs() < 0.01,
                "index {i}: empirical {emp} vs pmf {}",
                z.pmf(i)
            );
        }
    }

    #[test]
    fn exp_ns_mean_close() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mean = 1_000_000.0;
        let n = 100_000;
        let total: u64 = (0..n).map(|_| exp_ns(&mut rng, mean)).sum();
        let emp = total as f64 / n as f64;
        assert!((emp - mean).abs() < mean * 0.02, "empirical mean {emp}");
    }

    #[test]
    fn geometric_respects_truncation() {
        let mut rng = StreamRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let k = geometric_trunc(&mut rng, 0.1, 32);
            assert!((1..=32).contains(&k));
        }
        // p=1 always returns 1.
        assert_eq!(geometric_trunc(&mut rng, 1.0, 32), 1);
    }

    /// Reference form of the trial: the float comparison the integer
    /// threshold replaces.
    fn geometric_float<R: Rng>(rng: &mut R, p: f64, max: u32) -> u32 {
        let mut k = 1;
        while k < max && rng.gen::<f64>() >= p {
            k += 1;
        }
        k
    }

    /// The sampler agrees with the float trial on `SmallRng` draw for
    /// draw, at ordinary and at boundary probabilities (powers of two, the
    /// smallest and largest representable steps), and leaves the stream
    /// at the same position.
    #[test]
    fn geometric_matches_float_comparison_exactly() {
        let ps = [
            0.000125,
            0.1,
            0.5,
            0.25,
            1.0,
            1.0 - f64::EPSILON / 2.0,
            1.0 / (1u64 << 53) as f64,
            3.0 / (1u64 << 53) as f64,
            0.3,
        ];
        for (i, &p) in ps.iter().enumerate() {
            let mut a = StreamRng::seed_from_u64(40 + i as u64);
            let mut b = SmallRng::seed_from_u64(40 + i as u64);
            for _ in 0..2_000 {
                assert_eq!(
                    geometric_trunc(&mut a, p, 64),
                    geometric_float(&mut b, p, 64),
                    "p = {p}"
                );
            }
            assert_eq!(a.next_u64(), b.next_u64(), "p = {p}: RNG streams diverged");
        }
    }

    /// Threshold edge: the draws just below, at and just above `p · 2⁵³`
    /// classify the same way under both comparisons.
    #[test]
    fn geometric_threshold_edges_agree() {
        for p in [0.000125f64, 0.1, 0.3, 0.7] {
            let fail_from = (p * (1u64 << 53) as f64).ceil() as u64;
            for v in [fail_from - 1, fail_from, fail_from + 1] {
                let u = v as f64 * (1.0 / (1u64 << 53) as f64);
                assert_eq!(v >= fail_from, u >= p, "p = {p}, v = {v}");
            }
        }
    }

    proptest! {
        /// The sampler always returns a valid index.
        #[test]
        fn prop_zipf_in_range(n in 1usize..500, theta in 0.0f64..2.0, seed in any::<u64>()) {
            let z = Zipf::new(n, theta);
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..100 {
                prop_assert!(z.sample(&mut rng) < n);
            }
        }

        /// PMF sums to one.
        #[test]
        fn prop_pmf_normalized(n in 1usize..200, theta in 0.0f64..2.0) {
            let z = Zipf::new(n, theta);
            let total: f64 = (0..n).map(|i| z.pmf(i)).sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
        }
    }
}
