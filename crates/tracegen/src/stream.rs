//! The generator's random stream: rand 0.8's `SmallRng` sequence
//! (xoshiro256++ seeded through SplitMix64), computed eight segments at a
//! time where the CPU can.
//!
//! xoshiro256++ is one output function over a 256-bit state whose update
//! is linear over GF(2), so the state any number of steps ahead is a fixed
//! matrix times the current one. With AVX-512F, [`StreamRng`] fills the
//! stream in blocks of eight lanes, each lane a segment of the stream,
//! and jumps every lane to its next segment through a precomputed GF(2)
//! matrix (see [`lanes`]). It marks the rare words that can succeed
//! a low-probability geometric trial, so [`StreamRng::geometric_trials`]
//! skips the thousands of trials between them. Without AVX-512F the
//! portable kernel steps the state in place, exactly as `SmallRng` does:
//! filling blocks one scalar lane at a time only adds stores.
//!
//! Both kernels yield the same words in the same order; only the cost
//! differs.

use rand::{RngCore, SeedableRng};

#[cfg(target_arch = "x86_64")]
#[allow(
    unsafe_code,
    reason = "AVX-512F intrinsics, entered only behind a runtime CPU-feature check"
)]
mod avx512;
#[cfg(target_arch = "x86_64")]
mod lanes;

type State = [u64; 4];

/// One xoshiro256++ step: `SmallRng::next_u64`.
#[inline(always)]
fn step(s: &mut State) -> u64 {
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

/// `SmallRng::seed_from_u64`: four SplitMix64 outputs.
fn seed_state(mut state: u64) -> State {
    const PHI: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut s = [0u64; 4];
    for word in &mut s {
        state = state.wrapping_add(PHI);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        *word = z ^ (z >> 31);
    }
    s
}

/// The trial loop: draws until one is below `fail_from` (after `>> 11`)
/// or `max − 1` draws have failed.
#[inline(always)]
fn trial_loop(mut draw: impl FnMut() -> u64, fail_from: u64, max: u32) -> u32 {
    let mut k = 1;
    while k < max && (draw() >> 11) >= fail_from {
        k += 1;
    }
    k
}

/// The `SmallRng` stream, computed by the fastest kernel the CPU runs.
///
/// Seeded exactly like `SmallRng` and draw-for-draw identical to it
/// through every `RngCore`/`Rng` method; [`StreamRng::geometric_trials`]
/// adds a truncated-geometric draw that returns what the trial-by-trial
/// loop would and leaves the stream at the same position.
#[derive(Clone)]
pub struct StreamRng {
    source: Source,
}

#[derive(Clone)]
#[allow(
    clippy::large_enum_variant,
    reason = "the lane block is held inline on purpose; see `Source::Lanes`"
)]
enum Source {
    /// The portable kernel: the state itself.
    Scalar(State),
    /// The AVX-512F kernel's current block of lanes, held inline (130 KiB)
    /// rather than boxed: a heap block allocated and freed around every
    /// generation run fragmented the heap and raised the benchmark's peak
    /// RSS at some seeds, while the stream lives on the caller's stack.
    #[cfg(target_arch = "x86_64")]
    Lanes(lanes::Lanes),
}

impl std::fmt::Debug for StreamRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamRng")
            .field("kernel", &self.kernel())
            .finish_non_exhaustive()
    }
}

impl SeedableRng for StreamRng {
    /// The AVX-512F kernel when the CPU has it, the portable one otherwise.
    fn seed_from_u64(seed: u64) -> StreamRng {
        let s = seed_state(seed);
        #[cfg(target_arch = "x86_64")]
        if let Some(token) = avx512::Token::detect() {
            return StreamRng {
                source: Source::Lanes(lanes::Lanes::new(s, token)),
            };
        }
        StreamRng {
            source: Source::Scalar(s),
        }
    }
}

impl StreamRng {
    /// The portable kernel, whatever the CPU.
    #[cfg(test)]
    fn portable(seed: u64) -> StreamRng {
        StreamRng {
            source: Source::Scalar(seed_state(seed)),
        }
    }

    fn kernel(&self) -> &'static str {
        match self.source {
            Source::Scalar(_) => "portable",
            #[cfg(target_arch = "x86_64")]
            Source::Lanes(_) => "avx512f",
        }
    }

    /// Truncated geometric draw over `1..=max`: the number of trials up to
    /// and including the first success, where a trial is one `next_u64`
    /// and succeeds when `next_u64() >> 11 < fail_from`; `max` when the
    /// first `max − 1` trials all fail (and no draw at all when
    /// `max ≤ 1`).
    ///
    /// The AVX-512F kernel serves `fail_from ≤ 2⁴⁴` (`p ≤ 2⁻⁹`) from its
    /// candidate bitmap without reading the failing draws; every other
    /// case runs the trials. Either way the result and the stream position
    /// afterwards are those of the plain loop.
    pub fn geometric_trials(&mut self, fail_from: u64, max: u32) -> u32 {
        match &mut self.source {
            Source::Scalar(s) => trial_loop(|| step(s), fail_from, max),
            #[cfg(target_arch = "x86_64")]
            Source::Lanes(l) => l.geometric_trials(fail_from, max),
        }
    }
}

impl RngCore for StreamRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        match &mut self.source {
            Source::Scalar(s) => step(s),
            #[cfg(target_arch = "x86_64")]
            Source::Lanes(l) => l.next_u64(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::Rng;

    /// The plain trial loop on `SmallRng`: the oracle every geometric draw
    /// is checked against.
    pub(crate) fn trials_oracle(rng: &mut SmallRng, fail_from: u64, max: u32) -> u32 {
        trial_loop(|| rng.next_u64(), fail_from, max)
    }

    pub(crate) fn fail_from(p: f64) -> u64 {
        (p * (1u64 << 53) as f64).ceil() as u64
    }

    /// Words per lane and per block of the AVX-512F kernel: the draws
    /// below are sized to cross lanes and blocks. Only the portable kernel
    /// runs elsewhere, where the sizes merely set the draw counts.
    #[cfg(target_arch = "x86_64")]
    const LANE: usize = lanes::L;
    #[cfg(target_arch = "x86_64")]
    const BLOCK: usize = lanes::W * lanes::L;
    #[cfg(not(target_arch = "x86_64"))]
    const LANE: usize = 2048;
    #[cfg(not(target_arch = "x86_64"))]
    const BLOCK: usize = 8 * LANE;

    /// Runs `f` with a constructor for each kernel this CPU has (the
    /// portable one always, then the detected one if it differs), naming
    /// the kernels that ran.
    fn for_each_kernel(test: &str, f: impl Fn(&dyn Fn(u64) -> StreamRng)) {
        let mut ran = vec!["portable"];
        f(&StreamRng::portable);
        let detected = StreamRng::seed_from_u64(0).kernel();
        if detected != "portable" {
            ran.push(detected);
            f(&StreamRng::seed_from_u64);
        }
        println!("{test}: ran kernels {ran:?}");
    }

    #[test]
    fn mixed_draws_match_smallrng_across_refills() {
        for_each_kernel("mixed_draws", |new| {
            for seed in [0u64, 7, 0x7261_6964_0002] {
                let mut a = new(seed);
                let mut b = SmallRng::seed_from_u64(seed);
                // Each round draws at least 99 words (five single draws
                // and the shuffle's 94), so these rounds span more than
                // four blocks: at least four refills.
                for round in 0..4 * BLOCK / 99 + 1 {
                    assert_eq!(a.next_u64(), b.next_u64(), "{} round {round}", a.kernel());
                    assert_eq!(a.next_u32(), b.next_u32());
                    assert_eq!(a.gen_range(3u64..1_000), b.gen_range(3u64..1_000));
                    assert_eq!(a.gen_range(0..17u32), b.gen_range(0..17u32));
                    assert_eq!(a.gen::<f64>().to_bits(), b.gen::<f64>().to_bits());
                    let mut va: Vec<u32> = (0..95).collect();
                    let mut vb = va.clone();
                    va.shuffle(&mut a);
                    vb.shuffle(&mut b);
                    assert_eq!(va, vb);
                }
            }
        });
    }

    /// `p` just below, at and just above the 2⁻⁹ candidate cut-off, the
    /// two trace presets' write-after-read `p`, a multiblock-length `p`,
    /// and `p = 1`; `max` from no trial at all, through one lane (`L`), to
    /// past one block (`W·L + 1`) and several. Every draw is followed by a
    /// raw word so a position slip shows at once.
    #[test]
    fn geometric_matches_trial_loop_around_the_cutoff() {
        let cut = 1.0 / 512.0;
        let ps = [
            0.000125,
            0.0017,
            cut * (1.0 - f64::EPSILON),
            cut,
            cut * (1.0 + f64::EPSILON),
            1.0 / 17.43,
            0.5,
            1.0,
        ];
        assert_eq!(fail_from(cut), 1 << 44);
        assert!(fail_from(cut * (1.0 + f64::EPSILON)) > 1 << 44);
        // p = 1: every trial succeeds, and ⌈p·2⁵³⌉ = 2⁵³ is compared
        // against the shifted draw (2⁵³ << 11 would wrap to 0).
        assert_eq!(fail_from(1.0), 1 << 53);
        for_each_kernel("geometric_cutoff", |new| {
            for &p in &ps {
                let ff = fail_from(p);
                for max in [1, 2, LANE as u32, BLOCK as u32 + 1, 65_000] {
                    let mut a = new(11);
                    let mut b = SmallRng::seed_from_u64(11);
                    for round in 0..40 {
                        assert_eq!(
                            a.geometric_trials(ff, max),
                            trials_oracle(&mut b, ff, max),
                            "{} p {p} max {max} round {round}",
                            a.kernel()
                        );
                        assert_eq!(a.next_u64(), b.next_u64());
                    }
                }
            }
        });
    }

    /// Truncation edges: the first success falls exactly one trial past
    /// the last allowed one (`max = k`), or on the last allowed one
    /// (`max = k + 1`).
    #[test]
    fn geometric_truncates_just_before_and_at_the_first_success() {
        for_each_kernel("geometric_truncation", |new| {
            for p in [0.000125, 0.0017, 1.0 / 512.0, 0.1] {
                let ff = fail_from(p);
                let mut a = new(21);
                let mut b = SmallRng::seed_from_u64(21);
                for round in 0..200 {
                    let k = trials_oracle(&mut b.clone(), ff, u32::MAX);
                    let max = k + round % 2;
                    assert_eq!(
                        a.geometric_trials(ff, max),
                        trials_oracle(&mut b, ff, max),
                        "{} p {p} round {round} k {k}",
                        a.kernel()
                    );
                    assert_eq!(a.next_u64(), b.next_u64());
                }
            }
        });
    }
}
