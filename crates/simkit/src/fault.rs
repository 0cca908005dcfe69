//! Seeded fault-injection plans and their random-number streams.
//!
//! Failures are *simulation input*, not environment: a [`FaultPlan`] is an
//! explicit, time-ordered schedule of injected events plus a seed from which
//! every probabilistic draw (e.g. per-operation transient media errors)
//! derives. Consumers never construct their own generator — they call
//! [`FaultPlan::stream`] with a stable tag (such as a disk index) and get an
//! independent [`FaultRng`] whose sequence is a pure function of
//! `(plan seed, tag)`. That keeps fault-injected runs bit-for-bit
//! reproducible and makes every draw attributable to the plan. The raw
//! constructor `FaultRng::new` is private to this module, so rustc enforces
//! that half; simlint's `fault-rng` rule confines stream *minting*
//! ([`FaultPlan::latent_stream`], the `splitmix64` mixer) to the code that
//! builds the streams once.

use crate::time::SimTime;

/// splitmix64 finalizer: the seed/tag mixer used to key streams.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xorshift64* generator for fault draws.
///
/// Deliberately minimal: no distribution zoo, no global state, no `rand`
/// dependency. Only `simkit::fault` can seed one; everywhere else, derive
/// streams via [`FaultPlan::stream`]:
///
/// ```compile_fail,E0624
/// let _rng = simkit::FaultRng::new(7); // private to `simkit::fault`
/// ```
#[derive(Clone, Debug)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Seed a generator. The seed is passed through splitmix64 so that
    /// similar seeds (0, 1, 2, …) still give uncorrelated sequences, and a
    /// zero seed cannot produce the degenerate all-zero xorshift orbit.
    fn new(seed: u64) -> FaultRng {
        let mut state = splitmix64(seed);
        if state == 0 {
            state = 0x9E37_79B9_7F4A_7C15;
        }
        FaultRng { state }
    }

    /// Next raw 64-bit draw (xorshift64*).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// `p` is clamped to `[0, 1]`; comparison happens against a fixed-point
    /// `u64` threshold, so the result is identical on every platform.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 2^64 · p as a u64 threshold; the draw is uniform on [0, 2^64).
        let threshold = (p * (u64::MAX as f64)) as u64;
        self.next_u64() < threshold
    }

    /// Uniform draw on `[0, 1)` with 53 bits of precision (the mantissa of
    /// an `f64`), for inversion sampling of continuous distributions.
    #[inline]
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponential inter-arrival draw with mean `mean` (inversion method).
    /// Used to lay out Poisson substreams such as per-disk latent sector
    /// errors; `mean` must be positive and finite.
    #[inline]
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        // 1 − u ∈ (0, 1]: ln never sees zero.
        -(1.0 - self.next_unit()).ln() * mean
    }
}

/// One injected fault event. Times are absolute simulation times.
///
/// Second and overlapping disk failures are expressed by scheduling more
/// than one [`FaultEvent::DiskFail`]: the plan carries an arbitrary number
/// of them and the consumer decides whether the overlap is survivable
/// (rebuild restart onto the next spare) or a data-loss transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Permanent failure of one physical disk (`disk` is local to `array`).
    DiskFail { array: u32, disk: u32, at: SimTime },
    /// A latent sector error silently mars one block of one disk: the block
    /// is unreadable from that disk, discovered only when a scrub pass (or
    /// a rebuild needing the block as a reconstruction peer) touches it.
    LatentError {
        array: u32,
        disk: u32,
        block: u64,
        at: SimTime,
    },
    /// The NV cache's battery fails: dirty data is no longer safe, the
    /// controller must degrade to write-through.
    BatteryFail { at: SimTime },
    /// Battery replaced: write-back caching may resume.
    BatteryRestore { at: SimTime },
}

impl FaultEvent {
    /// When the event fires.
    #[inline]
    pub fn at(&self) -> SimTime {
        match *self {
            FaultEvent::DiskFail { at, .. }
            | FaultEvent::LatentError { at, .. }
            | FaultEvent::BatteryFail { at }
            | FaultEvent::BatteryRestore { at } => at,
        }
    }
}

/// A seeded, time-ordered schedule of injected faults.
///
/// The plan is the single source of fault randomness for a run: scheduled
/// events are explicit, and probabilistic behaviors (transient media
/// errors) draw from per-tag streams split off the plan seed. Two plans
/// with the same seed and events produce identical simulations.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// The plan's seed (streams derive from it).
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Insert an event, keeping the schedule sorted by fire time. Insertion
    /// is stable: events at equal times keep their insertion order.
    pub fn schedule(&mut self, ev: FaultEvent) {
        let pos = self.events.partition_point(|e| e.at() <= ev.at());
        self.events.insert(pos, ev);
    }

    /// The scheduled events in fire order.
    #[inline]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Split off an independent stream keyed by `tag` (e.g. a physical disk
    /// index). Streams for distinct tags are uncorrelated; the same
    /// `(seed, tag)` always yields the same sequence, regardless of how many
    /// other streams exist or in what order they are drawn from.
    pub fn stream(&self, tag: u64) -> FaultRng {
        FaultRng::new(splitmix64(self.seed) ^ splitmix64(tag.wrapping_add(0x005F_A017_BE11)))
    }

    /// Stream for per-disk latent sector errors. Lives in a tag namespace
    /// disjoint from the per-disk transient-error streams (which use the raw
    /// disk index, `0..total_disks`), so enabling latent-error generation
    /// never perturbs the transient draws of an existing plan.
    pub fn latent_stream(&self, gdisk: u64) -> FaultRng {
        debug_assert!(gdisk < LATENT_STREAM_NS, "disk index overflows namespace");
        self.stream(LATENT_STREAM_NS | gdisk)
    }
}

/// Tag-namespace base for latent sector error streams. Per-class namespaces
/// keep each fault class on its own substream: transient errors use tags
/// `0..total_disks`, latent errors use `LATENT_STREAM_NS | gdisk`.
pub const LATENT_STREAM_NS: u64 = 1 << 48;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = FaultRng::new(42);
        let mut b = FaultRng::new(42);
        let mut c = FaultRng::new(43);
        let seq_a: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let seq_b: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let seq_c: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut r = FaultRng::new(0);
        let draws: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert!(draws.iter().any(|&d| d != 0));
        assert_ne!(draws[0], draws[1]);
    }

    #[test]
    fn chance_respects_edge_probabilities() {
        let mut r = FaultRng::new(7);
        assert!(!(0..1000).any(|_| r.chance(0.0)));
        assert!((0..1000).all(|_| r.chance(1.0)));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_hits_roughly_p() {
        let mut r = FaultRng::new(123);
        let hits = (0..100_000).filter(|_| r.chance(0.01)).count();
        // 1% ± generous slack; this is a sanity check, not a statistics test.
        assert!((500..1500).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn streams_are_independent_and_reproducible() {
        let plan = FaultPlan::new(99);
        let mut s0a = plan.stream(0);
        let mut s0b = plan.stream(0);
        let mut s1 = plan.stream(1);
        let a: Vec<u64> = (0..8).map(|_| s0a.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| s0b.next_u64()).collect();
        let c: Vec<u64> = (0..8).map(|_| s1.next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn next_unit_stays_in_half_open_interval() {
        let mut r = FaultRng::new(9);
        for _ in 0..10_000 {
            let u = r.next_unit();
            assert!((0.0..1.0).contains(&u), "u = {u}");
        }
    }

    #[test]
    fn next_exp_is_positive_with_roughly_right_mean() {
        let mut r = FaultRng::new(11);
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.next_exp(250.0);
            assert!(x >= 0.0 && x.is_finite());
            sum += x;
        }
        let mean = sum / n as f64;
        // Loose band: sanity, not statistics.
        assert!((200.0..300.0).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn latent_streams_are_disjoint_from_transient_streams() {
        let plan = FaultPlan::new(0x4641_554C);
        for gdisk in 0..16u64 {
            let mut transient = plan.stream(gdisk);
            let mut latent = plan.latent_stream(gdisk);
            let t: Vec<u64> = (0..8).map(|_| transient.next_u64()).collect();
            let l: Vec<u64> = (0..8).map(|_| latent.next_u64()).collect();
            assert_ne!(t, l, "gdisk {gdisk}: namespaces collide");
        }
        // And latent streams are themselves per-disk independent.
        let mut l0 = plan.latent_stream(0);
        let mut l1 = plan.latent_stream(1);
        assert_ne!(l0.next_u64(), l1.next_u64());
    }

    #[test]
    fn streams_ignore_schedule_contents_and_order() {
        // A stream is a pure function of (seed, tag): scheduling events —
        // in any order, of any kind — must not perturb it.
        let bare = FaultPlan::new(77);
        let mut full = FaultPlan::new(77);
        full.schedule(FaultEvent::LatentError {
            array: 0,
            disk: 1,
            block: 42,
            at: SimTime::from_ms(5),
        });
        full.schedule(FaultEvent::DiskFail {
            array: 0,
            disk: 1,
            at: SimTime::from_ms(9),
        });
        for tag in [0u64, 3, LATENT_STREAM_NS | 2] {
            let a: Vec<u64> = {
                let mut s = bare.stream(tag);
                (0..8).map(|_| s.next_u64()).collect()
            };
            let b: Vec<u64> = {
                let mut s = full.stream(tag);
                (0..8).map(|_| s.next_u64()).collect()
            };
            assert_eq!(a, b, "tag {tag}: schedule perturbed the stream");
        }
    }

    #[test]
    fn schedule_keeps_events_time_ordered_and_stable() {
        let mut plan = FaultPlan::new(1);
        plan.schedule(FaultEvent::BatteryFail {
            at: SimTime::from_ms(50),
        });
        plan.schedule(FaultEvent::DiskFail {
            array: 0,
            disk: 3,
            at: SimTime::from_ms(10),
        });
        plan.schedule(FaultEvent::BatteryRestore {
            at: SimTime::from_ms(50),
        });
        let at: Vec<u64> = plan.events().iter().map(|e| e.at().as_ns()).collect();
        assert_eq!(at, vec![10_000_000, 50_000_000, 50_000_000]);
        // Stable at equal times: BatteryFail was inserted first.
        assert!(matches!(plan.events()[1], FaultEvent::BatteryFail { .. }));
        assert!(matches!(
            plan.events()[2],
            FaultEvent::BatteryRestore { .. }
        ));
    }
}
