//! Synthetic OLTP trace generator calibrated to the paper's Table 2.

use crate::record::{AccessType, Trace, TraceRecord};
use crate::sampler::{exp_ns, geometric_trunc, Zipf};
use crate::stream::StreamRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use simkit::SimTime;

/// Stack-distance distribution for temporal-locality re-references.
///
/// The choice shapes how the cache hit ratio grows with cache size
/// (Figure 11): geometric saturates quickly (compact working set),
/// log-uniform grows roughly linearly in the log of the cache size, and
/// uniform grows linearly in the cache size (large flat working set).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum RerefDist {
    /// Geometric with success probability `p` (mean distance ≈ 1/p).
    Geometric { p: f64 },
    /// Log-uniform over `[min, history_len]`.
    LogUniform { min: u64 },
    /// Uniform over `[1, history_len]`.
    Uniform,
}

impl RerefDist {
    fn sample(&self, rng: &mut StreamRng, len: u32) -> u32 {
        match *self {
            RerefDist::Geometric { p } => geometric_trunc(rng, p, len),
            RerefDist::LogUniform { min } => {
                let lo = min.max(1) as f64;
                let hi = len as f64;
                if hi <= lo {
                    // History shorter than the distribution's floor: spread
                    // uniformly rather than pinning one ancient entry.
                    return rng.gen_range(1..=len.max(1));
                }
                let u: f64 = rng.gen();
                (lo * (hi / lo).powf(u)).ceil().min(hi) as u32
            }
            RerefDist::Uniform => rng.gen_range(1..=len.max(1)),
        }
    }
}

/// Everything the generator needs to synthesize one workload.
///
/// The two presets, [`SynthSpec::trace1`] and [`SynthSpec::trace2`],
/// reproduce the mix statistics of the paper's Table 2 exactly and its
/// qualitative skew/locality contrasts:
///
/// | property | Trace 1 | Trace 2 |
/// |---|---|---|
/// | disks / I/Os | 130 / 3.36 M | 10 / 69.5 K |
/// | write fraction | 10% | 28% |
/// | disk skew | moderate | high |
/// | temporal locality | high, small working set | low, large working set |
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SynthSpec {
    pub name: String,
    pub seed: u64,
    pub n_disks: u32,
    pub blocks_per_disk: u64,
    pub n_requests: usize,
    pub duration_secs: f64,
    /// Fraction of requests that are writes.
    pub write_fraction: f64,
    /// Fraction of reads / writes that are multiblock.
    pub multiblock_read_fraction: f64,
    pub multiblock_write_fraction: f64,
    /// Mean length (blocks) of a multiblock request; truncated-geometric.
    pub multiblock_mean: f64,
    pub multiblock_max: u32,
    /// Zipf exponent of the load split across disks (0 = uniform).
    pub disk_skew_theta: f64,
    /// Within-disk structure: number of extents and their Zipf exponent.
    pub extents_per_disk: u32,
    pub extent_skew_theta: f64,
    /// Probability a fresh access continues the extent's sequential run
    /// (seek affinity).
    pub sequential_run_prob: f64,
    /// Probability a fresh access is *cold*: spatially uniform over the
    /// whole disk (ad-hoc queries, scans). Cold traffic misses the cache
    /// and pays full seeks regardless of organization.
    pub cold_prob: f64,
    /// Probability an access re-references a recently touched block.
    pub reref_prob: f64,
    /// Size of the recency stack re-references are drawn from.
    pub reref_stack: u32,
    /// Stack-distance distribution for read re-references.
    pub read_reref_dist: RerefDist,
    /// Stack-distance distribution for write-after-read references (writes
    /// update recently read blocks at much shorter distances than reads
    /// revisit data).
    pub write_reref_dist: RerefDist,
    /// Probability a write updates a recently *read* block (DB2 transactions
    /// read before updating, driving Trace 1's ~1.0 write hit ratio).
    pub write_after_read_prob: f64,
    /// Burstiness: mean run lengths (in requests) of the quiet and busy
    /// arrival states, and the busy-state speedup factor.
    pub quiet_run: u32,
    pub busy_run: u32,
    pub busy_speedup: f64,
}

impl SynthSpec {
    /// The large commercial workload: 130 data disks, 10% writes, moderate
    /// skew, strong temporal locality with a compact working set.
    pub fn trace1() -> SynthSpec {
        SynthSpec {
            name: "trace1".into(),
            seed: 0x7261_6964_0001,
            n_disks: 130,
            blocks_per_disk: 226_800,
            n_requests: 3_362_505,
            duration_secs: 10_980.0, // 3 h 3 min
            write_fraction: 0.100_30,
            multiblock_read_fraction: 0.015_64,
            multiblock_write_fraction: 0.072_07,
            multiblock_mean: 16.43,
            multiblock_max: 64,
            disk_skew_theta: 0.45,
            extents_per_disk: 64,
            extent_skew_theta: 1.25,
            sequential_run_prob: 0.55,
            cold_prob: 0.25,
            reref_prob: 0.66,
            reref_stack: 2_000_000,
            read_reref_dist: RerefDist::LogUniform { min: 8_000 },
            write_reref_dist: RerefDist::Geometric { p: 0.0017 },
            write_after_read_prob: 0.95,
            quiet_run: 800,
            busy_run: 200,
            busy_speedup: 3.0,
        }
    }

    /// The small workload with ad-hoc queries in the mix: 10 data disks, 28%
    /// writes, high disk skew, weak locality with large working sets.
    pub fn trace2() -> SynthSpec {
        SynthSpec {
            name: "trace2".into(),
            seed: 0x7261_6964_0002,
            n_disks: 10,
            blocks_per_disk: 226_800,
            n_requests: 69_539,
            duration_secs: 6_000.0, // 1 h 40 min
            write_fraction: 0.282_65,
            multiblock_read_fraction: 0.040_28,
            multiblock_write_fraction: 0.106_74,
            multiblock_mean: 18.71,
            multiblock_max: 64,
            disk_skew_theta: 1.5,
            extents_per_disk: 96,
            extent_skew_theta: 0.45,
            sequential_run_prob: 0.30,
            cold_prob: 0.30,
            reref_prob: 0.45,
            reref_stack: 65_000,
            read_reref_dist: RerefDist::Uniform,
            write_reref_dist: RerefDist::Geometric { p: 0.000125 },
            write_after_read_prob: 0.75,
            quiet_run: 400,
            busy_run: 600,
            busy_speedup: 6.0,
        }
    }

    /// The one rule for a scale (a fraction of the paper's request count):
    /// 0 < scale <= 1, so NaN fails.
    pub fn check_scale(scale: f64) -> Result<f64, String> {
        let ok = scale > 0.0 && scale <= 1.0;
        ok.then_some(scale).ok_or(format!(
            "scale {scale} is out of range: need 0 < scale <= 1"
        ))
    }

    /// Shrink the trace to `factor` of its request count at the *same*
    /// arrival rate and mix (duration shrinks proportionally). Used to keep
    /// experiment wall-clock reasonable; the per-disk load intensity the
    /// paper's results depend on is unchanged.
    pub fn scaled(mut self, factor: f64) -> SynthSpec {
        assert!(Self::check_scale(factor).is_ok(), "bad scale {factor}");
        self.n_requests = ((self.n_requests as f64 * factor) as usize).max(1);
        self.duration_secs *= factor;
        self
    }

    /// Generate the trace at `factor`× the arrival rate, mix and addresses
    /// unchanged. A *generation* parameter: gaps are drawn and rounded at the
    /// new rate, unlike a replay at that speed (`raidsim::NamedRun::at_speed`).
    pub fn at_speed(mut self, factor: f64) -> SynthSpec {
        assert!(factor > 0.0);
        self.duration_secs /= factor;
        self
    }

    /// Mean interarrival time in nanoseconds.
    fn mean_gap_ns(&self) -> f64 {
        self.duration_secs * 1e9 / self.n_requests as f64
    }

    /// Generate the trace. Deterministic in the spec (including seed).
    pub fn generate(&self) -> Trace {
        let mut rng = StreamRng::seed_from_u64(self.seed);
        let mut trace = Trace::new(self.n_disks, self.blocks_per_disk);
        trace.records.reserve(self.n_requests);

        // --- address-space machinery -------------------------------------
        let disk_zipf = Zipf::new(self.n_disks as usize, self.disk_skew_theta);
        let mut disk_perm: Vec<u32> = (0..self.n_disks).collect();
        disk_perm.shuffle(&mut rng);

        let extent_zipf = Zipf::new(self.extents_per_disk as usize, self.extent_skew_theta);
        let extent_blocks = self.blocks_per_disk / self.extents_per_disk as u64;
        // Hot extents are *adjacent* (extent i occupies blocks
        // [i·extent_blocks, …)): a skewed extent distribution then keeps the
        // arm of a non-striped disk within a narrow band — the seek
        // affinity the paper's Section 4.2 credits Base with and striping
        // destroys.
        // Sequential-run cursor per (disk, extent), initialized at a random
        // in-extent offset.
        let mut cursors: Vec<u64> = (0..self.n_disks as usize * self.extents_per_disk as usize)
            .map(|_| rng.gen_range(0..extent_blocks))
            .collect();

        // Recency stack for temporal locality: (disk, block, was_read).
        let stack_cap = self.reref_stack as usize;
        let mut history: Vec<(u32, u64, bool)> = Vec::with_capacity(stack_cap);
        let mut head = 0usize; // next overwrite position once full

        // --- arrival-process machinery ------------------------------------
        // Busy state compresses gaps by `busy_speedup`; the quiet state is
        // stretched so the overall mean gap stays at duration/n.
        let total_run = (self.quiet_run + self.busy_run) as f64;
        let busy_gap_factor = 1.0 / self.busy_speedup;
        let quiet_gap_factor =
            (total_run - self.busy_run as f64 * busy_gap_factor) / self.quiet_run as f64;
        let mean_gap = self.mean_gap_ns();
        let mut in_busy = false;
        let mut run_left: u32 = self.quiet_run;

        // Geometric parameter for multiblock lengths 2.. with the target
        // mean: E[len] ≈ 2 + (1/p − 1) ⇒ p = 1/(mean − 1).
        let mb_p = 1.0 / (self.multiblock_mean - 1.0).max(1.0);

        let mut now = SimTime::ZERO;
        for _ in 0..self.n_requests {
            // Arrival.
            let factor = if in_busy {
                busy_gap_factor
            } else {
                quiet_gap_factor
            };
            now += exp_ns(&mut rng, mean_gap * factor);
            run_left = run_left.saturating_sub(1);
            if run_left == 0 {
                in_busy = !in_busy;
                run_left = if in_busy {
                    self.busy_run
                } else {
                    self.quiet_run
                };
            }

            // Direction and length.
            let is_write = rng.gen::<f64>() < self.write_fraction;
            let mb_frac = if is_write {
                self.multiblock_write_fraction
            } else {
                self.multiblock_read_fraction
            };
            let nblocks = if rng.gen::<f64>() < mb_frac {
                1 + geometric_trunc(&mut rng, mb_p, self.multiblock_max - 1)
            } else {
                1
            };

            // Address.
            let (disk, block, fresh) = self.pick_address(
                &mut rng,
                is_write,
                nblocks,
                &disk_zipf,
                &disk_perm,
                &extent_zipf,
                extent_blocks,
                &mut cursors,
                &history,
                head,
            );

            // Record; only fresh references enter the recency stack —
            // re-pushing re-references would create a preferential-
            // attachment feedback that runs the disk skew away over long
            // traces.
            trace.records.push(TraceRecord {
                at: now,
                disk,
                block,
                nblocks,
                kind: if is_write {
                    AccessType::Write
                } else {
                    AccessType::Read
                },
            });
            if fresh {
                let entry = (disk, block, !is_write);
                if history.len() < stack_cap {
                    history.push(entry);
                    head = history.len() % stack_cap.max(1);
                } else {
                    history[head] = entry;
                    head = (head + 1) % stack_cap;
                }
            }
        }
        debug_assert!(trace.validate().is_ok());
        trace
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "the sampler's per-run state, threaded through the hot loop without a struct"
    )]
    fn pick_address(
        &self,
        rng: &mut StreamRng,
        is_write: bool,
        nblocks: u32,
        disk_zipf: &Zipf,
        disk_perm: &[u32],
        extent_zipf: &Zipf,
        extent_blocks: u64,
        cursors: &mut [u64],
        history: &[(u32, u64, bool)],
        head: usize,
    ) -> (u32, u64, bool) {
        // Temporal locality: re-reference a recently touched block. Writes
        // preferentially update recently *read* blocks.
        if !history.is_empty() {
            let p = if is_write {
                self.write_after_read_prob
            } else {
                self.reref_prob
            };
            if rng.gen::<f64>() < p {
                if let Some(&(d, b, _)) = self.pick_from_history(rng, history, head, is_write) {
                    let b = b.min(self.blocks_per_disk - nblocks as u64);
                    return (d, b, false);
                }
            }
        }

        // Fresh reference through the extent model; cold accesses pick a
        // uniformly random extent instead of a hot one.
        let disk = disk_perm[disk_zipf.sample(rng)];
        let extent = if rng.gen::<f64>() < self.cold_prob {
            rng.gen_range(0..self.extents_per_disk)
        } else {
            extent_zipf.sample(rng) as u32
        };
        let cursor_ix = disk as usize * self.extents_per_disk as usize + extent as usize;
        let within = if rng.gen::<f64>() < self.sequential_run_prob {
            cursors[cursor_ix]
        } else {
            rng.gen_range(0..extent_blocks)
        };
        let within = within.min(extent_blocks.saturating_sub(nblocks as u64));
        cursors[cursor_ix] = (within + nblocks as u64) % extent_blocks;
        let block =
            (extent as u64 * extent_blocks + within).min(self.blocks_per_disk - nblocks as u64);
        (disk, block, true)
    }

    /// Draw a history entry at a sampled stack distance; writes retry a
    /// few times to land on a read entry.
    fn pick_from_history<'h>(
        &self,
        rng: &mut StreamRng,
        history: &'h [(u32, u64, bool)],
        head: usize,
        want_read: bool,
    ) -> Option<&'h (u32, u64, bool)> {
        let len = history.len();
        let dist_kind = if want_read {
            self.write_reref_dist
        } else {
            self.read_reref_dist
        };
        for _ in 0..4 {
            let dist = dist_kind.sample(rng, len as u32) as usize;
            // `head` points at the oldest (next-overwrite) slot when full,
            // or one past the newest while filling; newest = head − 1.
            let idx = (head + len - dist) % len;
            let entry = &history[idx];
            if !want_read || entry.2 {
                return Some(entry);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(spec: SynthSpec) -> Trace {
        spec.scaled(0.01).generate()
    }

    #[test]
    fn deterministic_in_seed() {
        let a = small(SynthSpec::trace1());
        let b = small(SynthSpec::trace1());
        assert_eq!(a, b);
        let mut spec = SynthSpec::trace1().scaled(0.01);
        spec.seed ^= 1;
        assert_ne!(spec.generate(), a);
    }

    #[test]
    fn trace_is_well_formed() {
        let t = small(SynthSpec::trace2());
        t.validate().unwrap();
        assert!(!t.is_empty());
    }

    #[test]
    fn mix_matches_spec() {
        let spec = SynthSpec::trace1().scaled(0.03); // ~100k requests
        let t = spec.generate();
        let n = t.len() as f64;
        let writes = t.records.iter().filter(|r| !r.is_read()).count() as f64;
        assert!(
            (writes / n - spec.write_fraction).abs() < 0.01,
            "write fraction {} vs {}",
            writes / n,
            spec.write_fraction
        );
        let multi_reads = t
            .records
            .iter()
            .filter(|r| r.is_read() && r.is_multiblock())
            .count() as f64;
        let reads = n - writes;
        assert!(
            (multi_reads / reads - spec.multiblock_read_fraction).abs() < 0.005,
            "multiblock read fraction {}",
            multi_reads / reads
        );
    }

    #[test]
    fn duration_matches_spec() {
        let spec = SynthSpec::trace1().scaled(0.02);
        let t = spec.generate();
        let got = t.duration().as_secs_f64();
        assert!(
            (got - spec.duration_secs).abs() < spec.duration_secs * 0.1,
            "duration {got} vs {}",
            spec.duration_secs
        );
    }

    #[test]
    fn trace2_skews_harder_than_trace1() {
        let count_cv = |t: &Trace, n: u32| {
            let mut counts = vec![0u64; n as usize];
            for r in &t.records {
                counts[r.disk as usize] += 1;
            }
            let mean = counts.iter().sum::<u64>() as f64 / n as f64;
            let var = counts
                .iter()
                .map(|&c| (c as f64 - mean).powi(2))
                .sum::<f64>()
                / n as f64;
            var.sqrt() / mean
        };
        let t1 = SynthSpec::trace1().scaled(0.02).generate();
        let t2 = SynthSpec::trace2().generate();
        let cv1 = count_cv(&t1, 130);
        let cv2 = count_cv(&t2, 10);
        assert!(
            cv2 > cv1,
            "trace2 should be more skewed: cv1={cv1:.3} cv2={cv2:.3}"
        );
    }

    #[test]
    fn multiblock_mean_length_close() {
        let spec = SynthSpec::trace1().scaled(0.05);
        let t = spec.generate();
        let multis: Vec<u32> = t
            .records
            .iter()
            .filter(|r| r.is_multiblock())
            .map(|r| r.nblocks)
            .collect();
        assert!(!multis.is_empty());
        let mean = multis.iter().map(|&n| n as f64).sum::<f64>() / multis.len() as f64;
        assert!(
            (mean - spec.multiblock_mean).abs() < 3.0,
            "multiblock mean {mean} vs {}",
            spec.multiblock_mean
        );
    }

    #[test]
    fn at_speed_compresses_gaps() {
        let base = SynthSpec::trace2().scaled(0.1);
        let fast = base.clone().at_speed(2.0);
        let t_base = base.generate();
        let t_fast = fast.generate();
        assert_eq!(t_base.len(), t_fast.len());
        let d_base = t_base.duration().as_secs_f64();
        let d_fast = t_fast.duration().as_secs_f64();
        assert!(
            (d_base / d_fast - 2.0).abs() < 0.3,
            "speedup ratio {}",
            d_base / d_fast
        );
    }

    #[test]
    fn scaled_preserves_rate() {
        let full = SynthSpec::trace2();
        let part = SynthSpec::trace2().scaled(0.25);
        let rate_full = full.n_requests as f64 / full.duration_secs;
        let rate_part = part.n_requests as f64 / part.duration_secs;
        assert!((rate_full - rate_part).abs() < rate_full * 0.01);
    }

    #[test]
    fn writes_mostly_follow_reads_in_trace1() {
        // The write-after-read mechanism: most written blocks were read
        // earlier in the trace (gives the paper's ~1.0 write hit ratio).
        let t = SynthSpec::trace1().scaled(0.02).generate();
        use std::collections::BTreeSet;
        let mut read_blocks: BTreeSet<(u32, u64)> = BTreeSet::new();
        let mut hits = 0u64;
        let mut writes = 0u64;
        for r in &t.records {
            if r.is_read() {
                read_blocks.insert((r.disk, r.block));
            } else {
                writes += 1;
                if read_blocks.contains(&(r.disk, r.block)) {
                    hits += 1;
                }
            }
        }
        assert!(writes > 0);
        let frac = hits as f64 / writes as f64;
        assert!(frac > 0.6, "write-after-read fraction {frac}");
    }
}

#[cfg(test)]
mod pinned_streams {
    use super::*;

    /// FNV-1a 64 over every record's fields (little-endian), in trace order:
    /// the identity the generator pins below.
    fn records_digest(trace: &Trace) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for r in &trace.records {
            eat(&r.at.as_ns().to_le_bytes());
            eat(&r.disk.to_le_bytes());
            eat(&r.block.to_le_bytes());
            eat(&r.nblocks.to_le_bytes());
            eat(&[r.is_read() as u8]);
        }
        h
    }

    /// The full Trace 2 preset is a pure function of its spec: this digest
    /// pins the exact record stream (and so the RNG draw sequence of every
    /// sampler it uses). A change here moves every cached-array figure.
    #[test]
    fn trace2_preset_stream_is_pinned() {
        let t = SynthSpec::trace2().generate();
        assert_eq!(t.len(), 69_539);
        assert_eq!(format!("{:016x}", records_digest(&t)), "912d20858ffd747e");
    }

    /// Trace 1 at 2% scale: covers the geometric write-after-read draw at
    /// p = 0.0017 and the log-uniform read re-reference path.
    #[test]
    fn trace1_scaled_stream_is_pinned() {
        let t = SynthSpec::trace1().scaled(0.02).generate();
        assert_eq!(t.len(), 67_250);
        assert_eq!(format!("{:016x}", records_digest(&t)), "77985a830f22c20c");
    }
}

#[cfg(test)]
mod reref_dist_tests {
    use super::*;

    fn samples(dist: RerefDist, len: u32, n: usize) -> Vec<u32> {
        let mut rng = StreamRng::seed_from_u64(99);
        (0..n).map(|_| dist.sample(&mut rng, len)).collect()
    }

    #[test]
    fn all_distributions_stay_in_range() {
        for dist in [
            RerefDist::Geometric { p: 0.01 },
            RerefDist::LogUniform { min: 100 },
            RerefDist::Uniform,
        ] {
            for len in [1u32, 2, 50, 10_000] {
                for &d in &samples(dist, len, 500) {
                    assert!((1..=len.max(1)).contains(&d), "{dist:?} len={len} d={d}");
                }
            }
        }
    }

    #[test]
    fn log_uniform_honors_its_floor() {
        // With history far past the floor, no sample lands below it.
        let xs = samples(RerefDist::LogUniform { min: 1_000 }, 1_000_000, 2_000);
        assert!(xs.iter().all(|&d| d >= 1_000));
        // Mass spreads across decades: some samples below 10k, some above
        // 100k.
        assert!(xs.iter().any(|&d| d < 10_000));
        assert!(xs.iter().any(|&d| d > 100_000));
    }

    #[test]
    fn log_uniform_falls_back_below_floor() {
        // History shorter than the floor: behaves like uniform, never
        // pins a single distance.
        let xs = samples(RerefDist::LogUniform { min: 1_000 }, 64, 2_000);
        let distinct: std::collections::BTreeSet<u32> = xs.iter().copied().collect();
        assert!(
            distinct.len() > 30,
            "only {} distinct values",
            distinct.len()
        );
    }

    #[test]
    fn uniform_mean_is_centered() {
        let xs = samples(RerefDist::Uniform, 10_000, 20_000);
        let mean = xs.iter().map(|&d| d as f64).sum::<f64>() / xs.len() as f64;
        assert!((mean - 5_000.0).abs() < 200.0, "mean {mean}");
    }

    #[test]
    fn geometric_concentrates_near_one() {
        let xs = samples(RerefDist::Geometric { p: 0.1 }, 10_000, 5_000);
        let mean = xs.iter().map(|&d| d as f64).sum::<f64>() / xs.len() as f64;
        assert!((mean - 10.0).abs() < 1.5, "mean {mean}");
    }
}
