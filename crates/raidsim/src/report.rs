//! Simulation results.

use std::fmt;

use nvcache::CacheStats;
use raidtp_stats::{DiskCounters, PackedHistogram, TimeSeries, Welford};
use serde::{Deserialize, Serialize};
use simkit::time::ns_to_ms;

/// One completed request's response time decomposed into its phases, ns.
///
/// The components are **exact**: along the request's critical path (the
/// part that finished last) they sum to the host-observed response time to
/// the nanosecond. Phases:
///
/// * `admission` — waiting for track buffers before processing starts.
/// * `channel` — array↔host channel time: write staging before disk ops
///   issue, the post-read transfer, and the tail transfer of cache misses
///   and reconstructed reads (wait + transfer).
/// * `disk_queue` — waiting in the disk's queue behind *foreground* work.
/// * `destage_interference` — the slice of queue wait spent behind
///   background (destage/spool) operations: how much the "asynchronous"
///   destage process actually delays host requests.
/// * `seek`, `rotation`, `transfer` — the media components of the critical
///   access.
/// * `parity` — the parity-update penalty: synchronization wait before the
///   parity op could even be enqueued, plus extra rotations spent holding
///   the disk for the read-modify-write turnaround (Section 3.3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSample {
    pub admission_ns: u64,
    pub channel_ns: u64,
    pub disk_queue_ns: u64,
    pub destage_interference_ns: u64,
    pub seek_ns: u64,
    pub rotation_ns: u64,
    pub transfer_ns: u64,
    pub parity_ns: u64,
}

impl PhaseSample {
    /// Total of all components — equals the response time, exactly.
    pub fn sum_ns(&self) -> u64 {
        self.admission_ns
            + self.channel_ns
            + self.disk_queue_ns
            + self.destage_interference_ns
            + self.seek_ns
            + self.rotation_ns
            + self.transfer_ns
            + self.parity_ns
    }
}

/// Per-request-class response statistics. Classes are an opt-in tagging of
/// trace records (the fleet layer tags one class per tenant); a simulator
/// with classes set returns one `ClassReport` per class out-of-band from
/// `run_classed`, leaving [`SimReport`]'s serialized form — which the
/// determinism suite hashes — untouched. Accumulators are pushed in
/// completion order, so two runs producing the same completion schedule
/// produce bit-identical class reports.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClassReport {
    pub completed: u64,
    pub response_ms: Welford,
    pub histogram_ms: PackedHistogram,
}

impl ClassReport {
    /// 99th-percentile response time from the histogram, ms.
    pub fn p99_ms(&self) -> f64 {
        self.histogram_ms.quantile(0.99)
    }
}

/// Streaming per-phase statistics (ms), one [`Welford`] per phase.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PhaseWelfords {
    pub admission_ms: Welford,
    pub channel_ms: Welford,
    pub disk_queue_ms: Welford,
    pub destage_interference_ms: Welford,
    pub seek_ms: Welford,
    pub rotation_ms: Welford,
    pub transfer_ms: Welford,
    pub parity_ms: Welford,
}

impl PhaseWelfords {
    pub fn new() -> PhaseWelfords {
        PhaseWelfords::default()
    }

    pub fn push(&mut self, s: &PhaseSample) {
        self.admission_ms.push(ns_to_ms(s.admission_ns));
        self.channel_ms.push(ns_to_ms(s.channel_ns));
        self.disk_queue_ms.push(ns_to_ms(s.disk_queue_ns));
        self.destage_interference_ms
            .push(ns_to_ms(s.destage_interference_ns));
        self.seek_ms.push(ns_to_ms(s.seek_ns));
        self.rotation_ms.push(ns_to_ms(s.rotation_ns));
        self.transfer_ms.push(ns_to_ms(s.transfer_ns));
        self.parity_ms.push(ns_to_ms(s.parity_ns));
    }

    /// Requests observed.
    pub fn count(&self) -> u64 {
        self.admission_ms.count()
    }

    /// Stable (label, mean ms) pairs in presentation order.
    pub fn means_ms(&self) -> [(&'static str, f64); 8] {
        [
            ("admission", self.admission_ms.mean()),
            ("channel", self.channel_ms.mean()),
            ("disk queue", self.disk_queue_ms.mean()),
            ("destage intf", self.destage_interference_ms.mean()),
            ("seek", self.seek_ms.mean()),
            ("rotation", self.rotation_ms.mean()),
            ("transfer", self.transfer_ms.mean()),
            ("parity", self.parity_ms.mean()),
        ]
    }

    /// Sum of the phase means — equals the mean response time (up to f64
    /// rounding), since each request's phases sum exactly.
    pub fn mean_total_ms(&self) -> f64 {
        self.means_ms().iter().map(|(_, m)| m).sum()
    }
}

/// Fault-injection outcome accounting, present when `SimConfig::fault` was
/// set. Durations are measured inside the simulated run: a window still
/// open when the simulation ends is truncated at the final event time.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FaultReport {
    /// Time spent in degraded or rebuilding state, summed over arrays and
    /// over every degraded episode, ms; an episode still open at the end of
    /// the run (no spare, pool exhausted, data loss) is truncated there.
    /// 0 when no disk failed.
    pub degraded_window_ms: f64,
    /// Rebuild start → last block re-protected, summed over arrays, ms.
    pub rebuild_ms: f64,
    /// Blocks reconstructed onto spare targets.
    pub rebuild_blocks: u64,
    /// Permanent disk failures (injected and escalated), spares drawn from
    /// the pools, and spares still available at the end of the run.
    pub disk_failures: u64,
    pub spares_used: u64,
    /// Latent sector errors injected, and how many the scrub repaired from
    /// redundancy before anything tripped over them.
    pub latent_errors: u64,
    pub latent_repaired: u64,
    /// Blocks verified by the background scrub.
    pub scrub_blocks: u64,
    /// Blocks lost beyond redundancy (second failures, latent errors with
    /// no surviving peer), and host reads that completed degenerately
    /// because their data was gone.
    pub blocks_lost: u64,
    pub lost_reads: u64,
    /// Transient media errors injected.
    pub transient_errors: u64,
    /// Operation retries driven by the controller (≤ transient_errors).
    pub retries: u64,
    /// Retry-exhausted errors escalated to a permanent disk failure.
    pub escalations: u64,
    /// In-flight or queued operations aborted when their disk died.
    pub ops_aborted: u64,
    /// Replacement operations created to re-plan aborted reads through the
    /// degraded (reconstruct-from-peers) machinery.
    pub ops_replayed: u64,
    /// NVRAM battery outage span, ms.
    pub battery_window_ms: f64,
    /// Host writes that had to complete write-through during the outage.
    pub writes_written_through: u64,
    /// Response times split by the array's state when the request was
    /// processed: healthy, degraded (failed disk, no rebuild running),
    /// rebuilding, or past the data-loss transition.
    pub response_healthy_ms: Welford,
    pub response_degraded_ms: Welford,
    pub response_rebuilding_ms: Welford,
    pub response_dataloss_ms: Welford,
}

impl FaultReport {
    /// Mean response time over the whole degraded window (degraded +
    /// rebuilding states), ms — the figure the rebuild experiment tables.
    pub fn degraded_mean_ms(&self) -> f64 {
        let mut w = self.response_degraded_ms;
        w.merge(&self.response_rebuilding_ms);
        w.mean()
    }
}

/// Structured end-of-run durability summary, present when
/// `SimConfig::fault` was set. Where [`FaultReport`] is the performance
/// view of a faulty run (response times by window, recovery traffic), this
/// is the *reliability* view: what state the lifecycle ended in and what,
/// if anything, was lost. The `figures reliability` experiment tables these
/// per organization.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ReliabilityReport {
    /// Worst lifecycle state across arrays at the end of the run:
    /// `"healthy"`, `"degraded"`, `"rebuilding"`, or `"data-loss"`.
    pub health: String,
    /// Permanent disk failures (injected and escalated).
    pub disk_failures: u64,
    /// Spares drawn from the pools / still available at the end.
    pub spares_used: u64,
    pub spares_available: u64,
    /// Latent sector errors injected / repaired from redundancy.
    pub latent_errors: u64,
    pub latent_repaired: u64,
    /// Blocks verified by the background scrub, and the fraction of all
    /// physical blocks that represents (the sweep skips failed disks, so a
    /// degraded array's pass covers less than 1.0).
    pub scrub_blocks: u64,
    pub scrub_coverage: f64,
    /// Blocks lost beyond redundancy, and host reads of lost data that
    /// completed degenerately.
    pub blocks_lost: u64,
    pub lost_reads: u64,
    /// Total time any array spent without full redundancy (degraded +
    /// rebuilding), summed over arrays and episodes, ms — the window in
    /// which a second failure loses data (the MTTDL exposure term).
    pub exposure_ms: f64,
    /// When the first array crossed into `DataLoss`, ms from run start.
    pub data_loss_at_ms: Option<f64>,
}

impl ReliabilityReport {
    /// Whether the run ended with every block still recoverable.
    pub fn survived(&self) -> bool {
        self.blocks_lost == 0
    }
}

/// Dispatch-layer statistics: what the configured [`Discipline`] did with
/// each drive's queue. Present when the run used a non-FCFS discipline, or
/// when `ObservabilityConfig::scheduler_stats` opted in (the FCFS default
/// omits it so the report stays byte-identical to the pre-seam simulator —
/// see the manual [`fmt::Debug`] impl on [`SimReport`]).
///
/// [`Discipline`]: diskmodel::Discipline
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SchedulerReport {
    /// Discipline label (`"FCFS"`, `"SSTF"`, `"SCAN"`).
    pub discipline: String,
    /// Arm travel of each dispatched operation, cylinders (|target −
    /// current|, measured at dispatch over every drive).
    pub seek_distance_cyl: Welford,
    /// Queue depth of each band, observed at every dispatch decision
    /// (including the op being dispatched).
    pub queue_depth_priority: Welford,
    pub queue_depth_normal: Welford,
    pub queue_depth_background: Welford,
}

impl SchedulerReport {
    /// Mean arm travel per dispatched operation, cylinders — the figure of
    /// merit for position-aware disciplines.
    pub fn mean_seek_distance_cyl(&self) -> f64 {
        self.seek_distance_cyl.mean()
    }

    /// Mean total queue depth (all bands) seen at dispatch.
    pub fn mean_queue_depth(&self) -> f64 {
        self.queue_depth_priority.mean()
            + self.queue_depth_normal.mean()
            + self.queue_depth_background.mean()
    }
}

/// Everything a run measured. Response times are *host-observed*: from
/// request arrival to the last byte landing (reads) or to the data — and,
/// in non-cached parity organizations, the parity — being on stable storage
/// (writes).
#[derive(Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Organization label (e.g. `"RAID5"`).
    pub organization: String,
    pub requests_completed: u64,
    pub reads_completed: u64,
    pub writes_completed: u64,

    pub response_all_ms: Welford,
    pub response_reads_ms: Welford,
    pub response_writes_ms: Welford,
    pub histogram_ms: PackedHistogram,

    /// Per-phase latency decomposition along each request's critical path,
    /// split by direction. Phase means sum to the mean response time.
    pub phases_reads: PhaseWelfords,
    pub phases_writes: PhaseWelfords,

    /// Physical accesses per disk, concatenated array by array
    /// (Figures 6–7).
    pub per_disk_accesses: DiskCounters,
    /// Per-disk busy fraction over the simulated span.
    pub disk_utilization: Vec<f64>,
    /// Per-array channel busy fraction.
    pub channel_utilization: Vec<f64>,

    /// Cache accounting (cached runs only).
    pub cache: Option<CacheStats>,
    /// RAID4 parity-spool high-water mark (slots) and merge count.
    pub spool_peak: usize,
    pub spool_merges: u64,
    /// Destage groups that could not reserve spool slots and were deferred.
    pub spool_stalls: u64,

    /// Total physical disk operations dispatched.
    pub disk_ops: u64,
    /// Admissions that had to wait for track buffers.
    pub buffer_waits: u64,
    /// Simulated time span, seconds.
    pub elapsed_secs: f64,

    /// Fault-injection accounting, present when `SimConfig::fault` was set.
    pub faults: Option<FaultReport>,

    /// End-of-run durability summary, present when `SimConfig::fault` was
    /// set. Omitted from the serialized and `Debug` forms when absent so
    /// fault-free reports stay byte-identical to earlier baselines.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub reliability: Option<ReliabilityReport>,

    /// Sampled state over time, present when
    /// `SimConfig::observability.sample_period_ms` was set.
    pub timeseries: Option<TimeSeries>,

    /// Dispatch-layer statistics, present for non-FCFS disciplines or when
    /// `observability.scheduler_stats` was set.
    pub scheduler: Option<SchedulerReport>,
}

/// Matches `#[derive(Debug)]` byte-for-byte for every pre-seam field, but
/// omits `scheduler` when it is `None`. The determinism suite hashes the
/// `{:#?}` serialization of default-FCFS reports against pre-refactor
/// baselines, so the default output must not grow a field.
impl fmt::Debug for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("SimReport");
        s.field("organization", &self.organization)
            .field("requests_completed", &self.requests_completed)
            .field("reads_completed", &self.reads_completed)
            .field("writes_completed", &self.writes_completed)
            .field("response_all_ms", &self.response_all_ms)
            .field("response_reads_ms", &self.response_reads_ms)
            .field("response_writes_ms", &self.response_writes_ms)
            .field("histogram_ms", &self.histogram_ms)
            .field("phases_reads", &self.phases_reads)
            .field("phases_writes", &self.phases_writes)
            .field("per_disk_accesses", &self.per_disk_accesses)
            .field("disk_utilization", &self.disk_utilization)
            .field("channel_utilization", &self.channel_utilization)
            .field("cache", &self.cache)
            .field("spool_peak", &self.spool_peak)
            .field("spool_merges", &self.spool_merges)
            .field("spool_stalls", &self.spool_stalls)
            .field("disk_ops", &self.disk_ops)
            .field("buffer_waits", &self.buffer_waits)
            .field("elapsed_secs", &self.elapsed_secs)
            .field("faults", &self.faults)
            .field("timeseries", &self.timeseries);
        if let Some(rel) = &self.reliability {
            s.field("reliability", rel);
        }
        if let Some(sched) = &self.scheduler {
            s.field("scheduler", sched);
        }
        s.finish()
    }
}

impl SimReport {
    /// Mean response time over all requests, ms — the paper's headline
    /// metric.
    pub fn mean_response_ms(&self) -> f64 {
        self.response_all_ms.mean()
    }

    pub fn mean_read_ms(&self) -> f64 {
        self.response_reads_ms.mean()
    }

    pub fn mean_write_ms(&self) -> f64 {
        self.response_writes_ms.mean()
    }

    /// Response-time quantile, ms.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.histogram_ms.quantile(q)
    }

    /// Mean utilization across all disks.
    pub fn mean_disk_utilization(&self) -> f64 {
        if self.disk_utilization.is_empty() {
            0.0
        } else {
            self.disk_utilization.iter().sum::<f64>() / self.disk_utilization.len() as f64
        }
    }

    /// Utilization of the busiest disk.
    pub fn max_disk_utilization(&self) -> f64 {
        self.disk_utilization.iter().copied().fold(0.0, f64::max)
    }

    pub fn read_hit_ratio(&self) -> f64 {
        self.cache.map_or(0.0, |c| c.read_hit_ratio())
    }

    pub fn write_hit_ratio(&self) -> f64 {
        self.cache.map_or(0.0, |c| c.write_hit_ratio())
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} reqs, mean {:.2} ms (reads {:.2}, writes {:.2}), p95 {:.1} ms, util {:.1}%",
            self.organization,
            self.requests_completed,
            self.mean_response_ms(),
            self.mean_read_ms(),
            self.mean_write_ms(),
            self.quantile_ms(0.95),
            self.mean_disk_utilization() * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raidtp_stats::Histogram;

    fn report() -> SimReport {
        let mut all = Welford::new();
        let mut reads = Welford::new();
        let mut writes = Welford::new();
        let mut hist = Histogram::response_time_ms();
        for x in [10.0, 20.0, 30.0] {
            all.push(x);
            hist.record(x);
        }
        reads.push(10.0);
        reads.push(20.0);
        writes.push(30.0);
        SimReport {
            organization: "Base".into(),
            requests_completed: 3,
            reads_completed: 2,
            writes_completed: 1,
            response_all_ms: all,
            response_reads_ms: reads,
            response_writes_ms: writes,
            histogram_ms: hist.pack(),
            phases_reads: PhaseWelfords::new(),
            phases_writes: PhaseWelfords::new(),
            per_disk_accesses: DiskCounters::new(2),
            disk_utilization: vec![0.2, 0.4],
            channel_utilization: vec![0.1],
            cache: None,
            spool_peak: 0,
            spool_merges: 0,
            spool_stalls: 0,
            disk_ops: 3,
            buffer_waits: 0,
            elapsed_secs: 1.0,
            faults: None,
            reliability: None,
            timeseries: None,
            scheduler: None,
        }
    }

    #[test]
    fn aggregates() {
        let r = report();
        assert_eq!(r.mean_response_ms(), 20.0);
        assert_eq!(r.mean_read_ms(), 15.0);
        assert_eq!(r.mean_write_ms(), 30.0);
        assert!((r.mean_disk_utilization() - 0.3).abs() < 1e-12);
        assert_eq!(r.max_disk_utilization(), 0.4);
        assert_eq!(r.read_hit_ratio(), 0.0, "no cache");
        assert!(r.quantile_ms(1.0) >= 30.0);
    }

    #[test]
    fn summary_mentions_org_and_counts() {
        let s = report().summary();
        assert!(s.contains("Base"));
        assert!(s.contains("3 reqs"));
    }

    #[test]
    fn fault_report_degraded_mean_merges_both_windows() {
        let mut f = FaultReport::default();
        assert_eq!(f.degraded_mean_ms(), 0.0, "empty windows mean 0");
        f.response_degraded_ms.push(10.0);
        f.response_rebuilding_ms.push(30.0);
        f.response_rebuilding_ms.push(50.0);
        assert!((f.degraded_mean_ms() - 30.0).abs() < 1e-12);
        // Merging must not mutate the stored accumulators.
        assert_eq!(f.response_degraded_ms.count(), 1);
        assert_eq!(f.response_rebuilding_ms.count(), 2);
    }

    #[test]
    fn phase_sample_sum_is_exact() {
        let s = PhaseSample {
            admission_ns: 1,
            channel_ns: 2,
            disk_queue_ns: 3,
            destage_interference_ns: 4,
            seek_ns: 5,
            rotation_ns: 6,
            transfer_ns: 7,
            parity_ns: 8,
        };
        assert_eq!(s.sum_ns(), 36);
        assert_eq!(PhaseSample::default().sum_ns(), 0);
    }

    #[test]
    fn phase_welfords_mean_total_matches_response() {
        let mut w = PhaseWelfords::new();
        let samples = [
            PhaseSample {
                seek_ns: 10_000_000,
                rotation_ns: 5_000_000,
                transfer_ns: 2_000_000,
                ..PhaseSample::default()
            },
            PhaseSample {
                disk_queue_ns: 8_000_000,
                seek_ns: 4_000_000,
                rotation_ns: 9_000_000,
                transfer_ns: 2_000_000,
                parity_ns: 11_000_000,
                ..PhaseSample::default()
            },
        ];
        let mut resp = Welford::new();
        for s in &samples {
            w.push(s);
            resp.push(ns_to_ms(s.sum_ns()));
        }
        assert_eq!(w.count(), 2);
        assert!((w.mean_total_ms() - resp.mean()).abs() < 1e-9);
        // Labeled means come out in presentation order.
        let means = w.means_ms();
        assert_eq!(means[0].0, "admission");
        assert_eq!(means[7].0, "parity");
        assert!((means[4].1 - 7.0).abs() < 1e-12, "mean seek 7 ms");
    }
}
