//! Simulation configuration: organizations, policies, and Table 4 defaults.

use diskmodel::{Discipline, DiskGeometry, SeekCurve};
use serde::{Deserialize, Serialize};

/// Where Parity Striping places the parity areas on each disk (Section
/// 4.2.3): the paper's default is the middle cylinders; the end placement
/// wins when `w < 1/N`.
///
/// `MiddleRotated` implements the paper's future-work suggestion of "a
/// smaller striping unit for the parity in order to balance the parity
/// update load": data placement stays sequential (full seek affinity), but
/// the group↔parity-disk assignment rotates every `band_blocks` of
/// within-area offset, spreading each group's parity updates over all
/// `N + 1` disks instead of pinning them to one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParityPlacement {
    Middle,
    End,
    MiddleRotated { band_blocks: u32 },
}

/// The five I/O subsystem organizations of Table 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Organization {
    /// Independent disks, no striping, no redundancy.
    Base,
    /// Mirrored pairs: writes to both, reads to the nearer-armed / less
    /// loaded copy.
    Mirror,
    /// Data striping with rotated parity; `striping_unit` in blocks.
    Raid5 { striping_unit: u32 },
    /// Data striping with a dedicated parity disk; used with parity caching
    /// in cached configurations (Section 4.4).
    Raid4 { striping_unit: u32 },
    /// Gray et al.'s parity striping: sequential data placement with
    /// reserved parity areas.
    ParityStriping { placement: ParityPlacement },
}

impl Organization {
    /// Physical disks per array for `n` logical data disks per array.
    pub fn disks_per_array(&self, n: u32) -> u32 {
        match self {
            Organization::Base => n,
            Organization::Mirror => 2 * n,
            _ => n + 1,
        }
    }

    /// Whether this organization maintains parity.
    pub fn has_parity(&self) -> bool {
        matches!(
            self,
            Organization::Raid5 { .. }
                | Organization::Raid4 { .. }
                | Organization::ParityStriping { .. }
        )
    }

    pub fn label(&self) -> &'static str {
        match self {
            Organization::Base => "Base",
            Organization::Mirror => "Mirror",
            Organization::Raid5 { .. } => "RAID5",
            Organization::Raid4 { .. } => "RAID4",
            Organization::ParityStriping { .. } => "ParStrip",
        }
    }

    /// Physical accesses one host *write* costs under this organization
    /// (reads always cost one). Mirror doubles; the parity organizations
    /// pay the read-modify-write: old data + old parity + new data + new
    /// parity. Used by the fleet allocation planner's bandwidth model.
    pub fn write_amplification(&self) -> f64 {
        match self {
            Organization::Base => 1.0,
            Organization::Mirror => 2.0,
            _ => 4.0,
        }
    }
}

/// Parity/data synchronization policies for update requests (Section 3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncPolicy {
    /// SI — parity access issued together with the data accesses.
    SimultaneousIssue,
    /// RF — parity access issued once the old data has been read.
    ReadFirst,
    /// RF/PR — RF, with parity accesses jumping the parity disk's queue.
    ReadFirstPriority,
    /// DF — parity access issued when the data access acquires its disk.
    DiskFirst,
    /// DF/PR — DF with priority (the paper's best policy).
    DiskFirstPriority,
}

impl SyncPolicy {
    pub fn has_priority(&self) -> bool {
        matches!(
            self,
            SyncPolicy::ReadFirstPriority | SyncPolicy::DiskFirstPriority
        )
    }

    pub fn label(&self) -> &'static str {
        match self {
            SyncPolicy::SimultaneousIssue => "SI",
            SyncPolicy::ReadFirst => "RF",
            SyncPolicy::ReadFirstPriority => "RF/PR",
            SyncPolicy::DiskFirst => "DF",
            SyncPolicy::DiskFirstPriority => "DF/PR",
        }
    }
}

/// Non-volatile controller cache configuration (one cache per array).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Cache size in megabytes (Table 4 default: 16 MB).
    pub size_mb: u64,
    /// Period of the background destage process, milliseconds.
    pub destage_period_ms: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            size_mb: 16,
            destage_period_ms: 1_000,
        }
    }
}

impl CacheConfig {
    /// The cache's capacity in blocks of `block_bytes`. An error names the
    /// size when it holds fewer than 2 blocks or more than the NV cache's
    /// `u32` node ids can address.
    pub fn blocks(&self, block_bytes: u32) -> Result<usize, String> {
        nvcache::checked_blocks_for_mb(self.size_mb, block_bytes as u64)
            .and_then(|b| usize::try_from(b).ok())
            .filter(|b| (2..=nvcache::NvCache::MAX_CAPACITY).contains(b))
            .ok_or_else(|| {
                format!(
                    "cache size {} MB must hold between 2 and {} blocks of {block_bytes} bytes",
                    self.size_mb,
                    nvcache::NvCache::MAX_CAPACITY
                )
            })
    }
}

/// Observability knobs. Everything here is **off by default** and — by
/// design — changes *nothing* about simulated timing: enabling the sampler
/// or the event log produces bit-identical response times (asserted by the
/// integration suite).
#[derive(Clone, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ObservabilityConfig {
    /// Period of the state sampler, ms. When set, the report carries a
    /// [`raidtp_stats::TimeSeries`] with per-disk queue depth and
    /// utilization, per-array channel busy fraction, and — in cached runs —
    /// NV-cache dirty/clean occupancy.
    pub sample_period_ms: Option<u64>,
    /// Path for a JSONL event log (one object per line: request arrivals,
    /// disk-op dispatches/completions, request completions with their phase
    /// breakdown). The file is created at simulation start and overwritten.
    pub event_log: Option<std::path::PathBuf>,
    /// Attach a [`crate::SchedulerReport`] (per-band queue depths, seek
    /// statistics) to the report even under the default FCFS discipline.
    /// Non-FCFS runs always report it; for FCFS it is opt-in so the default
    /// report stays byte-identical to the pre-seam simulator.
    pub scheduler_stats: bool,
}

impl ObservabilityConfig {
    /// Sampler at `period_ms`, no event log.
    pub fn sampled(period_ms: u64) -> ObservabilityConfig {
        ObservabilityConfig {
            sample_period_ms: Some(period_ms),
            ..ObservabilityConfig::default()
        }
    }
}

/// A scheduled permanent failure of one physical disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskFailure {
    /// Array holding the failing disk.
    pub array: u32,
    /// Disk index within the array (data or parity).
    pub disk: u32,
    /// Failure time, milliseconds from simulation start.
    pub at_ms: u64,
}

/// How a failed disk's contents are re-protected (ROADMAP item 4 /
/// Thomasian's survey): rebuild onto a dedicated hot spare, or spread the
/// reconstructed blocks across the surviving disks of the array.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SparingMode {
    /// Rebuild writes go to one replacement spindle drawn from the spare
    /// pool; the spare becomes the new copy of the failed disk.
    #[default]
    Hot,
    /// Rebuild writes are distributed over all survivors of the array.
    /// Consumes no spare, and the write side of the rebuild parallelizes
    /// across `N` arms instead of serializing on one — shrinking the
    /// vulnerable rebuild window at the cost of reserved survivor capacity.
    Distributed,
}

impl SparingMode {
    pub fn label(&self) -> &'static str {
        match self {
            SparingMode::Hot => "hot-spare",
            SparingMode::Distributed => "dist-spare",
        }
    }
}

fn default_spare_count() -> u32 {
    1
}

/// Fault-injection configuration: a mid-run failure timeline plus the
/// recovery knobs (spare pool / rebuild, latent-error scrubbing,
/// transient-error retry, NVRAM battery failover). All randomness derives
/// from `fault_seed` through [`simkit::fault::FaultPlan`] streams, so
/// fault-injected runs stay a pure function of (trace, config, fault seed).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Permanent disk failure injected mid-run (contrast `failed_disk`,
    /// which models a disk that is already dead at time zero).
    pub disk_failure: Option<DiskFailure>,
    /// A second permanent failure, for multi-failure lifecycles: a spare
    /// dying mid-rebuild (rebuild restarts onto the next spare), spare
    /// exhaustion (array stays degraded), or — when it hits a second data
    /// disk of the same array — the `DataLoss` transition.
    #[serde(default)]
    pub second_failure: Option<DiskFailure>,
    /// Whether a spare pool is available: when `true`, an online rebuild
    /// re-protects the failed disk's blocks and the array returns to
    /// healthy mode; when `false`, the array stays degraded to the end.
    pub spare: bool,
    /// Spares in the pool (hot sparing draws one per rebuild; exhaustion
    /// leaves later failures degraded). Ignored under distributed sparing,
    /// which consumes no spares.
    #[serde(default = "default_spare_count")]
    pub spare_count: u32,
    /// Hot spare vs distributed sparing (see [`SparingMode`]).
    #[serde(default)]
    pub sparing: SparingMode,
    /// Rebuild-rate cap in MB/s of reconstructed data (0 = unthrottled: the
    /// rebuild runs as fast as background-band scheduling allows).
    pub rebuild_rate_mbps: u64,
    /// Latent sector error rate, per disk-hour. Each disk gets a Poisson
    /// substream (seeded off `fault_seed` in its own tag namespace) that
    /// silently mars individual blocks; marred blocks surface when a scrub
    /// pass or a rebuild reconstruction needs them. 0 disables.
    #[serde(default)]
    pub latent_rate_per_hour: f64,
    /// Background scrub rate in MB/s of verified data (0 = scrubbing off).
    /// The scrub sweeps every disk of every array once, sequentially, in
    /// the background band, repairing discovered latent errors from
    /// redundancy.
    #[serde(default)]
    pub scrub_rate_mbps: u64,
    /// Accept fault events scheduled after the last trace arrival instead
    /// of rejecting them at config time (they would never fire).
    #[serde(default)]
    pub allow_idle_faults: bool,
    /// Per-operation probability of a transient media error (0 disables).
    pub transient_error_prob: f64,
    /// Consecutive retries of one operation before the error escalates to a
    /// permanent failure of the disk.
    pub max_retries: u32,
    /// Base retry backoff, microseconds; doubles per consecutive failure.
    pub retry_backoff_us: u64,
    /// NV-cache battery failure time, ms: from here the cache degrades to
    /// write-through (writes complete only once on stable storage).
    pub battery_fail_at_ms: Option<u64>,
    /// Battery replacement time, ms: write-back caching resumes.
    pub battery_restore_at_ms: Option<u64>,
    /// Seed of the fault plan's random streams (transient-error and latent
    /// sector error draws; one substream per disk per fault class).
    pub fault_seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            disk_failure: None,
            second_failure: None,
            spare: true,
            spare_count: default_spare_count(),
            sparing: SparingMode::Hot,
            rebuild_rate_mbps: 10,
            latent_rate_per_hour: 0.0,
            scrub_rate_mbps: 0,
            allow_idle_faults: false,
            transient_error_prob: 0.0,
            max_retries: 4,
            retry_backoff_us: 500,
            battery_fail_at_ms: None,
            battery_restore_at_ms: None,
            fault_seed: 0x4641_554C, // "FAUL"
        }
    }
}

/// Full simulation configuration. `Default` reproduces Table 4 (non-cached
/// RAID5 needs the striping unit and sync method set explicitly; the
/// defaults here are the paper's: N = 10, 1-block striping unit, Disk First,
/// middle-cylinder parity placement).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    pub organization: Organization,
    /// N: logical data disks per array.
    pub data_disks_per_array: u32,
    pub geometry: DiskGeometry,
    pub seek: SeekCurve,
    /// Channel rate per array (Table 1: 10 MB/s).
    pub channel_bytes_per_sec: u64,
    /// Track buffers per attached disk (Section 3.4: five).
    pub track_buffers_per_disk: u32,
    pub sync: SyncPolicy,
    /// Per-drive service discipline (the dispatch layer's seam). The
    /// paper's discipline — and the default — is [`Discipline::Fcfs`];
    /// SSTF/SCAN are position-aware extension axes. All disciplines
    /// preserve the Priority > Normal > Background band contract, so
    /// RF/PR and destage semantics are identical across them.
    pub scheduler: Discipline,
    /// `Some` for cached organizations.
    pub cache: Option<CacheConfig>,
    /// Seed for disk rotational phases (disks are not spindle-synchronized).
    pub seed: u64,
    /// Degraded-mode operation: one failed physical disk, given as
    /// (array index, disk index within the array). Redundant organizations
    /// reconstruct lost blocks from their peers; Base cannot run degraded.
    pub failed_disk: Option<(u32, u32)>,
    /// Fault-injection timeline: mid-run disk failure + rebuild, transient
    /// media errors with retry, NVRAM battery failover. `None` disables the
    /// fault engine entirely.
    pub fault: Option<FaultConfig>,
    /// Sampler / event-log configuration (all off by default; enabling it
    /// never changes simulated timing).
    pub observability: ObservabilityConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            organization: Organization::Raid5 { striping_unit: 1 },
            data_disks_per_array: 10,
            geometry: DiskGeometry::default(),
            seek: SeekCurve::table1(),
            channel_bytes_per_sec: 10_000_000,
            track_buffers_per_disk: 5,
            sync: SyncPolicy::DiskFirst,
            scheduler: Discipline::Fcfs,
            cache: None,
            seed: 0x5241_4944,
            failed_disk: None,
            fault: None,
            observability: ObservabilityConfig::default(),
        }
    }
}

impl SimConfig {
    pub fn with_organization(org: Organization) -> SimConfig {
        SimConfig {
            organization: org,
            ..SimConfig::default()
        }
    }

    /// Number of arrays needed for `n_logical` logical data disks.
    pub fn arrays_for(&self, n_logical: u32) -> u32 {
        n_logical.div_ceil(self.data_disks_per_array)
    }

    /// Total physical disks used for `n_logical` logical data disks —
    /// reproduces the paper's accounting (Trace 1, N = 5: 156 disks; N = 10:
    /// 143 disks).
    pub fn total_disks(&self, n_logical: u32) -> u32 {
        self.arrays_for(n_logical) * self.organization.disks_per_array(self.data_disks_per_array)
    }

    pub fn validate(&self) -> Result<(), String> {
        self.geometry.validate()?;
        if self.data_disks_per_array == 0 {
            return Err("data_disks_per_array must be ≥ 1".into());
        }
        match self.organization {
            Organization::Raid5 { striping_unit } | Organization::Raid4 { striping_unit } => {
                if striping_unit == 0 {
                    return Err("striping unit must be ≥ 1 block".into());
                }
                if striping_unit as u64 > self.geometry.blocks_per_disk() {
                    return Err("striping unit larger than the disk".into());
                }
                // A unit that does not divide the disk is allowed: the
                // mapping truncates to whole stripes and the trailing
                // sliver goes unused.
            }
            Organization::ParityStriping { .. } => {
                // Areas must tile the logical disk exactly; handled by the
                // mapping via truncation, nothing to reject here.
            }
            _ => {}
        }
        if let Some((_, disk)) = self.failed_disk {
            if self.organization == Organization::Base {
                return Err("Base has no redundancy: cannot run degraded".into());
            }
            if disk >= self.organization.disks_per_array(self.data_disks_per_array) {
                return Err("failed disk index out of range for the array".into());
            }
        }
        if let Some(c) = &self.cache {
            c.blocks(self.geometry.block_bytes)?;
            if c.destage_period_ms == 0 {
                return Err("destage period must be ≥ 1 ms".into());
            }
        }
        if self.observability.sample_period_ms == Some(0) {
            return Err("sample period must be ≥ 1 ms".into());
        }
        if let Some(f) = &self.fault {
            let dpa = self.organization.disks_per_array(self.data_disks_per_array);
            if let Some(df) = f.disk_failure {
                if self.organization == Organization::Base {
                    return Err("Base has no redundancy: cannot survive a disk failure".into());
                }
                if df.disk >= dpa {
                    return Err("failing disk index out of range for the array".into());
                }
                // A static failed_disk *plus* a mid-run failure is an
                // overlapping-failure scenario: legal since the lifecycle
                // engine resolves it (spare restart / exhaustion /
                // DataLoss) instead of exceeding single-fault tolerance.
            }
            if let Some(df2) = f.second_failure {
                let Some(df1) = f.disk_failure else {
                    return Err("second_failure without a first disk_failure".into());
                };
                if df2.disk >= dpa {
                    return Err("second failing disk index out of range for the array".into());
                }
                if df2.at_ms < df1.at_ms {
                    return Err("second_failure must not precede disk_failure".into());
                }
            }
            if f.spare && f.spare_count == 0 {
                return Err("spare pool enabled but spare_count is 0 (set spare: false)".into());
            }
            if !(f.latent_rate_per_hour.is_finite() && f.latent_rate_per_hour >= 0.0) {
                return Err("latent_rate_per_hour must be finite and ≥ 0".into());
            }
            if f.latent_rate_per_hour > 0.0 && self.organization == Organization::Base {
                return Err("Base has no redundancy: latent sector errors are unrepairable".into());
            }
            if f.scrub_rate_mbps > 0 && self.organization == Organization::Base {
                return Err("Base has no redundancy: scrubbing has nothing to repair from".into());
            }
            if !(0.0..1.0).contains(&f.transient_error_prob) {
                return Err("transient_error_prob must be in [0, 1)".into());
            }
            if f.transient_error_prob > 0.0 && f.max_retries == 0 {
                return Err("transient errors need max_retries ≥ 1".into());
            }
            match (f.battery_fail_at_ms, f.battery_restore_at_ms) {
                (None, Some(_)) => {
                    return Err("battery_restore_at_ms without battery_fail_at_ms".into())
                }
                (Some(fail), Some(restore)) if restore <= fail => {
                    return Err("battery restore must come after the failure".into())
                }
                _ => {}
            }
            if f.battery_fail_at_ms.is_some() && self.cache.is_none() {
                return Err("battery failure needs a cache to degrade".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disks_per_array_by_organization() {
        assert_eq!(Organization::Base.disks_per_array(10), 10);
        assert_eq!(Organization::Mirror.disks_per_array(10), 20);
        assert_eq!(
            Organization::Raid5 { striping_unit: 1 }.disks_per_array(10),
            11
        );
        assert_eq!(
            Organization::ParityStriping {
                placement: ParityPlacement::Middle
            }
            .disks_per_array(5),
            6
        );
    }

    #[test]
    fn paper_disk_count_accounting() {
        // "For Trace 1 and N = 5, RAID5 ... 26 arrays containing 6 disks per
        // array or a total of 156 disks while, for N = 10, 13 arrays
        // containing 11 disks per array or a total of 143 disks."
        let mut cfg = SimConfig::with_organization(Organization::Raid5 { striping_unit: 1 });
        cfg.data_disks_per_array = 5;
        assert_eq!(cfg.arrays_for(130), 26);
        assert_eq!(cfg.total_disks(130), 156);
        cfg.data_disks_per_array = 10;
        assert_eq!(cfg.arrays_for(130), 13);
        assert_eq!(cfg.total_disks(130), 143);
        // Mirror doubles.
        let cfg = SimConfig::with_organization(Organization::Mirror);
        assert_eq!(cfg.total_disks(130), 260);
    }

    #[test]
    fn default_is_table4() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.data_disks_per_array, 10);
        assert_eq!(cfg.sync, SyncPolicy::DiskFirst);
        assert_eq!(cfg.organization, Organization::Raid5 { striping_unit: 1 });
        assert_eq!(
            cfg.scheduler,
            Discipline::Fcfs,
            "FCFS is the paper's discipline and must stay the default"
        );
        assert!(cfg.validate().is_ok());
        assert_eq!(CacheConfig::default().size_mb, 16);
    }

    #[test]
    fn every_discipline_validates() {
        for d in Discipline::ALL {
            let cfg = SimConfig {
                scheduler: d,
                ..SimConfig::default()
            };
            assert!(cfg.validate().is_ok(), "{} must validate", d.label());
        }
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = SimConfig {
            organization: Organization::Raid5 { striping_unit: 0 },
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
        // Non-dividing striping units are fine (tail sliver unused)…
        cfg.organization = Organization::Raid5 { striping_unit: 13 };
        assert!(cfg.validate().is_ok());
        cfg.organization = Organization::Raid5 { striping_unit: 8 };
        assert!(cfg.validate().is_ok());
        // …but a unit bigger than the disk is not.
        cfg.organization = Organization::Raid5 {
            striping_unit: 300_000,
        };
        assert!(cfg.validate().is_err());
        cfg.organization = Organization::Raid5 { striping_unit: 8 };
        cfg.cache = Some(CacheConfig {
            size_mb: 0,
            destage_period_ms: 1000,
        });
        assert!(cfg.validate().is_err());
        // Sizes past the cache's u32 node ids, or past a u64 byte count,
        // are rejected by name instead of aborting the allocator.
        for size_mb in [1 << 24, u64::MAX] {
            cfg.cache = Some(CacheConfig {
                size_mb,
                destage_period_ms: 1000,
            });
            let e = cfg.validate().unwrap_err();
            assert!(e.contains(&size_mb.to_string()), "{e}");
        }
        cfg.cache = Some(CacheConfig {
            size_mb: 1_000_000,
            destage_period_ms: 1000,
        });
        assert!(cfg.validate().is_ok(), "a large cache is sized by use");
    }

    #[test]
    fn degraded_validation() {
        let mut cfg = SimConfig {
            failed_disk: Some((0, 10)), // the parity disk of an 11-disk array
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_ok());
        cfg.failed_disk = Some((0, 11));
        assert!(cfg.validate().is_err(), "disk index out of range");
        cfg.organization = Organization::Base;
        cfg.failed_disk = Some((0, 3));
        assert!(cfg.validate().is_err(), "Base cannot degrade");
    }

    #[test]
    fn fault_validation() {
        fn with_fault(edit: impl FnOnce(&mut FaultConfig)) -> SimConfig {
            let mut fault = FaultConfig {
                disk_failure: Some(DiskFailure {
                    array: 0,
                    disk: 3,
                    at_ms: 5_000,
                }),
                ..FaultConfig::default()
            };
            edit(&mut fault);
            SimConfig {
                fault: Some(fault),
                ..SimConfig::default()
            }
        }

        assert!(with_fault(|_| {}).validate().is_ok());

        // Base cannot lose a disk.
        let mut cfg = with_fault(|_| {});
        cfg.organization = Organization::Base;
        assert!(cfg.validate().is_err());

        // Disk index bounded by the array width (N + 1 = 11 disks).
        let cfg = with_fault(|f| {
            f.disk_failure = Some(DiskFailure {
                array: 0,
                disk: 11,
                at_ms: 0,
            })
        });
        assert!(cfg.validate().is_err());

        // Static + mid-run failure is an overlapping-failure scenario: the
        // lifecycle engine resolves it (restart / exhaustion / DataLoss)
        // instead of rejecting it.
        let mut cfg = with_fault(|_| {});
        cfg.failed_disk = Some((0, 0));
        assert!(cfg.validate().is_ok());

        // A second failure needs a first, must not precede it, and its disk
        // index is bounded by the array width.
        let second = |disk, at_ms| DiskFailure {
            array: 0,
            disk,
            at_ms,
        };
        let mut cfg = with_fault(|f| f.second_failure = Some(second(4, 6_000)));
        assert!(cfg.validate().is_ok());
        cfg.fault.as_mut().unwrap().disk_failure = None;
        assert!(cfg.validate().is_err(), "second failure without a first");
        assert!(with_fault(|f| f.second_failure = Some(second(11, 6_000)))
            .validate()
            .is_err());
        assert!(with_fault(|f| f.second_failure = Some(second(4, 1_000)))
            .validate()
            .is_err());

        // Spare pool, latent-error, and scrub knobs.
        assert!(with_fault(|f| f.spare_count = 0).validate().is_err());
        assert!(with_fault(|f| {
            f.spare = false;
            f.spare_count = 0;
        })
        .validate()
        .is_ok());
        assert!(with_fault(|f| f.latent_rate_per_hour = f64::NAN)
            .validate()
            .is_err());
        assert!(with_fault(|f| f.latent_rate_per_hour = -1.0)
            .validate()
            .is_err());
        let mut cfg = SimConfig {
            organization: Organization::Base,
            fault: Some(FaultConfig {
                latent_rate_per_hour: 1.0,
                ..FaultConfig::default()
            }),
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err(), "latent errors on Base");
        cfg.fault = Some(FaultConfig {
            scrub_rate_mbps: 10,
            ..FaultConfig::default()
        });
        assert!(cfg.validate().is_err(), "scrub on Base");

        // Transient-error probability range and retry budget.
        assert!(with_fault(|f| f.transient_error_prob = 1.0)
            .validate()
            .is_err());
        assert!(with_fault(|f| {
            f.transient_error_prob = 0.01;
            f.max_retries = 0;
        })
        .validate()
        .is_err());
        assert!(with_fault(|f| f.transient_error_prob = 0.01)
            .validate()
            .is_ok());

        // Battery events need a cache, and restore must follow failure.
        let mut cfg = with_fault(|f| f.battery_fail_at_ms = Some(100));
        assert!(cfg.validate().is_err(), "battery failure without a cache");
        cfg.cache = Some(CacheConfig::default());
        assert!(cfg.validate().is_ok());
        let mut cfg = with_fault(|f| {
            f.battery_fail_at_ms = Some(100);
            f.battery_restore_at_ms = Some(50);
        });
        cfg.cache = Some(CacheConfig::default());
        assert!(cfg.validate().is_err(), "restore before failure");
        let mut cfg = with_fault(|f| f.battery_restore_at_ms = Some(50));
        cfg.cache = Some(CacheConfig::default());
        assert!(cfg.validate().is_err(), "restore without failure");
    }

    #[test]
    fn sync_policy_priority_flags() {
        assert!(!SyncPolicy::SimultaneousIssue.has_priority());
        assert!(!SyncPolicy::ReadFirst.has_priority());
        assert!(SyncPolicy::ReadFirstPriority.has_priority());
        assert!(!SyncPolicy::DiskFirst.has_priority());
        assert!(SyncPolicy::DiskFirstPriority.has_priority());
    }

    #[test]
    fn observability_defaults_off_and_validates() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.observability, ObservabilityConfig::default());
        assert!(cfg.observability.sample_period_ms.is_none());
        assert!(cfg.observability.event_log.is_none());
        let mut cfg = SimConfig {
            observability: ObservabilityConfig::sampled(100),
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_ok());
        cfg.observability.sample_period_ms = Some(0);
        assert!(cfg.validate().is_err(), "zero sample period rejected");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Organization::Base.label(), "Base");
        assert_eq!(SyncPolicy::DiskFirstPriority.label(), "DF/PR");
    }
}
