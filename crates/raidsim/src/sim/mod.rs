//! The event-driven array simulator.
//!
//! One [`Simulator`] runs one trace against one configuration. Logical
//! disks are grouped `N` per array; each array has its own disks, channel,
//! track buffers and (optionally) NV cache, exactly as in Section 3.2 —
//! arrays interact only through the shared trace.
//!
//! ## Layers
//!
//! The core is five layers, one module each, with narrow interfaces:
//!
//! * **admission** ([`admission`], with `cached` as its NV-cache front-end)
//!   — trace feed, track-buffer/array admission control, record → request
//!   decomposition.
//! * **planning** ([`planning`]) — one `OrgPlanner` per organization turns
//!   logical addresses into per-disk operations (healthy and degraded),
//!   backed by `mapping::OrgMap`. The only simulator code that knows which
//!   organization is running.
//! * **dispatch** ([`dispatch`]) — one `diskmodel::SchedulerQueue` per
//!   drive (FCFS — the paper's discipline — by default; SSTF and SCAN
//!   selectable), service start/completion, parity
//!   synchronization (Section 3.3).
//! * **faults** ([`faults`]) — failure injection, degraded operation,
//!   online rebuild, battery failover.
//! * **reporting** ([`reporting`]) — phase attribution, time series, event
//!   log, [`SimReport`] assembly. Pure observation.
//!
//! This module keeps only what the layers share: the entity types, the
//! simulator state, construction, and the event loop.
//!
//! ## Event flow
//!
//! Requests arrive at trace-specified times and are decomposed by the
//! organization's planner into per-disk operations. Disks serve three
//! bands (parity-priority / normal / background) under the configured
//! discipline; when an operation starts service its media timing is fully
//! determined ([`diskmodel::Disk::plan`]), so read-completion times are known
//! at dispatch and parity-update synchronization (Section 3.3) can be
//! resolved with at most a few rescheduled completion events: a parity
//! read-modify-write whose new contents are not ready when the head returns
//! simply holds the disk for further full rotations, precisely the paper's
//! behavior.

mod admission;
mod cached;
mod dispatch;
mod faults;
mod planning;
mod reporting;
mod slab;

use crate::config::{FaultConfig, Organization, SimConfig, SparingMode, SyncPolicy};
use crate::mapping::{OrgMap, PlanBuf, Run, StripeMode};
use crate::report::{
    ClassReport, FaultReport, PhaseSample, PhaseWelfords, ReliabilityReport, SchedulerReport,
    SimReport,
};
use diskmodel::{rmw_write_complete, AccessKind, Band, Discipline, Disk, SchedulerQueue};
use iochannel::{BufferPool, Channel, RetryPolicy};
use nvcache::{BlockKey, NvCache, ParitySpool};
use raidtp_stats::{DiskCounters, Histogram, TimeSeries, Welford};
use simkit::{Engine, EventId, FaultEvent, FaultPlan, FaultRng, SimTime};
use slab::Slab;
use std::collections::VecDeque;
use tracegen::{AccessType, Trace};

use faults::{FaultKind, FaultState};
use planning::{OrgPlanner, Planner};

/// What a disk operation is doing, which determines what happens when it
/// completes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum OpRole {
    /// Host read (non-cached): completion triggers a channel transfer that
    /// finishes the request's share.
    HostRead,
    /// Plain data write on behalf of a request.
    HostWrite,
    /// Data-disk read-modify-write of an update (pre-reads old data).
    RmwData,
    /// Reconstruct-write helper read; feeds the parity job only.
    ExtraRead,
    /// Parity read-modify-write (resolved against the job's ready time).
    ParityRmw,
    /// Plain parity write (full-stripe / reconstruct).
    ParityWrite,
    /// Cache-miss fetch; finishes the request's share, then the tail
    /// channel transfer runs.
    CacheFetch,
    /// Synchronous writeback of an evicted dirty block.
    Writeback,
    /// Background destage data write.
    DestageData,
    /// Background destage parity op (RAID5/Parity Striping).
    DestageParity,
    /// RAID4 parity-spool drain write.
    SpoolDrain,
    /// Degraded-mode peer read used to XOR-reconstruct a lost block;
    /// finishes the request's share (reconstructed data leaves via the
    /// request's tail channel transfer).
    ReconstructRead,
    /// Online-rebuild peer read: feeds the rebuild batch's job only.
    RebuildRead,
    /// Online-rebuild write of reconstructed blocks onto the hot spare (or,
    /// under distributed sparing, onto a surviving disk's spare area).
    RebuildWrite,
    /// Background-scrub sequential verify read: discovers latent sector
    /// errors in its range on completion.
    ScrubRead,
    /// Rewrite of a scrub-discovered latent error from reconstructed
    /// redundancy (completion is a no-op: the repair was already accounted
    /// when the covering scrub read finished).
    ScrubRepair,
}

/// When a parity job's parity operations get enqueued (Section 3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EnqueueRule {
    /// SI: already enqueued with the data.
    AlreadyIssued,
    /// RF (and reconstruct-writes): at the ready time.
    AtReady,
    /// DF: the moment every data access has acquired its disk.
    AtAllStarted,
}

/// Per-op timestamps and timing components for the phase decomposition.
/// `enqueue`/`bg_snap` are stamped by [`Simulator::enqueue_op`]; the rest at
/// service start.
#[derive(Clone, Copy, Debug)]
struct OpMarks {
    enqueue: SimTime,
    start: SimTime,
    seek_ns: u64,
    latency_ns: u64,
    /// Snapshot of the disk's cumulative background-busy counter at enqueue
    /// (adjusted for a background op mid-service), so the destage
    /// interference suffered while queued is `bg_busy_cum − bg_snap`.
    bg_snap: u64,
}

impl Default for OpMarks {
    fn default() -> Self {
        OpMarks {
            enqueue: SimTime::ZERO,
            start: SimTime::ZERO,
            seek_ns: 0,
            latency_ns: 0,
            bg_snap: 0,
        }
    }
}

#[derive(Clone, Debug)]
struct DiskOp {
    role: OpRole,
    req: Option<u32>,
    job: Option<u32>,
    dgroup: Option<u32>,
    gdisk: u32,
    block: u64,
    nblocks: u32,
    kind: AccessKind,
    band: Band,
    /// Whether this op's read phase feeds its parity job's ready time
    /// (data RMW pre-reads and reconstruct helper reads).
    feeds: bool,
    /// Filled in at service start.
    read_end: SimTime,
    transfer_ns: u64,
    /// Completed services that drew a transient media error (retry count).
    attempts: u32,
    marks: OpMarks,
}

impl DiskOp {
    /// The parent request of an op whose role always has one (host reads
    /// and writes, RMW data ops, cache fetches, reconstruct reads).
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "host-facing roles are constructed with a parent request; losing it is a scheduling bug that must stop the run, not skew the stats"
    )]
    fn req_id(&self) -> u32 {
        self.req.expect("host-facing op lost its parent request")
    }
}

#[derive(Clone, Debug)]
struct ParityJob {
    /// Data (or extra-read) ops not yet in service.
    data_not_started: u32,
    /// Max read-end among started feeder ops: when the new parity is
    /// computable.
    ready: SimTime,
    pending_parity: Vec<u32>,
    rule: EnqueueRule,
    refs: u32,
}

#[derive(Clone, Debug)]
struct Request {
    arrive: SimTime,
    is_read: bool,
    array: u32,
    pending: u32,
    finish: SimTime,
    buffers_held: u32,
    tail_channel_bytes: u64,
    /// Monotonic id for the event log (slab indices get recycled).
    serial: u64,
    /// When processing started (arrival + admission wait).
    admit: SimTime,
    /// When the request's disk ops could first be enqueued: `admit`, or the
    /// end of the channel staging transfer for non-cached writes.
    stage_end: SimTime,
    /// Phase breakdown of the part that currently defines `finish` (the
    /// critical path so far); components sum exactly to `finish − arrive`.
    phase: PhaseSample,
    /// Array state when the request arrived: 0 healthy, 1 degraded (no
    /// rebuild running), 2 rebuilding, 3 data loss. Buckets the per-window
    /// response statistics of [`FaultReport`].
    window: u8,
    /// Request class (fleet tenant id); 0 unless classes are tagged.
    class: u16,
}

/// Parameters of one write decomposition (host write or cache writeback).
pub(super) struct WriteOps {
    pub(super) req: Option<u32>,
    pub(super) array: u32,
    pub(super) laddr: u64,
    pub(super) n: u32,
    pub(super) band: Band,
    pub(super) data_role: OpRole,
    /// Cached old data available (writeback with a retained old copy):
    /// data disks skip the pre-read and parity RMWs resolve immediately.
    pub(super) old_known: bool,
    /// RAID4 parity caching: parity updates go to the spool.
    pub(super) spool: bool,
}

#[derive(Clone, Debug)]
struct DestageJob {
    group: nvcache::DestageGroup,
    remaining: u32,
}

#[derive(Debug)]
enum Ev {
    /// Process the next trace record. Never scheduled in the event queue:
    /// synthesized by [`Simulator::next_step`] when the arrival feed's head
    /// precedes every pending event (see "Event flow" above).
    Arrive,
    DiskDone {
        gdisk: u32,
        op: u32,
    },
    /// Enqueue prepared operations (channel staging done / ready time hit).
    Issue(Box<[u32]>),
    /// RF / reconstruct: parity ops released at the job's ready time.
    EnqueueParity(u32),
    DestageTick {
        array: u32,
    },
    /// An injected fault fires (disk failure, latent sector error, battery
    /// failure/restore).
    Fault(FaultKind),
    /// Reconstruct the next batch of `array`'s failed disk onto its spare
    /// target. `epoch` identifies the rebuild attempt: a throttled step
    /// scheduled before the rebuild restarted (spare died, next spare drawn)
    /// is stale and ignored.
    RebuildStep {
        array: u32,
        epoch: u32,
    },
    /// Verify the next batch of `array`'s background scrub sweep.
    ScrubStep {
        array: u32,
    },
    /// Periodic state sampler (read-only: never perturbs timing).
    Sample,
}

/// Engine-level counters of a finished run, reported by
/// [`Simulator::run_instrumented`]: throughput denominators for perfbench
/// (`perfbench/`), deliberately kept out of [`SimReport`].
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Total events dispatched by the engine (summed over virtual arrays
    /// for a fleet run).
    pub events_processed: u64,
    /// Future-event-list high-water mark (max over virtual arrays for a
    /// fleet run).
    pub peak_pending: usize,
    /// Per-virtual-array counters of a fleet run, in VA index order;
    /// empty for one simulator's run.
    pub partitions: Vec<PartStats>,
}

/// One virtual array's share of a fleet run (see [`RunStats::partitions`]).
#[derive(Clone, Copy, Debug)]
pub struct PartStats {
    /// Trace arrivals the virtual array received: the records of its own
    /// tenants' substreams.
    pub arrivals_owned: u64,
    /// Events the virtual array's simulator executed.
    pub events_processed: u64,
}

/// Pre-built disk models for warm-starting construction. The per-disk
/// state is a pure function of (seed, geometry, seek curve, disk index),
/// so one pool built for the largest configuration serves every run that
/// shares those parameters — smaller configurations use a prefix, and a
/// run whose parameters differ falls back to cold construction (the pool
/// is an optimization, never a correctness input).
pub struct WarmDisks {
    seed: u64,
    geometry: diskmodel::DiskGeometry,
    seek: diskmodel::SeekCurve,
    disks: Vec<Disk>,
}

impl WarmDisks {
    /// Build a pool of `total_disks` pristine drives for `cfg`'s seed,
    /// geometry, and seek curve.
    pub fn new(cfg: &SimConfig, total_disks: u32) -> WarmDisks {
        let model = Disk::new(cfg.geometry.clone(), cfg.seek, 0);
        let rot_ns = model.rotation_ns();
        WarmDisks {
            seed: cfg.seed,
            geometry: cfg.geometry.clone(),
            seek: cfg.seek,
            disks: (0..total_disks as u64)
                .map(|i| model.sibling(spindle_phase(cfg.seed, i, rot_ns)))
                .collect(),
        }
    }

    /// Whether a configuration can reuse this pool's drives.
    /// Whether `cfg` would produce drives identical to this pool's — the
    /// pool is reusable for any run agreeing on seed, geometry, and seek
    /// curve (a *disk class*, in fleet terms), regardless of organization,
    /// cache, or fault plan.
    pub fn matches(&self, cfg: &SimConfig) -> bool {
        self.seed == cfg.seed && self.geometry == cfg.geometry && self.seek == cfg.seek
    }
}

/// Opt-in request-class tagging: `of_record[i]` is the class of trace
/// record `i` (the fleet layer assigns one class per tenant), with one
/// response accumulator pair per class, pushed at request completion in
/// completion order. Purely observational — tagging never touches timing.
struct ClassState {
    of_record: Vec<u16>,
    /// Per class: response times, ms, as moments and as a histogram.
    response_ms: Vec<(Welford, Histogram)>,
}

/// Trace-driven simulator for one configuration. Construct with
/// [`Simulator::new`], consume with [`Simulator::run`].
pub struct Simulator<'t> {
    cfg: SimConfig,
    trace: &'t Trace,
    planner: Planner,
    engine: Engine<Ev>,

    // Per physical disk (global index = array·disks_per_array + local).
    disks: Vec<Disk>,
    queues: Vec<SchedulerQueue>,
    in_service: Vec<Option<u32>>,
    /// Completion event of the op in service, cancellable on disk failure.
    service_ev: Vec<Option<EventId>>,
    // Per array.
    channels: Vec<Channel>,
    buffers: Vec<BufferPool>,
    /// Per array: (record, replayed arrival time) awaiting track buffers.
    admission_wait: Vec<VecDeque<(usize, SimTime)>>,
    caches: Vec<NvCache>,
    spools: Vec<ParitySpool>,
    /// Scratch buffers of the request path, kept so it allocates nothing
    /// once they have grown: the missing blocks of a cached read, and four
    /// stacks — write plans and read runs, op tokens, dirty evictions and
    /// destage groups — that each planning call appends to and truncates
    /// back to where it started (see `build_write_ops` on re-entrancy).
    cache_missing: Vec<BlockKey>,
    plan: PlanBuf,
    tokens: Vec<u32>,
    evictions: Vec<nvcache::DirtyEviction>,
    destage_groups: Vec<nvcache::DestageGroup>,

    ops: Slab<DiskOp>,
    jobs: Slab<ParityJob>,
    reqs: Slab<Request>,
    dgroups: Slab<DestageJob>,

    // Cached constants (failed_local / dataloss are runtime *state*: set by
    // a static config or mid-run failure events, cleared — failed_local
    // only — when a rebuild completes; dataloss is sticky).
    arrays: u32,
    dpa: u32,
    /// Per array: local index of its failed disk, if any. Planning stays
    /// degraded around this disk; a second failure in the same array is
    /// resolved by the fault layer (spare restart / exhaustion / data loss)
    /// without changing which disk planning routes around.
    failed_local: Vec<Option<u32>>,
    /// Per array: whether a stripe lost more blocks than its redundancy
    /// covers. Sticky until the end of the run.
    dataloss: Vec<bool>,
    fault: Option<FaultState>,
    n: u32,
    bpd: u64,
    rot_ns: u64,
    block_bytes: u64,
    destage_period_ns: u64,
    parity_cached: bool,

    // Progress and stats. Replay speed, the next record to arrive and its
    // replayed arrival time (`None` once drained), computed once per record.
    speed: f64,
    next_arrival: usize,
    next_arrival_at: Option<SimTime>,
    inflight: u64,
    resp_all: Welford,
    resp_reads: Welford,
    resp_writes: Welford,
    hist: Histogram,
    phase_reads: PhaseWelfords,
    phase_writes: PhaseWelfords,
    disk_counts: DiskCounters,
    disk_ops: u64,
    buffer_waits: u64,
    spool_stalls: u64,
    completed: u64,
    completed_reads: u64,
    completed_writes: u64,
    req_serial: u64,

    // Destage-interference accounting, per physical disk: cumulative ns of
    // background service dispatched (incremented by the full service time at
    // start, and again on RMW holds), plus the busy horizon of the
    // currently/last running background op for the mid-service correction.
    bg_busy_cum: Vec<u64>,
    bg_until: Vec<SimTime>,

    // Dispatch-layer statistics (pure observation). Collected only when the
    // report attaches them — off the FCFS default or on
    // `observability.scheduler_stats` — so the default run pays one branch.
    sched_stats: bool,
    sched_seek_cyl: Welford,
    sched_qdepth: [Welford; 3],

    // Request-class tagging (fleet tenants); `None` unless set_classes was
    // called, so untagged runs pay one branch per completion.
    classes: Option<Box<ClassState>>,

    // Observability (never affects timing).
    sample_period_ns: u64,
    last_sample_ns: u64,
    prev_disk_busy: Vec<u64>,
    prev_chan_busy: Vec<u64>,
    ts: Option<TimeSeries>,
    event_log: Option<std::io::BufWriter<std::fs::File>>,
}

/// Deterministic pseudo-random spindle phase of disk `i` (splitmix64 over
/// the config seed). Hot spares draw fresh phases past the installed-disk
/// index range.
fn spindle_phase(seed: u64, i: u64, rot_ns: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % rot_ns
}

/// When a record recorded at `at` arrives in a replay at `speed`× the trace's
/// rate (Sections 4.2.4, 4.4.3). Speed 1 is `at` itself, exact at any size.
fn replay_time(at: SimTime, speed: f64) -> SimTime {
    if speed == 1.0 {
        at
    } else {
        SimTime::from_ns((at.as_ns() as f64 / speed).round() as u64)
    }
}

impl<'t> Simulator<'t> {
    /// Build a simulator for `cfg` over `trace`.
    ///
    /// # Panics
    ///
    /// On an invalid configuration or a trace that does not fit it; use
    /// [`Simulator::try_new`] to handle the error as a value instead.
    #[expect(clippy::panic, reason = "the documented panicking twin of `try_new`")]
    pub fn new(cfg: SimConfig, trace: &'t Trace) -> Simulator<'t> {
        match Self::try_new(cfg, trace) {
            Ok(sim) => sim,
            Err(e) => panic!("Simulator::new: {e}"),
        }
    }

    /// Fallible constructor: validates `cfg` against `trace` and returns
    /// the configuration error instead of panicking.
    pub fn try_new(cfg: SimConfig, trace: &'t Trace) -> Result<Simulator<'t>, String> {
        Self::try_new_inner(cfg, trace, 1.0, None)
    }

    /// Like [`Simulator::try_new`], but reusing pre-built disk models from
    /// `warm` when its parameters match `cfg` (cold construction otherwise).
    /// Byte-identical results either way; only construction cost differs.
    pub fn try_new_warm(
        cfg: SimConfig,
        trace: &'t Trace,
        warm: &WarmDisks,
    ) -> Result<Simulator<'t>, String> {
        Self::try_new_inner(cfg, trace, 1.0, Some(warm))
    }

    /// The one constructor: `trace` replayed at `speed` (finite, > 0, last
    /// arrival within 2^53 ns), with `warm`'s disks if they match.
    pub(crate) fn try_new_inner(
        cfg: SimConfig,
        trace: &'t Trace,
        speed: f64,
        warm: Option<&WarmDisks>,
    ) -> Result<Simulator<'t>, String> {
        cfg.validate()?;
        if !(speed.is_finite() && speed > 0.0) {
            return Err(format!("replay speed {speed:?} is not a finite number > 0"));
        }
        // Last replayed arrival: bounds the fault timeline (an event past it
        // would never fire). Rescaled, it must stay where an `f64` holds
        // every nanosecond, 2^53 ns, far from `u64` overflow.
        let horizon = replay_time(trace.records.last().map_or(SimTime::ZERO, |r| r.at), speed);
        if speed != 1.0 && horizon > SimTime::from_ns(1 << 53) {
            return Err(format!(
                "at speed {speed:?} the last arrival comes after 2^53 ns (about 104 days)"
            ));
        }
        let n = cfg.data_disks_per_array;
        let bpd = cfg.geometry.blocks_per_disk();
        if trace.blocks_per_disk > bpd {
            return Err("trace addresses exceed the physical disk size".into());
        }
        let cache_blocks = cfg
            .cache
            .map(|c| c.blocks(cfg.geometry.block_bytes))
            .transpose()?;
        if cache_blocks.is_some()
            && (trace.n_disks > BlockKey::MAX_DISKS || bpd > BlockKey::MAX_BLOCKS)
        {
            return Err(format!(
                "an NV cache keys at most {} disks of {} blocks",
                BlockKey::MAX_DISKS,
                BlockKey::MAX_BLOCKS
            ));
        }
        let arrays = cfg.arrays_for(trace.n_disks);
        let planner = Planner::new(cfg.organization, n, bpd)?;
        let dpa = planner.disks_per_array();
        let total_disks = cfg
            .organization
            .checked_disks(n, arrays, 0)
            .ok_or_else(|| {
                format!(
                    "{} logical disks in arrays of {n} need more than {} physical disks",
                    trace.n_disks,
                    u32::MAX
                )
            })? as usize;

        // Un-synchronized spindles: deterministic pseudo-random phases from
        // the seed (splitmix64 over the disk index). A matching warm pool
        // already holds exactly these drives; a pool built for a larger
        // configuration serves smaller ones as a prefix.
        let warm = warm.filter(|w| w.matches(&cfg));
        let model = match warm.and_then(|w| w.disks.first()) {
            Some(d) => d.sibling(0),
            None => Disk::new(cfg.geometry.clone(), cfg.seek, 0),
        };
        let rot_ns = model.rotation_ns();
        let cold_disk = |i: usize| model.sibling(spindle_phase(cfg.seed, i as u64, rot_ns));
        let disks: Vec<Disk> = match warm {
            Some(w) => (0..total_disks)
                .map(|i| w.disks.get(i).cloned().unwrap_or_else(|| cold_disk(i)))
                .collect(),
            None => (0..total_disks).map(cold_disk).collect(),
        };

        let caches = match cache_blocks {
            Some(blocks) => (0..arrays).map(|_| NvCache::new(blocks)).collect(),
            None => Vec::new(),
        };
        let parity_cached = planner.caches_parity(cfg.cache.is_some());
        let spools = if parity_cached {
            (0..arrays).map(|_| ParitySpool::new()).collect()
        } else {
            Vec::new()
        };

        if let Some((a, _)) = cfg.failed_disk {
            if a >= arrays {
                return Err("failed disk's array out of range".into());
            }
        }
        let mut failed_local: Vec<Option<u32>> = vec![None; arrays as usize];
        if let Some((a, d)) = cfg.failed_disk {
            failed_local[a as usize] = Some(d);
        }

        // Fault-injection plan: injected events resolved against the trace's
        // array count, per-disk error streams split off the fault seed.
        let fault = match cfg.fault {
            None => None,
            Some(fc) => {
                let mut plan = FaultPlan::new(fc.fault_seed);
                for df in [fc.disk_failure, fc.second_failure].into_iter().flatten() {
                    if df.array >= arrays {
                        return Err("injected disk failure's array out of range".into());
                    }
                    plan.schedule(FaultEvent::DiskFail {
                        array: df.array,
                        disk: df.disk,
                        at: SimTime::from_ms(df.at_ms),
                    });
                }
                if let Some(ms) = fc.battery_fail_at_ms {
                    plan.schedule(FaultEvent::BatteryFail {
                        at: SimTime::from_ms(ms),
                    });
                }
                if let Some(ms) = fc.battery_restore_at_ms {
                    plan.schedule(FaultEvent::BatteryRestore {
                        at: SimTime::from_ms(ms),
                    });
                }
                // Scheduled events past the trace horizon never fire: reject
                // them at construction instead of silently under-faulting
                // (opt out with `allow_idle_faults`).
                if !fc.allow_idle_faults {
                    if let Some(ev) = plan.events().iter().find(|e| e.at() > horizon) {
                        return Err(format!(
                            "fault at {:.0} ms is past the last trace arrival at {:.0} ms and \
                             would never fire (set allow_idle_faults to accept)",
                            ev.at().as_ms_f64(),
                            horizon.as_ms_f64(),
                        ));
                    }
                }
                // Latent sector errors: one Poisson substream per disk, laid
                // out over the trace horizon at plan-build time so the
                // schedule is a pure function of (fault seed, geometry,
                // horizon) — independent of anything the run does.
                if fc.latent_rate_per_hour > 0.0 {
                    let mean_ms = 3.6e6 / fc.latent_rate_per_hour;
                    let horizon_ms = horizon.as_ms_f64();
                    for g in 0..total_disks {
                        let mut rng = plan.latent_stream(g as u64);
                        let mut t = rng.next_exp(mean_ms);
                        while t <= horizon_ms {
                            let block = rng.next_u64() % bpd;
                            plan.schedule(FaultEvent::LatentError {
                                array: g as u32 / dpa,
                                disk: g as u32 % dpa,
                                block,
                                at: SimTime::from_ms_f64(t),
                            });
                            t += rng.next_exp(mean_ms);
                        }
                    }
                }
                let rngs = (0..total_disks).map(|g| plan.stream(g as u64)).collect();
                Some(FaultState::new(fc, plan, rngs, arrays, total_disks))
            }
        };

        let sample_period_ns = cfg
            .observability
            .sample_period_ms
            .map_or(0, |ms| ms * 1_000_000);
        let ts = (sample_period_ns > 0).then(|| {
            let mut cols: Vec<String> = Vec::new();
            cols.extend((0..total_disks).map(|g| format!("qdepth.d{g}")));
            cols.extend((0..total_disks).map(|g| format!("util.d{g}")));
            cols.extend((0..arrays).map(|a| format!("chan.a{a}")));
            if cache_blocks.is_some() {
                cols.extend((0..arrays).map(|a| format!("dirty.a{a}")));
                cols.extend((0..arrays).map(|a| format!("clean.a{a}")));
            }
            TimeSeries::new(cols)
        });
        let event_log = match cfg.observability.event_log.as_ref() {
            Some(p) => {
                let f = std::fs::File::create(p)
                    .map_err(|e| format!("cannot create event log {}: {e}", p.display()))?;
                Some(std::io::BufWriter::new(f))
            }
            None => None,
        };

        // Pre-size the entity slabs from the trace length. Live entities
        // scale with in-flight requests, a small fraction of that count, so
        // cap the reservation. Purely an allocation hint — results are
        // identical without it. The future-event list holds a few dozen
        // events whatever the trace length (arrivals never enter it), so it
        // gets a fixed reservation.
        let ev_cap = (trace.records.len() / 4).clamp(64, 1 << 14);
        Ok(Simulator {
            engine: Engine::with_capacity(64),
            disks,
            queues: (0..total_disks)
                .map(|_| SchedulerQueue::new(cfg.scheduler))
                .collect(),
            in_service: vec![None; total_disks],
            service_ev: vec![None; total_disks],
            channels: (0..arrays)
                .map(|_| Channel::new(cfg.channel_bytes_per_sec))
                .collect(),
            buffers: (0..arrays)
                .map(|_| BufferPool::new(cfg.track_buffers_per_disk * dpa))
                .collect(),
            admission_wait: (0..arrays).map(|_| VecDeque::new()).collect(),
            caches,
            spools,
            cache_missing: Vec::with_capacity(64),
            plan: PlanBuf::default(),
            tokens: Vec::with_capacity(64),
            evictions: Vec::with_capacity(64),
            destage_groups: Vec::new(),
            ops: Slab::with_capacity(ev_cap),
            jobs: Slab::with_capacity(ev_cap / 4),
            reqs: Slab::with_capacity(ev_cap / 2),
            dgroups: Slab::new(),
            arrays,
            dpa,
            failed_local,
            dataloss: vec![false; arrays as usize],
            fault,
            n,
            bpd,
            rot_ns,
            block_bytes: cfg.geometry.block_bytes as u64,
            destage_period_ns: cfg.cache.map_or(0, |c| c.destage_period_ms * 1_000_000),
            parity_cached,
            speed,
            next_arrival: 0,
            next_arrival_at: trace.records.first().map(|r| replay_time(r.at, speed)),
            inflight: 0,
            resp_all: Welford::new(),
            resp_reads: Welford::new(),
            resp_writes: Welford::new(),
            hist: Histogram::response_time_ms(),
            phase_reads: PhaseWelfords::new(),
            phase_writes: PhaseWelfords::new(),
            disk_counts: DiskCounters::new(total_disks),
            disk_ops: 0,
            buffer_waits: 0,
            spool_stalls: 0,
            completed: 0,
            completed_reads: 0,
            completed_writes: 0,
            req_serial: 0,
            bg_busy_cum: vec![0; total_disks],
            bg_until: vec![SimTime::ZERO; total_disks],
            sched_stats: cfg.scheduler != Discipline::Fcfs || cfg.observability.scheduler_stats,
            sched_seek_cyl: Welford::new(),
            sched_qdepth: [Welford::new(); 3],
            classes: None,
            sample_period_ns,
            last_sample_ns: 0,
            prev_disk_busy: vec![0; total_disks],
            prev_chan_busy: vec![0; arrays as usize],
            ts,
            event_log,
            planner,
            cfg,
            trace,
        })
    }

    /// Run to completion and produce the report.
    pub fn run(self) -> SimReport {
        self.run_instrumented().0
    }

    /// Tag every trace record with a request class (`of_record[i]` is the
    /// class of record `i`, each `< n_classes`). The fleet layer uses one
    /// class per tenant; [`Simulator::run_classed`] then returns one
    /// [`ClassReport`] per class alongside the unchanged [`SimReport`].
    pub fn set_classes(&mut self, of_record: Vec<u16>, n_classes: u16) -> Result<(), String> {
        if of_record.len() != self.trace.records.len() {
            return Err(format!(
                "class tagging covers {} records but the trace has {}",
                of_record.len(),
                self.trace.records.len()
            ));
        }
        if let Some(&c) = of_record.iter().find(|&&c| c >= n_classes) {
            return Err(format!("record class {c} out of range (< {n_classes})"));
        }
        self.classes = Some(Box::new(ClassState {
            of_record,
            response_ms: (0..n_classes)
                .map(|_| (Welford::new(), Histogram::response_time_ms()))
                .collect(),
        }));
        Ok(())
    }

    /// Run to completion, returning the report plus engine-level counters
    /// (events dispatched, future-event-list high-water mark). The counters
    /// describe the simulator, not the modeled array, so they live outside
    /// [`SimReport`] and cannot perturb its serialized form.
    pub fn run_instrumented(self) -> (SimReport, RunStats) {
        let (report, stats, _) = self.run_classed();
        (report, stats)
    }

    /// [`Simulator::run_instrumented`] plus the per-class response reports
    /// (empty unless [`Simulator::set_classes`] tagged the trace).
    pub fn run_classed(mut self) -> (SimReport, RunStats, Vec<ClassReport>) {
        if self.cfg.cache.is_some() {
            for a in 0..self.arrays {
                self.engine
                    .schedule_after(self.destage_period_ns, Ev::DestageTick { array: a });
            }
        }
        if self.sample_period_ns > 0 {
            self.engine
                .schedule_after(self.sample_period_ns, Ev::Sample);
        }
        let fault_evs: Vec<(SimTime, FaultKind)> = match self.fault.as_ref() {
            Some(fs) => fs
                .plan
                .events()
                .iter()
                .map(|e| match *e {
                    FaultEvent::DiskFail { array, disk, at } => (
                        at,
                        FaultKind::DiskFail {
                            gdisk: array * self.dpa + disk,
                        },
                    ),
                    FaultEvent::LatentError {
                        array,
                        disk,
                        block,
                        at,
                    } => (
                        at,
                        FaultKind::LatentError {
                            gdisk: array * self.dpa + disk,
                            block,
                        },
                    ),
                    FaultEvent::BatteryFail { at } => (at, FaultKind::BatteryFail),
                    FaultEvent::BatteryRestore { at } => (at, FaultKind::BatteryRestore),
                })
                .collect(),
            None => Vec::new(),
        };
        for (at, kind) in fault_evs {
            self.engine.schedule_at(at, Ev::Fault(kind));
        }
        // Background scrub sweeps start at time zero, one per array, after
        // the plan events (roots at equal times pop in scheduling order).
        if self
            .fault
            .as_ref()
            .is_some_and(|f| f.fcfg.scrub_rate_mbps > 0)
        {
            for a in 0..self.arrays {
                self.engine
                    .schedule_at(SimTime::ZERO, Ev::ScrubStep { array: a });
            }
        }
        while let Some(ev) = self.next_step() {
            self.dispatch(ev);
        }
        debug_assert!(!self.arrivals_remaining(), "arrival feed not drained");
        debug_assert_eq!(self.inflight, 0, "requests left in flight");
        debug_assert_eq!(self.ops.len(), 0, "disk ops leaked");
        debug_assert_eq!(self.jobs.len(), 0, "parity jobs leaked");
        debug_assert_eq!(self.dgroups.len(), 0, "destage jobs leaked");
        if let Some(w) = self.event_log.as_mut() {
            use std::io::Write as _;
            let _ = w.flush();
        }
        let stats = RunStats {
            events_processed: self.engine.events_processed(),
            peak_pending: self.engine.peak_pending(),
            partitions: Vec::new(),
        };
        let classes = self.classes.take().map_or(Vec::new(), |c| {
            c.response_ms
                .into_iter()
                .map(|(w, h)| ClassReport {
                    completed: w.count(),
                    response_ms: w,
                    histogram_ms: h.pack(),
                })
                .collect()
        });
        (self.into_report(), stats, classes)
    }

    /// One step of the event loop: the next queue event or the next trace
    /// arrival, whichever is earlier. Arrivals are never *scheduled* — the
    /// trace is already a time-sorted stream, so the loop merges it with
    /// the future-event list here, saving a queue round-trip per record.
    ///
    /// Tie rule: an arrival fires before queue events carrying the same
    /// timestamp. The rule only matters when an arrival's nanosecond
    /// timestamp exactly equals an internal event's (rounded exponential
    /// inter-arrival sums vs. service-time sums — coincidences the pinned
    /// determinism hashes would surface), so it must never change.
    fn next_step(&mut self) -> Option<Ev> {
        match (self.next_arrival_at, self.engine.next_time()) {
            (Some(a), Some(q)) if a > q => self.engine.next_event(),
            (None, Some(_)) => self.engine.next_event(),
            (Some(a), _) => {
                self.engine.feed_event(a);
                Some(Ev::Arrive)
            }
            (None, None) => None,
        }
    }

    /// Whether the trace still holds arrivals not yet fed. Drives the
    /// destage-tick keep-alive and the sampler.
    pub(super) fn arrivals_remaining(&self) -> bool {
        self.next_arrival_at.is_some()
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Arrive => self.on_arrive(),
            Ev::DiskDone { gdisk, op } => self.on_disk_done(gdisk, op),
            Ev::Issue(tokens) => {
                for &t in tokens.iter() {
                    self.enqueue_op(t);
                }
            }
            Ev::EnqueueParity(job) => {
                let pending = std::mem::take(&mut self.jobs.get_mut(job).pending_parity);
                for t in pending {
                    self.enqueue_op(t);
                }
            }
            Ev::DestageTick { array } => self.on_destage_tick(array),
            Ev::Fault(kind) => match kind {
                FaultKind::DiskFail { gdisk } => self.on_disk_fail(gdisk),
                FaultKind::LatentError { gdisk, block } => self.on_latent_error(gdisk, block),
                FaultKind::BatteryFail => self.on_battery_fail(),
                FaultKind::BatteryRestore => self.on_battery_restore(),
            },
            Ev::RebuildStep { array, epoch } => self.on_rebuild_step(array, epoch),
            Ev::ScrubStep { array } => self.on_scrub_step(array),
            Ev::Sample => self.on_sample(),
        }
    }
}

#[cfg(test)]
mod tests;
