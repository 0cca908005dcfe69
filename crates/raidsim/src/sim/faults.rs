//! Faults layer: the failure lifecycle engine.
//!
//! Owns failure injection, degraded operation, the rate-throttled online
//! rebuild (hot-spare or distributed sparing), latent sector errors and the
//! background scrub that races to find them, multi-failure escalation with
//! spare-pool management, graceful data-loss accounting, and the NVRAM
//! battery failover window.
//!
//! Each array walks the lifecycle state machine (DESIGN.md "Failure
//! model"):
//!
//! ```text
//! Healthy ──disk fail──▶ Degraded ──spare drawn──▶ Rebuilding ──▶ Healthy
//!                            │                        │  ▲
//!                            │   (spare dies, pool    └──┘ restart
//!                            │    non-empty: restart)
//!                            └──second data-disk fail / unreconstructable
//!                               latent error──▶ DataLoss (sticky)
//! ```
//!
//! All state is per-array (plus per-disk latent-error sets); cross-array
//! totals are plain sums.

use super::*;
use std::collections::BTreeSet;

/// An injected fault hitting the simulated hardware, resolved to engine
/// coordinates (global disk index).
#[derive(Clone, Copy, Debug)]
pub(super) enum FaultKind {
    DiskFail { gdisk: u32 },
    LatentError { gdisk: u32, block: u64 },
    BatteryFail,
    BatteryRestore,
}

/// Number of blocks reconstructed per rebuild batch (and verified per scrub
/// batch — the scrub shares this machinery). One batch is one background
/// write fed by peer reads; small enough that foreground traffic
/// interleaves between batches, large enough that the sweep is not all
/// seeks.
const REBUILD_BATCH_BLOCKS: u64 = 64;

/// Per-array failure/rebuild lifecycle state.
pub(super) struct ArrayFault {
    /// First disk failure ever seen by this array (exposure reporting).
    pub(super) failed_at: Option<SimTime>,
    /// Start of the currently open degraded window, if one is open.
    pub(super) degraded_since: Option<SimTime>,
    /// Closed degraded windows, summed (a multi-failure lifecycle can have
    /// several degraded→healthy episodes).
    pub(super) degraded_banked_ns: u64,
    /// Most recent return to healthy planning.
    pub(super) healthy_at: Option<SimTime>,
    pub(super) rebuild_started: Option<SimTime>,
    pub(super) rebuild_done: Option<SimTime>,
    pub(super) rebuild_active: bool,
    /// Next block of the failed disk to reconstruct.
    pub(super) rebuild_cursor: u64,
    /// When the in-flight rebuild batch was dispatched (rate throttling).
    pub(super) step_started: SimTime,
    /// Blocks in the in-flight batch (throttle denominator; distributed
    /// sparing splits one batch across several writes).
    pub(super) batch_blocks: u64,
    /// Writes of the in-flight batch not yet completed.
    pub(super) batch_writes_left: u32,
    /// Rebuild attempt number: bumped when the rebuild aborts (spare death,
    /// data loss) so stale throttled steps are recognized and dropped.
    pub(super) epoch: u32,
    /// Spares this array may still draw from its pool.
    pub(super) spares_left: u32,
    /// Spares this array has consumed (keys replacement spindle phases).
    pub(super) spares_drawn: u32,
    /// When the array crossed into `DataLoss`, if it did.
    pub(super) data_loss_at: Option<SimTime>,
}

impl ArrayFault {
    fn new(spares: u32) -> ArrayFault {
        ArrayFault {
            failed_at: None,
            degraded_since: None,
            degraded_banked_ns: 0,
            healthy_at: None,
            rebuild_started: None,
            rebuild_done: None,
            rebuild_active: false,
            rebuild_cursor: 0,
            step_started: SimTime::ZERO,
            batch_blocks: 0,
            batch_writes_left: 0,
            epoch: 0,
            spares_left: spares,
            spares_drawn: 0,
            data_loss_at: None,
        }
    }
}

/// Per-array background-scrub sweep state: one sequential pass over every
/// disk of the array, disk-major.
pub(super) struct ScrubState {
    /// Local disk index currently under verification.
    pub(super) disk: u32,
    /// Next block to verify on that disk.
    pub(super) cursor: u64,
    /// The pass covered every (surviving) disk.
    pub(super) done: bool,
    /// When the in-flight scrub batch was dispatched (rate throttling).
    pub(super) step_started: SimTime,
}

impl ScrubState {
    fn new() -> ScrubState {
        ScrubState {
            disk: 0,
            cursor: 0,
            done: false,
            step_started: SimTime::ZERO,
        }
    }
}

/// Runtime state of the fault-injection engine, present iff
/// [`SimConfig::fault`] is set. Owns the injected-event plan, the per-disk
/// transient-error streams, the per-array lifecycle and scrub states, the
/// per-disk latent-error sets, and every counter reported in
/// [`FaultReport`] / [`crate::ReliabilityReport`].
pub(super) struct FaultState {
    pub(super) fcfg: FaultConfig,
    pub(super) plan: FaultPlan,
    /// One independent error stream per physical disk, split off the fault
    /// seed, so one disk's draw sequence never depends on another's op
    /// count.
    pub(super) rngs: Vec<FaultRng>,
    /// Lifecycle state, one per array.
    pub(super) arr: Vec<ArrayFault>,
    /// Scrub sweep state, one per array.
    pub(super) scrub: Vec<ScrubState>,
    /// Per physical disk: blocks currently marred by an undiscovered latent
    /// sector error.
    pub(super) latent: Vec<BTreeSet<u64>>,
    // Cross-array totals (per-array events sum into them).
    pub(super) disk_failures: u64,
    pub(super) spares_used: u64,
    pub(super) rebuild_blocks: u64,
    pub(super) scrub_blocks: u64,
    pub(super) latent_errors: u64,
    pub(super) latent_repaired: u64,
    pub(super) blocks_lost: u64,
    pub(super) lost_reads: u64,
    // NVRAM battery.
    pub(super) battery_out: bool,
    pub(super) battery_fail_at: SimTime,
    pub(super) battery_window_ns: u64,
    pub(super) writes_written_through: u64,
    // Error/recovery counters.
    pub(super) transient_errors: u64,
    pub(super) retries: u64,
    pub(super) escalations: u64,
    pub(super) ops_aborted: u64,
    pub(super) ops_replayed: u64,
    // Response split by the array state the request arrived under.
    pub(super) resp_healthy: Welford,
    pub(super) resp_degraded: Welford,
    pub(super) resp_rebuilding: Welford,
    pub(super) resp_dataloss: Welford,
}

impl FaultState {
    pub(super) fn new(
        fcfg: FaultConfig,
        plan: FaultPlan,
        rngs: Vec<FaultRng>,
        arrays: u32,
        total_disks: usize,
    ) -> FaultState {
        let spares = if fcfg.spare { fcfg.spare_count } else { 0 };
        FaultState {
            fcfg,
            plan,
            rngs,
            arr: (0..arrays).map(|_| ArrayFault::new(spares)).collect(),
            scrub: (0..arrays).map(|_| ScrubState::new()).collect(),
            latent: (0..total_disks).map(|_| BTreeSet::new()).collect(),
            disk_failures: 0,
            spares_used: 0,
            rebuild_blocks: 0,
            scrub_blocks: 0,
            latent_errors: 0,
            latent_repaired: 0,
            blocks_lost: 0,
            lost_reads: 0,
            battery_out: false,
            battery_fail_at: SimTime::ZERO,
            battery_window_ns: 0,
            writes_written_through: 0,
            transient_errors: 0,
            retries: 0,
            escalations: 0,
            ops_aborted: 0,
            ops_replayed: 0,
            resp_healthy: Welford::new(),
            resp_degraded: Welford::new(),
            resp_rebuilding: Welford::new(),
            resp_dataloss: Welford::new(),
        }
    }
}

impl<'t> Simulator<'t> {
    /// Whether `gdisk` is its array's currently failed disk.
    #[inline]
    pub(super) fn is_failed(&self, gdisk: u32) -> bool {
        self.failed_local[(gdisk / self.dpa) as usize] == Some(gdisk % self.dpa)
    }

    /// No failure or loss anywhere: transient-error escalation stays
    /// conservative and only fires on a fully healthy system.
    #[inline]
    pub(super) fn fully_healthy(&self) -> bool {
        self.failed_local.iter().all(Option::is_none) && !self.dataloss.iter().any(|&d| d)
    }

    /// A disk permanently fails (injected or escalated from exhausted
    /// retries). Routes on the array's lifecycle state:
    ///
    /// * first failure — degraded planning, and (with a spare pool or
    ///   distributed sparing) the online rebuild starts;
    /// * the rebuilding slot fails again — the spare died: restart onto the
    ///   next spare, or stay degraded on pool exhaustion;
    /// * a second distinct disk fails — the stripe loses more blocks than
    ///   its redundancy covers: `DataLoss`.
    pub(super) fn on_disk_fail(&mut self, gdisk: u32) {
        let now = self.engine.now();
        let array = gdisk / self.dpa;
        let a = array as usize;
        let local = gdisk % self.dpa;
        match self.failed_local[a] {
            Some(l) if l == local => {
                // The failed slot failed again. Under hot sparing with an
                // active rebuild that is the spare dying mid-rebuild;
                // otherwise the slot is already dead and the event is moot.
                let spare_died = self
                    .fault
                    .as_ref()
                    .is_some_and(|f| f.arr[a].rebuild_active && f.fcfg.sparing == SparingMode::Hot);
                if spare_died {
                    self.on_spare_fail(gdisk, now);
                }
                return;
            }
            Some(_) => {
                self.on_second_fail(gdisk, now);
                return;
            }
            None => {}
        }

        // First failure of this lifecycle episode.
        self.failed_local[a] = Some(local);
        if let Some(f) = self.fault.as_mut() {
            f.disk_failures += 1;
            f.latent[gdisk as usize].clear();
            let af = &mut f.arr[a];
            af.failed_at.get_or_insert(now);
            af.degraded_since = Some(now);
        }
        if self.event_log.is_some() {
            let line = format!(
                "{{\"t\":{},\"ev\":\"disk_fail\",\"disk\":{}}}",
                now.as_ns(),
                gdisk
            );
            self.write_log(&line);
        }
        self.abort_disk_ops(gdisk);
        // A failed RAID4 parity disk orphans the spool: nothing can drain
        // it anymore, so give the reserved cache slots back.
        if self.parity_cached && local == self.n {
            while let Some(run) = self.spools[a].pop_run(u32::MAX) {
                self.caches[a].release_slots(run.nblocks as usize);
            }
        }
        // Start re-protection per the configured sparing mode.
        let mut start: Option<(u32, Option<u32>)> = None; // (epoch, spare serial)
        if let Some(f) = self.fault.as_mut() {
            if f.fcfg.spare {
                let sparing = f.fcfg.sparing;
                let af = &mut f.arr[a];
                match sparing {
                    SparingMode::Hot if af.spares_left > 0 => {
                        af.spares_left -= 1;
                        af.spares_drawn += 1;
                        start = Some((af.epoch, Some(af.spares_drawn)));
                    }
                    // Pool exhausted: the array stays degraded.
                    SparingMode::Hot => {}
                    SparingMode::Distributed => {
                        start = Some((af.epoch, None));
                    }
                }
                if start.is_some() {
                    af.rebuild_started.get_or_insert(now);
                    af.rebuild_active = true;
                    af.rebuild_cursor = 0;
                    af.batch_writes_left = 0;
                    f.spares_used += u64::from(matches!(sparing, SparingMode::Hot));
                }
            }
        }
        if let Some((epoch, spare_serial)) = start {
            if let Some(k) = spare_serial {
                // The hot spare takes the failed slot with a fresh spindle
                // phase keyed past the installed-disk index range (the k-th
                // spare this array draws gets the k-th replacement phase).
                let phase = spindle_phase(
                    self.cfg.seed,
                    self.disks.len() as u64 * k as u64 + gdisk as u64,
                    self.rot_ns,
                );
                self.disks[gdisk as usize] = self.disks[gdisk as usize].sibling(phase);
            }
            self.engine.schedule_now(Ev::RebuildStep { array, epoch });
        }
    }

    /// The spare being rebuilt onto died. Restart the rebuild from block 0
    /// onto the next spare, or — with the pool exhausted — abandon it and
    /// stay degraded.
    fn on_spare_fail(&mut self, gdisk: u32, now: SimTime) {
        let array = gdisk / self.dpa;
        let a = array as usize;
        if self.event_log.is_some() {
            let line = format!(
                "{{\"t\":{},\"ev\":\"spare_fail\",\"disk\":{}}}",
                now.as_ns(),
                gdisk
            );
            self.write_log(&line);
        }
        self.abort_disk_ops(gdisk);
        let mut restart: Option<(u32, u32)> = None; // (epoch, spare serial)
        if let Some(f) = self.fault.as_mut() {
            f.disk_failures += 1;
            f.latent[gdisk as usize].clear();
            let af = &mut f.arr[a];
            af.epoch += 1;
            if af.spares_left > 0 {
                af.spares_left -= 1;
                af.spares_drawn += 1;
                af.rebuild_cursor = 0;
                af.batch_writes_left = 0;
                restart = Some((af.epoch, af.spares_drawn));
                f.spares_used += 1;
            } else {
                // Abandoned, not finished: close the rebuild window here so
                // the report measures time actually spent rebuilding, and
                // leave `healthy_at` unset — the degraded exposure runs on.
                af.rebuild_active = false;
                af.rebuild_done.get_or_insert(now);
            }
        }
        if let Some((epoch, k)) = restart {
            let phase = spindle_phase(
                self.cfg.seed,
                self.disks.len() as u64 * k as u64 + gdisk as u64,
                self.rot_ns,
            );
            self.disks[gdisk as usize] = self.disks[gdisk as usize].sibling(phase);
            self.engine.schedule_now(Ev::RebuildStep { array, epoch });
        }
    }

    /// A second distinct disk of an already-degraded array failed: the
    /// stripe loses more blocks than its redundancy covers. The array
    /// transitions to `DataLoss` (sticky), the whole disk's worth of blocks
    /// is accounted lost, any rebuild is abandoned, and reads of lost data
    /// complete degenerately from here on.
    fn on_second_fail(&mut self, gdisk: u32, now: SimTime) {
        let array = gdisk / self.dpa;
        let a = array as usize;
        if self.event_log.is_some() {
            let line = format!(
                "{{\"t\":{},\"ev\":\"disk_fail\",\"disk\":{}}}",
                now.as_ns(),
                gdisk
            );
            self.write_log(&line);
        }
        if let Some(f) = self.fault.as_mut() {
            f.disk_failures += 1;
            f.latent[gdisk as usize].clear();
            let af = &mut f.arr[a];
            if af.rebuild_active {
                af.rebuild_active = false;
                af.epoch += 1;
                af.rebuild_done.get_or_insert(now);
            }
        }
        // Transition before aborting: the replans triggered by the aborts
        // must see the loss and complete degenerately instead of recursing
        // between the two dead disks.
        self.note_data_loss(array, self.bpd, now);
        self.abort_disk_ops(gdisk);
    }

    /// Mark `blocks` of `array` lost beyond redundancy and make the
    /// `DataLoss` transition (idempotent, sticky).
    pub(super) fn note_data_loss(&mut self, array: u32, blocks: u64, now: SimTime) {
        let a = array as usize;
        self.dataloss[a] = true;
        if let Some(f) = self.fault.as_mut() {
            f.blocks_lost += blocks;
            f.arr[a].data_loss_at.get_or_insert(now);
        }
        if self.event_log.is_some() {
            let line = format!(
                "{{\"t\":{},\"ev\":\"data_loss\",\"array\":{},\"blocks\":{}}}",
                now.as_ns(),
                array,
                blocks
            );
            self.write_log(&line);
        }
    }

    /// Cancel the in-service op and drain the queue of a newly dead disk,
    /// settling every op through [`Simulator::abort_op`].
    fn abort_disk_ops(&mut self, gdisk: u32) {
        let g = gdisk as usize;
        if let Some(ev) = self.service_ev[g].take() {
            self.engine.cancel(ev);
        }
        let mut lost: Vec<(u32, bool)> = Vec::new();
        if let Some(t) = self.in_service[g].take() {
            lost.push((t, true));
        }
        // Abort via `drain`, not repeated `pop`s: popping would drive the
        // discipline's position machinery (SCAN cursor and sweep direction)
        // through ops that are never serviced, and the replacement spindle
        // would inherit that phantom sweep state (scheduler contract
        // clause 3).
        for (_, t) in self.queues[g].drain() {
            lost.push((t, false));
        }
        for (t, started) in lost {
            self.abort_op(t, started);
        }
    }

    /// A latent sector error fires: the block is silently marred. Nothing
    /// happens to in-flight timing — the error surfaces when a scrub batch
    /// or a rebuild reconstruction touches the block.
    pub(super) fn on_latent_error(&mut self, gdisk: u32, block: u64) {
        if self.is_failed(gdisk) {
            return; // the whole disk is already dead
        }
        if let Some(f) = self.fault.as_mut() {
            if f.latent[gdisk as usize].insert(block) {
                f.latent_errors += 1;
            }
        }
    }

    /// Remove an op addressed to a failed disk, settle its bookkeeping, and
    /// re-plan host-facing reads of lost data through the degraded path.
    /// `started` marks an op that was in service: its feeder contribution,
    /// if any, already happened at dispatch.
    pub(super) fn abort_op(&mut self, token: u32, started: bool) {
        let now = self.engine.now();
        let op = self.ops.remove(token);
        if let Some(f) = self.fault.as_mut() {
            f.ops_aborted += 1;
        }
        // A queued feeder never started: its parity job must not wait for a
        // read that will never happen.
        if op.feeds && !started {
            if let Some(j) = op.job {
                self.feed_job(j, now);
            }
        }
        match op.role {
            OpRole::HostRead | OpRole::CacheFetch | OpRole::ReconstructRead => {
                self.replan_lost_read(&op, now);
            }
            OpRole::HostWrite | OpRole::RmwData => {
                let phase = self.abort_phase(&op, now);
                self.request_part_done(op.req_id(), now, phase);
            }
            OpRole::ParityRmw | OpRole::ParityWrite => {
                if let Some(req) = op.req {
                    let phase = self.abort_phase(&op, now);
                    self.request_part_done(req, now, phase);
                }
                if let Some(j) = op.job {
                    self.jobs.get_mut(j).refs -= 1;
                    self.maybe_free_job(j);
                }
            }
            OpRole::ExtraRead | OpRole::Writeback => {
                if let Some(req) = op.req {
                    let phase = self.abort_phase(&op, now);
                    self.request_part_done(req, now, phase);
                }
            }
            OpRole::DestageData => {
                #[expect(
                    clippy::expect_used,
                    reason = "same invariant as completion — a destage op always carries its group"
                )]
                let dg = op.dgroup.expect("destage op lost its group");
                self.dgroups.get_mut(dg).remaining -= 1;
                if self.dgroups.get(dg).remaining == 0 {
                    let dj = self.dgroups.remove(dg);
                    let array = (op.gdisk / self.dpa) as usize;
                    self.caches[array].destage_complete(&dj.group);
                }
            }
            OpRole::DestageParity | OpRole::RebuildWrite | OpRole::ScrubRepair => {
                if let Some(j) = op.job {
                    self.jobs.get_mut(j).refs -= 1;
                    self.maybe_free_job(j);
                }
            }
            OpRole::SpoolDrain => {
                let array = (op.gdisk / self.dpa) as usize;
                self.caches[array].release_slots(op.nblocks as usize);
            }
            OpRole::RebuildRead => {}
            OpRole::ScrubRead => {
                // The disk under verification died mid-batch: resume the
                // sweep (the step handler skips failed slots).
                self.engine.schedule_now(Ev::ScrubStep {
                    array: op.gdisk / self.dpa,
                });
            }
        }
    }

    /// A host-facing read lost its target disk mid-flight. Mirror reads
    /// redirect to the surviving copy; parity organizations read every
    /// surviving peer of each lost block and XOR-reconstruct, routing the
    /// rebuilt data through the request's tail channel transfer. With no
    /// redundancy left — the array already in `DataLoss`, or an
    /// unprotected region — the part completes degenerately (there is
    /// nothing left to read).
    fn replan_lost_read(&mut self, op: &DiskOp, now: SimTime) {
        let req = op.req_id();
        let array = op.gdisk / self.dpa;
        let local = op.gdisk % self.dpa;
        if self.dataloss[array as usize] {
            // Reconstruction sources are gone; re-planning would bounce
            // between the dead disks forever. Count the lost read and
            // settle the part.
            if let Some(f) = self.fault.as_mut() {
                f.lost_reads += 1;
            }
            let phase = self.abort_phase(op, now);
            self.request_part_done(req, now, phase);
            return;
        }
        let lost = Run {
            disk: local,
            block: op.block,
            nblocks: op.nblocks,
        };
        let mut runs: Vec<Run> = Vec::new();
        let mut reconstructed = false;
        if let Some(alt) = self.planner.mirror_of(lost) {
            runs.push(alt);
        } else {
            for b in 0..op.nblocks as u64 {
                for (disk, block) in self.planner.peers_of(local, op.block + b) {
                    crate::mapping::push_merged(&mut runs, 0, disk, block);
                }
            }
            reconstructed = !runs.is_empty();
        }
        if runs.is_empty() {
            let phase = self.abort_phase(op, now);
            self.request_part_done(req, now, phase);
            return;
        }
        if reconstructed && op.role == OpRole::HostRead {
            // Reconstructed data reaches the host via the tail transfer
            // (cache fetches already route the whole reply through it).
            self.reqs.get_mut(req).tail_channel_bytes += op.nblocks as u64 * self.block_bytes;
        }
        let role = match op.role {
            OpRole::CacheFetch => OpRole::CacheFetch,
            OpRole::HostRead if !reconstructed => OpRole::HostRead,
            _ => OpRole::ReconstructRead,
        };
        if let Some(f) = self.fault.as_mut() {
            f.ops_replayed += runs.len() as u64;
        }
        for run in runs {
            let t = self.new_op(DiskOp {
                role,
                req: Some(req),
                job: None,
                dgroup: None,
                gdisk: self.gdisk(array, run.disk),
                block: run.block,
                nblocks: run.nblocks,
                kind: AccessKind::Read,
                band: op.band,
                feeds: false,
                read_end: SimTime::ZERO,
                transfer_ns: 0,
                attempts: 0,
                marks: OpMarks::default(),
            });
            self.reqs.get_mut(req).pending += 1;
            self.enqueue_op(t);
        }
        // The aborted op's own share is replaced, not completed; pending
        // stays positive because the replacements were counted first.
        self.reqs.get_mut(req).pending -= 1;
    }

    /// Phase decomposition of an aborted part at abort time `now`: time
    /// since enqueue is attributed to the disk queue (the op never reached
    /// the media). Telescopes exactly to `now − arrive`.
    fn abort_phase(&self, op: &DiskOp, now: SimTime) -> PhaseSample {
        let r = self.reqs.get(op.req_id());
        let m = &op.marks;
        PhaseSample {
            admission_ns: r.admit - r.arrive,
            channel_ns: r.stage_end - r.admit,
            parity_ns: m.enqueue - r.stage_end,
            disk_queue_ns: now - m.enqueue,
            ..PhaseSample::default()
        }
    }

    /// Reconstruct the next batch of `array`'s failed disk: read every
    /// surviving peer (background band), XOR, and write the result to the
    /// spare target — the hot spare occupying the failed slot, or the
    /// survivors' spare areas under distributed sparing. Batches
    /// self-perpetuate until the cursor covers the disk, throttled to the
    /// configured rebuild rate so foreground traffic keeps priority — the
    /// same interference channel as destaging.
    pub(super) fn on_rebuild_step(&mut self, array: u32, epoch: u32) {
        let a = array as usize;
        let now = self.engine.now();
        let Some(local) = self.failed_local[a] else {
            return;
        };
        let gdisk = self.gdisk(array, local);
        let (cursor, sparing) = match self.fault.as_ref() {
            Some(f) if f.arr[a].rebuild_active && f.arr[a].epoch == epoch => {
                (f.arr[a].rebuild_cursor, f.fcfg.sparing)
            }
            _ => return, // aborted or restarted: this step is stale
        };
        if cursor >= self.bpd {
            // Every block is re-protected: the array returns to
            // healthy-mode planning. (Under distributed sparing the dead
            // slot's relocated blocks keep being modeled on its old drive —
            // a timing approximation documented in DESIGN.md.)
            self.failed_local[a] = None;
            if let Some(f) = self.fault.as_mut() {
                let af = &mut f.arr[a];
                af.rebuild_active = false;
                af.rebuild_done = Some(now);
                af.healthy_at = Some(now);
                if let Some(s) = af.degraded_since.take() {
                    af.degraded_banked_ns += now - s;
                }
            }
            if self.event_log.is_some() {
                let line = format!(
                    "{{\"t\":{},\"ev\":\"rebuild_done\",\"disk\":{}}}",
                    now.as_ns(),
                    gdisk
                );
                self.write_log(&line);
            }
            return;
        }
        let batch = REBUILD_BATCH_BLOCKS.min(self.bpd - cursor) as u32;
        if let Some(f) = self.fault.as_mut() {
            let af = &mut f.arr[a];
            af.rebuild_cursor += batch as u64;
            af.step_started = now;
            af.batch_blocks = batch as u64;
        }
        // Collect the peer blocks disk-major so `push_merged` coalesces
        // each peer's contribution into one contiguous run per disk (it
        // only merges against the last run pushed).
        let mut pairs: Vec<(u32, u64)> = Vec::new();
        for b in cursor..cursor + batch as u64 {
            pairs.extend(self.planner.peers_of(local, b));
        }
        pairs.sort_unstable();
        // A reconstruction source carrying a latent error makes its stripe
        // unreconstructable: that block is lost beyond redundancy. Counted
        // as data loss; the sweep continues so the rest of the disk is
        // still re-protected, and timing is unchanged (the peer read
        // happens either way — only its contents were bad).
        let mut lost = 0u64;
        if let Some(f) = self.fault.as_mut() {
            for &(disk, block) in &pairs {
                let pg = (array * self.dpa + disk) as usize;
                if f.latent[pg].remove(&block) {
                    lost += 1;
                }
            }
        }
        if lost > 0 {
            self.note_data_loss(array, lost, now);
        }
        let mut runs: Vec<Run> = Vec::new();
        for (disk, block) in pairs {
            crate::mapping::push_merged(&mut runs, 0, disk, block);
        }
        // Write targets: one run onto the hot spare, or the batch's blocks
        // spread over the survivors' spare areas.
        let mut write_runs: Vec<Run> = Vec::new();
        match sparing {
            SparingMode::Hot => write_runs.push(Run {
                disk: local,
                block: cursor,
                nblocks: batch,
            }),
            SparingMode::Distributed => {
                for b in cursor..cursor + batch as u64 {
                    let disk = crate::mapping::distributed_spare_target(self.dpa, local, b);
                    crate::mapping::push_merged(&mut write_runs, 0, disk, b);
                }
            }
        }
        if let Some(f) = self.fault.as_mut() {
            f.arr[a].batch_writes_left = write_runs.len() as u32;
        }
        let mut wts: Vec<u32> = Vec::with_capacity(write_runs.len());
        for run in &write_runs {
            let wt = self.new_op(DiskOp {
                role: OpRole::RebuildWrite,
                req: None,
                job: None,
                dgroup: None,
                gdisk: self.gdisk(array, run.disk),
                block: run.block,
                nblocks: run.nblocks,
                kind: AccessKind::Write,
                band: Band::Background,
                feeds: false,
                read_end: SimTime::ZERO,
                transfer_ns: 0,
                attempts: 0,
                marks: OpMarks::default(),
            });
            wts.push(wt);
        }
        if runs.is_empty() {
            // Unprotected blocks (e.g. the Parity Striping tail sliver):
            // the spare target is simply formatted through them.
            for wt in wts {
                self.enqueue_op(wt);
            }
            return;
        }
        let job = self.jobs.insert(ParityJob {
            data_not_started: runs.len() as u32,
            ready: SimTime::ZERO,
            pending_parity: wts.clone(),
            rule: EnqueueRule::AtReady,
            refs: runs.len() as u32 + wts.len() as u32,
        });
        for &wt in &wts {
            self.ops.get_mut(wt).job = Some(job);
        }
        for run in runs {
            let t = self.new_op(DiskOp {
                role: OpRole::RebuildRead,
                req: None,
                job: Some(job),
                dgroup: None,
                gdisk: self.gdisk(array, run.disk),
                block: run.block,
                nblocks: run.nblocks,
                kind: AccessKind::Read,
                band: Band::Background,
                feeds: true,
                read_end: SimTime::ZERO,
                transfer_ns: 0,
                attempts: 0,
                marks: OpMarks::default(),
            });
            self.enqueue_op(t);
        }
    }

    /// A rebuild batch write finished: count it, and when the whole batch
    /// is on stable storage schedule the next batch, no earlier than the
    /// rate throttle allows.
    pub(super) fn on_rebuild_batch_done(&mut self, op: &DiskOp) {
        let now = self.engine.now();
        let array = op.gdisk / self.dpa;
        let a = array as usize;
        let (rate, step_started, epoch, batch_blocks) = match self.fault.as_mut() {
            Some(f) => {
                f.rebuild_blocks += op.nblocks as u64;
                let af = &mut f.arr[a];
                af.batch_writes_left = af.batch_writes_left.saturating_sub(1);
                if af.batch_writes_left > 0 || !af.rebuild_active {
                    return; // batch still in flight, or rebuild abandoned
                }
                let (started, epoch, blocks) = (af.step_started, af.epoch, af.batch_blocks);
                (f.fcfg.rebuild_rate_mbps, started, epoch, blocks)
            }
            None => return,
        };
        let batch_bytes = batch_blocks * self.block_bytes;
        // rate MB/s ⇒ the batch may not complete faster than
        // bytes·1000/rate nanoseconds after its dispatch.
        // rate == 0 means unthrottled: the next batch may start now.
        let next_at = match (batch_bytes * 1_000).checked_div(rate) {
            None => now,
            Some(d) => (step_started + d).max(now),
        };
        self.engine
            .schedule_at(next_at, Ev::RebuildStep { array, epoch });
    }

    /// Verify the next batch of `array`'s scrub sweep: one background read
    /// on the current (disk, cursor), skipping failed slots. Discovery and
    /// repair happen when the read completes.
    pub(super) fn on_scrub_step(&mut self, array: u32) {
        let now = self.engine.now();
        let a = array as usize;
        let bpd = self.bpd;
        let dpa = self.dpa;
        let failed = self.failed_local[a];
        let mut finished = false;
        let step = match self.fault.as_mut() {
            Some(f) if f.fcfg.scrub_rate_mbps > 0 && !f.scrub[a].done => {
                let s = &mut f.scrub[a];
                // Skip the failed slot: its contents are gone (the rebuild,
                // not the scrub, re-protects them).
                while s.disk < dpa && failed == Some(s.disk) {
                    s.disk += 1;
                    s.cursor = 0;
                }
                if s.disk >= dpa {
                    s.done = true;
                    finished = true;
                    None
                } else {
                    let disk = s.disk;
                    let cursor = s.cursor;
                    let batch = REBUILD_BATCH_BLOCKS.min(bpd - cursor) as u32;
                    s.cursor += batch as u64;
                    s.step_started = now;
                    if s.cursor >= bpd {
                        s.disk += 1;
                        s.cursor = 0;
                    }
                    Some((disk, cursor, batch))
                }
            }
            _ => return,
        };
        if finished && self.event_log.is_some() {
            let line = format!(
                "{{\"t\":{},\"ev\":\"scrub_done\",\"array\":{}}}",
                now.as_ns(),
                array
            );
            self.write_log(&line);
        }
        let Some((disk, cursor, batch)) = step else {
            return;
        };
        let t = self.new_op(DiskOp {
            role: OpRole::ScrubRead,
            req: None,
            job: None,
            dgroup: None,
            gdisk: self.gdisk(array, disk),
            block: cursor,
            nblocks: batch,
            kind: AccessKind::Read,
            band: Band::Background,
            feeds: false,
            read_end: SimTime::ZERO,
            transfer_ns: 0,
            attempts: 0,
            marks: OpMarks::default(),
        });
        self.enqueue_op(t);
    }

    /// A scrub batch read finished: every block in its range is now
    /// verified. Marred blocks are discovered here — repaired from
    /// redundancy when the array is healthy, or accounted as data loss when
    /// the redundancy is already spent covering a failed disk. Then the
    /// sweep's next batch is scheduled, throttled to the scrub rate.
    pub(super) fn on_scrub_read_done(&mut self, op: &DiskOp) {
        let now = self.engine.now();
        let gdisk = op.gdisk;
        let array = gdisk / self.dpa;
        let a = array as usize;
        let local = gdisk % self.dpa;
        let (marred, rate, step_started) = match self.fault.as_mut() {
            Some(f) => {
                f.scrub_blocks += op.nblocks as u64;
                let lo = op.block;
                let hi = op.block + op.nblocks as u64;
                let marred: Vec<u64> = f.latent[gdisk as usize].range(lo..hi).copied().collect();
                for b in &marred {
                    f.latent[gdisk as usize].remove(b);
                }
                (marred, f.fcfg.scrub_rate_mbps, f.scrub[a].step_started)
            }
            None => return,
        };
        if !marred.is_empty() {
            if self.failed_local[a].is_some() || self.dataloss[a] {
                // The redundancy that would repair these blocks is already
                // reconstructing the failed disk: a marred survivor block
                // has no second source — lost.
                self.note_data_loss(array, marred.len() as u64, now);
            } else {
                self.spawn_scrub_repair(array, local, &marred, now);
            }
        }
        let batch_bytes = op.nblocks as u64 * self.block_bytes;
        let next_at = match (batch_bytes * 1_000).checked_div(rate) {
            None => now,
            Some(d) => (step_started + d).max(now),
        };
        self.engine.schedule_at(next_at, Ev::ScrubStep { array });
    }

    /// Repair scrub-discovered latent errors on `local`: read every peer of
    /// each marred block (background band), XOR-reconstruct, and rewrite
    /// the block in place — the same job shape as a rebuild batch. Marred
    /// blocks in unprotected regions (no peers) are lost.
    fn spawn_scrub_repair(&mut self, array: u32, local: u32, marred: &[u64], now: SimTime) {
        let mut pairs: Vec<(u32, u64)> = Vec::new();
        let mut repair_runs: Vec<Run> = Vec::new();
        let mut lost = 0u64;
        for &b in marred {
            let peers = self.planner.peers_of(local, b);
            if peers.is_empty() {
                lost += 1; // e.g. the Parity Striping tail sliver
                continue;
            }
            pairs.extend(peers);
            crate::mapping::push_merged(&mut repair_runs, 0, local, b);
        }
        if lost > 0 {
            self.note_data_loss(array, lost, now);
        }
        if repair_runs.is_empty() {
            return;
        }
        if let Some(f) = self.fault.as_mut() {
            f.latent_repaired += repair_runs.iter().map(|r| r.nblocks as u64).sum::<u64>();
        }
        pairs.sort_unstable();
        let mut runs: Vec<Run> = Vec::new();
        for (disk, block) in pairs {
            crate::mapping::push_merged(&mut runs, 0, disk, block);
        }
        let mut wts: Vec<u32> = Vec::with_capacity(repair_runs.len());
        for run in &repair_runs {
            let wt = self.new_op(DiskOp {
                role: OpRole::ScrubRepair,
                req: None,
                job: None,
                dgroup: None,
                gdisk: self.gdisk(array, run.disk),
                block: run.block,
                nblocks: run.nblocks,
                kind: AccessKind::Write,
                band: Band::Background,
                feeds: false,
                read_end: SimTime::ZERO,
                transfer_ns: 0,
                attempts: 0,
                marks: OpMarks::default(),
            });
            wts.push(wt);
        }
        let job = self.jobs.insert(ParityJob {
            data_not_started: runs.len() as u32,
            ready: SimTime::ZERO,
            pending_parity: wts.clone(),
            rule: EnqueueRule::AtReady,
            refs: runs.len() as u32 + wts.len() as u32,
        });
        for &wt in &wts {
            self.ops.get_mut(wt).job = Some(job);
        }
        for run in runs {
            let t = self.new_op(DiskOp {
                role: OpRole::RebuildRead,
                job: Some(job),
                req: None,
                dgroup: None,
                gdisk: self.gdisk(array, run.disk),
                block: run.block,
                nblocks: run.nblocks,
                kind: AccessKind::Read,
                band: Band::Background,
                feeds: true,
                read_end: SimTime::ZERO,
                transfer_ns: 0,
                attempts: 0,
                marks: OpMarks::default(),
            });
            self.enqueue_op(t);
        }
        let _ = now;
    }

    /// NVRAM battery failure: cached contents are no longer safe across a
    /// power loss, so the controller flushes everything dirty and serves
    /// writes in write-through mode until the battery is restored.
    pub(super) fn on_battery_fail(&mut self) {
        let now = self.engine.now();
        match self.fault.as_mut() {
            Some(f) if !f.battery_out => {
                f.battery_out = true;
                f.battery_fail_at = now;
            }
            _ => return,
        }
        for a in 0..self.arrays {
            if self.caches.is_empty() {
                break;
            }
            self.destage(a);
            if self.parity_cached {
                self.try_drain_spool(a);
            }
        }
    }

    pub(super) fn on_battery_restore(&mut self) {
        let now = self.engine.now();
        if let Some(f) = self.fault.as_mut() {
            if f.battery_out {
                f.battery_out = false;
                f.battery_window_ns += now - f.battery_fail_at;
            }
        }
    }

    /// Whether the NVRAM battery is currently failed (write-through mode).
    pub(super) fn battery_out(&self) -> bool {
        self.fault.as_ref().is_some_and(|f| f.battery_out)
    }

    pub(super) fn note_write_through(&mut self) {
        if let Some(f) = self.fault.as_mut() {
            f.writes_written_through += 1;
        }
    }
}
