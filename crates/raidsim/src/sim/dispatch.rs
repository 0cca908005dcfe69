//! Dispatch layer: per-drive queues and service.
//!
//! Owns the [`DiskScheduler`] seam: every drive has one
//! [`SchedulerQueue`] running the configured [`Discipline`]. Enqueueing
//! records the op's target cylinder; popping passes the drive's current
//! arm position so position-aware disciplines (SSTF, SCAN) can order
//! service. FCFS — the paper's discipline and the default — ignores both
//! and reproduces the original three-band FIFO byte-for-byte.
//!
//! Also owns service start/completion: media-timing commitment, parity-job
//! feeding, the RMW turnaround hold (Section 3.3), transient-error retry
//! and escalation, and per-role completion bookkeeping. Scheduler
//! statistics (per-band queue depth at each dispatch decision, arm travel
//! per dispatched op) are pure observation and never touch timing; they
//! are collected only when the report attaches them.

use super::*;

impl<'t> Simulator<'t> {
    #[inline]
    pub(super) fn gdisk(&self, array: u32, disk_in_array: u32) -> u32 {
        array * self.dpa + disk_in_array
    }

    pub(super) fn new_op(&mut self, op: DiskOp) -> u32 {
        self.ops.insert(op)
    }

    pub(super) fn enqueue_op(&mut self, token: u32) {
        let now = self.engine.now();
        let t = token as usize;
        let (gdisk, band, role, block) = (
            self.ops.gdisk[t],
            self.ops.band[t],
            self.ops.role[t],
            self.ops.block[t],
        );
        let g = gdisk as usize;
        // Background-busy snapshot, credited with the *remaining* time of a
        // background op currently in service so the interference window
        // counts only overlap with [enqueue, start].
        let snap = self.bg_busy_cum[g] - self.bg_until[g].saturating_since(now);
        self.ops.marks[t].enqueue = now;
        self.ops.marks[t].bg_snap = snap;
        // A disk that failed after this op was planned cannot serve it:
        // abort and (for reads of lost data) re-plan through the degraded
        // path. This catches stragglers staged before the failure — boxed
        // Issue events, gated parity ops, delayed retries. Rebuild writes
        // are exempt: they target the hot spare occupying the failed slot.
        if self.is_failed(gdisk) && role != OpRole::RebuildWrite {
            self.abort_op(token, false);
            return;
        }
        let cyl = self.disks[g].cylinder_of(block);
        self.queues[g].push(band, token, cyl);
        self.try_start(gdisk);
    }

    pub(super) fn try_start(&mut self, gdisk: u32) {
        let g = gdisk as usize;
        if self.in_service[g].is_some() || self.queues[g].is_empty() {
            return;
        }
        // Queue depths at the dispatch decision, the op about to be served
        // included.
        if self.sched_stats {
            for band in Band::ALL {
                let d = self.queues[g].band_len(band) as f64;
                self.sched_qdepth[band.index()].push(d);
            }
        }
        let arm = self.disks[g].current_cylinder();
        let Some((_, token)) = self.queues[g].pop(arm) else {
            return;
        };
        self.start_op(gdisk, token);
    }

    fn start_op(&mut self, gdisk: u32, token: u32) {
        let now = self.engine.now();
        let t = token as usize;
        let (block, nblocks, kind, job, feeds, band, role) = (
            self.ops.block[t],
            self.ops.nblocks[t],
            self.ops.kind[t],
            self.ops.job[t],
            self.ops.feeds[t],
            self.ops.band[t],
            self.ops.role[t],
        );
        if self.sched_stats {
            let seek_cyl = self.disks[gdisk as usize].arm_distance(block) as f64;
            self.sched_seek_cyl.push(seek_cyl);
        }
        let timing = self.disks[gdisk as usize].plan(now, block, nblocks, kind);
        self.disk_counts.add(gdisk as usize, 1);
        self.disk_ops += 1;
        self.ops.read_end[t] = timing.read_end;
        self.ops.transfer_ns[t] = timing.transfer_ns;
        self.ops.marks[t].start = now;
        self.ops.marks[t].seek_ns = timing.seek_ns;
        self.ops.marks[t].latency_ns = timing.latency_ns;
        if self.event_log.is_some() {
            let line = format!(
                "{{\"t\":{},\"ev\":\"dispatch\",\"disk\":{},\"role\":\"{:?}\",\"band\":\"{:?}\",\"block\":{},\"nblocks\":{},\"seek_ns\":{},\"rotation_ns\":{},\"transfer_ns\":{}}}",
                now.as_ns(),
                gdisk,
                role,
                band,
                block,
                nblocks,
                timing.seek_ns,
                timing.latency_ns,
                timing.transfer_ns
            );
            self.write_log(&line);
        }

        // Feeder ops report their read-completion to the parity job the
        // moment service starts (the timing is deterministic from here).
        if feeds {
            if let Some(j) = job {
                self.feed_job(j, timing.read_end);
            }
        }

        // Parity RMW ops whose readiness is already known can commit their
        // final completion outright.
        let complete = if kind == AccessKind::RmwParityRead {
            match job {
                Some(j) if self.jobs.data_not_started[j as usize] > 0 => timing.complete,
                Some(j) => rmw_write_complete(
                    timing.read_end,
                    timing.transfer_ns,
                    self.rot_ns,
                    self.jobs.ready[j as usize],
                ),
                None => timing.complete, // ready immediately: read_end + rot
            }
        } else {
            timing.complete
        };
        self.disks[gdisk as usize].commit(&timing, complete);
        if band == Band::Background {
            // Destage/spool work holds the disk for [now, complete); host
            // ops queued behind it attribute that overlap to interference.
            self.bg_busy_cum[gdisk as usize] += complete - now;
            self.bg_until[gdisk as usize] = complete;
        }
        self.in_service[gdisk as usize] = Some(token);
        let ev = self
            .engine
            .schedule_at(complete, Ev::DiskDone { gdisk, op: token });
        self.service_ev[gdisk as usize] = Some(ev);
    }

    /// A feeder (data RMW / reconstruct read) started service: update the
    /// job's ready time and release parity ops per the synchronization rule.
    pub(super) fn feed_job(&mut self, job: u32, read_end: SimTime) {
        let j = job as usize;
        self.jobs.ready[j] = self.jobs.ready[j].max(read_end);
        self.jobs.data_not_started[j] -= 1;
        self.jobs.refs[j] -= 1;
        let mut release = Vec::new();
        if self.jobs.data_not_started[j] == 0 {
            match self.jobs.rule[j] {
                EnqueueRule::AlreadyIssued => {}
                EnqueueRule::AtReady => {
                    if !self.jobs.pending_parity[j].is_empty() {
                        let ready = self.jobs.ready[j];
                        self.engine.schedule_at(ready, Ev::EnqueueParity(job));
                    }
                }
                EnqueueRule::AtAllStarted => {
                    release = std::mem::take(&mut self.jobs.pending_parity[j]);
                }
            }
        }
        // Settle this feeder's reference before releasing the parity ops:
        // an op enqueued on a failed disk aborts on the spot and drops its
        // own reference, which may be the job's last.
        self.maybe_free_job(job);
        for t in release {
            self.enqueue_op(t);
        }
    }

    pub(super) fn maybe_free_job(&mut self, job: u32) {
        if self.jobs.refs[job as usize] == 0 {
            debug_assert!(self.jobs.pending_parity[job as usize].is_empty());
            self.jobs.remove(job);
        }
    }

    pub(super) fn on_disk_done(&mut self, gdisk: u32, token: u32) {
        let now = self.engine.now();
        // Parity RMWs may need to hold the disk for more rotations if the
        // new parity was not ready when the head came back (Section 3.3).
        if self.ops.kind[token as usize] == AccessKind::RmwParityRead {
            let t = token as usize;
            let (read_end, transfer_ns, job) = (
                self.ops.read_end[t],
                self.ops.transfer_ns[t],
                self.ops.job[t],
            );
            let hold_until = match job {
                Some(j) if self.jobs.data_not_started[j as usize] > 0 => Some(now + self.rot_ns),
                Some(j) => {
                    let actual = rmw_write_complete(
                        read_end,
                        transfer_ns,
                        self.rot_ns,
                        self.jobs.ready[j as usize],
                    );
                    (actual > now).then_some(actual)
                }
                None => None,
            };
            if let Some(until) = hold_until {
                self.disks[gdisk as usize].extend_busy(until);
                if self.ops.band[t] == Band::Background {
                    self.bg_busy_cum[gdisk as usize] += until - now;
                    self.bg_until[gdisk as usize] = until;
                }
                let ev = self
                    .engine
                    .schedule_at(until, Ev::DiskDone { gdisk, op: token });
                self.service_ev[gdisk as usize] = Some(ev);
                return;
            }
        }

        // Transient media errors: the completed service may turn out to have
        // failed. The controller re-drives the op after an exponential
        // backoff; when the retry budget runs out the error escalates to a
        // permanent disk failure (survivable only with redundancy). Feeder
        // ops are exempt — they reported their read-completion to the parity
        // job at dispatch and cannot be un-fed.
        let transient_p = self
            .fault
            .as_ref()
            .map_or(0.0, |f| f.fcfg.transient_error_prob);
        if transient_p > 0.0 && !self.ops.feeds[token as usize] {
            let erred = self
                .fault
                .as_mut()
                .is_some_and(|f| f.rngs[gdisk as usize].chance(transient_p));
            if erred {
                self.ops.attempts[token as usize] += 1;
                let attempts = self.ops.attempts[token as usize];
                let policy = self.fault.as_ref().map_or(RetryPolicy::new(0, 0), |f| {
                    RetryPolicy::new(f.fcfg.retry_backoff_us * 1_000, f.fcfg.max_retries)
                });
                if let Some(f) = self.fault.as_mut() {
                    f.transient_errors += 1;
                }
                if policy.retries_left(attempts) {
                    if let Some(f) = self.fault.as_mut() {
                        f.retries += 1;
                    }
                    self.in_service[gdisk as usize] = None;
                    self.service_ev[gdisk as usize] = None;
                    self.try_start(gdisk);
                    self.engine
                        .schedule_after(policy.backoff_ns(attempts), Ev::Issue([token].into()));
                    return;
                }
                if self.planner.has_redundancy() && self.fully_healthy() {
                    if let Some(f) = self.fault.as_mut() {
                        f.escalations += 1;
                    }
                    self.service_ev[gdisk as usize] = None;
                    self.on_disk_fail(gdisk);
                    return;
                }
                // No redundancy left to escalate into: deliver the data
                // anyway so the run can complete (heroic recovery).
            }
        }

        let op = self.ops.remove(token);
        self.in_service[gdisk as usize] = None;
        self.service_ev[gdisk as usize] = None;
        if self.event_log.is_some() {
            let line = format!(
                "{{\"t\":{},\"ev\":\"complete\",\"disk\":{},\"role\":\"{:?}\",\"block\":{},\"nblocks\":{}}}",
                now.as_ns(),
                gdisk,
                op.role,
                op.block,
                op.nblocks
            );
            self.write_log(&line);
        }

        match op.role {
            OpRole::HostRead => {
                // Disk → track buffer done; now the channel transfer to the
                // host.
                let tr = self.channels[(gdisk / self.dpa) as usize]
                    .request(now, op.nblocks as u64 * self.block_bytes);
                let phase = self.op_phase(&op, now, tr.end);
                self.request_part_done(op.req_id(), tr.end, phase);
            }
            OpRole::HostWrite | OpRole::RmwData => {
                let phase = self.op_phase(&op, now, now);
                self.request_part_done(op.req_id(), now, phase);
            }
            OpRole::ParityRmw | OpRole::ParityWrite => {
                if let Some(req) = op.req {
                    let phase = self.op_phase(&op, now, now);
                    self.request_part_done(req, now, phase);
                }
                if let Some(j) = op.job {
                    self.jobs.refs[j as usize] -= 1;
                    self.maybe_free_job(j);
                }
            }
            OpRole::ExtraRead => {
                if let Some(req) = op.req {
                    let phase = self.op_phase(&op, now, now);
                    self.request_part_done(req, now, phase);
                }
                // Job bookkeeping happened at start.
            }
            OpRole::CacheFetch | OpRole::ReconstructRead => {
                let phase = self.op_phase(&op, now, now);
                self.request_part_done(op.req_id(), now, phase);
            }
            OpRole::Writeback => {
                if let Some(req) = op.req {
                    let phase = self.op_phase(&op, now, now);
                    self.request_part_done(req, now, phase);
                }
            }
            OpRole::DestageData => {
                #[expect(
                    clippy::expect_used,
                    reason = "destage ops are created from a destage group; absence is a cache-scheduler bug worth a loud stop"
                )]
                let dg = op.dgroup.expect("destage op lost its group");
                self.dgroups.get_mut(dg).remaining -= 1;
                if self.dgroups.get(dg).remaining == 0 {
                    let dj = self.dgroups.remove(dg);
                    let array = (gdisk / self.dpa) as usize;
                    self.caches[array].destage_complete(&dj.group);
                }
            }
            OpRole::DestageParity => {
                if let Some(j) = op.job {
                    self.jobs.refs[j as usize] -= 1;
                    self.maybe_free_job(j);
                }
            }
            OpRole::SpoolDrain => {
                let array = (gdisk / self.dpa) as usize;
                self.caches[array].release_slots(op.nblocks as usize);
            }
            OpRole::RebuildRead => {
                // Fed its rebuild job at dispatch; nothing further.
            }
            OpRole::RebuildWrite => {
                if let Some(j) = op.job {
                    self.jobs.refs[j as usize] -= 1;
                    self.maybe_free_job(j);
                }
                self.on_rebuild_batch_done(&op);
            }
            OpRole::ScrubRead => {
                self.on_scrub_read_done(&op);
            }
            OpRole::ScrubRepair => {
                if let Some(j) = op.job {
                    self.jobs.refs[j as usize] -= 1;
                    self.maybe_free_job(j);
                }
            }
        }

        self.try_start(gdisk);
        if op.role == OpRole::SpoolDrain {
            self.try_drain_spool(gdisk / self.dpa);
        }
    }
}
