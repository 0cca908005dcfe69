//! Admission layer: trace feed and array admission control.
//!
//! Pulls records off the trace at their arrival times, runs track-buffer
//! admission control (non-cached controllers stage all data through the
//! buffer pool; a request that cannot acquire its buffers queues FIFO per
//! array), and decomposes each admitted record into disk operations via
//! the planning layer — directly for non-cached arrays, through the NV
//! cache (`cached.rs`) otherwise.

use super::*;

impl<'t> Simulator<'t> {
    pub(super) fn on_arrive(&mut self) {
        // The feed already advanced the clock to the record's arrival time
        // (`Simulator::next_step`); no chain of Arrive events exists, so a
        // partition consumes exactly its own pre-split records and never
        // sees a foreign arrival.
        let idx = self.pop_feed();
        let rec = self.trace.records[idx];
        let array = rec.disk / self.n;
        if let Some(p) = self.par.as_deref_mut() {
            p.note.is_arrive = true;
            debug_assert!(
                (p.lo..p.hi).contains(&array),
                "pre-split leaked a foreign arrival into this partition"
            );
        }

        if self.cfg.cache.is_none() {
            // Track-buffer admission control (non-cached controllers stage
            // all data through the buffer pool).
            let needed = rec.nblocks.min(self.buffers[array as usize].capacity());
            if !self.buffers[array as usize].try_acquire(needed) {
                self.buffer_waits += 1;
                self.admission_wait[array as usize].push_back((idx, needed));
                return;
            }
            self.process_record(idx, needed);
        } else {
            self.process_record(idx, 0);
        }
    }

    pub(super) fn process_record(&mut self, idx: usize, buffers_held: u32) {
        let rec = self.trace.records[idx];
        let rec = &rec;
        let array = rec.disk / self.n;
        let ldisk = rec.disk % self.n;
        let laddr = (ldisk as u64 * self.bpd + rec.block) % self.planner.logical_capacity();
        let now = self.engine.now();
        let serial = self.req_serial;
        self.req_serial += 1;
        let window = if self.dataloss[array as usize] {
            3
        } else {
            match self.failed_in(array) {
                None => 0,
                Some(_)
                    if self
                        .fault
                        .as_ref()
                        .is_some_and(|f| f.arr[array as usize].rebuild_active) =>
                {
                    2
                }
                Some(_) => 1,
            }
        };
        let class = self.classes.as_ref().map_or(0, |c| c.of_record[idx]);
        let req = self.reqs.insert(Request {
            arrive: rec.at,
            is_read: rec.kind == AccessType::Read,
            array,
            pending: 0,
            finish: rec.at,
            buffers_held,
            tail_channel_bytes: 0,
            serial,
            admit: now,
            stage_end: now,
            phase: PhaseSample::default(),
            window,
            class,
        });
        self.inflight += 1;
        if let Some(p) = self.par.as_deref_mut() {
            p.note.inflight_delta += 1;
        }
        if self.event_log.is_some() {
            let line = format!(
                "{{\"t\":{},\"ev\":\"arrive\",\"req\":{},\"read\":{},\"arrive_ns\":{},\"disk\":{},\"block\":{},\"nblocks\":{}}}",
                now.as_ns(),
                serial,
                rec.kind == AccessType::Read,
                rec.at.as_ns(),
                rec.disk,
                rec.block,
                rec.nblocks
            );
            self.write_log(&line);
        }

        if self.cfg.cache.is_some() {
            match rec.kind {
                AccessType::Read => self.cached_read(req, rec, array, laddr),
                AccessType::Write => self.cached_write(req, rec, array, laddr),
            }
        } else {
            match rec.kind {
                AccessType::Read => self.noncached_read(req, array, laddr, rec.nblocks),
                AccessType::Write => self.noncached_write(req, array, laddr, rec.nblocks),
            }
        }
        // A request with no pending parts (e.g. a pure cache hit) finishes
        // immediately.
        if self.reqs.get(req).pending == 0 {
            self.finalize_request(req);
        }
    }

    fn noncached_read(&mut self, req: u32, array: u32, laddr: u64, n: u32) {
        let runs = self.plan.runs.len();
        let reconstruct = self.plan_read(array, laddr, n);
        let end = self.plan.runs.len();
        // The reconstruction sources died with the second failure: the
        // blocks under the failed slot are gone. Count the lost read and
        // serve only the surviving runs — the request completes
        // degenerately (classified in the data-loss window), it does not
        // wedge.
        let lost = reconstruct < end && self.dataloss[array as usize];
        if lost {
            if let Some(fs) = self.fault.as_mut() {
                fs.lost_reads += 1;
            }
        }
        for j in runs..reconstruct {
            let run = self.choose_replica(array, self.plan.runs[j]);
            self.read_op(req, array, run, OpRole::HostRead);
        }
        if reconstruct < end && !lost {
            // The rebuilt blocks go to the host once every peer read lands.
            self.reqs.get_mut(req).tail_channel_bytes = n as u64 * self.block_bytes;
            for j in reconstruct..end {
                let run = self.plan.runs[j];
                self.read_op(req, array, run, OpRole::ReconstructRead);
            }
        }
        self.plan.runs.truncate(runs);
    }

    /// Enqueue a normal-band read on behalf of a request.
    pub(super) fn read_op(&mut self, req: u32, array: u32, run: Run, role: OpRole) {
        let t = self.new_op(DiskOp {
            role,
            req: Some(req),
            job: None,
            dgroup: None,
            gdisk: self.gdisk(array, run.disk),
            block: run.block,
            nblocks: run.nblocks,
            kind: AccessKind::Read,
            band: Band::Normal,
            feeds: false,
            read_end: SimTime::ZERO,
            transfer_ns: 0,
            attempts: 0,
            marks: OpMarks::default(),
        });
        self.reqs.get_mut(req).pending += 1;
        self.enqueue_op(t);
    }

    fn noncached_write(&mut self, req: u32, array: u32, laddr: u64, n: u32) {
        // Write data crosses the channel into the track buffers first; disk
        // operations are released when the staging transfer completes.
        let now = self.engine.now();
        let tr = self.channels[array as usize].request(now, n as u64 * self.block_bytes);
        self.reqs.get_mut(req).stage_end = tr.end;
        let tokens = self.tokens.len();
        self.build_write_ops(WriteOps {
            req: Some(req),
            array,
            laddr,
            n,
            band: Band::Normal,
            data_role: OpRole::HostWrite,
            old_known: false,
            spool: false,
        });
        let immediate = self.tokens[tokens..].into();
        self.tokens.truncate(tokens);
        self.note_channel_finish(req, tr.end);
        self.engine.schedule_at(tr.end, Ev::Issue(immediate));
    }

    /// A channel transfer directly bounds the request's completion (cache
    /// hits, write staging): account it as a candidate critical path whose
    /// time beyond admission is all channel.
    pub(super) fn note_channel_finish(&mut self, req: u32, end: SimTime) {
        let r = self.reqs.get_mut(req);
        if end >= r.finish {
            r.finish = end;
            r.phase = PhaseSample {
                admission_ns: r.admit - r.arrive,
                channel_ns: end - r.admit,
                ..PhaseSample::default()
            };
        }
    }

    /// Re-admit queued arrivals as buffers free up.
    pub(super) fn admit_waiters(&mut self, array: u32) {
        while let Some(&(idx, needed)) = self.admission_wait[array as usize].front() {
            if !self.buffers[array as usize].try_acquire(needed) {
                break;
            }
            self.admission_wait[array as usize].pop_front();
            self.process_record(idx, needed);
        }
    }
}
