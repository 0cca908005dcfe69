//! Cached-controller request handling: LRU cache front-end, synchronous
//! writebacks, the periodic destage process, and RAID4 parity spooling.

use super::planning::OrgPlanner;
use super::{DestageJob, DiskOp, EnqueueRule, Ev, OpMarks, OpRole, ParityJob, Simulator, WriteOps};
use crate::mapping::StripeMode;
use diskmodel::{AccessKind, Band, DiskScheduler};
use nvcache::{BlockKey, DestageGroup, DirtyEviction};
use simkit::SimTime;
use tracegen::TraceRecord;

impl<'t> Simulator<'t> {
    fn laddr_of_key(&self, key: BlockKey) -> u64 {
        ((key.disk % self.n) as u64 * self.bpd + key.block) % self.planner.logical_capacity()
    }

    pub(super) fn cached_read(&mut self, req: u32, rec: &TraceRecord, array: u32, _laddr: u64) {
        let a = array as usize;
        self.cache_missing.clear();
        let hit = self.caches[a].read_probe_into(
            BlockKey::range(rec.disk, rec.block, rec.nblocks),
            &mut self.cache_missing,
        );
        let now = self.engine.now();
        let bytes = rec.nblocks as u64 * self.block_bytes;

        if hit {
            // Read hit: response is just the channel wait + transfer.
            let tr = self.channels[a].request(now, bytes);
            self.note_channel_finish(req, tr.end);
            return;
        }

        // Fetch missing blocks; the host transfer runs after the last one
        // lands ("on a read miss the block is fetched from disk").
        self.reqs.get_mut(req).tail_channel_bytes = bytes;
        let evictions = self.evictions.len();
        for &key in &self.cache_missing {
            self.caches[a].fetch_into(key, &mut self.evictions);
        }
        // Merge consecutive missing blocks into fetch runs.
        let runs = self.plan.runs.len();
        let mut seg_start = 0;
        for i in 0..self.cache_missing.len() {
            let key = self.cache_missing[i];
            let split = self
                .cache_missing
                .get(i + 1)
                .is_none_or(|next| next.block != key.block + 1 || next.disk != key.disk);
            if split {
                let laddr = self.laddr_of_key(self.cache_missing[seg_start]);
                let nblocks = (i - seg_start + 1) as u32;
                self.plan_read(array, laddr, nblocks);
                seg_start = i + 1;
            }
        }
        for j in runs..self.plan.runs.len() {
            let run = self.choose_replica(array, self.plan.runs[j]);
            let t = self.new_op(DiskOp {
                role: OpRole::CacheFetch,
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
        self.plan.runs.truncate(runs);
        self.write_back_evictions(Some(req), array, evictions);
    }

    pub(super) fn cached_write(&mut self, req: u32, rec: &TraceRecord, array: u32, laddr: u64) {
        let a = array as usize;
        let keys = BlockKey::range(rec.disk, rec.block, rec.nblocks);
        let evictions = self.evictions.len();
        if self.battery_out() {
            // NVRAM battery failed: the cache cannot hold dirty data, so the
            // write goes straight to disk (blocks cached clean) and the
            // request waits for the media like a non-cached write.
            self.caches[a].write_through_into(keys, &mut self.evictions);
            let now = self.engine.now();
            let tr = self.channels[a].request(now, rec.nblocks as u64 * self.block_bytes);
            self.reqs.get_mut(req).stage_end = tr.end;
            let tokens = self.tokens.len();
            self.build_write_ops(WriteOps {
                req: Some(req),
                array,
                laddr,
                n: rec.nblocks,
                band: Band::Normal,
                data_role: OpRole::HostWrite,
                old_known: false,
                spool: false,
            });
            let immediate = self.tokens[tokens..].into();
            self.tokens.truncate(tokens);
            self.note_channel_finish(req, tr.end);
            self.engine.schedule_at(tr.end, Ev::Issue(immediate));
            self.write_back_evictions(Some(req), array, evictions);
            self.note_write_through();
            return;
        }
        let keep_old = self.cfg.organization.has_parity();
        self.caches[a].write_into(keys, keep_old, &mut self.evictions);
        let now = self.engine.now();
        let tr = self.channels[a].request(now, rec.nblocks as u64 * self.block_bytes);
        self.note_channel_finish(req, tr.end);
        self.write_back_evictions(Some(req), array, evictions);
    }

    /// Write back the dirty evictions from `self.evictions[from..]`, then
    /// truncate them away (see `build_write_ops` on re-entrancy).
    fn write_back_evictions(&mut self, req: Option<u32>, array: u32, from: usize) {
        for i in from..self.evictions.len() {
            let ev = self.evictions[i];
            self.issue_writeback(req, array, ev);
        }
        self.evictions.truncate(from);
    }

    /// Synchronously write back an evicted dirty block (the evicting miss
    /// waits for it when `req` is set). In parity organizations the parity
    /// must be updated too; the cached old data, when present, saves the
    /// data-disk pre-read. RAID4 routes the parity update through the
    /// spool.
    pub(super) fn issue_writeback(&mut self, req: Option<u32>, array: u32, ev: DirtyEviction) {
        let laddr = self.laddr_of_key(ev.key);
        let spool = self.parity_cached;
        let tokens = self.tokens.len();
        self.build_write_ops(WriteOps {
            req,
            array,
            laddr,
            n: 1,
            band: Band::Normal,
            data_role: OpRole::Writeback,
            old_known: ev.had_old,
            spool,
        });
        self.enqueue_tokens(tokens);
        if spool {
            self.try_drain_spool(array);
        }
    }

    /// Enqueue the tokens of `self.tokens[from..]`, then truncate them away.
    pub(super) fn enqueue_tokens(&mut self, from: usize) {
        for i in from..self.tokens.len() {
            let t = self.tokens[i];
            self.enqueue_op(t);
        }
        self.tokens.truncate(from);
    }

    /// Buffer one parity-block update in the RAID4 spool, reserving a cache
    /// slot when it does not merge. Falls back to a direct parity-disk RMW
    /// when the cache cannot yield a slot (and counts the stall).
    pub(super) fn spool_parity(&mut self, array: u32, pblock: u64, full: bool, req: Option<u32>) {
        let a = array as usize;
        if self.spools[a].contains(pblock) {
            self.spools[a].add(pblock, full);
            return;
        }
        let evictions = self.evictions.len();
        if self.caches[a].reserve_slots_into(1, &mut self.evictions) {
            self.spools[a].add(pblock, full);
            self.write_back_evictions(None, array, evictions);
            return;
        }
        // Spool occupies the whole cache: service the parity update
        // directly from disk (Section 3.4's overflow behavior).
        self.spool_stalls += 1;
        let pdisk = self.n; // RAID4 parity disk
        if let Some(q) = req {
            self.reqs.get_mut(q).pending += 1;
        }
        let t = self.new_op(DiskOp {
            role: OpRole::ParityRmw,
            req,
            job: None,
            dgroup: None,
            gdisk: self.gdisk(array, pdisk),
            block: pblock,
            nblocks: 1,
            kind: if full {
                AccessKind::Write
            } else {
                AccessKind::RmwParityRead
            },
            band: Band::Normal,
            feeds: false,
            read_end: SimTime::ZERO,
            transfer_ns: 0,
            attempts: 0,
            marks: OpMarks::default(),
        });
        self.enqueue_op(t);
    }

    // ------------------------------------------------------------------
    // destage
    // ------------------------------------------------------------------

    pub(super) fn on_destage_tick(&mut self, array: u32) {
        let a = array as usize;
        self.destage(array);
        if self.parity_cached {
            self.try_drain_spool(array);
        }

        // Keep ticking while there is anything left to clean.
        let work_left = self.arrivals_remaining()
            || self.inflight > 0
            || self.caches[a].dirty_count() > 0
            || self.spools.get(a).is_some_and(|s| !s.is_empty());
        if work_left {
            self.engine
                .schedule_after(self.destage_period_ns, Ev::DestageTick { array });
        }
        // Partition mode: `inflight` above counts only this partition's
        // requests, so the local chain may end while the serial chain (which
        // sees global in-flight work) would keep ticking. Journal the
        // decision; the merge extends the chain virtually when needed.
        if let Some(p) = self.par.as_deref_mut() {
            p.note.tick_resched = Some(work_left);
        }
    }

    /// Collect `array`'s destageable blocks and issue each group.
    pub(super) fn destage(&mut self, array: u32) {
        let from = self.destage_groups.len();
        self.caches[array as usize].collect_destage_into(&mut self.destage_groups);
        for i in from..self.destage_groups.len() {
            let group = self.destage_groups[i];
            self.issue_destage_group(array, group);
        }
        self.destage_groups.truncate(from);
    }

    pub(super) fn issue_destage_group(&mut self, array: u32, group: DestageGroup) {
        let a = array as usize;
        let laddr = self.laddr_of_key(BlockKey::new(group.disk, group.block));
        let mark = self.plan.mark();
        self.plan_write(array, laddr, group.nblocks);
        let stripes = mark.stripes..self.plan.stripes.len();
        let has_parity = self.cfg.organization.has_parity();

        // RAID4: reserve spool slots for every new parity block up front;
        // defer the whole group if the cache cannot hold them.
        if self.parity_cached {
            let mut new_blocks = 0usize;
            for stripe in &self.plan.stripes[stripes.clone()] {
                for p in &self.plan.runs[stripe.parity()] {
                    for b in 0..p.nblocks as u64 {
                        if !self.spools[a].contains(p.block + b) {
                            new_blocks += 1;
                        }
                    }
                }
            }
            let evictions = self.evictions.len();
            if !self.caches[a].reserve_slots_into(new_blocks, &mut self.evictions) {
                self.spool_stalls += 1;
                self.caches[a].destage_abort(&group);
                self.plan.truncate(mark);
                return;
            }
            for stripe in &self.plan.stripes[stripes.clone()] {
                // Full-stripe *and* reconstruct writes compute the actual
                // parity, writable without the old-parity pre-read.
                let full = stripe.mode != StripeMode::Rmw;
                for p in &self.plan.runs[stripe.parity()] {
                    for b in 0..p.nblocks as u64 {
                        self.spools[a].add(p.block + b, full);
                    }
                }
            }
            self.write_back_evictions(None, array, evictions);
        }

        let data_ops: u32 = self.plan.stripes[stripes.clone()]
            .iter()
            .map(|s| s.data().len() as u32)
            .sum();
        if data_ops == 0 {
            // Degraded mode: every dirty block of the group lived on the
            // failed disk. The parity/reconstruct work still runs below,
            // but there is no data write to wait for — settle the cache
            // now so the destage loop terminates.
            self.caches[a].destage_complete(&group);
        }
        let dg = (data_ops > 0).then(|| {
            self.dgroups.insert(DestageJob {
                group,
                remaining: data_ops,
            })
        });

        for si in stripes {
            let stripe = self.plan.stripes[si];
            let (data, extra_reads, parity) =
                (stripe.data(), stripe.extra_reads(), stripe.parity());
            let rmw_needed = has_parity && !self.parity_cached && stripe.mode != StripeMode::Full;
            // A job couples background parity RMWs to their feeder reads.
            let feeders = if stripe.mode == StripeMode::Reconstruct {
                extra_reads.len()
            } else if !group.has_old {
                data.len()
            } else {
                0
            };
            let job = (rmw_needed && feeders > 0).then(|| {
                self.jobs.insert(ParityJob {
                    data_not_started: feeders as u32,
                    ready: SimTime::ZERO,
                    pending_parity: Vec::new(),
                    rule: EnqueueRule::AtReady,
                    refs: (feeders + parity.len()) as u32,
                })
            });

            let feeder_tokens = self.tokens.len();
            if stripe.mode == StripeMode::Reconstruct && has_parity && !self.parity_cached {
                for j in extra_reads {
                    let r = self.plan.runs[j];
                    let t = self.new_op(DiskOp {
                        role: OpRole::ExtraRead,
                        req: None,
                        job,
                        dgroup: None,
                        gdisk: self.gdisk(array, r.disk),
                        block: r.block,
                        nblocks: r.nblocks,
                        kind: AccessKind::Read,
                        band: Band::Background,
                        feeds: true,
                        read_end: SimTime::ZERO,
                        transfer_ns: 0,
                        attempts: 0,
                        marks: OpMarks::default(),
                    });
                    self.tokens.push(t);
                }
            }

            // Data writes: plain when the old contents are cached or no
            // parity RMW is needed; pre-reading otherwise.
            let data_kind = if rmw_needed && stripe.mode == StripeMode::Rmw && !group.has_old {
                AccessKind::RmwData
            } else {
                AccessKind::Write
            };
            // RAID4 without cached old data must still pre-read to form the
            // spool delta.
            let data_kind =
                if self.parity_cached && !group.has_old && stripe.mode == StripeMode::Rmw {
                    AccessKind::RmwData
                } else {
                    data_kind
                };
            let is_feeder = data_kind == AccessKind::RmwData && !self.parity_cached;
            for j in data {
                let r = self.plan.runs[j];
                let t = self.new_op(DiskOp {
                    role: OpRole::DestageData,
                    req: None,
                    job: if is_feeder { job } else { None },
                    dgroup: dg,
                    gdisk: self.gdisk(array, r.disk),
                    block: r.block,
                    nblocks: r.nblocks,
                    kind: data_kind,
                    band: Band::Background,
                    feeds: is_feeder && job.is_some(),
                    read_end: SimTime::ZERO,
                    transfer_ns: 0,
                    attempts: 0,
                    marks: OpMarks::default(),
                });
                self.tokens.push(t);
            }

            if has_parity && !self.parity_cached {
                let kind = if stripe.mode == StripeMode::Rmw {
                    AccessKind::RmwParityRead
                } else {
                    AccessKind::Write
                };
                for j in parity {
                    let p = self.plan.runs[j];
                    let t = self.new_op(DiskOp {
                        role: OpRole::DestageParity,
                        req: None,
                        job,
                        dgroup: None,
                        gdisk: self.gdisk(array, p.disk),
                        block: p.block,
                        nblocks: p.nblocks,
                        kind,
                        band: Band::Background,
                        feeds: false,
                        read_end: SimTime::ZERO,
                        transfer_ns: 0,
                        attempts: 0,
                        marks: OpMarks::default(),
                    });
                    match job {
                        None => self.enqueue_op(t),
                        Some(j) => self.jobs.pending_parity[j as usize].push(t),
                    }
                }
            }
            // Enqueue feeders only after the parity ops are registered
            // (RAID4's parity went to the spool above).
            self.enqueue_tokens(feeder_tokens);
        }
        self.plan.truncate(mark);
    }

    /// Keep the RAID4 parity disk fed from the spool whenever it is idle.
    pub(super) fn try_drain_spool(&mut self, array: u32) {
        if !self.parity_cached {
            return;
        }
        let a = array as usize;
        let pdisk = self.gdisk(array, self.n);
        if self.in_service[pdisk as usize].is_some()
            || !self.queues[pdisk as usize].is_empty()
            || self.spools[a].is_empty()
        {
            return;
        }
        // Two tracks' worth per sweep step keeps individual ops short.
        let Some(run) = self.spools[a].pop_run(12) else {
            return;
        };
        let t = self.new_op(DiskOp {
            role: OpRole::SpoolDrain,
            req: None,
            job: None,
            dgroup: None,
            gdisk: pdisk,
            block: run.block,
            nblocks: run.nblocks,
            kind: if run.full {
                AccessKind::Write
            } else {
                AccessKind::RmwParityRead
            },
            band: Band::Background,
            feeds: false,
            read_end: SimTime::ZERO,
            transfer_ns: 0,
            attempts: 0,
            marks: OpMarks::default(),
        });
        self.enqueue_op(t);
    }
}
