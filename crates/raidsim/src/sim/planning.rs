//! Planning layer: organization-specific request decomposition.
//!
//! One [`OrgPlanner`] per organization turns logical addresses into
//! per-disk operations — healthy and degraded reads, write plans, mirror
//! and parity-peer lookups — backed by the organization's
//! [`OrgMap`], plus the two policy questions the simulator used to answer
//! by matching on [`Organization`] inline:
//!
//! * [`OrgPlanner::has_redundancy`] — whether an exhausted retry budget can
//!   escalate to a survivable disk failure (everything but `Base`).
//! * [`OrgPlanner::caches_parity`] — whether an NV cache lets the
//!   controller buffer parity updates in a spool instead of updating the
//!   parity disk inline (RAID4's dedicated parity disk only, Section 4.2).
//!
//! [`Planner`] is the concrete dispatcher: one variant per organization,
//! chosen once at construction through [`PLANNER_REGISTRY`] — a constructor
//! table keyed by the organization's stable label, so every caller (the
//! single-array simulator and each fleet virtual array alike) instantiates
//! planners uniformly and adding an organization means adding one registry
//! row. This module holds no `Organization::` dispatch match at all;
//! simlint's `scheduler-seam` rule now rejects one here exactly as it does
//! everywhere outside `config.rs`, `report.rs`, and `mapping/`.

use super::*;
use crate::mapping::PlanBuf;

/// Read/write/degraded planning for one organization.
pub(super) trait OrgPlanner {
    /// The organization's address map.
    fn map(&self) -> &OrgMap;

    /// Whether the organization survives a disk loss: gates the escalation
    /// of an exhausted retry budget into a permanent failure.
    fn has_redundancy(&self) -> bool;

    /// Whether, given an NV cache, parity updates are buffered in a spool
    /// instead of hitting the parity disk inline.
    fn caches_parity(&self, cache_present: bool) -> bool {
        let _ = cache_present;
        false
    }

    // Delegations to the map, so call sites need only the planner.
    fn disks_per_array(&self) -> u32 {
        self.map().disks_per_array()
    }
    fn logical_capacity(&self) -> u64 {
        self.map().logical_capacity()
    }
    fn read_runs_into(&self, laddr: u64, n: u32, runs: &mut Vec<Run>) {
        self.map().read_runs_into(laddr, n, runs)
    }
    fn degraded_read_runs_into(
        &self,
        laddr: u64,
        n: u32,
        failed_disk: u32,
        runs: &mut Vec<Run>,
    ) -> usize {
        self.map()
            .degraded_read_runs_into(laddr, n, failed_disk, runs)
    }
    fn write_plan_into(&self, laddr: u64, n: u32, plan: &mut PlanBuf) {
        self.map().write_plan_into(laddr, n, plan)
    }
    fn degraded_write_plan_into(&self, laddr: u64, n: u32, failed_disk: u32, plan: &mut PlanBuf) {
        self.map()
            .degraded_write_plan_into(laddr, n, failed_disk, plan)
    }
    fn mirror_of(&self, run: Run) -> Option<Run> {
        self.map().mirror_of(run)
    }
    fn peers_of(&self, failed_disk: u32, block: u64) -> Vec<(u32, u64)> {
        self.map().peers_of(failed_disk, block)
    }
}

pub(super) struct BasePlanner {
    map: OrgMap,
}

impl OrgPlanner for BasePlanner {
    fn map(&self) -> &OrgMap {
        &self.map
    }
    fn has_redundancy(&self) -> bool {
        false
    }
}

pub(super) struct MirrorPlanner {
    map: OrgMap,
}

impl OrgPlanner for MirrorPlanner {
    fn map(&self) -> &OrgMap {
        &self.map
    }
    fn has_redundancy(&self) -> bool {
        true
    }
}

pub(super) struct Raid5Planner {
    map: OrgMap,
}

impl OrgPlanner for Raid5Planner {
    fn map(&self) -> &OrgMap {
        &self.map
    }
    fn has_redundancy(&self) -> bool {
        true
    }
}

pub(super) struct Raid4Planner {
    map: OrgMap,
}

impl OrgPlanner for Raid4Planner {
    fn map(&self) -> &OrgMap {
        &self.map
    }
    fn has_redundancy(&self) -> bool {
        true
    }
    /// The dedicated parity disk is RAID4's bottleneck; with an NV cache
    /// the controller absorbs parity updates into a spool and drains them
    /// as background elevator sweeps (Section 4.2).
    fn caches_parity(&self, cache_present: bool) -> bool {
        cache_present
    }
}

pub(super) struct ParStripPlanner {
    map: OrgMap,
}

impl OrgPlanner for ParStripPlanner {
    fn map(&self) -> &OrgMap {
        &self.map
    }
    fn has_redundancy(&self) -> bool {
        true
    }
}

/// The configured organization's planner, chosen once at construction.
/// Enum dispatch keeps planning monomorphic (no vtable in the hot path)
/// and the simulator free of `dyn`.
pub(super) enum Planner {
    Base(BasePlanner),
    Mirror(MirrorPlanner),
    Raid5(Raid5Planner),
    Raid4(Raid4Planner),
    ParStrip(ParStripPlanner),
}

macro_rules! each_planner {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            Planner::Base($p) => $body,
            Planner::Mirror($p) => $body,
            Planner::Raid5($p) => $body,
            Planner::Raid4($p) => $body,
            Planner::ParStrip($p) => $body,
        }
    };
}

/// One planner constructor, taking the already-built address map.
type PlannerCtor = fn(OrgMap) -> Planner;

/// The constructor table: organization label → planner constructor. The
/// label comes from `Organization::label()` (config's own description of
/// the variant), so this file never matches on the enum itself — lookup is
/// data-driven and uniform for every caller, including fleet virtual
/// arrays that mix organizations within one run.
pub(super) const PLANNER_REGISTRY: &[(&str, PlannerCtor)] = &[
    ("Base", |map| Planner::Base(BasePlanner { map })),
    ("Mirror", |map| Planner::Mirror(MirrorPlanner { map })),
    ("RAID5", |map| Planner::Raid5(Raid5Planner { map })),
    ("RAID4", |map| Planner::Raid4(Raid4Planner { map })),
    ("ParStrip", |map| Planner::ParStrip(ParStripPlanner { map })),
];

impl Planner {
    pub(super) fn new(org: Organization, n: u32, blocks_per_disk: u64) -> Result<Planner, String> {
        let label = org.label();
        let Some((_, ctor)) = PLANNER_REGISTRY.iter().find(|(l, _)| *l == label) else {
            return Err(format!("no planner registered for organization {label}"));
        };
        Ok(ctor(OrgMap::new(org, n, blocks_per_disk)))
    }
}

impl OrgPlanner for Planner {
    fn map(&self) -> &OrgMap {
        each_planner!(self, p => p.map())
    }
    fn has_redundancy(&self) -> bool {
        each_planner!(self, p => p.has_redundancy())
    }
    fn caches_parity(&self, cache_present: bool) -> bool {
        each_planner!(self, p => p.caches_parity(cache_present))
    }
}

impl<'t> Simulator<'t> {
    /// The failed disk's index within `array`, if one is currently failed.
    #[inline]
    pub(super) fn failed_in(&self, array: u32) -> Option<u32> {
        self.failed_local[array as usize]
    }

    /// Append the organization-appropriate write plan to `self.plan`,
    /// accounting for a failed disk in this array.
    pub(super) fn plan_write(&mut self, array: u32, laddr: u64, n: u32) {
        match self.failed_in(array) {
            Some(f) => self
                .planner
                .degraded_write_plan_into(laddr, n, f, &mut self.plan),
            None => self.planner.write_plan_into(laddr, n, &mut self.plan),
        }
    }

    /// Append the physical runs of a read to `self.plan.runs`: the
    /// organization's runs, or under a failed disk the surviving direct
    /// runs followed by the peer runs that reconstruct the lost blocks.
    /// Returns where the reconstruct runs start.
    pub(super) fn plan_read(&mut self, array: u32, laddr: u64, n: u32) -> usize {
        match self.failed_in(array) {
            Some(f) => self
                .planner
                .degraded_read_runs_into(laddr, n, f, &mut self.plan.runs),
            None => {
                self.planner.read_runs_into(laddr, n, &mut self.plan.runs);
                self.plan.runs.len()
            }
        }
    }

    /// For mirrors, send a read to the pair member with the shorter queue,
    /// breaking ties by arm distance ("shortest seek optimization") then
    /// disk id.
    pub(super) fn choose_replica(&self, array: u32, run: Run) -> Run {
        let Some(alt) = self.planner.mirror_of(run) else {
            return run;
        };
        // A failed pair member is never selected.
        if self.failed_in(array) == Some(run.disk) {
            return alt;
        }
        if self.failed_in(array) == Some(alt.disk) {
            return run;
        }
        let load = |r: &Run| {
            let g = self.gdisk(array, r.disk) as usize;
            (
                self.queues[g].foreground_len() + self.in_service[g].is_some() as usize,
                self.disks[g].arm_distance(r.block),
                r.disk,
            )
        };
        if load(&alt) < load(&run) {
            alt
        } else {
            run
        }
    }

    /// Create the disk ops (and parity jobs) for a write of
    /// `[laddr, laddr+n)` under the organization's (possibly degraded)
    /// plan, and append the immediately issuable tokens to `self.tokens` —
    /// parity ops gated by a synchronization rule are issued later by their
    /// job.
    ///
    /// Re-entrancy: under RAID4 parity caching, `spool_parity` may evict a
    /// dirty block whose writeback plans and builds a write of its own in
    /// the middle of this one. So every planning call appends to the
    /// simulator's scratch buffers (`plan`, `tokens`, `evictions`), reads
    /// its own entries back by index, and truncates to where it started:
    /// a nested call works past the outer call's entries and never
    /// overwrites them.
    pub(super) fn build_write_ops(&mut self, w: WriteOps) {
        let WriteOps {
            req,
            array,
            laddr,
            n,
            band,
            data_role,
            old_known,
            spool,
        } = w;
        let mark = self.plan.mark();
        self.plan_write(array, laddr, n);
        let parity_band = if band == Band::Normal && self.cfg.sync.has_priority() {
            Band::Priority
        } else {
            band
        };
        for si in mark.stripes..self.plan.stripes.len() {
            let stripe = self.plan.stripes[si];
            let (data, extra_reads, parity) =
                (stripe.data(), stripe.extra_reads(), stripe.parity());
            if spool && !parity.is_empty() {
                // RAID4 parity caching: buffer the update instead of
                // touching the parity disk. Full-stripe and reconstruct
                // writes hold real parity; RMW deltas still need the
                // old-parity pre-read at drain time.
                let full = stripe.mode != StripeMode::Rmw;
                for j in parity.clone() {
                    let p = self.plan.runs[j];
                    for b in 0..p.nblocks as u64 {
                        self.spool_parity(array, p.block + b, full, req);
                    }
                }
            }
            match stripe.mode {
                StripeMode::Full => {
                    for j in data {
                        let r = self.plan.runs[j];
                        let t =
                            self.data_op(req, array, &r, data_role, AccessKind::Write, band, None);
                        self.tokens.push(t);
                    }
                    if !spool {
                        for j in parity {
                            let p = self.plan.runs[j];
                            let t = self.data_op(
                                req,
                                array,
                                &p,
                                OpRole::ParityWrite,
                                AccessKind::Write,
                                parity_band,
                                None,
                            );
                            self.tokens.push(t);
                        }
                    }
                }
                StripeMode::Reconstruct => {
                    // Parity is recomputed from the surviving reads; when it
                    // is spooled (RAID4) or absent (degraded parity disk),
                    // the helper reads serve no one and are skipped.
                    let job = (!spool && !parity.is_empty()).then(|| {
                        self.jobs.insert(ParityJob {
                            data_not_started: extra_reads.len() as u32,
                            ready: SimTime::ZERO,
                            pending_parity: Vec::new(),
                            rule: EnqueueRule::AtReady,
                            refs: (extra_reads.len() + parity.len()) as u32,
                        })
                    });
                    if let Some(job) = job {
                        for j in parity {
                            let p = self.plan.runs[j];
                            let t = self.data_op(
                                req,
                                array,
                                &p,
                                OpRole::ParityWrite,
                                AccessKind::Write,
                                parity_band,
                                Some(job),
                            );
                            self.jobs.get_mut(job).pending_parity.push(t);
                        }
                        if extra_reads.is_empty() {
                            // Parity computable from new data alone.
                            let pending =
                                std::mem::take(&mut self.jobs.get_mut(job).pending_parity);
                            self.tokens.extend(pending);
                        }
                        for j in extra_reads {
                            let r = self.plan.runs[j];
                            let t = self.extra_read_op(array, &r, job, band);
                            self.tokens.push(t);
                        }
                    }
                    for j in data {
                        let r = self.plan.runs[j];
                        let t =
                            self.data_op(req, array, &r, data_role, AccessKind::Write, band, None);
                        self.tokens.push(t);
                    }
                }
                StripeMode::Rmw => {
                    let rule = match self.cfg.sync {
                        SyncPolicy::SimultaneousIssue => EnqueueRule::AlreadyIssued,
                        SyncPolicy::ReadFirst | SyncPolicy::ReadFirstPriority => {
                            EnqueueRule::AtReady
                        }
                        SyncPolicy::DiskFirst | SyncPolicy::DiskFirstPriority => {
                            EnqueueRule::AtAllStarted
                        }
                    };
                    // With the old data cached (writeback of a block whose
                    // old copy was retained) the parity delta is computable
                    // up front: data goes out as a plain write and the
                    // parity RMW needs no feeder. A spooled parity still
                    // wants the pre-read when the old data is unknown, to
                    // form the delta, but nothing waits on it.
                    let pre_read = !parity.is_empty() && !old_known;
                    let data_kind = if pre_read {
                        AccessKind::RmwData
                    } else {
                        AccessKind::Write
                    };
                    let needs_job = !spool && pre_read;
                    let job = needs_job.then(|| {
                        self.jobs.insert(ParityJob {
                            data_not_started: data.len() as u32,
                            ready: SimTime::ZERO,
                            pending_parity: Vec::new(),
                            rule,
                            refs: (data.len() + parity.len()) as u32,
                        })
                    });
                    let role = if job.is_some() {
                        OpRole::RmwData
                    } else {
                        data_role
                    };
                    for j in data {
                        let r = self.plan.runs[j];
                        let t = self.data_op(req, array, &r, role, data_kind, band, job);
                        self.tokens.push(t);
                    }
                    if spool {
                        continue;
                    }
                    for j in parity {
                        let p = self.plan.runs[j];
                        let t = self.data_op(
                            req,
                            array,
                            &p,
                            OpRole::ParityRmw,
                            AccessKind::RmwParityRead,
                            parity_band,
                            job,
                        );
                        match job {
                            Some(j) if rule != EnqueueRule::AlreadyIssued => {
                                self.jobs.get_mut(j).pending_parity.push(t)
                            }
                            // Ready immediately, or issued with the data.
                            _ => self.tokens.push(t),
                        }
                    }
                }
            }
        }
        self.plan.truncate(mark);
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "a plain op builder; a params struct would add noise"
    )]
    pub(super) fn data_op(
        &mut self,
        req: Option<u32>,
        array: u32,
        run: &Run,
        role: OpRole,
        kind: AccessKind,
        band: Band,
        job: Option<u32>,
    ) -> u32 {
        if let Some(q) = req {
            self.reqs.get_mut(q).pending += 1;
        }
        self.new_op(DiskOp {
            role,
            req,
            job,
            dgroup: None,
            gdisk: self.gdisk(array, run.disk),
            block: run.block,
            nblocks: run.nblocks,
            kind,
            band,
            feeds: kind == AccessKind::RmwData && job.is_some(),
            read_end: SimTime::ZERO,
            transfer_ns: 0,
            attempts: 0,
            marks: OpMarks::default(),
        })
    }

    /// Reconstruct helper read: feeds its parity job and never counts
    /// toward the request (the parity write it feeds always finishes
    /// later).
    pub(super) fn extra_read_op(&mut self, array: u32, run: &Run, job: u32, band: Band) -> u32 {
        self.new_op(DiskOp {
            role: OpRole::ExtraRead,
            req: None,
            job: Some(job),
            dgroup: None,
            gdisk: self.gdisk(array, run.disk),
            block: run.block,
            nblocks: run.nblocks,
            kind: AccessKind::Read,
            band,
            feeds: true,
            read_end: SimTime::ZERO,
            transfer_ns: 0,
            attempts: 0,
            marks: OpMarks::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParityPlacement;

    /// Every organization resolves to a registered constructor, and the
    /// constructed variant matches the label it was looked up by.
    #[test]
    fn registry_covers_every_organization() {
        let orgs = [
            Organization::Base,
            Organization::Mirror,
            Organization::Raid5 { striping_unit: 1 },
            Organization::Raid4 { striping_unit: 1 },
            Organization::ParityStriping {
                placement: ParityPlacement::Middle,
            },
        ];
        assert_eq!(PLANNER_REGISTRY.len(), orgs.len());
        for org in orgs {
            let p = Planner::new(org, 2, 1000).unwrap();
            let constructed = match p {
                Planner::Base(_) => "Base",
                Planner::Mirror(_) => "Mirror",
                Planner::Raid5(_) => "RAID5",
                Planner::Raid4(_) => "RAID4",
                Planner::ParStrip(_) => "ParStrip",
            };
            assert_eq!(constructed, org.label());
        }
    }

    /// Registry rows carry the labels config publishes, in a stable order.
    #[test]
    fn registry_keys_match_config_labels() {
        let keys: Vec<&str> = PLANNER_REGISTRY.iter().map(|(l, _)| *l).collect();
        assert_eq!(keys, ["Base", "Mirror", "RAID5", "RAID4", "ParStrip"]);
    }
}
