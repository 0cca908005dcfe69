//! Logical→physical address mapping for every organization.
//!
//! The trace addresses a *logical database*: `n_logical` disks of
//! `blocks_per_disk` 4 KB blocks. Logical disks are grouped `N` per array;
//! within an array a request is a run of consecutive blocks at a *logical
//! array address* `laddr ∈ [0, N·blocks_per_disk)`. Each mapping turns such
//! runs into per-physical-disk runs, and for writes produces a plan of the
//! data, extra-read, and parity accesses each touched stripe needs. Both
//! are appended to buffers the caller owns and reuses (`read_runs_into`,
//! `write_plan_into` into a [`PlanBuf`]); `read_runs` and `write_plan`
//! return owned copies for callers outside the simulator.

mod degraded;
mod parstrip;
mod raid;
mod simple;

pub(crate) use degraded::distributed_spare_target;
pub use parstrip::ParStripMap;
pub use raid::RaidMap;
pub use simple::{BaseMap, MirrorMap};

use crate::config::Organization;
use std::cell::RefCell;
use std::ops::Range;

/// A run of consecutive physical blocks on one disk of the array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// Physical disk index within the array.
    pub disk: u32,
    /// First physical block on that disk.
    pub block: u64,
    pub nblocks: u32,
}

/// How a stripe's worth of a write is carried out (Section 2.1 / 3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StripeMode {
    /// Every data block of the stripe is written: parity is computed from
    /// the new data and written outright; nothing is read.
    Full,
    /// More than half the stripe is written: read the *remaining* units,
    /// compute parity from new data + read data, write data and parity
    /// (no read-modify-write rotations).
    Reconstruct,
    /// Less than half: read-modify-write — data disks pre-read old data,
    /// the parity disk pre-reads old parity; both pay the extra rotation.
    Rmw,
}

/// One stripe's (or parity row group's) share of a write request, as an
/// owned value (see [`PlanBuf`] for the flat form the simulator plans into).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StripeWrite {
    pub mode: StripeMode,
    /// New-data runs (RMW runs pre-read old data in `Rmw` mode).
    pub data: Vec<Run>,
    /// `Reconstruct` only: other units' blocks to read first.
    pub extra_reads: Vec<Run>,
    /// Parity runs to update.
    pub parity: Vec<Run>,
}

/// Decomposition of a whole write request, as an owned value.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WritePlan {
    pub stripes: Vec<StripeWrite>,
}

/// One stripe's share of a flat write plan: its mode, and where its runs
/// lie in the plan's run buffer — data, then extra reads, then parity,
/// back to back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StripeSpan {
    pub mode: StripeMode,
    start: u32,
    extra: u32,
    parity: u32,
    end: u32,
}

impl StripeSpan {
    /// New-data runs (RMW runs pre-read old data in `Rmw` mode).
    pub fn data(&self) -> Range<usize> {
        self.start as usize..self.extra as usize
    }
    /// `Reconstruct` only: other units' blocks to read first.
    pub fn extra_reads(&self) -> Range<usize> {
        self.extra as usize..self.parity as usize
    }
    /// Parity runs to update.
    pub fn parity(&self) -> Range<usize> {
        self.parity as usize..self.end as usize
    }
}

/// How far a [`PlanBuf`] was filled: a caller marks it before planning and
/// truncates back to the mark when done with the plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanMark {
    pub runs: usize,
    pub stripes: usize,
}

/// Write plans in two flat buffers a caller owns and reuses: every
/// stripe's runs in `runs`, and per stripe a [`StripeSpan`] into them.
/// Planners only append, so one buffer can hold a plan made while another
/// is still being carried out, as long as each caller truncates back to
/// its own mark.
#[derive(Clone, Debug, Default)]
pub struct PlanBuf {
    pub runs: Vec<Run>,
    pub stripes: Vec<StripeSpan>,
}

impl PlanBuf {
    pub fn mark(&self) -> PlanMark {
        PlanMark {
            runs: self.runs.len(),
            stripes: self.stripes.len(),
        }
    }

    pub fn truncate(&mut self, mark: PlanMark) {
        self.runs.truncate(mark.runs);
        self.stripes.truncate(mark.stripes);
    }

    /// Close a stripe whose data runs start at `start`, extra reads at
    /// `extra` and parity runs at `parity`; its parity runs end here.
    pub(crate) fn push_stripe(
        &mut self,
        mode: StripeMode,
        start: usize,
        extra: usize,
        parity: usize,
    ) {
        let end = self.runs.len();
        debug_assert!(start <= extra && extra <= parity && parity <= end);
        self.stripes.push(StripeSpan {
            mode,
            start: start as u32,
            extra: extra as u32,
            parity: parity as u32,
            end: end as u32,
        });
    }

    /// The buffer's plan as an owned [`WritePlan`].
    pub fn to_write_plan(&self) -> WritePlan {
        WritePlan {
            stripes: self
                .stripes
                .iter()
                .map(|s| StripeWrite {
                    mode: s.mode,
                    data: self.runs[s.data()].to_vec(),
                    extra_reads: self.runs[s.extra_reads()].to_vec(),
                    parity: self.runs[s.parity()].to_vec(),
                })
                .collect(),
        }
    }
}

/// Append `(disk, block)` to `runs`, merging with the last run when it
/// belongs to the section that starts at `from` and is physically
/// consecutive on the same disk.
pub(crate) fn push_merged(runs: &mut Vec<Run>, from: usize, disk: u32, block: u64) {
    if runs.len() > from {
        if let Some(last) = runs.last_mut() {
            if last.disk == disk && last.block + last.nblocks as u64 == block {
                last.nblocks += 1;
                return;
            }
        }
    }
    runs.push(Run {
        disk,
        block,
        nblocks: 1,
    });
}

/// Organization-polymorphic mapping.
#[derive(Clone, Debug)]
pub enum OrgMap {
    Base(BaseMap),
    Mirror(MirrorMap),
    Raid(RaidMap),
    ParStrip(ParStripMap),
}

impl OrgMap {
    /// Build the mapping for `org` with `n` logical disks per array of
    /// `blocks_per_disk` blocks each.
    pub fn new(org: Organization, n: u32, blocks_per_disk: u64) -> OrgMap {
        match org {
            Organization::Base => OrgMap::Base(BaseMap::new(n, blocks_per_disk)),
            Organization::Mirror => OrgMap::Mirror(MirrorMap::new(n, blocks_per_disk)),
            Organization::Raid5 { striping_unit } => {
                OrgMap::Raid(RaidMap::new(n, blocks_per_disk, striping_unit, true))
            }
            Organization::Raid4 { striping_unit } => {
                OrgMap::Raid(RaidMap::new(n, blocks_per_disk, striping_unit, false))
            }
            Organization::ParityStriping { placement } => {
                OrgMap::ParStrip(ParStripMap::new(n, blocks_per_disk, placement))
            }
        }
    }

    /// Physical disks per array.
    pub fn disks_per_array(&self) -> u32 {
        match self {
            OrgMap::Base(m) => m.n,
            OrgMap::Mirror(m) => 2 * m.n,
            OrgMap::Raid(m) => m.n + 1,
            OrgMap::ParStrip(m) => m.n + 1,
        }
    }

    /// Physical runs a read of `[laddr, laddr + n)` touches (primary copy
    /// for mirrors; the simulator picks the replica per run).
    pub fn read_runs(&self, laddr: u64, n: u32) -> Vec<Run> {
        // Most reads map to one run, a striped one to a few.
        let mut runs = Vec::with_capacity(2);
        self.read_runs_into(laddr, n, &mut runs);
        runs
    }

    /// [`OrgMap::read_runs`], appended to `runs`.
    pub fn read_runs_into(&self, laddr: u64, n: u32, runs: &mut Vec<Run>) {
        match self {
            OrgMap::Base(m) => m.runs_into(laddr, n, runs),
            OrgMap::Mirror(m) => m.runs_into(laddr, n, runs),
            OrgMap::Raid(m) => m.data_runs_into(laddr, n, runs),
            OrgMap::ParStrip(m) => m.data_runs_into(laddr, n, runs),
        }
    }

    /// Decompose a write of `[laddr, laddr + n)`.
    pub fn write_plan(&self, laddr: u64, n: u32) -> WritePlan {
        thread_local! {
            /// The wrapper plans into a reused buffer, so it allocates only
            /// the owned plan it returns.
            static PLAN: RefCell<PlanBuf> = RefCell::new(PlanBuf::default());
        }
        PLAN.with_borrow_mut(|plan| {
            plan.truncate(PlanMark::default());
            self.write_plan_into(laddr, n, plan);
            plan.to_write_plan()
        })
    }

    /// [`OrgMap::write_plan`], appended to `plan`.
    pub fn write_plan_into(&self, laddr: u64, n: u32, plan: &mut PlanBuf) {
        match self {
            OrgMap::Base(m) => {
                // Plain writes: no parity work.
                let start = plan.runs.len();
                m.runs_into(laddr, n, &mut plan.runs);
                let end = plan.runs.len();
                plan.push_stripe(StripeMode::Full, start, end, end);
            }
            OrgMap::Mirror(m) => {
                // Both copies are written; the simulator completes the
                // request at the max of the two.
                let start = plan.runs.len();
                m.runs_into(laddr, n, &mut plan.runs);
                for i in start..plan.runs.len() {
                    let copy = m.mirror_of(plan.runs[i]);
                    plan.runs.push(copy);
                }
                let end = plan.runs.len();
                plan.push_stripe(StripeMode::Full, start, end, end);
            }
            OrgMap::Raid(m) => m.write_plan_into(laddr, n, plan),
            OrgMap::ParStrip(m) => m.write_plan_into(laddr, n, plan),
        }
    }

    /// The mirror copy of a physical run (mirror organization only).
    pub fn mirror_of(&self, run: Run) -> Option<Run> {
        match self {
            OrgMap::Mirror(m) => Some(m.mirror_of(run)),
            _ => None,
        }
    }

    /// Logical array addresses usable by the trace (Parity Striping rounds
    /// areas down; addresses past this are wrapped by the simulator).
    pub fn logical_capacity(&self) -> u64 {
        match self {
            OrgMap::Base(m) => m.n as u64 * m.blocks_per_disk,
            OrgMap::Mirror(m) => m.n as u64 * m.blocks_per_disk,
            OrgMap::Raid(m) => m.logical_capacity(),
            OrgMap::ParStrip(m) => m.logical_capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParityPlacement;

    #[test]
    fn push_merged_coalesces_consecutive() {
        let mut runs = Vec::new();
        push_merged(&mut runs, 0, 0, 10);
        push_merged(&mut runs, 0, 0, 11);
        push_merged(&mut runs, 0, 0, 13); // gap
        push_merged(&mut runs, 0, 1, 14); // other disk
        push_merged(&mut runs, 3, 1, 15); // consecutive, but a new section
        assert_eq!(
            runs,
            vec![
                Run {
                    disk: 0,
                    block: 10,
                    nblocks: 2
                },
                Run {
                    disk: 0,
                    block: 13,
                    nblocks: 1
                },
                Run {
                    disk: 1,
                    block: 14,
                    nblocks: 1
                },
                Run {
                    disk: 1,
                    block: 15,
                    nblocks: 1
                },
            ]
        );
    }

    #[test]
    fn orgmap_disks_per_array() {
        let bpd = 1800;
        assert_eq!(
            OrgMap::new(Organization::Base, 10, bpd).disks_per_array(),
            10
        );
        assert_eq!(
            OrgMap::new(Organization::Mirror, 10, bpd).disks_per_array(),
            20
        );
        assert_eq!(
            OrgMap::new(Organization::Raid5 { striping_unit: 1 }, 10, bpd).disks_per_array(),
            11
        );
        assert_eq!(
            OrgMap::new(
                Organization::ParityStriping {
                    placement: ParityPlacement::End
                },
                10,
                bpd
            )
            .disks_per_array(),
            11
        );
    }

    #[test]
    fn mirror_write_plan_covers_both_copies() {
        let m = OrgMap::new(Organization::Mirror, 4, 1000);
        let plan = m.write_plan(2500, 2);
        assert_eq!(plan.stripes.len(), 1);
        let s = &plan.stripes[0];
        assert_eq!(s.data.len(), 2);
        assert_eq!(
            s.data[0],
            Run {
                disk: 4,
                block: 500,
                nblocks: 2
            }
        );
        assert_eq!(
            s.data[1],
            Run {
                disk: 5,
                block: 500,
                nblocks: 2
            }
        );
        assert!(s.parity.is_empty());
    }

    #[test]
    fn base_write_plan_has_no_parity() {
        let m = OrgMap::new(Organization::Base, 4, 1000);
        let plan = m.write_plan(0, 3);
        assert_eq!(
            plan.stripes[0].data,
            vec![Run {
                disk: 0,
                block: 0,
                nblocks: 3
            }]
        );
        assert!(plan.stripes[0].parity.is_empty());
        assert_eq!(plan.stripes[0].mode, StripeMode::Full);
    }
}

#[cfg(test)]
mod capacity_tests {
    use super::*;
    use crate::config::{Organization, ParityPlacement};

    #[test]
    fn raid_capacity_truncates_to_whole_stripes() {
        // 226800 % 13 != 0: the tail sliver is unused.
        let m = OrgMap::new(Organization::Raid5 { striping_unit: 13 }, 10, 226_800);
        let stripes = 226_800 / 13;
        assert_eq!(m.logical_capacity(), 10 * stripes * 13);
        assert!(m.logical_capacity() < 10 * 226_800);
        // The last mappable address stays within the disk.
        let runs = m.read_runs(m.logical_capacity() - 1, 1);
        assert!(runs[0].block < 226_800);
    }

    #[test]
    fn parstrip_capacity_truncates_to_whole_areas() {
        let m = OrgMap::new(
            Organization::ParityStriping {
                placement: ParityPlacement::Middle,
            },
            10,
            226_800,
        );
        // 226800 / 11 = 20618 blocks per area (2 blocks unused per disk).
        assert_eq!(m.logical_capacity(), 11 * 10 * 20_618);
    }

    #[test]
    fn base_and_mirror_use_full_capacity() {
        assert_eq!(
            OrgMap::new(Organization::Base, 10, 226_800).logical_capacity(),
            2_268_000
        );
        assert_eq!(
            OrgMap::new(Organization::Mirror, 10, 226_800).logical_capacity(),
            2_268_000
        );
    }
}
