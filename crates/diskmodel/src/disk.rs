//! Per-drive dynamic state and service-time computation.

use crate::geometry::{BlockNo, Cylinder, DiskGeometry};
use crate::seek::SeekCurve;
use serde::{Deserialize, Serialize};
use simkit::SimTime;
use std::sync::Arc;

/// How an operation uses the media.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessKind {
    /// Plain read: seek + rotational latency + transfer.
    Read,
    /// Plain write: seek + rotational latency + transfer.
    Write,
    /// Read-modify-write of the *data* blocks of an update in a parity
    /// organization: read the old data, hold the disk for one full rotation,
    /// write the new data in place. Completes exactly one rotation after the
    /// read ends.
    RmwData,
    /// Read phase of a *parity* update: read the old parity; the write fires
    /// at the first head-return after the new parity is computable. The
    /// completion time depends on the data disks and is resolved later with
    /// [`rmw_write_complete`].
    RmwParityRead,
}

/// Timing decomposition of one media access, all times absolute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessTiming {
    /// When the disk started servicing the operation.
    pub start: SimTime,
    /// Arm-move component, ns.
    pub seek_ns: u64,
    /// Rotational-latency component, ns.
    pub latency_ns: u64,
    /// Media transfer component, ns (old-data read for RMW kinds).
    pub transfer_ns: u64,
    /// End of the (first) media transfer: data available in the track buffer
    /// for reads; old data/parity read for RMW kinds.
    pub read_end: SimTime,
    /// When the disk becomes free. For `RmwParityRead` this is provisional
    /// (= earliest possible, one rotation after `read_end`) until resolved.
    pub complete: SimTime,
    /// Cylinder the arm rests on afterwards.
    pub end_cylinder: Cylinder,
}

/// Time from the end of an RMW read until the head is back over the start
/// of the run: the rotational remainder of the transfer. Zero when the
/// transfer is an exact number of revolutions.
#[inline]
pub fn rmw_turnaround_ns(transfer_ns: u64, rotation_ns: u64) -> u64 {
    (rotation_ns - transfer_ns % rotation_ns) % rotation_ns
}

/// Resolve the completion time of a parity read-modify-write whose new
/// contents become computable at `ready`.
///
/// After the old parity is read (ending at `read_end`, head just past the
/// run), the head returns to the run's start every rotation, first after
/// [`rmw_turnaround_ns`]. The write can start at the k-th return (k ≥ 0)
/// once `ready` has passed and occupies `transfer_ns`. Each missed
/// revolution — the paper's "another full rotation time will be spent" —
/// adds one `rot`.
#[inline]
pub fn rmw_write_complete(
    read_end: SimTime,
    transfer_ns: u64,
    rotation_ns: u64,
    ready: SimTime,
) -> SimTime {
    let first_start = read_end + rmw_turnaround_ns(transfer_ns, rotation_ns);
    let start = if ready <= first_start {
        first_start
    } else {
        let late = ready - first_start;
        first_start + late.div_ceil(rotation_ns) * rotation_ns
    };
    start + transfer_ns
}

/// Dynamic state of one drive: arm position, rotational phase, busy horizon
/// and utilization accounting.
///
/// The platter rotates continuously; the angular position at absolute time
/// `t` is `(t + phase) mod rotation`. Disks are not spindle-synchronized
/// (Section 3.2), so each drive carries its own phase offset.
#[derive(Clone, Debug)]
pub struct Disk {
    geom: DiskGeometry,
    /// `SeekCurve::seek_ns(d)` for every arm distance `d < cylinders`,
    /// shared by every drive built from this one with [`Disk::sibling`].
    seek_ns: Arc<[u64]>,
    // The geometry's derived constants, computed once instead of per access.
    rotation_ns: u64,
    block_transfer_ns: u64,
    blocks_per_cylinder: u64,
    blocks_per_track: u64,
    sectors_per_block: u64,
    sectors_per_track: u64,
    phase_ns: u64,
    cyl: Cylinder,
    busy_until: SimTime,
    // Accumulated statistics.
    busy_ns: u64,
    seek_ns_total: u64,
    latency_ns_total: u64,
    ops: u64,
}

impl Disk {
    /// Create a drive with the given rotational phase offset (use a value
    /// derived from the disk id / run seed; disks are not synchronized).
    pub fn new(geom: DiskGeometry, seek: SeekCurve, phase_ns: u64) -> Disk {
        let seek_ns = (0..geom.cylinders).map(|d| seek.seek_ns(d)).collect();
        let rotation_ns = geom.rotation_ns();
        Disk {
            seek_ns,
            rotation_ns,
            block_transfer_ns: geom.block_transfer_ns(),
            blocks_per_cylinder: geom.blocks_per_cylinder(),
            blocks_per_track: geom.blocks_per_track() as u64,
            sectors_per_block: geom.sectors_per_block() as u64,
            sectors_per_track: geom.sectors_per_track as u64,
            geom,
            phase_ns: phase_ns % rotation_ns,
            cyl: 0,
            busy_until: SimTime::ZERO,
            busy_ns: 0,
            seek_ns_total: 0,
            latency_ns_total: 0,
            ops: 0,
        }
    }

    /// A fresh drive of this one's model (geometry and seek curve) at
    /// another phase: what [`Disk::new`] would build, sharing this drive's
    /// seek table instead of filling another.
    pub fn sibling(&self, phase_ns: u64) -> Disk {
        Disk {
            phase_ns: phase_ns % self.rotation_ns,
            cyl: 0,
            busy_until: SimTime::ZERO,
            busy_ns: 0,
            seek_ns_total: 0,
            latency_ns_total: 0,
            ops: 0,
            ..self.clone()
        }
    }

    #[inline]
    pub fn geometry(&self) -> &DiskGeometry {
        &self.geom
    }

    #[inline]
    pub fn rotation_ns(&self) -> u64 {
        self.rotation_ns
    }

    #[inline]
    pub fn block_transfer_ns(&self) -> u64 {
        self.block_transfer_ns
    }

    #[inline]
    pub fn current_cylinder(&self) -> Cylinder {
        self.cyl
    }

    #[inline]
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Arm distance (in cylinders) to a block — used by the mirrored-read
    /// shortest-seek dispatch.
    #[inline]
    pub fn arm_distance(&self, block: BlockNo) -> u32 {
        self.cyl.abs_diff(self.cylinder_of(block))
    }

    /// [`DiskGeometry::cylinder_of`].
    #[inline]
    pub fn cylinder_of(&self, block: BlockNo) -> Cylinder {
        debug_assert!(block < self.geom.blocks_per_disk());
        (block / self.blocks_per_cylinder) as Cylinder
    }

    /// Rotational wait from absolute time `t` until the head is over the
    /// start of `sector`.
    #[inline]
    fn rotational_wait(&self, t: SimTime, sector: u64) -> u64 {
        let angle = (t.as_ns() + self.phase_ns) % self.rotation_ns;
        // `DiskGeometry::sectors_to_ns`; below one rotation, as is `angle`.
        let target = self.rotation_ns * sector / self.sectors_per_track;
        let wait = target + self.rotation_ns - angle;
        if wait >= self.rotation_ns {
            wait - self.rotation_ns
        } else {
            wait
        }
    }

    /// Compute the timing of an access to `nblocks` contiguous blocks
    /// starting at `block`, with service beginning at `start`. Pure: does
    /// not change disk state — call [`Disk::commit`] when the operation is
    /// actually dispatched.
    pub fn plan(
        &self,
        start: SimTime,
        block: BlockNo,
        nblocks: u32,
        kind: AccessKind,
    ) -> AccessTiming {
        debug_assert!(nblocks >= 1);
        debug_assert!(block + nblocks as u64 <= self.geom.blocks_per_disk());
        let target_cyl = block / self.blocks_per_cylinder;
        let in_cyl = block % self.blocks_per_cylinder;
        let seek_ns = self.seek_ns[self.cyl.abs_diff(target_cyl as Cylinder) as usize];
        let after_seek = start + seek_ns;
        // `DiskGeometry::start_sector_of`.
        let sector = in_cyl % self.blocks_per_track * self.sectors_per_block;
        let latency_ns = self.rotational_wait(after_seek, sector);
        let transfer_ns = self.block_transfer_ns * nblocks as u64;
        let read_end = after_seek + latency_ns + transfer_ns;
        let complete = match kind {
            AccessKind::Read | AccessKind::Write => read_end,
            // Write the same blocks after the head comes back around to the
            // run's start (one full rotation total for runs within a track).
            AccessKind::RmwData | AccessKind::RmwParityRead => {
                read_end + rmw_turnaround_ns(transfer_ns, self.rotation_ns) + transfer_ns
            }
        };
        AccessTiming {
            start,
            seek_ns,
            latency_ns,
            transfer_ns,
            read_end,
            complete,
            end_cylinder: if in_cyl + nblocks as u64 <= self.blocks_per_cylinder {
                target_cyl as Cylinder
            } else {
                self.cylinder_of(block + nblocks as u64 - 1)
            },
        }
    }

    /// Dispatch a planned operation: move the arm, mark the disk busy until
    /// `complete`, and accumulate utilization statistics. `complete` may be
    /// later than `timing.complete` (parity writes held for extra
    /// rotations).
    pub fn commit(&mut self, timing: &AccessTiming, complete: SimTime) {
        debug_assert!(complete >= timing.read_end);
        debug_assert!(timing.start >= self.busy_until, "disk double-booked");
        self.cyl = timing.end_cylinder;
        self.busy_until = complete;
        self.busy_ns += complete - timing.start;
        self.seek_ns_total += timing.seek_ns;
        self.latency_ns_total += timing.latency_ns;
        self.ops += 1;
    }

    /// Extend the busy horizon of the op currently in service (parity write
    /// held extra rotations beyond its provisional completion).
    pub fn extend_busy(&mut self, new_complete: SimTime) {
        debug_assert!(new_complete >= self.busy_until);
        self.busy_ns += new_complete - self.busy_until;
        self.busy_until = new_complete;
    }

    /// Total time the drive has spent servicing operations, ns.
    #[inline]
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Operations committed so far.
    #[inline]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Mean seek time per op, ms (0 if no ops).
    pub fn mean_seek_ms(&self) -> f64 {
        self.seek_ns_total
            .checked_div(self.ops)
            .map_or(0.0, simkit::time::ns_to_ms)
    }

    /// Utilization over an observation window of `elapsed_ns`.
    pub fn utilization(&self, elapsed_ns: u64) -> f64 {
        simkit::time::busy_fraction(self.busy_ns, elapsed_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn disk() -> Disk {
        Disk::new(DiskGeometry::default(), SeekCurve::table1(), 0)
    }

    const ROT: u64 = 11_111_111;
    const XFER: u64 = 1_851_851;

    #[test]
    fn read_at_cylinder_zero_sector_zero_no_seek() {
        let d = disk();
        // Phase 0, t=0: head is exactly over sector 0 of cylinder 0.
        let t = d.plan(SimTime::ZERO, 0, 1, AccessKind::Read);
        assert_eq!(t.seek_ns, 0);
        assert_eq!(t.latency_ns, 0);
        assert_eq!(t.transfer_ns, XFER);
        assert_eq!(t.complete, SimTime::from_ns(XFER));
        assert_eq!(t.end_cylinder, 0);
    }

    #[test]
    fn latency_wraps_after_missing_sector() {
        let d = disk();
        // Start 1ns after sector 0 passes: must wait nearly a full rotation.
        let t = d.plan(SimTime::from_ns(1), 0, 1, AccessKind::Read);
        assert_eq!(t.latency_ns, ROT - 1);
    }

    #[test]
    fn seek_to_far_cylinder_included() {
        let d = disk();
        let block = 180 * 100; // cylinder 100
        let t = d.plan(SimTime::ZERO, block, 1, AccessKind::Read);
        assert_eq!(t.seek_ns, SeekCurve::table1().seek_ns(100));
        assert_eq!(t.end_cylinder, 100);
    }

    #[test]
    fn multiblock_transfer_scales() {
        let d = disk();
        let t = d.plan(SimTime::ZERO, 0, 4, AccessKind::Read);
        assert_eq!(t.transfer_ns, 4 * XFER);
    }

    #[test]
    fn rmw_data_adds_exactly_one_rotation() {
        let d = disk();
        let t = d.plan(SimTime::ZERO, 0, 1, AccessKind::RmwData);
        assert_eq!(t.read_end, SimTime::from_ns(XFER));
        assert_eq!(t.complete, SimTime::from_ns(XFER + ROT));
    }

    #[test]
    fn rmw_write_complete_one_rotation_when_ready_early() {
        let read_end = SimTime::from_ms(20);
        // Data was ready before the parity read even finished.
        let c = rmw_write_complete(read_end, XFER, ROT, SimTime::from_ms(5));
        assert_eq!(c, read_end + ROT);
        // Ready exactly at the first write-start boundary still makes it.
        let boundary = read_end + (ROT - XFER);
        assert_eq!(
            rmw_write_complete(read_end, XFER, ROT, boundary),
            read_end + ROT
        );
    }

    #[test]
    fn rmw_write_complete_misses_revolutions_when_data_late() {
        let read_end = SimTime::from_ms(20);
        // Ready 1ns past the first boundary: one extra rotation.
        let late = read_end + (ROT - XFER) + 1;
        assert_eq!(
            rmw_write_complete(read_end, XFER, ROT, late),
            read_end + 2 * ROT
        );
        // Ready several rotations later.
        let very_late = read_end + 5 * ROT;
        let c = rmw_write_complete(read_end, XFER, ROT, very_late);
        assert_eq!(c, read_end + 6 * ROT);
    }

    #[test]
    fn rmw_longer_than_a_track_still_turns_around() {
        // A 16-block RMW transfer (29.6 ms) exceeds one rotation: the head
        // returns to the run start after the rotational remainder.
        let d = disk();
        let t = d.plan(SimTime::ZERO, 0, 16, AccessKind::RmwData);
        let transfer = 16 * XFER;
        let back = (ROT - transfer % ROT) % ROT;
        assert_eq!(t.complete, t.read_end + back + transfer);
        assert!(t.complete > t.read_end + transfer);
        // And the resolver agrees when data is ready early.
        assert_eq!(
            rmw_write_complete(t.read_end, transfer, ROT, SimTime::ZERO),
            t.complete
        );
    }

    #[test]
    fn commit_updates_state_and_stats() {
        let mut d = disk();
        let t = d.plan(SimTime::ZERO, 180 * 50, 1, AccessKind::Read);
        d.commit(&t, t.complete);
        assert_eq!(d.current_cylinder(), 50);
        assert_eq!(d.busy_until(), t.complete);
        assert_eq!(d.busy_ns(), t.complete.as_ns());
        assert_eq!(d.ops(), 1);
        assert!(d.utilization(t.complete.as_ns() * 2) > 0.49);
    }

    #[test]
    fn extend_busy_accumulates_held_rotations() {
        let mut d = disk();
        let t = d.plan(SimTime::ZERO, 0, 1, AccessKind::RmwParityRead);
        d.commit(&t, t.complete);
        let before = d.busy_ns();
        d.extend_busy(t.complete + ROT);
        assert_eq!(d.busy_ns(), before + ROT);
        assert_eq!(d.busy_until(), t.complete + ROT);
    }

    #[test]
    fn arm_distance_tracks_position() {
        let mut d = disk();
        assert_eq!(d.arm_distance(180 * 10), 10);
        let t = d.plan(SimTime::ZERO, 180 * 10, 1, AccessKind::Read);
        d.commit(&t, t.complete);
        assert_eq!(d.arm_distance(0), 10);
        assert_eq!(d.arm_distance(180 * 10), 0);
    }

    #[test]
    fn phase_offset_shifts_latency() {
        let d0 = Disk::new(DiskGeometry::default(), SeekCurve::table1(), 0);
        let d1 = Disk::new(DiskGeometry::default(), SeekCurve::table1(), ROT / 2);
        let t0 = d0.plan(SimTime::ZERO, 0, 1, AccessKind::Read);
        let t1 = d1.plan(SimTime::ZERO, 0, 1, AccessKind::Read);
        assert_eq!(t0.latency_ns, 0);
        assert_eq!(t1.latency_ns, ROT - ROT / 2);
    }

    #[test]
    fn sibling_is_a_fresh_drive_at_its_phase() {
        let mut d = disk();
        let t = d.plan(SimTime::ZERO, 180 * 50, 1, AccessKind::Read);
        d.commit(&t, t.complete);
        let fresh = Disk::new(DiskGeometry::default(), SeekCurve::table1(), ROT / 3);
        let sib = d.sibling(ROT + ROT / 3);
        assert_eq!(format!("{sib:?}"), format!("{fresh:?}"));
    }

    proptest! {
        /// The precomputed geometry constants and seek table give exactly
        /// what the geometry helpers and the seek curve compute, for the
        /// Table 1 drive and a faster, larger one.
        #[test]
        fn prop_plan_matches_the_geometry_formulas(
            fast in any::<bool>(),
            from in 0u64..1_000_000,
            block in 0u64..1_000_000,
            n in 1u32..400,
            start_ns in 0u64..10_000_000_000,
            phase in 0u64..20_000_000,
        ) {
            let (g, seek) = if fast {
                let g = DiskGeometry { rpm: 7200, cylinders: 1890, ..DiskGeometry::default() };
                (g, SeekCurve::calibrate(1890, 8.0, 18.0, 1.5))
            } else {
                (DiskGeometry::default(), SeekCurve::table1())
            };
            let bpd = g.blocks_per_disk();
            let (from, block) = (from % bpd, block % (bpd - n as u64));
            let mut d = Disk::new(g.clone(), seek, phase);
            let moved = d.plan(SimTime::ZERO, from, 1, AccessKind::Read);
            d.commit(&moved, moved.complete);
            let start = moved.complete + start_ns;
            let t = d.plan(start, block, n, AccessKind::RmwData);
            let distance = g.cylinder_of(from).abs_diff(g.cylinder_of(block));
            prop_assert_eq!(t.seek_ns, seek.seek_ns(distance));
            let rot = g.rotation_ns();
            let angle = (start.as_ns() + t.seek_ns + phase % rot) % rot;
            let target = g.sectors_to_ns(g.start_sector_of(block) as u64);
            prop_assert_eq!(t.latency_ns, (target + rot - angle) % rot);
            prop_assert_eq!(t.transfer_ns, g.block_transfer_ns() * n as u64);
            prop_assert_eq!(t.end_cylinder, g.cylinder_of(block + n as u64 - 1));
        }

        /// Latency is always within one rotation; completion ordering holds.
        #[test]
        fn prop_plan_invariants(
            start_ns in 0u64..10_000_000_000,
            block in 0u64..226_000,
            n in 1u32..6,
            phase in 0u64..ROT,
            kind_sel in 0u8..4,
        ) {
            let kind = match kind_sel {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                2 => AccessKind::RmwData,
                _ => AccessKind::RmwParityRead,
            };
            prop_assume!(block + n as u64 <= 226_800);
            let d = Disk::new(DiskGeometry::default(), SeekCurve::table1(), phase);
            let t = d.plan(SimTime::from_ns(start_ns), block, n, kind);
            prop_assert!(t.latency_ns < ROT);
            prop_assert!(t.read_end >= t.start);
            prop_assert!(t.complete >= t.read_end);
            prop_assert_eq!(
                t.read_end.as_ns(),
                start_ns + t.seek_ns + t.latency_ns + t.transfer_ns
            );
            // After seek+latency the head is at the block start sector.
            if matches!(kind, AccessKind::RmwData) {
                prop_assert_eq!(t.complete - t.read_end, ROT);
            }
        }

        /// The resolved parity write start never precedes readiness, always
        /// lands on a head-return boundary, and is minimal.
        #[test]
        fn prop_rmw_write_complete(
            read_end_ns in 1_000_000u64..100_000_000,
            ready_delta in 0i64..60_000_000,
        ) {
            let read_end = SimTime::from_ns(read_end_ns);
            let ready = SimTime::from_ns((read_end_ns as i64 + ready_delta - 30_000_000).max(0) as u64);
            let c = rmw_write_complete(read_end, XFER, ROT, ready);
            let k = (c - read_end) / ROT;
            prop_assert!(k >= 1);
            prop_assert_eq!(c - read_end, k * ROT, "completes on a boundary");
            let write_start = c.as_ns() - XFER;
            prop_assert!(write_start >= ready.as_ns(), "write after ready");
            if k > 1 {
                // Minimality: the previous boundary was too early.
                let prev_start = read_end.as_ns() + (k - 1) * ROT - XFER;
                prop_assert!(prev_start < ready.as_ns());
            }
        }
    }
}
