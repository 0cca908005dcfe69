//! # diskmodel — parametric magnetic disk drive model
//!
//! Implements the disk the paper simulates (Table 1): a 5400 rpm, ~0.93 GB
//! drive with 1260 cylinders, 48 sectors/track, 512-byte sectors and 15
//! platters (30 recording surfaces), attached to a 10 MB/s channel.
//!
//! The model provides:
//!
//! * [`DiskGeometry`] — static geometry and derived constants (rotation
//!   period, block transfer time, block ↔ cylinder/sector mapping).
//! * [`SeekCurve`] — the paper's seek-time function
//!   `a·√(x−1) + b·(x−1) + c`, with [`SeekCurve::calibrate`] solving `a`, `b`
//!   so that the average seek over uniformly random seeks and the full-stroke
//!   seek match the Table 1 figures (11.2 ms / 28 ms).
//! * [`Disk`] — per-drive dynamic state: arm position, rotational phase,
//!   busy-until horizon, utilization accounting, and service-time computation
//!   for plain reads/writes and read-modify-write accesses.
//! * [`SchedulerQueue`] — each drive's queue of pending operations in three
//!   [`Band`]s (priority / normal / background), served under the
//!   [`Discipline`] chosen at configuration time: FCFS (the paper's
//!   discipline and the default), SSTF or SCAN.
//!
//! Simplifications, documented here once: head-switch and track-crossing
//! overheads inside a multi-block transfer are folded into the linear
//! transfer time; sector servo/settle time is part of the seek-curve constant
//! `c`. Both are below the fidelity the paper itself models.

pub mod disk;
pub mod geometry;
mod opqueue;
mod scheduler;
pub mod seek;

pub use disk::{rmw_write_complete, AccessKind, AccessTiming, Disk};
pub use geometry::{BlockNo, Cylinder, DiskGeometry};
pub use opqueue::Band;
pub use scheduler::{Discipline, SchedulerQueue};
pub use seek::SeekCurve;
