//! # simkit — deterministic discrete-event simulation core
//!
//! Minimal building blocks for the trace-driven disk-array simulator:
//!
//! * [`SimTime`] — an integer-nanosecond simulation clock value. Integer time
//!   makes runs bit-for-bit reproducible across platforms and optimization
//!   levels, which floating-point clocks do not guarantee.
//! * [`EventQueue`] — a future-event list (a binary heap of events) with
//!   stable FIFO ordering among simultaneous events and eager
//!   cancellation.
//! * [`Engine`] — a thin clock + queue harness enforcing monotonic time.
//! * [`FaultPlan`] — a seeded, time-ordered schedule of injected faults and
//!   the sole factory for fault-randomness streams.
//!
//! The simulator in the `raidsim` crate owns its domain event type and drives
//! an [`Engine`] directly; nothing here knows about disks.

pub mod engine;
pub mod fault;
pub mod queue;
pub mod time;

pub use engine::Engine;
pub use fault::{FaultEvent, FaultPlan, FaultRng};
pub use queue::{EventId, EventQueue};
pub use time::SimTime;
