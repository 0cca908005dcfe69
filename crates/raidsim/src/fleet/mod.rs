//! Fleet layer: many heterogeneous virtual arrays, each fed by the tenants
//! placed on it.
//!
//! The single-array simulator answers "how does *one* organization behave
//! under *one* workload". Real installations — and the heterogeneous disk
//! array literature (Thomasian & Xu) — pose the next question up: given a
//! *pool* of drives of different classes, how should many tenant workloads
//! be carved into **virtual arrays** (VA), each with its own organization,
//! disk class, cache share, and fault plan, and what does each tenant then
//! observe?
//!
//! The layer is four pieces, one per submodule:
//!
//! - [`config`]: [`FleetConfig`] — disk classes, VA specs, tenant demands —
//!   with field-naming validation (a malformed spec reports the offending
//!   field, never panics).
//! - [`alloc`]: [`allocate`] — a single-pass best-fit planner on bandwidth
//!   and capacity, placing every tenant on exactly one VA and resolving
//!   each VA into its [`crate::SimConfig`].
//! - [`run`]: [`run_fleet`] — one job per VA on the sweep's pool: the job
//!   generates the seeded substreams of its own tenants (already in the
//!   VA's disk numbering), merges them on (arrival time, tenant index),
//!   and simulates, warm-started from its disk class's pool. No fleet-wide
//!   trace exists. Results merge in VA index order, so the parallel run is
//!   byte-identical to the serial one.
//! - [`report`]: [`FleetReport`] — per-VA [`crate::SimReport`]s, per-tenant
//!   response statistics (mean + p99, read from the class report of the
//!   one VA hosting the tenant),
//!   fleet throughput in events per *simulated* second (never wall-clock,
//!   which would break determinism hashing), and the rebuild blast radius:
//!   which tenants sat on a VA that lost a disk.

pub mod alloc;
pub mod config;
pub mod report;
pub mod run;
pub mod spec;

pub use alloc::{allocate, FleetPlan, VaPlan};
pub use config::{DiskClass, FleetConfig, TenantSpec, VirtualArraySpec};
pub use report::{FleetReport, TenantReport, VaReport};
pub use run::run_fleet;
