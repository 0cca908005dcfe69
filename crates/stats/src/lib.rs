//! # raidtp-stats — measurement plumbing for the simulator
//!
//! * [`Welford`] — numerically stable streaming mean/variance.
//! * [`Histogram`] — fixed-width-bin latency recorder (used for
//!   response-time distributions), packed at the end of a run into a
//!   [`PackedHistogram`] that answers percentile queries.
//! * [`DiskCounters`] — per-disk access counts with imbalance metrics
//!   (reproduces Figures 6–7, the access-skew plots).
//! * [`TimeSeries`] — sampled per-instant state (queue depths,
//!   utilizations, cache occupancy) recorded by the simulator's periodic
//!   sampler.
//! * [`table`] — fixed-width text tables for experiment output.

pub mod counters;
pub mod histogram;
pub mod table;
pub mod timeseries;
pub mod welford;

pub use counters::DiskCounters;
pub use histogram::{Histogram, PackedHistogram};
pub use table::Table;
pub use timeseries::TimeSeries;
pub use welford::Welford;
