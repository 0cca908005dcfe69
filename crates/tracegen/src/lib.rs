//! # tracegen — OLTP I/O traces: synthesis, parsing, analysis
//!
//! The paper drives its simulations with two proprietary traces captured at
//! IBM DB2 customer sites (Table 2). Those traces are not available, so this
//! crate provides a synthetic generator calibrated to every statistic the
//! paper reports about them, plus the qualitative properties its analysis
//! leans on:
//!
//! * **Mix** — read/write fraction and single-/multi-block split per
//!   direction (Table 2 exactly).
//! * **Disk skew** — Zipf-weighted assignment of load across logical disks
//!   ("a significant amount of skew in the disk access rate", Fig. 6; more
//!   skew in Trace 2 than Trace 1).
//! * **Spatial locality / seek affinity** — extent-based addressing with
//!   sequential run-off, so striping measurably reduces seek affinity
//!   (Section 4.2).
//! * **Temporal locality** — LRU-stack re-reference sampling, with writes
//!   preferentially updating recently read blocks ("blocks are usually read
//!   by the transaction before being updated", Section 4.3), giving the
//!   near-1 write hit ratio of Trace 1 and the larger working sets of
//!   Trace 2.
//! * **Arrival process** — a two-state (quiet/burst) modulated Poisson
//!   process; multiblock requests carry zero intra-request gaps exactly as
//!   the paper's trace format does.
//!
//! [`SynthSpec::trace1`] / [`SynthSpec::trace2`] reproduce the two
//! workloads; [`SynthSpec::scaled`] shrinks the request count at constant
//! arrival rate so experiments finish quickly. A plain-text trace format
//! ([`fmt`]) lets real traces be substituted, and [`characterize`]
//! recomputes Table 2 from any trace.

pub mod characterize;
pub mod fmt;
pub mod record;
pub mod sampler;
pub mod stream;
pub mod synth;

pub use characterize::TraceStats;
pub use record::{AccessType, Trace, TraceRecord};
pub use stream::StreamRng;
pub use synth::{RerefDist, SynthSpec};
