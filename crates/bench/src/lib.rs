//! # bench — reproduction harness for every table and figure of the paper
//!
//! The `figures` binary regenerates each experiment of Section 4:
//!
//! ```text
//! cargo run --release -p bench --bin figures -- all
//! cargo run --release -p bench --bin figures -- fig5 fig12
//! ```
//!
//! Experiments run on synthetic re-creations of the paper's two traces
//! (see the `tracegen` crate). Trace 1 is scaled down by default
//! (`RAIDTP_T1_SCALE`, default 0.1 ⇒ ≈336 k requests at the original
//! arrival rate); Trace 2 runs at full length. The selected experiments
//! share one [`plan::Plan`], which simulates each distinct point once, on
//! every core. Absolute milliseconds differ from the paper — the *shape*
//! (orderings, crossovers, trends) is the reproduction target, and
//! `EXPERIMENTS.md` records both sides per experiment.

#![expect(
    clippy::expect_used,
    clippy::disallowed_methods,
    reason = "driver code: experiments read their scale from the environment and stop on a failed run; only the simulated numbers must be deterministic"
)]

pub mod experiments;
pub mod plan;

use tracegen::{SynthSpec, Trace};

/// The two workloads, generated once and shared by every experiment.
pub struct Workloads {
    pub trace1: Trace,
    pub trace2: Trace,
    /// Scale factor applied to Trace 1 (Trace 2 is always full length).
    pub t1_scale: f64,
}

impl Workloads {
    /// Generate both traces. Trace 1's scale comes from `RAIDTP_T1_SCALE`
    /// (0 < scale ≤ 1), defaulting to 0.1.
    ///
    /// A set-but-invalid `RAIDTP_T1_SCALE` is an error, not a silent
    /// fallback: simulating at an unintended scale corrupts every number
    /// the harness then prints.
    pub fn load() -> Result<Workloads, String> {
        let t1_scale = Self::t1_scale_from_env(std::env::var("RAIDTP_T1_SCALE").ok().as_deref())?;
        Ok(Workloads {
            trace1: SynthSpec::trace1().scaled(t1_scale).generate(),
            trace2: SynthSpec::trace2().generate(),
            t1_scale,
        })
    }

    /// Validate an optional `RAIDTP_T1_SCALE` value (split out for tests).
    fn t1_scale_from_env(var: Option<&str>) -> Result<f64, String> {
        match var {
            None => Ok(0.1),
            Some(v) => match v.parse::<f64>() {
                Ok(s) => SynthSpec::check_scale(s).map_err(|e| format!("RAIDTP_T1_SCALE: {e}")),
                Err(_) => Err(format!(
                    "RAIDTP_T1_SCALE=`{v}` is not a number (need 0 < scale <= 1)"
                )),
            },
        }
    }

    /// Smaller workloads for unit tests of the harness itself.
    pub fn tiny() -> Workloads {
        Workloads {
            trace1: SynthSpec::trace1().scaled(0.002).generate(),
            trace2: SynthSpec::trace2().scaled(0.05).generate(),
            t1_scale: 0.002,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_workloads_generate() {
        let w = Workloads::tiny();
        assert!(!w.trace1.is_empty());
        assert!(!w.trace2.is_empty());
    }

    #[test]
    fn t1_scale_validation() {
        assert_eq!(Workloads::t1_scale_from_env(None), Ok(0.1));
        assert_eq!(Workloads::t1_scale_from_env(Some("0.25")), Ok(0.25));
        assert_eq!(Workloads::t1_scale_from_env(Some("1")), Ok(1.0));
        for bad in ["0", "-0.5", "1.5", "nan", "ten", ""] {
            assert!(
                Workloads::t1_scale_from_env(Some(bad)).is_err(),
                "`{bad}` must be rejected, not silently replaced by 0.1"
            );
        }
    }
}
