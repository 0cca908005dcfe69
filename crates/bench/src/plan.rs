//! The `figures` plan: every experiment declares the (trace, configuration)
//! points its tables read, the plan keeps one copy of each distinct point,
//! and a single [`raidsim::run_all`] call simulates them on the shared
//! work-stealing pool. Every point replays one of the two base traces by
//! reference, at its key's speed ([`NamedRun::at_speed`]); no trace is
//! copied. Experiments then render from the results by id, so a
//! point several figures print (Fig 16 reads every point of Fig 15) is
//! simulated once per invocation.

use crate::Workloads;
use raidsim::{run_all, NamedRun, SimConfig, SimReport};

/// The trace a point runs on: Trace 1 or Trace 2 of the [`Workloads`],
/// replayed at `speed`× its arrival rate. The speed is a replay parameter
/// of the point, not a copy of the trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceKey {
    trace2: bool,
    speed: f64,
}

pub const TRACE1: TraceKey = TraceKey::base(false);
pub const TRACE2: TraceKey = TraceKey::base(true);
/// Both base traces, in the order every per-trace table prints them.
pub const TRACES: [TraceKey; 2] = [TRACE1, TRACE2];

impl TraceKey {
    const fn base(trace2: bool) -> TraceKey {
        TraceKey { trace2, speed: 1.0 }
    }

    pub fn at_speed(self, speed: f64) -> TraceKey {
        TraceKey { speed, ..self }
    }

    /// The base trace's name.
    pub fn name(self) -> &'static str {
        if self.trace2 {
            "Trace 2"
        } else {
            "Trace 1"
        }
    }
}

/// A declared point: its index in the plan's distinct points, and so in
/// the reports [`Plan::run`] returns.
pub type Id = usize;

/// The distinct points declared so far, in first-declaration order, and
/// how many declarations they absorbed.
#[derive(Default)]
pub struct Plan {
    points: Vec<(TraceKey, SimConfig)>,
    declared: usize,
}

impl Plan {
    /// Declare a point and return its id; a point equal to an earlier one
    /// (same trace key, equal `SimConfig`) gets the earlier id. A linear
    /// search: a full `figures all` plan has a few hundred points.
    pub fn point(&mut self, trace: TraceKey, config: SimConfig) -> Id {
        self.declared += 1;
        let same = |(k, c): &(TraceKey, SimConfig)| *k == trace && *c == config;
        self.points.iter().position(same).unwrap_or_else(|| {
            self.points.push((trace, config));
            self.points.len() - 1
        })
    }

    /// The number of [`Plan::point`] calls so far.
    pub fn declared(&self) -> usize {
        self.declared
    }

    /// The number of points [`Plan::run`] simulates.
    pub fn distinct(&self) -> usize {
        self.points.len()
    }

    /// Simulate every distinct point once on `threads` workers (0 = the
    /// machine's available parallelism) and return the reports by [`Id`].
    /// They do not depend on `threads`. A point that fails stops the plan
    /// with its label.
    pub fn run(&self, w: &Workloads, threads: usize) -> Result<Vec<SimReport>, String> {
        let runs: Vec<NamedRun<'_>> = self
            .points
            .iter()
            .map(|(k, c)| {
                let trace = if k.trace2 { &w.trace2 } else { &w.trace1 };
                let label = format!("{} at {}x, {c:?}", k.name(), k.speed);
                NamedRun::new(label, c.clone(), trace).at_speed(k.speed)
            })
            .collect();
        let reports = run_all(&runs, threads).into_iter();
        let reports = reports.map(|(label, r)| r.map_err(|e| format!("{label}: {e}")));
        reports.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raidsim::Organization;
    use tracegen::Trace;

    #[test]
    fn equal_points_share_an_id() {
        let mut plan = Plan::default();
        let base = SimConfig::with_organization(Organization::Base);
        let a = plan.point(TRACE2, base.clone());
        let b = plan.point(TRACE2.at_speed(2.0), base.clone());
        let c = plan.point(TRACE1, base.clone());
        assert_eq!(plan.point(TRACE2, base.clone()), a);
        assert_eq!(plan.point(TRACE2.at_speed(1.0), base), a);
        assert!(a != b && b != c && a != c);
        assert_eq!((plan.declared(), plan.distinct()), (5, 3));
    }

    /// The replayed arrival times of `trace` at `speed`, as a rescaled copy:
    /// the reference a replay at that speed must match.
    fn rescaled(trace: &Trace, speed: f64) -> Trace {
        let mut out = trace.clone();
        for r in &mut out.records {
            r.at = simkit::SimTime::from_ns((r.at.as_ns() as f64 / speed).round() as u64);
        }
        out
    }

    /// Each point runs on its own trace: a base trace, replayed at its
    /// speed, exactly as a serial run on a copy rescaled to that speed.
    #[test]
    fn points_run_on_their_traces() {
        let w = Workloads::tiny();
        let config = SimConfig::with_organization(Organization::Base);
        let mut plan = Plan::default();
        let keys = [TRACE1, TRACE2, TRACE2.at_speed(2.0), TRACE1.at_speed(0.5)];
        let ids = keys.map(|k| plan.point(k, config.clone()));
        let reports = plan.run(&w, 2).unwrap();
        let traces = [
            w.trace1.clone(),
            w.trace2.clone(),
            rescaled(&w.trace2, 2.0),
            rescaled(&w.trace1, 0.5),
        ];
        for (id, trace) in ids.into_iter().zip(&traces) {
            let serial = raidsim::Simulator::new(config.clone(), trace).run();
            assert_eq!(format!("{:?}", reports[id]), format!("{serial:?}"));
        }
    }

    #[test]
    fn a_failing_point_stops_the_plan_with_its_label() {
        let mut plan = Plan::default();
        let bad = SimConfig::with_organization(Organization::Raid5 { striping_unit: 0 });
        plan.point(TRACE2, bad);
        let err = plan.run(&Workloads::tiny(), 1).unwrap_err();
        assert!(err.starts_with("Trace 2 at 1x, SimConfig {"), "{err}");
        assert!(err.contains("striping unit"), "{err}");
    }
}
