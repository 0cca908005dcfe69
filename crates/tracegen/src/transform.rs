//! Transforms over existing traces (synthetic or parsed).

use crate::record::Trace;
use simkit::SimTime;

/// Scale arrival intensity by `factor` (> 1 speeds the trace up, < 1 slows
/// it down), exactly the experiment of Sections 4.2.4 and 4.4.3. Addresses,
/// mix and ordering are untouched; arrival times are divided by `factor`.
pub fn at_speed(trace: &Trace, factor: f64) -> Trace {
    assert!(factor > 0.0);
    let mut out = trace.clone();
    for r in &mut out.records {
        out_time(r, factor);
    }
    out
}

fn out_time(r: &mut crate::record::TraceRecord, factor: f64) {
    r.at = SimTime::from_ns((r.at.as_ns() as f64 / factor).round() as u64);
}

/// Keep only the first `n` requests.
pub fn truncate(trace: &Trace, n: usize) -> Trace {
    let mut out = trace.clone();
    out.records.truncate(n);
    out
}

/// Keep only requests arriving in `[from, to)`, re-based so the window
/// starts at time zero.
pub fn window(trace: &Trace, from: SimTime, to: SimTime) -> Trace {
    let mut out = Trace::new(trace.n_disks, trace.blocks_per_disk);
    for r in &trace.records {
        if r.at >= from && r.at < to {
            let mut r = *r;
            r.at = SimTime::from_ns(r.at.as_ns() - from.as_ns());
            out.records.push(r);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{AccessType, TraceRecord};

    fn toy() -> Trace {
        let mut t = Trace::new(1, 1000);
        for i in 0..10u64 {
            t.records.push(TraceRecord {
                at: SimTime::from_ms(i * 10),
                disk: 0,
                block: i,
                nblocks: 1,
                kind: AccessType::Read,
            });
        }
        t
    }

    #[test]
    fn at_speed_halves_gaps() {
        let fast = at_speed(&toy(), 2.0);
        assert_eq!(fast.records[1].at, SimTime::from_ms(5));
        assert_eq!(fast.records[9].at, SimTime::from_ms(45));
        assert_eq!(fast.len(), 10);
        fast.validate().unwrap();
    }

    /// Speed 1.0 returns the trace unchanged, so a replay "at 1x" can use
    /// the base trace itself instead of a copy.
    #[test]
    fn at_speed_one_is_the_trace_itself() {
        for t in [
            toy(),
            crate::SynthSpec::trace1().scaled(0.01).generate(),
            crate::SynthSpec::trace2().generate(),
        ] {
            assert!(at_speed(&t, 1.0) == t);
        }
    }

    #[test]
    fn at_speed_half_slows_down() {
        let slow = at_speed(&toy(), 0.5);
        assert_eq!(slow.records[1].at, SimTime::from_ms(20));
    }

    #[test]
    fn truncate_keeps_prefix() {
        let t = truncate(&toy(), 3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.records[2].block, 2);
    }

    #[test]
    fn window_rebases_times() {
        let w = window(&toy(), SimTime::from_ms(20), SimTime::from_ms(50));
        assert_eq!(w.len(), 3); // arrivals at 20, 30, 40
        assert_eq!(w.records[0].at, SimTime::ZERO);
        assert_eq!(w.records[2].at, SimTime::from_ms(20));
        w.validate().unwrap();
    }
}
