//! The latency-decomposition invariant: for **every** completed request the
//! eight phase components sum *exactly* (to the nanosecond) to the
//! host-observed response time — and turning the observability features on
//! does not perturb the simulated timing at all.

use raidsim::{
    CacheConfig, ObservabilityConfig, Organization, ParityPlacement, SimConfig, Simulator,
};
use tracegen::{SynthSpec, Trace};

fn small_traces() -> [Trace; 2] {
    [
        SynthSpec::trace1().scaled(0.002).generate(),
        SynthSpec::trace2().scaled(0.05).generate(),
    ]
}

fn orgs() -> Vec<Organization> {
    vec![
        Organization::Base,
        Organization::Mirror,
        Organization::Raid5 { striping_unit: 1 },
        Organization::Raid4 { striping_unit: 1 },
        Organization::ParityStriping {
            placement: ParityPlacement::Middle,
        },
    ]
}

/// Pull `"key":<integer>` out of a flat JSONL line.
#[expect(
    clippy::panic,
    reason = "a test helper: a malformed event line fails the test"
)]
fn field(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let start = line
        .find(&pat)
        .unwrap_or_else(|| panic!("missing {key} in {line}"))
        + pat.len();
    line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|e| panic!("bad {key} in {line}: {e}"))
}

const PHASES: [&str; 8] = [
    "admission_ns",
    "channel_ns",
    "disk_queue_ns",
    "destage_interference_ns",
    "seek_ns",
    "rotation_ns",
    "transfer_ns",
    "parity_ns",
];

/// Run with an event log and check every `req_done` record's components
/// against its response time. Returns the number of requests checked.
fn check_exact_sums(mut cfg: SimConfig, trace: &Trace, tag: &str) -> usize {
    let path =
        std::env::temp_dir().join(format!("raidsim-phase-{}-{tag}.jsonl", std::process::id()));
    cfg.observability.event_log = Some(path.clone());
    let report = Simulator::new(cfg, trace).run();
    #[expect(
        clippy::expect_used,
        reason = "a test helper: a missing log fails the test"
    )]
    let log = std::fs::read_to_string(&path).expect("event log written");
    let _ = std::fs::remove_file(&path);

    let mut checked = 0;
    for line in log.lines().filter(|l| l.contains("\"ev\":\"req_done\"")) {
        let resp = field(line, "resp_ns");
        let sum: u64 = PHASES.iter().map(|p| field(line, p)).sum();
        assert_eq!(sum, resp, "{tag}: phases must sum to response: {line}");
        checked += 1;
    }
    assert_eq!(
        checked as u64, report.requests_completed,
        "{tag}: one req_done record per completed request"
    );
    checked
}

#[test]
fn phase_components_sum_exactly_noncached() {
    for (t, trace) in small_traces().iter().enumerate() {
        for org in orgs() {
            let cfg = SimConfig::with_organization(org);
            let n = check_exact_sums(cfg, trace, &format!("t{t}-{}", org.label()));
            assert_eq!(n, trace.len());
        }
    }
}

#[test]
fn phase_components_sum_exactly_cached_and_degraded() {
    let trace = SynthSpec::trace2().scaled(0.05).generate();
    for org in [
        Organization::Raid5 { striping_unit: 1 },
        Organization::Raid4 { striping_unit: 1 },
    ] {
        let mut cfg = SimConfig::with_organization(org);
        cfg.cache = Some(CacheConfig::default());
        check_exact_sums(cfg, &trace, &format!("cached-{}", org.label()));
    }
    let mut cfg = SimConfig::with_organization(Organization::Raid5 { striping_unit: 1 });
    cfg.failed_disk = Some((0, 3));
    check_exact_sums(cfg, &trace, "degraded-RAID5");
}

#[test]
fn phase_means_sum_to_mean_response() {
    let trace = SynthSpec::trace2().scaled(0.1).generate();
    for org in orgs() {
        let cfg = SimConfig::with_organization(org);
        let r = Simulator::new(cfg, &trace).run();
        assert_eq!(
            r.phases_reads.count() + r.phases_writes.count(),
            r.requests_completed
        );
        let err_r = (r.phases_reads.mean_total_ms() - r.mean_read_ms()).abs();
        let err_w = (r.phases_writes.mean_total_ms() - r.mean_write_ms()).abs();
        assert!(
            err_r < 1e-9,
            "{}: read phase means off by {err_r}",
            org.label()
        );
        assert!(
            err_w < 1e-9,
            "{}: write phase means off by {err_w}",
            org.label()
        );
    }
}

#[test]
fn observability_leaves_timing_bit_identical() {
    let trace = SynthSpec::trace2().scaled(0.1).generate();
    for cache in [None, Some(CacheConfig::default())] {
        let mut plain = SimConfig::with_organization(Organization::Raid5 { striping_unit: 1 });
        plain.cache = cache;
        let mut observed = plain.clone();
        observed.observability = ObservabilityConfig::sampled(10);
        observed.observability.event_log = Some(std::env::temp_dir().join(format!(
            "raidsim-phase-bitident-{}-{}.jsonl",
            std::process::id(),
            cache.is_some()
        )));

        let a = Simulator::new(plain, &trace).run();
        let b = Simulator::new(observed.clone(), &trace).run();
        let _ = std::fs::remove_file(observed.observability.event_log.unwrap());

        assert_eq!(
            a.mean_response_ms().to_bits(),
            b.mean_response_ms().to_bits()
        );
        assert_eq!(a.mean_read_ms().to_bits(), b.mean_read_ms().to_bits());
        assert_eq!(a.mean_write_ms().to_bits(), b.mean_write_ms().to_bits());
        assert!(a.timeseries.is_none());

        let ts = b.timeseries.expect("sampler produced a series");
        assert!(!ts.is_empty(), "rows recorded");
        assert!(ts.columns().iter().any(|c| c.starts_with("qdepth.d")));
        assert!(ts.columns().iter().any(|c| c.starts_with("util.d")));
        assert!(ts.columns().iter().any(|c| c.starts_with("chan.a")));
        if cache.is_some() {
            assert!(ts.columns().iter().any(|c| c.starts_with("dirty.a")));
            // Something got dirty at some point under a write workload.
            assert!(ts.column("dirty.a0").unwrap().iter().any(|&v| v > 0.0));
        }
        // Queue depths are nonnegative counts; utilizations are finite.
        for g in 0..4 {
            let col = format!("qdepth.d{g}");
            let vals = ts.column(&col).unwrap();
            assert!(vals.iter().all(|&v| v >= 0.0 && v.fract() == 0.0));
        }
        assert!(ts.column_max("util.d0").is_finite());
    }
}
