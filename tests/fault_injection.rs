//! End-to-end fault-injection scenarios: a disk dies mid-run, the array
//! runs degraded, an online rebuild sweeps the lost blocks onto a hot
//! spare, and service returns to healthy — plus transient-error retry and
//! NVRAM battery failover.
//!
//! The paper observes that "large arrays are less reliable and have worse
//! performance during reconstruction following a disk failure"
//! (Section 4.2.1); these tests exercise the machinery that makes that
//! claim measurable. A deliberately small disk geometry keeps whole-disk
//! rebuilds inside a few simulated seconds.

use diskmodel::DiskGeometry;
use raidsim::{
    run_all, CacheConfig, DiskFailure, FaultConfig, NamedRun, Organization, SimConfig, Simulator,
};
use tracegen::{SynthSpec, Trace};

/// Tiny disk (2 cylinders → 360 blocks) so a full rebuild completes well
/// inside the trace.
fn small_geometry() -> DiskGeometry {
    DiskGeometry {
        cylinders: 2,
        ..DiskGeometry::default()
    }
}

fn small_trace() -> Trace {
    SynthSpec {
        name: "fault-small".into(),
        seed: 0xFA17,
        n_disks: 4,
        blocks_per_disk: small_geometry().blocks_per_disk(),
        n_requests: 400,
        duration_secs: 8.0,
        // Steady arrivals: trace2's 6× busy bursts would dominate the
        // healthy-vs-degraded comparison below.
        busy_speedup: 1.0,
        ..SynthSpec::trace2()
    }
    .generate()
}

fn fault_cfg(org: Organization, fault: FaultConfig) -> SimConfig {
    let mut cfg = SimConfig::with_organization(org);
    cfg.geometry = small_geometry();
    cfg.data_disks_per_array = 4;
    cfg.fault = Some(fault);
    cfg
}

fn fail_disk_at(at_ms: u64) -> FaultConfig {
    FaultConfig {
        disk_failure: Some(DiskFailure {
            array: 0,
            disk: 1,
            at_ms,
        }),
        spare: true,
        rebuild_rate_mbps: 0, // unthrottled: bounded by the disks themselves
        ..FaultConfig::default()
    }
}

#[test]
fn mid_run_failure_rebuilds_onto_spare_and_returns_to_healthy() {
    let trace = small_trace();
    let cfg = fault_cfg(Organization::Raid5 { striping_unit: 1 }, fail_disk_at(1000));
    let report = Simulator::new(cfg, &trace).run();

    // Every request completes despite the mid-run failure.
    assert_eq!(report.requests_completed, trace.len() as u64);

    let f = report.faults.as_ref().expect("fault engine was configured");
    assert!(f.degraded_window_ms > 0.0, "no degraded window recorded");
    assert!(f.rebuild_ms > 0.0, "rebuild took no time");
    assert_eq!(
        f.rebuild_blocks,
        small_geometry().blocks_per_disk(),
        "rebuild must sweep the whole failed disk"
    );
    // The degraded window closes when the rebuild does: the array returned
    // to healthy well before the end of the (5 s + drain) run.
    assert!(
        f.degraded_window_ms >= f.rebuild_ms,
        "window {} ms < rebuild {} ms",
        f.degraded_window_ms,
        f.rebuild_ms
    );
    assert!(
        f.degraded_window_ms < 6000.0,
        "array did not return to healthy while traffic still flowed ({} ms window)",
        f.degraded_window_ms
    );
    // Requests served while degraded/rebuilding pay reconstruction and
    // interference costs the healthy phases do not.
    assert!(f.response_healthy_ms.count() > 0);
    assert!(
        f.response_degraded_ms.count() + f.response_rebuilding_ms.count() > 0,
        "no request was served during the degraded window"
    );
    assert!(
        f.degraded_mean_ms() > f.response_healthy_ms.mean(),
        "degraded mean {:.3} ms not above healthy mean {:.3} ms",
        f.degraded_mean_ms(),
        f.response_healthy_ms.mean()
    );
}

/// The fault horizon is the last *replayed* arrival. A failure at 3/4 of
/// the recorded last arrival is past it at 2× and is refused; one at 3/2 of
/// it is before it at 0.5× and runs.
#[test]
fn fault_horizon_follows_the_replay_speed() {
    let trace = small_trace();
    let last_ms = trace.records.last().expect("a trace").at.as_ns() / 1_000_000;
    let raid5 = Organization::Raid5 { striping_unit: 1 };
    let replay = |at_ms: u64, speed: f64| {
        let cfg = fault_cfg(raid5, fail_disk_at(at_ms));
        run_all(&[NamedRun::new("horizon", cfg, &trace).at_speed(speed)], 1)
            .swap_remove(0)
            .1
    };
    let err = replay(last_ms * 3 / 4, 2.0).expect_err("past the replayed horizon");
    assert!(err.contains("would never fire"), "{err}");
    let report = replay(last_ms * 3 / 2, 0.5).expect("before the replayed horizon");
    assert!(
        report.faults.expect("fault engine").degraded_window_ms > 0.0,
        "the failure fired"
    );
}

#[test]
fn mirror_rebuilds_faster_than_raid5() {
    let trace = small_trace();
    let raid5 = Simulator::new(
        fault_cfg(Organization::Raid5 { striping_unit: 1 }, fail_disk_at(1000)),
        &trace,
    )
    .run();
    let mirror = Simulator::new(fault_cfg(Organization::Mirror, fail_disk_at(1000)), &trace).run();
    let (r5, mi) = (raid5.faults.unwrap(), mirror.faults.unwrap());
    assert!(r5.rebuild_ms > 0.0 && mi.rebuild_ms > 0.0);
    // Mirror rebuild copies from one surviving partner; RAID5 must read
    // every surviving member of each stripe and XOR — strictly more work
    // and a max-of-N critical path per batch (paper Section 4.2.1).
    assert!(
        mi.rebuild_ms < r5.rebuild_ms,
        "Mirror rebuild ({:.1} ms) not faster than RAID5 ({:.1} ms)",
        mi.rebuild_ms,
        r5.rebuild_ms
    );
    // Under unthrottled rebuild interference, both organizations serve
    // the degraded window slower than healthy traffic.
    for (name, f) in [("RAID5", &r5), ("Mirror", &mi)] {
        assert!(
            f.degraded_mean_ms() > f.response_healthy_ms.mean(),
            "{name}: degraded mean {:.3} ms not above healthy mean {:.3} ms",
            f.degraded_mean_ms(),
            f.response_healthy_ms.mean()
        );
    }
}

#[test]
fn transient_errors_are_retried_and_recovered() {
    let trace = small_trace();
    let cfg = fault_cfg(
        Organization::Raid5 { striping_unit: 1 },
        FaultConfig {
            transient_error_prob: 0.02,
            max_retries: 4,
            ..FaultConfig::default()
        },
    );
    let report = Simulator::new(cfg, &trace).run();
    assert_eq!(report.requests_completed, trace.len() as u64);
    let f = report.faults.unwrap();
    assert!(f.transient_errors > 0, "no transient error was ever drawn");
    assert!(f.retries > 0, "errors were drawn but never retried");
    assert!(
        f.retries <= f.transient_errors,
        "every retry must be driven by an error"
    );
    // At p = 0.02 a run of 5 consecutive failures (~3e-9) cannot happen in
    // a few thousand draws: nothing escalates, no disk fails.
    assert_eq!(f.escalations, 0);
    assert_eq!(f.degraded_window_ms, 0.0);
}

#[test]
fn battery_failure_degrades_cache_to_write_through_and_back() {
    let trace = small_trace();
    let mut cfg = fault_cfg(
        Organization::Raid5 { striping_unit: 1 },
        FaultConfig {
            battery_fail_at_ms: Some(500),
            battery_restore_at_ms: Some(2500),
            ..FaultConfig::default()
        },
    );
    cfg.cache = Some(CacheConfig::default());
    let report = Simulator::new(cfg, &trace).run();
    assert_eq!(report.requests_completed, trace.len() as u64);
    let f = report.faults.unwrap();
    assert!(
        (f.battery_window_ms - 2000.0).abs() < 1e-6,
        "battery outage window {} ms, expected 2000",
        f.battery_window_ms
    );
    assert!(
        f.writes_written_through > 0,
        "no write was forced through during the outage"
    );
}
