//! Failure-lifecycle scenarios past the first clean failure-and-rebuild:
//! a second failure hitting the rebuilding spare (restart onto the next
//! one), hitting it with the pool exhausted (the array stays degraded),
//! hitting a second *data* disk (the `DataLoss` transition — accounted,
//! not a panic), and latent sector errors discovered by the background
//! scrub or surfacing mid-rebuild.
//!
//! Every scenario additionally runs twice and must reproduce its report
//! byte for byte.

use diskmodel::DiskGeometry;
use raidsim::{
    run_fleet, DiskFailure, FaultConfig, FleetConfig, Organization, SimConfig, Simulator,
    SparingMode,
};
use tracegen::{SynthSpec, Trace};

/// Tiny disks (2 cylinders → 360 blocks) so whole-disk rebuilds complete
/// inside a few simulated seconds.
fn small_geometry() -> DiskGeometry {
    DiskGeometry {
        cylinders: 2,
        ..DiskGeometry::default()
    }
}

/// Three arrays of four data disks, so faults on array 1 run beside
/// healthy arrays.
fn lifecycle_trace() -> Trace {
    SynthSpec {
        name: "lifecycle".into(),
        seed: 0x11FE,
        n_disks: 12,
        blocks_per_disk: small_geometry().blocks_per_disk(),
        n_requests: 900,
        duration_secs: 10.0,
        busy_speedup: 1.0,
        ..SynthSpec::trace2()
    }
    .generate()
}

fn cfg_with(fault: FaultConfig) -> SimConfig {
    let mut cfg = SimConfig::with_organization(Organization::Raid5 { striping_unit: 1 });
    cfg.geometry = small_geometry();
    cfg.data_disks_per_array = 4;
    cfg.fault = Some(fault);
    cfg
}

/// First failure at 1 s; throttled so the ~1.4 MB rebuild spans ≈1.4 s and
/// the second event at 1.5 s lands mid-rebuild.
fn two_failures(second_disk: u32, spare_count: u32) -> FaultConfig {
    FaultConfig {
        disk_failure: Some(DiskFailure {
            array: 1,
            disk: 1,
            at_ms: 1_000,
        }),
        second_failure: Some(DiskFailure {
            array: 1,
            disk: second_disk,
            at_ms: 1_500,
        }),
        spare: true,
        spare_count,
        rebuild_rate_mbps: 1,
        ..FaultConfig::default()
    }
}

/// Two runs of `cfg` must serialize to one byte sequence.
fn assert_replays_identically(cfg: &SimConfig, trace: &Trace) -> String {
    let first = format!("{:#?}", Simulator::new(cfg.clone(), trace).run());
    let second = format!("{:#?}", Simulator::new(cfg.clone(), trace).run());
    assert_eq!(second, first, "lifecycle run diverged on replay");
    first
}

#[test]
fn spare_death_mid_rebuild_restarts_onto_next_spare() {
    let trace = lifecycle_trace();
    // Second failure hits the slot under rebuild = the spare dies.
    let cfg = cfg_with(two_failures(1, 2));
    let report = Simulator::new(cfg.clone(), &trace).run();
    assert_eq!(report.requests_completed, trace.len() as u64);

    let rel = report
        .reliability
        .as_ref()
        .expect("fault engine configured");
    assert_eq!(rel.health, "healthy", "restart onto spare #2 must finish");
    assert_eq!(rel.disk_failures, 2);
    assert_eq!(rel.spares_used, 2, "both pool spares consumed");
    // Pools are per-array: the faulted array is empty, the two idle
    // arrays keep their two spares each.
    assert_eq!(rel.spares_available, 4);
    assert!(rel.survived());
    assert_eq!(rel.blocks_lost, 0);

    let f = report.faults.as_ref().unwrap();
    // The restarted sweep begins at block 0: total reconstructed blocks
    // exceed one disk's worth by the progress the dead spare had made.
    assert!(
        f.rebuild_blocks > small_geometry().blocks_per_disk(),
        "rebuild_blocks {} should include the aborted first attempt",
        f.rebuild_blocks
    );
    assert_replays_identically(&cfg, &trace);
}

#[test]
fn spare_exhaustion_leaves_array_degraded() {
    let trace = lifecycle_trace();
    // Same spare death, but the pool held only one spare.
    let cfg = cfg_with(two_failures(1, 1));
    let report = Simulator::new(cfg.clone(), &trace).run();
    assert_eq!(report.requests_completed, trace.len() as u64);

    let rel = report.reliability.as_ref().unwrap();
    assert_eq!(rel.health, "degraded", "no spare left: stays degraded");
    assert_eq!(rel.disk_failures, 2);
    assert_eq!(rel.spares_used, 1);
    assert_eq!(
        rel.spares_available, 2,
        "only the idle arrays' pools remain"
    );
    assert!(rel.survived(), "one data disk lost is still recoverable");
    assert_eq!(rel.blocks_lost, 0);
    // The exposure window stays open to the end of the run.
    let f = report.faults.as_ref().unwrap();
    assert!(
        rel.exposure_ms > f.rebuild_ms,
        "exposure {} ms must outlast the aborted rebuild {} ms",
        rel.exposure_ms,
        f.rebuild_ms
    );
    assert_replays_identically(&cfg, &trace);
}

#[test]
fn second_data_disk_failure_is_accounted_data_loss_not_a_panic() {
    let trace = lifecycle_trace();
    // Second failure hits a *different* data disk of the same array.
    let cfg = cfg_with(two_failures(3, 2));
    let report = Simulator::new(cfg.clone(), &trace).run();
    // Every request still completes: reads of lost data finish
    // degenerately and are counted, they do not wedge the run.
    assert_eq!(report.requests_completed, trace.len() as u64);

    let rel = report.reliability.as_ref().unwrap();
    assert_eq!(rel.health, "data-loss");
    assert!(!rel.survived());
    assert_eq!(rel.disk_failures, 2);
    assert_eq!(
        rel.blocks_lost,
        small_geometry().blocks_per_disk(),
        "a whole disk's blocks are beyond redundancy"
    );
    assert!(
        rel.lost_reads > 0,
        "ongoing traffic must observe (and count) degenerate reads"
    );
    let at = rel.data_loss_at_ms.expect("transition time recorded");
    assert!(
        (at - 1_500.0).abs() < 1e-6,
        "data loss at {at} ms, expected the second failure's 1500 ms"
    );
    assert_replays_identically(&cfg, &trace);
}

#[test]
fn scrub_repairs_latent_errors_and_sweeps_every_block() {
    let trace = lifecycle_trace();
    let mk = |scrub_rate_mbps: u64| {
        cfg_with(FaultConfig {
            latent_rate_per_hour: 5_000.0, // ≈14 marred blocks per disk in 10 s
            scrub_rate_mbps,
            ..FaultConfig::default()
        })
    };

    // Without a scrub the marred blocks accumulate silently.
    let idle = Simulator::new(mk(0), &trace).run();
    let idle_rel = idle.reliability.as_ref().unwrap();
    assert!(idle_rel.latent_errors > 0, "latent substream never fired");
    assert_eq!(idle_rel.latent_repaired, 0);
    assert_eq!(idle_rel.scrub_blocks, 0);

    // With a scrub the sweep completes (the run drains until it does) and
    // repairs every error marred behind the moving cursor.
    let cfg = mk(4);
    let scrubbed = Simulator::new(cfg.clone(), &trace).run();
    let rel = scrubbed.reliability.as_ref().unwrap();
    assert_eq!(rel.health, "healthy");
    assert!(
        (rel.scrub_coverage - 1.0).abs() < 1e-9,
        "single full sweep covers all blocks, got {}",
        rel.scrub_coverage
    );
    assert!(rel.latent_repaired > 0, "scrub repaired nothing");
    assert!(rel.latent_repaired <= rel.latent_errors);
    assert_eq!(rel.blocks_lost, 0, "healthy redundancy repairs, not loses");
    assert_replays_identically(&cfg, &trace);
}

#[test]
fn rebuild_surfaces_latent_errors_on_surviving_peers() {
    let trace = lifecycle_trace();
    // Heavy latent marring plus a failure: reconstruction needs every
    // surviving peer, so marred peer blocks become unrecoverable losses.
    let cfg = cfg_with(FaultConfig {
        disk_failure: Some(DiskFailure {
            array: 1,
            disk: 1,
            at_ms: 4_000,
        }),
        spare: true,
        rebuild_rate_mbps: 0,
        latent_rate_per_hour: 5_000.0,
        ..FaultConfig::default()
    });
    let report = Simulator::new(cfg.clone(), &trace).run();
    assert_eq!(report.requests_completed, trace.len() as u64);
    let rel = report.reliability.as_ref().unwrap();
    assert!(rel.latent_errors > 0);
    assert!(
        rel.blocks_lost > 0,
        "marred peer blocks must surface as losses during the rebuild"
    );
    assert!(
        rel.blocks_lost < small_geometry().blocks_per_disk(),
        "only the marred blocks are lost, not the whole disk"
    );
    assert_eq!(rel.health, "data-loss");
    assert_replays_identically(&cfg, &trace);
}

#[test]
fn distributed_sparing_rebuilds_without_consuming_spares() {
    let trace = lifecycle_trace();
    let mk = |sparing: SparingMode| {
        cfg_with(FaultConfig {
            disk_failure: Some(DiskFailure {
                array: 1,
                disk: 1,
                at_ms: 1_000,
            }),
            spare: true,
            spare_count: 1,
            sparing,
            rebuild_rate_mbps: 0,
            ..FaultConfig::default()
        })
    };
    let hot = Simulator::new(mk(SparingMode::Hot), &trace).run();
    let cfg = mk(SparingMode::Distributed);
    let dist = Simulator::new(cfg.clone(), &trace).run();

    let (hr, dr) = (
        hot.reliability.as_ref().unwrap(),
        dist.reliability.as_ref().unwrap(),
    );
    assert_eq!(hr.health, "healthy");
    assert_eq!(dr.health, "healthy");
    assert_eq!(hr.spares_used, 1);
    assert_eq!(dr.spares_used, 0, "distributed sparing consumes no spare");
    assert_eq!(
        dr.spares_available, 3,
        "every array's one-spare pool intact"
    );

    // Same blocks re-protected either way.
    let (hf, df) = (hot.faults.as_ref().unwrap(), dist.faults.as_ref().unwrap());
    assert_eq!(hf.rebuild_blocks, df.rebuild_blocks);
    assert_replays_identically(&cfg, &trace);
}

/// The sparing-policy performance claim: distributed sparing spreads the
/// rebuild writes over the survivors instead of funneling them into one
/// replacement spindle, so on a wide array the unthrottled rebuild is
/// measurably shorter. (Tiny 4-disk arrays don't show it — the write leg
/// is not the bottleneck there — hence the wider geometry here.)
#[test]
fn distributed_sparing_shortens_the_rebuild_on_a_wide_array() {
    let geometry = DiskGeometry {
        cylinders: 20,
        ..DiskGeometry::default()
    };
    let trace = SynthSpec {
        name: "wide".into(),
        seed: 0x51DE,
        n_disks: 10,
        blocks_per_disk: geometry.blocks_per_disk(),
        n_requests: 300,
        duration_secs: 30.0,
        busy_speedup: 1.0,
        ..SynthSpec::trace2()
    }
    .generate();
    let mut rebuild_ms = Vec::new();
    for sparing in [SparingMode::Hot, SparingMode::Distributed] {
        let mut cfg = SimConfig::with_organization(Organization::Raid5 { striping_unit: 1 });
        cfg.geometry = geometry.clone();
        cfg.data_disks_per_array = 10;
        cfg.fault = Some(FaultConfig {
            disk_failure: Some(DiskFailure {
                array: 0,
                disk: 2,
                at_ms: 1_000,
            }),
            spare: true,
            sparing,
            rebuild_rate_mbps: 0,
            ..FaultConfig::default()
        });
        let report = Simulator::new(cfg, &trace).run();
        let f = report.faults.expect("fault engine configured");
        assert_eq!(f.rebuild_blocks, geometry.blocks_per_disk());
        rebuild_ms.push(f.rebuild_ms);
    }
    assert!(
        rebuild_ms[1] < rebuild_ms[0],
        "distributed rebuild {:.1} ms not shorter than hot-spare {:.1} ms",
        rebuild_ms[1],
        rebuild_ms[0]
    );
}

/// Regression: a demo-fleet seed whose VA 0 disk failure used to free a
/// parity job twice (`on_disk_done → try_start → start_op → feed_job →
/// maybe_free_job`) and panic with "double free". The fleet must run to
/// completion and serve every demanded request.
#[test]
fn demo_fleet_failure_does_not_double_free_a_parity_job() {
    let mut fleet = FleetConfig::demo();
    fleet.seed ^= 23u64.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    fleet.duration_secs = 5.0;
    let demand: u64 = fleet
        .tenants
        .iter()
        .map(|t| ((t.demand_iops * fleet.duration_secs).ceil() as u64).max(1))
        .sum();
    let (report, _) = run_fleet(&fleet, 1).expect("demo fleet runs");
    assert_eq!(report.requests_completed, demand);
    assert!(
        !report.blast_radius.is_empty(),
        "the disk failure must degrade at least one tenant"
    );
}
