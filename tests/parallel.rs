//! Parallel-execution fidelity. A single simulation always runs
//! serially; the only parallelism is the work-stealing pool that sweeps
//! and fleets share, which runs whole independent simulations side by
//! side. Its output must be *byte identical* to a serial run at every
//! thread count, because the determinism guarantee (tests/determinism.rs)
//! is what makes the paper's organization comparisons meaningful.
//!
//! Each fleet job generates and merges the arrival stream of one virtual
//! array, so every tenant's records must reach its VA exactly once at
//! every thread count. (The per-VA merge itself is property-tested
//! against a stable-sort reference in `raidsim::fleet::run`.)

/// Work-stealing whole virtual arrays must reproduce the serial fleet
/// bytes. The built-in demo fleet is the acceptance scenario — 16 VAs
/// cycling all five organizations over two disk classes, six tenants, and
/// a mid-run disk failure on va00 — so this pins byte-identity for the
/// full heterogeneous matrix at 2, 3, and 8 VA-level threads, RunStats
/// included. Every tenant's arrivals land in its own VA, so the VAs'
/// arrival shares add up to the tenants' demanded record count.
#[test]
fn fleet_parallel_matches_serial_bytes_at_every_thread_count() {
    let fleet = raidsim::FleetConfig::demo();
    let (serial_report, serial_stats) =
        raidsim::run_fleet(&fleet, 1).expect("the demo fleet runs serially");
    let demanded: u64 = fleet
        .tenants
        .iter()
        .map(|t| ((t.demand_iops * fleet.duration_secs).ceil() as u64).max(1))
        .sum();
    let owned: u64 = serial_stats
        .partitions
        .iter()
        .map(|p| p.arrivals_owned)
        .sum();
    assert_eq!(serial_stats.partitions.len(), fleet.arrays.len());
    assert_eq!(
        owned, demanded,
        "the fleet must neither drop nor duplicate an arrival"
    );
    let serial = format!("{serial_report:#?}\n{serial_stats:#?}");
    for threads in [2, 3, 8] {
        let (report, stats) =
            raidsim::run_fleet(&fleet, threads).expect("the demo fleet runs in parallel");
        let par = format!("{report:#?}\n{stats:#?}");
        assert_eq!(
            par, serial,
            "fleet run at {threads} threads diverged from serial"
        );
    }
}
