//! Parallel-execution fidelity. A single simulation always runs
//! serially; the only parallelism is the work-stealing pool that sweeps
//! and fleets share, which runs whole independent simulations side by
//! side. Its output must be *byte identical* to a serial run at every
//! thread count, because the determinism guarantee (tests/determinism.rs)
//! is what makes the paper's organization comparisons meaningful.
//!
//! The fleet splits one routed arrival stream by virtual array before it
//! simulates anything, so the split itself must be exact: no record lost,
//! duplicated, or reordered.

/// A pre-split arrival feed is sound only if the split is an *exact*
/// partition of the global trace: every record lands in exactly one
/// group (no loss, no duplication), groups preserve global arrival
/// order, and each record lands in the group its array's owner mapping
/// names. Exercised over random traces and contiguous array→group
/// mappings (the shape of the fleet's VA spans), across array counts and
/// group counts.
mod presplit_prop {
    use proptest::prelude::*;
    use simkit::SimTime;
    use tracegen::{AccessType, Trace, TraceRecord};

    /// Arrays in contiguous, balanced ranges: `threads` clamped to the
    /// array count, remainder spread one-per-range from the front.
    fn owner_of(arrays: u32, threads: usize) -> Vec<usize> {
        let nparts = threads.min(arrays as usize);
        let base = arrays as usize / nparts;
        let extra = arrays as usize % nparts;
        let mut owners = Vec::with_capacity(arrays as usize);
        for p in 0..nparts {
            let width = base + usize::from(p < extra);
            owners.extend(std::iter::repeat_n(p, width));
        }
        owners
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn split_is_an_exact_ordered_partition(
            raw in proptest::collection::vec((0u64..20_000, 0u32..130), 0..200),
            dpa in 1u32..=13,
            threads in 1usize..=16,
        ) {
            let n_disks = 130u32;
            let arrays = n_disks.div_ceil(dpa);
            let mut trace = Trace::new(n_disks, 226_800);
            let mut now = SimTime::ZERO;
            for (gap_us, disk) in raw {
                now += gap_us * 1_000;
                trace.records.push(TraceRecord {
                    at: now,
                    disk,
                    block: 0,
                    nblocks: 1,
                    kind: AccessType::Read,
                });
            }
            let owners = owner_of(arrays, threads);
            let nparts = threads.min(arrays as usize);
            let split = trace.split_arrivals(nparts, |r| owners[(r.disk / dpa) as usize]);

            // Exactly one group per record, preserving global order within
            // each group — merging the groups back in index order must
            // reproduce 0..len with no loss or duplication.
            let mut seen = vec![0u32; trace.len()];
            for g in 0..nparts {
                let idxs = split.group(g);
                prop_assert!(
                    idxs.windows(2).all(|w| w[0] < w[1]),
                    "group {g} reordered records: {idxs:?}"
                );
                for &i in idxs {
                    seen[i as usize] += 1;
                    let rec = &trace.records[i as usize];
                    prop_assert_eq!(
                        owners[(rec.disk / dpa) as usize], g,
                        "record {} (disk {}) landed in group {} instead of its owner",
                        i, rec.disk, g
                    );
                }
            }
            prop_assert!(
                seen.iter().all(|&c| c == 1),
                "lost or duplicated records: {seen:?}"
            );
        }
    }
}

/// Work-stealing whole virtual arrays must reproduce the serial fleet
/// bytes. The built-in demo fleet is the acceptance scenario — 16 VAs
/// cycling all five organizations over two disk classes, six tenants, and
/// a mid-run disk failure on va00 — so this pins byte-identity for the
/// full heterogeneous matrix at 2, 3, and 8 VA-level threads, RunStats
/// included. Every routed arrival lands in exactly one VA, so the VAs'
/// arrival shares add up to the routed record count.
#[test]
fn fleet_parallel_matches_serial_bytes_at_every_thread_count() {
    let fleet = raidsim::FleetConfig::demo();
    let (serial_report, serial_stats) =
        raidsim::run_fleet(&fleet, 1).expect("the demo fleet runs serially");
    let routed: u64 = fleet
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
        owned, routed,
        "fleet routing must neither drop nor duplicate an arrival"
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
