//! Fleet execution: one job per virtual array, run serially or in
//! parallel, merged in VA index order.
//!
//! Every tenant is placed on exactly one VA, so a VA's arrival stream is
//! the merge of its own tenants' substreams and nothing else. Each VA job
//! generates those substreams (each a pure function of its own seeded
//! spec, already in VA-local disk numbering), merges them, drops them,
//! and simulates. No fleet-wide trace is ever built.
//!
//! Virtual arrays share no simulator state, so whole VAs are the jobs of
//! the sweep's work-stealing pool (`sweep::ordered_map`). The pool returns
//! results in VA index order regardless of completion order, which makes
//! the parallel fleet run byte-identical to the serial one.
//!
//! Warm-start pools are shared per **disk class**: every VA's `SimConfig`
//! carries the fleet seed and its class's geometry and seek curve, which
//! are exactly the parameters [`WarmDisks::matches`] checks, so one pool
//! per class warm-starts every VA of that class (cold fallback remains
//! byte-identical by the single-array warm-start contract).

use super::alloc::{allocate, FleetPlan, VaPlan};
use super::config::FleetConfig;
use super::report::{FleetReport, VaOutcome};
use crate::sim::{RunStats, Simulator, WarmDisks};
use crate::sweep::ordered_map;
use tracegen::{SynthSpec, Trace};

/// Tenant `t`'s substream spec: the Trace-2 OLTP shape re-skinned with the
/// tenant's demand, skew, and write mix over its VA's data disks.
fn tenant_spec(fleet: &FleetConfig, plan: &FleetPlan, t: usize) -> SynthSpec {
    let tenant = &fleet.tenants[t];
    let va = &plan.vas[plan.placement[t]];
    let mut spec = SynthSpec::trace2();
    spec.name = tenant.id.clone();
    // Per-tenant seed: the fleet seed mixed with the tenant index through
    // the golden-ratio increment, so substreams are decorrelated but every
    // VA's trace stays a pure function of (spec, fleet seed).
    spec.seed = fleet
        .seed
        .wrapping_add((t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    spec.n_disks = va.data_disks;
    spec.blocks_per_disk = va.config.geometry.blocks_per_disk();
    spec.duration_secs = fleet.duration_secs;
    spec.n_requests = ((tenant.demand_iops * fleet.duration_secs).ceil() as usize).max(1);
    spec.write_fraction = tenant.write_fraction;
    spec.disk_skew_theta = tenant.skew;
    spec
}

/// Merge one VA's tenant substreams into its arrival stream and tag every
/// record with the class listed beside its substream. Each substream must
/// be sorted by arrival time, as [`SynthSpec::generate`] returns it.
///
/// **Tie rule.** Records merge on (arrival time, tenant index, generated
/// order): on equal timestamps the tenant listed earlier in `subs` wins,
/// and within one substream records keep their generated order. The
/// runner lists a VA's tenants in placement order, which is ascending
/// tenant index (the planner places tenants in declaration order). The
/// substreams are consumed, so they are freed before the simulation
/// starts.
fn merge_tenants(n_disks: u32, blocks_per_disk: u64, subs: Vec<(u16, Trace)>) -> (Trace, Vec<u16>) {
    let total: usize = subs.iter().map(|(_, t)| t.len()).sum();
    let mut trace = Trace::new(n_disks, blocks_per_disk);
    trace.records.reserve_exact(total);
    let mut classes = Vec::with_capacity(total);
    // K-way merge: `pos[k]` is the cursor into substream `k`; the strict
    // `<` keeps the earliest-listed substream on a tie.
    let mut pos = vec![0usize; subs.len()];
    loop {
        let mut best: Option<usize> = None;
        for (k, (_, t)) in subs.iter().enumerate() {
            let Some(r) = t.records.get(pos[k]) else {
                continue;
            };
            if best.is_none_or(|b| r.at < subs[b].1.records[pos[b]].at) {
                best = Some(k);
            }
        }
        let Some(k) = best else {
            break;
        };
        trace.records.push(subs[k].1.records[pos[k]]);
        classes.push(subs[k].0);
        pos[k] += 1;
    }
    (trace, classes)
}

/// One VA's job: generate its tenants' substreams, merge them, and
/// simulate the result, warm-started from its class pool.
fn run_va(
    fleet: &FleetConfig,
    plan: &FleetPlan,
    v: usize,
    warm: &WarmDisks,
) -> Result<VaOutcome, String> {
    let va = &plan.vas[v];
    // Class `k` is the VA's `k`-th tenant: the simulator tracks only the
    // tenants it hosts.
    let subs = va
        .tenants
        .iter()
        .enumerate()
        .map(|(k, &t)| (k as u16, tenant_spec(fleet, plan, t).generate()))
        .collect();
    let bpd = va.config.geometry.blocks_per_disk();
    let (trace, classes) = merge_tenants(va.data_disks, bpd, subs);
    let mut sim = Simulator::try_new_warm(va.config.clone(), &trace, warm)?;
    sim.set_classes(classes, va.tenants.len() as u16)?;
    let (report, stats, classes) = sim.run_classed();
    Ok(VaOutcome {
        report,
        stats,
        classes,
        arrivals: trace.len() as u64,
    })
}

/// Plan and simulate the whole fleet, one job per VA, `threads`-wide (`0`
/// uses the machine's available parallelism; `1` is fully serial). Any
/// thread count returns byte-identical results.
pub fn run_fleet(fleet: &FleetConfig, threads: usize) -> Result<(FleetReport, RunStats), String> {
    let plan = allocate(fleet)?;

    // One warm pool per disk class, sized for the class's largest VA.
    let mut pools: Vec<(&str, u32, WarmDisks)> = Vec::new();
    for va in &plan.vas {
        let size = va.config.total_disks(va.data_disks);
        match pools.iter_mut().find(|(name, ..)| *name == va.disk_class) {
            Some(p) if p.1 >= size => {}
            Some(p) => *p = (&va.disk_class, size, WarmDisks::new(&va.config, size)),
            None => pools.push((&va.disk_class, size, WarmDisks::new(&va.config, size))),
        }
    }
    #[expect(clippy::expect_used, reason = "every VA's class was pooled above")]
    let pool_of = |va: &VaPlan| {
        pools
            .iter()
            .find(|(name, ..)| *name == va.disk_class)
            .map(|(.., w)| w)
            .expect("class pool exists")
    };

    let results = ordered_map(plan.vas.len(), threads, |v| {
        run_va(fleet, &plan, v, pool_of(&plan.vas[v]))
    });
    // Merge in VA index order — completion order never leaks into the
    // report, which is what keeps every thread count byte-identical.
    let outcomes = results
        .into_iter()
        .zip(&plan.vas)
        .map(|(r, va)| r.map_err(|e| format!("virtual array {:?}: {e}", va.name)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(FleetReport::assemble(fleet, &plan, outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simkit::SimTime;
    use tracegen::{AccessType, TraceRecord};

    /// FNV-1a 64 over each record's fields, with the record count.
    fn tenant_digest(t: usize) -> String {
        let mut fleet = FleetConfig::demo();
        fleet.duration_secs = 60.0;
        let plan = allocate(&fleet).unwrap();
        let trace = tenant_spec(&fleet, &plan, t).generate();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in &trace.records {
            let fields = [
                &r.at.as_ns().to_le_bytes()[..],
                &r.disk.to_le_bytes(),
                &r.block.to_le_bytes(),
                &r.nblocks.to_le_bytes(),
                &[r.is_read() as u8],
            ];
            for b in fields.concat() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        format!("{:016x}/{}", h, trace.len())
    }

    /// The demo fleet's first tenant substream is pinned record for record:
    /// tenant generation is the bulk of a fleet run, and its draw sequence
    /// must not drift.
    #[test]
    fn demo_tenant_stream_is_pinned() {
        assert_eq!(tenant_digest(0), "b478882137fa100a/5400");
    }

    /// The `batch` tenant (80% writes) makes the most write-after-read
    /// draws of any demo tenant, retries included, so it exercises the
    /// geometric stack-distance draw hardest.
    #[test]
    fn demo_batch_tenant_stream_is_pinned() {
        assert_eq!(FleetConfig::demo().tenants[2].id, "batch");
        assert_eq!(tenant_digest(2), "18372fdd7ec46570/3000");
    }

    fn tiny_trace(seed: u64, n_disks: u32, n_requests: usize) -> Trace {
        let mut s = SynthSpec::trace2();
        s.seed = seed;
        s.n_disks = n_disks;
        s.n_requests = n_requests;
        s.duration_secs = n_requests as f64 * 0.01;
        s.generate()
    }

    /// The reference merge: the tenants' substreams concatenated in tenant
    /// order, stable-sorted by arrival time, each record tagged with its
    /// tenant.
    fn reference(subs: &[(u16, Trace)]) -> (Vec<TraceRecord>, Vec<u16>) {
        let mut all: Vec<(TraceRecord, u16)> = subs
            .iter()
            .flat_map(|(t, trace)| trace.records.iter().map(move |&r| (r, *t)))
            .collect();
        all.sort_by_key(|(r, _)| r.at);
        all.into_iter().unzip()
    }

    #[test]
    fn merge_is_time_sorted_and_complete() {
        let subs = vec![(0, tiny_trace(1, 4, 200)), (1, tiny_trace(2, 4, 300))];
        let (trace, classes) = merge_tenants(4, 226_800, subs);
        assert_eq!(trace.len(), 500);
        assert_eq!(classes.len(), 500);
        assert!(trace.validate().is_ok());
        assert!(trace.records.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(classes.iter().filter(|&&c| c == 0).count(), 200);
    }

    #[test]
    fn merge_is_deterministic() {
        let subs = || vec![(0, tiny_trace(7, 3, 150)), (1, tiny_trace(8, 3, 150))];
        let a = merge_tenants(3, 226_800, subs());
        let b = merge_tenants(3, 226_800, subs());
        assert_eq!(a, b);
    }

    /// Three tenants arriving at the same instants merge in tenant order,
    /// each tenant's records in generated order.
    #[test]
    fn ties_across_three_tenants_follow_tenant_order() {
        let sub = |tenant: u16| {
            let mut trace = Trace::new(2, 100);
            for (i, ms) in [0, 0, 5].into_iter().enumerate() {
                trace.records.push(TraceRecord {
                    at: SimTime::from_ms(ms),
                    disk: 0,
                    block: tenant as u64 * 10 + i as u64,
                    nblocks: 1,
                    kind: AccessType::Write,
                });
            }
            (tenant, trace)
        };
        let (trace, classes) = merge_tenants(2, 100, vec![sub(1), sub(4), sub(6)]);
        let blocks: Vec<u64> = trace.records.iter().map(|r| r.block).collect();
        assert_eq!(blocks, [10, 11, 40, 41, 60, 61, 12, 42, 62]);
        assert_eq!(classes, [1, 1, 4, 4, 6, 6, 1, 4, 6]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The k-way merge equals the reference on random substreams of up
        /// to five tenants. Arrival gaps of 0–2 ms force equal timestamps
        /// within and across tenants, and gaps between tenant indices
        /// mimic a VA hosting a subset of the fleet's tenants.
        #[test]
        fn merge_matches_the_stable_sort_reference(
            raw in proptest::collection::vec(
                (1u16..4, proptest::collection::vec((0u64..3, 0u32..4), 0..40)),
                0..6,
            ),
        ) {
            let mut tenant = 0u16;
            let mut serial = 0u64;
            let subs: Vec<(u16, Trace)> = raw
                .into_iter()
                .map(|(step, recs)| {
                    tenant += step;
                    let mut trace = Trace::new(4, 1_000);
                    let mut now = SimTime::ZERO;
                    for (gap_ms, disk) in recs {
                        now += gap_ms * 1_000_000;
                        // A unique block makes every record distinguishable,
                        // so a reordered tie shows.
                        serial += 1;
                        trace.records.push(TraceRecord {
                            at: now,
                            disk,
                            block: serial,
                            nblocks: 1,
                            kind: AccessType::Read,
                        });
                    }
                    (tenant, trace)
                })
                .collect();
            let (records, classes) = reference(&subs);
            let (trace, merged_classes) = merge_tenants(4, 1_000, subs);
            prop_assert_eq!((trace.n_disks, trace.blocks_per_disk), (4, 1_000));
            prop_assert_eq!(trace.records, records);
            prop_assert_eq!(merged_classes, classes);
        }
    }

    #[test]
    fn small_fleet_runs_end_to_end() {
        let fleet = FleetConfig::small();
        let (report, stats) = run_fleet(&fleet, 1).unwrap();
        assert_eq!(report.vas.len(), fleet.arrays.len());
        assert_eq!(report.tenants.len(), fleet.tenants.len());
        assert!(report.requests_completed > 0);
        assert!(stats.events_processed > 0);
        // Every generated record lands in exactly one VA's feed.
        let owned: u64 = stats.partitions.iter().map(|p| p.arrivals_owned).sum();
        let demand: usize = fleet
            .tenants
            .iter()
            .map(|t| ((t.demand_iops * fleet.duration_secs).ceil() as usize).max(1))
            .sum();
        assert_eq!(
            owned as usize, demand,
            "the VA merge must neither drop nor duplicate arrivals"
        );
    }

    #[test]
    fn parallel_fleet_matches_serial_bytes() {
        let fleet = FleetConfig::small();
        let serial = format!("{:#?}", run_fleet(&fleet, 1).unwrap().0);
        for threads in [2, 3] {
            let par = format!("{:#?}", run_fleet(&fleet, threads).unwrap().0);
            assert_eq!(par, serial, "fleet diverged at {threads} threads");
        }
    }

    /// Each tenant's report is read straight from the class report of the
    /// one VA hosting it, and each VA's simulator tracks exactly its own
    /// tenants. The demo places several tenants on some VAs and none on
    /// others, and degrades va00 mid-run.
    #[test]
    fn tenant_reports_are_their_va_class_reports() {
        let fleet = FleetConfig::demo();
        let plan = allocate(&fleet).unwrap();
        let (report, _) = run_fleet(&fleet, 2).unwrap();
        assert!(plan.vas.iter().any(|va| va.tenants.len() > 1));
        for (v, va) in plan.vas.iter().enumerate() {
            let warm = WarmDisks::new(&va.config, va.config.total_disks(va.data_disks));
            let o = run_va(&fleet, &plan, v, &warm).unwrap();
            assert_eq!(o.classes.len(), va.tenants.len(), "{}", va.name);
            let completed: u64 = o.classes.iter().map(|c| c.completed).sum();
            assert_eq!(completed, o.report.requests_completed, "{}", va.name);
            for (&t, c) in va.tenants.iter().zip(&o.classes) {
                let tr = &report.tenants[t];
                assert_eq!(tr.id, fleet.tenants[t].id);
                assert_eq!(tr.va, va.name);
                assert_eq!(tr.completed, c.completed);
                assert_eq!(c.histogram_ms.count(), c.completed);
                assert_eq!(
                    format!("{:?}", tr.response_ms),
                    format!("{:?}", c.response_ms)
                );
                assert_eq!(tr.p99_ms.to_bits(), c.p99_ms().to_bits());
            }
        }
    }

    #[test]
    fn every_tenant_reports_completions() {
        let fleet = FleetConfig::small();
        let (report, _) = run_fleet(&fleet, 2).unwrap();
        for t in &report.tenants {
            assert!(t.completed > 0, "tenant {} completed nothing", t.id);
            assert!(t.p99_ms > 0.0);
        }
    }
}
