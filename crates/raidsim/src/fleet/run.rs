//! Fleet execution: route tenant substreams, pre-split by virtual array,
//! simulate VAs serially or in parallel, merge in VA index order.
//!
//! Virtual arrays share no simulator state (each is its own `Simulator`
//! over its own pre-split arrival feed), so whole VAs are the jobs of the
//! sweep's work-stealing pool (`sweep::ordered_map`). The pool returns
//! results in VA index order regardless of completion order, which makes
//! the parallel fleet run byte-identical to the serial one.
//!
//! Warm-start pools are shared per **disk class**: every VA's `SimConfig`
//! carries the fleet seed and its class's geometry and seek curve, which
//! are exactly the parameters [`WarmDisks::matches`] checks, so one pool
//! per class warm-starts every VA of that class (cold fallback remains
//! byte-identical by the single-array warm-start contract).

use super::alloc::{allocate, FleetPlan};
use super::config::FleetConfig;
use super::report::{FleetReport, VaOutcome};
use crate::config::SimConfig;
use crate::sim::{RunStats, Simulator, WarmDisks};
use crate::sweep::ordered_map;
use tracegen::{route, SynthSpec, TenantStream, Trace};

/// One virtual array's ready-to-run inputs.
pub(super) struct VaJob {
    config: SimConfig,
    /// The VA's arrivals in VA-local disk numbering.
    trace: Trace,
    /// Per-record tenant index (the request class).
    classes: Vec<u16>,
}

/// Build tenant `t`'s substream spec: the Trace-2 OLTP shape re-skinned
/// with the tenant's demand, skew, and write mix over its VA's span.
fn tenant_substream(fleet: &FleetConfig, plan: &FleetPlan, t: usize) -> TenantStream {
    let tenant = &fleet.tenants[t];
    let va = &plan.vas[plan.placement[t]];
    let mut spec = SynthSpec::trace2();
    spec.name = tenant.id.clone();
    // Per-tenant seed: the fleet seed mixed with the tenant index through
    // the golden-ratio increment, so substreams are decorrelated but the
    // whole fleet trace stays a pure function of (spec, fleet seed).
    spec.seed = fleet
        .seed
        .wrapping_add((t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    spec.n_disks = va.data_disks;
    spec.blocks_per_disk = va.config.geometry.blocks_per_disk();
    spec.duration_secs = fleet.duration_secs;
    spec.n_requests = ((tenant.demand_iops * fleet.duration_secs).ceil() as usize).max(1);
    spec.write_fraction = tenant.write_fraction;
    spec.disk_skew_theta = tenant.skew;
    TenantStream {
        tenant: t as u16,
        base_disk: va.base_disk,
        spec,
    }
}

/// Route every tenant substream into the master stream and materialize one
/// pre-split job per VA (records re-based to VA-local disk numbering, each
/// tagged with its tenant class).
fn build_jobs(fleet: &FleetConfig, plan: &FleetPlan) -> Result<Vec<VaJob>, String> {
    let streams: Vec<TenantStream> = (0..fleet.tenants.len())
        .map(|t| tenant_substream(fleet, plan, t))
        .collect();
    let routed = route(plan.total_logical_disks, plan.max_blocks_per_disk, &streams)?;

    // Fleet-global disk → owning VA.
    let mut owner = vec![0usize; plan.total_logical_disks as usize];
    for (v, va) in plan.vas.iter().enumerate() {
        for d in va.base_disk..va.base_disk + va.data_disks {
            owner[d as usize] = v;
        }
    }
    let mut split = routed
        .master
        .split_arrivals(plan.vas.len(), |r| owner[r.disk as usize]);

    let jobs = plan
        .vas
        .iter()
        .enumerate()
        .map(|(v, va)| {
            let indices = split.take_group(v);
            let mut trace = Trace::new(va.data_disks, va.config.geometry.blocks_per_disk());
            trace.records.reserve(indices.len());
            let mut classes = Vec::with_capacity(indices.len());
            for &i in &indices {
                let mut r = routed.master.records[i as usize];
                r.disk -= va.base_disk;
                trace.records.push(r);
                classes.push(routed.tenant_of[i as usize]);
            }
            VaJob {
                config: va.config.clone(),
                trace,
                classes,
            }
        })
        .collect();
    Ok(jobs)
}

/// Simulate one VA job (warm-started from its class pool) and collect its
/// outcome.
fn run_job(job: &VaJob, warm: &WarmDisks, n_tenants: u16) -> Result<VaOutcome, String> {
    let mut sim = Simulator::try_new_warm(job.config.clone(), &job.trace, warm)?;
    sim.set_classes(job.classes.clone(), n_tenants)?;
    let (report, stats, classes) = sim.run_classed();
    Ok(VaOutcome {
        report,
        stats,
        classes,
        arrivals: job.trace.len() as u64,
    })
}

/// Plan, route, and simulate the whole fleet, `threads`-wide (`0` uses the
/// machine's available parallelism; `1` is fully serial). Any thread count
/// returns byte-identical results.
pub fn run_fleet(fleet: &FleetConfig, threads: usize) -> Result<(FleetReport, RunStats), String> {
    let plan = allocate(fleet)?;
    let jobs = build_jobs(fleet, &plan)?;
    let n_tenants = fleet.tenants.len() as u16;

    // One warm pool per disk class, sized for the class's largest VA.
    let mut pools: Vec<(String, u32, WarmDisks)> = Vec::new();
    for (v, va) in plan.vas.iter().enumerate() {
        let size = jobs[v].config.total_disks(va.data_disks);
        match pools.iter_mut().find(|(name, ..)| *name == va.disk_class) {
            Some(p) if p.1 >= size => {}
            Some(p) => {
                p.1 = size;
                p.2 = WarmDisks::new(&jobs[v].config, size);
            }
            None => pools.push((
                va.disk_class.clone(),
                size,
                WarmDisks::new(&jobs[v].config, size),
            )),
        }
    }
    #[expect(clippy::expect_used, reason = "every VA's class was pooled above")]
    let pool_of = |va: &super::alloc::VaPlan| {
        pools
            .iter()
            .find(|(name, ..)| *name == va.disk_class)
            .map(|(.., w)| w)
            .expect("class pool exists")
    };

    let results = ordered_map(jobs.len(), threads, |v| {
        run_job(&jobs[v], pool_of(&plan.vas[v]), n_tenants)
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

    /// FNV-1a 64 over each record's fields, with the record count.
    fn tenant_digest(t: usize) -> String {
        let mut fleet = FleetConfig::demo();
        fleet.duration_secs = 60.0;
        let plan = allocate(&fleet).unwrap();
        let trace = tenant_substream(&fleet, &plan, t).spec.generate();
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

    #[test]
    fn small_fleet_runs_end_to_end() {
        let fleet = FleetConfig::small();
        let (report, stats) = run_fleet(&fleet, 1).unwrap();
        assert_eq!(report.vas.len(), fleet.arrays.len());
        assert_eq!(report.tenants.len(), fleet.tenants.len());
        assert!(report.requests_completed > 0);
        assert!(stats.events_processed > 0);
        // Every routed record lands in exactly one VA's feed.
        let owned: u64 = stats.partitions.iter().map(|p| p.arrivals_owned).sum();
        let demand: usize = fleet
            .tenants
            .iter()
            .map(|t| ((t.demand_iops * fleet.duration_secs).ceil() as usize).max(1))
            .sum();
        assert_eq!(
            owned as usize, demand,
            "router must neither drop nor duplicate arrivals"
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
