//! Layer replays for the traced run. Each replay drives one crate's public
//! interface directly with the workload's own generated records, times it,
//! and cross-checks a count so a replay that skipped work cannot pass.

use crate::spans::Spans;
use crate::workloads::{self, FleetInputs, Inputs, Rep};
use diskmodel::{AccessKind, Disk, DiskGeometry, SeekCurve};
use nvcache::{BlockKey, NvCache};
use raidsim::mapping::{OrgMap, StripeMode};
use raidsim::{FleetConfig, FleetPlan, Organization, SimConfig};
use simkit::{EventQueue, SimTime};
use std::collections::BTreeMap;
use std::hint::black_box;
use tracegen::{AccessType, SynthSpec, Trace, TraceRecord};

/// Records mapped per chunk: the mapped accesses of one chunk are replayed
/// through the disk models before the next chunk is mapped, which bounds
/// the replay's memory.
const CHUNK: usize = 1 << 16;
/// Hold operations (one pop plus one schedule) in the event-queue replay.
const QUEUE_HOLDS: u64 = 2_000_000;

/// Run every replay that applies to the traced repetition `rep`, fed from
/// its own inputs, and add the per-layer figures to `m`. Counts that do
/// not cross-check are an error.
pub fn layers(
    rep: &Rep,
    spans: &mut Spans,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let mut map = MapDiskTotals::default();
    let mut cache = CacheTotals::default();
    // Each simulator instance has its own event queue: `queues` of them
    // share the run's events over `sim_ns` of simulated time.
    let (queues, sim_ns) = match &rep.inputs {
        Inputs::T1(trace) => {
            let open = spans.open("replay.mapping+diskmodel");
            let org = Organization::Raid5 { striping_unit: 1 };
            map_and_disk(spans, &MapJob::paper(org, trace), &mut map);
            spans.close(open);
            // Uncached and fault-free, so every mapped access is one
            // operation the simulator dispatched.
            let dispatched = rep.layers["disk.ops"] as u64;
            if map.accesses != dispatched {
                return Err(format!(
                    "mapping replay issued {} accesses; the simulator dispatched {dispatched}",
                    map.accesses
                ));
            }
            (1, trace.duration().as_ns())
        }
        Inputs::T2(traces) => {
            let open = spans.open("replay.mapping+diskmodel");
            for trace in traces {
                for org in workloads::t2_orgs() {
                    map_and_disk(spans, &MapJob::paper(org, trace), &mut map);
                }
            }
            spans.close(open);
            let open = spans.open("replay.nvcache");
            let block_bytes = SimConfig::default().geometry.block_bytes as u64;
            for trace in traces {
                for (mb, ..) in workloads::T2_CACHES {
                    let blocks = nvcache::blocks_for_mb(mb, block_bytes);
                    let name = format!("nvcache {mb} MB");
                    nvcache(spans, &name, blocks, true, &trace.records, &mut cache);
                }
            }
            spans.close(open);
            (
                workloads::t2_orgs().len() * workloads::T2_CACHES.len() * traces.len(),
                traces
                    .iter()
                    .map(|t| t.duration().as_ns())
                    .max()
                    .unwrap_or(0),
            )
        }
        Inputs::Fleet(fleets) => {
            let mut gen_s = 0.0;
            let mut records = 0;
            for FleetInputs {
                fleet,
                plan,
                arrivals,
            } in fleets
            {
                let specs = tenant_specs(fleet, plan);
                let (traces, s) = tenant_traces(spans, &specs);
                gen_s += s;
                records += traces.iter().map(|t| t.len() as u64).sum::<u64>();
                let on_va = |v: usize| (0..specs.len()).filter(move |&t| plan.placement[t] == v);
                for (v, &routed) in arrivals.iter().enumerate() {
                    let replayed: u64 = on_va(v).map(|t| traces[t].len() as u64).sum();
                    if replayed != routed {
                        return Err(format!(
                            "tenant replay gave VA {v} {replayed} records; the fleet routed it {routed}"
                        ));
                    }
                }

                let open = spans.open("replay.mapping+diskmodel");
                for (t, trace) in traces.iter().enumerate() {
                    let va = &plan.vas[plan.placement[t]];
                    let job = MapJob {
                        org: va.organization,
                        n: va.data_disks,
                        geometry: va.config.geometry.clone(),
                        seek: va.config.seek,
                        records: &trace.records,
                    };
                    map_and_disk(spans, &job, &mut map);
                }
                spans.close(open);

                let open = spans.open("replay.nvcache");
                for (v, va) in plan.vas.iter().enumerate() {
                    let Some(c) = va.config.cache else { continue };
                    let mut records: Vec<TraceRecord> = on_va(v)
                        .flat_map(|t| traces[t].records.iter().copied())
                        .collect();
                    records.sort_by_key(|r| r.at);
                    let block_bytes = va.config.geometry.block_bytes as u64;
                    let blocks = nvcache::blocks_for_mb(c.size_mb, block_bytes);
                    let keep_old = va.organization.has_parity();
                    let name = format!("nvcache {}", va.name);
                    nvcache(spans, &name, blocks, keep_old, &records, &mut cache);
                }
                spans.close(open);
            }
            m.insert("tracegen.tenant_generate_s", gen_s);
            m.insert(
                "tracegen.ns_per_record",
                gen_s * 1e9 / records.max(1) as f64,
            );
            let vas: usize = fleets.iter().map(|f| f.plan.vas.len()).sum();
            let fleet_ns = fleets.first().map_or(0.0, |f| f.fleet.duration_secs * 1e9);
            (vas, fleet_ns as u64)
        }
    };
    let generated = match &rep.inputs {
        Inputs::T1(trace) => Some(trace.len()),
        Inputs::T2(traces) => Some(traces.iter().map(Trace::len).sum()),
        Inputs::Fleet(_) => None,
    };
    if let (Some(&gen_s), Some(records)) = (m.get("tracegen.generate_s"), generated) {
        m.insert(
            "tracegen.ns_per_record",
            gen_s * 1e9 / records.max(1) as f64,
        );
    }

    if map.disk_ops != map.accesses {
        return Err(format!(
            "disk replay committed {} operations for {} mapped accesses",
            map.disk_ops, map.accesses
        ));
    }
    let records = map.records.max(1) as f64;
    m.insert("mapping.ns_per_req", map.map_s * 1e9 / records);
    m.insert("disk.ops_per_req", map.accesses as f64 / records);
    m.insert(
        "diskmodel.ns_per_access",
        map.disk_s * 1e9 / map.accesses.max(1) as f64,
    );

    if cache.counted != cache.accesses {
        return Err(format!(
            "cache replay counted {} hits and misses for {} accesses",
            cache.counted, cache.accesses
        ));
    }
    if cache.accesses > 0 {
        m.insert(
            "nvcache.ns_per_access",
            cache.secs * 1e9 / cache.accesses as f64,
        );
    }

    let (events, peak) = rep
        .engine
        .ok_or("traced repetition without engine counters")?;
    let gap_ns = sim_ns * queues as u64 / events.max(1);
    m.insert("simkit.queue_ns_per_op", event_queue(spans, peak, gap_ns)?);
    Ok(())
}

/// One stream of records through one organization's mapping and drives.
struct MapJob<'a> {
    org: Organization,
    /// Logical data disks per array.
    n: u32,
    geometry: DiskGeometry,
    seek: SeekCurve,
    records: &'a [TraceRecord],
}

impl<'a> MapJob<'a> {
    /// `org` over the paper's default array (N = 10, Table 1 drives).
    fn paper(org: Organization, trace: &'a Trace) -> MapJob<'a> {
        let cfg = SimConfig::default();
        MapJob {
            org,
            n: cfg.data_disks_per_array,
            geometry: cfg.geometry,
            seek: cfg.seek,
            records: &trace.records,
        }
    }
}

/// One physical access produced by the mapping.
struct Access {
    at: SimTime,
    disk: u32,
    block: u64,
    nblocks: u32,
    kind: AccessKind,
}

#[derive(Default)]
struct MapDiskTotals {
    records: u64,
    accesses: u64,
    map_s: f64,
    disk_s: f64,
    /// Operations the drives committed: must equal `accesses`.
    disk_ops: u64,
}

/// `OrgMap::read_runs`/`write_plan` over every record (the address rule of
/// the simulator's admission layer), then `Disk::plan` + `commit` over the
/// mapped accesses, chunk by chunk.
fn map_and_disk(spans: &mut Spans, job: &MapJob<'_>, totals: &mut MapDiskTotals) {
    let bpd = job.geometry.blocks_per_disk();
    let map = OrgMap::new(job.org, job.n, bpd);
    let capacity = map.logical_capacity();
    let per_array = map.disks_per_array();
    let arrays = job
        .records
        .iter()
        .map(|r| r.disk / job.n)
        .max()
        .map_or(0, |a| a + 1);
    let mut disks: Vec<Disk> = (0..arrays * per_array)
        .map(|i| Disk::new(job.geometry.clone(), job.seek, i as u64 * 7_919))
        .collect();
    let mut buf: Vec<Access> = Vec::new();
    for chunk in job.records.chunks(CHUNK) {
        let open = spans.open("mapping");
        buf.clear();
        for rec in chunk {
            let array = rec.disk / job.n;
            let laddr = ((rec.disk % job.n) as u64 * bpd + rec.block) % capacity;
            let base = array * per_array;
            let mut push = |run: raidsim::mapping::Run, kind| {
                buf.push(Access {
                    at: rec.at,
                    disk: base + run.disk,
                    block: run.block,
                    nblocks: run.nblocks,
                    kind,
                })
            };
            match rec.kind {
                AccessType::Read => {
                    for run in map.read_runs(laddr, rec.nblocks) {
                        push(run, AccessKind::Read);
                    }
                }
                AccessType::Write => {
                    for stripe in map.write_plan(laddr, rec.nblocks).stripes {
                        let (data, parity) = match stripe.mode {
                            StripeMode::Rmw => (AccessKind::RmwData, AccessKind::RmwParityRead),
                            _ => (AccessKind::Write, AccessKind::Write),
                        };
                        for run in stripe.data {
                            push(run, data);
                        }
                        for run in stripe.extra_reads {
                            push(run, AccessKind::Read);
                        }
                        for run in stripe.parity {
                            push(run, parity);
                        }
                    }
                }
            }
        }
        totals.map_s += spans.close(open);

        let open = spans.open("diskmodel");
        for a in &buf {
            let disk = &mut disks[a.disk as usize];
            let start = a.at.max(disk.busy_until());
            let timing = disk.plan(start, a.block, a.nblocks, a.kind);
            disk.commit(&timing, timing.complete);
        }
        totals.disk_s += spans.close(open);
        totals.records += chunk.len() as u64;
        totals.accesses += buf.len() as u64;
    }
    totals.disk_ops += disks.iter().map(|d| d.ops()).sum::<u64>();
}

#[derive(Default)]
struct CacheTotals {
    accesses: u64,
    secs: f64,
    /// Hits plus misses the cache counted: must equal `accesses`.
    counted: u64,
}

/// `NvCache` probe/insert (reads), write (writes) and a destage sweep each
/// simulated destage period, over time-ordered records.
fn nvcache(
    spans: &mut Spans,
    name: &str,
    capacity_blocks: u64,
    keep_old: bool,
    records: &[TraceRecord],
    totals: &mut CacheTotals,
) {
    let period = SimTime::from_ms(raidsim::CacheConfig::default().destage_period_ms);
    let open = spans.open(name);
    let mut cache = NvCache::new(capacity_blocks as usize);
    let mut next_destage = period;
    let mut keys = Vec::new();
    for rec in records {
        while rec.at >= next_destage {
            for group in cache.collect_destage() {
                cache.destage_complete(&group);
            }
            next_destage += period.as_ns();
        }
        keys.clear();
        keys.extend((0..rec.nblocks as u64).map(|b| BlockKey::new(rec.disk, rec.block + b)));
        match rec.kind {
            AccessType::Read => {
                for key in cache.read_probe(&keys) {
                    black_box(cache.insert_fetched(key));
                }
            }
            AccessType::Write => {
                black_box(cache.write_access(&keys, keep_old));
            }
        }
    }
    totals.secs += spans.close(open);
    let s = cache.stats();
    totals.counted += s.read_hits + s.read_misses + s.write_hits + s.write_misses;
    totals.accesses += records.len() as u64;
}

/// `EventQueue` hold model at a fixed depth: fill to `depth`, then pop the
/// earliest event and schedule one later, `QUEUE_HOLDS` times. Returns
/// nanoseconds per queue operation.
fn event_queue(spans: &mut Spans, depth: usize, mean_gap_ns: u64) -> Result<f64, String> {
    let mut rng = 0x2545_F491_4F6C_DD1D_u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let depth = depth.max(1);
    let horizon = (2 * depth as u64 * mean_gap_ns.max(1)).max(2);
    let mut queue: EventQueue<u32> = EventQueue::with_capacity(depth);
    for i in 0..depth {
        queue.schedule(SimTime::from_ns(next() % horizon), i as u32);
    }
    let open = spans.open("simkit.queue");
    let mut last = SimTime::ZERO;
    let mut ordered = true;
    for _ in 0..QUEUE_HOLDS {
        let Some((at, ev)) = queue.pop() else { break };
        ordered &= at >= last;
        last = at;
        queue.schedule(at + next() % horizon, ev);
    }
    let secs = spans.close(open);
    let mut drained = 0;
    while let Some((at, _)) = queue.pop() {
        ordered &= at >= last;
        last = at;
        drained += 1;
    }
    if !ordered || drained != depth {
        return Err(format!(
            "event queue replay: {drained} of {depth} events drained, in order: {ordered}"
        ));
    }
    Ok(secs * 1e9 / (2 * QUEUE_HOLDS) as f64)
}

/// Each tenant's substream spec, as the fleet runner builds it: the Trace 2
/// shape re-skinned with the tenant's demand, skew and write mix over its
/// virtual array's span, seeded from the fleet seed and the tenant index.
fn tenant_specs(fleet: &FleetConfig, plan: &FleetPlan) -> Vec<SynthSpec> {
    fleet
        .tenants
        .iter()
        .enumerate()
        .map(|(t, tenant)| {
            let va = &plan.vas[plan.placement[t]];
            let mut spec = SynthSpec::trace2();
            spec.name = tenant.id.clone();
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
        })
        .collect()
}

/// Generate every tenant's substream through `SynthSpec::generate`, one
/// span each.
fn tenant_traces(spans: &mut Spans, specs: &[SynthSpec]) -> (Vec<Trace>, f64) {
    let open = spans.open("tracegen.tenant_generate");
    let traces = specs
        .iter()
        .map(|spec| {
            spans
                .time(&format!("generate {}", spec.name), || spec.generate())
                .0
        })
        .collect();
    (traces, spans.close(open))
}
