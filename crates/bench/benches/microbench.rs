//! Criterion microbenchmarks of the simulator's hot paths: the event queue,
//! disk service computation, address mapping, cache operations, trace
//! generation, and end-to-end simulation rate.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use diskmodel::{AccessKind, Disk, DiskGeometry, SeekCurve};
use nvcache::{BlockKey, NvCache};
use raidsim::mapping::{OrgMap, PlanBuf, PlanMark};
use raidsim::{Organization, ParityPlacement, SimConfig, Simulator};
use rand::SeedableRng;
use simkit::{EventQueue, SimTime};
use tracegen::sampler::geometric_trunc;
use tracegen::{AccessType, StreamRng, SynthSpec};

/// Pending events the simulator's future-event list typically holds (one
/// completion per busy disk, destage ticks, staged issues): tens, not
/// thousands.
const QUEUE_DEPTH: u64 = 40;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(10_000));
    // Hold model at simulator depth: keep QUEUE_DEPTH events pending and
    // run 10k pop-then-reschedule steps at pseudo-random future offsets.
    g.bench_function("hold_depth40_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(QUEUE_DEPTH as usize);
            // Deterministic pseudo-random delays, up to ~1 ms.
            let mut x = 0x12345u64;
            let mut delay = || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 44
            };
            for i in 0..QUEUE_DEPTH {
                q.schedule(SimTime::from_ns(delay()), i);
            }
            let mut last = SimTime::ZERO;
            for _ in 0..10_000 {
                let Some((at, i)) = q.pop() else { break };
                debug_assert!(at >= last);
                last = at;
                q.schedule(SimTime::from_ns(at.as_ns() + delay()), i);
            }
            black_box(last)
        })
    });
    g.finish();
}

fn bench_disk_plan(c: &mut Criterion) {
    let disk = Disk::new(DiskGeometry::default(), SeekCurve::table1(), 0);
    let mut g = c.benchmark_group("disk");
    g.bench_function("plan_read", |b| {
        let mut block = 0u64;
        b.iter(|| {
            block = (block + 9973) % 226_000;
            black_box(disk.plan(SimTime::from_ms(5), block, 1, AccessKind::Read))
        })
    });
    g.bench_function("plan_rmw", |b| {
        let mut block = 0u64;
        b.iter(|| {
            block = (block + 9973) % 226_000;
            black_box(disk.plan(SimTime::from_ms(5), block, 1, AccessKind::RmwParityRead))
        })
    });
    g.finish();
}

fn bench_mapping(c: &mut Criterion) {
    let maps = [
        ("base", OrgMap::new(Organization::Base, 10, 226_800)),
        (
            "raid5_su1",
            OrgMap::new(Organization::Raid5 { striping_unit: 1 }, 10, 226_800),
        ),
        (
            "raid5_su8",
            OrgMap::new(Organization::Raid5 { striping_unit: 8 }, 10, 226_800),
        ),
        (
            "parstrip",
            OrgMap::new(
                Organization::ParityStriping {
                    placement: ParityPlacement::Middle,
                },
                10,
                226_800,
            ),
        ),
    ];
    let mut g = c.benchmark_group("mapping");
    for (name, map) in &maps {
        let cap = map.logical_capacity();
        g.bench_function(format!("write_plan_{name}"), |b| {
            let mut laddr = 0u64;
            b.iter(|| {
                laddr = (laddr + 104_729) % (cap - 4);
                black_box(map.write_plan(laddr, 4))
            })
        });
    }
    // The simulator's form: RAID5 planned into one reused flat buffer.
    let raid5 = &maps[1].1;
    let cap = raid5.logical_capacity();
    g.bench_function("write_plan_into", |b| {
        let mut plan = PlanBuf::default();
        let mut laddr = 0u64;
        b.iter(|| {
            laddr = (laddr + 104_729) % (cap - 4);
            plan.truncate(PlanMark::default());
            raid5.write_plan_into(laddr, 4, &mut plan);
            black_box(plan.runs.len())
        })
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("nvcache");
    g.throughput(Throughput::Elements(1));
    g.bench_function("mixed_ops", |b| {
        let mut cache = NvCache::new(4096);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(2654435761);
            let key = BlockKey::new((i % 10) as u32, (i >> 8) % 100_000);
            if i.is_multiple_of(4) {
                black_box(cache.write_access(&[key], true));
            } else {
                let missing = cache.read_probe(&[key]);
                for k in missing {
                    black_box(cache.insert_fetched(k));
                }
            }
        })
    });
    // Trace 2 replayed through one cache the way a cached array drives it
    // (probe + fetch on reads, write with old copies, a destage sweep each
    // simulated second), below the working set and above it. 4 MB keeps
    // its nodes and index in L2; 256 MB holds the whole working set, whose
    // nodes and index (about 3.5 MiB) outgrow a 2 MiB L2.
    let trace = SynthSpec::trace2().generate();
    g.throughput(Throughput::Elements(trace.len() as u64));
    for mb in [4u64, 256] {
        let blocks = nvcache::blocks_for_mb(mb, 4096) as usize;
        g.bench_function(format!("trace2_replay_{mb}mb"), |b| {
            b.iter(|| {
                let mut cache = NvCache::new(blocks);
                let (mut missing, mut evictions, mut groups) = (Vec::new(), Vec::new(), Vec::new());
                let mut next_destage = SimTime::from_ms(1_000);
                for rec in &trace.records {
                    while rec.at >= next_destage {
                        groups.clear();
                        cache.collect_destage_into(&mut groups);
                        for g in &groups {
                            cache.destage_complete(g);
                        }
                        next_destage = SimTime::from_ns(next_destage.as_ns() + 1_000_000_000);
                    }
                    let keys = BlockKey::range(rec.disk, rec.block, rec.nblocks);
                    evictions.clear();
                    match rec.kind {
                        AccessType::Read => {
                            missing.clear();
                            cache.read_probe_into(keys, &mut missing);
                            for &k in &missing {
                                cache.fetch_into(k, &mut evictions);
                            }
                        }
                        AccessType::Write => {
                            cache.write_into(keys, true, &mut evictions);
                        }
                    }
                }
                black_box(*cache.stats())
            })
        });
    }
    g.finish();
}

fn bench_tracegen(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracegen");
    let spec = SynthSpec::trace2().scaled(0.1);
    g.throughput(Throughput::Elements(spec.n_requests as u64));
    g.bench_function("trace2_10pct", |b| b.iter(|| black_box(spec.generate())));
    // Full size: the write-after-read stack distance is drawn over a
    // history that fills as the trace grows, so the geometric trials per
    // record rise with length and the 10% case understates them.
    let spec = SynthSpec::trace2();
    g.throughput(Throughput::Elements(spec.n_requests as u64));
    g.bench_function("trace2_full", |b| b.iter(|| black_box(spec.generate())));
    // Trace 2's write-after-read draw on a full 65k-entry history: ~8000
    // trials per draw; on AVX-512F CPUs nearly all are skipped through the
    // candidate bitmap.
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("geometric_trunc_p0.000125_1k", |b| {
        let mut rng = StreamRng::seed_from_u64(2);
        b.iter(|| {
            let mut sum = 0u64;
            for _ in 0..1_000 {
                sum += geometric_trunc(&mut rng, 0.000125, 65_000) as u64;
            }
            black_box(sum)
        })
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let trace = SynthSpec::trace2().scaled(0.1).generate();
    let mut g = c.benchmark_group("simulate");
    g.throughput(Throughput::Elements(trace.len() as u64));
    for org in [
        Organization::Base,
        Organization::Mirror,
        Organization::Raid5 { striping_unit: 1 },
        Organization::ParityStriping {
            placement: ParityPlacement::Middle,
        },
    ] {
        g.bench_function(format!("noncached_{}", org.label()), |b| {
            b.iter(|| {
                let cfg = SimConfig::with_organization(org);
                black_box(Simulator::new(cfg, &trace).run().requests_completed)
            })
        });
    }
    g.bench_function("cached_RAID5_16MB", |b| {
        b.iter(|| {
            let mut cfg = SimConfig::with_organization(Organization::Raid5 { striping_unit: 1 });
            cfg.cache = Some(raidsim::CacheConfig::default());
            black_box(Simulator::new(cfg, &trace).run().requests_completed)
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_event_queue, bench_disk_plan, bench_mapping, bench_cache,
              bench_tracegen, bench_end_to_end
}
criterion_main!(benches);
