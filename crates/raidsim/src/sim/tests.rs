//! Behavioral tests of the simulator across organizations.

use super::*;
use crate::config::{CacheConfig, Organization, ParityPlacement, SyncPolicy};
use simkit::SimTime;
use tracegen::{AccessType, SynthSpec, Trace, TraceRecord};

fn one_request_trace(kind: AccessType, disk: u32, block: u64, nblocks: u32) -> Trace {
    let mut t = Trace::new(10, 226_800);
    t.records.push(TraceRecord {
        at: SimTime::from_ms(1),
        disk,
        block,
        nblocks,
        kind,
    });
    t
}

fn small_trace2() -> Trace {
    SynthSpec::trace2().scaled(0.01).generate()
}

fn run_org(org: Organization, trace: &Trace) -> crate::report::SimReport {
    Simulator::new(SimConfig::with_organization(org), trace).run()
}

const ROT_MS: f64 = 11.111111;

#[test]
fn single_read_on_idle_base_array_is_one_disk_access() {
    let trace = one_request_trace(AccessType::Read, 3, 1800, 1);
    let r = run_org(Organization::Base, &trace);
    assert_eq!(r.requests_completed, 1);
    assert_eq!(r.reads_completed, 1);
    let ms = r.mean_response_ms();
    // At least the media transfer + channel transfer; at most max seek +
    // full rotation + transfer + channel.
    assert!(ms >= 1.85 + 0.40, "response {ms} too fast");
    assert!(ms <= 28.0 + ROT_MS + 1.86 + 0.42, "response {ms} too slow");
    assert_eq!(r.disk_ops, 1);
    // Only the addressed disk was touched.
    assert_eq!(r.per_disk_accesses.counts()[3], 1);
    assert_eq!(r.per_disk_accesses.total(), 1);
}

#[test]
fn single_write_on_parity_org_pays_the_rmw_rotation() {
    let trace = one_request_trace(AccessType::Write, 0, 900, 1);
    let base = run_org(Organization::Base, &trace);
    let raid5 = run_org(Organization::Raid5 { striping_unit: 1 }, &trace);
    // RAID5 single-block write = data RMW + parity RMW: roughly one extra
    // rotation over the plain write (the two disks' rotational phases
    // differ, so compare with slack), and two disks touched.
    assert!(
        raid5.mean_response_ms() >= base.mean_response_ms() + ROT_MS * 0.5,
        "raid5 {} vs base {}",
        raid5.mean_response_ms(),
        base.mean_response_ms()
    );
    // The RMW write itself costs at least a rotation plus a transfer.
    assert!(raid5.mean_write_ms() >= ROT_MS);
    assert_eq!(raid5.disk_ops, 2);
    assert_eq!(base.disk_ops, 1);
}

#[test]
fn mirror_write_touches_both_copies() {
    let trace = one_request_trace(AccessType::Write, 2, 500, 1);
    let r = run_org(Organization::Mirror, &trace);
    assert_eq!(r.disk_ops, 2);
    let counts = r.per_disk_accesses.counts();
    assert_eq!(counts[4], 1);
    assert_eq!(counts[5], 1);
}

#[test]
fn every_org_completes_the_whole_trace() {
    let trace = small_trace2();
    for org in [
        Organization::Base,
        Organization::Mirror,
        Organization::Raid5 { striping_unit: 1 },
        Organization::Raid5 { striping_unit: 8 },
        Organization::ParityStriping {
            placement: ParityPlacement::Middle,
        },
        Organization::ParityStriping {
            placement: ParityPlacement::End,
        },
    ] {
        let r = run_org(org, &trace);
        assert_eq!(
            r.requests_completed,
            trace.len() as u64,
            "{} lost requests",
            org.label()
        );
        assert!(r.mean_response_ms() > 0.0);
        assert!(r.mean_disk_utilization() > 0.0);
    }
}

#[test]
fn simulation_is_deterministic() {
    let trace = small_trace2();
    let cfg = SimConfig::with_organization(Organization::Raid5 { striping_unit: 1 });
    let a = Simulator::new(cfg.clone(), &trace).run();
    let b = Simulator::new(cfg, &trace).run();
    assert_eq!(a.mean_response_ms(), b.mean_response_ms());
    assert_eq!(a.disk_ops, b.disk_ops);
    assert_eq!(a.per_disk_accesses.counts(), b.per_disk_accesses.counts());
}

#[test]
fn raid5_balances_skewed_load_better_than_base() {
    let trace = small_trace2(); // trace 2 is heavily skewed
    let base = run_org(Organization::Base, &trace);
    let raid5 = run_org(Organization::Raid5 { striping_unit: 1 }, &trace);
    let cv_base = base.per_disk_accesses.coefficient_of_variation();
    let cv_raid = raid5.per_disk_accesses.coefficient_of_variation();
    assert!(
        cv_raid < cv_base / 2.0,
        "RAID5 should smooth skew: base CV {cv_base:.3}, raid5 CV {cv_raid:.3}"
    );
}

#[test]
fn parity_striping_keeps_data_sequential() {
    // With parity striping, a logical disk's data maps to (mostly) one
    // physical disk, so skew survives — unlike RAID5.
    let trace = small_trace2();
    let ps = run_org(
        Organization::ParityStriping {
            placement: ParityPlacement::Middle,
        },
        &trace,
    );
    let raid5 = run_org(Organization::Raid5 { striping_unit: 1 }, &trace);
    assert!(
        ps.per_disk_accesses.coefficient_of_variation()
            > raid5.per_disk_accesses.coefficient_of_variation()
    );
}

#[test]
fn simultaneous_issue_holds_the_parity_disk_under_congestion() {
    // The SI pathology of Section 3.3: the parity access is issued with the
    // data access; if the data disk is busy, the parity disk sits reading
    // old parity and spinning whole rotations until the old data arrives,
    // blocking other work queued behind it.
    //
    // Layout (N = 10, su = 1): logical block 0 lives on physical disk 0
    // with parity on disk 10; logical block 10 (stripe 1, unit 0) lives on
    // physical disk 10. Congest disk 0 with reads, update block 0, then
    // read block 10 — under SI that read queues behind the held parity op.
    let mut trace = Trace::new(10, 226_800);
    let mut push = |ms: u64, block: u64, kind: AccessType| {
        trace.records.push(TraceRecord {
            at: SimTime::from_ms(ms),
            disk: 0,
            block,
            nblocks: 1,
            kind,
        });
    };
    for _ in 0..6 {
        push(1, 0, AccessType::Read); // pile up on physical disk 0
    }
    push(1, 0, AccessType::Write); // the update whose parity goes to disk 10
    for i in 0..4 {
        push(2 + i, 10, AccessType::Read); // victims on physical disk 10
    }

    let run = |sync: SyncPolicy| {
        let mut cfg = SimConfig::with_organization(Organization::Raid5 { striping_unit: 1 });
        cfg.sync = sync;
        Simulator::new(cfg, &trace).run()
    };
    let si = run(SyncPolicy::SimultaneousIssue);
    let df = run(SyncPolicy::DiskFirst);
    // SI keeps the parity disk busy strictly longer…
    assert!(
        si.disk_utilization[10] > df.disk_utilization[10] * 1.2,
        "SI parity-disk utilization {:.4} vs DF {:.4}",
        si.disk_utilization[10],
        df.disk_utilization[10]
    );
    // …and the reads stuck behind the held parity op pay for it.
    assert!(
        si.mean_read_ms() > df.mean_read_ms(),
        "SI reads {:.2} ms vs DF {:.2} ms",
        si.mean_read_ms(),
        df.mean_read_ms()
    );
}

#[test]
fn cached_organizations_respond_faster() {
    let trace = small_trace2();
    for org in [Organization::Base, Organization::Raid5 { striping_unit: 1 }] {
        let mut cfg = SimConfig::with_organization(org);
        let uncached = Simulator::new(cfg.clone(), &trace).run();
        cfg.cache = Some(CacheConfig::default());
        let cached = Simulator::new(cfg, &trace).run();
        assert_eq!(cached.requests_completed, trace.len() as u64);
        assert!(
            cached.mean_response_ms() < uncached.mean_response_ms(),
            "{}: cached {:.2} vs uncached {:.2}",
            org.label(),
            cached.mean_response_ms(),
            uncached.mean_response_ms()
        );
        let stats = cached.cache.unwrap();
        assert!(stats.write_hits + stats.write_misses > 0);
    }
}

#[test]
fn cached_write_hit_is_channel_time_only() {
    // Two writes to the same block: the second is a pure cache hit.
    let mut trace = Trace::new(10, 226_800);
    for ms in [1u64, 500] {
        trace.records.push(TraceRecord {
            at: SimTime::from_ms(ms),
            disk: 0,
            block: 42,
            nblocks: 1,
            kind: AccessType::Write,
        });
    }
    let mut cfg = SimConfig::with_organization(Organization::Base);
    cfg.cache = Some(CacheConfig::default());
    let r = Simulator::new(cfg, &trace).run();
    assert_eq!(r.requests_completed, 2);
    let stats = r.cache.unwrap();
    assert_eq!(stats.write_misses, 1);
    assert_eq!(stats.write_hits, 1);
    // Both writes complete at channel speed (≈0.41 ms each).
    assert!(r.mean_write_ms() < 1.0, "mean write {}", r.mean_write_ms());
}

#[test]
fn raid4_parity_caching_runs_and_spools() {
    let trace = small_trace2();
    let mut cfg = SimConfig::with_organization(Organization::Raid4 { striping_unit: 1 });
    cfg.cache = Some(CacheConfig::default());
    let r = Simulator::new(cfg, &trace).run();
    assert_eq!(r.requests_completed, trace.len() as u64);
    assert!(r.spool_peak > 0, "parity updates should have been spooled");
    // The parity disk (index 10 in the single array) absorbed the spool
    // drains.
    assert!(r.per_disk_accesses.counts()[10] > 0);
}

/// A cache far larger than its working set (`simulate --cache 1000000`,
/// about a terabyte) runs with memory sized by use, and one past the
/// cache's `u32` node ids or a `u64` byte count is refused by name
/// instead of aborting the allocator.
#[test]
fn huge_cache_sizes_run_or_are_refused() {
    let trace = SynthSpec::trace2().scaled(0.05).generate();
    let cfg = |size_mb| {
        let mut cfg = SimConfig::with_organization(Organization::Raid5 { striping_unit: 1 });
        cfg.cache = Some(CacheConfig {
            size_mb,
            ..CacheConfig::default()
        });
        cfg
    };
    let r = Simulator::try_new(cfg(1_000_000), &trace)
        .expect("a terabyte cache is valid")
        .run();
    assert_eq!(r.requests_completed, trace.len() as u64);
    let sized_to_trace = Simulator::new(cfg(256), &trace).run();
    assert_eq!(
        r.cache, sized_to_trace.cache,
        "both hold the whole working set"
    );
    for size_mb in [1u64 << 40, u64::MAX] {
        let e = Simulator::try_new(cfg(size_mb), &trace)
            .err()
            .expect("refused");
        assert!(e.contains(&format!("{size_mb} MB")), "{e}");
    }
    // A trace past the cache's packed key space is refused before any
    // per-disk state is built.
    let wide = Trace::new(nvcache::BlockKey::MAX_DISKS + 1, 1000);
    let e = Simulator::try_new(cfg(16), &wide).err().expect("refused");
    assert!(e.contains("NV cache keys at most"), "{e}");
}

/// A trace whose arrays would need more than `u32::MAX` physical disks
/// (every logical disk its own mirrored pair) is refused before any
/// per-disk state is built, instead of wrapping the count.
#[test]
fn physical_disk_counts_past_u32_are_refused() {
    let mut cfg = SimConfig::with_organization(Organization::Mirror);
    cfg.data_disks_per_array = 1;
    let wide = Trace::new(u32::MAX, 1000);
    let e = Simulator::try_new(cfg, &wide).err().expect("refused");
    assert!(e.contains("more than 4294967295 physical disks"), "{e}");
}

#[test]
fn raid4_reads_never_touch_the_parity_disk() {
    // A read-only workload against cached RAID4: disk 10 must stay idle.
    let mut trace = Trace::new(10, 226_800);
    for i in 0..200u64 {
        trace.records.push(TraceRecord {
            at: SimTime::from_ms(i * 5),
            disk: (i % 10) as u32,
            block: i * 97 % 200_000,
            nblocks: 1,
            kind: AccessType::Read,
        });
    }
    let mut cfg = SimConfig::with_organization(Organization::Raid4 { striping_unit: 1 });
    cfg.cache = Some(CacheConfig::default());
    let r = Simulator::new(cfg, &trace).run();
    assert_eq!(r.per_disk_accesses.counts()[10], 0);
}

#[test]
fn multiblock_requests_complete_everywhere() {
    let mut trace = Trace::new(10, 226_800);
    for (i, n) in [(0u64, 16u32), (1, 32), (2, 8), (3, 64)].into_iter() {
        trace.records.push(TraceRecord {
            at: SimTime::from_ms(i * 40 + 1),
            disk: i as u32,
            block: i * 1000,
            nblocks: n,
            kind: if i % 2 == 0 {
                AccessType::Read
            } else {
                AccessType::Write
            },
        });
    }
    for org in [
        Organization::Base,
        Organization::Mirror,
        Organization::Raid5 { striping_unit: 4 },
        Organization::ParityStriping {
            placement: ParityPlacement::End,
        },
    ] {
        let r = run_org(org, &trace);
        assert_eq!(r.requests_completed, 4, "{}", org.label());
    }
}

#[test]
fn full_stripe_write_avoids_rmw() {
    // Write exactly one full stripe (N=10, su=1 ⇒ 10 blocks): the parity is
    // computed outright, so no disk pays the extra rotation. Response should
    // be well under plain-write + rotation.
    let trace = one_request_trace(AccessType::Write, 0, 0, 10);
    let r = run_org(Organization::Raid5 { striping_unit: 1 }, &trace);
    assert_eq!(r.requests_completed, 1);
    assert_eq!(r.disk_ops, 11, "10 data + 1 parity, no extra reads");
    // Max component: seek + rotation-latency + transfer + channel; RMW would
    // add a full extra rotation on top of the worst disk.
    assert!(
        r.mean_response_ms() < 28.0 + ROT_MS + 2.0 + 4.2,
        "full-stripe write too slow: {}",
        r.mean_response_ms()
    );
}

#[test]
fn mirror_reads_split_load_across_the_pair() {
    let mut trace = Trace::new(10, 226_800);
    // A burst of reads to one logical disk: both replicas should serve.
    for i in 0..40u64 {
        trace.records.push(TraceRecord {
            at: SimTime::from_ms(1 + i / 4), // 4 arrivals per ms: queueing
            disk: 0,
            block: i * 777 % 200_000,
            nblocks: 1,
            kind: AccessType::Read,
        });
    }
    let r = run_org(Organization::Mirror, &trace);
    let counts = r.per_disk_accesses.counts();
    assert!(
        counts[0] > 0 && counts[1] > 0,
        "both replicas used: {counts:?}"
    );
    assert_eq!(counts[0] + counts[1], 40);
}

#[test]
fn buffer_admission_never_deadlocks() {
    // Many simultaneous multiblock requests overwhelm the buffer pool; all
    // must still complete.
    let mut trace = Trace::new(10, 226_800);
    for i in 0..30u64 {
        trace.records.push(TraceRecord {
            at: SimTime::from_ms(1),
            disk: (i % 10) as u32,
            block: i * 500,
            nblocks: 32,
            kind: AccessType::Write,
        });
    }
    let r = run_org(Organization::Base, &trace);
    assert_eq!(r.requests_completed, 30);
    assert!(r.buffer_waits > 0, "pool should have been contended");
}

#[test]
fn empty_trace_produces_empty_report() {
    let trace = Trace::new(10, 226_800);
    let r = run_org(Organization::Base, &trace);
    assert_eq!(r.requests_completed, 0);
    assert_eq!(r.mean_response_ms(), 0.0);
    assert_eq!(r.disk_ops, 0);
}

#[test]
fn trace_speedup_degrades_response_time() {
    let spec = SynthSpec::trace2().scaled(0.01);
    let normal = spec.clone().generate();
    let fast = spec.at_speed(2.0).generate();
    let org = Organization::Raid5 { striping_unit: 1 };
    let r_normal = run_org(org, &normal);
    let r_fast = run_org(org, &fast);
    assert!(
        r_fast.mean_response_ms() > r_normal.mean_response_ms(),
        "2x load should hurt: {:.2} vs {:.2}",
        r_fast.mean_response_ms(),
        r_normal.mean_response_ms()
    );
}

mod degraded {
    use super::*;

    fn degraded_cfg(org: Organization, disk: u32) -> SimConfig {
        let mut cfg = SimConfig::with_organization(org);
        cfg.failed_disk = Some((0, disk));
        cfg
    }

    #[test]
    fn raid5_degraded_read_fans_out_to_all_survivors() {
        // Logical block 0 lives on physical disk 0 (stripe 0); fail it.
        let trace = one_request_trace(AccessType::Read, 0, 0, 1);
        let r = Simulator::new(
            degraded_cfg(Organization::Raid5 { striping_unit: 1 }, 0),
            &trace,
        )
        .run();
        assert_eq!(r.requests_completed, 1);
        // Ten peer reads (disks 1..=10), none on the failed disk.
        assert_eq!(r.disk_ops, 10);
        assert_eq!(r.per_disk_accesses.counts()[0], 0);
        // Response is the max of ten disk reads: at least one full access.
        assert!(r.mean_response_ms() > 2.0);
    }

    #[test]
    fn degraded_read_costs_more_than_healthy() {
        let trace = SynthSpec::trace2().scaled(0.1).generate();
        let healthy = Simulator::new(
            SimConfig::with_organization(Organization::Raid5 { striping_unit: 1 }),
            &trace,
        )
        .run();
        let degraded = Simulator::new(
            degraded_cfg(Organization::Raid5 { striping_unit: 1 }, 3),
            &trace,
        )
        .run();
        assert_eq!(degraded.requests_completed, trace.len() as u64);
        assert!(
            degraded.mean_response_ms() > healthy.mean_response_ms(),
            "degraded {:.2} vs healthy {:.2}",
            degraded.mean_response_ms(),
            healthy.mean_response_ms()
        );
        assert!(degraded.disk_ops > healthy.disk_ops);
        assert_eq!(
            degraded.per_disk_accesses.counts()[3],
            0,
            "failed disk idle"
        );
    }

    #[test]
    fn mirror_degraded_uses_surviving_copy_only() {
        let mut trace = Trace::new(10, 226_800);
        for (i, kind) in [(0u64, AccessType::Read), (1, AccessType::Write)] {
            trace.records.push(TraceRecord {
                at: SimTime::from_ms(1 + i * 100),
                disk: 0,
                block: 40 + i,
                nblocks: 1,
                kind,
            });
        }
        // Logical disk 0 is the pair (0, 1); fail the primary.
        let r = Simulator::new(degraded_cfg(Organization::Mirror, 0), &trace).run();
        assert_eq!(r.requests_completed, 2);
        assert_eq!(r.per_disk_accesses.counts()[0], 0);
        assert_eq!(
            r.per_disk_accesses.counts()[1],
            2,
            "read + single-copy write"
        );
    }

    #[test]
    fn write_to_failed_data_disk_updates_parity_via_reconstruct() {
        // Logical block 0 → disk 0 (stripe 0, parity on disk 10).
        let trace = one_request_trace(AccessType::Write, 0, 0, 1);
        let r = Simulator::new(
            degraded_cfg(Organization::Raid5 { striping_unit: 1 }, 0),
            &trace,
        )
        .run();
        assert_eq!(r.requests_completed, 1);
        // 9 surviving-unit reads + 1 parity write; no access to disk 0.
        assert_eq!(r.disk_ops, 10);
        assert_eq!(r.per_disk_accesses.counts()[0], 0);
        assert_eq!(r.per_disk_accesses.counts()[10], 1);
    }

    #[test]
    fn write_with_failed_parity_disk_is_plain() {
        // Stripe 0's parity is on disk 10; fail it and write block 0.
        let trace = one_request_trace(AccessType::Write, 0, 0, 1);
        let r = Simulator::new(
            degraded_cfg(Organization::Raid5 { striping_unit: 1 }, 10),
            &trace,
        )
        .run();
        assert_eq!(r.disk_ops, 1, "just the data write");
        // And it is a plain write: well under an RMW rotation.
        assert!(r.mean_response_ms() < ROT_MS + 28.0 + 2.5);
    }

    #[test]
    fn degraded_cached_and_parstrip_complete() {
        let trace = SynthSpec::trace2().scaled(0.05).generate();
        for org in [
            Organization::Raid5 { striping_unit: 1 },
            Organization::Raid4 { striping_unit: 1 },
            Organization::ParityStriping {
                placement: ParityPlacement::Middle,
            },
            Organization::Mirror,
        ] {
            for disk in [0, 5] {
                let mut cfg = degraded_cfg(org, disk);
                cfg.cache = Some(CacheConfig::default());
                let r = Simulator::new(cfg, &trace).run();
                assert_eq!(
                    r.requests_completed,
                    trace.len() as u64,
                    "{} degraded disk {disk} lost requests",
                    org.label()
                );
            }
        }
    }

    #[test]
    fn reconstruction_cost_grows_with_array_size() {
        // The paper's Section 4.2.1 remark: large arrays perform worse
        // after a failure — every reconstructed read touches N disks.
        let trace = SynthSpec::trace2().scaled(0.2).generate();
        let mut costs = Vec::new();
        for n in [5u32, 10] {
            let mut cfg = degraded_cfg(Organization::Raid5 { striping_unit: 1 }, 0);
            cfg.data_disks_per_array = n;
            let r = Simulator::new(cfg, &trace).run();
            costs.push(r.disk_ops as f64 / r.requests_completed as f64);
        }
        assert!(
            costs[1] > costs[0],
            "ops per request should grow with N: {costs:?}"
        );
    }
}

mod cached_behavior {
    use super::*;

    fn cached_cfg(org: Organization, mb: u64, destage_ms: u64) -> SimConfig {
        let mut cfg = SimConfig::with_organization(org);
        cfg.cache = Some(CacheConfig {
            size_mb: mb,
            destage_period_ms: destage_ms,
        });
        cfg
    }

    #[test]
    fn destage_groups_consecutive_writes_into_few_disk_ops() {
        // 20 writes to consecutive blocks, all absorbed by the cache, then
        // destaged as grouped multiblock background writes.
        let mut trace = Trace::new(10, 226_800);
        for i in 0..20u64 {
            trace.records.push(TraceRecord {
                at: SimTime::from_ms(1 + i),
                disk: 0,
                block: 1000 + i,
                nblocks: 1,
                kind: AccessType::Write,
            });
        }
        let r = Simulator::new(cached_cfg(Organization::Base, 16, 1_000), &trace).run();
        assert_eq!(r.requests_completed, 20);
        // All writes were cache absorptions: response ≈ channel transfer.
        assert!(r.mean_write_ms() < 1.0, "write mean {}", r.mean_write_ms());
        // Destage grouped the run; with a 1 s period and arrivals within
        // 20 ms this is a single 20-block write (at most a couple).
        assert!(
            r.disk_ops <= 3,
            "expected grouped destage, got {} ops",
            r.disk_ops
        );
        assert_eq!(r.cache.unwrap().dirty_evictions, 0);
    }

    #[test]
    fn overflowing_cache_forces_synchronous_writebacks() {
        // 1 MB cache = 256 blocks; a destage period far longer than the run
        // leaves every block dirty, so misses must evict dirty blocks.
        let mut trace = Trace::new(10, 226_800);
        for i in 0..600u64 {
            trace.records.push(TraceRecord {
                at: SimTime::from_ms(1 + i * 3),
                disk: (i % 10) as u32,
                block: i * 37 % 220_000,
                nblocks: 1,
                kind: AccessType::Write,
            });
        }
        let r = Simulator::new(cached_cfg(Organization::Base, 1, 10_000_000), &trace).run();
        assert_eq!(r.requests_completed, 600);
        let stats = r.cache.unwrap();
        assert!(
            stats.dirty_evictions > 100,
            "expected many dirty evictions, got {}",
            stats.dirty_evictions
        );
        // Requests that evicted dirty blocks waited for the writeback.
        assert!(r.mean_write_ms() > 1.0);
    }

    #[test]
    fn channel_serializes_simultaneous_cache_hits() {
        // Warm one block, then read it twice at the same instant: both hit,
        // and the channel serializes the two 0.4096 ms transfers.
        let mut trace = Trace::new(10, 226_800);
        let mut push = |ms: u64, kind| {
            trace.records.push(TraceRecord {
                at: SimTime::from_ms(ms),
                disk: 0,
                block: 7,
                nblocks: 1,
                kind,
            });
        };
        push(1, AccessType::Read); // miss, warms the cache
        push(500, AccessType::Read); // hit
        push(500, AccessType::Read); // hit, queued behind the first transfer
        let r = Simulator::new(cached_cfg(Organization::Base, 16, 1_000), &trace).run();
        assert_eq!(r.cache.unwrap().read_hits, 2);
        // The two hits differ by exactly one channel transfer.
        let spread = r.response_reads_ms.max() - r.response_reads_ms.min();
        assert!(spread >= 0.4096 * 2.0 - 1e-6, "hit spread {spread}");
    }

    #[test]
    fn raid5_destage_updates_parity_in_background() {
        // A single cached write to RAID5: once destaged, both the data disk
        // and the stripe's parity disk have been touched.
        let trace = one_request_trace(AccessType::Write, 0, 0, 1);
        let r = Simulator::new(
            cached_cfg(Organization::Raid5 { striping_unit: 1 }, 16, 100),
            &trace,
        )
        .run();
        assert_eq!(r.requests_completed, 1);
        // Data write on disk 0 (plain, old data cached? no — write miss, so
        // RMW pre-read) + parity RMW on disk 10.
        assert_eq!(r.disk_ops, 2);
        assert!(r.per_disk_accesses.counts()[0] == 1);
        assert!(r.per_disk_accesses.counts()[10] == 1);
        // But the host saw only the channel transfer.
        assert!(r.mean_write_ms() < 1.0);
    }

    #[test]
    fn read_after_cached_write_hits_without_disk_access() {
        let mut trace = Trace::new(10, 226_800);
        trace.records.push(TraceRecord {
            at: SimTime::from_ms(1),
            disk: 2,
            block: 99,
            nblocks: 1,
            kind: AccessType::Write,
        });
        trace.records.push(TraceRecord {
            at: SimTime::from_ms(2),
            disk: 2,
            block: 99,
            nblocks: 1,
            kind: AccessType::Read,
        });
        let r = Simulator::new(cached_cfg(Organization::Base, 16, 1_000), &trace).run();
        let stats = r.cache.unwrap();
        assert_eq!(stats.read_hits, 1, "the dirty block served the read");
        assert_eq!(stats.read_misses, 0);
        // The only disk I/O is the eventual destage of the dirty block.
        assert_eq!(r.disk_ops, 1);
        assert!(r.mean_read_ms() < 1.0, "hit cost {}", r.mean_read_ms());
    }

    #[test]
    fn old_data_retention_saves_the_destage_preread() {
        // Read a block (cache it clean), write it (old copy retained), let
        // it destage: the data disk write is plain, no RMW pre-read — so
        // together with the parity RMW the op count is 3 (fetch + data
        // write + parity RMW).
        let mut trace = Trace::new(10, 226_800);
        for (ms, kind) in [(1u64, AccessType::Read), (100, AccessType::Write)] {
            trace.records.push(TraceRecord {
                at: SimTime::from_ms(ms),
                disk: 0,
                block: 0,
                nblocks: 1,
                kind,
            });
        }
        let r = Simulator::new(
            cached_cfg(Organization::Raid5 { striping_unit: 1 }, 16, 500),
            &trace,
        )
        .run();
        assert_eq!(r.disk_ops, 3);
        // The parity disk still pays its RMW: busy at least one rotation.
        let parity_busy = r.disk_utilization[10] * r.elapsed_secs * 1000.0;
        assert!(parity_busy >= ROT_MS, "parity busy {parity_busy} ms");
    }
}
