//! Replay-fidelity guarantee: the same trace and seed must yield the same
//! figures, or the paper's Table 3/4 organization comparisons are noise.
//!
//! Each of the five organizations is run twice with an identical trace and
//! seed — cached and non-cached — and the fully serialized [`SimReport`]s
//! (every statistic, histogram bin, per-disk counter, and time-series
//! sample) must be **byte-identical**. A third run with a different seed
//! must differ, proving the seed actually reaches the model instead of
//! being ignored.
//!
//! The static half of this guarantee is clippy's determinism policy
//! (`clippy.toml`), which keeps nondeterminism (hash iteration, wall-clock
//! reads, ambient RNG) out of the sim-core crates in the first place, plus
//! `cargo test -p simlint` for the invariants clippy cannot express.

use raidsim::{
    run_all, CacheConfig, DiskFailure, FaultConfig, NamedRun, Organization, ParityPlacement,
    SimConfig, SimReport, Simulator, SparingMode,
};
use simkit::SimTime;
use tracegen::{AccessType, SynthSpec, Trace, TraceRecord};

fn organizations() -> [Organization; 5] {
    [
        Organization::Base,
        Organization::Mirror,
        Organization::Raid5 { striping_unit: 1 },
        Organization::Raid4 { striping_unit: 1 },
        Organization::ParityStriping {
            placement: ParityPlacement::Middle,
        },
    ]
}

/// Serialize a report to a canonical byte string. `{:#?}` prints every
/// field recursively with full float formatting, so two identical strings
/// mean two identical reports.
fn serialized_report(cfg: SimConfig, trace: &Trace) -> String {
    format!("{:#?}", Simulator::new(cfg, trace).run())
}

/// Run `cfg` over `trace` replayed at `speed`× its arrival rate, through
/// the sweep's replay parameter.
fn replay_at(cfg: SimConfig, trace: &Trace, speed: f64) -> Result<SimReport, String> {
    run_all(&[NamedRun::new("replay", cfg, trace).at_speed(speed)], 1)
        .swap_remove(0)
        .1
}

/// FNV-1a, for compact logging of report identities in test output.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn config(org: Organization, cached: bool, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::with_organization(org);
    if cached {
        cfg.cache = Some(CacheConfig::default());
    }
    cfg.seed = seed;
    cfg
}

#[test]
fn same_seed_reports_are_byte_identical() {
    let trace = SynthSpec::trace2().scaled(0.02).generate();
    for org in organizations() {
        for cached in [false, true] {
            let a = serialized_report(config(org, cached, 7), &trace);
            let b = serialized_report(config(org, cached, 7), &trace);
            println!(
                "report-hash {:>8} cached={} seed=7 fnv1a={:016x}",
                org.label(),
                cached,
                fnv1a(a.as_bytes())
            );
            assert_eq!(
                a,
                b,
                "{} (cached={}) replayed with the same trace and seed must \
                 produce a byte-identical report",
                org.label(),
                cached
            );
        }
    }
}

#[test]
fn different_seed_reports_differ() {
    let trace = SynthSpec::trace2().scaled(0.02).generate();
    for org in organizations() {
        for cached in [false, true] {
            let a = serialized_report(config(org, cached, 7), &trace);
            let c = serialized_report(config(org, cached, 8), &trace);
            assert_ne!(
                a,
                c,
                "{} (cached={}): changing the seed must change the report — \
                 otherwise the seed never reaches the model",
                org.label(),
                cached
            );
        }
    }
}

/// Degraded mode (a disk dead from time zero) replays byte-identically for
/// every redundant organization.
#[test]
fn degraded_mode_reports_are_byte_identical() {
    let trace = SynthSpec::trace2().scaled(0.02).generate();
    for org in organizations() {
        if org == Organization::Base {
            continue; // Base has no redundancy and cannot run degraded
        }
        let degraded = |seed| {
            let mut cfg = config(org, false, seed);
            cfg.failed_disk = Some((0, 1));
            cfg
        };
        let a = serialized_report(degraded(7), &trace);
        let b = serialized_report(degraded(7), &trace);
        assert_eq!(a, b, "{}: degraded replay diverged", org.label());
    }
}

/// A fault-injected run — mid-run disk failure, aborted/re-planned
/// in-flight operations, online rebuild onto the spare — is a pure
/// function of (trace, config, fault seed): replays are byte-identical
/// and a sweep produces the same bytes at any thread count.
#[test]
fn mid_run_failure_and_rebuild_replay_byte_identically() {
    // Small disks so the rebuild completes inside the run.
    let geometry = diskmodel::DiskGeometry {
        cylinders: 2,
        ..diskmodel::DiskGeometry::default()
    };
    let trace = SynthSpec {
        name: "fault-determinism".into(),
        seed: 0xFA17,
        n_disks: 4,
        blocks_per_disk: geometry.blocks_per_disk(),
        n_requests: 400,
        duration_secs: 8.0,
        ..SynthSpec::trace2()
    }
    .generate();
    let cfg = || {
        let mut cfg = SimConfig::with_organization(Organization::Raid5 { striping_unit: 1 });
        cfg.geometry = geometry.clone();
        cfg.data_disks_per_array = 4;
        cfg.fault = Some(FaultConfig {
            disk_failure: Some(DiskFailure {
                array: 0,
                disk: 1,
                at_ms: 1000,
            }),
            transient_error_prob: 0.01,
            ..FaultConfig::default()
        });
        cfg
    };

    let a = serialized_report(cfg(), &trace);
    let b = serialized_report(cfg(), &trace);
    assert_eq!(a, b, "fault-injected replay diverged");
    println!("report-hash fault-raid5 fnv1a={:016x}", fnv1a(a.as_bytes()));

    // The same point swept under work stealing: identical bytes whichever
    // thread runs it, at any worker count.
    let runs: Vec<NamedRun<'_>> = (0..4)
        .map(|i| NamedRun::new(format!("pt{i}"), cfg(), &trace))
        .collect();
    for threads in [1, 3, 16] {
        let out = raidsim::run_all(&runs, threads);
        for (label, rep) in &out {
            let s = format!("{:#?}", rep.as_ref().expect("valid config"));
            assert_eq!(
                s, a,
                "{label}: sweep at {threads} threads diverged from the serial run"
            );
        }
    }
}

/// The observability sampler must not perturb timing: a sampled run's
/// response statistics are identical to an unsampled run's.
#[test]
fn sampler_is_timing_neutral_for_all_organizations() {
    let trace = SynthSpec::trace2().scaled(0.01).generate();
    for org in organizations() {
        let plain = Simulator::new(config(org, true, 7), &trace).run();
        let mut sampled_cfg = config(org, true, 7);
        sampled_cfg.observability = raidsim::ObservabilityConfig::sampled(200);
        let sampled = Simulator::new(sampled_cfg, &trace).run();
        assert_eq!(
            format!("{:?}", plain.response_all_ms),
            format!("{:?}", sampled.response_all_ms),
            "{}: enabling the sampler changed simulated timing",
            org.label()
        );
    }
}

/// Report hashes of the NV-cache eviction paths: Trace 2 ×0.05 replayed
/// 100× faster through the replay parameter (the hashes were recorded on a
/// rescaled copy, which the replay equals), seed 7, caches of 1 MB and
/// 4 MB. The compressed arrivals overrun the destage process, so misses
/// evict dirty blocks (synchronous writebacks, old copies dropped with
/// their owners) and the RAID4 spool overflows the cache — paths the
/// paper-speed runs above never load. The hashes were recorded before the
/// cache's block store moved to a packed data-block index with linked old
/// copies.
const EVICTION_HASHES: [(usize, u64, u64); 10] = [
    (0, 1, 0x7de0_7322_ae7e_840b), // Base
    (0, 4, 0xd206_e1b8_ddfc_ee47),
    (1, 1, 0x67b0_8ecd_9855_02f1), // Mirror
    (1, 4, 0xa570_38af_980c_87ad),
    (2, 1, 0x8547_e636_30a6_5b17), // RAID5
    (2, 4, 0x60b0_59db_0eb4_f1db),
    (3, 1, 0xf3db_5216_5ad9_2ce8), // RAID4
    (3, 4, 0xe190_4ef3_fe40_9fcf),
    (4, 1, 0x232e_c728_c569_57ce), // Parity Striping
    (4, 4, 0xef76_3b51_6f58_0902),
];

#[test]
fn cache_eviction_paths_match_recorded_hashes() {
    let trace = SynthSpec::trace2().scaled(0.05).generate();
    let orgs = organizations();
    for (idx, size_mb, expected) in EVICTION_HASHES {
        let org = orgs[idx];
        let mut cfg = config(org, true, 7);
        cfg.cache = Some(CacheConfig {
            size_mb,
            ..CacheConfig::default()
        });
        let report = replay_at(cfg, &trace, 100.0).expect("the eviction run replays");
        let cache = report.cache.expect("cached run reports cache stats");
        let hash = fnv1a(format!("{report:#?}").as_bytes());
        println!(
            "eviction-hash {:>8} {size_mb} MB dirty_evictions={} overflow_events={} fnv1a={hash:016x}",
            org.label(),
            cache.dirty_evictions,
            cache.overflow_events,
        );
        assert!(
            cache.dirty_evictions > 0,
            "{} {size_mb} MB: the run must evict dirty blocks",
            org.label()
        );
        if matches!(org, Organization::Raid4 { .. }) && size_mb == 1 {
            assert!(
                cache.overflow_events > 0,
                "RAID4 1 MB: the parity spool must overflow the cache"
            );
        }
        assert_eq!(
            hash,
            expected,
            "{} {size_mb} MB: eviction-path report diverged from the recorded hash",
            org.label()
        );
    }
}

/// Replay speed is the rescaled copy it replaced: at 0.5×, 2× and 100×, a
/// replay of Trace 2 prints (`{:#?}`) exactly what a run on a copy does
/// whose every arrival is divided by the speed and rounded to the
/// nanosecond. RAID5 is uncached, so at 100× arrivals wait for track
/// buffers and are admitted after their arrival time; RAID4 is cached,
/// with its parity spool.
#[test]
fn replay_at_speed_matches_a_rescaled_copy() {
    let trace = SynthSpec::trace2().scaled(0.02).generate();
    for speed in [0.5, 2.0, 100.0] {
        let mut copy = trace.clone();
        for r in &mut copy.records {
            r.at = SimTime::from_ns((r.at.as_ns() as f64 / speed).round() as u64);
        }
        for (org, cached) in [
            (Organization::Raid5 { striping_unit: 1 }, false),
            (Organization::Raid4 { striping_unit: 1 }, true),
        ] {
            let cfg = config(org, cached, 7);
            let replayed = replay_at(cfg.clone(), &trace, speed).expect("valid speed");
            if speed == 100.0 && !cached {
                assert!(replayed.buffer_waits > 0, "no arrival waited for buffers");
            }
            assert_eq!(
                format!("{replayed:#?}"),
                serialized_report(cfg, &copy),
                "{} at {speed}x: replay differs from the rescaled copy",
                org.label()
            );
        }
    }
}

/// Speed 1 replays the recorded times themselves, also past 2^53 ns where
/// an `f64` division would round them (the event log prints each arrival
/// time); at 0.5× the same trace leaves the replay time range and is
/// refused.
#[test]
fn speed_one_replays_recorded_times_exactly() {
    let at = (1u64 << 53) + 1;
    let mut trace = Trace::new(10, 226_800);
    trace.records.push(TraceRecord {
        at: SimTime::from_ns(at),
        disk: 0,
        block: 0,
        nblocks: 1,
        kind: AccessType::Read,
    });
    let mut cfg = SimConfig::with_organization(Organization::Base);
    let path = std::env::temp_dir().join(format!("raidsim-replay-{}.jsonl", std::process::id()));
    cfg.observability.event_log = Some(path.clone());
    let report = replay_at(cfg.clone(), &trace, 1.0).expect("speed 1 takes any time");
    assert_eq!(report.requests_completed, 1);
    let log = std::fs::read_to_string(&path).expect("event log written");
    let _ = std::fs::remove_file(&path);
    assert!(log.contains(&format!("\"arrive_ns\":{at},")), "{log}");
    let err = replay_at(cfg, &trace, 0.5).expect_err("past the replay time range");
    assert!(err.contains("2^53 ns"), "{err}");
}

/// Run `cfg` twice: the two reports must serialize byte-identically, and
/// every request must complete — a read of data lost beyond redundancy
/// completes degenerately and is counted in `lost_reads`, never dropped.
fn assert_replays_and_completes(cfg: SimConfig, trace: &Trace, what: &str) {
    let a = Simulator::new(cfg.clone(), trace).run();
    let b = Simulator::new(cfg, trace).run();
    let bytes = format!("{a:#?}");
    assert_eq!(format!("{b:#?}"), bytes, "{what}: replay diverged");
    let lost = a.faults.as_ref().map_or(0, |f| f.lost_reads);
    assert_eq!(
        a.requests_completed,
        trace.len() as u64,
        "{what}: requests neither completed nor counted lost ({lost} lost reads)"
    );
}

/// A mid-run disk failure with online rebuild on one array of a 13-array
/// Trace 1 run: aborts, degraded re-plans, rebuild interference, and the
/// per-window (healthy/degraded/rebuilding) response accumulators, which
/// receive pushes from every array, replay byte-identically for every
/// redundant organization, cached and not.
#[test]
fn fault_injected_multi_array_run_replays_byte_identically() {
    let trace = SynthSpec::trace1().scaled(0.001).generate();
    for org in organizations() {
        if org == Organization::Base {
            continue; // no redundancy: a failure is not survivable
        }
        for cached in [false, true] {
            let mut cfg = config(org, cached, 7);
            cfg.fault = Some(FaultConfig {
                disk_failure: Some(DiskFailure {
                    array: 1,
                    disk: 0,
                    at_ms: 2_000,
                }),
                spare: true,
                rebuild_rate_mbps: 4,
                ..FaultConfig::default()
            });
            assert_replays_and_completes(cfg, &trace, &format!("{} cached={cached}", org.label()));
        }
    }
}

/// The full lifecycle fault matrix — latent sector errors, a background
/// scrub, failures on two different arrays, both sparing modes — engaged
/// at once on a three-array run. Small disks keep the scrub sweep (which
/// the run drains to completion) inside milliseconds of simulated time.
#[test]
fn lifecycle_fault_matrix_replays_byte_identically() {
    let geometry = diskmodel::DiskGeometry {
        cylinders: 2,
        ..diskmodel::DiskGeometry::default()
    };
    let trace = SynthSpec {
        name: "matrix".into(),
        seed: 0xFA57,
        n_disks: 12,
        blocks_per_disk: geometry.blocks_per_disk(),
        n_requests: 600,
        duration_secs: 8.0,
        busy_speedup: 1.0,
        ..SynthSpec::trace2()
    }
    .generate();
    for org in [
        Organization::Mirror,
        Organization::Raid5 { striping_unit: 1 },
        Organization::Raid4 { striping_unit: 1 },
        Organization::ParityStriping {
            placement: ParityPlacement::Middle,
        },
    ] {
        for sparing in [SparingMode::Hot, SparingMode::Distributed] {
            let mut cfg = SimConfig::with_organization(org);
            cfg.geometry = geometry.clone();
            cfg.data_disks_per_array = 4;
            cfg.seed = 7;
            cfg.fault = Some(FaultConfig {
                disk_failure: Some(DiskFailure {
                    array: 1,
                    disk: 1,
                    at_ms: 1_000,
                }),
                second_failure: Some(DiskFailure {
                    array: 2,
                    disk: 0,
                    at_ms: 3_000,
                }),
                spare: true,
                spare_count: 1,
                sparing,
                rebuild_rate_mbps: 2,
                latent_rate_per_hour: 2_000.0,
                scrub_rate_mbps: 4,
                ..FaultConfig::default()
            });
            assert_replays_and_completes(cfg, &trace, &format!("{} {sparing:?}", org.label()));
        }
    }
}
