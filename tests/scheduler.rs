//! Differential tests for the dispatch seam: the pluggable
//! [`Discipline`] must leave the paper's FCFS results untouched and the
//! alternative disciplines must still serve every request.
//!
//! Three guarantees, in order of importance:
//!
//! 1. **FCFS is the pre-refactor simulator, byte for byte.** The seed
//!    hashes below were recorded on the monolithic simulator core before
//!    the scheduler seam existed (Trace 2 ×0.02, seed 7, FNV-1a over the
//!    `{:#?}`-serialized [`SimReport`]). If any hash moves, the refactor
//!    changed simulated behaviour — not just code layout.
//! 2. **SSTF and SCAN serve every enqueued op exactly once.** No request
//!    is lost or double-completed whichever discipline reorders the
//!    queue, healthy or cached, and replays are byte-identical.
//! 3. **Sweeps are thread-count invariant across disciplines.** A mixed
//!    FCFS/SSTF/SCAN sweep produces identical bytes at 1, 3, and 16
//!    worker threads.

use raidsim::{
    CacheConfig, Discipline, NamedRun, Organization, ParityPlacement, SimConfig, Simulator,
};
use tracegen::{SynthSpec, Trace};

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

fn config(org: Organization, cached: bool, discipline: Discipline) -> SimConfig {
    let mut cfg = SimConfig::with_organization(org);
    if cached {
        cfg.cache = Some(CacheConfig::default());
    }
    cfg.seed = 7;
    cfg.scheduler = discipline;
    cfg
}

fn serialized_report(cfg: SimConfig, trace: &Trace) -> String {
    format!("{:#?}", Simulator::new(cfg, trace).run())
}

/// FNV-1a — the same digest `tests/determinism.rs` logs, so hashes here
/// can be cross-checked against its output directly.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Report hashes recorded on the pre-refactor simulator (monolithic
/// `sim/mod.rs`, hard-wired FCFS `OpQueue`): Trace 2 scaled ×0.02,
/// seed 7. The explicit `Discipline::Fcfs` runs of the layered core must
/// reproduce every one of them.
const PRE_REFACTOR_FCFS_HASHES: [(usize, bool, u64); 10] = [
    (0, false, 0x142c_7a57_ea55_34d7), // Base
    (0, true, 0xf0b0_0ea2_a4e4_5625),
    (1, false, 0xc5ff_e9bc_04f7_d5c6), // Mirror
    (1, true, 0x2092_733a_eadd_9fb9),
    (2, false, 0xbc4b_fd81_46d9_2046), // RAID5
    (2, true, 0xdd5e_e570_c44b_fcae),
    (3, false, 0xce33_7f74_af52_1b45), // RAID4
    (3, true, 0x9b1a_aa31_82da_51b6),
    (4, false, 0xbf6d_4a66_0f16_bf68), // Parity Striping
    (4, true, 0x466c_959e_aa03_5d34),
];

#[test]
fn fcfs_replay_hashes_match_pre_refactor_baseline() {
    let trace = SynthSpec::trace2().scaled(0.02).generate();
    let orgs = organizations();
    for (idx, cached, expected) in PRE_REFACTOR_FCFS_HASHES {
        let org = orgs[idx];
        let s = serialized_report(config(org, cached, Discipline::Fcfs), &trace);
        assert_eq!(
            fnv1a(s.as_bytes()),
            expected,
            "{} (cached={cached}): FCFS report diverged from the \
             pre-refactor baseline — the scheduler seam changed behaviour",
            org.label()
        );
    }
}

/// The mid-run-failure scenario shared by the fault-path tests: a 4-disk
/// RAID5 array on a tiny 2-cylinder geometry, one disk failing at 1 s,
/// transient errors sprinkled in. `duration_secs` sets the arrival
/// density: 8.0 is the leisurely pinned-baseline load, shorter windows
/// congest the queues so the failure lands while ops are queued.
fn fault_scenario(discipline: Discipline, duration_secs: f64) -> (Trace, SimConfig) {
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
        duration_secs,
        ..SynthSpec::trace2()
    }
    .generate();
    let mut cfg = SimConfig::with_organization(Organization::Raid5 { striping_unit: 1 });
    cfg.geometry = geometry;
    cfg.data_disks_per_array = 4;
    cfg.scheduler = discipline;
    cfg.fault = Some(raidsim::FaultConfig {
        disk_failure: Some(raidsim::DiskFailure {
            array: 0,
            disk: 1,
            at_ms: 1000,
        }),
        transient_error_prob: 0.01,
        ..raidsim::FaultConfig::default()
    });
    (trace, cfg)
}

/// The fault path (mid-run failure, abort/replan, rebuild) went through
/// the same seam swap; its baseline hash must hold too. This hash also
/// pins the abort *drain* order: `SchedulerQueue::drain` aborts FCFS
/// queues byte-identically to the pop loop it replaced.
///
/// Re-pinned when the failure-lifecycle work extended `FaultReport` and
/// added the `reliability` section: every timing-bearing statistic
/// (response accumulators, utilizations, disk_ops, degraded/rebuild
/// windows) was verified byte-identical against the pre-lifecycle build —
/// only the report's shape changed.
#[test]
fn fcfs_fault_injection_hash_matches_pre_refactor_baseline() {
    let (trace, cfg) = fault_scenario(Discipline::Fcfs, 8.0);
    let s = serialized_report(cfg, &trace);
    assert_eq!(
        fnv1a(s.as_bytes()),
        0xbf3b_f1c4_370a_adf2,
        "fault-injected FCFS report diverged from the pre-refactor baseline"
    );
}

/// Abort-drain regression (scheduler contract clause 3): a disk failing
/// while SSTF/SCAN hold arm-position state must neither lose nor
/// duplicate the aborted in-flight ops — every traced request still
/// completes exactly once through the re-plan path — and the run stays a
/// pure function of its inputs. Pre-fix, the abort path emptied the
/// failed disk's queue by repeated `pop`s, sweeping the SCAN cursor
/// through ops that were never serviced; the hot spare inherited that
/// phantom position for rebuild and re-planned traffic.
#[test]
fn fault_during_sstf_and_scan_completes_every_request_deterministically() {
    for discipline in [Discipline::Sstf, Discipline::Scan] {
        let (trace, cfg) = fault_scenario(discipline, 1.5);
        let a = serialized_report(cfg.clone(), &trace);
        let report = Simulator::new(cfg.clone(), &trace).run();
        let ctx = discipline.label();
        assert_eq!(
            report.requests_completed,
            trace.len() as u64,
            "{ctx}: aborted ops lost or double-completed across the failure"
        );
        let faults = report
            .faults
            .as_ref()
            .expect("fault config attaches report");
        assert!(
            faults.ops_aborted > 0,
            "{ctx}: the failure must abort queued ops for the drain path to matter"
        );
        let b = serialized_report(cfg, &trace);
        assert_eq!(a, b, "{ctx}: fault-path replay diverged");
    }
}

/// Report hashes of the congested fault scenario (`duration_secs` 1.5),
/// recorded before the event queue lost its slot table and the per-drive
/// scheduler its trait: the failure lands while ops are queued, so these
/// pin the drain order, the in-service cancel and the re-plan of every
/// aborted op under each discipline.
const CONGESTED_FAULT_HASHES: [(Discipline, u64); 3] = [
    (Discipline::Fcfs, 0x072a_0557_833d_0ebd),
    (Discipline::Sstf, 0xbebd_5514_b7b9_1cba),
    (Discipline::Scan, 0xcaa1_9810_7e6c_007d),
];

#[test]
fn congested_fault_path_hashes_match_recorded_values() {
    let got: Vec<(Discipline, u64)> = CONGESTED_FAULT_HASHES
        .iter()
        .map(|&(discipline, _)| {
            let (trace, cfg) = fault_scenario(discipline, 1.5);
            (discipline, fnv1a(serialized_report(cfg, &trace).as_bytes()))
        })
        .collect();
    assert_eq!(
        got, CONGESTED_FAULT_HASHES,
        "congested fault-path reports moved"
    );
}

/// SSTF and SCAN reorder within a band but must never lose or duplicate
/// work: every traced request completes exactly once, the read/write
/// split is preserved, and replays are byte-identical.
#[test]
fn sstf_and_scan_serve_every_request_exactly_once() {
    let trace = SynthSpec::trace2().scaled(0.02).generate();
    let expected_reads = trace.records.iter().filter(|r| r.is_read()).count() as u64;
    let expected_writes = trace.len() as u64 - expected_reads;
    for org in organizations() {
        for cached in [false, true] {
            for discipline in [Discipline::Sstf, Discipline::Scan] {
                let cfg = config(org, cached, discipline);
                let a = serialized_report(cfg.clone(), &trace);
                let report = Simulator::new(cfg.clone(), &trace).run();
                let ctx = format!("{} cached={cached} {}", org.label(), discipline.label());
                assert_eq!(
                    report.requests_completed,
                    trace.len() as u64,
                    "{ctx}: requests lost or duplicated by reordering"
                );
                assert_eq!(report.reads_completed, expected_reads, "{ctx}: reads");
                assert_eq!(report.writes_completed, expected_writes, "{ctx}: writes");
                let sched = report
                    .scheduler
                    .as_ref()
                    .expect("non-FCFS reports carry scheduler statistics");
                assert_eq!(sched.discipline, discipline.label(), "{ctx}: label");
                assert!(
                    sched.seek_distance_cyl.count() > 0,
                    "{ctx}: no dispatches recorded"
                );
                let b = serialized_report(cfg, &trace);
                assert_eq!(a, b, "{ctx}: replay diverged");
            }
        }
    }
}

/// The default (FCFS, no opt-in) report omits the scheduler section
/// entirely — that omission is what keeps the baseline hashes valid —
/// while `observability.scheduler_stats` attaches it without perturbing
/// simulated timing.
#[test]
fn scheduler_stats_are_opt_in_and_timing_neutral_under_fcfs() {
    let trace = SynthSpec::trace2().scaled(0.01).generate();
    for org in organizations() {
        let plain = Simulator::new(config(org, true, Discipline::Fcfs), &trace).run();
        assert!(
            plain.scheduler.is_none(),
            "{}: default FCFS report must omit scheduler stats",
            org.label()
        );
        let mut cfg = config(org, true, Discipline::Fcfs);
        cfg.observability.scheduler_stats = true;
        let stats = Simulator::new(cfg, &trace).run();
        let sched = stats.scheduler.expect("opt-in attaches scheduler stats");
        assert_eq!(sched.discipline, "FCFS");
        assert_eq!(
            format!("{:?}", plain.response_all_ms),
            format!("{:?}", stats.response_all_ms),
            "{}: collecting scheduler stats changed simulated timing",
            org.label()
        );
    }
}

/// A mixed-discipline sweep (five organizations × three disciplines) is
/// a pure function of its inputs at any worker count.
#[test]
fn mixed_discipline_sweep_is_thread_count_invariant() {
    let trace = SynthSpec::trace2().scaled(0.01).generate();
    let mut runs = Vec::new();
    for org in organizations() {
        for discipline in Discipline::ALL {
            runs.push(NamedRun::new(
                format!("{}-{}", org.label(), discipline.label()),
                config(org, false, discipline),
                &trace,
            ));
        }
    }
    let serial: Vec<String> = runs
        .iter()
        .map(|r| serialized_report(r.config.clone(), &trace))
        .collect();
    for threads in [1, 3, 16] {
        let out = raidsim::run_all(&runs, threads);
        for ((label, rep), expected) in out.iter().zip(&serial) {
            let s = format!("{:#?}", rep.as_ref().expect("valid config"));
            assert_eq!(
                &s, expected,
                "{label}: sweep at {threads} threads diverged from serial"
            );
        }
    }
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Differential property: whatever the seed, organization, and
        /// cache state, all three disciplines complete the same request
        /// set — reordering changes *when* ops run, never *whether*.
        #[test]
        fn disciplines_agree_on_completed_work(
            seed in 0u64..1000,
            org_idx in 0usize..5,
            cached in any::<bool>(),
        ) {
            let trace = SynthSpec::trace2().scaled(0.005).generate();
            let org = organizations()[org_idx];
            let mut counts = Vec::new();
            for discipline in Discipline::ALL {
                let mut cfg = config(org, cached, discipline);
                cfg.seed = seed;
                let rep = Simulator::new(cfg, &trace).run();
                counts.push((
                    rep.requests_completed,
                    rep.reads_completed,
                    rep.writes_completed,
                    rep.disk_ops,
                ));
            }
            prop_assert_eq!(counts[0].0, trace.len() as u64);
            prop_assert_eq!(counts[0], counts[1]);
            prop_assert_eq!(counts[0], counts[2]);
        }
    }
}

/// Scheduler statistics under FCFS with `observability.scheduler_stats`,
/// recorded while they were still collected on every run: FNV-1a of the
/// `{:?}`-formatted `SchedulerReport` (Trace 2 ×0.02, seed 7, two arrays
/// of five data disks), cached and not. Collecting them only when the
/// report attaches them must leave every value as it was.
const FCFS_OPT_IN_SCHEDULER_HASHES: [(usize, bool, u64); 10] = [
    (0, false, 0x2688_f686_e4f8_6192), // Base
    (0, true, 0x6e1c_fb55_6872_5f38),
    (1, false, 0x4187_4c2b_6bd2_0882), // Mirror
    (1, true, 0x3354_a323_60af_8466),
    (2, false, 0x6df5_3208_82f3_ee73), // RAID5
    (2, true, 0xfe2a_4099_1978_5252),
    (3, false, 0xc55a_7508_6276_4a27), // RAID4
    (3, true, 0xe006_2110_0103_2ff2),
    (4, false, 0xd039_2d40_fb47_c2d0), // Parity Striping
    (4, true, 0x17b9_aafa_e299_90a7),
];

#[test]
fn fcfs_opt_in_scheduler_stats_match_recorded_values() {
    let trace = SynthSpec::trace2().scaled(0.02).generate();
    let orgs = organizations();
    for &(i, cached, want) in &FCFS_OPT_IN_SCHEDULER_HASHES {
        let mut cfg = config(orgs[i], cached, Discipline::Fcfs);
        cfg.data_disks_per_array = 5;
        cfg.observability.scheduler_stats = true;
        let report = Simulator::new(cfg, &trace).run();
        let sched = format!("{:?}", report.scheduler.expect("opt-in attaches stats"));
        assert_eq!(
            fnv1a(sched.as_bytes()),
            want,
            "{} cached={cached}: scheduler stats moved: {sched}",
            orgs[i].label()
        );
    }
}
