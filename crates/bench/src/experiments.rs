//! One function per table/figure of the paper's evaluation (Section 4).
//!
//! Every function prints the series the paper plots as an aligned text
//! table and returns nothing; the `figures` binary dispatches on experiment
//! ids. All runs are deterministic.

use crate::Workloads;
use diskmodel::{DiskGeometry, SeekCurve};
use raidsim::{
    run_fleet, CacheConfig, Discipline, DiskFailure, FaultConfig, FleetConfig, Organization,
    ParityPlacement, SimConfig, SimReport, Simulator, SparingMode, SyncPolicy,
};
use raidtp_stats::Table;
use tracegen::{transform, Trace, TraceStats};

/// The four primary organizations of Figure 5 / Table 3.
fn main_orgs() -> [Organization; 4] {
    [
        Organization::Base,
        Organization::Mirror,
        Organization::Raid5 { striping_unit: 1 },
        Organization::ParityStriping {
            placement: ParityPlacement::Middle,
        },
    ]
}

fn cfg(org: Organization, n: u32, cache_mb: Option<u64>) -> SimConfig {
    let mut c = SimConfig::with_organization(org);
    c.data_disks_per_array = n;
    c.cache = cache_mb.map(|size_mb| CacheConfig {
        size_mb,
        ..CacheConfig::default()
    });
    c
}

fn run(config: SimConfig, trace: &Trace) -> SimReport {
    Simulator::new(config, trace).run()
}

fn ms(v: f64) -> String {
    format!("{v:.2}")
}

fn pct(v: f64) -> String {
    format!("{:.1}", v * 100.0)
}

/// Table 1: the disk/channel model, including the calibrated seek curve the
/// paper leaves implicit.
pub fn table1(_w: &Workloads) {
    println!("== Table 1: disk and channel parameters (model constants) ==\n");
    let g = DiskGeometry::default();
    let s = SeekCurve::table1();
    let mut t = Table::new(&["parameter", "value"]);
    t.row(&["Rotation speed".into(), "5400 rpm".into()]);
    t.row(&["Average seek".into(), "11.2 ms".into()]);
    t.row(&["Maximal seek".into(), "28 ms".into()]);
    t.row(&["Tracks per platter".into(), g.cylinders.to_string()]);
    t.row(&["Sectors per track".into(), g.sectors_per_track.to_string()]);
    t.row(&["Bytes per sector".into(), g.bytes_per_sector.to_string()]);
    t.row(&["Number of platters".into(), (g.surfaces / 2).to_string()]);
    t.row(&["Channel transfer rate".into(), "10 MB/s".into()]);
    t.row(&[
        "Capacity (derived)".into(),
        format!("{:.2} GB", g.capacity_bytes() as f64 / 1e9),
    ]);
    t.row(&[
        "Rotation period (derived)".into(),
        format!("{:.3} ms", g.rotation_ns() as f64 / 1e6),
    ]);
    t.row(&[
        "4 KB media transfer (derived)".into(),
        format!("{:.3} ms", g.block_transfer_ns() as f64 / 1e6),
    ]);
    t.row(&[
        "Seek curve a√(x−1)+b(x−1)+c".into(),
        format!("a={:.4}, b={:.5}, c={:.1} (ms)", s.a, s.b, s.c),
    ]);
    print!("{}", t.render());
    println!();
}

/// Table 2: characteristics of the (synthetic) traces, with the paper's
/// originals alongside.
pub fn table2(w: &Workloads) {
    println!(
        "== Table 2: trace characteristics (synthetic; Trace 1 at scale {}) ==\n",
        w.t1_scale
    );
    let s1 = TraceStats::of(&w.trace1);
    let s2 = TraceStats::of(&w.trace2);
    let mut t = Table::new(&["metric", "Trace 1", "paper T1", "Trace 2", "paper T2"]);
    let fmt_dur = |secs: f64| format!("{:.0}min", secs / 60.0);
    t.row(&[
        "Duration".into(),
        fmt_dur(s1.duration_secs),
        "183min".into(),
        fmt_dur(s2.duration_secs),
        "100min".into(),
    ]);
    t.row(&[
        "# of disks".into(),
        s1.n_disks.to_string(),
        "130".into(),
        s2.n_disks.to_string(),
        "10".into(),
    ]);
    t.row(&[
        "# of I/O accesses".into(),
        s1.io_accesses.to_string(),
        "3362505".into(),
        s2.io_accesses.to_string(),
        "69539".into(),
    ]);
    t.row(&[
        "# blocks transferred".into(),
        s1.blocks_transferred.to_string(),
        "4467719".into(),
        s2.blocks_transferred.to_string(),
        "143105".into(),
    ]);
    t.row(&[
        "single-block reads".into(),
        s1.single_block_reads.to_string(),
        "2977914".into(),
        s2.single_block_reads.to_string(),
        "48339".into(),
    ]);
    t.row(&[
        "single-block writes".into(),
        s1.single_block_writes.to_string(),
        "312961".into(),
        s2.single_block_writes.to_string(),
        "17557".into(),
    ]);
    t.row(&[
        "multiblock reads".into(),
        s1.multiblock_reads.to_string(),
        "47324".into(),
        s2.multiblock_reads.to_string(),
        "2029".into(),
    ]);
    t.row(&[
        "multiblock writes".into(),
        s1.multiblock_writes.to_string(),
        "24306".into(),
        s2.multiblock_writes.to_string(),
        "2098".into(),
    ]);
    t.row(&[
        "write fraction %".into(),
        pct(s1.write_fraction()),
        "10.0".into(),
        pct(s2.write_fraction()),
        "28.3".into(),
    ]);
    t.row(&[
        "disk-skew CV".into(),
        format!("{:.2}", s1.disk_skew_cv()),
        "moderate".into(),
        format!("{:.2}", s2.disk_skew_cv()),
        "high".into(),
    ]);
    print!("{}", t.render());
    println!();
}

/// Figure 4: synchronization policies × array size, RAID5 and Parity
/// Striping, both traces. A Trace 2 @2× section is added because the SI
/// pathology — the parity disk held spinning while a congested data disk
/// finishes its read — only becomes visible once disks queue.
pub fn fig4(w: &Workloads) {
    println!("== Figure 4: response time (ms) by synchronization method vs N ==\n");
    let policies = [
        SyncPolicy::SimultaneousIssue,
        SyncPolicy::ReadFirst,
        SyncPolicy::ReadFirstPriority,
        SyncPolicy::DiskFirst,
        SyncPolicy::DiskFirstPriority,
    ];
    let trace2_2x = transform::at_speed(&w.trace2, 2.0);
    let extended: [(&str, &Trace); 3] = [
        ("Trace 1", &w.trace1),
        ("Trace 2", &w.trace2),
        ("Trace 2 @2x speed", &trace2_2x),
    ];
    for (tname, trace) in extended {
        for org in [
            Organization::Raid5 { striping_unit: 1 },
            Organization::ParityStriping {
                placement: ParityPlacement::Middle,
            },
        ] {
            println!("-- {tname}, {} --", org.label());
            let mut t = Table::new(&["N", "SI", "RF", "RF/PR", "DF", "DF/PR"]);
            for n in [5u32, 10, 15, 20] {
                let mut row = vec![n.to_string()];
                for p in policies {
                    let mut c = cfg(org, n, None);
                    c.sync = p;
                    row.push(ms(run(c, trace).mean_response_ms()));
                }
                t.row(&row);
            }
            print!("{}", t.render());
            println!();
        }
    }
}

/// Figure 5: non-cached response time vs array size for all four
/// organizations.
pub fn fig5(w: &Workloads) {
    println!("== Figure 5: response time (ms) vs array size, non-cached ==\n");
    for (tname, trace) in w.named() {
        println!("-- {tname} --");
        let mut t = Table::new(&["N", "Base", "Mirror", "RAID5", "ParStrip"]);
        for n in [5u32, 10, 15, 20] {
            let mut row = vec![n.to_string()];
            for org in main_orgs() {
                row.push(ms(run(cfg(org, n, None), trace).mean_response_ms()));
            }
            t.row(&row);
        }
        print!("{}", t.render());
        println!();
    }
}

/// Figures 6 & 7: per-disk access distribution, Base vs RAID5, Trace 1.
pub fn fig6_7(w: &Workloads) {
    println!("== Figures 6–7: distribution of accesses to disks (Trace 1) ==\n");
    for org in [Organization::Base, Organization::Raid5 { striping_unit: 1 }] {
        let r = run(cfg(org, 10, None), &w.trace1);
        let c = &r.per_disk_accesses;
        println!(
            "-- {} : {} disks, CV {:.3}, peak/mean {:.2} --",
            org.label(),
            c.counts().len(),
            c.coefficient_of_variation(),
            c.peak_to_mean()
        );
        for (i, chunk) in c.counts().chunks(13).enumerate() {
            let cells: Vec<String> = chunk.iter().map(|x| format!("{x:6}")).collect();
            println!("  disks {:3}..: {}", i * 13, cells.join(" "));
        }
        println!();
    }
}

/// Figure 8: non-cached RAID5 response time vs striping unit.
pub fn fig8(w: &Workloads) {
    println!("== Figure 8: RAID5 response time (ms) vs striping unit, non-cached ==\n");
    striping_sweep(w, None, false);
}

fn striping_sweep(w: &Workloads, cache_mb: Option<u64>, include_raid4: bool) {
    let units = [1u32, 2, 4, 8, 16, 32, 64];
    for (tname, trace) in w.named() {
        println!("-- {tname} --");
        let mut headers = vec!["striping unit (blocks)", "RAID5"];
        if include_raid4 {
            headers.push("RAID4");
        }
        let mut t = Table::new(&headers);
        for su in units {
            let mut row = vec![su.to_string()];
            row.push(ms(run(
                cfg(Organization::Raid5 { striping_unit: su }, 10, cache_mb),
                trace,
            )
            .mean_response_ms()));
            if include_raid4 {
                row.push(ms(run(
                    cfg(Organization::Raid4 { striping_unit: su }, 10, cache_mb),
                    trace,
                )
                .mean_response_ms()));
            }
            t.row(&row);
        }
        print!("{}", t.render());
        println!();
    }
}

/// Figure 9: Parity Striping parity placement (middle vs end cylinders)
/// vs array size.
pub fn fig9(w: &Workloads) {
    println!("== Figure 9: Parity Striping response time (ms) by parity placement ==\n");
    for (tname, trace) in w.named() {
        println!("-- {tname} --");
        let mut t = Table::new(&["N", "middle", "end"]);
        for n in [5u32, 10, 15, 20] {
            let mut row = vec![n.to_string()];
            for placement in [ParityPlacement::Middle, ParityPlacement::End] {
                row.push(ms(run(
                    cfg(Organization::ParityStriping { placement }, n, None),
                    trace,
                )
                .mean_response_ms()));
            }
            t.row(&row);
        }
        print!("{}", t.render());
        println!();
    }
}

/// Figure 10: non-cached response time vs trace speed.
pub fn fig10(w: &Workloads) {
    println!("== Figure 10: response time (ms) vs trace speed, non-cached ==\n");
    speed_sweep(w, &main_orgs(), None);
}

fn speed_sweep(w: &Workloads, orgs: &[Organization], cache_mb: Option<u64>) {
    for (tname, trace) in w.named() {
        println!("-- {tname} --");
        let mut headers: Vec<&str> = vec!["speed"];
        headers.extend(orgs.iter().map(|o| o.label()));
        let mut t = Table::new(&headers);
        for speed in [0.5f64, 1.0, 2.0] {
            let scaled = transform::at_speed(trace, speed);
            let mut row = vec![format!("{speed}")];
            for &org in orgs {
                row.push(ms(run(cfg(org, 10, cache_mb), &scaled).mean_response_ms()));
            }
            t.row(&row);
        }
        print!("{}", t.render());
        println!();
    }
}

/// Figure 11: read/write hit ratios vs cache size, parity vs non-parity
/// organizations.
pub fn fig11(w: &Workloads) {
    println!("== Figure 11: hit ratios (%) vs cache size ==\n");
    for (tname, trace) in w.named() {
        println!("-- {tname} --");
        let mut t = Table::new(&[
            "cache MB",
            "read Base",
            "read RAID5",
            "write Base",
            "write RAID5",
        ]);
        for mb in [8u64, 16, 32, 64, 128, 256] {
            let base = run(cfg(Organization::Base, 10, Some(mb)), trace);
            let raid = run(
                cfg(Organization::Raid5 { striping_unit: 1 }, 10, Some(mb)),
                trace,
            );
            t.row(&[
                mb.to_string(),
                pct(base.read_hit_ratio()),
                pct(raid.read_hit_ratio()),
                pct(base.write_hit_ratio()),
                pct(raid.write_hit_ratio()),
            ]);
        }
        print!("{}", t.render());
        println!();
    }
}

/// Figure 12: cached response time vs cache size for all organizations.
pub fn fig12(w: &Workloads) {
    println!("== Figure 12: response time (ms) vs cache size, cached ==\n");
    for (tname, trace) in w.named() {
        println!("-- {tname} --");
        let mut t = Table::new(&["cache MB", "Base", "Mirror", "RAID5", "ParStrip"]);
        for mb in [8u64, 16, 32, 64, 128, 256] {
            let mut row = vec![mb.to_string()];
            for org in main_orgs() {
                row.push(ms(run(cfg(org, 10, Some(mb)), trace).mean_response_ms()));
            }
            t.row(&row);
        }
        print!("{}", t.render());
        println!();
    }
}

/// Figure 13: cached response time vs array size at constant total cache
/// (N=5 ⇒ 8 MB/array, N=10 ⇒ 16 MB, N=15 ⇒ 24 MB).
pub fn fig13(w: &Workloads) {
    println!("== Figure 13: response time (ms) vs array size, cached (cache ∝ N) ==\n");
    for (tname, trace) in w.named() {
        println!("-- {tname} --");
        let mut t = Table::new(&["N (cache MB)", "Base", "Mirror", "RAID5", "ParStrip"]);
        for (n, mb) in [(5u32, 8u64), (10, 16), (15, 24)] {
            let mut row = vec![format!("{n} ({mb})")];
            for org in main_orgs() {
                row.push(ms(run(cfg(org, n, Some(mb)), trace).mean_response_ms()));
            }
            t.row(&row);
        }
        print!("{}", t.render());
        println!();
    }
}

/// Figure 14: cached RAID5 response time vs striping unit.
pub fn fig14(w: &Workloads) {
    println!("== Figure 14: cached RAID5 response time (ms) vs striping unit ==\n");
    striping_sweep(w, Some(16), false);
}

/// Figure 15: RAID5 (data caching) vs RAID4 (data + parity caching) hit
/// ratios vs cache size.
pub fn fig15(w: &Workloads) {
    println!("== Figure 15: hit ratios (%) vs cache size, RAID5 vs RAID4 ==\n");
    for (tname, trace) in w.named() {
        println!("-- {tname} --");
        let mut t = Table::new(&[
            "cache MB",
            "read RAID5",
            "read RAID4",
            "write RAID5",
            "write RAID4",
        ]);
        for mb in [8u64, 16, 32, 64, 128, 256] {
            let r5 = run(
                cfg(Organization::Raid5 { striping_unit: 1 }, 10, Some(mb)),
                trace,
            );
            let r4 = run(
                cfg(Organization::Raid4 { striping_unit: 1 }, 10, Some(mb)),
                trace,
            );
            t.row(&[
                mb.to_string(),
                pct(r5.read_hit_ratio()),
                pct(r4.read_hit_ratio()),
                pct(r5.write_hit_ratio()),
                pct(r4.write_hit_ratio()),
            ]);
        }
        print!("{}", t.render());
        println!();
    }
}

/// Figure 16: RAID5 vs RAID4 response time vs cache size.
pub fn fig16(w: &Workloads) {
    println!("== Figure 16: response time (ms) vs cache size, RAID5 vs RAID4 ==\n");
    for (tname, trace) in w.named() {
        println!("-- {tname} --");
        let mut t = Table::new(&["cache MB", "RAID5", "RAID4", "RAID4 spool peak"]);
        for mb in [8u64, 16, 32, 64, 128, 256] {
            let r5 = run(
                cfg(Organization::Raid5 { striping_unit: 1 }, 10, Some(mb)),
                trace,
            );
            let r4 = run(
                cfg(Organization::Raid4 { striping_unit: 1 }, 10, Some(mb)),
                trace,
            );
            t.row(&[
                mb.to_string(),
                ms(r5.mean_response_ms()),
                ms(r4.mean_response_ms()),
                r4.spool_peak.to_string(),
            ]);
        }
        print!("{}", t.render());
        println!();
    }
}

/// Figure 17: RAID4 vs RAID5 response time vs array size (cache ∝ N).
pub fn fig17(w: &Workloads) {
    println!("== Figure 17: response time (ms) vs array size, RAID4 vs RAID5 (cache ∝ N) ==\n");
    for (tname, trace) in w.named() {
        println!("-- {tname} --");
        let mut t = Table::new(&["N (cache MB)", "RAID5", "RAID4"]);
        for (n, mb) in [(5u32, 8u64), (10, 16), (20, 32)] {
            t.row(&[
                format!("{n} ({mb})"),
                ms(run(
                    cfg(Organization::Raid5 { striping_unit: 1 }, n, Some(mb)),
                    trace,
                )
                .mean_response_ms()),
                ms(run(
                    cfg(Organization::Raid4 { striping_unit: 1 }, n, Some(mb)),
                    trace,
                )
                .mean_response_ms()),
            ]);
        }
        print!("{}", t.render());
        println!();
    }
}

/// Figure 18: RAID4 vs RAID5 response time vs trace speed (16 MB cache).
pub fn fig18(w: &Workloads) {
    println!("== Figure 18: response time (ms) vs trace speed, RAID4 vs RAID5, cached ==\n");
    speed_sweep(
        w,
        &[
            Organization::Raid5 { striping_unit: 1 },
            Organization::Raid4 { striping_unit: 1 },
        ],
        Some(16),
    );
}

/// Figure 19: RAID4 vs RAID5 response time vs striping unit (16 MB cache).
pub fn fig19(w: &Workloads) {
    println!("== Figure 19: response time (ms) vs striping unit, RAID4 vs RAID5, cached ==\n");
    striping_sweep(w, Some(16), true);
}

/// Extension experiment (beyond the paper's figures): degraded-mode
/// operation. Section 4.2.1 remarks that large arrays "have worse
/// performance during reconstruction following a disk failure"; this
/// quantifies steady-state degraded response time for each redundant
/// organization and its growth with N.
pub fn degraded(w: &Workloads) {
    println!("== Extension: degraded-mode response time (one failed disk, Trace 2) ==\n");
    let orgs: [(Organization, Option<u64>); 4] = [
        (Organization::Mirror, None),
        (Organization::Raid5 { striping_unit: 1 }, None),
        (
            Organization::ParityStriping {
                placement: ParityPlacement::Middle,
            },
            None,
        ),
        (Organization::Raid4 { striping_unit: 1 }, Some(16)),
    ];
    let mut t = Table::new(&[
        "organization",
        "healthy ms",
        "degraded ms",
        "ops/req degraded",
    ]);
    for (org, cache) in orgs {
        let healthy = run(cfg(org, 10, cache), &w.trace2);
        let mut c = cfg(org, 10, cache);
        c.failed_disk = Some((0, 0));
        let deg = run(c, &w.trace2);
        t.row(&[
            format!(
                "{}{}",
                org.label(),
                if cache.is_some() { " (cached)" } else { "" }
            ),
            ms(healthy.mean_response_ms()),
            ms(deg.mean_response_ms()),
            format!("{:.2}", deg.disk_ops as f64 / deg.requests_completed as f64),
        ]);
    }
    print!("{}", t.render());

    println!("\n-- degraded RAID5 vs array size (reconstruction fan-out ∝ N) --");
    let mut t = Table::new(&["N", "healthy ms", "degraded ms"]);
    for n in [5u32, 10, 20] {
        let healthy = run(
            cfg(Organization::Raid5 { striping_unit: 1 }, n, None),
            &w.trace2,
        );
        let mut c = cfg(Organization::Raid5 { striping_unit: 1 }, n, None);
        c.failed_disk = Some((0, 0));
        let deg = run(c, &w.trace2);
        t.row(&[
            n.to_string(),
            ms(healthy.mean_response_ms()),
            ms(deg.mean_response_ms()),
        ]);
    }
    print!("{}", t.render());
    println!();
}

/// Extension experiment: the full failure *timeline* — a disk dies mid-run,
/// in-flight operations abort and re-plan through the degraded machinery,
/// an online rebuild sweeps the lost blocks onto a hot spare, and service
/// returns to healthy. Quantifies Section 4.2.1's remark that arrays "have
/// worse performance during reconstruction following a disk failure":
/// Mirror rebuilds from one surviving partner, RAID5 pays a max-of-N
/// reconstruction read per batch and the largest degraded penalty.
pub fn rebuild(w: &Workloads) {
    println!("== Extension: mid-run disk failure, online rebuild onto a hot spare (Trace 2) ==\n");
    let fail = FaultConfig {
        disk_failure: Some(DiskFailure {
            array: 0,
            disk: 0,
            at_ms: 60_000,
        }),
        spare: true,
        rebuild_rate_mbps: 10,
        ..FaultConfig::default()
    };
    let orgs: [Organization; 3] = [
        Organization::Mirror,
        Organization::Raid5 { striping_unit: 1 },
        Organization::ParityStriping {
            placement: ParityPlacement::Middle,
        },
    ];
    println!("-- disk 0 fails at t = 60 s; rebuild throttled to 10 MB/s --");
    let mut t = Table::new(&[
        "organization",
        "healthy ms",
        "degraded ms",
        "rebuild s",
        "aborted",
        "replayed",
    ]);
    for org in orgs {
        let mut c = cfg(org, 10, None);
        c.fault = Some(fail);
        let r = run(c, &w.trace2);
        let Some(f) = r.faults.as_ref() else { continue };
        t.row(&[
            org.label().to_string(),
            ms(f.response_healthy_ms.mean()),
            ms(f.degraded_mean_ms()),
            format!("{:.1}", f.rebuild_ms / 1000.0),
            f.ops_aborted.to_string(),
            f.ops_replayed.to_string(),
        ]);
    }
    print!("{}", t.render());

    println!("\n-- transient media errors, RAID5: controller retry with backoff --");
    let mut t = Table::new(&["error prob", "errors", "retries", "escalations", "mean ms"]);
    for p in [1e-4, 1e-3, 1e-2] {
        let mut c = cfg(Organization::Raid5 { striping_unit: 1 }, 10, None);
        c.fault = Some(FaultConfig {
            transient_error_prob: p,
            ..FaultConfig::default()
        });
        let r = run(c, &w.trace2);
        let Some(f) = r.faults.as_ref() else { continue };
        t.row(&[
            format!("{p:.0e}"),
            f.transient_errors.to_string(),
            f.retries.to_string(),
            f.escalations.to_string(),
            ms(r.mean_response_ms()),
        ]);
    }
    print!("{}", t.render());

    println!("\n-- NVRAM battery outage, cached RAID5 (16 MB): write-through failover --");
    let mut t = Table::new(&["battery", "mean ms", "write-through", "outage s"]);
    for (label, outage) in [
        ("healthy", None),
        ("out 60 s → 180 s", Some((60_000, 180_000))),
    ] {
        let mut c = cfg(Organization::Raid5 { striping_unit: 1 }, 10, Some(16));
        c.fault = Some(FaultConfig {
            battery_fail_at_ms: outage.map(|(a, _)| a),
            battery_restore_at_ms: outage.map(|(_, b)| b),
            ..FaultConfig::default()
        });
        let r = run(c, &w.trace2);
        let Some(f) = r.faults.as_ref() else { continue };
        t.row(&[
            label.to_string(),
            ms(r.mean_response_ms()),
            f.writes_written_through.to_string(),
            format!("{:.0}", f.battery_window_ms / 1000.0),
        ]);
    }
    print!("{}", t.render());
    println!();
}

/// Extension experiment: the failure *lifecycle* beyond a single clean
/// failure-and-rebuild — sparing policy, background scrubbing of latent
/// sector errors, and multi-failure escalation up to data loss. Three
/// tables:
///
/// 1. Hot vs distributed sparing per organization. A hot spare funnels
///    every reconstructed block onto one replacement spindle; distributed
///    sparing spreads the writes across the survivors, so with the rebuild
///    unthrottled the write bottleneck dilutes and the rebuild (and with it
///    the degraded-exposure window) shrinks.
/// 2. Latent sector errors vs scrub rate on RAID5: how much of the array a
///    background scrub covers, how many marred blocks it repairs from
///    redundancy, and what leaks through to the rebuild.
/// 3. Seeded multi-failure escalation on RAID5: a second failure hitting
///    the rebuilding spare (restart onto the next spare), hitting it with
///    the pool exhausted (stays degraded), and hitting a second data disk
///    (data loss, accounted — not a panic).
pub fn reliability(w: &Workloads) {
    println!("== Extension: failure lifecycle — sparing, scrubbing, multi-failure (Trace 2) ==\n");
    let fail0 = DiskFailure {
        array: 0,
        disk: 0,
        at_ms: 30_000,
    };

    println!("-- disk 0 fails at t = 30 s; unthrottled rebuild; hot vs distributed sparing --");
    let orgs: [Organization; 3] = [
        Organization::Mirror,
        Organization::Raid5 { striping_unit: 1 },
        Organization::ParityStriping {
            placement: ParityPlacement::Middle,
        },
    ];
    let mut t = Table::new(&[
        "organization",
        "rebuild s hot",
        "rebuild s dist",
        "exposure s hot",
        "exposure s dist",
        "degraded ms hot",
        "degraded ms dist",
    ]);
    for org in orgs {
        let mut rebuild = Vec::new();
        let mut exposure = Vec::new();
        let mut degraded = Vec::new();
        for sparing in [SparingMode::Hot, SparingMode::Distributed] {
            let mut c = cfg(org, 10, None);
            c.fault = Some(FaultConfig {
                disk_failure: Some(fail0),
                spare: true,
                sparing,
                rebuild_rate_mbps: 0,
                ..FaultConfig::default()
            });
            let r = run(c, &w.trace2);
            let Some(f) = r.faults.as_ref() else { continue };
            let Some(rel) = r.reliability.as_ref() else {
                continue;
            };
            rebuild.push(f.rebuild_ms / 1000.0);
            exposure.push(rel.exposure_ms / 1000.0);
            degraded.push(f.degraded_mean_ms());
        }
        t.row(&[
            org.label().to_string(),
            format!("{:.1}", rebuild[0]),
            format!("{:.1}", rebuild[1]),
            format!("{:.1}", exposure[0]),
            format!("{:.1}", exposure[1]),
            ms(degraded[0]),
            ms(degraded[1]),
        ]);
    }
    print!("{}", t.render());

    println!("\n-- latent sector errors vs background scrub, RAID5 (1/disk-hour) --");
    let mut t = Table::new(&[
        "scrub MB/s",
        "latent found",
        "repaired",
        "coverage %",
        "blocks lost",
        "lost reads",
    ]);
    for scrub_rate_mbps in [0u64, 4, 16] {
        let mut c = cfg(Organization::Raid5 { striping_unit: 1 }, 10, None);
        c.fault = Some(FaultConfig {
            latent_rate_per_hour: 1.0,
            scrub_rate_mbps,
            ..FaultConfig::default()
        });
        let r = run(c, &w.trace2);
        let Some(rel) = r.reliability.as_ref() else {
            continue;
        };
        t.row(&[
            scrub_rate_mbps.to_string(),
            rel.latent_errors.to_string(),
            rel.latent_repaired.to_string(),
            format!("{:.1}", rel.scrub_coverage * 100.0),
            rel.blocks_lost.to_string(),
            rel.lost_reads.to_string(),
        ]);
    }
    print!("{}", t.render());

    println!("\n-- multi-failure escalation, RAID5 (first failure: disk 0 at 30 s) --");
    let scenarios: [(&str, DiskFailure, u32); 3] = [
        (
            "spare dies at 60 s, pool of 2",
            DiskFailure {
                array: 0,
                disk: 0,
                at_ms: 60_000,
            },
            2,
        ),
        (
            "spare dies at 60 s, pool of 1",
            DiskFailure {
                array: 0,
                disk: 0,
                at_ms: 60_000,
            },
            1,
        ),
        (
            "second data disk at 60 s",
            DiskFailure {
                array: 0,
                disk: 3,
                at_ms: 60_000,
            },
            2,
        ),
    ];
    let mut t = Table::new(&[
        "scenario",
        "health",
        "failures",
        "spares used",
        "blocks lost",
        "lost reads",
        "loss at s",
    ]);
    for (label, second, spare_count) in scenarios {
        let mut c = cfg(Organization::Raid5 { striping_unit: 1 }, 10, None);
        c.fault = Some(FaultConfig {
            disk_failure: Some(fail0),
            second_failure: Some(second),
            spare: true,
            spare_count,
            rebuild_rate_mbps: 10,
            ..FaultConfig::default()
        });
        let r = run(c, &w.trace2);
        let Some(rel) = r.reliability.as_ref() else {
            continue;
        };
        t.row(&[
            label.to_string(),
            rel.health.clone(),
            rel.disk_failures.to_string(),
            rel.spares_used.to_string(),
            rel.blocks_lost.to_string(),
            rel.lost_reads.to_string(),
            rel.data_loss_at_ms
                .map_or_else(|| "-".into(), |v| format!("{:.1}", v / 1000.0)),
        ]);
    }
    print!("{}", t.render());
    println!();
}

/// An experiment: its CLI id and the function that prints it.
pub type Experiment = (&'static str, fn(&Workloads));

/// Extension experiment: fine-grained parity striping (the paper's closing
/// future-work item — "the use of a smaller striping unit for the parity in
/// order to balance the parity update load in the Parity Striping
/// organization"). Data placement stays sequential; only the parity
/// assignment rotates per band.
pub fn finegrain(w: &Workloads) {
    println!("== Extension: fine-grained parity striping (Trace 2) ==\n");
    let variants = [
        ("pinned (middle)", ParityPlacement::Middle),
        (
            "rotated, 256-block bands",
            ParityPlacement::MiddleRotated { band_blocks: 256 },
        ),
        (
            "rotated, 1024-block bands",
            ParityPlacement::MiddleRotated { band_blocks: 1024 },
        ),
    ];
    for (tname, trace) in [
        ("Trace 2", w.trace2.clone()),
        ("Trace 2 @2x speed", transform::at_speed(&w.trace2, 2.0)),
    ] {
        println!("-- {tname} --");
        let mut t = Table::new(&["parity layout", "mean ms", "disk-access CV", "max util %"]);
        for (label, placement) in variants {
            let r = run(
                cfg(Organization::ParityStriping { placement }, 10, None),
                &trace,
            );
            t.row(&[
                label.to_string(),
                ms(r.mean_response_ms()),
                format!("{:.3}", r.per_disk_accesses.coefficient_of_variation()),
                format!("{:.1}", r.max_disk_utilization() * 100.0),
            ]);
        }
        print!("{}", t.render());
        println!();
    }
}

/// Observability extension: decompose each organization's mean response
/// time into its phases (admission, channel, disk queue, destage
/// interference, seek, rotation, transfer, parity). The components sum to
/// the mean — this is where the paper's *causal* claims become checkable:
/// the RAID5/RAID4 write penalty should be rotation- and parity-dominated
/// (the RMW turnaround of Section 3.3), Parity Striping's penalty
/// seek-dominated (long arm travel to the dedicated parity region), and
/// cached residual write cost mostly destage interference.
pub fn breakdown(w: &Workloads) {
    println!("== Breakdown: response-time decomposition (mean ms per phase) ==\n");
    let header = [
        "organization",
        "dir",
        "mean",
        "admit",
        "chan",
        "queue",
        "destage",
        "seek",
        "rot",
        "xfer",
        "parity",
    ];
    let rows_for = |t: &mut Table, label: &str, r: &SimReport| {
        for (dir, ph, mean) in [
            ("R", &r.phases_reads, r.mean_read_ms()),
            ("W", &r.phases_writes, r.mean_write_ms()),
        ] {
            let mut row = vec![label.to_string(), dir.to_string(), ms(mean)];
            row.extend(ph.means_ms().iter().map(|(_, m)| ms(*m)));
            t.row(&row);
        }
    };
    for (tname, trace) in w.named() {
        println!("-- {tname}, no cache --");
        let mut t = Table::new(&header);
        for org in main_orgs() {
            let r = run(cfg(org, 10, None), trace);
            rows_for(&mut t, org.label(), &r);
        }
        print!("{}", t.render());
        println!();
    }
    println!("-- Trace 2, 4 MB NV cache --");
    let mut t = Table::new(&header);
    for org in [
        Organization::Raid5 { striping_unit: 1 },
        Organization::Raid4 { striping_unit: 1 },
    ] {
        let r = run(cfg(org, 10, Some(4)), &w.trace2);
        rows_for(&mut t, org.label(), &r);
    }
    print!("{}", t.render());
    println!();
}

/// Extension experiment: disk scheduling disciplines. The paper's
/// simulator serves each band FCFS (Section 3.3); this compares FCFS
/// against SSTF and SCAN on the same configurations as `breakdown` — the
/// FCFS columns must reproduce that experiment's mean read/write columns
/// exactly, because the default discipline *is* the paper's model and the
/// dispatch seam is hash-neutral under it. A high-load section then runs
/// all five organizations at Trace 2 @2× speed, where queues are deep
/// enough for reordering to matter, and reports per-discipline mean seek
/// distance and foreground queue depth.
pub fn scheduling(w: &Workloads) {
    println!("== Scheduling: queue disciplines (FCFS vs SSTF vs SCAN) ==\n");
    let header = ["organization", "dir", "FCFS", "SSTF", "SCAN"];
    let rows_for = |t: &mut Table, label: &str, reports: &[SimReport]| {
        for (dir, mean) in [
            ("R", SimReport::mean_read_ms as fn(&SimReport) -> f64),
            ("W", SimReport::mean_write_ms),
        ] {
            let mut row = vec![label.to_string(), dir.to_string()];
            row.extend(reports.iter().map(|r| ms(mean(r))));
            t.row(&row);
        }
    };
    let sweep = |t: &mut Table, org: Organization, cache_mb: Option<u64>, trace: &Trace| {
        let reports: Vec<SimReport> = Discipline::ALL
            .into_iter()
            .map(|d| {
                let mut c = cfg(org, 10, cache_mb);
                c.scheduler = d;
                run(c, trace)
            })
            .collect();
        rows_for(t, org.label(), &reports);
    };
    for (tname, trace) in w.named() {
        println!("-- {tname}, no cache (FCFS columns = `breakdown` means) --");
        let mut t = Table::new(&header);
        for org in main_orgs() {
            sweep(&mut t, org, None, trace);
        }
        print!("{}", t.render());
        println!();
    }
    println!("-- Trace 2, 4 MB NV cache --");
    let mut t = Table::new(&header);
    for org in [
        Organization::Raid5 { striping_unit: 1 },
        Organization::Raid4 { striping_unit: 1 },
    ] {
        sweep(&mut t, org, Some(4), &w.trace2);
    }
    print!("{}", t.render());

    println!("\n-- Trace 2 @2x speed, no cache: high load, all organizations --");
    let trace = transform::at_speed(&w.trace2, 2.0);
    let mut t = Table::new(&[
        "organization",
        "discipline",
        "mean ms",
        "p95 ms",
        "seek cyl",
        "qdepth N",
    ]);
    let all_orgs = [
        Organization::Base,
        Organization::Mirror,
        Organization::Raid5 { striping_unit: 1 },
        Organization::Raid4 { striping_unit: 1 },
        Organization::ParityStriping {
            placement: ParityPlacement::Middle,
        },
    ];
    for org in all_orgs {
        for d in Discipline::ALL {
            let mut c = cfg(org, 10, None);
            c.scheduler = d;
            c.observability.scheduler_stats = true;
            let r = run(c, &trace);
            let s = r
                .scheduler
                .as_ref()
                .expect("scheduler_stats attaches statistics");
            t.row(&[
                org.label().to_string(),
                d.label().to_string(),
                ms(r.mean_response_ms()),
                ms(r.quantile_ms(0.95)),
                format!("{:.1}", s.mean_seek_distance_cyl()),
                format!("{:.2}", s.queue_depth_normal.mean()),
            ]);
        }
    }
    print!("{}", t.render());
    println!();
}

/// Fleet audit: the built-in 16-VA heterogeneous fleet, reported per
/// virtual array and per tenant (traces are generated by the fleet router,
/// so the shared workloads are unused).
pub fn fleet(_w: &Workloads) {
    println!("== Fleet: 16 heterogeneous virtual arrays, one trace router ==\n");
    let cfg = FleetConfig::demo();
    let (report, _) = run_fleet(&cfg, 0).expect("the built-in demo fleet runs");
    println!(
        "{} requests | {:.1} s simulated | {:.0} events/sim-s\n",
        report.requests_completed, report.elapsed_secs, report.events_per_sim_sec,
    );
    let mut t = Table::new(&[
        "array",
        "org",
        "class",
        "completed",
        "mean ms",
        "p99 ms",
        "state",
        "tenants",
    ]);
    for va in &report.vas {
        t.row(&[
            va.name.clone(),
            va.organization.clone(),
            va.disk_class.clone(),
            va.report.requests_completed.to_string(),
            ms(va.report.mean_response_ms()),
            ms(va.report.quantile_ms(0.99)),
            if va.degraded { "degraded" } else { "ok" }.to_string(),
            va.tenants.join(","),
        ]);
    }
    print!("{}", t.render());

    println!("\n-- per tenant --");
    let mut t = Table::new(&["tenant", "array", "completed", "mean ms", "p99 ms", "state"]);
    for tr in &report.tenants {
        t.row(&[
            tr.id.clone(),
            tr.va.clone(),
            tr.completed.to_string(),
            ms(tr.response_ms.mean()),
            ms(tr.p99_ms),
            if tr.degraded { "degraded" } else { "ok" }.to_string(),
        ]);
    }
    print!("{}", t.render());
    if report.blast_radius.is_empty() {
        println!("\nno disk failures: blast radius empty");
    } else {
        println!("\nrebuild blast radius: {}", report.blast_radius.join(", "));
    }
    println!();
}

/// All experiment ids in paper order.
pub const ALL: &[Experiment] = &[
    ("table1", table1),
    ("table2", table2),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6_7),
    ("fig7", fig6_7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("fig18", fig18),
    ("fig19", fig19),
    ("degraded", degraded),
    ("rebuild", rebuild),
    ("reliability", reliability),
    ("finegrain", finegrain),
    ("breakdown", breakdown),
    ("scheduling", scheduling),
    ("fleet", fleet),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every experiment function runs to completion on tiny workloads.
    /// (Shapes are asserted in the integration suite; this is a smoke test
    /// that the harness itself is wired correctly.)
    #[test]
    fn all_experiments_run_on_tiny_workloads() {
        let w = Workloads::tiny();
        // Skip duplicated fig7 alias.
        for (id, f) in ALL.iter().filter(|(id, _)| *id != "fig7") {
            eprintln!("running {id}");
            f(&w);
        }
    }

    #[test]
    fn ids_are_unique_and_ordered() {
        let mut seen = std::collections::BTreeSet::new();
        for (id, _) in ALL.iter().filter(|(id, _)| *id != "fig7") {
            assert!(seen.insert(*id), "duplicate id {id}");
        }
    }
}
