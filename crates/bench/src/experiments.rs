//! One declaration per table/figure of the paper's evaluation (Section 4).
//!
//! Every experiment declares the simulation points it reads into a shared
//! [`Plan`] and returns a [`Render`] that formats its aligned text tables
//! from the plan's results. [`render`] runs one plan for a whole selection,
//! so a point two figures print is simulated once; the `figures` binary
//! dispatches on experiment ids. All runs are deterministic, and the text
//! does not depend on the thread count.

use crate::plan::{Id, Plan, TraceKey, TRACE1, TRACE2, TRACES};
use crate::Workloads;
use diskmodel::{DiskGeometry, SeekCurve};
use raidsim::{
    run_fleet, CacheConfig, Discipline, DiskFailure, FaultConfig, FaultReport, FleetConfig,
    FleetReport, Organization, ParityPlacement, PhaseWelfords, ReliabilityReport, SchedulerReport,
    SimConfig, SimReport, SparingMode, SyncPolicy,
};
use raidtp_stats::table::{ms, pct};
use raidtp_stats::Table;
use tracegen::TraceStats;

/// An experiment's text, formatted from the plan's results.
pub type Render = Box<dyn FnOnce(&[SimReport]) -> String>;

/// An experiment: its CLI id and the function that declares its points.
pub type Experiment = (&'static str, fn(&mut Plan, &Workloads) -> Render);

/// A table cell: one statistic of a point's report.
type Cell = fn(&SimReport) -> String;

const BASE: Organization = Organization::Base;
const MIRROR: Organization = Organization::Mirror;
const RAID5: Organization = Organization::Raid5 { striping_unit: 1 };
const RAID4: Organization = Organization::Raid4 { striping_unit: 1 };
const PARSTRIP: Organization = Organization::ParityStriping {
    placement: ParityPlacement::Middle,
};
/// The four primary organizations of Figure 5 / Table 3.
const MAIN_ORGS: [Organization; 4] = [BASE, MIRROR, RAID5, PARSTRIP];
/// Array sizes of the non-cached N sweeps.
const NS: [u32; 4] = [5, 10, 15, 20];

fn cfg(org: Organization, n: u32, cache_mb: Option<u64>) -> SimConfig {
    let mut c = SimConfig::with_organization(org);
    c.data_disks_per_array = n;
    c.cache = cache_mb.map(|size_mb| CacheConfig {
        size_mb,
        ..CacheConfig::default()
    });
    c
}

fn with_fault(c: SimConfig, fault: FaultConfig) -> SimConfig {
    SimConfig {
        fault: Some(fault),
        ..c
    }
}

fn scheduled(c: SimConfig, scheduler: Discipline) -> SimConfig {
    SimConfig { scheduler, ..c }
}

fn mean(r: &SimReport) -> String {
    ms(r.mean_response_ms())
}

// A run with a fault config reports both faults and reliability; one with
// `scheduler_stats` reports scheduler statistics.
fn faults(r: &SimReport) -> &FaultReport {
    r.faults.as_ref().expect("fault config set")
}

fn lifecycle(r: &SimReport) -> &ReliabilityReport {
    r.reliability.as_ref().expect("fault config set")
}

fn scheduler(r: &SimReport) -> &SchedulerReport {
    r.scheduler.as_ref().expect("scheduler_stats set")
}

/// Table rows labelled by their own value.
fn rows<R: Copy + std::fmt::Display>(values: &[R]) -> Vec<(String, R)> {
    values.iter().map(|&v| (v.to_string(), v)).collect()
}

/// One mean-response-time column per organization.
fn org_cols(orgs: &[Organization]) -> Vec<(&'static str, Organization, Cell)> {
    orgs.iter().map(|&o| (o.label(), o, mean as Cell)).collect()
}

/// A `-- title --` line (none for an empty title), the table, a blank line.
fn section(title: &str, t: &Table) -> String {
    if title.is_empty() {
        return format!("{}\n", t.render());
    }
    format!("-- {title} --\n{}\n", t.render())
}

/// An experiment's text: its `head` line, a blank line, then each part.
fn figure(head: &str, parts: impl IntoIterator<Item = Render>) -> Render {
    let mut out = format!("{head}\n\n");
    let parts: Vec<Render> = parts.into_iter().collect();
    Box::new(move |res| {
        for part in parts {
            out += &part(res);
        }
        out
    })
}

/// One table section: a row per `rows` entry and a column per `cols` entry
/// `(header, parameter, cell)`, whose cell formats the report of the point
/// `point(row, parameter)`.
fn grid<R, C: Copy>(
    plan: &mut Plan,
    title: &str,
    corner: &'static str,
    rows: impl IntoIterator<Item = (String, R)>,
    cols: &[(&'static str, C, Cell)],
    point: impl Fn(&R, C) -> (TraceKey, SimConfig),
) -> Render {
    let title = title.to_string();
    let mut header = vec![corner];
    header.extend(cols.iter().map(|&(h, ..)| h));
    let cells: Vec<(String, Vec<(Cell, Id)>)> = rows
        .into_iter()
        .map(|(label, r)| {
            let ids = cols.iter().map(|&(_, c, cell)| {
                let (key, config) = point(&r, c);
                (cell, plan.point(key, config))
            });
            (label, ids.collect())
        })
        .collect();
    Box::new(move |res| {
        let mut t = Table::new(&header);
        for (label, ids) in cells {
            let mut row = vec![label];
            row.extend(ids.into_iter().map(|(cell, id)| cell(&res[id])));
            t.row(&row);
        }
        section(&title, &t)
    })
}

/// A grid of one point per row, each column a statistic of it.
fn metrics<R>(
    plan: &mut Plan,
    title: &str,
    corner: &'static str,
    rows: impl IntoIterator<Item = (String, R)>,
    cols: &[(&'static str, Cell)],
    point: impl Fn(&R) -> (TraceKey, SimConfig),
) -> Render {
    let cols: Vec<_> = cols.iter().map(|&(h, cell)| (h, (), cell)).collect();
    grid(plan, title, corner, rows, &cols, |r, ()| point(r))
}

/// A figure of one grid per base trace, titled with the trace's name.
fn per_trace<R: Clone, C: Copy>(
    plan: &mut Plan,
    head: &str,
    corner: &'static str,
    rows: &[(String, R)],
    cols: &[(&'static str, C, Cell)],
    point: impl Fn(TraceKey, &R, C) -> (TraceKey, SimConfig),
) -> Render {
    let parts = TRACES.map(|key| {
        let point = |r: &R, c| point(key, r, c);
        grid(plan, key.name(), corner, rows.to_vec(), cols, point)
    });
    figure(head, parts)
}

/// Table 1: the disk/channel model, including the calibrated seek curve the
/// paper leaves implicit.
pub fn table1(_: &mut Plan, _: &Workloads) -> Render {
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
    let capacity = format!("{:.2} GB", g.capacity_bytes() as f64 / 1e9);
    t.row(&["Capacity (derived)".into(), capacity]);
    let rotation = format!("{:.3} ms", g.rotation_ns() as f64 / 1e6);
    t.row(&["Rotation period (derived)".into(), rotation]);
    let transfer = format!("{:.3} ms", g.block_transfer_ns() as f64 / 1e6);
    t.row(&["4 KB media transfer (derived)".into(), transfer]);
    let seek = format!("a={:.4}, b={:.5}, c={:.1} (ms)", s.a, s.b, s.c);
    t.row(&["Seek curve a√(x−1)+b(x−1)+c".into(), seek]);
    let text = format!(
        "== Table 1: disk and channel parameters (model constants) ==\n\n{}\n",
        t.render()
    );
    Box::new(move |_| text)
}

/// Table 2: characteristics of the (synthetic) traces, with the paper's
/// originals alongside.
pub fn table2(_: &mut Plan, w: &Workloads) -> Render {
    // Our value of each metric, in the row order of `paper` below.
    let ours = |s: TraceStats| {
        [
            format!("{:.0}min", s.duration_secs / 60.0),
            s.n_disks.to_string(),
            s.io_accesses.to_string(),
            s.blocks_transferred.to_string(),
            s.single_block_reads.to_string(),
            s.single_block_writes.to_string(),
            s.multiblock_reads.to_string(),
            s.multiblock_writes.to_string(),
            pct(s.write_fraction()),
            format!("{:.2}", s.disk_skew_cv()),
        ]
    };
    let [t1, t2] = [&w.trace1, &w.trace2].map(|t| ours(TraceStats::of(t)));
    // (metric, paper's Trace 1, paper's Trace 2)
    let paper = [
        ("Duration", "183min", "100min"),
        ("# of disks", "130", "10"),
        ("# of I/O accesses", "3362505", "69539"),
        ("# blocks transferred", "4467719", "143105"),
        ("single-block reads", "2977914", "48339"),
        ("single-block writes", "312961", "17557"),
        ("multiblock reads", "47324", "2029"),
        ("multiblock writes", "24306", "2098"),
        ("write fraction %", "10.0", "28.3"),
        ("disk-skew CV", "moderate", "high"),
    ];
    let mut t = Table::new(&["metric", "Trace 1", "paper T1", "Trace 2", "paper T2"]);
    for (((metric, p1, p2), v1), v2) in paper.into_iter().zip(t1).zip(t2) {
        t.row(&[metric.into(), v1, p1.into(), v2, p2.into()]);
    }
    let text = format!(
        "== Table 2: trace characteristics (synthetic; Trace 1 at scale {}) ==\n\n{}\n",
        w.t1_scale,
        t.render()
    );
    Box::new(move |_| text)
}

/// Figure 4: synchronization policies × array size, RAID5 and Parity
/// Striping, both traces. A Trace 2 @2× section is added because the SI
/// pathology — the parity disk held spinning while a congested data disk
/// finishes its read — only becomes visible once disks queue.
pub fn fig4(plan: &mut Plan, _: &Workloads) -> Render {
    let policies = [
        SyncPolicy::SimultaneousIssue,
        SyncPolicy::ReadFirst,
        SyncPolicy::ReadFirstPriority,
        SyncPolicy::DiskFirst,
        SyncPolicy::DiskFirstPriority,
    ]
    .map(|p| (p.label(), p, mean as Cell));
    let traces = [
        ("Trace 1", TRACE1),
        ("Trace 2", TRACE2),
        ("Trace 2 @2x speed", TRACE2.at_speed(2.0)),
    ];
    let mut parts = Vec::new();
    for (tname, key) in traces {
        for org in [RAID5, PARSTRIP] {
            let title = format!("{tname}, {}", org.label());
            parts.push(grid(plan, &title, "N", rows(&NS), &policies, |&n, sync| {
                let mut c = cfg(org, n, None);
                c.sync = sync;
                (key, c)
            }));
        }
    }
    let head = "== Figure 4: response time (ms) by synchronization method vs N ==";
    figure(head, parts)
}

/// Figure 5: non-cached response time vs array size for all four
/// organizations.
pub fn fig5(plan: &mut Plan, _: &Workloads) -> Render {
    let head = "== Figure 5: response time (ms) vs array size, non-cached ==";
    n_sweep(plan, head, &org_cols(&MAIN_ORGS))
}

/// Figures 6 & 7: per-disk access distribution, Base vs RAID5, Trace 1.
pub fn fig6_7(plan: &mut Plan, _: &Workloads) -> Render {
    let ids = [BASE, RAID5].map(|org| (org, plan.point(TRACE1, cfg(org, 10, None))));
    Box::new(move |res| {
        let mut out =
            String::from("== Figures 6–7: distribution of accesses to disks (Trace 1) ==\n\n");
        for (org, id) in ids {
            let c = &res[id].per_disk_accesses;
            out += &format!(
                "-- {} : {} disks, CV {:.3}, peak/mean {:.2} --\n",
                org.label(),
                c.counts().len(),
                c.coefficient_of_variation(),
                c.peak_to_mean()
            );
            for (i, chunk) in c.counts().chunks(13).enumerate() {
                let cells: Vec<String> = chunk.iter().map(|x| format!("{x:6}")).collect();
                out += &format!("  disks {:3}..: {}\n", i * 13, cells.join(" "));
            }
            out += "\n";
        }
        out
    })
}

/// Non-cached response time vs array size, one column per organization.
fn n_sweep(plan: &mut Plan, head: &str, cols: &[(&'static str, Organization, Cell)]) -> Render {
    let point = |key, &n: &u32, org| (key, cfg(org, n, None));
    per_trace(plan, head, "N", &rows(&NS), cols, point)
}

/// Response time vs striping unit at N = 10, one column per organization.
fn striping(plan: &mut Plan, head: &str, cache_mb: Option<u64>, orgs: &[Organization]) -> Render {
    let units = rows(&[1u32, 2, 4, 8, 16, 32, 64]);
    let point = |key, &striping_unit: &u32, org| {
        let org = match org {
            RAID4 => Organization::Raid4 { striping_unit },
            _ => Organization::Raid5 { striping_unit },
        };
        (key, cfg(org, 10, cache_mb))
    };
    per_trace(
        plan,
        head,
        "striping unit (blocks)",
        &units,
        &org_cols(orgs),
        point,
    )
}

/// Response time vs trace speed at N = 10, one column per organization.
fn speeds(plan: &mut Plan, head: &str, orgs: &[Organization], cache_mb: Option<u64>) -> Render {
    let speeds = rows(&[0.5f64, 1.0, 2.0]);
    let point = |key: TraceKey, &speed: &f64, org| (key.at_speed(speed), cfg(org, 10, cache_mb));
    per_trace(plan, head, "speed", &speeds, &org_cols(orgs), point)
}

/// Statistics of N = 10 organizations vs cache size; each column names its
/// organization and its statistic.
fn cache_sweep(plan: &mut Plan, head: &str, cols: &[(&'static str, Organization, Cell)]) -> Render {
    let sizes = rows(&[8u64, 16, 32, 64, 128, 256]);
    let point = |key, &mb: &u64, org| (key, cfg(org, 10, Some(mb)));
    per_trace(plan, head, "cache MB", &sizes, cols, point)
}

/// Cached response time vs array size, the cache per array growing with N.
fn cache_per_n(plan: &mut Plan, head: &str, ns: [(u32, u64); 3], orgs: &[Organization]) -> Render {
    let sizes = ns.map(|(n, mb)| (format!("{n} ({mb})"), (n, mb)));
    let point = |key, &(n, mb): &(u32, u64), org| (key, cfg(org, n, Some(mb)));
    per_trace(plan, head, "N (cache MB)", &sizes, &org_cols(orgs), point)
}

fn read_hit(r: &SimReport) -> String {
    pct(r.read_hit_ratio())
}

fn write_hit(r: &SimReport) -> String {
    pct(r.write_hit_ratio())
}

/// Figure 8: non-cached RAID5 response time vs striping unit.
pub fn fig8(plan: &mut Plan, _: &Workloads) -> Render {
    let head = "== Figure 8: RAID5 response time (ms) vs striping unit, non-cached ==";
    striping(plan, head, None, &[RAID5])
}

/// Figure 9: Parity Striping parity placement (middle vs end cylinders)
/// vs array size.
pub fn fig9(plan: &mut Plan, _: &Workloads) -> Render {
    let end = Organization::ParityStriping {
        placement: ParityPlacement::End,
    };
    let head = "== Figure 9: Parity Striping response time (ms) by parity placement ==";
    n_sweep(
        plan,
        head,
        &[("middle", PARSTRIP, mean), ("end", end, mean)],
    )
}

/// Figure 10: non-cached response time vs trace speed.
pub fn fig10(plan: &mut Plan, _: &Workloads) -> Render {
    let head = "== Figure 10: response time (ms) vs trace speed, non-cached ==";
    speeds(plan, head, &MAIN_ORGS, None)
}

/// Figure 11: read/write hit ratios vs cache size, parity vs non-parity
/// organizations.
pub fn fig11(plan: &mut Plan, _: &Workloads) -> Render {
    cache_sweep(
        plan,
        "== Figure 11: hit ratios (%) vs cache size ==",
        &[
            ("read Base", BASE, read_hit),
            ("read RAID5", RAID5, read_hit),
            ("write Base", BASE, write_hit),
            ("write RAID5", RAID5, write_hit),
        ],
    )
}

/// Figure 12: cached response time vs cache size for all organizations.
pub fn fig12(plan: &mut Plan, _: &Workloads) -> Render {
    let head = "== Figure 12: response time (ms) vs cache size, cached ==";
    cache_sweep(plan, head, &org_cols(&MAIN_ORGS))
}

/// Figure 13: cached response time vs array size at constant total cache
/// (N=5 ⇒ 8 MB/array, N=10 ⇒ 16 MB, N=15 ⇒ 24 MB).
pub fn fig13(plan: &mut Plan, _: &Workloads) -> Render {
    let head = "== Figure 13: response time (ms) vs array size, cached (cache ∝ N) ==";
    cache_per_n(plan, head, [(5, 8), (10, 16), (15, 24)], &MAIN_ORGS)
}

/// Figure 14: cached RAID5 response time vs striping unit.
pub fn fig14(plan: &mut Plan, _: &Workloads) -> Render {
    let head = "== Figure 14: cached RAID5 response time (ms) vs striping unit ==";
    striping(plan, head, Some(16), &[RAID5])
}

/// Figure 15: RAID5 (data caching) vs RAID4 (data + parity caching) hit
/// ratios vs cache size.
pub fn fig15(plan: &mut Plan, _: &Workloads) -> Render {
    cache_sweep(
        plan,
        "== Figure 15: hit ratios (%) vs cache size, RAID5 vs RAID4 ==",
        &[
            ("read RAID5", RAID5, read_hit),
            ("read RAID4", RAID4, read_hit),
            ("write RAID5", RAID5, write_hit),
            ("write RAID4", RAID4, write_hit),
        ],
    )
}

/// Figure 16: RAID5 vs RAID4 response time vs cache size.
pub fn fig16(plan: &mut Plan, _: &Workloads) -> Render {
    cache_sweep(
        plan,
        "== Figure 16: response time (ms) vs cache size, RAID5 vs RAID4 ==",
        &[
            ("RAID5", RAID5, mean),
            ("RAID4", RAID4, mean),
            ("RAID4 spool peak", RAID4, |r| r.spool_peak.to_string()),
        ],
    )
}

/// Figure 17: RAID4 vs RAID5 response time vs array size (cache ∝ N).
pub fn fig17(plan: &mut Plan, _: &Workloads) -> Render {
    let head = "== Figure 17: response time (ms) vs array size, RAID4 vs RAID5 (cache ∝ N) ==";
    cache_per_n(plan, head, [(5, 8), (10, 16), (20, 32)], &[RAID5, RAID4])
}

/// Figure 18: RAID4 vs RAID5 response time vs trace speed (16 MB cache).
pub fn fig18(plan: &mut Plan, _: &Workloads) -> Render {
    let head = "== Figure 18: response time (ms) vs trace speed, RAID4 vs RAID5, cached ==";
    speeds(plan, head, &[RAID5, RAID4], Some(16))
}

/// Figure 19: RAID4 vs RAID5 response time vs striping unit (16 MB cache).
pub fn fig19(plan: &mut Plan, _: &Workloads) -> Render {
    let head = "== Figure 19: response time (ms) vs striping unit, RAID4 vs RAID5, cached ==";
    striping(plan, head, Some(16), &[RAID5, RAID4])
}

/// Extension experiment (beyond the paper's figures): degraded-mode
/// operation. Section 4.2.1 remarks that large arrays "have worse
/// performance during reconstruction following a disk failure"; this
/// quantifies steady-state degraded response time for each redundant
/// organization and its growth with N.
pub fn degraded(plan: &mut Plan, _: &Workloads) -> Render {
    // A column's parameter: run with disk 0 of array 0 failed.
    let point = |c: &SimConfig, failed: bool| {
        let mut c = c.clone();
        c.failed_disk = failed.then_some((0, 0));
        (TRACE2, c)
    };
    let by_org = [MIRROR, RAID5, PARSTRIP, RAID4].map(|org| {
        let (label, cache) = match org {
            RAID4 => ("RAID4 (cached)", Some(16)),
            _ => (org.label(), None),
        };
        (label.to_string(), cfg(org, 10, cache))
    });
    let ops_per_req: Cell = |r| format!("{:.2}", r.disk_ops as f64 / r.requests_completed as f64);
    let cols = [
        ("healthy ms", false, mean as Cell),
        ("degraded ms", true, mean),
        ("ops/req degraded", true, ops_per_req),
    ];
    let by_n = [5u32, 10, 20].map(|n| (n.to_string(), cfg(RAID5, n, None)));
    let by_n_title = "degraded RAID5 vs array size (reconstruction fan-out ∝ N)";
    figure(
        "== Extension: degraded-mode response time (one failed disk, Trace 2) ==",
        [
            grid(plan, "", "organization", by_org, &cols, point),
            grid(plan, by_n_title, "N", by_n, &cols[..2], point),
        ],
    )
}

/// Extension experiment: the full failure *timeline* — a disk dies mid-run,
/// in-flight operations abort and re-plan through the degraded machinery,
/// an online rebuild sweeps the lost blocks onto a hot spare, and service
/// returns to healthy. Quantifies Section 4.2.1's remark that arrays "have
/// worse performance during reconstruction following a disk failure":
/// Mirror rebuilds from one surviving partner, RAID5 pays a max-of-N
/// reconstruction read per batch and the largest degraded penalty.
pub fn rebuild(plan: &mut Plan, _: &Workloads) -> Render {
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
    let orgs = [MIRROR, RAID5, PARSTRIP].map(|o| (o.label().to_string(), o));
    let error_probs = [1e-4, 1e-3, 1e-2].map(|p: f64| (format!("{p:.0e}"), p));
    let outages = [
        ("healthy", None),
        ("out 60 s → 180 s", Some((60_000, 180_000))),
    ]
    .map(|(label, outage)| (label.to_string(), outage));
    let failure = metrics(
        plan,
        "disk 0 fails at t = 60 s; rebuild throttled to 10 MB/s",
        "organization",
        orgs,
        &[
            ("healthy ms", |r| ms(faults(r).response_healthy_ms.mean())),
            ("degraded ms", |r| ms(faults(r).degraded_mean_ms())),
            ("rebuild s", |r| {
                format!("{:.1}", faults(r).rebuild_ms / 1000.0)
            }),
            ("aborted", |r| faults(r).ops_aborted.to_string()),
            ("replayed", |r| faults(r).ops_replayed.to_string()),
        ],
        |&org| (TRACE2, with_fault(cfg(org, 10, None), fail)),
    );
    let transient = metrics(
        plan,
        "transient media errors, RAID5: controller retry with backoff",
        "error prob",
        error_probs,
        &[
            ("errors", |r| faults(r).transient_errors.to_string()),
            ("retries", |r| faults(r).retries.to_string()),
            ("escalations", |r| faults(r).escalations.to_string()),
            ("mean ms", mean),
        ],
        |&p| {
            let fault = FaultConfig {
                transient_error_prob: p,
                ..FaultConfig::default()
            };
            (TRACE2, with_fault(cfg(RAID5, 10, None), fault))
        },
    );
    let battery = metrics(
        plan,
        "NVRAM battery outage, cached RAID5 (16 MB): write-through failover",
        "battery",
        outages,
        &[
            ("mean ms", mean),
            ("write-through", |r| {
                faults(r).writes_written_through.to_string()
            }),
            ("outage s", |r| {
                format!("{:.0}", faults(r).battery_window_ms / 1000.0)
            }),
        ],
        |outage| {
            let fault = FaultConfig {
                battery_fail_at_ms: outage.map(|(at, _)| at),
                battery_restore_at_ms: outage.map(|(_, until)| until),
                ..FaultConfig::default()
            };
            (TRACE2, with_fault(cfg(RAID5, 10, Some(16)), fault))
        },
    );
    let head = "== Extension: mid-run disk failure, online rebuild onto a hot spare (Trace 2) ==";
    figure(head, [failure, transient, battery])
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
pub fn reliability(plan: &mut Plan, _: &Workloads) -> Render {
    let fail0 = DiskFailure {
        array: 0,
        disk: 0,
        at_ms: 30_000,
    };
    let raid5 = |fault| (TRACE2, with_fault(cfg(RAID5, 10, None), fault));
    let orgs = [MIRROR, RAID5, PARSTRIP].map(|o| (o.label().to_string(), o));
    let rebuild_s: Cell = |r| format!("{:.1}", faults(r).rebuild_ms / 1000.0);
    let exposure_s: Cell = |r| format!("{:.1}", lifecycle(r).exposure_ms / 1000.0);
    let degraded_ms: Cell = |r| ms(faults(r).degraded_mean_ms());
    let (hot, dist) = (SparingMode::Hot, SparingMode::Distributed);
    let sparing = grid(
        plan,
        "disk 0 fails at t = 30 s; unthrottled rebuild; hot vs distributed sparing",
        "organization",
        orgs,
        &[
            ("rebuild s hot", hot, rebuild_s),
            ("rebuild s dist", dist, rebuild_s),
            ("exposure s hot", hot, exposure_s),
            ("exposure s dist", dist, exposure_s),
            ("degraded ms hot", hot, degraded_ms),
            ("degraded ms dist", dist, degraded_ms),
        ],
        |&org, sparing| {
            let fault = FaultConfig {
                disk_failure: Some(fail0),
                spare: true,
                sparing,
                rebuild_rate_mbps: 0,
                ..FaultConfig::default()
            };
            (TRACE2, with_fault(cfg(org, 10, None), fault))
        },
    );
    let scrubbing = metrics(
        plan,
        "latent sector errors vs background scrub, RAID5 (1/disk-hour)",
        "scrub MB/s",
        rows(&[0u64, 4, 16]),
        &[
            ("latent found", |r| lifecycle(r).latent_errors.to_string()),
            ("repaired", |r| lifecycle(r).latent_repaired.to_string()),
            ("coverage %", |r| {
                format!("{:.1}", lifecycle(r).scrub_coverage * 100.0)
            }),
            ("blocks lost", |r| lifecycle(r).blocks_lost.to_string()),
            ("lost reads", |r| lifecycle(r).lost_reads.to_string()),
        ],
        |&scrub_rate_mbps| {
            raid5(FaultConfig {
                latent_rate_per_hour: 1.0,
                scrub_rate_mbps,
                ..FaultConfig::default()
            })
        },
    );
    // (scenario, disk that fails second at 60 s, spare pool size)
    let scenarios = [
        ("spare dies at 60 s, pool of 2", 0, 2),
        ("spare dies at 60 s, pool of 1", 0, 1),
        ("second data disk at 60 s", 3, 2),
    ]
    .map(|(label, disk, spares)| (label.to_string(), (disk, spares)));
    let escalation = metrics(
        plan,
        "multi-failure escalation, RAID5 (first failure: disk 0 at 30 s)",
        "scenario",
        scenarios,
        &[
            ("health", |r| lifecycle(r).health.clone()),
            ("failures", |r| lifecycle(r).disk_failures.to_string()),
            ("spares used", |r| lifecycle(r).spares_used.to_string()),
            ("blocks lost", |r| lifecycle(r).blocks_lost.to_string()),
            ("lost reads", |r| lifecycle(r).lost_reads.to_string()),
            ("loss at s", |r| {
                let at = lifecycle(r).data_loss_at_ms;
                at.map_or_else(|| "-".into(), |v| format!("{:.1}", v / 1000.0))
            }),
        ],
        |&(disk, spare_count)| {
            raid5(FaultConfig {
                disk_failure: Some(fail0),
                second_failure: Some(DiskFailure {
                    at_ms: 60_000,
                    disk,
                    ..fail0
                }),
                spare: true,
                spare_count,
                rebuild_rate_mbps: 10,
                ..FaultConfig::default()
            })
        },
    );
    let head = "== Extension: failure lifecycle — sparing, scrubbing, multi-failure (Trace 2) ==";
    figure(head, [sparing, scrubbing, escalation])
}

/// Extension experiment: fine-grained parity striping (the paper's closing
/// future-work item — "the use of a smaller striping unit for the parity in
/// order to balance the parity update load in the Parity Striping
/// organization"). Data placement stays sequential; only the parity
/// assignment rotates per band.
pub fn finegrain(plan: &mut Plan, _: &Workloads) -> Render {
    let variants = [None, Some(256), Some(1024)].map(|band| match band {
        None => ("pinned (middle)".to_string(), PARSTRIP),
        Some(band_blocks) => {
            let placement = ParityPlacement::MiddleRotated { band_blocks };
            let label = format!("rotated, {band_blocks}-block bands");
            (label, Organization::ParityStriping { placement })
        }
    });
    let traces = [
        ("Trace 2", TRACE2),
        ("Trace 2 @2x speed", TRACE2.at_speed(2.0)),
    ];
    let cols: [(&str, Cell); 3] = [
        ("mean ms", mean),
        ("disk-access CV", |r| {
            format!("{:.3}", r.per_disk_accesses.coefficient_of_variation())
        }),
        ("max util %", |r| {
            format!("{:.1}", r.max_disk_utilization() * 100.0)
        }),
    ];
    let parts = traces.map(|(tname, key)| {
        let point = |&org: &Organization| (key, cfg(org, 10, None));
        metrics(plan, tname, "parity layout", variants.clone(), &cols, point)
    });
    let head = "== Extension: fine-grained parity striping (Trace 2) ==";
    figure(head, parts)
}

/// Observability extension: decompose each organization's mean response
/// time into its phases (admission, channel, disk queue, destage
/// interference, seek, rotation, transfer, parity). The components sum to
/// the mean — this is where the paper's *causal* claims become checkable:
/// the RAID5/RAID4 write penalty should be rotation- and parity-dominated
/// (the RMW turnaround of Section 3.3), Parity Striping's penalty
/// seek-dominated (long arm travel to the dedicated parity region), and
/// cached residual write cost mostly destage interference.
pub fn breakdown(plan: &mut Plan, _: &Workloads) -> Render {
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
    let parts = by_direction(plan, &header, "", &[Discipline::Fcfs], |r, writes| {
        let (mean, phases) = direction(r, writes);
        let phases = phases.means_ms().map(|(_, m)| ms(m));
        [ms(mean)].into_iter().chain(phases).collect()
    });
    let head = "== Breakdown: response-time decomposition (mean ms per phase) ==";
    figure(head, parts)
}

/// The mean read (or write) response time and its phase decomposition.
fn direction(r: &SimReport, writes: bool) -> (f64, &PhaseWelfords) {
    match writes {
        false => (r.mean_read_ms(), &r.phases_reads),
        true => (r.mean_write_ms(), &r.phases_writes),
    }
}

/// `breakdown`'s three sections — Trace 1 and Trace 2 uncached (titles
/// followed by `note`), Trace 2 RAID5/RAID4 with a 4 MB cache — with two
/// rows per organization, reads then writes. Each organization runs once
/// per discipline; a row's cells are `cells(report, writes)` of each run.
fn by_direction(
    plan: &mut Plan,
    header: &[&'static str],
    note: &str,
    disciplines: &[Discipline],
    cells: fn(&SimReport, bool) -> Vec<String>,
) -> [Render; 3] {
    let sections = [
        (TRACE1, &MAIN_ORGS[..], None),
        (TRACE2, &MAIN_ORGS[..], None),
        (TRACE2, &[RAID5, RAID4][..], Some(4)),
    ];
    sections.map(|(key, orgs, cache_mb)| {
        let title = match cache_mb {
            None => format!("{}, no cache{note}", key.name()),
            Some(mb) => format!("{}, {mb} MB NV cache", key.name()),
        };
        let header = header.to_vec();
        let ids: Vec<(&str, Vec<Id>)> = orgs
            .iter()
            .map(|&org| {
                let configs = disciplines
                    .iter()
                    .map(|&d| scheduled(cfg(org, 10, cache_mb), d));
                (org.label(), configs.map(|c| plan.point(key, c)).collect())
            })
            .collect();
        Box::new(move |res: &[SimReport]| {
            let mut t = Table::new(&header);
            for (label, ids) in ids {
                for (dir, writes) in [("R", false), ("W", true)] {
                    let mut row = vec![label.to_string(), dir.to_string()];
                    row.extend(ids.iter().flat_map(|&id| cells(&res[id], writes)));
                    t.row(&row);
                }
            }
            section(&title, &t)
        }) as Render
    })
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
pub fn scheduling(plan: &mut Plan, _: &Workloads) -> Render {
    let [t1, t2, cached] = by_direction(
        plan,
        &["organization", "dir", "FCFS", "SSTF", "SCAN"],
        " (FCFS columns = `breakdown` means)",
        &Discipline::ALL,
        |r, writes| vec![ms(direction(r, writes).0)],
    );
    let high_load = [BASE, MIRROR, RAID5, RAID4, PARSTRIP]
        .into_iter()
        .flat_map(|org| Discipline::ALL.map(|d| (org.label().to_string(), (org, d))));
    let high_load = metrics(
        plan,
        "Trace 2 @2x speed, no cache: high load, all organizations",
        "organization",
        high_load,
        &[
            ("discipline", |r| scheduler(r).discipline.clone()),
            ("mean ms", mean),
            ("p95 ms", |r| ms(r.quantile_ms(0.95))),
            ("seek cyl", |r| {
                format!("{:.1}", scheduler(r).mean_seek_distance_cyl())
            }),
            ("qdepth N", |r| {
                format!("{:.2}", scheduler(r).queue_depth_normal.mean())
            }),
        ],
        |&(org, d)| {
            let mut c = scheduled(cfg(org, 10, None), d);
            c.observability.scheduler_stats = true;
            (TRACE2.at_speed(2.0), c)
        },
    );
    let head = "== Scheduling: queue disciplines (FCFS vs SSTF vs SCAN) ==";
    figure(head, [t1, t2, cached, high_load])
}

/// Fleet audit: the built-in 16-VA heterogeneous fleet, reported per
/// virtual array and per tenant. Each VA job generates its own tenants'
/// traces, so this declares no points and runs the fleet when rendered.
pub fn fleet(_: &mut Plan, _: &Workloads) -> Render {
    Box::new(|_| {
        let (report, _) = run_fleet(&FleetConfig::demo(), 0).expect("the built-in demo fleet runs");
        format!(
            "== Fleet: 16 heterogeneous virtual arrays, one trace router ==\n\n{}\n",
            fleet_tables(&report)
        )
    })
}

/// The fleet report as text: totals, the per-VA and per-tenant tables and
/// the rebuild blast radius. `figures fleet` and `simulate --fleet` both
/// print through it.
pub fn fleet_tables(report: &FleetReport) -> String {
    let state = |degraded: bool| if degraded { "degraded" } else { "ok" }.to_string();
    let mut out = format!(
        "{} requests | {:.1} s simulated | {:.0} events/sim-s\n\n",
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
            mean(&va.report),
            ms(va.report.quantile_ms(0.99)),
            state(va.degraded),
            va.tenants.join(","),
        ]);
    }
    out += &t.render();

    let mut t = Table::new(&["tenant", "array", "completed", "mean ms", "p99 ms", "state"]);
    for tr in &report.tenants {
        t.row(&[
            tr.id.clone(),
            tr.va.clone(),
            tr.completed.to_string(),
            ms(tr.response_ms.mean()),
            ms(tr.p99_ms),
            state(tr.degraded),
        ]);
    }
    out += &format!("\n-- per tenant --\n{}", t.render());
    let blast = match report.blast_radius.join(", ") {
        b if b.is_empty() => "no disk failures: blast radius empty".to_string(),
        b => format!("rebuild blast radius: {b}"),
    };
    out + &format!("\n{blast}\n")
}

/// All experiment ids in paper order.
pub const ALL: &[Experiment] = &[
    ("table1", table1),
    ("table2", table2),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6_7),
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

/// Ids that print another id's experiment: Figures 6 and 7 are one table.
pub const ALIASES: &[(&str, &str)] = &[("fig7", "fig6")];

/// The experiment `id` names, aliases resolved.
pub fn find(id: &str) -> Option<&'static Experiment> {
    let id = ALIASES
        .iter()
        .find(|(alias, _)| *alias == id)
        .map_or(id, |(_, target)| target);
    ALL.iter().find(|(e, _)| *e == id)
}

/// Declare `selected` into one plan, simulate its distinct points once on
/// `threads` workers (0 = the machine's available parallelism), and render
/// each experiment in selection order. Also returns the plan, for its point
/// counts.
pub fn render(
    selected: &[&Experiment],
    w: &Workloads,
    threads: usize,
) -> Result<(Plan, Vec<String>), String> {
    let mut plan = Plan::default();
    let renders: Vec<Render> = selected
        .iter()
        .map(|(_, declare)| declare(&mut plan, w))
        .collect();
    let results = plan.run(w, threads)?;
    let texts = renders.into_iter().map(|r| r(&results)).collect();
    Ok((plan, texts))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every experiment renders byte-identically on one worker and on
    /// three: the plan's results come back in declaration order whichever
    /// thread ran them.
    #[test]
    fn every_experiment_renders_the_same_at_1_and_3_threads() {
        let w = Workloads::tiny();
        let all: Vec<&Experiment> = ALL.iter().collect();
        let (_, one) = render(&all, &w, 1).unwrap();
        let (_, three) = render(&all, &w, 3).unwrap();
        assert_eq!(one.len(), all.len());
        for (((id, _), a), b) in all.iter().zip(&one).zip(&three) {
            assert!(a.starts_with("== "), "{id} printed no header");
            assert_eq!(a, b, "{id} differs between 1 and 3 threads");
        }
    }

    /// Shared points are simulated once: the whole plan has fewer distinct
    /// points than declared ones, and Fig 16 reads exactly Fig 15's points.
    #[test]
    fn the_plan_dedupes_shared_points() {
        let w = Workloads::tiny();
        let mut plan = Plan::default();
        for (_, declare) in ALL {
            let _declared_only = declare(&mut plan, &w);
        }
        assert!(plan.distinct() < plan.declared());

        let (f15, f16) = (find("fig15").unwrap().1, find("fig16").unwrap().1);
        for (first, second) in [(f15, f16), (f16, f15)] {
            let mut plan = Plan::default();
            let _declared_only = first(&mut plan, &w);
            let n = plan.distinct();
            let _declared_only = second(&mut plan, &w);
            assert_eq!(
                plan.distinct(),
                n,
                "Fig 15 and Fig 16 must share every point"
            );
        }
    }

    #[test]
    fn ids_are_unique_and_ordered() {
        let mut seen = std::collections::BTreeSet::new();
        for (id, _) in ALL {
            assert!(seen.insert(*id), "duplicate id {id}");
        }
        for (alias, target) in ALIASES {
            assert!(!seen.contains(alias), "alias {alias} shadows an id");
            assert_eq!(find(alias).map(|e| e.0), Some(*target));
        }
    }
}
