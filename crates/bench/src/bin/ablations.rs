//! Model ablations for the design choices DESIGN.md calls out:
//!
//! * destage period — including the paper's "periodic destage vs plain LRU
//!   writeback" comparison (Section 3.4);
//! * track buffers per disk (admission control pressure);
//! * striping-unit fast paths (full-stripe/reconstruct vs always-RMW is
//!   visible through multiblock-write-heavy workloads);
//! * scheduling discipline × load (queue depth, mean seek distance).
//!
//! ```text
//! cargo run --release -p bench --bin ablations
//! ```
//!
//! All runs of all tables go through one `raidsim::run_all` call on every
//! core; the tables print in the order above.

#![expect(clippy::expect_used, reason = "driver code: stops on a broken run")]

use raidsim::{run_all, CacheConfig, Discipline, NamedRun, Organization, SimConfig};
use raidtp_stats::Table;
use tracegen::SynthSpec;

fn main() {
    const USAGE: &str = "usage: ablations";
    match std::env::args().nth(1).as_deref() {
        None => {}
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return;
        }
        Some(other) => {
            eprintln!("error: unexpected argument {other}\n{USAGE}");
            std::process::exit(2);
        }
    }
    // Each distinct trace is generated once: speed 1.0 is Trace 2 itself.
    let trace = SynthSpec::trace2().generate();
    let fast = SynthSpec::trace2().at_speed(2.0).generate();
    let fastest = SynthSpec::trace2().at_speed(4.0).generate();
    let mut spec = SynthSpec::trace2();
    spec.multiblock_write_fraction = 0.5; // stress the full/reconstruct/RMW split
    let heavy = spec.generate();

    let periods = [
        ("100 ms", 100u64),
        ("1 s (default)", 1_000),
        ("10 s", 10_000),
        ("60 s", 60_000),
        ("none (pure LRU)", 1_000_000_000), // ~11 sim-days: never fires
    ];
    let buffers = [1u32, 2, 5, 20];
    let units = [1u32, 2, 8, 16];
    // Queue depth is driven by trace speed: FCFS and the seek-aware
    // disciplines coincide on near-empty queues and diverge as they fill.
    let loads = [(1.0, &trace), (2.0, &fast), (4.0, &fastest)];

    // Every run of every table, in print order, on one pool.
    let mut runs = Vec::new();
    let base = SimConfig::with_organization(Organization::Base);
    for (label, ms) in periods {
        let mut cfg = SimConfig::with_organization(Organization::Raid5 { striping_unit: 1 });
        cfg.cache = Some(CacheConfig {
            size_mb: 16,
            destage_period_ms: ms,
        });
        runs.push(NamedRun::new(format!("destage {label}"), cfg, &trace));
    }
    for b in buffers {
        let mut cfg = base.clone();
        cfg.track_buffers_per_disk = b;
        runs.push(NamedRun::new(format!("{b} buffers"), cfg, &fast));
    }
    for su in units {
        let cfg = SimConfig::with_organization(Organization::Raid5 { striping_unit: su });
        runs.push(NamedRun::new(format!("striping unit {su}"), cfg, &heavy));
    }
    for d in Discipline::ALL {
        for (speed, trace) in loads {
            let mut cfg = base.clone();
            cfg.scheduler = d;
            cfg.observability.scheduler_stats = true;
            runs.push(NamedRun::new(
                format!("{} at {speed}x", d.label()),
                cfg,
                trace,
            ));
        }
    }
    let mut reports = run_all(&runs, 0).into_iter().map(|(label, r)| {
        r.unwrap_or_else(|e| {
            eprintln!("error: {label}: {e}");
            std::process::exit(1);
        })
    });

    println!("== Ablation: destage period (cached RAID5, Trace 2, 16 MB) ==\n");
    let mut t = Table::new(&[
        "destage period",
        "mean ms",
        "write hit %",
        "dirty evictions",
    ]);
    for ((label, _), r) in periods.iter().zip(reports.by_ref()) {
        let stats = r.cache.expect("cached run always reports cache stats");
        t.row(&[
            label.to_string(),
            format!("{:.2}", r.mean_response_ms()),
            format!("{:.1}", r.write_hit_ratio() * 100.0),
            stats.dirty_evictions.to_string(),
        ]);
    }
    print!("{}", t.render());

    println!("\n== Ablation: track buffers per disk (non-cached Base, Trace 2 @2x) ==\n");
    let mut t = Table::new(&["buffers/disk", "mean ms", "admission waits"]);
    for (b, r) in buffers.iter().zip(reports.by_ref()) {
        let mean = format!("{:.2}", r.mean_response_ms());
        t.row(&[b.to_string(), mean, r.buffer_waits.to_string()]);
    }
    print!("{}", t.render());

    println!(
        "\n== Ablation: multiblock write handling across striping units (RAID5, Trace 2) ==\n"
    );
    let mut t = Table::new(&["striping unit", "mean ms", "disk ops"]);
    for (su, r) in units.iter().zip(reports.by_ref()) {
        let mean = format!("{:.2}", r.mean_response_ms());
        t.row(&[su.to_string(), mean, r.disk_ops.to_string()]);
    }
    print!("{}", t.render());

    println!("\n== Ablation: scheduling discipline × load (non-cached Base, Trace 2) ==\n");
    let mut t = Table::new(&["discipline", "speed", "mean ms", "qdepth N", "seek cyl"]);
    let rows = Discipline::ALL
        .into_iter()
        .flat_map(|d| loads.map(|(speed, _)| (d, speed)));
    for ((d, speed), r) in rows.zip(reports) {
        let s = r.scheduler.as_ref().expect("scheduler stats requested");
        t.row(&[
            d.label().to_string(),
            format!("{speed}"),
            format!("{:.2}", r.mean_response_ms()),
            format!("{:.2}", s.queue_depth_normal.mean()),
            format!("{:.1}", s.mean_seek_distance_cyl()),
        ]);
    }
    print!("{}", t.render());
}
