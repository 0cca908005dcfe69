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

#![expect(clippy::expect_used, reason = "driver code: stops on a broken run")]

use raidsim::{CacheConfig, Discipline, Organization, SimConfig, Simulator};
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
    let trace = SynthSpec::trace2().generate();

    println!("== Ablation: destage period (cached RAID5, Trace 2, 16 MB) ==\n");
    let mut t = Table::new(&[
        "destage period",
        "mean ms",
        "write hit %",
        "dirty evictions",
    ]);
    for (label, ms) in [
        ("100 ms", 100u64),
        ("1 s (default)", 1_000),
        ("10 s", 10_000),
        ("60 s", 60_000),
        ("none (pure LRU)", 1_000_000_000), // ~11 sim-days: never fires
    ] {
        let mut cfg = SimConfig::with_organization(Organization::Raid5 { striping_unit: 1 });
        cfg.cache = Some(CacheConfig {
            size_mb: 16,
            destage_period_ms: ms,
        });
        let r = Simulator::new(cfg, &trace).run();
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
    let fast = SynthSpec::trace2().at_speed(2.0).generate();
    let mut t = Table::new(&["buffers/disk", "mean ms", "admission waits"]);
    for buffers in [1u32, 2, 5, 20] {
        let mut cfg = SimConfig::with_organization(Organization::Base);
        cfg.track_buffers_per_disk = buffers;
        let r = Simulator::new(cfg, &fast).run();
        t.row(&[
            buffers.to_string(),
            format!("{:.2}", r.mean_response_ms()),
            r.buffer_waits.to_string(),
        ]);
    }
    print!("{}", t.render());

    println!(
        "\n== Ablation: multiblock write handling across striping units (RAID5, Trace 2) ==\n"
    );
    let mut spec = SynthSpec::trace2();
    spec.multiblock_write_fraction = 0.5; // stress the full/reconstruct/RMW split
    let heavy = spec.generate();
    let mut t = Table::new(&["striping unit", "mean ms", "disk ops"]);
    for su in [1u32, 2, 8, 16] {
        let cfg = SimConfig::with_organization(Organization::Raid5 { striping_unit: su });
        let r = Simulator::new(cfg, &heavy).run();
        t.row(&[
            su.to_string(),
            format!("{:.2}", r.mean_response_ms()),
            r.disk_ops.to_string(),
        ]);
    }
    print!("{}", t.render());

    println!("\n== Ablation: scheduling discipline × load (non-cached Base, Trace 2) ==\n");
    // Queue depth is driven by trace speed: FCFS and the seek-aware
    // disciplines coincide on near-empty queues and diverge as they fill.
    let loads: Vec<(f64, _)> = [1.0, 2.0, 4.0]
        .into_iter()
        .map(|speed| (speed, SynthSpec::trace2().at_speed(speed).generate()))
        .collect();
    let mut t = Table::new(&["discipline", "speed", "mean ms", "qdepth N", "seek cyl"]);
    for d in Discipline::ALL {
        for (speed, trace) in &loads {
            let mut cfg = SimConfig::with_organization(Organization::Base);
            cfg.scheduler = d;
            cfg.observability.scheduler_stats = true;
            let r = Simulator::new(cfg, trace).run();
            let s = r.scheduler.as_ref().expect("scheduler stats requested");
            let qdepth = s.queue_depth_normal.mean();
            let seek = s.mean_seek_distance_cyl();
            t.row(&[
                d.label().to_string(),
                format!("{speed}"),
                format!("{:.2}", r.mean_response_ms()),
                format!("{:.2}", qdepth),
                format!("{seek:.1}"),
            ]);
        }
    }
    print!("{}", t.render());
}
