//! Trace tooling: write a trace to the on-disk text format, read it back,
//! characterize it (the paper's Table 2), and replay it through a
//! simulator — the workflow for substituting a *real* captured trace for
//! the synthetic ones.
//!
//! ```text
//! cargo run --release -p raidsim --example trace_tooling
//! ```

#![expect(clippy::expect_used, reason = "example driver code stops on bad input")]

use raidsim::{Organization, ParityPlacement, SimConfig, Simulator};
use tracegen::{fmt, transform, SynthSpec, TraceStats};

fn main() {
    // 1. Produce a trace (stand-in for a real capture).
    let original = SynthSpec::trace2().scaled(0.2).generate();

    // 2. Serialize in the paper-style text format — one line per block run,
    //    zero-delta lines continuing a multiblock request — and reparse.
    let path = std::env::temp_dir().join("raidtp_example.trace");
    std::fs::write(&path, fmt::write_trace(&original, true)).expect("write trace file");
    let text = std::fs::read_to_string(&path).expect("read trace file");
    let parsed = fmt::parse_trace(&text).expect("parse trace file");
    assert_eq!(parsed, original, "format round-trips exactly");
    println!("trace file: {} ({} bytes)\n", path.display(), text.len());

    // 3. Characterize it (Table 2 of the paper, recomputed).
    let stats = TraceStats::of(&parsed);
    println!(
        "characterization: {} I/Os, {:.1}% writes, {:.1}% single-block, \
         {:.1} I/O/s, disk-skew CV {:.2}\n",
        stats.io_accesses,
        stats.write_fraction() * 100.0,
        stats.single_block_fraction() * 100.0,
        stats.arrival_rate(),
        stats.disk_skew_cv(),
    );

    // 4. Replay through Parity Striping at two load levels (the paper's
    //    trace-speed experiment).
    for speed in [1.0, 2.0] {
        let t = transform::at_speed(&parsed, speed);
        let cfg = SimConfig::with_organization(Organization::ParityStriping {
            placement: ParityPlacement::Middle,
        });
        let r = Simulator::new(cfg, &t).run();
        println!("speed {speed}: {}", r.summary());
    }

    std::fs::remove_file(&path).ok();
}
