//! Trace file format ↔ simulator integration: serialized traces replay to
//! bit-identical results.

use raidsim::{Organization, SimConfig, Simulator};
use tracegen::{fmt, SynthSpec};

#[test]
fn serialized_trace_replays_identically() {
    let original = SynthSpec::trace2().scaled(0.05).generate();
    let text = fmt::write_trace(&original, false);
    let parsed = fmt::parse_trace(&text).expect("parse");
    assert_eq!(parsed, original);

    let cfg = SimConfig::with_organization(Organization::Raid5 { striping_unit: 1 });
    let a = Simulator::new(cfg.clone(), &original).run();
    let b = Simulator::new(cfg, &parsed).run();
    assert_eq!(a.response_all_ms.mean(), b.response_all_ms.mean());
    assert_eq!(a.disk_ops, b.disk_ops);
}

#[test]
fn exploded_format_preserves_multiblock_structure() {
    // The paper's original format writes each block of a multiblock request
    // as a zero-delta line; coalescing on parse restores the request.
    let original = SynthSpec::trace1().scaled(0.001).generate();
    let exploded = fmt::write_trace(&original, true);
    let parsed = fmt::parse_trace(&exploded).expect("parse");
    assert_eq!(parsed, original);
    let multi = original
        .records
        .iter()
        .filter(|r| r.is_multiblock())
        .count();
    let multi_parsed = parsed.records.iter().filter(|r| r.is_multiblock()).count();
    assert_eq!(multi, multi_parsed);
}

#[test]
fn hand_written_trace_drives_the_simulator() {
    let text = "\
# raidtp trace: disks=10 blocks_per_disk=226800
1000000 0 100 1 R
2000000 1 200 1 W
0 1 201 1 W
0 1 202 1 W
5000000 2 42 1 R
";
    let trace = fmt::parse_trace(text).expect("parse");
    assert_eq!(trace.len(), 3, "zero-delta lines coalesce into one write");
    assert_eq!(trace.records[1].nblocks, 3);
    let r = Simulator::new(SimConfig::with_organization(Organization::Mirror), &trace).run();
    assert_eq!(r.requests_completed, 3);
    assert_eq!(r.reads_completed, 2);
    assert_eq!(r.writes_completed, 1);
}
