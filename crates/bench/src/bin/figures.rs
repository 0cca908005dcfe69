//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures all            # everything, paper order
//! figures fig5 fig12     # selected experiments
//! figures --list         # available ids
//! RAIDTP_T1_SCALE=0.05 figures fig4   # smaller Trace 1 for quick runs
//! ```
//!
//! The tables print in selection order once the plan's points are done.

#![expect(
    clippy::disallowed_methods,
    reason = "driver code: times runs by the wall clock"
)]

use bench::experiments::{self, Experiment, ALIASES, ALL};
use bench::Workloads;

fn main() {
    const USAGE: &str = "usage: figures [--list] <all | table1 table2 fig4 .. fig19>";
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    if args.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--list") {
        for id in ALL.iter().map(|e| e.0).chain(ALIASES.iter().map(|a| a.0)) {
            println!("{id}");
        }
        return;
    }

    // Every word must name an experiment, `all` included: a misspelt id
    // beside `all` is still a mistake. An id named twice (directly or
    // through an alias: fig7 is fig6) prints once, at its first place.
    let mut sel: Vec<&Experiment> = Vec::new();
    for a in args.iter().filter(|a| *a != "all") {
        match experiments::find(a) {
            Some(e) if sel.iter().any(|s| s.0 == e.0) => {}
            Some(e) => sel.push(e),
            None => fail(2, &format!("unknown experiment `{a}` (use --list)")),
        }
    }
    if args.iter().any(|a| a == "all") {
        sel = ALL.iter().collect();
    }

    eprintln!("generating workloads…");
    let t0 = std::time::Instant::now();
    let w = Workloads::load().unwrap_or_else(|e| fail(2, &format!("error: {e}")));
    eprintln!(
        "traces ready in {:.1?} (Trace 1: {} reqs @ scale {}, Trace 2: {} reqs)\n",
        t0.elapsed(),
        w.trace1.len(),
        w.t1_scale,
        w.trace2.len()
    );

    let t = std::time::Instant::now();
    let (plan, texts) =
        experiments::render(&sel, &w, 0).unwrap_or_else(|e| fail(1, &format!("error: {e}")));
    for text in texts {
        print!("{text}");
    }
    // `run_all` with 0 threads uses the available parallelism (4 if unknown).
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    eprintln!(
        "[{} points declared, {} distinct, {threads} threads, done in {:.1?}]",
        plan.declared(),
        plan.distinct(),
        t.elapsed()
    );
}

fn fail(code: i32, msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(code)
}
