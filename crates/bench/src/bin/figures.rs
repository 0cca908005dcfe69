//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures all            # everything, paper order
//! figures fig5 fig12     # selected experiments
//! figures --list         # available ids
//! RAIDTP_T1_SCALE=0.05 figures fig4   # smaller Trace 1 for quick runs
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "driver code: times runs by the wall clock"
)]

use bench::experiments::{Experiment, ALL};
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
        for (id, _) in ALL {
            println!("{id}");
        }
        return;
    }

    // Every word must name an experiment, `all` included: a misspelt id
    // beside `all` is still a mistake.
    let mut sel: Vec<&Experiment> = Vec::new();
    for a in &args {
        match ALL.iter().find(|(id, _)| id == a) {
            Some(e) => sel.push(e),
            None if a == "all" => {}
            None => {
                eprintln!("unknown experiment `{a}` (use --list)");
                std::process::exit(2);
            }
        }
    }
    let selected: Vec<&Experiment> = if args.iter().any(|a| a == "all") {
        ALL.iter().filter(|(id, _)| *id != "fig7").collect()
    } else {
        // fig6 and fig7 share one function; drop accidental duplicates.
        sel.dedup_by_key(|e| e.1 as usize);
        sel
    };

    eprintln!("generating workloads…");
    let t0 = std::time::Instant::now();
    let w = match Workloads::load() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "traces ready in {:.1?} (Trace 1: {} reqs @ scale {}, Trace 2: {} reqs)\n",
        t0.elapsed(),
        w.trace1.len(),
        w.t1_scale,
        w.trace2.len()
    );

    for (id, f) in selected {
        let t = std::time::Instant::now();
        f(&w);
        eprintln!("[{id} done in {:.1?}]\n", t.elapsed());
    }
}
