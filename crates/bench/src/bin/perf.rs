//! `perf` — self-measuring throughput harness for the simulation core.
//!
//! Times the five organizations of the paper, cached and non-cached, on a
//! fixed-seed synthetic workload; reports events/second, wall time, and
//! peak future-event-list depth per run; and writes the result as a
//! `BENCH_N.json` baseline. `--check` replays the measurement and fails
//! when throughput regressed beyond the tolerance — the guard that keeps
//! future PRs from quietly slowing the hot path.
//!
//! ```text
//! perf                          # measure, write target/BENCH_10.json
//! perf --scale 0.05 --reps 3    # smaller workload, best-of-3 timing
//! perf --check BENCH_10.json    # measure, then gate against a baseline
//! perf --check BENCH_10.json --tolerance 0.5  # cross-machine smoke gate
//! perf --sweep-grid 24          # time sweep::run_all on a mixed grid
//! perf --fleet-run 4            # fleet axis at 4 VA-level threads
//! perf --fleet-run 0            # disable the fleet axis (on by default)
//! ```
//!
//! The **fleet axis** (on by default, `--fleet-run T` to set the thread
//! count, `0` to disable) times the 16-VA heterogeneous demo fleet serial
//! and VA-parallel, and byte-compares the two fleet reports.
//!
//! All simulated results (mean response times) are independent of this
//! harness: it times the same deterministic runs the science binaries use.

#![expect(
    clippy::expect_used,
    clippy::disallowed_methods,
    reason = "driver code: times runs by the wall clock and stops on a broken run"
)]

use bench::perf::{check, PerfReport, PerfRun};
use raidsim::{
    run_all, run_fleet, CacheConfig, FleetConfig, NamedRun, Organization, ParityPlacement,
    SimConfig, Simulator,
};
use std::time::Instant;
use tracegen::SynthSpec;

const BENCH_ID: u64 = 10;

/// Where a run writes its report unless `--out` says otherwise: under the
/// build directory, never over a committed baseline.
const DEFAULT_OUT: &str = "target/BENCH_10.json";

/// Every option takes a value except `--help`/`-h`.
const VALUE_OPTIONS: [&str; 9] = [
    "--scale",
    "--reps",
    "--seed",
    "--out",
    "--check",
    "--tolerance",
    "--sweep-grid",
    "--threads",
    "--fleet-run",
];

struct Args(Vec<String>);

impl Args {
    /// Refuse anything but known options with their values: an option the
    /// harness does not know would otherwise be ignored, and the default
    /// measurement would run (and write its report) in its place.
    fn validate(&self) -> Result<(), String> {
        let mut it = self.0.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--help" | "-h" => {}
                opt if VALUE_OPTIONS.contains(&opt) => {
                    if it.next().is_none() {
                        return Err(format!("{opt} needs a value"));
                    }
                }
                other => return Err(format!("unknown option {other}")),
            }
        }
        Ok(())
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(|s| s.as_str())
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("bad value for {name}: {v}"))),
            None => default,
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perf [--scale F] [--reps N] [--seed N] [--out PATH]\n\
         \t[--check BASELINE.json] [--tolerance F] [--sweep-grid N] [--threads N]\n\
         \t[--fleet-run T|0]"
    );
    std::process::exit(2)
}

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

fn config(org: Organization, cached: bool, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::with_organization(org);
    if cached {
        cfg.cache = Some(CacheConfig::default());
    }
    cfg.seed = seed;
    cfg
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    if let Err(e) = args.validate() {
        die(&e);
    }
    if args.flag("--help") || args.flag("-h") {
        die("help requested");
    }
    let scale: f64 = args.parse("--scale", 1.0);
    if !(scale > 0.0 && scale <= 1.0) {
        die(&format!("--scale {scale} out of range (0, 1]"));
    }
    let reps: usize = args.parse("--reps", 1).max(1);
    let seed: u64 = args.parse("--seed", 7);
    let out_path = args.get("--out").unwrap_or(DEFAULT_OUT).to_string();
    let tolerance: f64 = args.parse("--tolerance", 0.15);
    let fleet_threads: usize = args.parse("--fleet-run", 2);

    eprintln!("generating workload (trace2 @ scale {scale}, seed {seed})…");
    let trace = SynthSpec::trace2().scaled(scale).generate();
    eprintln!("{} requests\n", trace.len());

    if let Some(n) = args.get("--sweep-grid") {
        let n: usize = n
            .parse()
            .unwrap_or_else(|_| die(&format!("bad value for --sweep-grid: {n}")));
        let threads: usize = args.parse("--threads", 0);
        sweep_grid(&trace, n, threads, seed);
        return;
    }

    let mut runs = Vec::new();
    let mut total_events: u64 = 0;
    let mut total_wall = 0.0f64;
    eprintln!(
        "{:<10} {:>6} {:>10} {:>9} {:>12} {:>6} {:>10}",
        "org", "cache", "events", "wall s", "events/s", "peakq", "mean ms"
    );
    for org in organizations() {
        for cached in [false, true] {
            // Best-of-`reps`: the fastest repetition is the least-perturbed
            // measurement of the same deterministic computation.
            let mut best: Option<(f64, raidsim::RunStats, f64)> = None;
            for _ in 0..reps {
                let sim = match Simulator::try_new(config(org, cached, seed), &trace) {
                    Ok(sim) => sim,
                    Err(e) => die(&format!("{} cached={cached}: {e}", org.label())),
                };
                let t0 = Instant::now();
                let (report, stats) = sim.run_instrumented();
                let wall = t0.elapsed().as_secs_f64();
                if best.as_ref().is_none_or(|(w, _, _)| wall < *w) {
                    best = Some((wall, stats, report.mean_response_ms()));
                }
            }
            let Some((wall, stats, mean_ms)) = best else {
                unreachable!("reps >= 1")
            };
            let eps = stats.events_processed as f64 / wall;
            eprintln!(
                "{:<10} {:>6} {:>10} {:>9.3} {:>12.0} {:>6} {:>10.2}",
                org.label(),
                cached,
                stats.events_processed,
                wall,
                eps,
                stats.peak_pending,
                mean_ms
            );
            total_events += stats.events_processed;
            total_wall += wall;
            runs.push(PerfRun {
                label: org.label().to_string(),
                cached,
                requests: trace.len() as u64,
                events: stats.events_processed,
                wall_secs: wall,
                events_per_sec: eps,
                peak_queue_depth: stats.peak_pending as u64,
                mean_response_ms: mean_ms,
            });
        }
    }
    if fleet_threads > 0 {
        fleet_axis(
            fleet_threads,
            reps,
            &mut runs,
            &mut total_events,
            &mut total_wall,
        );
    }

    let report = PerfReport {
        bench_id: BENCH_ID,
        workload: "trace2".to_string(),
        scale,
        runs,
        total_events,
        total_wall_secs: total_wall,
        total_events_per_sec: total_events as f64 / total_wall,
    };
    eprintln!(
        "\nTOTAL: {} events in {:.3} s = {:.0} events/s",
        report.total_events, report.total_wall_secs, report.total_events_per_sec
    );

    // Read the baseline *before* writing the new report: `--check` against
    // the `--out` path must gate on the old numbers, not on the file this
    // run just replaced them with.
    let baseline = args.get("--check").map(|baseline_path| {
        let src = match std::fs::read_to_string(baseline_path) {
            Ok(s) => s,
            Err(e) => die(&format!("cannot read baseline {baseline_path}: {e}")),
        };
        match PerfReport::from_json(&src) {
            Ok(b) => b,
            Err(e) => die(&format!("cannot parse baseline {baseline_path}: {e}")),
        }
    });

    let out_dir = std::path::Path::new(&out_path).parent();
    if let Some(dir) = out_dir.filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(&format!("cannot create {}: {e}", dir.display()));
        }
    }
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        die(&format!("cannot write {out_path}: {e}"));
    }
    eprintln!("wrote {out_path}");

    if let Some(baseline) = baseline {
        let baseline_path = args.get("--check").unwrap_or_default();
        match check(&report, &baseline, tolerance) {
            Ok(table) => {
                eprintln!(
                    "\n--check vs {baseline_path} (tolerance {:.0}%): OK",
                    tolerance * 100.0
                );
                eprint!("{table}");
            }
            Err(e) => {
                eprintln!("\n--check vs {baseline_path} FAILED:\n{e}");
                std::process::exit(1);
            }
        }
    }
}

/// The fleet axis: the 16-VA heterogeneous demo fleet, serial and
/// VA-parallel at `threads` workers. The parallel report must be
/// byte-identical to the serial one. Rows count serial events over each
/// mode's wall time.
fn fleet_axis(
    threads: usize,
    reps: usize,
    runs: &mut Vec<PerfRun>,
    total_events: &mut u64,
    total_wall: &mut f64,
) {
    let fleet = FleetConfig::demo();
    eprintln!(
        "\nfleet axis ({} VAs, {} tenants, {threads} VA-level threads)…",
        fleet.arrays.len(),
        fleet.tenants.len()
    );
    let timed = |threads: usize| -> (f64, raidsim::FleetReport, raidsim::RunStats) {
        let mut best: Option<(f64, raidsim::FleetReport, raidsim::RunStats)> = None;
        for _ in 0..reps {
            let t0 = Instant::now();
            let (report, stats) =
                run_fleet(&fleet, threads).unwrap_or_else(|e| die(&format!("fleet: {e}")));
            let wall = t0.elapsed().as_secs_f64();
            if best.as_ref().is_none_or(|(w, ..)| wall < *w) {
                best = Some((wall, report, stats));
            }
        }
        best.expect("reps >= 1")
    };
    let (s_wall, s_report, s_stats) = timed(1);
    let (p_wall, p_report, p_stats) = timed(threads);
    if format!("{s_report:#?}") != format!("{p_report:#?}") {
        die("fleet: parallel report diverged from serial — determinism violation");
    }
    let requests: u64 = s_report.requests_completed;
    let events = s_stats.events_processed;
    // Fleet-wide mean response: completion-weighted across VAs.
    let mean_ms = s_report
        .vas
        .iter()
        .map(|v| v.report.mean_response_ms() * v.report.requests_completed as f64)
        .sum::<f64>()
        / requests.max(1) as f64;
    eprintln!(
        "{:<16} {:>6} {:>10} {:>9} {:>12} {:>8}",
        "run", "cache", "events", "wall s", "events/s", "speedup"
    );
    for (label, wall, stats, speedup) in [
        ("fleet@serial".to_string(), s_wall, &s_stats, 1.0),
        (
            format!("fleet@par{threads}"),
            p_wall,
            &p_stats,
            s_wall / p_wall,
        ),
    ] {
        let eps = events as f64 / wall;
        eprintln!(
            "{:<16} {:>6} {:>10} {:>9.3} {:>12.0} {:>7.2}x",
            label, false, events, wall, eps, speedup
        );
        *total_events += events;
        *total_wall += wall;
        runs.push(PerfRun {
            label,
            cached: false,
            requests,
            events,
            wall_secs: wall,
            events_per_sec: eps,
            peak_queue_depth: stats.peak_pending as u64,
            mean_response_ms: mean_ms,
        });
    }
}

/// Time `sweep::run_all` on a mixed Base/RAID5 grid — the workload shape
/// where static chunking used to idle workers behind a straggler chunk of
/// slow RAID5 runs.
fn sweep_grid(trace: &tracegen::Trace, n: usize, threads: usize, seed: u64) {
    let orgs = [Organization::Base, Organization::Raid5 { striping_unit: 1 }];
    // Front-load the slow RAID5 runs in blocks, the adversarial layout for
    // static chunking: whole chunks of nothing-but-RAID5.
    let runs: Vec<NamedRun<'_>> = (0..n)
        .map(|i| {
            let org = orgs[usize::from(i < n / 2)];
            NamedRun::new(
                format!("{}#{i}", org.label()),
                config(org, false, seed),
                trace,
            )
        })
        .collect();
    let t0 = Instant::now();
    let out = run_all(&runs, threads);
    let wall = t0.elapsed().as_secs_f64();
    let mean: f64 = out
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok().map(|r| r.mean_response_ms()))
        .sum::<f64>()
        / out.len() as f64;
    println!(
        "sweep-grid: {} runs ({} Base + {} RAID5), threads={} -> {:.3} s wall (mean resp {:.2} ms)",
        n,
        n - n / 2,
        n / 2,
        threads,
        wall,
        mean
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn unknown_options_and_missing_values_are_usage_errors() {
        assert!(args(&[]).validate().is_ok());
        assert!(
            args(&["--scale", "0.1", "--reps", "3", "--out", "x.json", "-h"])
                .validate()
                .is_ok()
        );
        // A removed or misspelt option must not fall through to the
        // default measurement.
        let e = args(&["--par-run", "2"]).validate().unwrap_err();
        assert!(e.contains("--par-run"), "{e}");
        assert!(args(&["--scale", "0.1", "extra"]).validate().is_err());
        assert!(args(&["--check"]).validate().is_err());
    }
}
