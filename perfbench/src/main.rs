//! End-to-end and per-layer benchmark of the raidtp simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload t1-raid5|t2-cache-sweep|fleet-demo --seed N --seconds S --trace 0|1
//! ```
//!
//! Repeats the workload, one repetition after another on one thread, until
//! `--seconds` have passed (at least a few times), checks every simulated
//! configuration, and prints as its last line one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end figures, timed in process CPU seconds (see
//! [`spans::cpu_s`]); with `--trace 1` they are the
//! per-layer figures of a traced run, whose spans are also written as a
//! Chrome trace under `perfbench/out/`. See `perfbench/README.md`.

mod replay;
mod spans;
mod workloads;

use spans::Spans;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use workloads::{Rep, Workload, DEFAULT_SEED};

/// End-to-end metrics (`--trace 0`), name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("rep_cpu_p90_s", "s"),
    ("setup_s", "s"),
    ("req_per_s_p10", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), name and unit. `sim_*` units are
/// simulated time; the rest are host time or exact counts. A layer that a
/// workload does not run reads 0 there.
const PER_LAYER: [(&str, &str); 47] = [
    ("tracegen.generate_s", "s"),
    ("tracegen.ns_per_record", "ns"),
    ("tracegen.tenant_generate_s", "s"),
    ("raidsim.construct_s", "s"),
    ("fleet.alloc_s", "s"),
    ("raidsim.run_s", "s"),
    ("engine.ns_per_event", "ns"),
    ("engine.events", "count"),
    ("engine.events_per_req", "ratio"),
    ("engine.peak_pending", "count"),
    ("simkit.queue_ns_per_op", "ns"),
    ("mapping.ns_per_req", "ns"),
    ("disk.ops_per_req", "ratio"),
    ("diskmodel.ns_per_access", "ns"),
    ("nvcache.ns_per_access", "ns"),
    ("cache.read_hit", "ratio"),
    ("cache.write_hit", "ratio"),
    ("cache.read_hit_4mb", "ratio"),
    ("cache.write_hit_4mb", "ratio"),
    ("cache.read_hit_16mb", "ratio"),
    ("cache.write_hit_16mb", "ratio"),
    ("cache.read_hit_256mb", "ratio"),
    ("cache.write_hit_256mb", "ratio"),
    ("cache.dirty_evictions", "count"),
    ("spool.stalls", "count"),
    ("spool.peak", "count"),
    ("phase.admission_ms", "sim_ms"),
    ("phase.channel_ms", "sim_ms"),
    ("phase.queue_ms", "sim_ms"),
    ("phase.destage_ms", "sim_ms"),
    ("phase.seek_ms", "sim_ms"),
    ("phase.rotation_ms", "sim_ms"),
    ("phase.transfer_ms", "sim_ms"),
    ("phase.parity_ms", "sim_ms"),
    ("disk.ops", "count"),
    ("disk.util_mean", "ratio"),
    ("channel.util", "ratio"),
    ("admission.buffer_waits", "count"),
    ("faults.rebuild_s", "sim_s"),
    ("faults.ops_aborted", "count"),
    ("faults.ops_replayed", "count"),
    ("fleet.events_per_sim_s", "1/sim_s"),
    ("fleet.tenant_p99_ms_max", "sim_ms"),
    ("model.mean_ms", "sim_ms"),
    ("model.p99_ms", "sim_ms"),
    ("report.emit_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Fewest repetitions (untraced) or untraced/traced pairs (traced) a run
/// makes, however short `--seconds` is.
const MIN_REPS: usize = 3;
const MIN_PAIRS: usize = 2;
/// `setup_s` samples of fleet-demo, whose set-up (validation plus
/// allocation) takes well under a millisecond: one per repetition would
/// leave its median to a handful of samples.
const FLEET_SETUP_SAMPLES: usize = 200;

/// Report digests at the default seed, one `workload label digest` line
/// per simulated configuration.
const PINNED: &str = include_str!("../digests.txt");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::T1Raid5,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn pinned_digest(workload: Workload, label: &str) -> Option<u64> {
    PINNED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next() == Some(workload.name()) && f.next() == Some(label))
            .then(|| f.next().and_then(|d| u64::from_str_radix(d, 16).ok()))
            .flatten()
    })
}

/// The correctness gate: operations attempted and failed, plus problems
/// that make the run incorrect without failing a single operation.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Digests of the first repetition, which every later one must repeat.
    digests: Vec<u64>,
    events: Option<u64>,
}

impl Gate {
    fn judge(&mut self, w: Workload, seed: u64, rep: &Result<Rep, String>) {
        let rep = match rep {
            Ok(rep) => rep,
            Err(e) => {
                self.attempted += w.ops();
                self.failed += w.ops();
                self.problems.push(format!("repetition failed: {e}"));
                return;
            }
        };
        if rep.ops.len() as u64 != w.ops() {
            self.problems.push(format!(
                "{} operations, expected {}",
                rep.ops.len(),
                w.ops()
            ));
        }
        if self.digests.is_empty() {
            self.digests = rep.ops.iter().map(|op| op.digest).collect();
        }
        for (i, op) in rep.ops.iter().enumerate() {
            self.attempted += 1;
            let why = if let Some(e) = &op.error {
                Some(e.clone())
            } else if seed == DEFAULT_SEED && pinned_digest(w, &op.label) != Some(op.digest) {
                Some(format!("digest {:016x} is not the pinned one", op.digest))
            } else if self.digests.get(i) != Some(&op.digest) {
                Some(format!(
                    "digest {:016x} differs between repetitions",
                    op.digest
                ))
            } else {
                None
            };
            if let Some(why) = why {
                self.failed += 1;
                self.problems.push(format!("{}: {why}", op.label));
            }
        }
        if let Some((events, _)) = rep.engine {
            if self.events.is_some_and(|e| e != events) {
                self.problems.push(format!(
                    "engine.events {events} differs from {} in an earlier repetition",
                    self.events.unwrap_or(0)
                ));
            }
            self.events = Some(events);
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }
}

/// The `q` quantile of `v`, interpolating linearly between neighbours.
fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(v: Vec<f64>) -> f64 {
    quantile(v, 0.5)
}

/// Peak resident set of this process (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Untraced run: repeat the workload and report the end-to-end figures.
///
/// The host runs at a steady base speed with bursts of extra speed that
/// come and go within seconds, so the fast repetitions of a run are the
/// noisy ones and the slow ones repeat from run to run. The repetition
/// time and request rate are therefore taken at the slow end: the 90th
/// percentile of the times and the 10th percentile of the rates. Set-up
/// time is the median.
fn end_to_end(args: &Args, gate: &mut Gate) -> (BTreeMap<&'static str, f64>, Vec<String>) {
    let w = args.workload;
    let mut spans = Spans::new(w.name());
    let start = Instant::now();
    let (mut total, mut setup, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut summary = Vec::new();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        reps += 1;
        let rep = w.rep(args.seed, &mut spans, false);
        gate.judge(w, args.seed, &rep);
        if let Ok(rep) = rep {
            total.push(rep.cpu_s);
            setup.push(rep.setup_s);
            rate.push(rep.requests as f64 / rep.run_s);
            summary = rep.summary;
        }
    }
    if matches!(w, Workload::FleetDemo | Workload::FleetFaults) {
        while setup.len() < FLEET_SETUP_SAMPLES {
            setup.push(workloads::fleet_setup_s(w, args.seed));
        }
    }
    let mut m = BTreeMap::new();
    m.insert("rep_cpu_p90_s", quantile(total, 0.9));
    m.insert("setup_s", median(setup));
    m.insert("req_per_s_p10", quantile(rate, 0.1));
    m.insert("peak_rss_mb", peak_rss_mb());
    (m, summary)
}

/// Traced run: alternate untraced and traced repetitions, take per-layer
/// medians from the traced ones, replay the layers over the last traced
/// repetition's inputs, and write the spans out.
fn traced(
    args: &Args,
    gate: &mut Gate,
) -> Result<(BTreeMap<&'static str, f64>, Vec<String>), String> {
    let w = args.workload;
    let mut spans = Spans::new(w.name());
    let start = Instant::now();
    let (mut untraced_cpu, mut traced_cpu) = (Vec::new(), Vec::new());
    let mut layer_samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last: Option<(Rep, usize)> = None;
    let mut pairs = 0;
    while pairs < MIN_PAIRS || start.elapsed().as_secs_f64() < args.seconds {
        pairs += 1;
        // Free the previous traced repetition's inputs before timing more.
        drop(last.take());
        spans.set_recording(false);
        let rep = w.rep(args.seed, &mut spans, false);
        gate.judge(w, args.seed, &rep);
        untraced_cpu.push(rep?.cpu_s);

        spans.set_recording(true);
        let first_span = spans.all().len();
        let rep = w.rep(args.seed, &mut spans, true);
        gate.judge(w, args.seed, &rep);
        let rep = rep?;
        traced_cpu.push(rep.cpu_s);
        let mut sample = |k, v| layer_samples.entry(k).or_default().push(v);
        for (&k, &v) in &rep.layers {
            sample(k, v);
        }
        sample("raidsim.run_s", rep.run_s);
        if let Some((events, _)) = rep.engine {
            sample(
                "engine.ns_per_event",
                rep.run_s * 1e9 / events.max(1) as f64,
            );
        }
        last = Some((rep, first_span));
    }
    let (rep, first_span) = last.ok_or("no traced repetition")?;
    let mut m: BTreeMap<&'static str, f64> = layer_samples
        .into_iter()
        .map(|(k, v)| (k, median(v)))
        .collect();
    m.insert(
        "trace.overhead_s",
        median(traced_cpu) - median(untraced_cpu),
    );
    let (events, peak) = rep
        .engine
        .ok_or("traced repetition without engine counters")?;
    m.insert("engine.events", events as f64);
    m.insert(
        "engine.events_per_req",
        events as f64 / rep.requests.max(1) as f64,
    );
    m.insert("engine.peak_pending", peak as f64);

    let replay_root = spans.open("replay");
    replay::layers(&rep, &mut spans, &mut m)?;
    spans.close(replay_root);

    let path = format!("perfbench/out/{}-seed{}.trace.json", w.name(), args.seed);
    std::fs::create_dir_all("perfbench/out").map_err(|e| format!("perfbench/out: {e}"))?;
    std::fs::write(&path, spans.chrome_json()).map_err(|e| format!("{path}: {e}"))?;

    let mut summary = rep.summary.clone();
    summary.push(String::new());
    summary.push(format!(
        "Spans of the last traced repetition and the layer replays ({path}):"
    ));
    summary.push(spans.table(first_span, rep.run_s));
    Ok((m, summary))
}

fn json(gate: &Gate, metrics: &[(&str, &str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        gate.correct(),
        gate.attempted,
        gate.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        // `+ 0.0` turns the -0 of an empty float sum into 0.
        let value = if value.is_finite() { *value + 0.0 } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload t1-raid5|t2-cache-sweep|fleet-demo \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let mut gate = Gate::default();
    let (values, summary, names) = if args.trace {
        match traced(&args, &mut gate) {
            Ok((m, s)) => (m, s, &PER_LAYER[..]),
            Err(e) => {
                gate.problems.push(e);
                (BTreeMap::new(), Vec::new(), &PER_LAYER[..])
            }
        }
    } else {
        let (m, s) = end_to_end(&args, &mut gate);
        (m, s, &END_TO_END[..])
    };
    for k in values.keys() {
        assert!(
            names.iter().any(|(n, _)| n == k),
            "metric {k} is missing from the metric list"
        );
    }
    let metrics: Vec<(&str, &str, f64)> = names
        .iter()
        .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect();

    println!(
        "{} seed {} ({} mode)",
        w.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for line in &summary {
        println!("{line}");
    }
    for (name, unit, value) in &metrics {
        println!("  {name:<28} {value:>18.6} {unit}");
    }
    println!("  failed/attempted: {}/{}", gate.failed, gate.attempted);
    for p in &gate.problems {
        eprintln!("FAIL {}: {p}", w.name());
    }
    println!("{}", json(&gate, &metrics));
}
