//! `simulate` — run one configuration from the command line.
//!
//! ```text
//! simulate --org raid5 --n 10 --cache 16
//! simulate --org parstrip --placement end --trace trace1 --scale 0.05
//! simulate --org mirror --speed 2 --sync si
//! simulate --org raid5 --failed 0:3           # degraded mode
//! simulate --org base --trace-file ops.trace  # replay a captured trace
//! simulate --org raid5 --fail-disk 3@5s --spare --rebuild-rate 10
//! ```
//!
//! Prints the report summary plus the per-disk utilization/access table.

#![expect(
    clippy::disallowed_methods,
    reason = "driver code: times runs by the wall clock"
)]

use bench::experiments::fleet_tables;
use raidsim::{
    run_all, run_fleet, CacheConfig, Discipline, DiskFailure, FaultConfig, FleetConfig, NamedRun,
    Organization, ParityPlacement, SimConfig, SparingMode, SyncPolicy,
};
use tracegen::{fmt, SynthSpec, Trace};

/// Every option `simulate` takes, in usage order: its name and, for an
/// option that takes a value, that value's placeholder (`None` marks a
/// flag). The argument check and the usage text both read this table.
/// `--fleet` starts the fleet form, `--org` the single-array form.
const OPTIONS: [(&str, Option<&str>); 37] = [
    ("--fleet", Some("demo|small|SPEC_FILE")),
    ("--threads", Some("N")),
    ("--org", Some("base|mirror|raid5|raid4|parstrip")),
    ("--n", Some("N")),
    ("--su", Some("BLOCKS")),
    ("--placement", Some("middle|end|rotated")),
    ("--band", Some("BLOCKS")),
    ("--sync", Some("si|rf|rfpr|df|dfpr")),
    ("--sched", Some("fcfs|sstf|scan")),
    ("--sched-stats", None),
    ("--cache", Some("MB")),
    ("--destage", Some("MS")),
    ("--failed", Some("ARRAY:DISK")),
    ("--fail-disk", Some("[ARRAY:]DISK@TIME(s|ms)")),
    ("--second-fail", Some("[ARRAY:]DISK@TIME(s|ms)")),
    ("--spare", None),
    ("--no-spare", None),
    ("--spares", Some("N")),
    ("--sparing", Some("hot|dist")),
    ("--rebuild-rate", Some("MBPS")),
    ("--latent-rate", Some("PER_DISK_HOUR")),
    ("--scrub-rate", Some("MBPS")),
    ("--allow-idle-faults", None),
    ("--transient-p", Some("F")),
    ("--max-retries", Some("N")),
    ("--battery-fail", Some("MS")),
    ("--battery-restore", Some("MS")),
    ("--trace", Some("trace1|trace2")),
    ("--trace-file", Some("PATH")),
    ("--scale", Some("F")),
    ("--speed", Some("F")),
    ("--seed", Some("N")),
    ("--phases", None),
    ("--sample-ms", Some("MS")),
    ("--event-log", Some("PATH")),
    ("--help", None),
    ("-h", None),
];

/// The usage text, built from [`OPTIONS`]: the fleet form (`--fleet`,
/// `--threads`), the single-array form (`--org` up to `--help`), then help.
fn usage() -> String {
    let mut out = String::from("usage: simulate");
    for (name, value) in OPTIONS.iter().take_while(|(name, _)| *name != "--help") {
        let word = match (*name, value) {
            ("--fleet" | "--org", Some(v)) => format!("{name} <{v}>"),
            (_, Some(v)) => format!("[{name} {v}]"),
            (_, None) => format!("[{name}]"),
        };
        let line = out.len() - out.rfind('\n').unwrap_or(0);
        if *name == "--org" {
            out.push_str("\n   or: simulate");
        } else if line + word.len() > 78 {
            out.push_str("\n       ");
        }
        out.push(' ');
        out.push_str(&word);
    }
    out.push_str("\n   or: simulate --help");
    out
}

struct Args(Vec<String>);

impl Args {
    /// Refuse anything [`OPTIONS`] does not list, a stray word, a value
    /// option with no value after it, and an option or flag given twice:
    /// each would otherwise be ignored (a repeat loses to the first
    /// occurrence) and the run would go ahead with a configuration nobody
    /// asked for.
    fn validate(&self) -> Result<(), String> {
        let mut seen: Vec<&str> = Vec::new();
        let mut it = self.0.iter().peekable();
        while let Some(arg) = it.next() {
            let option = OPTIONS.iter().find(|(name, _)| name == arg);
            if let Some((name, _)) = option {
                if seen.contains(name) {
                    return Err(format!("{name} given more than once"));
                }
                seen.push(name);
            }
            match option {
                Some((_, None)) => {}
                Some((name, Some(_))) => {
                    if it.next_if(|v| !v.starts_with("--")).is_none() {
                        return Err(format!("{name} needs a value"));
                    }
                }
                None if arg.starts_with('-') => return Err(format!("unknown option {arg}")),
                None => return Err(format!("unexpected argument {arg}")),
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
    eprintln!("{}", usage());
    std::process::exit(2)
}

/// Parse `[ARRAY:]DISK@TIME` where TIME is `<n>s`, `<n>ms`, or bare
/// milliseconds — e.g. `3@5s` (array 0, disk 3, t = 5 s) or `1:2@500ms`.
fn parse_fail_disk(spec: &str) -> DiskFailure {
    let (loc, time) = spec
        .split_once('@')
        .unwrap_or_else(|| die("--fail-disk wants [ARRAY:]DISK@TIME, e.g. 3@5s"));
    let (array, disk) = match loc.split_once(':') {
        Some((a, d)) => (
            a.parse().unwrap_or_else(|_| die("bad --fail-disk array")),
            d.parse().unwrap_or_else(|_| die("bad --fail-disk disk")),
        ),
        None => (
            0,
            loc.parse().unwrap_or_else(|_| die("bad --fail-disk disk")),
        ),
    };
    let at_ms: u64 = if let Some(s) = time.strip_suffix("ms") {
        s.parse().unwrap_or_else(|_| die("bad --fail-disk time"))
    } else if let Some(s) = time.strip_suffix('s') {
        s.parse::<u64>()
            .unwrap_or_else(|_| die("bad --fail-disk time"))
            * 1000
    } else {
        time.parse().unwrap_or_else(|_| die("bad --fail-disk time"))
    };
    DiskFailure { array, disk, at_ms }
}

/// `--fleet` path: run a whole fleet of virtual arrays and print the
/// per-VA / per-tenant tables. Every malformed-spec path — parse errors,
/// validation (duplicate tenant id, unknown disk class, overcommitted
/// pool), allocation exhaustion — reports through `die()` with the
/// offending field; none of them panic.
fn run_fleet_cli(args: &Args, spec: &str) -> ! {
    let fleet = match spec {
        "demo" => FleetConfig::demo(),
        "small" => FleetConfig::small(),
        path => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("cannot read fleet spec {path}: {e}")));
            FleetConfig::parse_spec(&text).unwrap_or_else(|e| die(&e))
        }
    };
    let threads: usize = args.parse("--threads", 0);
    eprintln!(
        "fleet: {} virtual arrays over {} disk classes, {} tenants, {:.1} s…",
        fleet.arrays.len(),
        fleet.classes.len(),
        fleet.tenants.len(),
        fleet.duration_secs,
    );
    let t0 = std::time::Instant::now();
    let (report, _) = run_fleet(&fleet, threads).unwrap_or_else(|e| die(&e));
    eprintln!("simulated in {:.2?}\n", t0.elapsed());

    print!("{}", fleet_tables(&report));
    std::process::exit(0)
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    if let Err(e) = args.validate() {
        die(&e);
    }
    if args.flag("--help") || args.flag("-h") {
        println!("{}", usage());
        return;
    }
    if let Some(spec) = args.get("--fleet") {
        run_fleet_cli(&args, spec);
    }

    // --- organization ---------------------------------------------------
    let su: u32 = args.parse("--su", 1);
    let placement = match args.get("--placement").unwrap_or("middle") {
        "middle" => ParityPlacement::Middle,
        "end" => ParityPlacement::End,
        "rotated" => ParityPlacement::MiddleRotated {
            band_blocks: args.parse("--band", 256),
        },
        other => die(&format!("unknown placement {other}")),
    };
    let org = match args
        .get("--org")
        .unwrap_or_else(|| die("--org is required"))
    {
        "base" => Organization::Base,
        "mirror" => Organization::Mirror,
        "raid5" => Organization::Raid5 { striping_unit: su },
        "raid4" => Organization::Raid4 { striping_unit: su },
        "parstrip" => Organization::ParityStriping { placement },
        other => die(&format!("unknown organization {other}")),
    };

    // --- config ----------------------------------------------------------
    let mut cfg = SimConfig::with_organization(org);
    cfg.data_disks_per_array = args.parse("--n", 10);
    cfg.sync = match args.get("--sync").unwrap_or("df") {
        "si" => SyncPolicy::SimultaneousIssue,
        "rf" => SyncPolicy::ReadFirst,
        "rfpr" => SyncPolicy::ReadFirstPriority,
        "df" => SyncPolicy::DiskFirst,
        "dfpr" => SyncPolicy::DiskFirstPriority,
        other => die(&format!("unknown sync policy {other}")),
    };
    if let Some(name) = args.get("--sched") {
        cfg.scheduler = Discipline::from_name(name)
            .unwrap_or_else(|| die(&format!("unknown scheduling discipline {name}")));
    }
    cfg.observability.scheduler_stats = args.flag("--sched-stats");
    if let Some(mb) = args.get("--cache") {
        cfg.cache = Some(CacheConfig {
            size_mb: mb.parse().unwrap_or_else(|_| die("bad --cache")),
            destage_period_ms: args.parse("--destage", 1_000),
        });
    }
    cfg.seed = args.parse("--seed", cfg.seed);
    if let Some(f) = args.get("--failed") {
        let (a, d) = f
            .split_once(':')
            .unwrap_or_else(|| die("--failed wants ARRAY:DISK"));
        cfg.failed_disk = Some((
            a.parse().unwrap_or_else(|_| die("bad --failed array")),
            d.parse().unwrap_or_else(|_| die("bad --failed disk")),
        ));
    }
    // --- fault timeline ---------------------------------------------------
    let wants_faults = args.get("--fail-disk").is_some()
        || args.get("--transient-p").is_some()
        || args.get("--battery-fail").is_some()
        || args.get("--latent-rate").is_some()
        || args.get("--scrub-rate").is_some();
    if wants_faults {
        let mut fault = FaultConfig {
            spare: !args.flag("--no-spare"),
            spare_count: args.parse("--spares", 1),
            sparing: match args.get("--sparing").unwrap_or("hot") {
                "hot" => SparingMode::Hot,
                "dist" | "distributed" => SparingMode::Distributed,
                other => die(&format!("unknown sparing mode {other}")),
            },
            rebuild_rate_mbps: args.parse("--rebuild-rate", 10),
            latent_rate_per_hour: args.parse("--latent-rate", 0.0),
            scrub_rate_mbps: args.parse("--scrub-rate", 0),
            allow_idle_faults: args.flag("--allow-idle-faults"),
            transient_error_prob: args.parse("--transient-p", 0.0),
            max_retries: args.parse("--max-retries", 4),
            battery_fail_at_ms: args.get("--battery-fail").map(|v| {
                v.parse()
                    .unwrap_or_else(|_| die("bad --battery-fail (milliseconds)"))
            }),
            battery_restore_at_ms: args.get("--battery-restore").map(|v| {
                v.parse()
                    .unwrap_or_else(|_| die("bad --battery-restore (milliseconds)"))
            }),
            ..FaultConfig::default()
        };
        if let Some(spec) = args.get("--fail-disk") {
            fault.disk_failure = Some(parse_fail_disk(spec));
        }
        if let Some(spec) = args.get("--second-fail") {
            fault.second_failure = Some(parse_fail_disk(spec));
        }
        cfg.fault = Some(fault);
    }
    if let Some(ms) = args.get("--sample-ms") {
        cfg.observability.sample_period_ms =
            Some(ms.parse().unwrap_or_else(|_| die("bad --sample-ms")));
    }
    if let Some(path) = args.get("--event-log") {
        // Fail up front with a clean message rather than mid-run.
        std::fs::File::create(path)
            .unwrap_or_else(|e| die(&format!("cannot create event log {path}: {e}")));
        cfg.observability.event_log = Some(path.into());
    }
    if let Err(e) = cfg.validate() {
        die(&e);
    }

    // --- workload ----------------------------------------------------------
    let scale = SynthSpec::check_scale(args.parse("--scale", 0.1))
        .unwrap_or_else(|e| die(&format!("--scale: {e}")));
    let trace: Trace = if let Some(path) = args.get("--trace-file") {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        fmt::parse_trace(&text).unwrap_or_else(|e| die(&e.to_string()))
    } else {
        let spec = match args.get("--trace").unwrap_or("trace2") {
            "trace1" => SynthSpec::trace1(),
            "trace2" => SynthSpec::trace2(),
            other => die(&format!("unknown trace {other}")),
        };
        spec.scaled(scale).generate()
    };

    eprintln!(
        "{} on {} requests ({} logical disks, {} arrays, {} physical disks)…",
        org.label(),
        trace.len(),
        trace.n_disks,
        cfg.arrays_for(trace.n_disks),
        cfg.total_disks(trace.n_disks),
    );
    let t0 = std::time::Instant::now();
    let run = NamedRun::new(org.label(), cfg, &trace).at_speed(args.parse("--speed", 1.0));
    let (_, report) = run_all(&[run], 1).swap_remove(0);
    let report = report.unwrap_or_else(|e| die(&e));
    eprintln!("simulated in {:.2?}\n", t0.elapsed());

    println!("{}", report.summary());
    println!(
        "p50 {:.1} ms | p95 {:.1} ms | p99 {:.1} ms | channel util {:.1}%",
        report.quantile_ms(0.5),
        report.quantile_ms(0.95),
        report.quantile_ms(0.99),
        report.channel_utilization.iter().sum::<f64>()
            / report.channel_utilization.len().max(1) as f64
            * 100.0,
    );
    if let Some(cache) = &report.cache {
        println!(
            "cache: read hit {:.1}% | write hit {:.1}% | dirty evictions {} | spool peak {}",
            report.read_hit_ratio() * 100.0,
            report.write_hit_ratio() * 100.0,
            cache.dirty_evictions,
            report.spool_peak,
        );
    }
    println!(
        "disk accesses: total {} | per-disk CV {:.3} | peak/mean {:.2} | max util {:.1}%",
        report.disk_ops,
        report.per_disk_accesses.coefficient_of_variation(),
        report.per_disk_accesses.peak_to_mean(),
        report.max_disk_utilization() * 100.0,
    );
    if let Some(f) = &report.faults {
        println!(
            "faults: degraded window {:.1} s | rebuild {:.1} s ({} blocks) | \
             aborted {} | replayed {}",
            f.degraded_window_ms / 1000.0,
            f.rebuild_ms / 1000.0,
            f.rebuild_blocks,
            f.ops_aborted,
            f.ops_replayed,
        );
        println!(
            "        healthy {:.2} ms | degraded {:.2} ms | transient errors {} \
             (retries {}, escalations {}) | write-through {}",
            f.response_healthy_ms.mean(),
            f.degraded_mean_ms(),
            f.transient_errors,
            f.retries,
            f.escalations,
            f.writes_written_through,
        );
    }
    if let Some(r) = &report.reliability {
        println!(
            "reliability: {} | disk failures {} | spares used {}/{} | \
             latent {} found / {} repaired | scrub coverage {:.1}% | \
             exposure {:.1} s | blocks lost {} (lost reads {})",
            r.health,
            r.disk_failures,
            r.spares_used,
            r.spares_used + r.spares_available,
            r.latent_errors,
            r.latent_repaired,
            r.scrub_coverage * 100.0,
            r.exposure_ms / 1000.0,
            r.blocks_lost,
            r.lost_reads,
        );
        if let Some(at) = r.data_loss_at_ms {
            println!("             data loss at {:.1} s", at / 1000.0);
        }
    }
    if args.flag("--phases") {
        for (dir, ph) in [
            ("reads ", &report.phases_reads),
            ("writes", &report.phases_writes),
        ] {
            let parts: Vec<String> = ph
                .means_ms()
                .iter()
                .map(|(label, mean)| format!("{label} {mean:.2}"))
                .collect();
            println!(
                "phases {dir} ({:6.2} ms): {}",
                ph.mean_total_ms(),
                parts.join(" | ")
            );
        }
    }
    if let Some(s) = &report.scheduler {
        println!(
            "scheduler {}: mean seek {:.1} cyl over {} dispatches | qdepth P {:.2} / N {:.2} / B {:.2}",
            s.discipline,
            s.mean_seek_distance_cyl(),
            s.seek_distance_cyl.count(),
            s.queue_depth_priority.mean(),
            s.queue_depth_normal.mean(),
            s.queue_depth_background.mean(),
        );
    }
    if let Some(ts) = &report.timeseries {
        println!(
            "timeseries: {} samples x {} columns | mean qdepth.d0 {:.2} | max util.d0 {:.2}",
            ts.len(),
            ts.width(),
            ts.column_mean("qdepth.d0"),
            ts.column_max("util.d0"),
        );
    }
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
            args(&["--org", "raid5", "--cache", "16", "--phases", "--scale", "0.02", "-h"])
                .validate()
                .is_ok()
        );
        // A misspelt option must not fall through to the default (here:
        // uncached) configuration.
        let e = args(&["--org", "raid5", "--cahce", "16"])
            .validate()
            .unwrap_err();
        assert!(e.contains("--cahce"), "{e}");
        let e = args(&["--org", "raid5", "extra"]).validate().unwrap_err();
        assert!(e.contains("extra"), "{e}");
        let e = args(&["--org", "raid5", "--cache"]).validate().unwrap_err();
        assert!(e.contains("--cache needs a value"), "{e}");
        let e = args(&["--cache", "--scale", "0.02"])
            .validate()
            .unwrap_err();
        assert!(e.contains("--cache needs a value"), "{e}");
        // A repeat would silently lose to the first occurrence.
        let e = args(&["--cache", "4", "--cache", "16"])
            .validate()
            .unwrap_err();
        assert!(e.contains("--cache given more than once"), "{e}");
        let e = args(&["--phases", "--org", "raid5", "--phases"])
            .validate()
            .unwrap_err();
        assert!(e.contains("--phases given more than once"), "{e}");
    }
}
