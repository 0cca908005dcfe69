//! The three workloads. One repetition sets up, runs and emits one
//! workload; every phase is timed from outside the crates' public calls.

use crate::spans::Spans;
use raidsim::{
    allocate, run_all, run_fleet, CacheConfig, FaultReport, FleetConfig, FleetPlan, NamedRun,
    Organization, ParityPlacement, SimConfig, SimReport, Simulator, WarmDisks,
};
use std::collections::BTreeMap;
use tracegen::{SynthSpec, Trace};

/// The workload seed that reproduces the repository's presets exactly.
pub const DEFAULT_SEED: u64 = 0;

/// Move a preset seed by the workload seed. The default seed leaves every
/// preset unchanged; any other seed changes all of them.
fn derive(preset: u64, seed: u64) -> u64 {
    preset ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Share of Trace 1 simulated by `t1-raid5` (2,017,503 requests).
const T1_SCALE: f64 = 0.6;
/// NV cache sizes of `t2-cache-sweep` (MB) with their read and write
/// hit-ratio metrics: two below the Trace 2 working set and one that holds
/// it.
pub const T2_CACHES: [(u64, &str, &str); 3] = [
    (4, "cache.read_hit_4mb", "cache.write_hit_4mb"),
    (16, "cache.read_hit_16mb", "cache.write_hit_16mb"),
    (256, "cache.read_hit_256mb", "cache.write_hit_256mb"),
];
/// Simulated seconds of `fleet-demo` (the preset runs 5).
const FLEET_SECS: f64 = 400.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    T1Raid5,
    T2CacheSweep,
    FleetDemo,
    /// `fleet-demo` with the demo fleet's VA 0 disk failure left in. Not a
    /// `BENCHMARK.json` workload: the fault path panics with `double free`
    /// on some fleet seeds (`--seed 5` is one), and this workload keeps
    /// that defect reproducible until it is fixed.
    FleetFaults,
}

/// One simulated configuration of a repetition.
pub struct Op {
    pub label: String,
    /// FNV-1a digest of the report's `Debug` text (0 when the op failed).
    pub digest: u64,
    pub error: Option<String>,
}

/// The generated inputs of a repetition, kept for the layer replays.
pub enum Inputs {
    T1(Trace),
    T2(Vec<Trace>),
    Fleet(Vec<FleetInputs>),
}

pub struct FleetInputs {
    pub fleet: FleetConfig,
    pub plan: FleetPlan,
    /// Arrivals each virtual array received, in VA order.
    pub arrivals: Vec<u64>,
}

/// One repetition's measurements.
pub struct Rep {
    pub cpu_s: f64,
    pub setup_s: f64,
    pub run_s: f64,
    /// Trace requests the simulator completed.
    pub requests: u64,
    pub ops: Vec<Op>,
    /// Engine events and future-event-list peak, where the run call returns
    /// them (`run_all` does not; the traced t2 path does).
    pub engine: Option<(u64, usize)>,
    /// Per-layer span durations and modelled counters.
    pub layers: BTreeMap<&'static str, f64>,
    /// Summary lines of the simulated configurations, for the printout.
    pub summary: Vec<String>,
    pub inputs: Inputs,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::T1Raid5,
        Workload::T2CacheSweep,
        Workload::FleetDemo,
        Workload::FleetFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::T1Raid5 => "t1-raid5",
            Workload::T2CacheSweep => "t2-cache-sweep",
            Workload::FleetDemo => "fleet-demo",
            Workload::FleetFaults => "fleet-faults",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One repetition. `detailed` (the traced run) times t2's fifteen
    /// configurations one by one instead of through `run_all`, which hides
    /// construction and engine counters. `Err` means the repetition could
    /// not reach its simulated configurations at all.
    pub fn rep(self, seed: u64, spans: &mut Spans, detailed: bool) -> Result<Rep, String> {
        match self {
            Workload::T1Raid5 => t1_rep(seed, spans),
            Workload::T2CacheSweep => t2_rep(seed, spans, detailed),
            Workload::FleetDemo | Workload::FleetFaults => fleet_rep(self, seed, spans),
        }
    }

    /// Simulated configurations per repetition.
    pub fn ops(self) -> u64 {
        match self {
            Workload::T1Raid5 => 1,
            Workload::T2CacheSweep => (t2_orgs().len() * T2_CACHES.len()) as u64 * T2_TRACES,
            Workload::FleetDemo | Workload::FleetFaults => FLEETS,
        }
    }
}

fn t1_inputs(seed: u64) -> (SynthSpec, SimConfig) {
    let mut spec = SynthSpec::trace1().scaled(T1_SCALE);
    spec.seed = derive(spec.seed, seed);
    let mut cfg = SimConfig::with_organization(Organization::Raid5 { striping_unit: 1 });
    cfg.seed = derive(cfg.seed, seed);
    (spec, cfg)
}

/// Trace 2 draws in one t2-cache-sweep repetition. Generating Trace 2
/// costs one of two levels about 35% apart, depending on its seed, and
/// about one seed in three takes the slow one; three draws per repetition
/// keep the workload's set-up cost steady from one workload seed to the
/// next.
pub const T2_TRACES: u64 = 3;

/// The repetition's Trace 2 specs: trace `k` of workload seed `s` takes
/// seed `s·T2_TRACES + k`, so trace 0 of the default seed is the preset.
fn t2_specs(seed: u64) -> Vec<SynthSpec> {
    (0..T2_TRACES)
        .map(|k| {
            let mut spec = SynthSpec::trace2();
            spec.seed = derive(spec.seed, seed.wrapping_mul(T2_TRACES).wrapping_add(k));
            spec
        })
        .collect()
}

pub fn t2_orgs() -> [Organization; 5] {
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

/// Five organizations × three cache sizes, labelled `ORG@SIZEMB`.
fn t2_configs(seed: u64) -> Vec<(String, SimConfig)> {
    let mut out = Vec::new();
    for (mb, ..) in T2_CACHES {
        for org in t2_orgs() {
            let mut cfg = SimConfig::with_organization(org);
            cfg.seed = derive(cfg.seed, seed);
            cfg.cache = Some(CacheConfig {
                size_mb: mb,
                ..CacheConfig::default()
            });
            out.push((format!("{}@{mb}MB", org.label()), cfg));
        }
    }
    out
}

/// Demo fleets in one fleet-demo repetition. One fleet's run time varies
/// up to twofold with its seed, because the cost of generating a
/// Trace-2-shaped tenant stream is bimodal in the seed; eight fleets per
/// repetition keep the workload's cost steady from one workload seed to
/// the next.
pub const FLEETS: u64 = 8;

/// The repetition's fleets: fleet `k` of workload seed `s` takes seed
/// `s·FLEETS + k`, so fleet 0 of the default seed has the preset demo
/// fleet's seed. `fleet-demo` drops the demo's fault plan; `fleet-faults`
/// keeps it.
fn fleet_configs(w: Workload, seed: u64) -> Vec<FleetConfig> {
    (0..FLEETS)
        .map(|k| {
            let mut fleet = FleetConfig::demo();
            fleet.seed = derive(fleet.seed, seed.wrapping_mul(FLEETS).wrapping_add(k));
            fleet.duration_secs = FLEET_SECS;
            if w != Workload::FleetFaults {
                for va in &mut fleet.arrays {
                    va.fault = None;
                }
            }
            fleet
        })
        .collect()
}

/// fleet-demo's set-up: validate and allocate every fleet.
fn fleet_setup(fleets: &[FleetConfig]) -> Result<Vec<FleetPlan>, String> {
    fleets
        .iter()
        .map(|f| f.validate().and_then(|()| allocate(f)))
        .collect()
}

/// Time a fleet workload's set-up alone.
pub fn fleet_setup_s(w: Workload, seed: u64) -> f64 {
    let fleets = fleet_configs(w, seed);
    let start = crate::spans::cpu_s();
    let plans = fleet_setup(&fleets);
    let secs = crate::spans::cpu_s() - start;
    drop(std::hint::black_box(plans));
    secs
}

/// Requests the fleet's tenants demand over the run (the router's count).
fn fleet_demand(fleet: &FleetConfig) -> u64 {
    fleet
        .tenants
        .iter()
        .map(|t| ((t.demand_iops * fleet.duration_secs).ceil() as u64).max(1))
        .sum()
}

/// FNV-1a over a report's `Debug` text: the identity the pinned digests
/// are taken of.
fn digest(debug_text: &str) -> u64 {
    debug_text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Run `f`, turning a panic into an error: a configuration that panics is
/// one failed operation, not the end of the benchmark.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        format!("panicked: {msg}")
    })
}

/// An op for one simulated configuration, failed when its completed count
/// is not the number of requests it was given.
fn op(label: &str, report: &impl std::fmt::Debug, completed: u64, expected: u64) -> Op {
    Op {
        label: label.to_string(),
        digest: digest(&format!("{report:?}")),
        error: (completed != expected)
            .then(|| format!("completed {completed} of {expected} requests")),
    }
}

fn t1_rep(seed: u64, spans: &mut Spans) -> Result<Rep, String> {
    let (spec, cfg) = t1_inputs(seed);
    let whole = spans.open("t1-raid5");
    let setup = spans.open("setup");
    let (trace, gen_s) = spans.time("tracegen.generate", || spec.generate());
    let (sim, construct_s) = spans.time("raidsim.construct", || Simulator::try_new(cfg, &trace));
    let sim = sim?;
    let setup_s = spans.close(setup);
    let (run, run_s) = spans.time("raidsim.run", || guarded(|| sim.run_instrumented()));
    let (report, stats) = run?;
    let emit = spans.open("report.emit");
    let summary = vec![report.summary()];
    let ops = vec![op(
        "RAID5",
        &report,
        report.requests_completed,
        trace.len() as u64,
    )];
    let emit_s = spans.close(emit);
    let cpu_s = spans.close(whole);

    let mut layers = model_layers(&[&report]);
    layers.insert("tracegen.generate_s", gen_s);
    layers.insert("raidsim.construct_s", construct_s);
    layers.insert("report.emit_s", emit_s);
    Ok(Rep {
        cpu_s,
        setup_s,
        run_s,
        requests: report.requests_completed,
        ops,
        engine: Some((stats.events_processed, stats.peak_pending)),
        layers,
        summary,
        inputs: Inputs::T1(trace),
    })
}

fn t2_rep(seed: u64, spans: &mut Spans, detailed: bool) -> Result<Rep, String> {
    let specs = t2_specs(seed);
    let whole = spans.open("t2-cache-sweep");
    let setup = spans.open("setup");
    let mut gen_s = 0.0;
    let traces: Vec<Trace> = specs
        .iter()
        .map(|spec| {
            let (trace, s) = spans.time("tracegen.generate", || spec.generate());
            gen_s += s;
            trace
        })
        .collect();
    let configs = t2_configs(seed);
    // Every configuration on every trace, labelled `ORG@SIZEMB/tK`.
    let points: Vec<(String, &SimConfig, &Trace)> = traces
        .iter()
        .enumerate()
        .flat_map(|(k, trace)| {
            configs
                .iter()
                .map(move |(label, cfg)| (format!("{label}/t{k}"), cfg, trace))
        })
        .collect();
    let setup_s = spans.close(setup);

    let run = spans.open("raidsim.run");
    let mut construct_s = 0.0;
    let mut engine = None;
    let results: Vec<(String, Result<SimReport, String>)> = if detailed {
        // The traced path does what `run_all(.., 1)` does — one warm disk
        // pool, then each point in order — with a span per call.
        let pool_disks = points
            .iter()
            .map(|(_, cfg, trace)| cfg.total_disks(trace.n_disks))
            .max()
            .unwrap_or(0);
        let (pool, pool_s) = spans.time("raidsim.warm_disks", || {
            WarmDisks::new(&configs[0].1, pool_disks)
        });
        construct_s += pool_s;
        let (mut events, mut peak) = (0, 0);
        let mut out = Vec::new();
        for (label, cfg, trace) in &points {
            let point = spans.open(label);
            let (sim, s) = spans.time("raidsim.construct", || {
                Simulator::try_new_warm((*cfg).clone(), trace, &pool)
            });
            construct_s += s;
            let result = sim.and_then(|sim| {
                let (run, _) = spans.time("raidsim.run_instrumented", || {
                    guarded(|| sim.run_instrumented())
                });
                let (report, stats) = run?;
                events += stats.events_processed;
                peak = peak.max(stats.peak_pending);
                Ok(report)
            });
            spans.close(point);
            out.push((label.clone(), result));
        }
        engine = Some((events, peak));
        out
    } else {
        let runs: Vec<NamedRun<'_>> = points
            .iter()
            .map(|(label, cfg, trace)| NamedRun::new(label.clone(), (*cfg).clone(), trace))
            .collect();
        run_all(&runs, 1)
    };
    let run_s = spans.close(run);

    let emit = spans.open("report.emit");
    let mut summary = Vec::new();
    let mut ops = Vec::new();
    let mut reports = Vec::new();
    for ((label, result), (_, _, trace)) in results.iter().zip(&points) {
        match result {
            Ok(report) => {
                summary.push(format!("{label:<19} {}", report.summary()));
                let expected = trace.len() as u64;
                ops.push(op(label, report, report.requests_completed, expected));
                reports.push(report);
            }
            Err(e) => ops.push(Op {
                label: label.clone(),
                digest: 0,
                error: Some(e.clone()),
            }),
        }
    }
    let emit_s = spans.close(emit);
    let cpu_s = spans.close(whole);

    let mut layers = model_layers(&reports);
    for (mb, read_metric, write_metric) in T2_CACHES {
        let at_size: Vec<&SimReport> = points
            .iter()
            .zip(&results)
            .filter(|((_, cfg, _), _)| cfg.cache.is_some_and(|c| c.size_mb == mb))
            .filter_map(|(_, (_, r))| r.as_ref().ok())
            .collect();
        let (read, write) = hit_ratios(&at_size);
        layers.insert(read_metric, read);
        layers.insert(write_metric, write);
    }
    layers.insert("tracegen.generate_s", gen_s);
    if detailed {
        layers.insert("raidsim.construct_s", construct_s);
    }
    layers.insert("report.emit_s", emit_s);
    let requests = reports.iter().map(|r| r.requests_completed).sum();
    Ok(Rep {
        cpu_s,
        setup_s,
        run_s,
        requests,
        ops,
        engine,
        layers,
        summary,
        inputs: Inputs::T2(traces),
    })
}

fn fleet_rep(w: Workload, seed: u64, spans: &mut Spans) -> Result<Rep, String> {
    let fleets = fleet_configs(w, seed);
    let whole = spans.open(w.name());
    let setup = spans.open("setup");
    let (plans, alloc_s) = spans.time("fleet.alloc", || fleet_setup(&fleets));
    let plans = plans?;
    let setup_s = spans.close(setup);
    let run = spans.open("raidsim.run");
    let results: Vec<_> = fleets
        .iter()
        .map(|fleet| {
            spans
                .time("run_fleet", || {
                    guarded(|| run_fleet(fleet, 1)).and_then(|r| r)
                })
                .0
        })
        .collect();
    let run_s = spans.close(run);
    let emit = spans.open("report.emit");
    let mut summary = Vec::new();
    let mut ops = Vec::new();
    let mut runs = Vec::new();
    let mut inputs = Vec::new();
    for (k, ((fleet, plan), result)) in fleets.into_iter().zip(plans).zip(results).enumerate() {
        let label = format!("fleet{k}");
        let (report, stats) = match result {
            Ok(run) => run,
            Err(e) => {
                ops.push(Op {
                    label,
                    digest: 0,
                    error: Some(e),
                });
                continue;
            }
        };
        for va in report
            .vas
            .iter()
            .filter(|va| va.report.requests_completed > 0)
        {
            summary.push(format!("{label} {:<6} {}", va.name, va.report.summary()));
        }
        let demand = fleet_demand(&fleet);
        ops.push(op(&label, &report, report.requests_completed, demand));
        inputs.push(FleetInputs {
            fleet,
            plan,
            arrivals: stats.partitions.iter().map(|p| p.arrivals_owned).collect(),
        });
        runs.push((report, stats));
    }
    let emit_s = spans.close(emit);
    let cpu_s = spans.close(whole);

    let reports: Vec<&SimReport> = runs
        .iter()
        .flat_map(|(r, _)| r.vas.iter().map(|va| &va.report))
        .collect();
    let mut layers = model_layers(&reports);
    layers.insert("fleet.alloc_s", alloc_s);
    layers.insert("report.emit_s", emit_s);
    let n = runs.len().max(1) as f64;
    layers.insert(
        "fleet.events_per_sim_s",
        runs.iter().map(|(r, _)| r.events_per_sim_sec).sum::<f64>() / n,
    );
    layers.insert(
        "fleet.tenant_p99_ms_max",
        runs.iter()
            .flat_map(|(r, _)| &r.tenants)
            .map(|t| t.p99_ms)
            .fold(0.0, f64::max),
    );
    // In fleet-faults VA 0 of every fleet carries the disk failure; in
    // fleet-demo no VA fails and these read 0.
    let faults: Vec<&FaultReport> = runs
        .iter()
        .filter_map(|(r, _)| r.vas.first()?.report.faults.as_ref())
        .collect();
    let fault_sum = |f: &dyn Fn(&FaultReport) -> f64| faults.iter().map(|r| f(r)).sum::<f64>();
    layers.insert("faults.rebuild_s", fault_sum(&|f| f.rebuild_ms / 1e3) / n);
    layers.insert("faults.ops_aborted", fault_sum(&|f| f.ops_aborted as f64));
    layers.insert("faults.ops_replayed", fault_sum(&|f| f.ops_replayed as f64));
    let events = runs.iter().map(|(_, st)| st.events_processed).sum();
    let peak = runs
        .iter()
        .map(|(_, st)| st.peak_pending)
        .max()
        .unwrap_or(0);
    Ok(Rep {
        cpu_s,
        setup_s,
        run_s,
        requests: runs.iter().map(|(r, _)| r.requests_completed).sum(),
        ops,
        engine: Some((events, peak)),
        layers,
        summary,
        inputs: Inputs::Fleet(inputs),
    })
}

/// Pooled read and write hit ratios over the cached reports.
fn hit_ratios(reports: &[&SimReport]) -> (f64, f64) {
    let (mut rh, mut rm, mut wh, mut wm) = (0, 0, 0, 0);
    for c in reports.iter().filter_map(|r| r.cache.as_ref()) {
        rh += c.read_hits;
        rm += c.read_misses;
        wh += c.write_hits;
        wm += c.write_misses;
    }
    let ratio = |h: u64, m: u64| {
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    };
    (ratio(rh, rm), ratio(wh, wm))
}

/// Modelled (simulated-time) per-layer figures folded over the reports of
/// one repetition: sums of counts, request-weighted means of latencies and
/// phases, plain means of utilizations, maxima of peaks and tails.
fn model_layers(reports: &[&SimReport]) -> BTreeMap<&'static str, f64> {
    const PHASES: [&str; 8] = [
        "phase.admission_ms",
        "phase.channel_ms",
        "phase.queue_ms",
        "phase.destage_ms",
        "phase.seek_ms",
        "phase.rotation_ms",
        "phase.transfer_ms",
        "phase.parity_ms",
    ];
    let mut m = BTreeMap::new();
    let n = reports.len().max(1) as f64;
    let sum = |f: &dyn Fn(&SimReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
    let max = |f: &dyn Fn(&SimReport) -> f64| reports.iter().map(|r| f(r)).fold(0.0, f64::max);

    m.insert("disk.ops", sum(&|r| r.disk_ops as f64));
    m.insert("admission.buffer_waits", sum(&|r| r.buffer_waits as f64));
    m.insert("disk.util_mean", sum(&|r| r.mean_disk_utilization()) / n);
    m.insert(
        "channel.util",
        sum(&|r| {
            let c = &r.channel_utilization;
            c.iter().sum::<f64>() / c.len().max(1) as f64
        }) / n,
    );
    let (read, write) = hit_ratios(reports);
    m.insert("cache.read_hit", read);
    m.insert("cache.write_hit", write);
    m.insert(
        "cache.dirty_evictions",
        sum(&|r| r.cache.map_or(0.0, |c| c.dirty_evictions as f64)),
    );
    m.insert("spool.stalls", sum(&|r| r.spool_stalls as f64));
    m.insert("spool.peak", max(&|r| r.spool_peak as f64));

    let requests = sum(&|r| r.response_all_ms.count() as f64).max(1.0);
    m.insert(
        "model.mean_ms",
        sum(&|r| r.response_all_ms.mean() * r.response_all_ms.count() as f64) / requests,
    );
    m.insert("model.p99_ms", max(&|r| r.quantile_ms(0.99)));
    for (i, name) in PHASES.iter().enumerate() {
        let weighted = sum(&|r| {
            [&r.phases_reads, &r.phases_writes]
                .iter()
                .map(|p| p.means_ms()[i].1 * p.count() as f64)
                .sum()
        });
        m.insert(*name, weighted / requests);
    }
    m
}
