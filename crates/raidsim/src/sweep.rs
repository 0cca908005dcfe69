//! Parallel parameter sweeps, and the one work-stealing pool they and the
//! fleet runner share.
//!
//! Every experiment in the paper is a grid of independent simulations
//! (organizations × array sizes × cache sizes × …). Runs share no mutable
//! state, so they parallelize perfectly across threads; the immutable
//! inputs — the parsed trace and a warm pool of calibrated disk models —
//! are built once and shared by reference across every point instead of
//! being rebuilt per point. A single simulation always runs serially.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the one work-stealing pool: the only home of threads and synchronization"
)]

use crate::config::SimConfig;
use crate::report::SimReport;
use crate::sim::{Simulator, WarmDisks};
use std::sync::atomic::{AtomicUsize, Ordering};
use tracegen::Trace;

/// One sweep point: a label plus its configuration and input trace (traces
/// are shared by reference; generate once, sweep many) and replay speed.
pub struct NamedRun<'a> {
    pub label: String,
    pub config: SimConfig,
    pub trace: &'a Trace,
    pub speed: f64,
}

impl<'a> NamedRun<'a> {
    pub fn new(label: impl Into<String>, config: SimConfig, trace: &'a Trace) -> NamedRun<'a> {
        NamedRun {
            label: label.into(),
            config,
            trace,
            speed: 1.0,
        }
    }

    /// Replay the trace at `speed`× its arrival rate (Figs 10 and 18): each
    /// arrival time is divided by `speed` and rounded to the nanosecond, with
    /// no copy. A speed that is not finite and > 0, or that moves the last
    /// arrival past 2^53 ns, fails the point.
    pub fn at_speed(self, speed: f64) -> NamedRun<'a> {
        NamedRun { speed, ..self }
    }
}

/// Run `job(i)` for every `i` in `0..jobs` on up to `threads` workers
/// (`0` uses the machine's available parallelism) and return the results
/// in index order. This is the one parallel pool in the workspace: sweeps
/// ([`run_all`]) and fleets ([`crate::run_fleet`]) both run on it.
///
/// Work distribution is a work-stealing loop over an atomic next-index
/// cursor: each worker repeatedly claims the lowest unclaimed job. Unlike
/// static chunking — where one chunk of slow jobs (e.g. RAID5 at high
/// load) idles every other worker while its owner grinds through it — the
/// stragglers end up spread across whoever is free, so wall time tracks
/// the total work, not the unluckiest chunk. Workers collect results
/// locally and the caller puts them back in index order, so which thread
/// ran a job never shows in the output: for jobs that are pure functions
/// of their index, every thread count returns the same values.
///
/// With one worker (or at most one job) the jobs run on the calling thread
/// and no thread is spawned. A panicking job panics the caller: the worker
/// dies, and its panic is re-raised when the scope joins it.
pub(crate) fn ordered_map<T: Send>(
    jobs: usize,
    threads: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        threads
    };
    let workers = threads.min(jobs);
    if workers <= 1 {
        return (0..jobs).map(job).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        // Relaxed: the cursor publishes no data, only
                        // indices; results come back through `join`.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break local;
                        }
                        local.push((i, job(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            // Re-raise a worker panic on the caller's thread.
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    // The cursor hands out every index exactly once.
    done.sort_unstable_by_key(|&(i, _)| i);
    debug_assert!(done.iter().enumerate().all(|(k, &(i, _))| k == i));
    done.into_iter().map(|(_, r)| r).collect()
}

/// Run every sweep point, `threads`-wide on `ordered_map`'s pool,
/// returning the labelled reports in input order. `threads = 0` uses the
/// machine's available parallelism.
///
/// A point whose configuration or speed fails to construct — or whose
/// simulation panics outright (say, a malformed trace indexing past the
/// array) — yields `Err(message)` in its result slot instead of poisoning
/// the whole sweep: one bad grid corner must not discard the other N−1
/// finished simulations. Before the per-point `catch_unwind`, a panicking
/// point killed its whole worker: the worker's already-finished local
/// results were dropped, and the join re-raised the panic so *every* point
/// of the sweep was lost.
///
/// Which *thread* executes a run never affects its result: every run is an
/// independent, seed-determined simulation, and the pool returns results
/// by input index, so the output is bit-identical to a serial sweep in the
/// same order.
pub fn run_all(runs: &[NamedRun<'_>], threads: usize) -> Vec<(String, Result<SimReport, String>)> {
    // Warm-start pools, keyed by *disk class*: disk models are a pure
    // function of (seed, geometry, seek, index), so every grid point
    // agreeing on those three shares one pool sized for the class's
    // largest point. Earlier the sweep built a single pool from the
    // overall-largest point, so a grid mixing seeds or drive models
    // warm-started only one class and cold-constructed the rest; now each
    // class gets its own pool and only genuinely unique points fall back
    // to cold construction inside the constructor (byte-identical either
    // way). Invalid points (size 0 here) surface their error there too.
    let pool_size = |r: &NamedRun<'_>| {
        if r.config.data_disks_per_array == 0 {
            0
        } else {
            r.config.total_disks(r.trace.n_disks)
        }
    };
    let mut pools: Vec<(u32, WarmDisks)> = Vec::new();
    for r in runs {
        let size = pool_size(r);
        match pools.iter_mut().find(|(_, w)| w.matches(&r.config)) {
            Some(p) if p.0 >= size => {}
            Some(p) => *p = (size, WarmDisks::new(&r.config, size)),
            None => pools.push((size, WarmDisks::new(&r.config, size))),
        }
    }
    let warm_for = |cfg: &SimConfig| pools.iter().map(|(_, w)| w).find(|w| w.matches(cfg));

    ordered_map(runs.len(), threads, |i| {
        let run = &runs[i];
        // Contain a panicking point to its own result slot; the worker
        // lives on to claim the remaining points.
        let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let warm = warm_for(&run.config);
            Simulator::try_new_inner(run.config.clone(), run.trace, run.speed, warm)
                .map(|s| s.run())
        }))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            Err(format!("simulation panicked: {msg}"))
        });
        (run.label.clone(), report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Organization;
    use tracegen::SynthSpec;

    /// The pool returns every job's result in index order at any thread
    /// count, including more workers than jobs, and runs each job once —
    /// also when a later job finishes first: on two or more workers, job 0
    /// waits until job 1 has finished (job 1 must be on another worker,
    /// since job 0's worker is blocked).
    #[test]
    fn pool_returns_results_in_index_order() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::{mpsc, Mutex};
        let expect: Vec<usize> = (0..37).map(|i| i * i).collect();
        for threads in [0, 1, 2, 3, 8, 64] {
            let calls = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel();
            let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
            let forced = threads >= 2;
            let out = ordered_map(expect.len(), threads, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                if forced && i == 0 {
                    rx.lock().unwrap().recv().unwrap();
                }
                if forced && i == 1 {
                    tx.lock().unwrap().send(()).unwrap();
                }
                i * i
            });
            assert_eq!(out, expect, "order broken at {threads} threads");
            assert_eq!(calls.into_inner(), expect.len(), "{threads} threads");
        }
    }

    #[test]
    fn pool_with_no_jobs_returns_nothing() {
        for threads in [0, 1, 4] {
            let out: Vec<usize> = ordered_map(0, threads, |i| i);
            assert!(out.is_empty());
        }
    }

    /// More threads than jobs: one worker per job at most, every result
    /// still in place.
    #[test]
    fn pool_with_more_threads_than_jobs() {
        let out = ordered_map(3, 16, |i| format!("job{i}"));
        assert_eq!(out, ["job0", "job1", "job2"]);
    }

    /// A panicking job is not swallowed: the worker's panic reaches the
    /// caller, at one thread (inline) and on spawned workers alike.
    #[test]
    fn pool_reraises_a_job_panic_on_the_caller() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for threads in [1, 3] {
            let caught = std::panic::catch_unwind(|| {
                ordered_map(6, threads, |i| {
                    assert_ne!(i, 4, "job 4 fails");
                    i
                })
            });
            let payload = caught.expect_err("the job panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("job 4 fails"), "{threads} threads: {msg:?}");
        }
        std::panic::set_hook(hook);
    }

    #[test]
    fn parallel_sweep_matches_serial_runs() {
        let trace = SynthSpec::trace2().scaled(0.01).generate();
        let orgs = [
            Organization::Base,
            Organization::Mirror,
            Organization::Raid5 { striping_unit: 1 },
        ];
        let runs: Vec<NamedRun<'_>> = orgs
            .iter()
            .map(|&o| NamedRun::new(o.label(), SimConfig::with_organization(o), &trace))
            .collect();
        let parallel = run_all(&runs, 3);
        assert_eq!(parallel.len(), 3);
        for (i, &org) in orgs.iter().enumerate() {
            let serial = Simulator::new(SimConfig::with_organization(org), &trace).run();
            assert_eq!(parallel[i].0, org.label());
            assert_eq!(
                parallel[i].1.as_ref().unwrap().mean_response_ms(),
                serial.mean_response_ms(),
                "parallel run must be bit-identical to serial for {}",
                org.label()
            );
        }
    }

    /// Work stealing must not reorder or cross-wire results: a mixed
    /// Base/RAID5 grid larger than the worker count comes back in input
    /// order with every entry bit-identical to its serial run, for any
    /// thread count (including more workers than runs).
    #[test]
    fn work_stealing_preserves_order_and_results() {
        let trace = SynthSpec::trace2().scaled(0.005).generate();
        let orgs = [Organization::Base, Organization::Raid5 { striping_unit: 1 }];
        let runs: Vec<NamedRun<'_>> = (0..8)
            .map(|i| {
                let org = orgs[i % 2];
                NamedRun::new(
                    format!("{}#{i}", org.label()),
                    SimConfig::with_organization(org),
                    &trace,
                )
            })
            .collect();
        let serial: Vec<String> = runs
            .iter()
            .map(|r| {
                format!(
                    "{:?}",
                    Simulator::new(r.config.clone(), r.trace)
                        .run()
                        .response_all_ms
                )
            })
            .collect();
        for threads in [1, 3, 16] {
            let parallel = run_all(&runs, threads);
            assert_eq!(parallel.len(), runs.len());
            for (i, (label, report)) in parallel.iter().enumerate() {
                assert_eq!(label, &runs[i].label, "order broken at {threads} threads");
                assert_eq!(
                    format!("{:?}", report.as_ref().unwrap().response_all_ms),
                    serial[i],
                    "run {i} differs from serial at {threads} threads"
                );
            }
        }
    }

    /// The shared warm-disk pool is an optimization, never a correctness
    /// input: a grid mixing seeds (so only some points match the pool's
    /// parameters and the rest fall back to cold construction) must return
    /// every point byte-identical to its own cold serial run.
    #[test]
    fn warm_started_points_match_cold_runs_across_mixed_seeds() {
        let trace = SynthSpec::trace2().scaled(0.005).generate();
        let mk = |org: Organization, seed: u64| {
            let mut cfg = SimConfig::with_organization(org);
            cfg.seed = seed;
            cfg
        };
        let runs = vec![
            NamedRun::new("base-s7", mk(Organization::Base, 7), &trace),
            NamedRun::new("mirror-s7", mk(Organization::Mirror, 7), &trace),
            NamedRun::new("base-s11", mk(Organization::Base, 11), &trace),
            NamedRun::new(
                "raid5-s11",
                mk(Organization::Raid5 { striping_unit: 1 }, 11),
                &trace,
            ),
        ];
        let cold: Vec<String> = runs
            .iter()
            .map(|r| format!("{:#?}", Simulator::new(r.config.clone(), r.trace).run()))
            .collect();
        let out = run_all(&runs, 2);
        for (i, (label, report)) in out.iter().enumerate() {
            assert_eq!(
                format!("{:#?}", report.as_ref().unwrap()),
                cold[i],
                "{label} diverged from its cold run"
            );
        }
    }

    /// Per-disk-class pools (seed × geometry × seek): a grid mixing seeds
    /// *and* drive models warm-starts every class from its own pool, and
    /// every point still comes back byte-identical to its cold serial run.
    #[test]
    fn per_class_pools_cover_mixed_geometry_grids() {
        let trace = SynthSpec::trace2().scaled(0.005).generate();
        let mk = |seed: u64, rpm: u32| {
            let mut cfg = SimConfig::with_organization(Organization::Base);
            cfg.seed = seed;
            cfg.geometry.rpm = rpm;
            cfg
        };
        let runs = vec![
            NamedRun::new("s7-5400", mk(7, 5400), &trace),
            NamedRun::new("s7-7200", mk(7, 7200), &trace),
            NamedRun::new("s11-5400", mk(11, 5400), &trace),
            NamedRun::new("s7-5400-b", mk(7, 5400), &trace),
        ];
        let cold: Vec<String> = runs
            .iter()
            .map(|r| format!("{:#?}", Simulator::new(r.config.clone(), r.trace).run()))
            .collect();
        let out = run_all(&runs, 2);
        for (i, (label, report)) in out.iter().enumerate() {
            assert_eq!(
                format!("{:#?}", report.as_ref().unwrap()),
                cold[i],
                "{label} diverged from its cold run"
            );
        }
    }

    #[test]
    fn zero_threads_uses_default_parallelism() {
        let trace = SynthSpec::trace2().scaled(0.002).generate();
        let runs = vec![NamedRun::new(
            "base",
            SimConfig::with_organization(Organization::Base),
            &trace,
        )];
        let out = run_all(&runs, 0);
        assert_eq!(out.len(), 1);
        assert!(out[0].1.as_ref().unwrap().requests_completed > 0);
    }

    /// Regression (panic mid-sweep): a point that panics *inside the
    /// simulation* — not a clean `try_new` error — must neither strand the
    /// points still queued behind it nor discard the points already
    /// finished. Pre-fix, the panic killed its worker and the join
    /// re-raised it, so the whole sweep was lost; at 1 thread literally
    /// every other result vanished.
    #[test]
    fn panicking_point_does_not_strand_or_double_claim_points() {
        let good = SynthSpec::trace2().scaled(0.005).generate();
        // A malformed trace: a record addressing a logical disk far outside
        // the configured database panics inside the event loop.
        let mut poison = SynthSpec::trace2().scaled(0.005).generate();
        poison.records[0].disk = poison.n_disks * 100;
        let cfg = || SimConfig::with_organization(Organization::Base);

        let runs = vec![
            NamedRun::new("ok-0", cfg(), &good),
            NamedRun::new("ok-1", cfg(), &good),
            NamedRun::new("poisoned", cfg(), &poison),
            NamedRun::new("ok-2", cfg(), &good),
            NamedRun::new("ok-3", cfg(), &good),
        ];
        // Quiet the default panic hook for the intentional panic, then
        // restore it so genuine failures still print.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let serial = Simulator::new(cfg(), &good).run().requests_completed;
        for threads in [1, 3, 16] {
            let out = run_all(&runs, threads);
            assert_eq!(out.len(), runs.len(), "lost points at {threads} threads");
            for (i, (label, result)) in out.iter().enumerate() {
                assert_eq!(label, &runs[i].label, "order broken at {threads} threads");
                if label == "poisoned" {
                    let err = result.as_ref().unwrap_err();
                    assert!(
                        err.contains("panicked"),
                        "poisoned point must report its panic, got: {err}"
                    );
                } else {
                    assert_eq!(
                        result.as_ref().unwrap().requests_completed,
                        serial,
                        "{label} diverged at {threads} threads"
                    );
                }
            }
        }
        std::panic::set_hook(hook);
    }

    /// One invalid grid point must not poison the sweep: the bad point
    /// carries its configuration error in its own slot and every valid
    /// point still completes, in input order. A replay speed that is not
    /// finite and > 0, or that moves the last arrival past 2^53 ns, is an
    /// error of its point in the same way.
    #[test]
    fn invalid_point_surfaces_error_without_poisoning_sweep() {
        let trace = SynthSpec::trace2().scaled(0.005).generate();
        let mk = |su| SimConfig::with_organization(Organization::Raid5 { striping_unit: su });
        let mut runs = vec![
            NamedRun::new("ok-a", mk(1), &trace),
            NamedRun::new("bad", mk(0), &trace),
            NamedRun::new("ok-b", mk(2), &trace).at_speed(2.0),
        ];
        let speeds = [0.0, -1.0, f64::NAN, f64::INFINITY, 1e-300];
        runs.extend(speeds.map(|s| NamedRun::new(format!("{s}x"), mk(1), &trace).at_speed(s)));
        let out = run_all(&runs, 3);
        assert_eq!(out.len(), 8);
        for (label, result) in &out[3..7] {
            let err = result.as_ref().unwrap_err();
            assert!(err.contains("not a finite number > 0"), "{label}: {err}");
        }
        assert!(out[7].1.as_ref().unwrap_err().contains("2^53 ns"));
        assert_eq!(out[0].0, "ok-a");
        assert!(out[0].1.is_ok());
        assert_eq!(out[1].0, "bad");
        let err = out[1].1.as_ref().unwrap_err();
        assert!(err.contains("striping"), "unexpected error: {err}");
        assert_eq!(out[2].0, "ok-b");
        assert!(out[2].1.as_ref().unwrap().requests_completed > 0);
    }
}
