//! In-memory span recorder.
//!
//! Every timed call into the simulator's crates opens a span: name, start,
//! end, parent span and workload. With recording off a span is only a
//! stopwatch, so the untraced run pays nothing beyond two clock reads.
//! The clock is the process's CPU time ([`cpu_s`]), not wall time: the
//! host is a shared VM whose hypervisor takes the CPU away for a share of
//! every second that changes from minute to minute, and that time belongs
//! to the host, not to the program.
//! With recording on, spans stay in memory until the run ends and are then
//! written as Chrome trace-event JSON (loadable in `chrome://tracing` or
//! Perfetto) and summarised as a per-layer table.

use std::fmt::Write as _;

/// CPU seconds this process has used, all threads together
/// (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`). The kernel leaves out the
/// time the hypervisor ran something else (steal time), which wall time
/// counts. The workloads run on one thread, so on an idle, unshared host
/// this clock and wall time advance together.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// One finished (or still open) timed call. Times are CPU seconds since
/// the recorder was created.
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span in [`Spans::all`].
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An open span; hand it back to [`Spans::close`].
#[must_use]
pub struct Open {
    start: f64,
    slot: Option<usize>,
}

pub struct Spans {
    epoch: f64,
    workload: &'static str,
    recording: bool,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(workload: &'static str) -> Spans {
        Spans {
            epoch: cpu_s(),
            workload,
            recording: false,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turn recording on or off for the spans opened from now on.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    pub fn open(&mut self, name: &str) -> Open {
        let start = cpu_s();
        let slot = self.recording.then(|| {
            let i = self.spans.len();
            self.spans.push(Span {
                name: name.to_string(),
                start_s: start - self.epoch,
                end_s: f64::NAN,
                parent: self.stack.last().copied(),
            });
            self.stack.push(i);
            i
        });
        Open { start, slot }
    }

    /// Close `open` and return its duration in seconds. Spans close in the
    /// reverse order they were opened.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = cpu_s();
        if let Some(i) = open.slot {
            let top = self.stack.pop();
            assert_eq!(top, Some(i), "spans must close innermost first");
            self.spans[i].end_s = end - self.epoch;
        }
        end - open.start
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.open(name);
        let out = f();
        (out, self.close(open))
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON of every recorded span ("X" complete events,
    /// microseconds). The span's index and its parent's index ride along in
    /// `args`, and the workload is the event category.
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                sp.name.replace('\\', "\\\\").replace('"', "\\\""),
                self.workload,
                sp.start_s * 1e6,
                sp.dur_s() * 1e6,
            );
        }
        s.push_str("\n]}\n");
        s
    }

    /// Per-layer table of the spans from index `from` on. Spans with the
    /// same name under the same parent path are one row: call count, total
    /// duration, self time (duration minus the part its child spans cover)
    /// and share of `base_s` (the run phase, `raidsim.run_s`).
    pub fn table(&self, from: usize, base_s: f64) -> String {
        let mut child_s = vec![0.0; self.spans.len()];
        for sp in &self.spans[from..] {
            if let Some(p) = sp.parent {
                child_s[p] += sp.dur_s();
            }
        }
        // (path, calls, total, self) in order of first appearance.
        let mut rows: Vec<(String, u64, f64, f64)> = Vec::new();
        let mut path_of: Vec<String> = Vec::with_capacity(self.spans.len());
        for (i, sp) in self.spans.iter().enumerate() {
            let parent_path = sp.parent.map_or("", |p| path_of[p].as_str());
            let path = format!("{parent_path}/{}", sp.name);
            if i >= from {
                match rows.iter_mut().find(|r| r.0 == path) {
                    Some(r) => {
                        r.1 += 1;
                        r.2 += sp.dur_s();
                        r.3 += sp.dur_s() - child_s[i];
                    }
                    None => rows.push((path.clone(), 1, sp.dur_s(), sp.dur_s() - child_s[i])),
                }
            }
            path_of.push(path);
        }
        let mut out = format!(
            "{:<44} {:>6} {:>11} {:>11} {:>9}\n",
            "span", "calls", "total ms", "self ms", "% of run"
        );
        for (path, calls, total, self_s) in rows {
            let depth = path.matches('/').count() - 1;
            let name = path.rsplit('/').next().unwrap_or_default();
            let label = format!("{}{name}", "  ".repeat(depth));
            let _ = writeln!(
                out,
                "{label:<44} {calls:>6} {:>11.3} {:>11.3} {:>8.1}%",
                total * 1e3,
                self_s * 1e3,
                100.0 * total / base_s,
            );
        }
        out
    }
}
