//! Plain-text trace format, compatible with the paper's description of the
//! original trace entries.
//!
//! Each line is one *block-run* entry:
//!
//! ```text
//! <delta_ns> <disk> <block> <nblocks> <R|W>
//! ```
//!
//! `delta_ns` is the time since the previous entry in nanoseconds; as in
//! the paper's traces, "the time field is set to zero when both accesses are
//! part of the same multiblock request" — the parser coalesces a zero-delta
//! entry that continues the previous run (same disk, same type, contiguous
//! blocks) into one multiblock record, and the writer can emit either the
//! coalesced or the exploded form. Lines starting with `#` are comments.

use crate::record::{AccessType, Trace, TraceRecord};
use simkit::SimTime;
use std::fmt::Write as _;

/// Parse error with 1-based line number.
#[derive(Debug, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Serialize a trace. With `explode_multiblock`, each block of a multiblock
/// request becomes its own zero-delta line (the paper's original format);
/// otherwise one line per request.
pub fn write_trace(trace: &Trace, explode_multiblock: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# raidtp trace: disks={} blocks_per_disk={}",
        trace.n_disks, trace.blocks_per_disk
    );
    let mut prev = SimTime::ZERO;
    for r in &trace.records {
        let delta_ns = r.at.as_ns() - prev.as_ns();
        prev = r.at;
        let kind = if r.is_read() { 'R' } else { 'W' };
        if explode_multiblock && r.nblocks > 1 {
            let _ = writeln!(out, "{} {} {} 1 {}", delta_ns, r.disk, r.block, kind);
            for i in 1..r.nblocks as u64 {
                let _ = writeln!(out, "0 {} {} 1 {}", r.disk, r.block + i, kind);
            }
        } else {
            let _ = writeln!(
                out,
                "{} {} {} {} {}",
                delta_ns, r.disk, r.block, r.nblocks, kind
            );
        }
    }
    out
}

/// Parse a trace, coalescing zero-delta continuations of the same run.
pub fn parse_trace(input: &str) -> Result<Trace, ParseError> {
    let mut header: Option<(u32, u64)> = None;
    let mut records: Vec<TraceRecord> = Vec::new();
    let mut now = SimTime::ZERO;

    for (lineno, raw) in input.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if header.is_none() {
                header = parse_header(rest);
            }
            continue;
        }
        let mut it = line.split_whitespace();
        let mut field = |name: &str| {
            it.next().ok_or_else(|| ParseError {
                line: lineno,
                message: format!("missing field `{name}`"),
            })
        };
        let delta_ns: u64 = parse_num(field("delta_ns")?, lineno)?;
        let disk: u32 = parse_num(field("disk")?, lineno)?;
        let block: u64 = parse_num(field("block")?, lineno)?;
        let nblocks: u32 = parse_num(field("nblocks")?, lineno)?;
        let kind = match field("kind")? {
            "R" | "r" => AccessType::Read,
            "W" | "w" => AccessType::Write,
            other => {
                return Err(ParseError {
                    line: lineno,
                    message: format!("bad access type `{other}` (expected R or W)"),
                })
            }
        };
        if nblocks == 0 {
            return Err(ParseError {
                line: lineno,
                message: "nblocks must be ≥ 1".into(),
            });
        }
        if it.next().is_some() {
            return Err(ParseError {
                line: lineno,
                message: "trailing fields after access type".into(),
            });
        }
        let err = |message: String| ParseError {
            line: lineno,
            message,
        };
        // The run's end must be representable; without a header it also
        // becomes the inferred disk size.
        let Some(end) = block.checked_add(nblocks as u64) else {
            return Err(err(format!(
                "run [{block}, +{nblocks}) overflows the block address space"
            )));
        };
        // With a header, bounds-check each run where it appears so the
        // error names the offending line instead of failing in the final
        // whole-trace validation.
        if let Some((n_disks, bpd)) = header {
            if disk >= n_disks {
                return Err(err(format!(
                    "disk {disk} out of range (header declares {n_disks} disks)"
                )));
            }
            if end > bpd {
                return Err(err(format!(
                    "run [{block}, {end}) past the end of the disk ({bpd} blocks)"
                )));
            }
        } else if disk == u32::MAX {
            return Err(err(format!(
                "disk {disk} leaves no room for the inferred disk count"
            )));
        }
        let Some(at_ns) = now.as_ns().checked_add(delta_ns) else {
            return Err(err(format!(
                "arrival time overflows u64 ns (delta {delta_ns})"
            )));
        };
        now = SimTime::from_ns(at_ns);

        // Coalesce a zero-delta contiguous continuation.
        if delta_ns == 0 {
            if let Some(last) = records.last_mut() {
                if last.disk == disk
                    && last.kind == kind
                    && last.block.checked_add(last.nblocks as u64) == Some(block)
                {
                    last.nblocks = last.nblocks.checked_add(nblocks).ok_or_else(|| {
                        err(format!(
                            "coalesced run of {} + {nblocks} blocks overflows nblocks",
                            last.nblocks
                        ))
                    })?;
                    continue;
                }
            }
        }
        records.push(TraceRecord {
            at: now,
            disk,
            block,
            nblocks,
            kind,
        });
    }

    let (n_disks, blocks_per_disk) = header.unwrap_or_else(|| {
        // Infer bounds when no header is present.
        // Every record was checked above: `disk < u32::MAX` and its run end
        // fits in u64.
        let disks = records.iter().map(|r| r.disk + 1).max().unwrap_or(1);
        let blocks = records
            .iter()
            .map(|r| r.block + r.nblocks as u64)
            .max()
            .unwrap_or(1);
        (disks, blocks)
    });
    let trace = Trace {
        n_disks,
        blocks_per_disk,
        records,
    };
    trace
        .validate()
        .map_err(|message| ParseError { line: 0, message })?;
    Ok(trace)
}

fn parse_header(rest: &str) -> Option<(u32, u64)> {
    let mut disks = None;
    let mut blocks = None;
    for tok in rest.split_whitespace() {
        if let Some(v) = tok.strip_prefix("disks=") {
            disks = v.parse().ok();
        } else if let Some(v) = tok.strip_prefix("blocks_per_disk=") {
            blocks = v.parse().ok();
        }
    }
    Some((disks?, blocks?))
}

fn parse_num<T: std::str::FromStr>(s: &str, line: usize) -> Result<T, ParseError> {
    s.parse().map_err(|_| ParseError {
        line,
        message: format!("bad number `{s}`"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthSpec;

    #[test]
    fn round_trip_compact_form() {
        let t = SynthSpec::trace2().scaled(0.02).generate();
        let text = write_trace(&t, false);
        let back = parse_trace(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn round_trip_exploded_form() {
        let t = SynthSpec::trace2().scaled(0.02).generate();
        let text = write_trace(&t, true);
        let back = parse_trace(&text).unwrap();
        // Exploding then coalescing restores the exact multiblock structure.
        assert_eq!(t, back);
    }

    #[test]
    fn zero_delta_noncontiguous_stays_separate() {
        let text = "# disks=2 blocks_per_disk=100\n5 0 10 1 R\n0 1 20 1 R\n0 0 11 1 W\n";
        let t = parse_trace(text).unwrap();
        // Same time, different disk / different type: three records.
        assert_eq!(t.len(), 3);
        assert_eq!(t.records[0].at, t.records[1].at);
    }

    #[test]
    fn header_inferred_when_missing() {
        let t = parse_trace("5 3 99 1 R\n").unwrap();
        assert_eq!(t.n_disks, 4);
        assert_eq!(t.blocks_per_disk, 100);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_trace("1 0 0 1 R\nbogus line here x\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_trace("1 0 0 1 Q\n").unwrap_err();
        assert!(e.message.contains("bad access type"));
        let e = parse_trace("1 0 0 0 R\n").unwrap_err();
        assert!(e.message.contains("nblocks"));
        let e = parse_trace("1 0\n").unwrap_err();
        assert!(e.message.contains("missing field"));
    }

    #[test]
    fn rejects_out_of_range_runs_against_header() {
        let e = parse_trace("# disks=2 blocks_per_disk=100\n1 2 0 1 R\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("disk 2 out of range"), "{}", e.message);
        let e = parse_trace("# disks=2 blocks_per_disk=100\n1 0 99 2 W\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("past the end"), "{}", e.message);
        // Exactly filling the disk is fine.
        assert!(parse_trace("# disks=2 blocks_per_disk=100\n1 0 98 2 W\n").is_ok());
    }

    #[test]
    fn rejects_overlong_lines() {
        let e = parse_trace("1 0 0 1 R extra\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("trailing"), "{}", e.message);
    }

    #[test]
    fn malformed_input_never_panics() {
        for bad in [
            "99999999999999999999999999 0 0 1 R",
            "1 0 0 1",
            "R W R W R",
            "# disks=0 blocks_per_disk=0\n1 0 0 1 R",
            "-1 0 0 1 R",
            "1 0 0 -1 R",
            "\u{0} \u{0}",
        ] {
            let _ = parse_trace(bad);
        }
    }

    /// Fields whose sums overflow (coalesced run length, inferred disk
    /// count, run end, arrival time) are `ParseError`s naming the line,
    /// in debug and release builds alike.
    #[test]
    fn overflowing_fields_are_parse_errors() {
        for (bad, line, needle) in [
            (
                "1 0 0 4294967295 R\n0 0 4294967295 1 R\n",
                2,
                "overflows nblocks",
            ),
            (
                "1 4294967295 0 1 R\n",
                1,
                "no room for the inferred disk count",
            ),
            (
                "1 0 18446744073709551615 1 R\n",
                1,
                "overflows the block address space",
            ),
            (
                "18446744073709551615 0 0 1 R\n5 0 1 1 R\n",
                2,
                "arrival time overflows",
            ),
            (
                "1 0 18446744073709551615 1 R\n0 0 5 1 R\n",
                1,
                "overflows the block address space",
            ),
        ] {
            let e = parse_trace(bad).unwrap_err();
            assert_eq!(e.line, line, "{bad:?}: {e}");
            assert!(e.message.contains(needle), "{bad:?}: {e}");
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let t = parse_trace("# hello\n\n# disks=1 blocks_per_disk=10\n1 0 0 1 R\n").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.n_disks, 1);
    }
}
