//! # simlint — determinism & invariant lints for the sim-core crates
//!
//! The paper's organization comparisons (Tables 3/4) are only meaningful
//! because the trace-driven simulation is exactly reproducible: the same
//! trace and seed must yield the same figures. rustc and clippy carry most
//! of that policy (`[workspace.lints]` and `clippy.toml`: no hash
//! collections, no ambient nondeterminism, no library panics, no threads
//! or synchronization outside the sweep pool, a private `FaultRng::new`,
//! private disk-scheduling disciplines). This tool checks the five
//! invariants they cannot express, over every `.rs` file in the sim-core
//! crates:
//!
//! 1. **`raw-time-cast`** — no `as`-casts on identifiers that name times
//!    or durations (`*_ns`, `*_ms`, `*_us`, `*time*`, `tick`, `now`,
//!    `deadline`) outside `simkit::time`: the `SimTime` newtype and its
//!    helpers are the only sanctioned unit boundary.
//! 2. **`fault-rng`** — no fault-stream minting (`latent_stream`, the
//!    `splitmix64` mixer) outside the fault-stream boundary: fault
//!    randomness is drawn as named substreams of a `FaultPlan`
//!    (`plan.stream(tag)`) built once at fault-state construction, so
//!    mid-run code (scrub, sparing, rebuild) can never re-mint a stream
//!    and replay its draws.
//! 3. **`scheduler-seam`** — `Organization::` variant dispatch appears only
//!    in `raidsim`'s config, report and mapping modules (and the fleet's
//!    configuration). Everything else goes through the `OrgPlanner` trait,
//!    so a new organization is one new impl — not a sweep for stray
//!    `match` arms.
//! 4. **`unit-safety`** — no `+`/`-` arithmetic that mixes a
//!    time-named identifier (the same words as rule 1) with a
//!    block/byte/count identifier outside `simkit::time`: adding a
//!    latency to a block count type-checks (both are `u64`) but is always
//!    a unit error.
//! 5. **`fleet-boundary`** — virtual arrays exchange state only through
//!    returned outcomes merged in VA index order, so the fleet layer
//!    (`raidsim/src/fleet/`, its runner included) must stay plain owned
//!    data: shared-ownership and interior-mutability types (`Rc`, `Arc`,
//!    `RefCell`, `Cell`, `UnsafeCell`) are flagged there.
//!
//! Every finding is an error and there is no escape hatch: a false
//! positive is fixed in the rule or in the code. The linted roots and the
//! unit vocabularies are constants in `workspace.rs`.
//!
//! `syn` is unavailable in this offline workspace, so the analysis runs on
//! a purpose-built lexer (`lexer`): comments, string/char literals, and
//! lifetimes are stripped exactly, `#[cfg(test)]`/`#[test]` items and test
//! files are skipped, and the rules match on the remaining token stream.

use std::fmt;
use std::path::{Path, PathBuf};

mod lexer;
mod sarif;
mod workspace;

pub use sarif::to_sarif;
pub use workspace::{analyze_workspace, ROOTS};
use workspace::{QUANTITY_UNITS, TIME_BOUNDARY, TIME_UNITS};

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// The five invariants rustc and clippy cannot express.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    RawTimeCast,
    FaultRng,
    SchedulerSeam,
    UnitSafety,
    FleetBoundary,
}

pub const RULES: [Rule; 5] = [
    Rule::RawTimeCast,
    Rule::FaultRng,
    Rule::SchedulerSeam,
    Rule::UnitSafety,
    Rule::FleetBoundary,
];

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::RawTimeCast => "raw-time-cast",
            Rule::FaultRng => "fault-rng",
            Rule::SchedulerSeam => "scheduler-seam",
            Rule::UnitSafety => "unit-safety",
            Rule::FleetBoundary => "fleet-boundary",
        }
    }

    pub fn hint(self) -> &'static str {
        match self {
            Rule::RawTimeCast => {
                "keep times in SimTime and cross units via simkit::time \
                 (from_ns/as_ns/ns_to_ms/busy_fraction) instead of raw `as` casts"
            }
            Rule::FaultRng => {
                "derive fault randomness as a named substream of the plan \
                 (`plan.stream(tag)`) minted once at fault-state construction; only \
                 the fault-stream boundary (simkit::fault, raidsim sim/mod.rs) may mint \
                 streams (latent_stream, splitmix64)"
            }
            Rule::SchedulerSeam => {
                "dispatch through the layer traits: match Organization:: only in raidsim's \
                 config, report, or mapping modules (planner construction goes through the \
                 label-keyed PLANNER_REGISTRY; add an OrgPlanner method instead)"
            }
            Rule::UnitSafety => {
                "adding or subtracting a time quantity and a block/byte/count quantity is a \
                 unit error even though both are plain integers; convert through the \
                 simkit::time helpers (or rename the identifier if its suffix lies)"
            }
            Rule::FleetBoundary => {
                "virtual arrays exchange state only through returned outcomes merged in \
                 VA index order; shared-ownership and interior-mutability types \
                 (Rc/Arc/RefCell/Cell/UnsafeCell) in the fleet layer \
                 would let cross-VA state bypass that merge and break the byte-identical \
                 serial/parallel guarantee"
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
pub struct Diagnostic {
    pub rule: Rule,
    pub file: String,
    /// 1-based.
    pub line: u32,
    /// 1-based.
    pub col: u32,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "error[{}]: {}:{}:{}",
            self.rule.name(),
            self.file,
            self.line,
            self.col
        )?;
        writeln!(f, "  |  {}", self.snippet)?;
        write!(f, "  = help: {}", self.rule.hint())
    }
}

// ---------------------------------------------------------------------------
// #[cfg(test)] / #[test] item skipping
// ---------------------------------------------------------------------------

use lexer::Token;

/// Token-index ranges covered by test-only items (`#[cfg(test)] mod … { }`,
/// `#[test] fn … { }`), which every rule exempts.
fn test_item_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            if let Some(attr_end) = matching(tokens, i + 1, '[', ']') {
                if attr_is_test(&tokens[i + 2..attr_end]) {
                    let end = skip_item(tokens, attr_end + 1);
                    ranges.push((i, end));
                    i = end;
                    continue;
                }
                i = attr_end + 1;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

/// Does the attribute body mark a test item? Matches `test`,
/// `cfg(test)`, and `cfg(any(test, …))`.
fn attr_is_test(body: &[Token]) -> bool {
    let first = body.first().and_then(|t| t.ident());
    let mentions_test = body.iter().any(|t| t.ident() == Some("test"));
    matches!(first, Some("test") | Some("cfg")) && mentions_test
}

/// Find the index of the punct closing the group opened at `open_idx`.
fn matching(tokens: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Starting just past a test attribute, consume any further attributes and
/// then one item (to its closing `}` or terminating `;`); returns the index
/// one past the item.
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    // Subsequent attributes (e.g. `#[cfg(test)] #[allow(…)] mod t { }`).
    while i < tokens.len()
        && tokens[i].is_punct('#')
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
    {
        match matching(tokens, i + 1, '[', ']') {
            Some(end) => i = end + 1,
            None => return tokens.len(),
        }
    }
    // The item header: ends at `;` (e.g. `mod tests;`) or at its body brace.
    let mut depth = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is_punct(';') {
            return i + 1;
        } else if depth == 0 && t.is_punct('{') {
            return matching(tokens, i, '{', '}').map_or(tokens.len(), |e| e + 1);
        }
        i += 1;
    }
    tokens.len()
}

// ---------------------------------------------------------------------------
// File classification
// ---------------------------------------------------------------------------

/// Is this a test source file (under a `tests/` directory, `tests.rs`, or
/// `*_test(s).rs`)? Every rule exempts test files.
fn is_test_file(path: &str) -> bool {
    let norm = path.replace('\\', "/");
    let file = norm.rsplit('/').next().unwrap_or(&norm);
    let stem = file.strip_suffix(".rs").unwrap_or(file);
    norm.split('/').rev().skip(1).any(|c| c == "tests")
        || file == "tests.rs"
        || stem.ends_with("_test")
        || stem.ends_with("_tests")
}

/// Is this file the sanctioned unit-conversion boundary (`simkit::time`)?
/// Both `raw-time-cast` and `unit-safety` exempt it.
fn is_time_boundary(path: &str) -> bool {
    path.replace('\\', "/").ends_with(TIME_BOUNDARY)
}

/// May this file *mint* fault-randomness streams (`latent_stream`, the
/// `splitmix64` mixer)? `simkit::fault` defines the machinery; `raidsim`'s
/// `sim/mod.rs` builds the per-disk streams once at fault-state
/// construction. The scrub / sparing / rebuild machinery (`sim/faults.rs`
/// and friends) must draw from streams minted there — re-minting mid-run
/// replays the same draws and breaks replay determinism.
fn is_fault_stream_boundary(path: &str) -> bool {
    let norm = path.replace('\\', "/");
    norm.ends_with("simkit/src/fault.rs") || norm.ends_with("raidsim/src/sim/mod.rs")
}

/// May this file dispatch on `Organization::` variants? The planner seam
/// confines organization knowledge to configuration, report labeling, and
/// the block-address maps. The planning layer itself is no longer exempt:
/// since planner construction moved behind the label-keyed constructor
/// registry, `sim/planning.rs` holds no dispatch match, and a regression
/// that reintroduces one is flagged like any other file.
fn is_org_boundary(path: &str) -> bool {
    let norm = path.replace('\\', "/");
    norm.ends_with("raidsim/src/config.rs")
        || norm.ends_with("raidsim/src/report.rs")
        || norm.contains("raidsim/src/mapping")
        // Fleet configuration constructs Organization values the same way
        // SimConfig does: the built-in fleets (config.rs) and the spec
        // parser (spec.rs) are configuration, not dispatch.
        || norm.ends_with("raidsim/src/fleet/config.rs")
        || norm.ends_with("raidsim/src/fleet/spec.rs")
}

/// Is this a fleet-layer file? The whole fleet layer — config, alloc, run,
/// report, spec — must stay plain owned data (the runner hands VAs to the
/// sweep's pool and owns no cross-VA machinery), so shared-ownership and
/// interior-mutability types are flagged there ([`Rule::FleetBoundary`]).
fn is_fleet_interior(path: &str) -> bool {
    path.replace('\\', "/").contains("raidsim/src/fleet/")
}

// ---------------------------------------------------------------------------
// Per-file rule matching
// ---------------------------------------------------------------------------

const NUMERIC_TYPES: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Is one lowercased `_`-separated identifier segment in the time
/// vocabulary? Both `raw-time-cast` and `unit-safety` ask this.
fn is_time_segment(seg: &str) -> bool {
    TIME_UNITS.contains(&seg) || seg.contains("time")
}

/// Does `ident` name a time or duration? Matched per `_`-separated segment
/// so that e.g. `instant` or `snow` never false-positive.
fn is_time_ident(ident: &str) -> bool {
    ident
        .split('_')
        .any(|seg| is_time_segment(&seg.to_ascii_lowercase()))
}

/// Unit class of an identifier for the `unit-safety` rule, decided by its
/// `_`-separated segments against the unit vocabularies.
/// Ambiguous names (segments from both classes) classify as neither.
#[derive(Clone, Copy, PartialEq, Eq)]
enum UnitClass {
    Time,
    Quantity,
}

fn unit_class(ident: &str) -> Option<UnitClass> {
    let mut time = false;
    let mut qty = false;
    for seg in ident.split('_') {
        let seg = seg.to_ascii_lowercase();
        if is_time_segment(&seg) {
            time = true;
        }
        if QUANTITY_UNITS.contains(&seg.as_str()) {
            qty = true;
        }
    }
    match (time, qty) {
        (true, false) => Some(UnitClass::Time),
        (false, true) => Some(UnitClass::Quantity),
        _ => None,
    }
}

/// Analyze one source file (given as a string, so unit tests can feed
/// inline fixtures) and return its diagnostics in (line, col, rule)
/// order. Test files and test items are exempt.
pub fn analyze_source(path: &str, src: &str) -> Vec<Diagnostic> {
    if is_test_file(path) {
        return Vec::new();
    }
    let toks = lexer::lex(src);
    let test_ranges = test_item_ranges(&toks);
    let mut raw: Vec<(Rule, u32, u32)> = Vec::new();

    for i in 0..toks.len() {
        if test_ranges.iter().any(|&(s, e)| i >= s && i < e) {
            continue;
        }
        let mut add = |rule: Rule, line: u32, col: u32| raw.push((rule, line, col));
        match toks[i].ident() {
            // Stream *minting* is construction: deriving a substream
            // (`plan.latent_stream(gdisk)`) or mixing a seed by hand
            // (`splitmix64`) is confined to the fault-stream boundary, so
            // the scrub/sparing/rebuild modules can only draw from streams
            // built once at fault-state construction.
            Some("latent_stream" | "splitmix64")
                if !is_fault_stream_boundary(path)
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) =>
            {
                add(Rule::FaultRng, toks[i].line, toks[i].col);
            }
            Some("Organization")
                if !is_org_boundary(path)
                    && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(':')) =>
            {
                add(Rule::SchedulerSeam, toks[i].line, toks[i].col);
            }
            Some("Rc" | "Arc" | "RefCell" | "Cell" | "UnsafeCell") if is_fleet_interior(path) => {
                add(Rule::FleetBoundary, toks[i].line, toks[i].col);
            }
            Some(id)
                if !is_time_boundary(path)
                    && is_time_ident(id)
                    && toks.get(i + 1).and_then(|t| t.ident()) == Some("as")
                    && toks
                        .get(i + 2)
                        .and_then(|t| t.ident())
                        .is_some_and(|t| NUMERIC_TYPES.contains(&t)) =>
            {
                add(Rule::RawTimeCast, toks[i].line, toks[i].col);
            }
            _ => {}
        }
        // unit-safety: `time ± quantity` (or `±=`) outside the unit boundary.
        if !is_time_boundary(path) {
            if let Some((line, col)) = unit_mix_at(&toks, i) {
                add(Rule::UnitSafety, line, col);
            }
        }
    }

    let lines: Vec<&str> = src.lines().collect();
    let mut diags: Vec<Diagnostic> = raw
        .into_iter()
        .map(|(rule, line, col)| Diagnostic {
            rule,
            file: path.to_string(),
            line,
            col,
            snippet: lines
                .get(line as usize - 1)
                .map_or(String::new(), |l| l.trim().to_string()),
        })
        .collect();
    diags.sort_by_key(|d| (d.line, d.col, d.rule));
    diags
}

/// Detect `X + Y` / `X - Y` / `X += Y` / `X -= Y` at token `i` (the left
/// operand) where one side names a time and the other a quantity. The right
/// operand may be a `a.b.c` field chain (classified by its final segment)
/// or a call (classified by the callee's name). A side followed by `*`/`/`
/// — or preceded by one, for the left — is skipped: the product's unit is
/// not the identifier's (`ms_per_block * blocks` is a legitimate mix).
fn unit_mix_at(toks: &[Token], i: usize) -> Option<(u32, u32)> {
    let x = toks[i].ident()?;
    let op = toks.get(i + 1)?;
    if !(op.is_punct('+') || op.is_punct('-')) {
        return None;
    }
    // `a -> b`, `a ++`-style sequences, and `a - -b` all bail here.
    let mut j = i + 2;
    if toks.get(j).is_some_and(|t| t.is_punct('=')) {
        j += 1;
    }
    // Left side must not be the tail of a product/quotient.
    if i > 0 && (toks[i - 1].is_punct('*') || toks[i - 1].is_punct('/')) {
        return None;
    }
    // Right side: walk a field chain `self.a.b`, ending on its last ident.
    toks.get(j)?.ident()?;
    while toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
        && toks.get(j + 2).is_some_and(|t| t.ident().is_some())
    {
        j += 2;
    }
    let y = toks[j].ident()?;
    // What follows the right operand? Step over a call's argument list
    // first so `t_ms + f(a * b)` inspects the token after `)`.
    let mut after = j + 1;
    if toks.get(after).is_some_and(|t| t.is_punct('(')) {
        after = matching(toks, after, '(', ')')? + 1;
    }
    if toks
        .get(after)
        .is_some_and(|t| t.is_punct('*') || t.is_punct('/'))
    {
        return None;
    }
    let (xu, yu) = (unit_class(x)?, unit_class(y)?);
    if xu != yu {
        Some((toks[i].line, toks[i].col))
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Directory walking
// ---------------------------------------------------------------------------

/// Collect every `.rs` file under `root`, sorted for deterministic output.
fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Process exit code for a finished run: nonzero iff anything was found.
pub fn exit_code(diags: &[Diagnostic]) -> i32 {
    i32::from(!diags.is_empty())
}

// ---------------------------------------------------------------------------
// Fixture tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Diagnostic> {
        analyze_source("crates/simkit/src/lib.rs", src)
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn flags_raw_time_casts_but_not_elsewhere_idents() {
        let d = lint(
            "fn f(busy_ns: u64, n: u64) -> f64 {\n    let a = busy_ns as f64;\n    \
             let b = n as f64;\n    let snow = n; let c = snow as f64;\n    a + b + c\n}\n",
        );
        assert_eq!(rules_of(&d), vec![Rule::RawTimeCast]);
        assert_eq!((d[0].line, d[0].col), (2, 13));
        assert_eq!(d[0].snippet, "let a = busy_ns as f64;");
        assert_eq!(exit_code(&d), 1);
    }

    #[test]
    fn time_boundary_file_is_exempt_from_casts() {
        let d = analyze_source(
            "crates/simkit/src/time.rs",
            "pub fn ns_to_ms(ns: u64) -> f64 { ns as f64 / 1e6 }\nfn g(t_ns: u64) { t_ns as f64; }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn flags_stream_minting_outside_the_fault_stream_boundary() {
        // Scrub/sparing/rebuild code must not re-mint a latent stream
        // mid-run — it would replay the construction-time draws.
        let src = "fn f(p: &FaultPlan) { let _r = p.latent_stream(3); }\n";
        let d = analyze_source("crates/raidsim/src/sim/faults.rs", src);
        assert_eq!(rules_of(&d), vec![Rule::FaultRng]);
        // Nor mix seeds by hand instead of going through the plan.
        let d = analyze_source(
            "crates/raidsim/src/sim/faults.rs",
            "fn f(s: u64) -> u64 { splitmix64(s ^ 3) }\n",
        );
        assert_eq!(rules_of(&d), vec![Rule::FaultRng]);
        // The boundary files build the streams once, legitimately.
        for path in [
            "crates/simkit/src/fault.rs",
            "crates/raidsim/src/sim/mod.rs",
        ] {
            let d = analyze_source(path, src);
            assert!(d.is_empty(), "{path}: {d:?}");
        }
        // Mentioning the name without a call (docs, a field) is fine, and
        // deriving a named substream from the plan is the sanctioned way.
        let d = lint("fn f() { let latent_stream = 3; let _ = latent_stream; }\n");
        assert!(d.is_empty(), "{d:?}");
        let d = lint("fn f(p: &FaultPlan) { let _r = p.stream(3); }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn flags_organization_dispatch_outside_planner_modules() {
        let src = "fn f(o: Organization) -> bool { matches!(o, Organization::Base) }\n";
        let d = analyze_source("crates/raidsim/src/sim/mod.rs", src);
        assert_eq!(rules_of(&d), vec![Rule::SchedulerSeam]);
        // The sanctioned homes of organization knowledge are exempt.
        for path in [
            "crates/raidsim/src/config.rs",
            "crates/raidsim/src/report.rs",
            "crates/raidsim/src/mapping/mod.rs",
            "crates/raidsim/src/mapping/degraded.rs",
        ] {
            assert!(
                analyze_source(path, src).is_empty(),
                "{path} should be allowed to dispatch on Organization::"
            );
        }
        // The planning layer lost its exemption when construction moved
        // behind the label-keyed registry: a reintroduced match is flagged.
        let d = analyze_source("crates/raidsim/src/sim/planning.rs", src);
        assert_eq!(rules_of(&d), vec![Rule::SchedulerSeam]);
        // Naming the type (not a variant) is fine anywhere.
        let d = analyze_source(
            "crates/raidsim/src/sim/mod.rs",
            "use crate::config::Organization;\nfn g(_o: Organization) {}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let d = lint(
            "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g(t_ns: u64) -> f64 { t_ns as f64 }\n    \
             #[test]\n    fn t() { let (t_ms, blocks) = (1, 2); let _ = t_ms + blocks; }\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
        // …including `#[test] fn` outside a module and `mod tests;` forms,
        // and whole test files.
        let src =
            "#[test]\nfn t() { let t_ns = 1u64; let _ = t_ns as f64; }\n#[cfg(test)]\nmod tests;\n";
        assert!(lint(src).is_empty());
        let file = "fn helper(t_ns: u64) -> f64 { t_ns as f64 }\n";
        for path in ["crates/raidsim/src/sim/tests.rs", "tests/end_to_end.rs"] {
            assert!(analyze_source(path, file).is_empty());
        }
    }

    #[test]
    fn code_after_test_module_is_still_checked() {
        let d = lint(
            "#[cfg(test)]\nmod tests { fn t(t_ns: u64) -> f64 { t_ns as f64 } }\n\
             pub fn f(busy_ns: u64) -> f64 { busy_ns as f64 }\n",
        );
        assert_eq!(rules_of(&d), vec![Rule::RawTimeCast]);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn strings_comments_and_lifetimes_never_fire() {
        let d = lint(
            "/* busy_ns as f64 in /* nested */ comments */\n\
             pub fn f<'a>(s: &'a str) -> String {\n    \
             let c = 'h'; let esc = '\\'';\n    \
             let x = \"busy_ns as f64 Organization::Base\";\n    \
             let y = r#\"t_ms + blocks \"quoted\" splitmix64(1)\"#;\n    \
             format!(\"{x}{y}{c}{esc}\")\n}\n// Organization::Base mentioned in prose is fine\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn diagnostic_display_has_file_line_col_and_hint() {
        let d = lint("fn f(t_ns: u64) -> f64 { t_ns as f64 }\n");
        let text = d[0].to_string();
        assert!(text.contains("error[raw-time-cast]"), "{text}");
        assert!(text.contains("crates/simkit/src/lib.rs:1:26"), "{text}");
        assert!(text.contains("help:"), "{text}");
    }

    // --- unit-safety ------------------------------------------------------

    #[test]
    fn unit_safety_flags_time_quantity_mixes() {
        let d = lint("fn f(seek_ms: f64, nblocks: f64) -> f64 { seek_ms + nblocks }\n");
        assert_eq!(rules_of(&d), vec![Rule::UnitSafety]);
        // Both directions, and the compound-assignment forms.
        let d = lint("fn f(mut total_blocks: u64, xfer_ns: u64) { total_blocks += xfer_ns; }\n");
        assert_eq!(rules_of(&d), vec![Rule::UnitSafety]);
        let d = lint("fn f(t_ns: u64, len: u64) -> u64 { t_ns - len }\n");
        assert_eq!(rules_of(&d), vec![Rule::UnitSafety]);
        // Field chains classify by their final segment.
        let d = lint("fn f(s: &S) -> u64 { s.op.start_ns + s.req.nblocks }\n");
        assert_eq!(rules_of(&d), vec![Rule::UnitSafety]);
    }

    #[test]
    fn unit_safety_allows_homogeneous_and_scaled_arithmetic() {
        // Same-unit arithmetic is fine.
        let d = lint("fn f(seek_ms: f64, xfer_ms: f64) -> f64 { seek_ms + xfer_ms }\n");
        assert!(d.is_empty(), "{d:?}");
        let d = lint("fn f(a_blocks: u64, b_blocks: u64) -> u64 { a_blocks + b_blocks }\n");
        assert!(d.is_empty(), "{d:?}");
        // Multiplication/division legitimately crosses units…
        let d = lint("fn f(ms_per_block: f64, blocks: f64) -> f64 { ms_per_block * blocks }\n");
        assert!(d.is_empty(), "{d:?}");
        // …including as an operand of +: the product's unit is time again.
        let d = lint(
            "fn f(seek_ms: f64, blocks: f64, per_ms: f64) -> f64 { seek_ms + blocks * per_ms }\n",
        );
        assert!(d.is_empty(), "{d:?}");
        let d = lint(
            "fn f(seek_ms: f64, blocks: f64, per_ms: f64) -> f64 { blocks * per_ms + seek_ms }\n",
        );
        assert!(d.is_empty(), "{d:?}");
        // Unknown identifiers never classify.
        let d = lint("fn f(a: u64, dur_ms: u64) -> u64 { dur_ms + a }\n");
        assert!(d.is_empty(), "{d:?}");
        // The unit boundary module is exempt.
        let d = analyze_source(
            "crates/simkit/src/time.rs",
            "pub fn at(t_ms: f64, blocks: f64) -> f64 { t_ms + blocks }\n",
        );
        assert!(d.is_empty(), "{d:?}");
        // Ambiguous names (both vocabularies) classify as neither.
        let d = lint("fn f(block_time_ms: u64, blocks: u64) -> u64 { block_time_ms + blocks }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    // --- lexer hardening --------------------------------------------------

    #[test]
    fn raw_strings_with_hashes_and_comment_markers_lex_exactly() {
        // `//` and `*/` inside raw strings are content, not comments; the
        // code after them is still live and its violation is still seen.
        let d = lint(
            "pub fn f(busy_ns: u64) -> f64 {\n    \
             let _p = r##\"// not a comment \"# still open\" t_ns as f64\"##;\n    \
             let _q = r#\"/* also not */\"#;\n    busy_ns as f64\n}\n",
        );
        assert_eq!(rules_of(&d), vec![Rule::RawTimeCast]);
        assert_eq!(d[0].line, 4);
    }
}
