//! # simlint — determinism & invariant lints for the sim-core crates
//!
//! The paper's organization comparisons (Tables 3/4) are only meaningful
//! because the trace-driven simulation is exactly reproducible: the same
//! trace and seed must yield the same figures. The Rust compiler cannot
//! enforce that, so this tool does. It walks every `.rs` file in the
//! sim-core crates and checks ten domain invariants (plus two
//! meta-rules about the escape hatch itself):
//!
//! 1. **`hash-collection`** — no `std::collections::HashMap`/`HashSet`:
//!    their iteration order is randomized per process, so any result that
//!    ever iterates one stops being replayable.
//! 2. **`ambient-nondet`** — no `Instant::now`, `SystemTime::now`,
//!    `thread_rng`, `rand::random`, or environment-variable reads: all
//!    randomness must flow from the seeded RNG in the simulation config.
//! 3. **`raw-time-cast`** — no `as`-casts on identifiers that name times
//!    or durations (`*_ns`, `*_ms`, `*_us`, `*time*`, `tick`, `now`,
//!    `deadline`) outside `simkit::time`: the `SimTime` newtype and its
//!    helpers are the only sanctioned unit boundary.
//! 4. **`panic-policy`** — no `.unwrap()`/`.expect(` in library (non-bin,
//!    non-test, non-bench) code: parsers and fallible paths return
//!    `Result`; genuine invariants document themselves via the escape
//!    hatch below.
//! 5. **`fault-rng`** — no `FaultRng::new` outside `simkit::fault`, and no
//!    stream minting (`latent_stream`, the `splitmix64` mixer) outside the
//!    fault-stream boundary: fault randomness must be drawn as named
//!    substreams of a `FaultPlan` (`plan.stream(tag)`) built once at
//!    fault-state construction, so two consumers can never share — or
//!    reorder draws from — one generator, and mid-run code (scrub,
//!    sparing, rebuild) can never re-mint a stream and replay its draws.
//! 6. **`scheduler-seam`** — the layered-core seams stay sealed:
//!    `DiskScheduler` implementations live only in `diskmodel`, and
//!    `Organization::` variant dispatch appears only in `raidsim`'s
//!    config, report, mapping, and `sim/planning` modules. Everything
//!    else must go through the `OrgPlanner`/`DiskScheduler` traits, so a
//!    new organization or discipline is one new impl — not a sweep for
//!    stray `match` arms.
//! 7. **`par-safety`** — no shared mutable state between simulations:
//!    synchronization primitives (`Mutex`, `RwLock`, `Condvar`, atomics,
//!    `mpsc` channels, `static mut`, `unsafe impl`, `thread::spawn`/
//!    `thread::scope`) appear only in the one work-stealing pool
//!    (`raidsim/src/sweep.rs`), which sweeps and fleets share. A single
//!    simulation is serial, and parallel simulations hand back owned
//!    results in index order — anything else would let scheduling races
//!    reach the statistics and break byte-identical replay.
//! 8. **`unit-safety`** — no `+`/`-` arithmetic that mixes a
//!    time-suffixed identifier (`*_ns`, `*_us`, `*_ms`, `*time*`) with a
//!    block/byte/count identifier outside `simkit::time`: adding a
//!    latency to a block count type-checks (both are `u64`) but is always
//!    a unit error.
//! 9. **`layer-boundary`** *(workspace pass)* — calls between the PR 5
//!    layer modules must follow the declared admission → planning →
//!    dispatch → faults → reporting flow; a backward call is layer
//!    erosion and is flagged at the call site (real feedback edges are
//!    waived, with reasons, in the committed baseline).
//! 10. **`fleet-boundary`** — virtual arrays exchange state only through
//!     returned outcomes merged in VA index order, so the fleet layer
//!     (`raidsim/src/fleet/`, its runner included) must stay plain owned
//!     data: shared-ownership and interior-mutability types (`Rc`, `Arc`,
//!     `RefCell`, `Cell`, `UnsafeCell`) are flagged there.
//!
//! A site can opt out with a justified annotation on the same line or the
//! line directly above:
//!
//! ```text
//! // simlint::allow(panic-policy): index validity is the slab's invariant
//! ```
//!
//! An annotation without a reason is itself a diagnostic
//! (`malformed-allow`), and an annotation that suppresses nothing is
//! reported as `unused-allow` so stale escapes cannot accumulate. For
//! whole findings that are accepted architecture (e.g. the
//! reporting → admission wakeup), the committed `simlint.baseline.toml`
//! waives a (rule, file, snippet) triple with a reason; see the
//! [`baseline`] module.
//!
//! `syn` is unavailable in this offline workspace, so the analysis runs on
//! a purpose-built lexer ([`lexer`]): comments, string/char literals, and
//! lifetimes are stripped exactly, `#[cfg(test)]`/`#[test]` items are
//! skipped, and the rules match on the remaining token stream. The
//! workspace rules add a lightweight function/call graph ([`graph`]) over
//! the same tokens. That is deliberately simpler than type resolution —
//! and catches exactly the textual forms that have bitten simulator
//! reproducibility in practice.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod baseline;
mod graph;
mod lexer;
mod rules;
mod sarif;
mod toml;
mod workspace;

pub use sarif::to_sarif;
pub use workspace::{analyze_workspace, WsConfig};

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// The ten determinism/architecture invariants, plus the two meta-rules
/// about the escape-hatch annotations themselves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    HashCollection,
    AmbientNondet,
    RawTimeCast,
    PanicPolicy,
    FaultRng,
    SchedulerSeam,
    ParSafety,
    UnitSafety,
    LayerBoundary,
    FleetBoundary,
    MalformedAllow,
    UnusedAllow,
}

pub const RULES: [Rule; 12] = [
    Rule::HashCollection,
    Rule::AmbientNondet,
    Rule::RawTimeCast,
    Rule::PanicPolicy,
    Rule::FaultRng,
    Rule::SchedulerSeam,
    Rule::ParSafety,
    Rule::UnitSafety,
    Rule::LayerBoundary,
    Rule::FleetBoundary,
    Rule::MalformedAllow,
    Rule::UnusedAllow,
];

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashCollection => "hash-collection",
            Rule::AmbientNondet => "ambient-nondet",
            Rule::RawTimeCast => "raw-time-cast",
            Rule::PanicPolicy => "panic-policy",
            Rule::FaultRng => "fault-rng",
            Rule::SchedulerSeam => "scheduler-seam",
            Rule::ParSafety => "par-safety",
            Rule::UnitSafety => "unit-safety",
            Rule::LayerBoundary => "layer-boundary",
            Rule::FleetBoundary => "fleet-boundary",
            Rule::MalformedAllow => "malformed-allow",
            Rule::UnusedAllow => "unused-allow",
        }
    }

    pub fn from_name(s: &str) -> Option<Rule> {
        RULES.iter().copied().find(|r| r.name() == s)
    }

    pub fn hint(self) -> &'static str {
        match self {
            Rule::HashCollection => {
                "iteration order is nondeterministic; use BTreeMap/BTreeSet, or annotate \
                 `// simlint::allow(hash-collection): <reason>` if the map is never iterated"
            }
            Rule::AmbientNondet => {
                "sim-core must be a pure function of (trace, config); route randomness through \
                 the seeded RNG in the config and take timestamps from simulated time"
            }
            Rule::RawTimeCast => {
                "keep times in SimTime and cross units via simkit::time \
                 (from_ns/as_ns/ns_to_ms/busy_fraction) instead of raw `as` casts"
            }
            Rule::PanicPolicy => {
                "library code returns Result; if this is a real invariant, document it with \
                 `// simlint::allow(panic-policy): <reason>`"
            }
            Rule::FaultRng => {
                "derive fault randomness as a named substream of the plan \
                 (`plan.stream(tag)`) minted once at fault-state construction; only \
                 simkit::fault may construct FaultRng directly, and only the \
                 fault-stream boundary (simkit::fault, raidsim sim/mod.rs) may mint \
                 streams (latent_stream, splitmix64)"
            }
            Rule::SchedulerSeam => {
                "dispatch through the layer traits: implement DiskScheduler in \
                 crates/diskmodel, and match Organization:: only in raidsim's config, \
                 report, or mapping modules (planner construction goes through the \
                 label-keyed PLANNER_REGISTRY; add an OrgPlanner method instead)"
            }
            Rule::ParSafety => {
                "simulations must not share mutable state: synchronization primitives \
                 (Mutex/RwLock/Condvar, atomics, mpsc, static mut, unsafe impl, \
                 thread::spawn/scope) live only in raidsim's sweep.rs work-stealing pool; \
                 run parallel work as jobs of that pool, which returns owned results in \
                 index order"
            }
            Rule::UnitSafety => {
                "adding or subtracting a time quantity and a block/byte/count quantity is a \
                 unit error even though both are plain integers; convert through the \
                 simkit::time helpers (or rename the identifier if its suffix lies)"
            }
            Rule::LayerBoundary => {
                "this call goes against the declared layer flow (admission → planning → \
                 dispatch → faults → reporting in simlint.toml [layer-boundary]); route it \
                 through the downstream layer's interface, or waive the accepted feedback \
                 edge in simlint.baseline.toml with a reason"
            }
            Rule::FleetBoundary => {
                "virtual arrays exchange state only through returned outcomes merged in \
                 VA index order; shared-ownership and interior-mutability types \
                 (Rc/Arc/RefCell/Cell/UnsafeCell) in the fleet layer \
                 would let cross-VA state bypass that merge and break the byte-identical \
                 serial/parallel guarantee"
            }
            Rule::MalformedAllow => {
                "write `// simlint::allow(<rule>): <reason>` — the rule must exist and the \
                 reason must be non-empty"
            }
            Rule::UnusedAllow => "this annotation suppresses nothing; remove it",
        }
    }

    /// Default enforcement level before CLI overrides.
    pub fn default_level(self) -> Level {
        match self {
            Rule::UnusedAllow => Level::Warn,
            _ => Level::Deny,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Allow,
    Warn,
    Deny,
}

impl Level {
    pub fn name(self) -> &'static str {
        match self {
            Level::Allow => "allow",
            Level::Warn => "warn",
            Level::Deny => "deny",
        }
    }
}

/// Per-run configuration: enforcement level per rule.
#[derive(Clone, Debug)]
pub struct Config {
    levels: BTreeMap<Rule, Level>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            levels: RULES.iter().map(|&r| (r, r.default_level())).collect(),
        }
    }
}

impl Config {
    pub fn level(&self, rule: Rule) -> Level {
        self.levels[&rule]
    }

    pub fn set_level(&mut self, rule: Rule, level: Level) {
        self.levels.insert(rule, level);
    }

    pub fn set_all(&mut self, level: Level) {
        for r in RULES {
            self.levels.insert(r, level);
        }
    }
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
pub struct Diagnostic {
    pub rule: Rule,
    pub level: Level,
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
            "{}[{}]: {}:{}:{}",
            self.level.name(),
            self.rule.name(),
            self.file,
            self.line,
            self.col
        )?;
        writeln!(f, "  |  {}", self.snippet)?;
        write!(f, "  = help: {}", self.rule.hint())
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render diagnostics as a JSON array (machine-readable `--format json`).
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"rule\":\"{}\",\"level\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\
             \"snippet\":\"{}\",\"hint\":\"{}\"}}",
            d.rule.name(),
            d.level.name(),
            json_escape(&d.file),
            d.line,
            d.col,
            json_escape(&d.snippet),
            json_escape(d.rule.hint())
        ));
    }
    out.push_str("\n]");
    out
}

// ---------------------------------------------------------------------------
// #[cfg(test)] / #[test] item skipping
// ---------------------------------------------------------------------------

use lexer::Token;

/// Token-index ranges covered by test-only items (`#[cfg(test)] mod … { }`,
/// `#[test] fn … { }`), which every rule exempts.
pub(crate) fn test_item_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
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
pub(crate) fn matching(
    tokens: &[Token],
    open_idx: usize,
    open: char,
    close: char,
) -> Option<usize> {
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

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FileClass {
    /// Library source: every rule applies.
    Library,
    /// Binary / bench / example / build script: panic-policy exempt.
    Executable,
    /// Test source: all rules exempt.
    Test,
}

pub(crate) fn classify(path: &str) -> FileClass {
    let norm = path.replace('\\', "/");
    let file = norm.rsplit('/').next().unwrap_or(&norm);
    let stem = file.strip_suffix(".rs").unwrap_or(file);
    let in_dir = |name: &str| norm.split('/').rev().skip(1).any(|c| c == name);
    if in_dir("tests") || file == "tests.rs" || stem.ends_with("_test") || stem.ends_with("_tests")
    {
        return FileClass::Test;
    }
    if in_dir("bin")
        || in_dir("benches")
        || in_dir("examples")
        || file == "main.rs"
        || file == "build.rs"
    {
        return FileClass::Executable;
    }
    FileClass::Library
}

/// Is this file the sanctioned unit-conversion boundary (`simkit::time`)?
fn is_time_boundary(path: &str) -> bool {
    path.replace('\\', "/").ends_with("simkit/src/time.rs")
}

/// Is this file the sanctioned fault-RNG constructor site (`simkit::fault`)?
fn is_fault_boundary(path: &str) -> bool {
    path.replace('\\', "/").ends_with("simkit/src/fault.rs")
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

/// Is this file inside `diskmodel`, the only crate that may implement
/// [`DiskScheduler`]?
fn is_scheduler_boundary(path: &str) -> bool {
    path.replace('\\', "/").contains("diskmodel/src")
}

/// May this file own cross-thread shared state? The sweep's work-stealing
/// pool, which sweeps and fleets share, is the only sanctioned home of
/// synchronization primitives in sim-core.
fn is_par_boundary(path: &str) -> bool {
    path.replace('\\', "/").ends_with("raidsim/src/sweep.rs")
}

/// Is this a fleet-layer file? The whole fleet layer — config, alloc, run,
/// report, spec — must stay plain owned data (the runner hands VAs to the
/// sweep's pool and owns no cross-VA machinery), so shared-ownership and
/// interior-mutability types are flagged there ([`Rule::FleetBoundary`]).
fn is_fleet_interior(path: &str) -> bool {
    path.replace('\\', "/").contains("raidsim/src/fleet/")
}

// ---------------------------------------------------------------------------
// Lint profiles & per-file analysis units
// ---------------------------------------------------------------------------

/// Which rule set a file is held to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Sim-core sources: every rule.
    Strict,
    /// `tests/` and `crates/bench`: driver code may use wall clocks and
    /// unwraps freely, but files that *pin determinism hashes* (detected
    /// by the `[relaxed] hash_pin_markers` identifiers, e.g. `fnv1a`)
    /// still must not let hash-collection nondeterminism or non-test
    /// panics near the pinned values.
    Relaxed,
}

/// One lexed source file plus everything the passes need to know about it.
pub(crate) struct FileUnit {
    pub(crate) display: String,
    pub(crate) src: String,
    pub(crate) lexed: lexer::Lexed,
    pub(crate) class: FileClass,
    pub(crate) profile: Profile,
    pub(crate) test_ranges: Vec<(usize, usize)>,
}

impl FileUnit {
    pub(crate) fn new(display: String, src: String, profile: Profile) -> FileUnit {
        let lexed = lexer::lex(&src);
        let class = classify(&display);
        let test_ranges = test_item_ranges(&lexed.tokens);
        FileUnit {
            display,
            src,
            lexed,
            class,
            profile,
            test_ranges,
        }
    }

    pub(crate) fn in_test(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| idx >= s && idx < e)
    }

    /// Does the file pin determinism hashes (relaxed-profile marker)?
    fn has_marker(&self, markers: &[String]) -> bool {
        self.lexed.tokens.iter().any(|t| {
            t.ident()
                .is_some_and(|id| markers.iter().any(|m| id.contains(m.as_str())))
        })
    }
}

/// Under this file's profile, does `rule` apply at all? (Orthogonal to the
/// per-rule [`Config`] levels, which the CLI controls.)
fn rule_in_profile(rule: Rule, profile: Profile) -> bool {
    match profile {
        Profile::Strict => true,
        Profile::Relaxed => matches!(rule, Rule::HashCollection | Rule::PanicPolicy),
    }
}

// ---------------------------------------------------------------------------
// Per-file rule matching
// ---------------------------------------------------------------------------

const NUMERIC_TYPES: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Does `ident` name a time or duration? Matched per `_`-separated segment
/// so that e.g. `instant` or `snow` never false-positive.
fn is_time_ident(ident: &str) -> bool {
    ident.split('_').any(|seg| {
        let seg = seg.to_ascii_lowercase();
        matches!(
            seg.as_str(),
            "ns" | "ms" | "us" | "now" | "tick" | "ticks" | "deadline"
        ) || seg.contains("time")
    })
}

fn env_read(name: &str) -> bool {
    matches!(name, "var" | "var_os" | "vars" | "vars_os")
}

/// Unit class of an identifier for the `unit-safety` rule, decided by its
/// `_`-separated segments against the configured unit vocabularies.
/// Ambiguous names (segments from both classes) classify as neither.
#[derive(Clone, Copy, PartialEq, Eq)]
enum UnitClass {
    Time,
    Quantity,
}

fn unit_class(ident: &str, ws: &WsConfig) -> Option<UnitClass> {
    let mut time = false;
    let mut qty = false;
    for seg in ident.split('_') {
        let seg = seg.to_ascii_lowercase();
        if ws.units.time_units.contains(&seg) || seg.contains("time") {
            time = true;
        }
        if ws.units.quantity_units.contains(&seg) {
            qty = true;
        }
    }
    match (time, qty) {
        (true, false) => Some(UnitClass::Time),
        (false, true) => Some(UnitClass::Quantity),
        _ => None,
    }
}

/// A rule match before directive suppression: (rule, line, col).
pub(crate) type RawMatch = (Rule, u32, u32);

/// Run every per-file rule over one unit. Under the relaxed profile only
/// hash-collection and panic-policy apply, and only in files that pin
/// determinism hashes; hash-collection stays live even inside `#[test]`
/// items there (a nondeterministic collection feeding a pinned hash is the
/// exact bug the profile exists to catch), while panic-policy keeps the
/// usual test-item exemption.
pub(crate) fn per_file_matches(unit: &FileUnit, ws: &WsConfig) -> Vec<RawMatch> {
    let relaxed = unit.profile == Profile::Relaxed;
    let class = if relaxed {
        if unit.has_marker(&ws.hash_pin_markers) {
            FileClass::Library
        } else {
            return Vec::new();
        }
    } else {
        unit.class
    };
    if class == FileClass::Test {
        return Vec::new();
    }

    let path = unit.display.as_str();
    let toks = &unit.lexed.tokens;
    let mut raw: Vec<RawMatch> = Vec::new();

    for i in 0..toks.len() {
        let in_test = unit.in_test(i);
        if in_test && !relaxed {
            continue;
        }
        let mut add = |rule: Rule, line: u32, col: u32| {
            if relaxed && !rule_in_profile(rule, Profile::Relaxed) {
                return;
            }
            if relaxed && in_test && rule != Rule::HashCollection {
                return;
            }
            raw.push((rule, line, col));
        };
        let path_sep = |j: usize| {
            toks.get(j).is_some_and(|t| t.is_punct(':'))
                && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
        };
        match toks[i].ident() {
            Some("HashMap" | "HashSet") => {
                add(Rule::HashCollection, toks[i].line, toks[i].col);
            }
            Some("thread_rng") => {
                add(Rule::AmbientNondet, toks[i].line, toks[i].col);
            }
            Some("Instant" | "SystemTime")
                if path_sep(i + 1) && toks.get(i + 3).and_then(|t| t.ident()) == Some("now") =>
            {
                add(Rule::AmbientNondet, toks[i].line, toks[i].col);
            }
            Some("rand")
                if path_sep(i + 1) && toks.get(i + 3).and_then(|t| t.ident()) == Some("random") =>
            {
                add(Rule::AmbientNondet, toks[i].line, toks[i].col);
            }
            Some("env")
                if path_sep(i + 1)
                    && toks
                        .get(i + 3)
                        .and_then(|t| t.ident())
                        .is_some_and(env_read) =>
            {
                add(Rule::AmbientNondet, toks[i].line, toks[i].col);
            }
            Some("FaultRng")
                if !is_fault_boundary(path)
                    && path_sep(i + 1)
                    && toks.get(i + 3).and_then(|t| t.ident()) == Some("new") =>
            {
                add(Rule::FaultRng, toks[i].line, toks[i].col);
            }
            // Stream *minting* is construction too: deriving a substream
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
            Some("Organization") if !is_org_boundary(path) && path_sep(i + 1) => {
                add(Rule::SchedulerSeam, toks[i].line, toks[i].col);
            }
            Some("Mutex" | "RwLock" | "Condvar" | "mpsc") if !is_par_boundary(path) => {
                add(Rule::ParSafety, toks[i].line, toks[i].col);
            }
            Some("Rc" | "Arc" | "RefCell" | "Cell" | "UnsafeCell") if is_fleet_interior(path) => {
                add(Rule::FleetBoundary, toks[i].line, toks[i].col);
            }
            Some(id) if !is_par_boundary(path) && id.starts_with("Atomic") => {
                add(Rule::ParSafety, toks[i].line, toks[i].col);
            }
            Some("static")
                if !is_par_boundary(path)
                    && toks.get(i + 1).and_then(|t| t.ident()) == Some("mut") =>
            {
                add(Rule::ParSafety, toks[i].line, toks[i].col);
            }
            Some("unsafe")
                if !is_par_boundary(path)
                    && toks.get(i + 1).and_then(|t| t.ident()) == Some("impl") =>
            {
                add(Rule::ParSafety, toks[i].line, toks[i].col);
            }
            Some("thread")
                if !is_par_boundary(path)
                    && path_sep(i + 1)
                    && matches!(
                        toks.get(i + 3).and_then(|t| t.ident()),
                        Some("spawn" | "scope")
                    ) =>
            {
                add(Rule::ParSafety, toks[i].line, toks[i].col);
            }
            Some("DiskScheduler")
                if !is_scheduler_boundary(path)
                    && toks.get(i + 1).and_then(|t| t.ident()) == Some("for") =>
            {
                add(Rule::SchedulerSeam, toks[i].line, toks[i].col);
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
        // panic-policy: `.unwrap()` / `.expect(` in library code.
        if class == FileClass::Library
            && toks[i].is_punct('.')
            && toks
                .get(i + 1)
                .and_then(|t| t.ident())
                .is_some_and(|id| id == "unwrap" || id == "expect")
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            add(Rule::PanicPolicy, toks[i + 1].line, toks[i + 1].col);
        }
        // unit-safety: `time ± quantity` (or `±=`) outside the unit boundary.
        if !ws.units.boundary.iter().any(|b| path.ends_with(b.as_str())) {
            if let Some((line, col)) = unit_mix_at(toks, i, ws) {
                add(Rule::UnitSafety, line, col);
            }
        }
    }
    raw
}

/// Detect `X + Y` / `X - Y` / `X += Y` / `X -= Y` at token `i` (the left
/// operand) where one side names a time and the other a quantity. The right
/// operand may be a `a.b.c` field chain (classified by its final segment)
/// or a call (classified by the callee's name). A side followed by `*`/`/`
/// — or preceded by one, for the left — is skipped: the product's unit is
/// not the identifier's (`ms_per_block * blocks` is a legitimate mix).
fn unit_mix_at(toks: &[Token], i: usize, ws: &WsConfig) -> Option<(u32, u32)> {
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
    let (xu, yu) = (unit_class(x, ws)?, unit_class(y, ws)?);
    if xu != yu {
        Some((toks[i].line, toks[i].col))
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Directive application & meta-rules
// ---------------------------------------------------------------------------

/// Apply allow directives to the raw matches of one file, then run the
/// meta-rules over the directives themselves. Consumes the unit's
/// directive `used` state, so call exactly once per file per run.
pub(crate) fn finish_file(
    unit: &mut FileUnit,
    raw: Vec<RawMatch>,
    cfg: &Config,
    ws: &WsConfig,
) -> Vec<Diagnostic> {
    let lines: Vec<&str> = unit.src.lines().collect();
    let path = unit.display.as_str();
    let mut diags = Vec::new();

    // A directive suppresses matching diagnostics on its own line and the
    // line directly below.
    for (rule, line, col) in raw {
        let mut suppressed = false;
        for d in unit.lexed.directives.iter_mut() {
            if d.rule == Some(rule) && d.has_reason && (d.line == line || d.line + 1 == line) {
                d.used = true;
                suppressed = true;
            }
        }
        if !suppressed && cfg.level(rule) != Level::Allow {
            diags.push(make_diag(rule, cfg, path, line, col, &lines));
        }
    }

    // Meta-rules over the directives. `unused-allow` only fires for rules
    // that are actually enforced here (by both CLI level and profile) —
    // a directive cannot be "stale" for a rule nobody is checking. Under
    // the relaxed profile with no hash-pin marker, nothing is enforced.
    let enforced_profile = match unit.profile {
        Profile::Strict => Some(Profile::Strict),
        Profile::Relaxed if unit.has_marker(&ws.hash_pin_markers) => Some(Profile::Relaxed),
        Profile::Relaxed => None,
    };
    for d in &unit.lexed.directives {
        match d.rule {
            Some(rule) if d.has_reason => {
                let enforced = enforced_profile.is_some_and(|p| rule_in_profile(rule, p));
                if !d.used
                    && enforced
                    && cfg.level(rule) != Level::Allow
                    && cfg.level(Rule::UnusedAllow) != Level::Allow
                {
                    diags.push(make_diag(
                        Rule::UnusedAllow,
                        cfg,
                        path,
                        d.line,
                        d.col,
                        &lines,
                    ));
                }
            }
            _ => {
                if cfg.level(Rule::MalformedAllow) != Level::Allow {
                    diags.push(make_diag(
                        Rule::MalformedAllow,
                        cfg,
                        path,
                        d.line,
                        d.col,
                        &lines,
                    ));
                }
            }
        }
    }

    diags.sort_by_key(|d| (d.line, d.col, d.rule));
    diags
}

fn make_diag(
    rule: Rule,
    cfg: &Config,
    path: &str,
    line: u32,
    col: u32,
    lines: &[&str],
) -> Diagnostic {
    Diagnostic {
        rule,
        level: cfg.level(rule),
        file: path.to_string(),
        line,
        col,
        snippet: lines
            .get(line as usize - 1)
            .map_or(String::new(), |l| l.trim().to_string()),
    }
}

// ---------------------------------------------------------------------------
// Public per-file entry points
// ---------------------------------------------------------------------------

/// Analyze one source file (given as a string, so unit tests can feed
/// inline fixtures) and return every diagnostic whose rule is not allowed.
/// Runs the per-file rules under the strict profile; the workspace rule
/// (`layer-boundary`) needs the whole tree — see
/// [`analyze_workspace`].
pub fn analyze_source(path: &str, src: &str, cfg: &Config) -> Vec<Diagnostic> {
    let ws = WsConfig::default();
    let mut unit = FileUnit::new(path.to_string(), src.to_string(), Profile::Strict);
    let raw = per_file_matches(&unit, &ws);
    finish_file(&mut unit, raw, cfg, &ws)
}

// ---------------------------------------------------------------------------
// Directory walking
// ---------------------------------------------------------------------------

/// Collect every `.rs` file under `root`, sorted for deterministic output.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if root.is_file() {
        out.push(root.to_path_buf());
        return Ok(out);
    }
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

/// Analyze every `.rs` file under each root with the per-file rules under
/// the strict profile. Paths in diagnostics are reported relative to
/// `strip_prefix` when possible. (Explicit-paths CLI mode; the default
/// no-paths invocation uses [`analyze_workspace`] instead, which adds the
/// cross-file rules and the relaxed surface.)
pub fn analyze_paths(
    roots: &[PathBuf],
    strip_prefix: &Path,
    cfg: &Config,
) -> std::io::Result<Vec<Diagnostic>> {
    let mut diags = Vec::new();
    for root in roots {
        for file in collect_rs_files(root)? {
            let display = file
                .strip_prefix(strip_prefix)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let src = std::fs::read_to_string(&file)?;
            diags.extend(analyze_source(&display, &src, cfg));
        }
    }
    Ok(diags)
}

/// Process exit code for a finished run: nonzero iff anything denied.
pub fn exit_code(diags: &[Diagnostic]) -> i32 {
    i32::from(diags.iter().any(|d| d.level == Level::Deny))
}

// ---------------------------------------------------------------------------
// Fixture tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Diagnostic> {
        analyze_source("crates/simkit/src/lib.rs", src, &Config::default())
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn flags_hash_collections_with_position() {
        let d = lint("use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32>; }\n");
        assert_eq!(
            rules_of(&d),
            vec![Rule::HashCollection, Rule::HashCollection]
        );
        assert_eq!((d[0].line, d[0].col), (1, 23));
        assert_eq!(d[0].snippet, "use std::collections::HashMap;");
        assert_eq!(d[1].line, 2);
        assert_eq!(exit_code(&d), 1);
    }

    #[test]
    fn flags_ambient_nondeterminism() {
        let d = lint(
            "fn f() {\n    let t = Instant::now();\n    let u = std::time::SystemTime::now();\n    \
             let r = rand::thread_rng();\n    let x: f64 = rand::random();\n    \
             let e = std::env::var(\"SEED\");\n}\n",
        );
        assert_eq!(d.len(), 5);
        assert!(d.iter().all(|d| d.rule == Rule::AmbientNondet));
        assert_eq!(d[0].line, 2);
        assert_eq!(d[4].line, 6);
    }

    #[test]
    fn flags_raw_time_casts_but_not_elsewhere_idents() {
        let d = lint(
            "fn f(busy_ns: u64, n: u64) -> f64 {\n    let a = busy_ns as f64;\n    \
             let b = n as f64;\n    let snow = n; let c = snow as f64;\n    a + b + c\n}\n",
        );
        assert_eq!(rules_of(&d), vec![Rule::RawTimeCast]);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn time_boundary_file_is_exempt_from_casts() {
        let d = analyze_source(
            "crates/simkit/src/time.rs",
            "pub fn ns_to_ms(ns: u64) -> f64 { ns as f64 / 1e6 }\nfn g(t_ns: u64) { t_ns as f64; }\n",
            &Config::default(),
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn flags_unwrap_and_expect_in_library_code_only() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() + x.expect(\"y\") }\n";
        let d = lint(src);
        assert_eq!(rules_of(&d), vec![Rule::PanicPolicy, Rule::PanicPolicy]);
        // Same source in a binary or a test file: exempt.
        for path in [
            "crates/bench/src/bin/figures.rs",
            "crates/raidsim/src/sim/tests.rs",
            "tests/end_to_end.rs",
        ] {
            assert!(analyze_source(path, src, &Config::default()).is_empty());
        }
    }

    #[test]
    fn flags_fault_rng_construction_outside_simkit_fault() {
        let src = "fn f() { let r = FaultRng::new(7); }\n";
        let d = lint(src);
        assert_eq!(rules_of(&d), vec![Rule::FaultRng]);
        assert_eq!(d[0].level, Level::Deny);
        // The fault module itself is the sanctioned constructor site.
        let d = analyze_source("crates/simkit/src/fault.rs", src, &Config::default());
        assert!(d.is_empty(), "{d:?}");
        // The fully qualified form is caught too.
        let d = lint("fn f() { let r = simkit::fault::FaultRng::new(7); }\n");
        assert_eq!(rules_of(&d), vec![Rule::FaultRng]);
        // Deriving a named substream from the plan is the sanctioned way.
        let d = lint("fn f(p: &FaultPlan) { let _r = p.stream(3); }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn flags_stream_minting_outside_the_fault_stream_boundary() {
        // Scrub/sparing/rebuild code must not re-mint a latent stream
        // mid-run — it would replay the construction-time draws.
        let src = "fn f(p: &FaultPlan) { let _r = p.latent_stream(3); }\n";
        let d = analyze_source("crates/raidsim/src/sim/faults.rs", src, &Config::default());
        assert_eq!(rules_of(&d), vec![Rule::FaultRng]);
        // Nor mix seeds by hand instead of going through the plan.
        let d = analyze_source(
            "crates/raidsim/src/sim/faults.rs",
            "fn f(s: u64) -> u64 { splitmix64(s ^ 3) }\n",
            &Config::default(),
        );
        assert_eq!(rules_of(&d), vec![Rule::FaultRng]);
        // The boundary files build the streams once, legitimately.
        for path in [
            "crates/simkit/src/fault.rs",
            "crates/raidsim/src/sim/mod.rs",
        ] {
            let d = analyze_source(path, src, &Config::default());
            assert!(d.is_empty(), "{path}: {d:?}");
        }
        // Mentioning the name without a call (docs, a field) is fine.
        let d = lint("fn f() { let latent_stream = 3; let _ = latent_stream; }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn flags_organization_dispatch_outside_planner_modules() {
        let src = "fn f(o: Organization) -> bool { matches!(o, Organization::Base) }\n";
        let d = analyze_source("crates/raidsim/src/sim/mod.rs", src, &Config::default());
        assert_eq!(rules_of(&d), vec![Rule::SchedulerSeam]);
        assert_eq!(d[0].level, Level::Deny);
        // The sanctioned homes of organization knowledge are exempt.
        for path in [
            "crates/raidsim/src/config.rs",
            "crates/raidsim/src/report.rs",
            "crates/raidsim/src/mapping/mod.rs",
            "crates/raidsim/src/mapping/degraded.rs",
        ] {
            assert!(
                analyze_source(path, src, &Config::default()).is_empty(),
                "{path} should be allowed to dispatch on Organization::"
            );
        }
        // The planning layer lost its exemption when construction moved
        // behind the label-keyed registry: a reintroduced match is flagged.
        let d = analyze_source(
            "crates/raidsim/src/sim/planning.rs",
            src,
            &Config::default(),
        );
        assert_eq!(rules_of(&d), vec![Rule::SchedulerSeam]);
        // Naming the type (not a variant) is fine anywhere.
        let d = analyze_source(
            "crates/raidsim/src/sim/mod.rs",
            "use crate::config::Organization;\nfn g(_o: Organization) {}\n",
            &Config::default(),
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn flags_disk_scheduler_impls_outside_diskmodel() {
        let src = "struct MyQ;\nimpl DiskScheduler for MyQ {}\n";
        let d = analyze_source(
            "crates/raidsim/src/sim/dispatch.rs",
            src,
            &Config::default(),
        );
        assert_eq!(rules_of(&d), vec![Rule::SchedulerSeam]);
        // diskmodel is the sanctioned implementation site.
        let d = analyze_source("crates/diskmodel/src/scheduler.rs", src, &Config::default());
        assert!(d.is_empty(), "{d:?}");
        // Using the trait (imports, bounds, method calls) is fine anywhere.
        let d = analyze_source(
            "crates/raidsim/src/sim/dispatch.rs",
            "use diskmodel::DiskScheduler;\nfn g<T: DiskScheduler>(q: &T) -> usize { q.len() }\n",
            &Config::default(),
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn flags_shared_state_outside_the_partition_layer() {
        let src = "use std::sync::{Mutex, mpsc};\nuse std::sync::atomic::AtomicU64;\n\
                   static mut COUNT: u64 = 0;\nfn f() { std::thread::spawn(|| {}); }\n\
                   struct S;\nunsafe impl Sync for S {}\n";
        let d = analyze_source(
            "crates/raidsim/src/sim/dispatch.rs",
            src,
            &Config::default(),
        );
        assert_eq!(d.len(), 6, "{d:?}");
        assert!(d.iter().all(|d| d.rule == Rule::ParSafety));
        // The sweep pool is the one sanctioned home of synchronization;
        // the fleet runner, which only hands jobs to it, is not.
        assert!(
            analyze_source("crates/raidsim/src/sweep.rs", src, &Config::default()).is_empty(),
            "the sweep pool must be allowed to synchronize"
        );
        let d = analyze_source("crates/raidsim/src/fleet/run.rs", src, &Config::default());
        assert_eq!(d.len(), 6, "{d:?}");
        // `&'static mut` never fires: the lifetime is not the keyword.
        let d = lint("fn g(x: &'static mut u32) -> u32 { *x }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let d = lint(
            "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n    \
             #[test]\n    fn t() { Some(1).unwrap(); let _ = Instant::now(); }\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
        // …including `#[test] fn` outside a module and `mod tests;` forms.
        let d = lint("#[test]\nfn t() { Some(1).unwrap(); }\n#[cfg(test)]\nmod tests;\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn code_after_test_module_is_still_checked() {
        let d = lint(
            "#[cfg(test)]\nmod tests { fn t() { Some(1).unwrap(); } }\n\
             pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        assert_eq!(rules_of(&d), vec![Rule::PanicPolicy]);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn allow_directive_suppresses_same_and_next_line() {
        let d = lint(
            "// simlint::allow(panic-policy): slab indices are always live\n\
             pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        assert!(d.is_empty(), "{d:?}");
        let d = lint(
            "pub fn f(x: Option<u32>) -> u32 { x.unwrap() } // simlint::allow(panic-policy): ok\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let d = lint(
            "// simlint::allow(panic-policy)\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        assert_eq!(rules_of(&d), vec![Rule::MalformedAllow, Rule::PanicPolicy]);
    }

    #[test]
    fn allow_of_unknown_rule_is_malformed() {
        let d = lint("// simlint::allow(no-such-rule): reason\npub fn f() {}\n");
        assert_eq!(rules_of(&d), vec![Rule::MalformedAllow]);
    }

    #[test]
    fn unused_allow_is_reported() {
        let d = lint("// simlint::allow(hash-collection): stale excuse\npub fn f() {}\n");
        assert_eq!(rules_of(&d), vec![Rule::UnusedAllow]);
        assert_eq!(d[0].level, Level::Warn);
        assert_eq!(exit_code(&d), 0, "warnings alone never fail the run");
    }

    #[test]
    fn strings_comments_and_lifetimes_never_fire() {
        let d = lint(
            "/* HashMap in /* nested */ comments */\n\
             pub fn f<'a>(s: &'a str) -> String {\n    \
             let c = 'h'; let esc = '\\'';\n    \
             let x = \"HashMap Instant::now .unwrap()\";\n    \
             let y = r#\"thread_rng \"quoted\" SystemTime::now\"#;\n    \
             format!(\"{x}{y}{c}{esc}\")\n}\n// HashMap mentioned in prose is fine\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn levels_and_json_output() {
        let mut cfg = Config::default();
        cfg.set_all(Level::Warn);
        let d = analyze_source(
            "crates/simkit/src/lib.rs",
            "use std::collections::HashMap;\n",
            &cfg,
        );
        assert_eq!(d[0].level, Level::Warn);
        assert_eq!(exit_code(&d), 0);
        cfg.set_level(Rule::HashCollection, Level::Deny);
        let d = analyze_source(
            "crates/simkit/src/lib.rs",
            "use std::collections::HashMap;\n",
            &cfg,
        );
        assert_eq!(exit_code(&d), 1);

        let json = to_json(&d);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"rule\":\"hash-collection\""));
        assert!(json.contains("\"line\":1"));
        // The snippet is embedded with quotes escaped.
        assert!(json.contains("use std::collections::HashMap;"));
    }

    #[test]
    fn diagnostic_display_has_file_line_col_and_hint() {
        let d = lint("use std::collections::HashSet;\n");
        let text = d[0].to_string();
        assert!(text.contains("deny[hash-collection]"), "{text}");
        assert!(text.contains("crates/simkit/src/lib.rs:1:23"), "{text}");
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
            &Config::default(),
        );
        assert!(d.is_empty(), "{d:?}");
        // Ambiguous names (both vocabularies) classify as neither.
        let d = lint("fn f(block_time_ms: u64, blocks: u64) -> u64 { block_time_ms + blocks }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unit_safety_can_be_suppressed_like_any_rule() {
        let d = lint(
            "// simlint::allow(unit-safety): blocks is a pre-scaled ms contribution here\n\
             fn f(t_ms: u64, blocks: u64) -> u64 { t_ms + blocks }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    // --- relaxed profile --------------------------------------------------

    fn lint_relaxed(path: &str, src: &str) -> Vec<Diagnostic> {
        let ws = WsConfig::default();
        let mut unit = FileUnit::new(path.to_string(), src.to_string(), Profile::Relaxed);
        let raw = per_file_matches(&unit, &ws);
        finish_file(&mut unit, raw, &Config::default(), &ws)
    }

    #[test]
    fn relaxed_profile_only_guards_hash_pinning_files() {
        // A driver-style test file without a hash-pin marker: anything goes.
        let noisy = "use std::collections::HashMap;\n\
                     fn helper() { let _ = Instant::now(); Some(1).unwrap(); }\n";
        assert!(lint_relaxed("tests/end_to_end.rs", noisy).is_empty());

        // The same file pinning determinism hashes: hash-collection and
        // (non-test) panic-policy come back.
        let pinning = "use std::collections::HashMap;\n\
                       fn fnv1a(bytes: &[u8]) -> u64 { 0 }\n\
                       fn helper() { let _ = Instant::now(); Some(1).unwrap(); }\n";
        let d = lint_relaxed("tests/determinism.rs", pinning);
        assert_eq!(
            rules_of(&d),
            vec![Rule::HashCollection, Rule::PanicPolicy],
            "{d:?}"
        );

        // Inside #[test] items: unwraps stay exempt, but a hash collection
        // feeding the pinned hash is still flagged.
        let in_test = "fn fnv1a(bytes: &[u8]) -> u64 { 0 }\n\
                       #[test]\nfn t() {\n    let m = HashMap::new();\n    Some(1).unwrap();\n}\n";
        let d = lint_relaxed("tests/determinism.rs", in_test);
        assert_eq!(rules_of(&d), vec![Rule::HashCollection], "{d:?}");
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn relaxed_profile_reports_no_stale_allows_for_unenforced_rules() {
        // ambient-nondet is not enforced under the relaxed profile, so an
        // (unnecessary) directive for it must not surface as unused-allow.
        let src = "fn fnv1a() -> u64 { 0 }\n\
                   // simlint::allow(ambient-nondet): driver timestamping\n\
                   fn helper() { let _ = Instant::now(); }\n";
        let d = lint_relaxed("tests/determinism.rs", src);
        assert!(d.is_empty(), "{d:?}");
    }

    // --- lexer hardening --------------------------------------------------

    #[test]
    fn directives_inside_strings_do_not_suppress() {
        // The directive text lives in a string literal, not a comment: the
        // unwrap on the next line must still be flagged.
        let d = lint(
            "pub fn f(x: Option<u32>) -> u32 {\n    \
             let _m = \"// simlint::allow(panic-policy): spoofed\";\n    x.unwrap()\n}\n",
        );
        assert_eq!(rules_of(&d), vec![Rule::PanicPolicy]);
    }

    #[test]
    fn block_comment_directives_suppress_and_are_audited() {
        let d = lint(
            "/* simlint::allow(panic-policy): checked by caller */\n\
             pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        assert!(d.is_empty(), "{d:?}");
        // A malformed block-comment directive is caught like a line one.
        let d = lint("/* simlint::allow(panic-policy) */\npub fn f() {}\n");
        assert_eq!(rules_of(&d), vec![Rule::MalformedAllow]);
    }

    #[test]
    fn raw_strings_with_hashes_and_comment_markers_lex_exactly() {
        // `//` and `*/` inside raw strings are content, not comments; the
        // code after them is still live and its violation is still seen.
        let d = lint(
            "pub fn f() -> u32 {\n    \
             let _p = r##\"// not a comment \"# still open\" HashMap\"##;\n    \
             let _q = r#\"/* also not */\"#;\n    Some(1).unwrap()\n}\n",
        );
        assert_eq!(rules_of(&d), vec![Rule::PanicPolicy]);
        assert_eq!(d[0].line, 4);
    }
}
