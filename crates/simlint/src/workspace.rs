//! Workspace-level analysis: the linted roots, the unit vocabularies and
//! the driver that runs every rule over the roots' `.rs` files.

use crate::{analyze_source, Diagnostic};
use std::path::Path;

/// The sim-core crates: every rule applies to their non-test code.
pub const ROOTS: [&str; 6] = [
    "crates/simkit/src",
    "crates/raidsim/src",
    "crates/diskmodel/src",
    "crates/nvcache/src",
    "crates/iochannel/src",
    "crates/tracegen/src",
];

/// `_`-separated identifier segments that put a name in the time
/// vocabulary (any segment containing "time" always does) …
pub(crate) const TIME_UNITS: [&str; 7] = ["ns", "us", "ms", "now", "tick", "ticks", "deadline"];

/// … or the quantity vocabulary. Adding/subtracting across the two outside
/// the boundary file is a `unit-safety` finding; scaling (`*` and `/`) is
/// how conversions look, so products and quotients are exempt.
pub(crate) const QUANTITY_UNITS: [&str; 15] = [
    "block", "blocks", "nblocks", "byte", "bytes", "len", "count", "counts", "cyl", "cyls",
    "sector", "sectors", "stripe", "stripes", "ops",
];

/// The sanctioned unit-conversion helpers (`simkit::time`).
pub(crate) const TIME_BOUNDARY: &str = "crates/simkit/src/time.rs";

/// Run every rule over the `.rs` files under [`ROOTS`] (relative to
/// `root`; a missing root is skipped), reporting paths relative to `root`.
pub fn analyze_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut diags = Vec::new();
    for rel in ROOTS {
        let dir = root.join(rel);
        if !dir.exists() {
            continue;
        }
        let files = crate::collect_rs_files(&dir).map_err(|e| format!("{rel}: {e}"))?;
        for file in files {
            let display = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let src =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            diags.extend(analyze_source(&display, &src));
        }
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(diags)
}
