//! Workspace-level analysis: configuration (`simlint.toml`) and the
//! driver that runs the per-file rules over the strict + relaxed surfaces
//! and the cross-file rules over the function graph.

use crate::{
    finish_file, graph, per_file_matches, rules, toml, Config, Diagnostic, FileUnit, Profile,
    RawMatch,
};
use std::path::Path;

/// `[layer-boundary]`: the declared layer DAG (a chain, hence trivially
/// acyclic) and which files belong to which layer.
#[derive(Clone, Debug)]
pub struct LayerCfg {
    /// Layer names in flow order; calls may only go rightward (or stay).
    pub order: Vec<String>,
    /// layer name → file-path suffixes assigned to it.
    pub modules: Vec<(String, Vec<String>)>,
}

/// `[unit-safety]`: unit vocabularies and the conversion boundary.
#[derive(Clone, Debug)]
pub struct UnitCfg {
    /// `_`-segments that mark a time/duration identifier (plus any
    /// segment containing "time", always).
    pub time_units: Vec<String>,
    /// `_`-segments that mark a block/byte/count identifier.
    pub quantity_units: Vec<String>,
    /// Path suffixes exempt from unit-safety (the conversion helpers).
    pub boundary: Vec<String>,
}

/// Parsed `simlint.toml` (or the built-in defaults, which describe this
/// repository's actual layout so the tool works without a config file).
#[derive(Clone, Debug)]
pub struct WsConfig {
    /// Roots linted under the strict profile (every rule).
    pub strict_roots: Vec<String>,
    /// Roots linted under the relaxed profile (hash-collection +
    /// panic-policy, only in files that pin determinism hashes).
    pub relaxed_roots: Vec<String>,
    /// Identifiers marking a relaxed-profile file as hash-pinning.
    pub hash_pin_markers: Vec<String>,
    /// Ubiquitous method names never followed as call-graph edges.
    pub ignore_calls: Vec<String>,
    pub layers: LayerCfg,
    pub units: UnitCfg,
}

fn strs(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

impl Default for WsConfig {
    fn default() -> Self {
        WsConfig {
            strict_roots: strs(&[
                "crates/simkit/src",
                "crates/raidsim/src",
                "crates/diskmodel/src",
                "crates/nvcache/src",
                "crates/iochannel/src",
                "crates/tracegen/src",
            ]),
            relaxed_roots: strs(&["tests", "crates/bench/src"]),
            hash_pin_markers: strs(&["fnv1a"]),
            ignore_calls: strs(&[
                "new",
                "default",
                "clone",
                "len",
                "is_empty",
                "get",
                "get_mut",
                "insert",
                "remove",
                "push",
                "pop",
                "clear",
                "iter",
                "iter_mut",
                "map",
                "filter",
                "fold",
                "min",
                "max",
                "contains",
                "record",
                "extend",
                "drain",
                "take",
                "expect",
                "unwrap",
                "unwrap_or",
                "to_string",
                "into",
                "from",
            ]),
            layers: LayerCfg {
                order: strs(&["admission", "planning", "dispatch", "faults", "reporting"]),
                modules: vec![
                    (
                        "admission".into(),
                        strs(&[
                            "crates/raidsim/src/sim/admission.rs",
                            "crates/raidsim/src/sim/cached.rs",
                        ]),
                    ),
                    (
                        "planning".into(),
                        strs(&["crates/raidsim/src/sim/planning.rs"]),
                    ),
                    (
                        "dispatch".into(),
                        strs(&["crates/raidsim/src/sim/dispatch.rs"]),
                    ),
                    ("faults".into(), strs(&["crates/raidsim/src/sim/faults.rs"])),
                    (
                        "reporting".into(),
                        strs(&["crates/raidsim/src/sim/reporting.rs"]),
                    ),
                ],
            },
            units: UnitCfg {
                time_units: strs(&["ns", "us", "ms", "tick", "ticks", "deadline"]),
                quantity_units: strs(&[
                    "block", "blocks", "nblocks", "byte", "bytes", "len", "count", "counts", "cyl",
                    "cyls", "sector", "sectors", "stripe", "stripes", "ops",
                ]),
                boundary: strs(&["crates/simkit/src/time.rs"]),
            },
        }
    }
}

impl WsConfig {
    /// Parse a `simlint.toml`. Every key is optional and overrides the
    /// corresponding default; unknown keys are rejected so typos cannot
    /// silently disable a rule.
    pub fn parse(src: &str) -> Result<WsConfig, String> {
        let root = toml::parse(src)?;
        let mut ws = WsConfig::default();

        let known_tables = [
            "surface",
            "relaxed",
            "graph",
            "layer-boundary",
            "unit-safety",
        ];
        for key in root.keys() {
            if !known_tables.contains(&key.as_str()) {
                return Err(format!("simlint.toml: unknown table `[{key}]`"));
            }
        }
        let check_keys = |table: &str, allowed: &[&str]| -> Result<(), String> {
            if let Some(t) = toml::get_table(&root, table) {
                for k in t.keys() {
                    if !allowed.contains(&k.as_str()) {
                        return Err(format!("simlint.toml: unknown key `{k}` in `[{table}]`"));
                    }
                }
            }
            Ok(())
        };
        check_keys("surface", &["strict", "relaxed"])?;
        check_keys("relaxed", &["hash_pin_markers"])?;
        check_keys("graph", &["ignore_calls"])?;
        check_keys("layer-boundary", &["order", "modules"])?;
        check_keys("unit-safety", &["time_units", "quantity_units", "boundary"])?;

        let arr = |path: &str, dst: &mut Vec<String>| {
            if let Some(a) = toml::get_arr(&root, path) {
                *dst = a.to_vec();
            }
        };
        arr("surface.strict", &mut ws.strict_roots);
        arr("surface.relaxed", &mut ws.relaxed_roots);
        arr("relaxed.hash_pin_markers", &mut ws.hash_pin_markers);
        arr("graph.ignore_calls", &mut ws.ignore_calls);

        arr("layer-boundary.order", &mut ws.layers.order);
        if let Some(mods) = toml::get_table(&root, "layer-boundary.modules") {
            ws.layers.modules = mods
                .iter()
                .map(|(name, v)| {
                    v.as_arr()
                        .map(|files| (name.clone(), files.to_vec()))
                        .ok_or_else(|| {
                            format!("simlint.toml: [layer-boundary.modules] `{name}` must be an array of file suffixes")
                        })
                })
                .collect::<Result<_, _>>()?;
        }

        arr("unit-safety.time_units", &mut ws.units.time_units);
        arr("unit-safety.quantity_units", &mut ws.units.quantity_units);
        arr("unit-safety.boundary", &mut ws.units.boundary);

        // Validate the layer declaration once, up front.
        for (name, _) in &ws.layers.modules {
            if !ws.layers.order.iter().any(|o| o == name) {
                return Err(format!(
                    "simlint.toml: [layer-boundary.modules] layer `{name}` is not in `order`"
                ));
            }
        }
        Ok(ws)
    }

    /// Load from a file path (missing file → defaults).
    pub fn load(path: &Path) -> Result<WsConfig, String> {
        match std::fs::read_to_string(path) {
            Ok(src) => WsConfig::parse(&src),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(WsConfig::default()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }
}

/// Run the full workspace analysis rooted at `root`: per-file rules over
/// the strict and relaxed surfaces, then the cross-file rule
/// (`layer-boundary`) over the function graph of the strict files.
/// Allow-directives and the meta-rules see the union, so a
/// `// simlint::allow(layer-boundary): …` works like any other escape.
pub fn analyze_workspace(
    root: &Path,
    ws: &WsConfig,
    cfg: &Config,
) -> Result<Vec<Diagnostic>, String> {
    let mut units: Vec<FileUnit> = Vec::new();
    for (roots, profile) in [
        (&ws.strict_roots, Profile::Strict),
        (&ws.relaxed_roots, Profile::Relaxed),
    ] {
        for rel in roots {
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
                let src = std::fs::read_to_string(&file)
                    .map_err(|e| format!("{}: {e}", file.display()))?;
                units.push(FileUnit::new(display, src, profile));
            }
        }
    }

    // Per-file pass.
    let mut raw: Vec<Vec<RawMatch>> = units.iter().map(|u| per_file_matches(u, ws)).collect();

    // Function graph over the strict files, then the cross-file rule.
    let mut defs = Vec::new();
    for (i, u) in units.iter().enumerate() {
        if u.profile == Profile::Strict {
            defs.extend(graph::extract_fns(u, i));
        }
    }
    for (file, rule, line, col) in rules::layer_boundary::run(ws, &units, &defs)? {
        raw[file].push((rule, line, col));
    }

    let mut diags = Vec::new();
    for (u, mut r) in units.iter_mut().zip(raw) {
        r.sort();
        r.dedup();
        diags.extend(finish_file(u, r, cfg, ws));
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_overrides_and_rejects_unknown_keys() {
        let ws = WsConfig::parse(
            "[surface]\nstrict = [\"src\"]\nrelaxed = []\n\
             [unit-safety]\nboundary = [\"src/time.rs\"]\n",
        )
        .unwrap();
        assert_eq!(ws.strict_roots, vec!["src".to_string()]);
        assert!(ws.relaxed_roots.is_empty());
        assert_eq!(ws.units.boundary, vec!["src/time.rs".to_string()]);
        // Defaults survive for untouched keys.
        assert_eq!(ws.layers.order.len(), 5);

        assert!(WsConfig::parse("[typo]\nx = 1\n").is_err());
        assert!(WsConfig::parse("[unit-safety]\nboundry = [\"a\"]\n").is_err());
        let bad_layer = "[layer-boundary.modules]\nghost = [\"x.rs\"]\n";
        assert!(WsConfig::parse(bad_layer).is_err(), "layer not in order");
    }
}
