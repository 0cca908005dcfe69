//! CLI for the simlint determinism pass.
//!
//! ```text
//! cargo run -p simlint -- --deny                 # CI gate: everything denied
//! cargo run -p simlint -- --warn unit-safety     # demote one rule
//! cargo run -p simlint -- --format sarif         # code-scanning output
//! cargo run -p simlint -- --write-baseline       # snapshot current findings
//! cargo run -p simlint -- path/to/file.rs        # explicit targets
//! ```

#![expect(clippy::expect_used, reason = "the lint driver, not simulation code")]

use simlint::{
    analyze_paths, analyze_workspace, baseline, exit_code, to_json, to_sarif, Config, Level, Rule,
    WsConfig, RULES,
};
use std::path::PathBuf;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

const USAGE: &str = "\
simlint — determinism & invariant lints for the sim-core crates

USAGE:
    cargo run -p simlint -- [OPTIONS] [PATHS…]

OPTIONS:
    --deny [RULE]      enforce every rule (or just RULE) as an error
    --warn [RULE]      report every rule (or just RULE) without failing
    --allow RULE       disable RULE entirely
    --format FMT       `text` (default), `json`, or `sarif`
    --root DIR         workspace root (default: autodetected)
    --config FILE      workspace config (default: <root>/simlint.toml)
    --baseline FILE    waiver file (default: <root>/simlint.baseline.toml)
    --no-baseline      ignore the waiver file even if present
    --write-baseline   snapshot the current denied findings as the waiver
                       file (fill in the reasons before committing), then exit
    --list-rules       print the rules
    -h, --help         this help

Every rule is denied by default. With no PATHS the whole workspace is
analyzed: the per-file rules over the sim-core crates ([surface] roots in
simlint.toml) and the cross-file rule (layer-boundary) over their function
graph, minus the committed baseline. With explicit PATHS only the per-file
rules run on those paths. The one escape hatch is simlint.baseline.toml:
accepted findings, each with a reason. The determinism rules rustc and
clippy can express (hash collections, ambient nondeterminism, the library
panic policy, threads and synchronization) live in clippy.toml and
[workspace.lints] instead.";

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("simlint: error: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<i32, String> {
    let mut cfg = Config::default();
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;
    let mut config_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut no_baseline = false;
    let mut write_baseline = false;
    let mut paths: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" | "--warn" | "--allow" => {
                let level = match arg.as_str() {
                    "--deny" => Level::Deny,
                    "--warn" => Level::Warn,
                    _ => Level::Allow,
                };
                // An immediately following rule name scopes the flag; plain
                // `--deny`/`--warn` applies to every rule.
                let scoped = args.peek().and_then(|next| Rule::from_name(next));
                if scoped.is_some() {
                    args.next();
                }
                match scoped {
                    Some(rule) => cfg.set_level(rule, level),
                    None if level == Level::Allow => {
                        return Err("--allow requires a rule name (refusing to disable \
                                    every rule at once)"
                            .into());
                    }
                    None => cfg.set_all(level),
                }
            }
            "--format" => {
                let fmt = args
                    .next()
                    .ok_or("--format requires `text`, `json`, or `sarif`")?;
                format = match fmt.as_str() {
                    "json" => Format::Json,
                    "text" => Format::Text,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--root" => {
                root = Some(PathBuf::from(
                    args.next().ok_or("--root requires a directory")?,
                ));
            }
            "--config" => {
                config_path = Some(PathBuf::from(
                    args.next().ok_or("--config requires a file path")?,
                ));
            }
            "--baseline" => {
                baseline_path = Some(PathBuf::from(
                    args.next().ok_or("--baseline requires a file path")?,
                ));
            }
            "--no-baseline" => no_baseline = true,
            "--write-baseline" => write_baseline = true,
            "--list-rules" => {
                for r in RULES {
                    println!("{}", r.name());
                    println!("    {}", r.hint());
                }
                return Ok(0);
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}` (see --help)"));
            }
            path => paths.push(PathBuf::from(path)),
        }
    }

    // Workspace root: the parent of this crate's `crates/` directory, so
    // the tool works from any invocation directory.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crate lives at <root>/crates/simlint")
            .to_path_buf()
    });

    let mut diags = if paths.is_empty() {
        let config_path = config_path.unwrap_or_else(|| root.join("simlint.toml"));
        let ws = WsConfig::load(&config_path)?;
        analyze_workspace(&root, &ws, &cfg)?
    } else {
        if write_baseline {
            return Err("--write-baseline only applies to whole-workspace runs".into());
        }
        analyze_paths(&paths, &root, &cfg).map_err(|e| e.to_string())?
    };

    let baseline_path = baseline_path.unwrap_or_else(|| root.join("simlint.baseline.toml"));
    if write_baseline {
        let text = baseline::render(&diags);
        std::fs::write(&baseline_path, &text)
            .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
        let n = diags.iter().filter(|d| d.level == Level::Deny).count();
        eprintln!(
            "simlint: wrote {n} waiver(s) to {} — fill in each `reason` before committing",
            baseline_path.display()
        );
        return Ok(0);
    }

    let mut stale: Vec<baseline::Waiver> = Vec::new();
    if paths.is_empty() && !no_baseline {
        match std::fs::read_to_string(&baseline_path) {
            Ok(src) => {
                let waivers = baseline::parse(&src)
                    .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
                stale = baseline::apply(&mut diags, &waivers);
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("{}: {e}", baseline_path.display())),
        }
    }

    match format {
        Format::Json => println!("{}", to_json(&diags)),
        Format::Sarif => println!("{}", to_sarif(&diags)),
        Format::Text => {
            for d in &diags {
                println!("{d}\n");
            }
            let denies = diags.iter().filter(|d| d.level == Level::Deny).count();
            let warns = diags.len() - denies;
            eprintln!("simlint: {denies} error(s), {warns} warning(s)");
        }
    }
    for w in &stale {
        eprintln!(
            "simlint: warning: stale baseline waiver ({} @ {}) covers nothing — delete it",
            w.rule, w.file
        );
    }
    Ok(exit_code(&diags))
}
