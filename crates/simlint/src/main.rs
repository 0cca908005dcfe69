//! CLI for the simlint determinism pass.
//!
//! ```text
//! cargo run -p simlint                           # lint the sim-core crates
//! cargo run -p simlint -- --format sarif         # code-scanning output
//! ```

#![expect(clippy::expect_used, reason = "the lint driver, not simulation code")]

use simlint::{analyze_workspace, exit_code, to_sarif, RULES};
use std::path::Path;

const USAGE: &str = "\
simlint — determinism & invariant lints for the sim-core crates

USAGE:
    cargo run -p simlint -- [OPTIONS]

OPTIONS:
    --format FMT       `text` (default) or `sarif`
    --list-rules       print the rules
    -h, --help         this help

Runs the five rules over every non-test `.rs` file in the sim-core
crates and exits 1 if anything is found, 2 on a usage error. Every
finding is an error and there is no escape hatch: a false positive is
fixed in the rule or in the code. The determinism rules rustc and clippy
can express (hash collections, ambient nondeterminism, the library panic
policy, threads and synchronization) live in clippy.toml and
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
    let mut sarif = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => {
                sarif = match args.next().as_deref() {
                    Some("text") => false,
                    Some("sarif") => true,
                    Some(other) => return Err(format!("unknown format `{other}`")),
                    None => return Err("--format requires `text` or `sarif`".into()),
                };
            }
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
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }

    // Workspace root: the parent of this crate's `crates/` directory, so
    // the tool works from any invocation directory.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives at <root>/crates/simlint");
    let diags = analyze_workspace(root)?;

    if sarif {
        println!("{}", to_sarif(&diags));
    } else {
        for d in &diags {
            println!("{d}\n");
        }
        eprintln!("simlint: {} error(s)", diags.len());
    }
    Ok(exit_code(&diags))
}
