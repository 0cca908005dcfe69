//! Golden tests over the fixture corpus (`crates/simlint/fixtures/`).
//!
//! Each case is a miniature workspace: its own `simlint.toml` plus a few
//! source files. `bad/<case>/expected.txt` lists the diagnostics the case
//! must produce, one per line as `rule file:line`; `good/<case>/` is the
//! clean twin of a bad case and must produce nothing. Running the real
//! `analyze_workspace` entry point keeps the corpus honest — a rule that
//! silently stops firing breaks the bad twin, a rule that over-fires
//! breaks the good twin.

use simlint::{analyze_workspace, Config, WsConfig};
use std::path::{Path, PathBuf};

fn fixture_root(side: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(side)
}

fn cases(side: &str) -> Vec<PathBuf> {
    #[expect(
        clippy::expect_used,
        reason = "a test helper: an unreadable corpus fails the test"
    )]
    let mut out: Vec<PathBuf> = std::fs::read_dir(fixture_root(side))
        .expect("fixture dir exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.is_dir())
        .collect();
    out.sort();
    assert!(
        out.len() >= 4,
        "suspiciously few {side} fixtures found: {out:?}"
    );
    out
}

fn run_case(dir: &Path) -> Vec<String> {
    let ws = WsConfig::load(&dir.join("simlint.toml"))
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let diags = analyze_workspace(dir, &ws, &Config::default())
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    diags
        .iter()
        .map(|d| format!("{} {}:{}", d.rule.name(), d.file, d.line))
        .collect()
}

#[test]
fn good_fixtures_are_clean() {
    for case in cases("good") {
        let got = run_case(&case);
        assert!(
            got.is_empty(),
            "{} should be clean but produced:\n{}",
            case.display(),
            got.join("\n")
        );
    }
}

#[test]
fn bad_fixtures_fire_exactly_the_expected_diagnostics() {
    for case in cases("bad") {
        let expected_path = case.join("expected.txt");
        let expected: Vec<String> = std::fs::read_to_string(&expected_path)
            .unwrap_or_else(|e| panic!("{}: {e}", expected_path.display()))
            .lines()
            .map(|l| l.trim().to_string())
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        assert!(
            !expected.is_empty(),
            "{} must expect at least one diagnostic",
            case.display()
        );
        let got = run_case(&case);
        assert_eq!(
            got,
            expected,
            "\n{}:\n  got:\n    {}\n  expected:\n    {}\n",
            case.display(),
            got.join("\n    "),
            expected.join("\n    ")
        );
    }
}

#[test]
fn every_bad_fixture_has_a_good_twin_or_is_lexer_specific() {
    let good: Vec<String> = cases("good")
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    for case in cases("bad") {
        let name = case.file_name().unwrap().to_string_lossy().into_owned();
        assert!(good.contains(&name), "bad/{name} has no good/{name} twin");
    }
    // The lexer case has no bad twin: it only shows that comments and
    // strings never fire.
    assert!(good.contains(&"lexer-tricky".to_string()));
}
