//! The command-line contract of the `simulate`, `figures` and `ablations`
//! binaries: a misspelt or repeated option is a usage error that names it
//! (exit 2, nothing simulated), and `--help` is not an error (usage on stdout,
//! exit 0).

use std::process::{Command, Output};

#[expect(
    clippy::panic,
    reason = "a test helper: a binary that cannot start fails the test"
)]
fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"))
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn simulate_refuses_a_misspelt_option() {
    let out = run(
        env!("CARGO_BIN_EXE_simulate"),
        &["--org", "raid5", "--cahce", "16", "--scale", "0.02"],
    );
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--cahce"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may be simulated");
}

#[test]
fn simulate_refuses_a_repeated_option() {
    // The first `--cache` used to win silently: this ran with 4 MB.
    let out = run(
        env!("CARGO_BIN_EXE_simulate"),
        &[
            "--org", "raid5", "--cache", "4", "--cache", "16", "--scale", "0.02",
        ],
    );
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--cache given more than once"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing may be simulated");
}

#[test]
fn help_prints_usage_to_stdout_and_succeeds() {
    for exe in [
        env!("CARGO_BIN_EXE_simulate"),
        env!("CARGO_BIN_EXE_figures"),
        env!("CARGO_BIN_EXE_ablations"),
    ] {
        for flag in ["--help", "-h"] {
            let out = run(exe, &[flag]);
            assert_eq!(out.status.code(), Some(0), "{exe} {flag}");
            assert!(text(&out.stdout).starts_with("usage: "), "{exe} {flag}");
            assert!(out.stderr.is_empty(), "{exe} {flag}: {}", text(&out.stderr));
        }
    }
}

#[test]
fn usage_errors_exit_2() {
    let simulate = env!("CARGO_BIN_EXE_simulate");
    let figures = env!("CARGO_BIN_EXE_figures");
    let ablations = env!("CARGO_BIN_EXE_ablations");
    let cases: [(&str, &[&str]); 24] = [
        (figures, &[]),
        (figures, &["fig99"]),
        (figures, &["all", "fig99"]),
        (ablations, &["--json"]),
        (simulate, &["--org", "raid5", "extra"]),
        (simulate, &["--org", "raid5", "--cache"]),
        // A bad replay speed or trace scale is an error, not a panic, a
        // clamp or a silent 1x run, by the same rule for both traces.
        (
            simulate,
            &["--org", "raid5", "--trace", "trace1", "--speed", "0"],
        ),
        (
            simulate,
            &["--org", "raid5", "--trace", "trace1", "--speed", "-1"],
        ),
        (
            simulate,
            &["--org", "raid5", "--trace", "trace1", "--speed", "nan"],
        ),
        (
            simulate,
            &["--org", "raid5", "--trace", "trace1", "--speed", "1e-300"],
        ),
        (
            simulate,
            &["--org", "raid5", "--trace", "trace1", "--scale", "0"],
        ),
        (
            simulate,
            &["--org", "raid5", "--trace", "trace1", "--scale", "2"],
        ),
        (
            simulate,
            &["--org", "raid5", "--trace", "trace1", "--scale", "nan"],
        ),
        (
            simulate,
            &["--org", "raid5", "--trace", "trace1", "--scale", "-1"],
        ),
        (
            simulate,
            &["--org", "raid5", "--trace", "trace2", "--speed", "0"],
        ),
        (
            simulate,
            &["--org", "raid5", "--trace", "trace2", "--speed", "-1"],
        ),
        (
            simulate,
            &["--org", "raid5", "--trace", "trace2", "--speed", "nan"],
        ),
        (
            simulate,
            &["--org", "raid5", "--trace", "trace2", "--speed", "1e-300"],
        ),
        (
            simulate,
            &["--org", "raid5", "--trace", "trace2", "--scale", "0"],
        ),
        (
            simulate,
            &["--org", "raid5", "--trace", "trace2", "--scale", "2"],
        ),
        (
            simulate,
            &["--org", "raid5", "--trace", "trace2", "--scale", "nan"],
        ),
        (
            simulate,
            &["--org", "raid5", "--trace", "trace2", "--scale", "-1"],
        ),
        // Disk counts past u32::MAX are refused by validation, not wrapped
        // into an empty drive pool that panics mid-run.
        (simulate, &["--org", "mirror", "--n", "2147483648"]),
        (simulate, &["--org", "raid5", "--n", "4294967295"]),
    ];
    for (exe, args) in cases {
        let out = run(exe, args);
        assert_eq!(out.status.code(), Some(2), "{exe} {args:?}");
        assert!(out.stdout.is_empty(), "{exe} {args:?}");
        let stderr = text(&out.stderr);
        assert!(!stderr.is_empty(), "{exe} {args:?}");
        assert!(
            !stderr.contains("simulation panicked"),
            "{exe} {args:?}: {stderr}"
        );
    }
}

/// An id named twice, directly or through an alias (fig7 is fig6), prints
/// once, at its first place.
#[test]
fn figures_prints_an_aliased_experiment_once() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig6", "table1", "fig7"])
        .env("RAIDTP_T1_SCALE", "0.002")
        .output()
        .expect("figures runs");
    let stdout = text(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", text(&out.stderr));
    assert_eq!(stdout.matches("== Figures 6–7").count(), 1, "{stdout}");
    let fig6 = stdout.find("== Figures 6–7");
    assert!(fig6 < stdout.find("== Table 1"), "{stdout}");
}

/// `simulate --fleet` and `figures fleet` print the demo fleet through one
/// renderer: below its header, `figures fleet` prints exactly what
/// `simulate --fleet demo` prints.
#[test]
fn simulate_and_figures_print_the_same_fleet_tables() {
    let out = run(
        env!("CARGO_BIN_EXE_simulate"),
        &["--fleet", "demo", "--threads", "1"],
    );
    assert_eq!(out.status.code(), Some(0), "stderr: {}", text(&out.stderr));
    let simulate = text(&out.stdout);
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("fleet")
        .env("RAIDTP_T1_SCALE", "0.002")
        .output()
        .expect("figures runs");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", text(&out.stderr));
    let figures = text(&out.stdout);
    let (header, tables) = figures.split_once("\n\n").expect("a header line");
    assert!(header.starts_with("== Fleet: "), "{figures}");
    assert!(simulate.contains("-- per tenant --"), "{simulate}");
    assert_eq!(tables, format!("{simulate}\n"));
}
