//! The command-line contract of the `simulate`, `figures` and `ablations`
//! binaries: a misspelt option is a usage error that names it (exit 2,
//! nothing simulated), and `--help` is not an error (usage on stdout,
//! exit 0).

use std::process::{Command, Output};

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
    let cases: [(&str, &[&str]); 6] = [
        (figures, &[]),
        (figures, &["fig99"]),
        (figures, &["all", "fig99"]),
        (ablations, &["--json"]),
        (simulate, &["--org", "raid5", "extra"]),
        (simulate, &["--org", "raid5", "--cache"]),
    ];
    for (exe, args) in cases {
        let out = run(exe, args);
        assert_eq!(out.status.code(), Some(2), "{exe} {args:?}");
        assert!(out.stdout.is_empty(), "{exe} {args:?}");
        assert!(!out.stderr.is_empty(), "{exe} {args:?}");
    }
}
