//! End-to-end tests of the `dacapo-lint` binary: exit codes, root
//! validation, and the output/filter flags.

use std::path::Path;
use std::process::{Command, Output};

/// Runs the built binary with `args` from the workspace root.
fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dacapo-lint"))
        .args(args)
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .output()
        .expect("binary runs")
}

#[test]
fn the_workspace_lints_clean_through_the_binary() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("workspace clean"));
}

#[test]
fn a_missing_root_is_a_usage_error_not_a_green_report() {
    let out = run(&["--root", "/nonexistent/definitely-not-here"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot resolve --root"));
}

#[test]
fn a_non_workspace_root_is_a_usage_error() {
    // The lint crate's own directory has a Cargo.toml but no [workspace].
    let out = run(&["--root", "crates/lint"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not a workspace root"));
}

#[test]
fn unknown_flags_and_rules_exit_two() {
    assert_eq!(run(&["--frobnicate"]).status.code(), Some(2));
    // A made-up name, and the four families that moved to types and clippy.
    for name in ["nonsense", "snapshot", "panic", "determinism", "errors"] {
        let out = run(&["--rule", name]);
        assert_eq!(out.status.code(), Some(2), "--rule {name}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("barrier") && stderr.contains("exhaustiveness"), "{stderr}");
    }
}

#[test]
fn rule_filters_and_sarif_format_compose() {
    let out = run(&["--rule", "barrier", "--rule", "registry", "--format", "sarif"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"version\": \"2.1.0\""), "{stdout}");
    assert!(stdout.contains("\"name\": \"dacapo-lint\""), "{stdout}");
    assert!(stdout.contains("\"results\": ["), "{stdout}");
}

#[test]
fn fix_on_a_clean_workspace_reports_nothing_to_do() {
    let out = run(&["--fix"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no mechanical fixes"));
}

#[test]
fn help_lists_every_rule_family() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in ["registry", "exhaustiveness", "barrier", "annotation"] {
        assert!(stdout.contains(id), "missing {id} in:\n{stdout}");
    }
}
