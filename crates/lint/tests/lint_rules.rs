//! Fixture-driven self-tests: each rule family is checked against a small
//! source file with findings at known lines, and a meta-test asserts the
//! real workspace lints clean.

use std::path::Path;

use dacapo_lint::{
    lint_files, lint_workspace, render_fix_diffs, to_json, to_sarif, Rule, SourceFile,
};

/// Lexes one fixture from `tests/fixtures/` under its repo-relative path.
fn fixture(name: &str, content: &str) -> SourceFile {
    SourceFile::lex(&format!("crates/lint/tests/fixtures/{name}"), content)
}

/// Asserts `diagnostics` is exactly `expected` as `(line, rule)` pairs, in
/// the driver's (path, line, rule) order.
#[track_caller]
fn assert_findings(diagnostics: &[dacapo_lint::Diagnostic], expected: &[(u32, Rule)]) {
    let got: Vec<(u32, Rule)> = diagnostics.iter().map(|d| (d.line, d.rule)).collect();
    assert_eq!(
        got,
        expected,
        "findings:\n{}",
        diagnostics.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn registry_rule_flags_undocumented_builtins_and_drifted_reserved_lists() {
    let file = fixture("registry.rs", include_str!("fixtures/registry.rs"));
    let readme = "The `good-name` widget and the `reserved-name` placeholder.";
    let findings = lint_files(&[file], Some(readme));
    // `good-name` is fully clean: documented in module docs and README.
    // `reserved-name` is documented as reserved but has no factory, so the
    // drift check still fires; `drifted-name` fails both reserved checks,
    // `undocumented-name` fails both documentation checks, and the equally
    // undocumented `excused-name` (line 29) is absorbed by the standalone
    // `lint: allow(registry)` above its fn.
    let lines: Vec<(u32, Rule)> = findings.iter().map(|d| (d.line, d.rule)).collect();
    assert_eq!(
        lines,
        vec![
            (19, Rule::Registry), // undocumented-name: not in module docs
            (19, Rule::Registry), // undocumented-name: not in README
            (34, Rule::Registry), // drifted-name: no builtin factory
            (34, Rule::Registry), // drifted-name: not documented as reserved
            (34, Rule::Registry), // reserved-name: no builtin factory
        ],
        "findings:\n{}",
        findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn malformed_annotations_are_findings_under_the_meta_rule() {
    let file = fixture("annotations.rs", include_str!("fixtures/annotations.rs"));
    let findings = lint_files(&[file], None);
    assert_findings(
        &findings,
        &[
            (5, Rule::Annotation),  // allow(barrier) without a reason
            (7, Rule::Annotation),  // allow(nonsense): unknown rule
            (9, Rule::Annotation),  // deny(..): unknown lint verb
            (11, Rule::Annotation), // allow(panic): a family clippy owns now
            (13, Rule::Annotation), // no `verb(argument)` clause at all
        ],
    );
}

#[test]
fn exhaustiveness_rule_flags_missing_variants_and_hooks() {
    let file = fixture("exhaustive/session.rs", include_str!("fixtures/exhaustive/session.rs"));
    let findings = lint_files(&[file], None);
    // `dispatch` (line 20) never matches `Finished`; the recorder impl
    // (line 31) never defines `on_drift`; the second `dispatch` (line 39)
    // handles one variant of three, and its trailing
    // allow(exhaustiveness) absorbs both findings.
    assert_findings(&findings, &[(20, Rule::Exhaustiveness), (31, Rule::Exhaustiveness)]);
    assert!(
        findings[0].message.contains("SessionEvent::Finished"),
        "the unhandled variant must be named: {}",
        findings[0].message
    );
    assert!(
        findings[1].message.contains("on_drift"),
        "the missing hook must be named: {}",
        findings[1].message
    );
}

#[test]
fn exhaustiveness_rule_reports_anchor_drift_instead_of_passing_silently() {
    // A handler with no enum in sight: the anchor drifted, say so.
    let orphan = SourceFile::lex("crates/core/src/session.rs", "fn dispatch() {}\n");
    let findings = lint_files(&[orphan], None);
    assert_findings(&findings, &[(1, Rule::Exhaustiveness)]);
    assert!(findings[0].message.contains("anchor drifted"), "{}", findings[0].message);

    // The enum with no handler anywhere: same, anchored at the enum.
    let src = "pub enum SessionEvent {\n    Finished,\n}\n";
    let unhandled = SourceFile::lex("crates/core/src/session.rs", src);
    let findings = lint_files(&[unhandled], None);
    assert_findings(&findings, &[(1, Rule::Exhaustiveness)]);
    assert!(findings[0].message.contains("no `dispatch` handler"), "{}", findings[0].message);

    // A same-named fn outside the scoping file is not the handler.
    let elsewhere = SourceFile::lex(
        "crates/core/src/cluster.rs",
        "fn dispatch() {}\nfn run_until() {}\nfn run_windows() {}\n",
    );
    assert_findings(&lint_files(&[elsewhere], None), &[]);
}

#[test]
fn barrier_rule_flags_parallel_sink_calls_and_off_barrier_edges() {
    let file = fixture("barrier/cluster.rs", include_str!("fixtures/barrier/cluster.rs"));
    let findings = lint_files(&[file], None);
    assert_findings(
        &findings,
        &[
            (29, Rule::Barrier),    // step: share export moved into the parallel loop
            (33, Rule::Barrier),    // sneaky: off-barrier edge into exchange_window
            (37, Rule::Barrier),    // racy_share: barrier fn reachable from run_until
            (42, Rule::Barrier),    // helper: off-barrier edge into racy_share
            (45, Rule::Annotation), // stale barrier-only before a struct
        ],
    );
    // The clean path — run_windows -> exchange_window with its sink
    // calls — produced no findings, and each message names the actors.
    assert!(findings[0].message.contains("take_exports"), "{}", findings[0].message);
    assert!(findings[1].message.contains("exchange_window"), "{}", findings[1].message);
    assert!(findings[2].message.contains("racy_share"), "{}", findings[2].message);
    assert!(findings[0].fix.is_some(), "sink-call findings carry an annotation template fix");
    assert!(findings[4].fix.is_some(), "stale annotations carry a removal fix");
}

#[test]
fn barrier_rule_reports_anchor_drift_instead_of_checking_nothing() {
    // An executor whose driver was renamed: the barrier fn is annotated and
    // only called from `run_everything`, which the rule does not know — so
    // besides the off-barrier edge it must say the driver anchor is gone.
    let src = "// lint: barrier-only(between windows)\nfn exchange_window() {}\n\
               fn run_everything() {\n    run_until();\n    exchange_window();\n}\n\
               fn run_until() {}\n";
    let renamed = SourceFile::lex("crates/core/src/cluster.rs", src);
    let findings = lint_files(&[renamed], None);
    assert_findings(&findings, &[(1, Rule::Barrier), (5, Rule::Barrier)]);
    assert!(findings[0].message.contains("barrier driver"), "{}", findings[0].message);
    assert!(findings[0].message.contains("run_windows"), "{}", findings[0].message);
}

#[test]
fn barrier_only_markers_outside_cluster_files_are_flagged() {
    let src = "// lint: barrier-only(misplaced)\nfn quiet() {}\n";
    let file = SourceFile::lex("crates/core/src/session.rs", src);
    let findings = lint_files(&[file], None);
    assert_findings(&findings, &[(1, Rule::Annotation)]);
    assert!(findings[0].message.contains("cluster.rs"), "{}", findings[0].message);
}

#[test]
fn sarif_output_carries_rules_and_locations() {
    let file = fixture("barrier/cluster.rs", include_str!("fixtures/barrier/cluster.rs"));
    let findings = lint_files(&[file], None);
    let sarif = to_sarif(&findings);
    assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
    assert!(sarif.contains("\"name\": \"dacapo-lint\""), "{sarif}");
    // Every rule family is described in the tool metadata.
    for rule in Rule::ALL {
        assert!(sarif.contains(&format!("\"id\": \"{}\"", rule.id())), "{sarif}");
    }
    assert!(
        sarif.contains("\"uri\": \"crates/lint/tests/fixtures/barrier/cluster.rs\""),
        "{sarif}"
    );
    assert!(sarif.contains("\"startLine\": 45"), "{sarif}");
}

#[test]
fn fix_renders_dry_run_diffs_for_mechanical_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let file = fixture("barrier/cluster.rs", include_str!("fixtures/barrier/cluster.rs"));
    let findings = lint_files(&[file], None);
    let diffs = render_fix_diffs(&root, &findings);
    assert!(diffs.contains("--- a/crates/lint/tests/fixtures/barrier/cluster.rs"), "{diffs}");
    // The stale marker before the struct is removed outright...
    assert!(
        diffs.contains("-// lint: barrier-only(stale — nothing follows but a struct)"),
        "{diffs}"
    );
    // ...and the fn calling a sink from the parallel loop gains a marker
    // template.
    assert!(diffs.contains("+// lint: barrier-only("), "{diffs}");
    // Dry run: the fixture file itself is untouched on disk.
    let on_disk =
        std::fs::read_to_string(root.join("crates/lint/tests/fixtures/barrier/cluster.rs"))
            .expect("fixture readable");
    assert_eq!(on_disk, include_str!("fixtures/barrier/cluster.rs"));
}

#[test]
fn diagnostics_render_as_file_line_rule_message() {
    let file = fixture("exhaustive/session.rs", include_str!("fixtures/exhaustive/session.rs"));
    let findings = lint_files(&[file], None);
    let rendered = findings[0].to_string();
    assert!(
        rendered
            .starts_with("crates/lint/tests/fixtures/exhaustive/session.rs:20: [exhaustiveness] "),
        "unexpected rendering: {rendered}"
    );
    let json = to_json(&findings);
    assert!(json.contains("\"line\": 20"), "{json}");
    assert!(json.contains("\"rule\": \"exhaustiveness\""), "{json}");
    assert!(json.contains("\"count\": 2"), "{json}");
}

#[test]
fn the_real_workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lint_workspace(&root).expect("workspace layout is readable");
    assert!(
        findings.is_empty(),
        "the workspace must lint clean; findings:\n{}",
        findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}
