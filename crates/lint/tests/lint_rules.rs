//! Fixture-driven self-tests: each rule family is checked against a small
//! source file with findings at known lines, and a meta-test asserts the
//! real workspace lints clean.

use std::path::Path;

use dacapo_lint::{
    lint_files, lint_workspace, render_fix_diffs, to_json, to_sarif, Profile, Rule, SourceFile,
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
fn determinism_rule_flags_each_banned_construct_once() {
    let file = fixture("determinism.rs", include_str!("fixtures/determinism.rs"));
    let findings = lint_files(&[file], None);
    assert_findings(
        &findings,
        &[
            (3, Rule::Determinism),  // use .. HashMap
            (4, Rule::Determinism),  // use .. Instant
            (8, Rule::Determinism),  // HashMap::new()
            (9, Rule::Determinism),  // Instant::now()
            (10, Rule::Determinism), // std::env::var
        ],
    );
    assert!(
        findings.iter().all(|d| d.path == "crates/lint/tests/fixtures/determinism.rs"),
        "diagnostics must carry the lexed path"
    );
}

#[test]
fn panic_rule_flags_calls_and_macros_but_honors_both_annotation_forms() {
    let file = fixture("panics.rs", include_str!("fixtures/panics.rs"));
    let findings = lint_files(&[file], None);
    assert_findings(
        &findings,
        &[
            (5, Rule::Panic),  // .unwrap()
            (6, Rule::Panic),  // .expect()
            (8, Rule::Panic),  // panic!
            (11, Rule::Panic), // todo!
            (12, Rule::Panic), // unimplemented!
            (13, Rule::Panic), // unreachable!
        ],
    );
}

#[test]
fn snapshot_rule_flags_a_session_field_missing_from_the_snapshot() {
    let file = fixture("snapshot.rs", include_str!("fixtures/snapshot.rs"));
    let findings = lint_files(&[file], None);
    // The one uncovered field (`forgotten`, line 12) is the only finding:
    // same-name, as-rename, skip, and field-is-the-snapshot-type coverage
    // all hold for the rest.
    assert_findings(&findings, &[(12, Rule::Snapshot)]);
    assert!(
        findings[0].message.contains("`forgotten`")
            && findings[0].message.contains("SNAPSHOT_VERSION"),
        "message should name the field and the fix: {}",
        findings[0].message
    );
}

#[test]
fn snapshot_rule_flags_stale_skips_and_bad_renames() {
    let file = fixture("snapshot_stale.rs", include_str!("fixtures/snapshot_stale.rs"));
    let findings = lint_files(&[file], None);
    assert_findings(
        &findings,
        &[
            (6, Rule::Annotation), // skip(step) but step rides the snapshot
            (8, Rule::Snapshot),   // as(missing_target): no such field
            (9, Rule::Annotation), // skip(ghost): names no field
        ],
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
    // and `undocumented-name` fails both documentation checks.
    let lines: Vec<(u32, Rule)> = findings.iter().map(|d| (d.line, d.rule)).collect();
    assert_eq!(
        lines,
        vec![
            (19, Rule::Registry), // undocumented-name: not in module docs
            (19, Rule::Registry), // undocumented-name: not in README
            (24, Rule::Registry), // drifted-name: no builtin factory
            (24, Rule::Registry), // drifted-name: not documented as reserved
            (24, Rule::Registry), // reserved-name: no builtin factory
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
            (5, Rule::Annotation),  // allow(panic) without a reason
            (7, Rule::Annotation),  // allow(nonsense): unknown rule
            (9, Rule::Annotation),  // deny(..): unknown lint verb
            (11, Rule::Annotation), // snapshot: keep(..): unknown verb
            (13, Rule::Annotation), // snapshot: skip without a reason
        ],
    );
}

#[test]
fn exhaustiveness_rule_flags_missing_variants_and_hooks() {
    let file = fixture("exhaustive/session.rs", include_str!("fixtures/exhaustive/session.rs"));
    let findings = lint_files(&[file], None);
    // `dispatch` (line 20) never matches `Finished`; the recorder impl
    // (line 31) never defines `on_drift`; the tee impl's trailing
    // allow(exhaustiveness) absorbs its two missing hooks.
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
fn errors_rule_wants_typed_errors_and_errors_docs_on_public_results() {
    let file = fixture("errors.rs", include_str!("fixtures/errors.rs"));
    let findings = lint_files(&[file], None);
    // `undocumented` (line 21) lacks an `# Errors` section; `boxed`
    // (line 30) type-erases its error. The documented fn, the private
    // fn, and the trailing-allowed fn are all clean.
    assert_findings(&findings, &[(21, Rule::Errors), (30, Rule::Errors)]);
    assert!(findings[0].message.contains("# Errors"), "{}", findings[0].message);
    assert!(findings[0].fix.is_some(), "missing `# Errors` gets a template fix");
    assert!(findings[1].message.contains("Box<dyn Error>"), "{}", findings[1].message);
}

#[test]
fn relaxed_profile_allows_expect_but_keeps_wall_clocks_banned() {
    let src = "use std::collections::HashMap;\n\
               use std::time::Instant;\n\
               fn main() {\n\
                   let m: HashMap<u32, u32> = HashMap::new();\n\
                   let v = std::env::var(\"X\");\n\
                   let t = Instant::now();\n\
                   let x = v.expect(\"fine in binaries\");\n\
                   let y = x.len().checked_add(m.len()).unwrap();\n\
               }\n";
    let file = SourceFile::lex_profiled("crates/bench/src/bin/fixture.rs", src, Profile::Relaxed);
    let findings = lint_files(&[file], None);
    // HashMap, std::env, and .expect() are binary-appropriate; the wall
    // clock and .unwrap() stay banned.
    assert_findings(&findings, &[(2, Rule::Determinism), (6, Rule::Determinism), (8, Rule::Panic)]);
}

#[test]
fn wall_clock_files_may_read_host_clocks() {
    let src = "use std::time::Instant;\nfn stamp() -> Instant {\n    Instant::now()\n}\n";
    let file = SourceFile::lex_profiled("crates/bench/src/profile.rs", src, Profile::Relaxed);
    let findings = lint_files(&[file], None);
    assert_findings(&findings, &[]);
}

#[test]
fn sarif_output_carries_rules_and_locations() {
    let file = fixture("snapshot_stale.rs", include_str!("fixtures/snapshot_stale.rs"));
    let findings = lint_files(&[file], None);
    let sarif = to_sarif(&findings);
    assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
    assert!(sarif.contains("\"name\": \"dacapo-lint\""), "{sarif}");
    // Every rule family is described in the tool metadata.
    for rule in Rule::ALL {
        assert!(sarif.contains(&format!("\"id\": \"{}\"", rule.id())), "{sarif}");
    }
    assert!(sarif.contains("\"uri\": \"crates/lint/tests/fixtures/snapshot_stale.rs\""), "{sarif}");
    assert!(sarif.contains("\"startLine\": 9"), "{sarif}");
}

#[test]
fn fix_renders_dry_run_diffs_for_mechanical_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let stale = fixture("snapshot_stale.rs", include_str!("fixtures/snapshot_stale.rs"));
    let errors = fixture("errors.rs", include_str!("fixtures/errors.rs"));
    let findings = lint_files(&[stale, errors], None);
    let diffs = render_fix_diffs(&root, &findings);
    // The stale skip(ghost) annotation is removed outright...
    assert!(diffs.contains("--- a/crates/lint/tests/fixtures/snapshot_stale.rs"), "{diffs}");
    assert!(diffs.contains("-    // snapshot: skip(ghost) — names no field at all"), "{diffs}");
    // ...and the undocumented fn gains an `# Errors` template.
    assert!(diffs.contains("--- a/crates/lint/tests/fixtures/errors.rs"), "{diffs}");
    assert!(diffs.contains("+/// # Errors"), "{diffs}");
    // Dry run: the fixture files themselves are untouched on disk.
    let on_disk = std::fs::read_to_string(root.join("crates/lint/tests/fixtures/errors.rs"))
        .expect("fixture readable");
    assert_eq!(on_disk, include_str!("fixtures/errors.rs"));
}

#[test]
fn diagnostics_render_as_file_line_rule_message() {
    let file = fixture("snapshot.rs", include_str!("fixtures/snapshot.rs"));
    let findings = lint_files(&[file], None);
    let rendered = findings[0].to_string();
    assert!(
        rendered.starts_with("crates/lint/tests/fixtures/snapshot.rs:12: [snapshot] "),
        "unexpected rendering: {rendered}"
    );
    let json = to_json(&findings);
    assert!(json.contains("\"line\": 12"), "{json}");
    assert!(json.contains("\"rule\": \"snapshot\""), "{json}");
    assert!(json.contains("\"count\": 1"), "{json}");
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
