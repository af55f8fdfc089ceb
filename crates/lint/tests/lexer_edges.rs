//! Lexer edge cases: the rules are only as good as the token stream, so
//! the constructs that historically desynchronize hand-rolled Rust lexers
//! — nested raw strings, lifetimes vs char literals, raw identifiers —
//! each get a test proving the stream stays in sync *through* them (a
//! flagged construct after the edge case is still seen, and string
//! contents never leak into the identifier stream). The probe is the
//! barrier rule: in a `cluster.rs`, a sink call (`take_exports`,
//! `admit_samples`) outside a `barrier-only` fn is a finding at its line.

use dacapo_lint::{lint_files, parse_file, Rule, SourceFile, TokenKind};

/// The executor anchors the barrier rule looks for, as lines 1 and 2 of
/// every probe source.
const ANCHORS: &str = "fn run_windows() {}\nfn run_until() {}\n";

/// Lexes `body` below [`ANCHORS`] as the cluster executor.
fn cluster_file(body: &str) -> SourceFile {
    SourceFile::lex("crates/core/src/cluster.rs", &format!("{ANCHORS}{body}"))
}

/// The identifier texts of `file`, in source order.
fn idents(file: &SourceFile) -> Vec<String> {
    file.tokens.iter().filter(|t| t.kind == TokenKind::Ident).map(|t| t.text.clone()).collect()
}

#[test]
fn nested_raw_strings_do_not_desynchronize_the_stream() {
    // The `"#` inside the r##-string must not terminate it early; the
    // sink call inside it must not be seen, and the one after it must.
    let file = cluster_file(
        "fn f(cam: &mut Camera) -> u32 {\n\
         let s = r##\"quote \"# cam.take_exports() still inside\"##;\n\
         cam.take_exports();\n\
         s.len() as u32\n\
         }\n",
    );
    assert_eq!(
        file.tokens.iter().filter(|t| t.text == "take_exports").count(),
        1,
        "the call inside the raw string must be literal text"
    );
    let findings = lint_files(&[file], None);
    let got: Vec<(u32, Rule)> = findings.iter().map(|d| (d.line, d.rule)).collect();
    assert_eq!(got, vec![(5, Rule::Barrier)], "findings: {findings:?}");
}

#[test]
fn raw_strings_hide_banned_text_and_plain_code_still_fires() {
    let file = cluster_file(
        "fn f(cam: &mut Camera) {\n\
         let doc = r#\"call .admit_samples() and on_share(..)\"#;\n\
         let _ = doc;\n\
         cam.admit_samples()\n\
         }\n",
    );
    let findings = lint_files(&[file], None);
    let got: Vec<(u32, Rule)> = findings.iter().map(|d| (d.line, d.rule)).collect();
    assert_eq!(got, vec![(6, Rule::Barrier)], "findings: {findings:?}");
}

#[test]
fn lifetimes_in_generic_args_are_not_char_literals() {
    // `'a` twice in generic position, then a real char literal: neither
    // may swallow the code after it.
    let src = "fn pick<'a>(side: bool, left: &'a str, right: &'a str) -> &'a str {\n\
               let marker = 'I';\n\
               let _ = marker;\n\
               if side { left } else { right }\n\
               }\n";
    let file = SourceFile::lex("crates/core/src/edge.rs", src);
    let names = idents(&file);
    assert!(names.contains(&"marker".to_string()), "idents: {names:?}");
    assert!(
        file.tokens.iter().any(|t| t.kind == TokenKind::Lifetime && t.text == "a"),
        "the 'a lifetimes must lex as lifetimes"
    );
    assert!(
        file.tokens.iter().any(|t| t.kind == TokenKind::Char),
        "'I' must lex as a char literal"
    );
    assert!(lint_files(&[file], None).is_empty());
}

#[test]
fn char_literals_do_not_hide_following_banned_calls() {
    let file = cluster_file(
        "fn f(cam: &mut Camera) {\n    let c = 'x';\n    cam.take_exports();\n    let _ = c;\n}\n",
    );
    let findings = lint_files(&[file], None);
    let got: Vec<(u32, Rule)> = findings.iter().map(|d| (d.line, d.rule)).collect();
    assert_eq!(got, vec![(5, Rule::Barrier)], "findings: {findings:?}");
}

#[test]
fn raw_identifiers_lex_as_one_token_and_parse_as_names() {
    let src = "fn r#match(r#type: u32) -> u32 {\n    r#type\n}\n";
    let file = SourceFile::lex("crates/core/src/edge.rs", src);
    let names = idents(&file);
    assert!(names.contains(&"r#match".to_string()), "idents: {names:?}");
    assert!(names.contains(&"r#type".to_string()), "idents: {names:?}");
    let parsed = parse_file(&file);
    assert!(
        parsed.fns.iter().any(|f| f.name == "r#match"),
        "parsed fns: {:?}",
        parsed.fns.iter().map(|f| f.name.clone()).collect::<Vec<_>>()
    );
}
