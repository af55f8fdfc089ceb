//! The allow-annotation grammar.
//!
//! Two comment forms carry lint metadata, and each makes the *reason*
//! mandatory — an annotation without a justification is itself a finding:
//!
//! - `// lint: allow(<rule>) — <reason>` exempts code from `<rule>`
//!   (`registry`, `exhaustiveness`, or `barrier`). A trailing comment
//!   exempts its own line; a standalone comment exempts the statement that
//!   follows (through its terminating `;` or `,`), so a method chain
//!   wrapped over several lines needs only one annotation.
//! - `// lint: barrier-only(<reason>)` marks the function that follows as
//!   a *barrier-only* mutation point: it touches cross-camera shared state
//!   and may execute only on the single-threaded window-barrier call paths
//!   (see the `barrier` rule). The reason goes inside the parentheses.
//!
//! Panic-freedom, determinism and error documentation are clippy's now, so
//! their opt-outs are `#[expect(clippy::.., reason = "..")]` attributes —
//! which the compiler itself reports when they go stale — not comments.
//!
//! Doc comments (`///`, `//!`) never carry annotations, so documentation
//! *about* the grammar cannot accidentally invoke it.

use crate::diag::{Diagnostic, Rule};
use crate::lexer::SourceFile;

/// One parsed `lint: allow(..)` annotation, resolved to the code lines it
/// exempts.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule being allowed.
    pub rule: Rule,
    /// First exempted line.
    pub start: u32,
    /// Last exempted line (the end of the annotated statement).
    pub end: u32,
}

/// One parsed `lint: barrier-only(<reason>)` annotation, resolved to the
/// first code line of the function item it marks.
#[derive(Debug, Clone)]
pub struct BarrierOnly {
    /// The mandatory justification from inside the parentheses.
    pub reason: String,
    /// The comment's own line (for stale-annotation findings).
    pub line: u32,
    /// The first code line of the annotated item (the barrier rule matches
    /// this against parsed `fn` items).
    pub target: u32,
}

/// Every annotation in one file, plus the findings for malformed ones.
#[derive(Debug, Default)]
pub struct FileAnnotations {
    /// `lint: allow(..)` exemptions.
    pub allows: Vec<Allow>,
    /// `lint: barrier-only(..)` markers.
    pub barrier_only: Vec<BarrierOnly>,
    /// Annotations that failed to parse.
    pub malformed: Vec<Diagnostic>,
}

impl FileAnnotations {
    /// Whether `rule` is allowed on `line`.
    #[must_use]
    pub fn allowed(&self, rule: Rule, line: u32) -> bool {
        self.allows.iter().any(|a| a.rule == rule && (a.start..=a.end).contains(&line))
    }
}

/// Parses every annotation comment in `file`.
#[must_use]
pub fn collect(file: &SourceFile) -> FileAnnotations {
    let mut out = FileAnnotations::default();
    for comment in &file.comments {
        if comment.doc {
            continue;
        }
        let text = comment.text.trim();
        if let Some(rest) = text.strip_prefix("lint:") {
            parse_lint(file, comment.line, comment.trailing, rest.trim(), &mut out);
        }
    }
    out
}

/// Resolves the code line an annotation applies to: its own line for a
/// trailing comment, the next line carrying code for a standalone one.
fn target_line(file: &SourceFile, comment_line: u32, trailing: bool) -> u32 {
    if trailing {
        return comment_line;
    }
    file.tokens.iter().map(|t| t.line).filter(|&l| l > comment_line).min().unwrap_or(comment_line)
}

/// Resolves the line range an `allow` exempts: its own line for a trailing
/// comment; for a standalone comment, the whole statement that follows —
/// from the next code line through the token that ends the statement (a `;`
/// or `,` at bracket depth zero, or the closing bracket of the enclosing
/// block for tail expressions).
fn target_range(file: &SourceFile, comment_line: u32, trailing: bool) -> (u32, u32) {
    if trailing {
        return (comment_line, comment_line);
    }
    let Some(first) = file.tokens.iter().position(|t| t.line > comment_line) else {
        return (comment_line, comment_line);
    };
    let start = file.tokens[first].line;
    let mut end = start;
    let mut depth: i32 = 0;
    for token in &file.tokens[first..] {
        match token.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    // The enclosing block closed: the annotated code was a
                    // tail expression and ended on the previous token.
                    break;
                }
            }
            ";" | "," if depth == 0 => {
                end = token.line;
                break;
            }
            _ => {}
        }
        end = token.line;
    }
    (start, end)
}

fn parse_lint(file: &SourceFile, line: u32, trailing: bool, rest: &str, out: &mut FileAnnotations) {
    let Some((verb, argument, reason)) = parse_clause(rest) else {
        out.malformed.push(Diagnostic::new(
            &file.path,
            line,
            Rule::Annotation,
            "malformed annotation — expected `// lint: allow(<rule>) — <reason>`",
        ));
        return;
    };
    if verb == "barrier-only" {
        // The argument *is* the reason: `// lint: barrier-only(<reason>)`.
        out.barrier_only.push(BarrierOnly {
            reason: argument,
            line,
            target: target_line(file, line, trailing),
        });
        return;
    }
    if verb != "allow" {
        out.malformed.push(Diagnostic::new(
            &file.path,
            line,
            Rule::Annotation,
            format!(
                "unknown lint verb `{verb}` — only `allow(<rule>)` and \
                 `barrier-only(<reason>)` are recognised"
            ),
        ));
        return;
    }
    let Some(rule) = Rule::from_id(&argument) else {
        out.malformed.push(Diagnostic::new(
            &file.path,
            line,
            Rule::Annotation,
            format!(
                "unknown rule `{argument}` in allow — expected one of \
                 registry, exhaustiveness, barrier"
            ),
        ));
        return;
    };
    if reason.is_empty() {
        out.malformed.push(Diagnostic::new(
            &file.path,
            line,
            Rule::Annotation,
            format!("allow({argument}) without a reason — write `// lint: allow({argument}) — <why this is safe>`"),
        ));
        return;
    }
    let (start, end) = target_range(file, line, trailing);
    out.allows.push(Allow { rule, start, end });
}

/// Parses `<verb>(<argument>) — <reason>` into its three parts. The reason
/// separator may be an em dash (`—`), `--`, or `-`; the returned reason is
/// trimmed and may be empty (callers enforce non-emptiness so they can
/// phrase the error).
fn parse_clause(text: &str) -> Option<(String, String, String)> {
    let open = text.find('(')?;
    let close = text.find(')')?;
    if close < open {
        return None;
    }
    let verb = text[..open].trim();
    if verb.is_empty() || !verb.chars().all(|c| c.is_ascii_alphabetic() || c == '-') {
        return None;
    }
    let argument = text[open + 1..close].trim();
    if argument.is_empty() {
        return None;
    }
    let mut reason = text[close + 1..].trim();
    for separator in ["\u{2014}", "--", "-"] {
        if let Some(stripped) = reason.strip_prefix(separator) {
            reason = stripped;
            break;
        }
    }
    Some((verb.to_string(), argument.to_string(), reason.trim().to_string()))
}
