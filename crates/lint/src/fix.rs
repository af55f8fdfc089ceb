//! Dry-run autofix rendering (`--fix`): unified diffs for the mechanical
//! findings, never applied in place.
//!
//! Two fix shapes exist (see [`FixKind`]): deleting a stale `// lint:`
//! annotation, and inserting template lines (a `barrier-only` marker)
//! above an item at its indentation. The renderer re-reads the files under the lint root,
//! applies the edits to an in-memory copy, and prints standard
//! `--- a/..` / `+++ b/..` hunks with two lines of context — reviewable
//! with any diff tool, applicable with `patch -p1` if the template text
//! is what you want.

use crate::diag::{Diagnostic, FixKind};
use std::collections::BTreeMap;
use std::path::Path;

/// Lines of unchanged context around each hunk.
const CONTEXT: usize = 2;

/// One localized line edit, anchored at a 1-based old-file line.
struct Change {
    old_line: usize,
    removed: Vec<String>,
    added: Vec<String>,
}

/// Renders every finding that carries a fix as a unified diff against the
/// files under `root`. Returns the concatenated diffs (empty when nothing
/// is fixable).
#[must_use]
pub fn render_diffs(root: &Path, findings: &[Diagnostic]) -> String {
    let mut by_path: BTreeMap<&str, Vec<&Diagnostic>> = BTreeMap::new();
    for diag in findings.iter().filter(|d| d.fix.is_some()) {
        by_path.entry(&diag.path).or_default().push(diag);
    }
    let mut out = String::new();
    for (path, diags) in by_path {
        let Ok(content) = std::fs::read_to_string(root.join(path)) else {
            out.push_str(&format!("# cannot read {path} — fix skipped\n"));
            continue;
        };
        let old_lines: Vec<&str> = content.lines().collect();
        let changes = build_changes(&old_lines, &diags);
        if changes.is_empty() {
            continue;
        }
        out.push_str(&format!("--- a/{path}\n+++ b/{path}\n"));
        out.push_str(&render_hunks(&old_lines, &changes));
    }
    out
}

/// Translates fixes into concrete line edits, deduplicated and sorted.
fn build_changes(old_lines: &[&str], diags: &[&Diagnostic]) -> Vec<Change> {
    let mut changes: Vec<Change> = Vec::new();
    for diag in diags {
        let change = match &diag.fix {
            Some(FixKind::RemoveAnnotation) => remove_annotation(old_lines, diag.line as usize),
            Some(FixKind::InsertBefore { line, lines }) => {
                let at = *line as usize;
                let indent: String = old_lines
                    .get(at.saturating_sub(1))
                    .map(|l| l.chars().take_while(|c| c.is_whitespace()).collect())
                    .unwrap_or_default();
                Some(Change {
                    old_line: at,
                    removed: Vec::new(),
                    added: lines.iter().map(|l| format!("{indent}{l}")).collect(),
                })
            }
            None => None,
        };
        if let Some(change) = change {
            let duplicate = changes.iter().any(|c| {
                c.old_line == change.old_line
                    && c.removed == change.removed
                    && c.added == change.added
            });
            if !duplicate {
                changes.push(change);
            }
        }
    }
    // Inserts (no removed span) sort before a removal at the same line.
    changes.sort_by_key(|c| (c.old_line, !c.removed.is_empty()));
    changes
}

/// The edit that deletes the annotation comment on `line`: the whole line
/// when the comment stands alone, a trailing-comment trim otherwise.
fn remove_annotation(old_lines: &[&str], line: usize) -> Option<Change> {
    let original = *old_lines.get(line.checked_sub(1)?)?;
    let marker = original.rfind("// lint:")?;
    let prefix = &original[..marker];
    if prefix.trim().is_empty() {
        Some(Change { old_line: line, removed: vec![original.to_string()], added: Vec::new() })
    } else {
        Some(Change {
            old_line: line,
            removed: vec![original.to_string()],
            added: vec![prefix.trim_end().to_string()],
        })
    }
}

/// Emits unified-diff hunks for the sorted `changes`, merging edits whose
/// context windows touch.
fn render_hunks(old: &[&str], changes: &[Change]) -> String {
    let mut out = String::new();
    let mut delta: isize = 0;
    let mut i = 0;
    while i < changes.len() {
        // Grow the group while the next change's context overlaps.
        let mut j = i;
        let mut span_end = changes[i].old_line + changes[i].removed.len();
        while j + 1 < changes.len() && changes[j + 1].old_line <= span_end + 2 * CONTEXT {
            j += 1;
            span_end = span_end.max(changes[j].old_line + changes[j].removed.len());
        }
        let start = changes[i].old_line.saturating_sub(CONTEXT).max(1);
        let end = (span_end - 1 + CONTEXT).min(old.len());
        let mut body = String::new();
        let mut old_count = 0usize;
        let mut new_count = 0usize;
        let mut line = start;
        let mut k = i;
        while line <= end || k <= j {
            if k <= j && changes[k].old_line == line {
                let change = &changes[k];
                for added in &change.added {
                    body.push('+');
                    body.push_str(added);
                    body.push('\n');
                    new_count += 1;
                }
                for removed in &change.removed {
                    body.push('-');
                    body.push_str(removed);
                    body.push('\n');
                    old_count += 1;
                }
                line += change.removed.len();
                k += 1;
            } else if line <= end {
                if let Some(text) = old.get(line - 1) {
                    body.push(' ');
                    body.push_str(text);
                    body.push('\n');
                    old_count += 1;
                    new_count += 1;
                }
                line += 1;
            } else {
                break;
            }
        }
        let new_start = (start as isize + delta).max(1);
        out.push_str(&format!("@@ -{start},{old_count} +{new_start},{new_count} @@\n"));
        out.push_str(&body);
        delta += new_count as isize - old_count as isize;
        i = j + 1;
    }
    out
}
