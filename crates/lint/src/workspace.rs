//! The workspace driver: which files are linted, and how the rule
//! families and allow-annotations compose into the final finding list.

use std::fs;
use std::path::{Path, PathBuf};

use crate::annotate::{self, FileAnnotations};
use crate::diag::{Diagnostic, Rule};
use crate::lexer::SourceFile;
use crate::parse::{self, ParsedFile};
use crate::{barrier, exhaustive, registry};

/// The deterministic library crates the source-level rules run over: the
/// ones that hold the executor, the registries and the observer hooks. The
/// same four crates deny clippy's panic / determinism / error-doc lints at
/// their crate roots; `crates/bench` and `examples/` carry the relaxed
/// clippy set and nothing here reads them.
pub const TARGET_DIRS: &[&str] =
    &["crates/core/src", "crates/datagen/src", "crates/dnn/src", "crates/telemetry/src"];

/// Lints the workspace rooted at `root`: every `.rs` file under
/// [`TARGET_DIRS`], with `README.md` for the registry-hygiene rule.
///
/// # Errors
///
/// Returns a message if a target directory cannot be read — the linter
/// must not silently pass because it was pointed at the wrong place.
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut files = Vec::new();
    for dir in TARGET_DIRS {
        let dir_path = root.join(dir);
        let mut paths = Vec::new();
        collect_rs_files(&dir_path, &mut paths)
            .map_err(|e| format!("cannot read {}: {e}", dir_path.display()))?;
        paths.sort();
        for path in paths {
            let content = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let relative =
                path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            files.push(SourceFile::lex(&relative, &content));
        }
    }
    let readme = fs::read_to_string(root.join("README.md")).ok();
    Ok(lint_files(&files, readme.as_deref()))
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints an already-lexed file set against an optional README text. This
/// is the composition point the fixture tests drive directly.
#[must_use]
pub fn lint_files(files: &[SourceFile], readme: Option<&str>) -> Vec<Diagnostic> {
    let annotations: Vec<FileAnnotations> = files.iter().map(annotate::collect).collect();
    let parsed: Vec<ParsedFile> = files.iter().map(parse::parse_file).collect();
    let mut raw = Vec::new();
    for ((file, annots), items) in files.iter().zip(&annotations).zip(&parsed) {
        raw.extend(annots.malformed.iter().cloned());
        if registry::is_registry_module(file) {
            raw.extend(registry::check(file, readme));
        }
        if barrier::is_cluster_file(&file.path) {
            raw.extend(barrier::check(items, annots));
        } else {
            raw.extend(barrier::check_misplaced(&file.path, annots));
        }
    }
    raw.extend(exhaustive::check(&parsed));
    // Allow-annotations filter the rule families; the meta-rule passes
    // through.
    let by_path: std::collections::BTreeMap<&str, &FileAnnotations> =
        files.iter().zip(&annotations).map(|(file, annots)| (file.path.as_str(), annots)).collect();
    let mut out: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|diag| {
            diag.rule == Rule::Annotation
                || !by_path
                    .get(diag.path.as_str())
                    .is_some_and(|annots| annots.allowed(diag.rule, diag.line))
        })
        .collect();
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}
