//! The `dacapo-lint` binary: lints the workspace and exits non-zero on
//! any finding. See the crate docs for the rules and annotation grammar.
//!
//! Exit codes: `0` clean, `1` findings, `2` usage error (bad flag, or a
//! `--root` that is not a workspace).

use std::path::PathBuf;
use std::process::ExitCode;

use dacapo_lint::{lint_workspace, render_fix_diffs, to_json, to_sarif, Rule};

/// How findings are printed.
enum Format {
    /// `file:line: [rule] message`, one per line, plus a summary.
    Text,
    /// A machine-readable JSON report (for the CI artifact).
    Json,
    /// SARIF 2.1.0 (for GitHub code scanning).
    Sarif,
}

fn main() -> ExitCode {
    let mut format = Format::Text;
    let mut root = PathBuf::from(".");
    let mut rules: Vec<Rule> = Vec::new();
    let mut fix = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("json") => format = Format::Json,
                Some("text") => format = Format::Text,
                Some("sarif") => format = Format::Sarif,
                other => {
                    eprintln!(
                        "dacapo-lint: --format expects `text`, `json`, or `sarif`, got {:?}",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(path) => root = PathBuf::from(path),
                None => {
                    eprintln!("dacapo-lint: --root expects a path");
                    return ExitCode::from(2);
                }
            },
            "--rule" => match args.next().as_deref().and_then(Rule::from_id) {
                Some(rule) => rules.push(rule),
                None => {
                    let ids: Vec<&str> = Rule::ALL
                        .iter()
                        .filter(|r| **r != Rule::Annotation)
                        .map(|r| r.id())
                        .collect();
                    eprintln!("dacapo-lint: --rule expects one of {}", ids.join(", "));
                    return ExitCode::from(2);
                }
            },
            "--fix" => fix = true,
            "--help" | "-h" => {
                println!(
                    "dacapo-lint — workspace invariant checker\n\n\
                     USAGE: dacapo-lint [--root <workspace-root>] [--format text|json|sarif]\n\
                     \x20                 [--rule <family>].. [--fix]\n\n\
                     Rule families (--rule filters to the named ones; repeatable):"
                );
                for rule in Rule::ALL {
                    println!("  {:<15} {}", rule.id(), rule.describe());
                }
                println!(
                    "\n--fix prints dry-run unified diffs for the mechanical findings\n\
                     (stale annotations, missing `barrier-only` markers); nothing is\n\
                     written. Exits 1 on findings, 2 on usage errors."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("dacapo-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    // Validate the root before linting: a typo'd --root must be a loud
    // usage error, not an empty-but-green report.
    let root = match root.canonicalize() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("dacapo-lint: cannot resolve --root {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let manifest = root.join("Cargo.toml");
    let is_workspace =
        std::fs::read_to_string(&manifest).is_ok_and(|content| content.contains("[workspace]"));
    if !is_workspace {
        eprintln!(
            "dacapo-lint: {} is not a workspace root (no Cargo.toml with a [workspace] table)",
            root.display()
        );
        return ExitCode::from(2);
    }
    let mut findings = match lint_workspace(&root) {
        Ok(findings) => findings,
        Err(message) => {
            eprintln!("dacapo-lint: {message}");
            return ExitCode::from(2);
        }
    };
    if !rules.is_empty() {
        findings.retain(|f| rules.contains(&f.rule));
    }
    match format {
        Format::Text => {
            for finding in &findings {
                println!("{finding}");
            }
            if findings.is_empty() {
                eprintln!("dacapo-lint: workspace clean");
            } else {
                eprintln!("dacapo-lint: {} finding(s)", findings.len());
            }
        }
        Format::Json => print!("{}", to_json(&findings)),
        Format::Sarif => print!("{}", to_sarif(&findings)),
    }
    if fix {
        let diffs = render_fix_diffs(&root, &findings);
        let fixable = findings.iter().filter(|f| f.fix.is_some()).count();
        if diffs.is_empty() {
            eprintln!("dacapo-lint: no mechanical fixes for these findings");
        } else {
            print!("{diffs}");
            eprintln!(
                "dacapo-lint: {fixable} finding(s) with mechanical fixes — diffs are \
                 dry-run only, nothing was written"
            );
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
