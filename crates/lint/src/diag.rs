//! Diagnostics: what a rule reports and how findings are rendered.

use std::fmt;

/// The rule families the linter enforces (plus the meta-rule for malformed
/// annotations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// A registry builtin missing from module docs or README, or a
    /// reserved-name list that drifted from the code.
    Registry,
    /// A `SessionEvent` variant or `SimObserver` hook that a designated
    /// handler (`dispatch`, `TelemetryRecorder`) does not handle.
    Exhaustiveness,
    /// A cross-camera mutation (share import, churn membership, offload
    /// routing, barrier metrics sampling) outside an annotated
    /// `barrier-only` function, or a barrier-only function reachable from
    /// the parallel accelerator loops.
    Barrier,
    /// A `lint:` annotation that does not parse (unknown rule or verb,
    /// missing reason) or marks nothing.
    Annotation,
}

impl Rule {
    /// The rule id as it appears in diagnostics and `allow(..)` clauses.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::Registry => "registry",
            Rule::Exhaustiveness => "exhaustiveness",
            Rule::Barrier => "barrier",
            Rule::Annotation => "annotation",
        }
    }

    /// Every rule family, in report order. Drives `--rule` validation and
    /// the SARIF rule table.
    pub const ALL: &'static [Rule] =
        &[Rule::Registry, Rule::Exhaustiveness, Rule::Barrier, Rule::Annotation];

    /// One-line description of what the family enforces (SARIF rule
    /// metadata and `--help`).
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            Rule::Registry => "registry builtins documented; reserved-name lists match the code",
            Rule::Exhaustiveness => {
                "every SessionEvent variant and SimObserver hook handled by its designated handler"
            }
            Rule::Barrier => {
                "cross-camera state mutates only in barrier-only fns on single-threaded paths"
            }
            Rule::Annotation => "every lint: annotation parses and carries a reason",
        }
    }

    /// Parses a rule id from an `allow(<rule>)` clause. The meta-rule
    /// [`Rule::Annotation`] is not allowable and not recognised here.
    #[must_use]
    pub fn from_id(id: &str) -> Option<Rule> {
        match id {
            "registry" => Some(Rule::Registry),
            "exhaustiveness" => Some(Rule::Exhaustiveness),
            "barrier" => Some(Rule::Barrier),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// A mechanical edit a finding can carry; `--fix` renders these as
/// dry-run unified diffs (never applied in place).
#[derive(Debug, Clone)]
pub enum FixKind {
    /// Delete a stale `// lint:` annotation comment: the
    /// whole line when the comment stands alone, just the comment when it
    /// trails code.
    RemoveAnnotation,
    /// Insert the given lines immediately before `line` (1-based), at that
    /// line's indentation.
    InsertBefore {
        /// The line the new text goes above.
        line: u32,
        /// The lines to insert, unindented.
        lines: Vec<String>,
    },
}

/// One finding: `file:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// The rule family that fired.
    pub rule: Rule,
    /// Human-readable description of the violation and the fix.
    pub message: String,
    /// A mechanical fix, when the finding has one (`--fix`).
    pub fix: Option<FixKind>,
}

impl Diagnostic {
    /// Builds a finding.
    #[must_use]
    pub fn new(path: &str, line: u32, rule: Rule, message: impl Into<String>) -> Self {
        Self { path: path.to_string(), line, rule, message: message.into(), fix: None }
    }

    /// Attaches a mechanical fix rendered by `--fix`.
    #[must_use]
    pub fn with_fix(mut self, fix: FixKind) -> Self {
        self.fix = Some(fix);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// Renders findings as a JSON report (`--format json`):
/// `{"findings": [{"file", "line", "rule", "message"}, ..], "count": N}`.
///
/// Hand-rolled so the linter stays zero-dependency; only the escapes JSON
/// requires for the message strings are applied.
#[must_use]
pub fn to_json(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, diag) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"file\": ");
        out.push_str(&json_string(&diag.path));
        out.push_str(&format!(", \"line\": {}, \"rule\": ", diag.line));
        out.push_str(&json_string(diag.rule.id()));
        out.push_str(", \"message\": ");
        out.push_str(&json_string(&diag.message));
        out.push('}');
    }
    if !diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!("],\n  \"count\": {}\n}}\n", diagnostics.len()));
    out
}

/// Escapes `text` as a JSON string literal, quotes included (shared with
/// the SARIF renderer).
pub(crate) fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
