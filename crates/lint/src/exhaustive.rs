//! The exhaustiveness rule: event variants and observer hooks must be
//! handled where the executor promises they are.
//!
//! PR 8 established two dispatch invariants that previously only tests
//! enforced:
//!
//! - `SessionEvent::dispatch` (`session.rs`, the one dispatch shared by
//!   `Session::run_with` and the cluster executor) sends every
//!   `SessionEvent` variant to its typed observer hook (the catch-all
//!   `on_event` fires first, then the typed hook). A new variant that
//!   `dispatch` does not mention compiles fine once someone adds a `_`
//!   arm — and then silently never reaches `on_phase`-style hooks.
//! - `TelemetryRecorder` implements *every* `SimObserver` hook: it is the
//!   recorder of what a run did, so a hook added to the trait with a
//!   default body vanishes from traces and metrics unless someone
//!   remembers to mirror it.
//!
//! This rule checks both statically. A handler function listed in
//! [`HANDLER_FNS`] must mention `Enum::Variant` for every variant of its
//! enum; an implementation listed in [`FULL_IMPLS`] must define every
//! trait method. Opt-out is the ordinary annotation grammar —
//! `// lint: allow(exhaustiveness) — <reason>` on the handler or impl
//! line — so deliberate partial handlers document themselves.
//!
//! Anchor drift is also a finding: if the enum exists but no handler
//! function does (or vice versa), the rule says so instead of silently
//! checking nothing.

use crate::diag::{Diagnostic, Rule};
use crate::parse::{FnItem, ParsedFile};

/// Enum → handler-function anchors: every variant of the enum must appear
/// as `Enum::Variant` inside every function with the handler name in files
/// with the given name (the scope keeps unrelated same-named fns out of
/// the net).
pub const HANDLER_FNS: &[(&str, &str, &str)] = &[("SessionEvent", "dispatch", "session.rs")];

/// Whether `path` is (or ends with) the scoping file name.
fn in_scope(path: &str, file_name: &str) -> bool {
    path == file_name || path.ends_with(&format!("/{file_name}"))
}

/// Trait → implementor pairs that must define every trait method.
pub const FULL_IMPLS: &[(&str, &str)] = &[("SimObserver", "TelemetryRecorder")];

/// Runs the exhaustiveness rule over the parsed files.
#[must_use]
pub fn check(parsed: &[ParsedFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (enum_name, handler_name, file_name) in HANDLER_FNS {
        check_handler(parsed, enum_name, handler_name, file_name, &mut out);
    }
    for (trait_name, type_name) in FULL_IMPLS {
        check_impl(parsed, trait_name, type_name, &mut out);
    }
    out
}

fn check_handler(
    parsed: &[ParsedFile],
    enum_name: &str,
    handler_name: &str,
    file_name: &str,
    out: &mut Vec<Diagnostic>,
) {
    let enum_def = parsed.iter().find_map(|file| {
        file.enums.iter().find(|e| !e.in_test && e.name == enum_name).map(|e| (file, e))
    });
    let handlers: Vec<(&ParsedFile, &FnItem)> = parsed
        .iter()
        .filter(|file| in_scope(&file.path, file_name))
        .flat_map(|file| {
            file.fns.iter().filter(|f| !f.in_test && f.name == handler_name).map(move |f| (file, f))
        })
        .collect();
    let Some((enum_file, enum_def)) = enum_def else {
        // Anchor drift: handlers exist but the enum is gone/renamed.
        for (file, handler) in handlers {
            out.push(Diagnostic::new(
                &file.path,
                handler.line,
                Rule::Exhaustiveness,
                format!(
                    "handler `{handler_name}` exists but enum `{enum_name}` was not found — \
                     the exhaustiveness anchor drifted (update HANDLER_FNS in the linter)"
                ),
            ));
        }
        return;
    };
    if handlers.is_empty() {
        out.push(Diagnostic::new(
            &enum_file.path,
            enum_def.line,
            Rule::Exhaustiveness,
            format!(
                "`{enum_name}` has no `{handler_name}` handler in the linted files — \
                 the event-dispatch anchor drifted (update HANDLER_FNS in the linter)"
            ),
        ));
        return;
    }
    for (file, handler) in handlers {
        for (variant, _) in &enum_def.variants {
            if !handler.mentions_variant(enum_name, variant) {
                out.push(Diagnostic::new(
                    &file.path,
                    handler.line,
                    Rule::Exhaustiveness,
                    format!(
                        "`{handler_name}` does not handle `{enum_name}::{variant}` — dispatch \
                         every variant to its typed hook, or annotate the handler with \
                         `// lint: allow(exhaustiveness) — <reason>`"
                    ),
                ));
            }
        }
    }
}

fn check_impl(parsed: &[ParsedFile], trait_name: &str, type_name: &str, out: &mut Vec<Diagnostic>) {
    let Some(trait_def) =
        parsed.iter().flat_map(|f| &f.traits).find(|t| !t.in_test && t.name == trait_name)
    else {
        return;
    };
    let Some((struct_file, &(_, struct_line))) = parsed.iter().find_map(|file| {
        file.structs.iter().find(|(name, _)| name == type_name).map(|s| (file, s))
    }) else {
        return;
    };
    let implementation = parsed.iter().find_map(|file| {
        file.impls
            .iter()
            .find(|i| {
                !i.in_test
                    && i.type_name == type_name
                    && i.trait_name.as_deref() == Some(trait_name)
            })
            .map(|i| (file, i))
    });
    let Some((impl_file, implementation)) = implementation else {
        out.push(Diagnostic::new(
            &struct_file.path,
            struct_line,
            Rule::Exhaustiveness,
            format!(
                "`{type_name}` does not implement `{trait_name}` — the observer contract \
                 requires a full implementation (update FULL_IMPLS in the linter if the \
                 type was retired)"
            ),
        ));
        return;
    };
    for (method, _) in &trait_def.methods {
        if !implementation.methods.iter().any(|m| m == method) {
            out.push(Diagnostic::new(
                &impl_file.path,
                implementation.line,
                Rule::Exhaustiveness,
                format!(
                    "impl `{trait_name} for {type_name}` does not define hook `{method}` — \
                     every observer hook must be handled (a defaulted hook silently drops \
                     the callback), or annotate the impl with \
                     `// lint: allow(exhaustiveness) — <reason>`"
                ),
            ));
        }
    }
}
