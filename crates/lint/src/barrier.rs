//! The barrier-discipline rule: cross-camera state mutates only at the
//! single-threaded window barrier.
//!
//! Every headline determinism result rests on one structural fact about
//! the cluster executor (`crates/core/src/cluster.rs`): within a window
//! the per-accelerator loops run in parallel and touch only their own
//! cameras; *between* windows, `run_windows` alone — single-threaded —
//! exchanges shared labels, applies churn, rewrites offload routes, and
//! samples barrier metrics. An innocent-looking call that moves one of
//! those mutations into the parallel region compiles clean and only shows
//! up (maybe) as a flaky bit-identity proptest.
//!
//! This rule makes the structure explicit and machine-checked:
//!
//! - Calls to a **sink** — a function that mutates cross-camera shared
//!   state, listed in [`SINKS`] with its rationale — are legal only inside
//!   a function annotated `// lint: barrier-only(<reason>)`.
//! - A barrier-only function must be *unreachable* from the parallel
//!   accelerator loops: the rule walks the name-based call graph from
//!   [`PARALLEL_ROOTS`] and flags any barrier-only function in the
//!   closure.
//! - Call edges into a barrier-only function are legal only from the
//!   [`BARRIER_DRIVERS`] or from another barrier-only function.
//! - A `barrier-only` annotation that no longer precedes a function is a
//!   stale annotation (with a `--fix` removal diff).
//! - Anchor drift is a finding too: a `cluster.rs` that defines no
//!   function named in [`PARALLEL_ROOTS`] or [`BARRIER_DRIVERS`] (the
//!   executor was renamed) would otherwise pass with the reachability and
//!   call-edge checks checking nothing.
//!
//! The call graph is a conservative name-based approximation (see
//! [`crate::parse`]): a *possible* edge is already a finding, which is the
//! right polarity for a race check. The rule runs only on files named
//! `cluster.rs` — the executor is the one place this structure lives.

use crate::annotate::FileAnnotations;
use crate::diag::{Diagnostic, FixKind, Rule};
use crate::parse::{FnItem, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};

/// Functions that mutate cross-camera shared state, with the rationale
/// printed in findings.
pub const SINKS: &[(&str, &str)] = &[
    ("take_exports", "drains a camera's outgoing label batch (share export)"),
    ("admit_samples", "imports shared labels into a camera's buffer (share import)"),
    ("set_label_route", "rewrites a camera's offload route (offload routing)"),
    ("leave", "removes a camera from the fleet (churn membership)"),
    ("place", "places a camera on a surviving accelerator (churn membership)"),
    ("drain_accelerator", "retires an accelerator and lifts out its residents (churn membership)"),
    ("on_window_barrier", "publishes the window barrier to observers (metrics sampling)"),
    ("on_window_sample", "publishes per-camera window metrics (metrics sampling)"),
    ("on_accelerator_sample", "publishes per-accelerator occupancy metrics (metrics sampling)"),
    ("on_share", "publishes a cross-camera share event (metrics sampling)"),
    ("on_offload_route", "publishes an offload-route decision (metrics sampling)"),
    ("on_churn_join", "publishes a churn join (metrics sampling)"),
    ("on_churn_leave", "publishes a churn leave (metrics sampling)"),
    ("on_churn_drain", "publishes an accelerator drain (metrics sampling)"),
    ("on_migration", "publishes a churn migration (metrics sampling)"),
];

/// Entry points of the parallel per-accelerator region: everything
/// reachable from these runs concurrently within a window.
pub const PARALLEL_ROOTS: &[&str] = &["run_until"];

/// The single-threaded barrier drivers: the only non-annotated functions
/// allowed to call into barrier-only functions.
pub const BARRIER_DRIVERS: &[&str] = &["run_windows"];

/// Whether the barrier rule applies to `path` (the cluster executor and
/// its fixtures).
#[must_use]
pub fn is_cluster_file(path: &str) -> bool {
    path == "cluster.rs" || path.ends_with("/cluster.rs")
}

/// Runs the barrier-discipline rule over one parsed `cluster.rs`.
#[must_use]
pub fn check(parsed: &ParsedFile, annotations: &FileAnnotations) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let fns: Vec<&FnItem> = parsed.fns.iter().filter(|f| !f.in_test).collect();
    let sink_reason: BTreeMap<&str, &str> = SINKS.iter().copied().collect();

    // Resolve each barrier-only annotation to the fn item it marks.
    let mut barrier_lines: BTreeSet<u32> = BTreeSet::new();
    for marker in &annotations.barrier_only {
        let target = fns.iter().find(|f| (f.item_line..=f.line).contains(&marker.target));
        match target {
            Some(f) => {
                barrier_lines.insert(f.line);
            }
            None => {
                out.push(
                    Diagnostic::new(
                        &parsed.path,
                        marker.line,
                        Rule::Annotation,
                        "stale barrier-only annotation — no function follows it",
                    )
                    .with_fix(FixKind::RemoveAnnotation),
                );
            }
        }
    }
    let is_barrier = |f: &FnItem| barrier_lines.contains(&f.line);
    let is_driver = |f: &FnItem| BARRIER_DRIVERS.contains(&f.name.as_str());

    // Anchor drift: the reachability and call-edge checks hang off these
    // names, so a renamed executor must not leave them checking nothing.
    for (anchors, role) in [(PARALLEL_ROOTS, "parallel root"), (BARRIER_DRIVERS, "barrier driver")]
    {
        if !fns.iter().any(|f| anchors.contains(&f.name.as_str())) {
            out.push(Diagnostic::new(
                &parsed.path,
                1,
                Rule::Barrier,
                format!(
                    "no {role} (`{}`) is defined here — the barrier anchor drifted \
                     (update PARALLEL_ROOTS / BARRIER_DRIVERS in the linter)",
                    anchors.join("`, `")
                ),
            ));
        }
    }

    // Check 1: sink calls require a barrier-only caller.
    for f in &fns {
        if is_barrier(f) {
            continue;
        }
        for (callee, line) in &f.calls {
            if let Some(why) = sink_reason.get(callee.as_str()) {
                out.push(
                    Diagnostic::new(
                        &parsed.path,
                        *line,
                        Rule::Barrier,
                        format!(
                            "`{}` calls `{callee}` — {why} — outside a barrier-only fn; \
                             cross-camera state mutates only at the single-threaded window \
                             barrier: annotate `{}` with `// lint: barrier-only(<reason>)` \
                             or move the call into a barrier fn",
                            f.name, f.name
                        ),
                    )
                    .with_fix(FixKind::InsertBefore {
                        line: f.item_line,
                        lines: vec![format!(
                            "// lint: barrier-only(TODO: why `{}` runs only between windows)",
                            f.name
                        )],
                    }),
                );
            }
        }
    }

    // The parallel closure: every fn name reachable from the loop roots.
    let graph: BTreeMap<&str, BTreeSet<&str>> = {
        let mut g: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for f in &fns {
            let entry = g.entry(f.name.as_str()).or_default();
            entry.extend(f.calls.iter().map(|(callee, _)| callee.as_str()));
        }
        g
    };
    let mut parallel: BTreeSet<&str> = BTreeSet::new();
    let mut frontier: Vec<&str> =
        PARALLEL_ROOTS.iter().copied().filter(|r| graph.contains_key(r)).collect();
    while let Some(name) = frontier.pop() {
        if !parallel.insert(name) {
            continue;
        }
        if let Some(callees) = graph.get(name) {
            frontier.extend(callees.iter().copied().filter(|c| graph.contains_key(*c)));
        }
    }

    // Check 2: a barrier-only fn reachable from the parallel loops is a
    // race regardless of annotation.
    for f in &fns {
        if is_barrier(f) && parallel.contains(f.name.as_str()) {
            out.push(Diagnostic::new(
                &parsed.path,
                f.line,
                Rule::Barrier,
                format!(
                    "barrier-only fn `{}` is reachable from the parallel accelerator loop \
                     (call graph rooted at {}) — its cross-camera mutations would race; \
                     only the window-barrier path in `{}` may reach it",
                    f.name,
                    PARALLEL_ROOTS.join(", "),
                    BARRIER_DRIVERS.join(", ")
                ),
            ));
        }
    }

    // Check 3: call edges into barrier-only fns come only from drivers or
    // other barrier-only fns.
    let barrier_names: BTreeSet<&str> =
        fns.iter().filter(|f| is_barrier(f)).map(|f| f.name.as_str()).collect();
    for f in &fns {
        if is_barrier(f) || is_driver(f) {
            continue;
        }
        for (callee, line) in &f.calls {
            if barrier_names.contains(callee.as_str()) {
                out.push(Diagnostic::new(
                    &parsed.path,
                    *line,
                    Rule::Barrier,
                    format!(
                        "`{}` calls barrier-only fn `{callee}` — barrier fns mutate \
                         cross-camera state and may be entered only from {} or another \
                         barrier-only fn",
                        f.name,
                        BARRIER_DRIVERS.join(", ")
                    ),
                ));
            }
        }
    }
    out
}

/// Flags `barrier-only` annotations in files the rule does not cover —
/// outside `cluster.rs` the marker would silently check nothing.
#[must_use]
pub fn check_misplaced(path: &str, annotations: &FileAnnotations) -> Vec<Diagnostic> {
    annotations
        .barrier_only
        .iter()
        .map(|marker| {
            Diagnostic::new(
                path,
                marker.line,
                Rule::Annotation,
                "barrier-only annotations apply only to the cluster executor (cluster.rs) — \
                 here the marker checks nothing",
            )
            .with_fix(FixKind::RemoveAnnotation)
        })
        .collect()
}
