//! Three invariants that live in source text rather than in types, checked
//! over the live code: every name a registry ships is documented where
//! users look for it, the telemetry recorder overrides every observer hook,
//! and the panic-family lint opt-outs only ever get fewer. (A
//! `SessionEvent` variant without a dispatch arm is a compile error, and a
//! `_` arm there a clippy error — see `SessionEvent::dispatch`.)

use dacapo::core::{arbiter, edge, platform, sched, share};
use dacapo::telemetry::sink;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const README: &str = include_str!("../README.md");

/// The text of a source file under `crates/`.
macro_rules! src {
    ($path:literal) => {
        include_str!(concat!("../crates/", $path))
    };
}

/// Whether `text` mentions `name` as a word of its own (`"broadcast"`,
/// `budget:<bytes>`), not inside a longer name.
fn mentions(text: &str, name: &str) -> bool {
    let part_of_a_name = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
    text.match_indices(name).any(|(at, _)| {
        !text[..at].ends_with(part_of_a_name)
            && !text[at + name.len()..].starts_with(part_of_a_name)
    })
}

/// The `//` comment lines of a source file, lower-cased.
fn comment_lines(source: &str) -> Vec<String> {
    let comments = source.lines().map(str::trim_start).filter(|line| line.starts_with("//"));
    comments.map(str::to_lowercase).collect()
}

#[test]
fn every_registry_builtin_is_documented_in_its_module_and_in_the_readme() {
    // Family, its live names, the module that defines it, its reserved
    // (stage-absent) names. Nothing in this test binary registers a plugin,
    // so the names are the builtins.
    let uplinks = edge::UPLINK_PROFILES.iter().map(|(name, ..)| name.to_string()).collect();
    let families: [(&str, Vec<String>, &str, &[&str]); 7] = [
        ("scheduler", sched::registered_names(), src!("core/src/sched.rs"), &[]),
        ("platform", platform::registered_names(), src!("core/src/platform.rs"), &[]),
        ("arbiter", arbiter::registered_names(), src!("core/src/arbiter.rs"), &[]),
        ("share", share::registered_names(), src!("core/src/share.rs"), &["none"]),
        ("offload", edge::registered_offload_policies(), src!("core/src/edge.rs"), &["local-only"]),
        ("uplink", uplinks, src!("core/src/edge.rs"), &[]),
        ("sink", sink::registered_names(), src!("telemetry/src/sink.rs"), &["null"]),
    ];
    // The reserved names are the ones their families skip the stage on.
    assert!(
        share::is_disabled("none") && edge::is_local_only("local-only") && sink::is_null("null")
    );
    let readme = README.to_lowercase();
    let mut checked = 0;
    for (family, names, source, reserved) in families {
        let comments = comment_lines(source);
        for name in names.iter().map(String::as_str).chain(reserved.iter().copied()) {
            checked += 1;
            assert!(
                comments.iter().any(|line| mentions(line, name)),
                "{family} name '{name}' is not mentioned in its module's comments"
            );
            assert!(mentions(&readme, name), "{family} name '{name}' is not in README.md");
        }
        for name in reserved {
            assert!(!names.iter().any(|n| n == name), "reserved {family} '{name}' is registered");
            assert!(
                comments.iter().any(|line| line.contains("reserved") && mentions(line, name)),
                "no comment in the {family} module calls '{name}' reserved"
            );
        }
    }
    // An anchor: a registry that stopped listing its names checks nothing.
    assert!(checked >= 29, "only {checked} names found across the six registries and the uplinks");
}

/// The `fn on_*` names inside the item that opens with `header` and closes
/// with a brace at column 0.
fn hooks<'s>(source: &'s str, header: &str) -> BTreeSet<&'s str> {
    let after = source.split_once(header).expect(header).1;
    let body = after.split_once("\n}\n").expect("the item closes at column 0").0;
    body.lines()
        .filter_map(|line| line.trim_start().strip_prefix("fn "))
        .filter(|rest| rest.starts_with("on_"))
        .map(|rest| rest.split_once('(').map_or(rest, |(name, _)| name))
        .collect()
}

#[test]
fn the_recorder_overrides_every_observer_hook() {
    let declared = hooks(src!("core/src/session.rs"), "pub trait SimObserver {");
    let overridden =
        hooks(src!("telemetry/src/recorder.rs"), "impl SimObserver for TelemetryRecorder {");
    // An anchor: a renamed trait or a moved impl must not make this vacuous.
    assert!(declared.len() >= 16, "only {} SimObserver hooks found", declared.len());
    let missing: Vec<_> = declared.difference(&overridden).collect();
    assert!(
        missing.is_empty(),
        "TelemetryRecorder leaves {missing:?} to SimObserver's no-op default"
    );
}

/// Every `.rs` file under `dir`, recursively, in a stable order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).expect("readable source dir");
    let mut entries: Vec<_> = entries.map(|e| e.expect("readable entry").path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The most `#[expect(..)]` attributes naming `clippy::panic`,
/// `clippy::unreachable` or `clippy::expect_used` that `crates/` and
/// `examples/` may hold. Each one is a place the code may still panic; a
/// change that removes some lowers this ceiling.
const PANIC_FAMILY_OPT_OUT_CEILING: usize = 3;

#[test]
fn panic_family_opt_outs_never_grow() {
    const LINTS: [&str; 3] = ["clippy::panic", "clippy::unreachable", "clippy::expect_used"];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("examples"), &mut files);
    let mut sites = Vec::new();
    for file in &files {
        let source = std::fs::read_to_string(file).expect("readable source file");
        for (at, _) in source.match_indices("#[expect(") {
            let attribute = &source[at + "#[expect(".len()..];
            // The lint list runs up to the reason (or the attribute's end).
            let lints = attribute.split(")]").next().unwrap_or_default();
            let lints = lints.split("reason").next().unwrap_or_default();
            let named: Vec<_> =
                lints.split(',').map(str::trim).filter(|lint| LINTS.contains(lint)).collect();
            if !named.is_empty() {
                let line = source[..at].matches('\n').count() + 1;
                let file = file.strip_prefix(root).unwrap_or(file).display();
                sites.push(format!("{file}:{line} {}", named.join(", ")));
            }
        }
    }
    // An anchor: a walk that found no source checks nothing.
    assert!(files.len() > 50, "only {} source files under crates/ and examples/", files.len());
    assert!(
        sites.len() <= PANIC_FAMILY_OPT_OUT_CEILING,
        "{} panic-family #[expect]s, ceiling {PANIC_FAMILY_OPT_OUT_CEILING}:\n{}",
        sites.len(),
        sites.join("\n")
    );
}
