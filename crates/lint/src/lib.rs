//! `dacapo-lint` — the workspace invariant checker.
//!
//! A zero-dependency static analysis pass over the workspace's own source
//! (the build environment has no crates.io, so the crate hand-rolls a
//! small line/comment/string-aware Rust lexer plus a lightweight item
//! parser instead of using `syn`). It checks the three source-level
//! invariants behind DaCapo's determinism guarantee that neither the type
//! system nor clippy can express: they span a call graph, or tie code to
//! prose.
//!
//! # Rules
//!
//! Three rule families run over the library crates (`crates/core`,
//! `crates/datagen`, `crates/dnn`, `crates/telemetry`); test modules are
//! always exempt.
//!
//! - **registry** ([`registry`]) — every builtin name seeded into a
//!   factory registry must be documented in the module's doc comments and
//!   in `README.md`, and reserved-name lists must match the code.
//! - **exhaustiveness** ([`exhaustive`]) — every `SessionEvent` variant is
//!   dispatched by `SessionEvent::dispatch`, and `TelemetryRecorder`
//!   implements every `SimObserver` hook: a variant or hook added without
//!   its handler is a finding at the handler, not a silently dropped
//!   callback.
//! - **barrier** ([`barrier`]) — functions that mutate cross-camera shared
//!   state (share import/export, churn membership, offload routing,
//!   barrier metrics sampling) must be annotated
//!   `// lint: barrier-only(<reason>)` and be unreachable from the
//!   parallel accelerator loops: a source-level race check for the
//!   bit-identity invariant.
//!
//! # What is enforced elsewhere
//!
//! Four families this tool used to carry are now checked by construction
//! or by clippy (`cargo clippy --workspace --all-targets -- -D warnings`):
//!
//! - **snapshot parity** — by the types: `Session` is its `SessionSnapshot`
//!   plus a runtime derived from `SimConfig`, so a state field that does
//!   not ride the snapshot cannot be written.
//! - **panic-freedom** — `clippy::{unwrap_used, expect_used, panic,
//!   unreachable}` (plus the workspace-wide `todo` / `unimplemented`),
//!   denied at the four library crates' roots; `crates/bench` and
//!   `examples/` deny all but `expect_used`.
//! - **determinism** — `clippy::{disallowed_types, disallowed_methods}`
//!   against the root `clippy.toml` (`HashMap`, `HashSet`, `Instant`,
//!   `SystemTime`, `std::env::var*`).
//! - **error hygiene** — `clippy::missing_errors_doc`, and `Box<dyn Error>`
//!   through `disallowed_types` on `std::error::Error`.
//!
//! Their opt-outs are `#[expect(clippy::.., reason = "..")]`; a stale one
//! is a compiler warning.
//!
//! # Annotation grammar
//!
//! Opt-outs are explicit, narrowly scoped, and always carry a reason. A
//! trailing `lint: allow` exempts its own line; a standalone one exempts
//! the statement that follows (through its terminating `;`/`,`), so a
//! wrapped method chain needs only one annotation. `barrier-only` is not
//! an opt-out but a *claim* the barrier rule verifies:
//!
//! ```text
//! impl SimObserver for Partial { // lint: allow(exhaustiveness) — replays phases only
//! // lint: barrier-only(labels cross cameras only between windows)
//! fn exchange_window(..) { .. }
//! ```
//!
//! A malformed annotation (unknown rule or verb, missing reason, a
//! `barrier-only` with no function or outside `cluster.rs`) is itself a
//! finding under the `annotation` meta-rule.
//!
//! # Output
//!
//! The binary emits `file:line: [rule] message` diagnostics (`--format
//! json` for the CI artifact, `--format sarif` for GitHub code scanning)
//! and exits non-zero on any finding; `--rule <family>` filters to named
//! families, and `--fix` prints dry-run unified diffs for the mechanical
//! findings (stale annotations, missing `barrier-only` markers) without
//! writing anything. It runs in `just ci` and the CI workflow as a
//! first-class gate alongside clippy.

pub mod annotate;
pub mod barrier;
pub mod diag;
pub mod exhaustive;
pub mod fix;
pub mod lexer;
pub mod parse;
pub mod registry;
pub mod sarif;
pub mod workspace;

pub use diag::{to_json, Diagnostic, FixKind, Rule};
pub use fix::render_diffs as render_fix_diffs;
pub use lexer::{SourceFile, TokenKind};
pub use parse::{parse_file, ParsedFile};
pub use sarif::to_sarif;
pub use workspace::{lint_files, lint_workspace, TARGET_DIRS};
