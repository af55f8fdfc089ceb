//! `dacapo-lint` — the workspace invariant checker.
//!
//! A zero-dependency static analysis pass over the workspace's own source
//! (the build environment has no crates.io, so the crate hand-rolls a
//! small line/comment/string-aware Rust lexer plus a lightweight item
//! parser instead of using `syn`). It machine-checks the preconditions of
//! DaCapo's headline property — that runs are *deterministic*:
//! bit-identical across thread counts, across snapshot/restore round
//! trips, and across edge-tier offload — which reviewer vigilance alone
//! cannot guarantee as the workspace grows.
//!
//! # Rules
//!
//! Seven rule families run over the library crates (`crates/core`,
//! `crates/datagen`, `crates/dnn`, `crates/telemetry`); test modules are
//! always exempt. `crates/bench` and `examples/` get a relaxed profile:
//! only the panic and determinism families, with `.expect()` aborts and
//! ordinary collections legal, and wall clocks permitted solely in the
//! documented host-profiling sites ([`determinism::WALL_CLOCK_FILES`]).
//!
//! - **determinism** ([`determinism`]) — no `Instant`/`SystemTime`
//!   (wall-clock), `thread_rng` (ambient RNG), `std::env` (host state), or
//!   `HashMap`/`HashSet` (unordered iteration) in deterministic library
//!   code.
//! - **panic** ([`panics`]) — no `.unwrap()`/`.expect()` or
//!   `panic!`/`unreachable!`/`todo!`/`unimplemented!` in library code:
//!   return a typed `CoreError`/`DatagenError`, or justify the invariant.
//! - **snapshot** ([`snapshot`]) — field parity between the mutable-state
//!   structs (`Session`, `EdgeTier`) and their snapshot structs
//!   (`SessionSnapshot`, `EdgeTierState`): a new state field that does not
//!   ride snapshots is a lint error, not a latent checkpoint bug.
//! - **registry** ([`registry`]) — every builtin name seeded into a
//!   factory registry must be documented in the module's doc comments and
//!   in `README.md`, and reserved-name lists must match the code.
//! - **exhaustiveness** ([`exhaustive`]) — every `SessionEvent` variant is
//!   dispatched by `SessionEvent::dispatch`, and `TelemetryRecorder`/
//!   `TeeObserver` implement every `SimObserver` hook: a variant or hook
//!   added without its handler is a finding at the handler, not a silently
//!   dropped callback.
//! - **barrier** ([`barrier`]) — functions that mutate cross-camera shared
//!   state (share import/export, churn membership, offload routing,
//!   barrier metrics sampling) must be annotated
//!   `// lint: barrier-only(<reason>)` and be unreachable from the
//!   parallel accelerator loops: a source-level race check for the
//!   bit-identity invariant.
//! - **errors** ([`errors`]) — `Result`-returning `pub fn`s use typed
//!   workspace errors (no `Box<dyn Error>`) and document an `# Errors`
//!   section.
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
//! .. // lint: allow(panic) — presence checked on pop
//! // lint: allow(determinism) — cache key only, never iterated
//! // lint: barrier-only(labels cross cameras only between windows)
//! fn exchange_window(..) { .. }
//! struct Session {
//!     stream: FrameStream, // snapshot: skip(stream) — rebuilt from config
//!     cursor: StreamCursor, // snapshot: as(stream_cursor) — renamed in the format
//! }
//! ```
//!
//! A malformed annotation (unknown rule or verb, missing reason, stale
//! field name, a `barrier-only` with no function or outside `cluster.rs`)
//! is itself a finding under the `annotation` meta-rule.
//!
//! # The snapshot-parity contract
//!
//! When you add a field to `Session` or `EdgeTier`:
//!
//! 1. if it is mutable run state, add a matching field to
//!    `SessionSnapshot`/`EdgeTierState`, capture and restore it, and bump
//!    `SNAPSHOT_VERSION`;
//! 2. if it rides the snapshot under a different name, annotate the state
//!    field with `// snapshot: as(<snapshot_field>) — <reason>`;
//! 3. only if it is pure behavior (rebuilt from the snapshotted config on
//!    restore) or derived from it, annotate
//!    `// snapshot: skip(<field>) — <reason>`.
//!
//! Until you do one of the three, `cargo run -p dacapo-lint` (and CI)
//! fails with a finding at the new field's line.
//!
//! # Output
//!
//! The binary emits `file:line: [rule] message` diagnostics (`--format
//! json` for the CI artifact, `--format sarif` for GitHub code scanning)
//! and exits non-zero on any finding; `--rule <family>` filters to named
//! families, and `--fix` prints dry-run unified diffs for the mechanical
//! findings (stale annotations, missing `# Errors` sections) without
//! writing anything. It runs in `just ci` and the CI workflow as a
//! first-class gate alongside clippy.

pub mod annotate;
pub mod barrier;
pub mod determinism;
pub mod diag;
pub mod errors;
pub mod exhaustive;
pub mod fix;
pub mod lexer;
pub mod panics;
pub mod parse;
pub mod registry;
pub mod sarif;
pub mod snapshot;
pub mod workspace;

pub use diag::{to_json, Diagnostic, FixKind, Rule};
pub use fix::render_diffs as render_fix_diffs;
pub use lexer::{Profile, SourceFile, TokenKind};
pub use parse::{parse_file, ParsedFile};
pub use sarif::to_sarif;
pub use workspace::{lint_files, lint_workspace, RELAXED_DIRS, TARGET_DIRS};
