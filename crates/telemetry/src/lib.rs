//! # dacapo-telemetry
//!
//! Observability for the DaCapo stack, in three pillars:
//!
//! 1. **Virtual-time span tracing.** The [`TelemetryRecorder`] is a
//!    [`SimObserver`](dacapo_core::SimObserver) that turns the simulator's
//!    hook stream into Chrome Trace Event Format JSON keyed by accelerator
//!    (process) and camera (thread), with all timestamps in *virtual* time.
//!    Load the file in Perfetto or `chrome://tracing`. Because observed runs
//!    execute single-threaded and all recorder state is ordered, the trace
//!    bytes are identical whatever `threads(..)` setting the cluster uses.
//! 2. **A deterministic metrics pipeline.** Per-window JSON-Lines
//!    [`MetricsRecord`]s: accuracy, buffer freshness, labels produced
//!    locally / in the cloud / via sharing, queue depth, and per-accelerator
//!    utilization. The recorder keeps each camera's totals and latest
//!    accuracy in that camera's track, and the cluster's counters under
//!    the static names its hooks count by; a `"cluster"` record lists the
//!    counters that moved in its window, then every camera's accuracy, each
//!    in name order.
//! 3. **Host-time profiling** is not in this crate, where wall clocks are a
//!    clippy error (`clippy.toml`'s `disallowed-types`): the frozen
//!    benchmark under `benchmark/` times runs from outside and reports the
//!    recorder's cost as `telemetry.null_overhead_pct` /
//!    `telemetry.overhead_pct`.
//!
//! ## The sink registry family
//!
//! Output is pluggable through [`TelemetrySink`]s whose build functions are
//! registered by name, mirroring the scheduler/policy registries in
//! `dacapo-core`. The
//! builtins are `chrome-trace:<path>` (trace JSON), `json-lines:<path>`
//! (metrics timeseries), and `summary` (stdout table at finish). The two
//! file sinks stream: each opens its file when it is created, so a path
//! that cannot be created fails in
//! [`TelemetryRecorder::with_sink_spec`], and writes every event as it is
//! recorded through one fixed-size buffer, so observing a run costs
//! constant memory however long it runs. Events and records borrow what
//! they name, and the recorder serialises them in place: recording one
//! allocates nothing. A run that errors leaves a partial file. `null` is
//! not a sink but the family's **reserved** name:
//! [`TelemetryRecorder::with_sink_spec`] treats it as "no sink", which keeps
//! the recorder on its do-nothing fast path so a null-sink observed run is
//! bit-identical to a telemetry-free run.
//! Out-of-crate sinks register with [`sink::register`]; see
//! `examples/telemetry.rs` for a CSV sink registered by name.
//!
//! ## The window sampling contract
//!
//! Metrics are only sampled single-threaded, in a fixed order, never from
//! worker threads, so the metrics timeseries is bit-identical across runs
//! and worker-thread counts. Each accelerator loop samples itself at
//! window marks (`k · share_window_s`) — every mark of a stage-free run's
//! one unbounded window, every barrier's mark otherwise: one
//! [`SimObserver::on_window_sample`] per live camera in the loop's
//! admission order, then one [`SimObserver::on_accelerator_sample`], so a
//! stage-free run's stream is accelerator-major. A real window barrier —
//! present only with a share, churn or offload stage — fires label
//! exchange ([`SimObserver::on_share`]), churn events, offload routing,
//! then [`SimObserver::on_window_barrier`], which closes that window's
//! `"cluster"` record, before any loop samples the mark. A stage-free run
//! has no barrier, so its counters land in the one `"cluster"` record
//! written at [`TelemetryRecorder::finish`], ending at the last sampled
//! mark. Standalone sessions (no cluster, no marks) roll `"camera"` records
//! on the camera's own clock instead, in
//! [`TelemetryRecorder::window_s`]-sized windows.
//!
//! [`SimObserver::on_share`]: dacapo_core::SimObserver::on_share
//! [`SimObserver::on_window_barrier`]: dacapo_core::SimObserver::on_window_barrier
//! [`SimObserver::on_window_sample`]: dacapo_core::SimObserver::on_window_sample
//! [`SimObserver::on_accelerator_sample`]: dacapo_core::SimObserver::on_accelerator_sample

// Library code of this crate is in the strict clippy tier (see the root
// Cargo.toml): beyond the workspace-wide bans, no `.expect()`, no
// undocumented `Result`, no unordered maps / clock types / `dyn Error`.
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::missing_errors_doc, clippy::disallowed_types)
)]

pub mod error;
pub mod metrics;
pub mod recorder;
pub mod sink;
pub mod trace;

pub use error::{Result, TelemetryError};
pub use metrics::{FieldValue, MetricsRecord};
pub use recorder::{TelemetryRecorder, TelemetrySummary};
pub use sink::TelemetrySink;
pub use trace::{TraceEvent, CLUSTER_PID};
