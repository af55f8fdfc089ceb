//! The DaCapo continuous-learning runtime.
//!
//! This crate is the paper's primary contribution reassembled in software: a
//! continuous-learning system that runs the three kernels — **inference**,
//! **labeling**, **retraining** — concurrently on a constrained platform and
//! allocates resources between them so end-to-end accuracy stays high through
//! data drift.
//!
//! # Execution model
//!
//! The engine is built around three layers:
//!
//! * [`Session`] — a **re-entrant, steppable** run of one camera stream over
//!   one drifting scenario. Each [`Session::step`] executes at most one
//!   temporal phase and yields a [`SessionEvent`] (phase executed, drift
//!   detected, accuracy sampled, finished), so callers observe mid-run state
//!   instead of waiting for the scenario to end. [`Session::run_with`]
//!   forwards the event stream to a [`SimObserver`] for push-style metrics
//!   taps.
//! * [`ClSimulator`] — the one-shot compatibility wrapper: build, `run()`,
//!   get a [`SimResult`]. It is a thin loop over [`Session`], so a stepped
//!   session and a `run()` call with the same seed produce *identical*
//!   results.
//! * [`Cluster`] — the multi-camera executor: N sessions with independent
//!   scenarios/seeds/platforms multiplexed over M accelerator resources in
//!   an event-driven virtual-time loop, accelerators spread across worker
//!   threads, with a pluggable [`arbiter`] deciding each step's capacity
//!   share. Results aggregate into a [`FleetResult`] (mean/percentile
//!   accuracy, total energy, aggregate drop rate) on
//!   [`ClusterResult::fleet`]. A fleet of independent cameras is
//!   `Cluster::new(N)`, one dedicated accelerator per camera, and its
//!   per-camera results are bit-identical to solo runs.
//!
//! Scheduling policies are **pluggable**: the paper's algorithms are builtin
//! [`SchedulerKind`]s, and external crates can [`sched::register`] a name
//! and a function building their own [`sched::Scheduler`], and select it by
//! name — `SimConfig::builder(..).scheduler("my-policy")` — without touching
//! this crate. Every registry family works this way: a plugin is a name and
//! a build function.
//!
//! Execution platforms are pluggable the same way: the engine consumes a
//! [`PlatformRates`] capability sheet (per-kernel [`platform::KernelRate`]s,
//! a [`platform::Sharing`] mode, and a power draw), and where that sheet
//! comes from is decided by a [`PlatformSpec`] — a builtin [`PlatformKind`],
//! a platform registered through [`platform::register`] and selected by name
//! (`SimConfig::builder(..).platform("my-platform")`), or explicit rates.
//! Platform names accept a `:<params>` suffix (`"scaled-dacapo:32"`,
//! `"orin-dvfs:45"`), so one name can describe a hardware family. A
//! [`Cluster`] mixes platforms freely: each camera carries its own spec, so
//! heterogeneous deployments (some cameras on accelerators, some on GPUs)
//! are just differently-configured cameras.
//!
//! Registering a custom platform:
//!
//! ```
//! use dacapo_core::platform::{self, KernelRate, Sharing};
//! use dacapo_core::PlatformRates;
//!
//! platform::register("edge-npu", |request| {
//!     PlatformRates::new(
//!         "Edge NPU",
//!         KernelRate::fp32(4.0 * request.fps), // inference headroom
//!         KernelRate::fp32(25.0),              // labeling samples/s
//!         KernelRate::fp32(80.0),              // retraining samples/s
//!         Sharing::TimeShared,
//!         7.5,
//!     )
//! });
//! assert!(platform::registered_names().contains(&"edge-npu".to_string()));
//! // From here, `SimConfig::builder(..).platform("edge-npu")` selects it.
//! ```
//!
//! # Cluster execution
//!
//! [`Cluster`] scales the engine from one camera to the thousand-camera
//! regime the roadmap targets: N sessions share M accelerators, and an
//! arbitration policy decides how much of an accelerator each labeling or
//! retraining step gets. The step's *cluster-time* duration is stretched by
//! the reciprocal of the granted share (the
//! [`Sharing::TimeShared`](platform::Sharing) slowdown generalized across
//! cameras), while the session's own timeline is untouched — so per-camera
//! results stay bit-identical to solo runs, and contention surfaces in the
//! [`ContentionMetrics`] (p50/p99 step stretch, makespan, per-accelerator
//! utilization, peak event-queue depth).
//!
//! Arbiters are pluggable through [`arbiter::register`], mirroring the
//! scheduler and platform registries. Builtins: `"fair-share"`,
//! `"priority:<weights>"`, and `"drift-first[:<boost>]"` (sessions
//! recovering from a drift get a larger slice — the paper's temporal
//! allocation lifted to fleet scope). Admission control bounds residency:
//! [`Cluster::capacity_per_accelerator`] plus an [`AdmissionPolicy`] either
//! rejects overflow cameras with a typed [`CoreError::AdmissionRejected`]
//! or queues them until a resident finishes.
//!
//! A 1000-camera quickstart:
//!
//! ```no_run
//! use dacapo_core::{Cluster, SimConfig};
//! use dacapo_datagen::Scenario;
//! use dacapo_dnn::zoo::ModelPair;
//!
//! # fn main() -> Result<(), dacapo_core::CoreError> {
//! let mut cluster = Cluster::new(4).arbiter("drift-first:3");
//! for i in 0..1000 {
//!     let scenario = Scenario::all()[i % 8].clone();
//!     let config = SimConfig::builder(scenario, ModelPair::ResNet18Wrn50)
//!         .seed(0xDACA90 + i as u64)
//!         .build()?;
//!     cluster = cluster.camera(format!("cam-{i:04}"), config);
//! }
//! let result = cluster.run()?;
//! println!(
//!     "1000 cameras / 4 accelerators: makespan {:.0} s, p99 stretch {:.1}x, \
//!      mean utilization {:.0}%",
//!     result.contention.makespan_s,
//!     result.contention.p99_step_stretch,
//!     result.contention.mean_accelerator_utilization * 100.0,
//! );
//! # Ok(())
//! # }
//! ```
//!
//! # Cross-camera sharing
//!
//! Fleets of co-located cameras drift together, so teacher labels produced
//! for one camera are often reusable by its peers. The [`share`] registry
//! (mirroring [`sched`], [`platform`], and [`arbiter`]) plugs a
//! [`share::SharePolicy`] into the cluster executor via
//! [`Cluster::share`]: cluster virtual time is divided into exchange
//! windows ([`Cluster::share_window_s`]), and at every boundary each
//! camera's freshly teacher-labeled samples are offered to every live peer
//! in camera admission-index order — a deterministic, single-threaded
//! barrier, so shared runs stay bit-identical across worker-thread counts.
//! The policy grants an admit fraction per (importer, exporter) pair;
//! admitted samples enter the importer's [`SampleBuffer`] at zero labeling
//! cost, and the savings are reported as [`ShareMetrics`] on
//! [`ClusterResult::share`] (labels reused, labeling seconds saved, import
//! rejects).
//!
//! `"none"` is not a policy but the family's reserved name: the exchange
//! stage is absent, and a run with no stages is one unbounded window.
//! Builtins: `"broadcast"` (admit everything) and
//! `"correlated[:<threshold>]"` (admit only from peers whose scenarios
//! overlap in attributes at least `threshold`, per
//! [`Scenario::attribute_overlap`](dacapo_datagen::Scenario::attribute_overlap)).
//! Correlated fleet workloads come from
//! [`FleetScenario`](dacapo_datagen::FleetScenario), which derives N
//! per-camera scenarios from one base with controllable attribute overlap
//! and per-camera drift-time offsets:
//!
//! ```no_run
//! use dacapo_core::{Cluster, SimConfig};
//! use dacapo_datagen::{FleetScenario, Scenario};
//! use dacapo_dnn::zoo::ModelPair;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenarios =
//!     FleetScenario::new(Scenario::es1(), 16).overlap(0.8).offset_step_s(30.0).derive()?;
//! let mut cluster = Cluster::new(4).share("correlated:0.6").share_window_s(60.0);
//! for (i, scenario) in scenarios.into_iter().enumerate() {
//!     let config = SimConfig::builder(scenario, ModelPair::ResNet18Wrn50)
//!         .seed(0xDACA90 + i as u64)
//!         .build()?;
//!     cluster = cluster.camera(format!("cam-{i:02}"), config);
//! }
//! let result = cluster.run()?;
//! println!(
//!     "{} labels reused, {:.0} s of teacher labeling saved",
//!     result.share.labels_reused, result.share.labeling_seconds_saved,
//! );
//! # Ok(())
//! # }
//! ```
//!
//! # Edge–cloud tier
//!
//! Real deployments rarely get a cloud-grade teacher on-device. The
//! [`edge`] subsystem models the alternative: a camera configured with an
//! [`EdgeConfig`] owns a deterministic **uplink** ([`UplinkSpec`], one of
//! the [`edge::UPLINK_PROFILES`] — `"broadband"`, `"wifi"`, `"lte"`,
//! `"degraded"`, each parameterisable as `"lte:<mbps>[,<latency_ms>]"`) to
//! a [`CloudTeacher`](dacapo_dnn::CloudTeacher): higher labeling accuracy
//! and zero local compute, paid for in uplink bytes and a round-trip
//! latency that delays label arrival into the [`SampleBuffer`]. An
//! EdgeCam-style near-duplicate **filter** drops frames whose scenario
//! attributes match the last shipped frame before they reach the uplink.
//!
//! Which tier labels a given window is decided by a pluggable
//! [`edge::OffloadPolicy`] selected via [`Cluster::offload`] — the fifth
//! registry family. `"local-only"` is not a policy but the family's reserved
//! name: the routing stage is absent. Builtins: `"cloud-only"`,
//! `"threshold:<queue-depth>"` (offload cameras on crowded accelerators),
//! and `"budget:<bytes-per-window>"`. Decisions happen at the same
//! deterministic window barriers as label sharing and churn, offloaded
//! labeling phases bypass accelerator arbitration (the cloud pays the
//! compute), and the telemetry lands in [`ClusterResult::edge`] as
//! [`EdgeMetrics`] — bytes shipped, frames filtered, local/cloud label
//! split, label-latency p50/p99, and the accuracy-per-byte headline.
//!
//! ```no_run
//! use dacapo_core::{Cluster, EdgeConfig, SimConfig};
//! use dacapo_datagen::Scenario;
//! use dacapo_dnn::zoo::ModelPair;
//!
//! # fn main() -> Result<(), dacapo_core::CoreError> {
//! let mut cluster = Cluster::new(2).offload("budget:20000000");
//! for (i, scenario) in Scenario::all().into_iter().enumerate() {
//!     let config = SimConfig::builder(scenario, ModelPair::ResNet18Wrn50)
//!         .edge(EdgeConfig::new("lte"))
//!         .seed(0xDACA90 + i as u64)
//!         .build()?;
//!     cluster = cluster.camera(format!("cam-{i}"), config);
//! }
//! let result = cluster.run()?;
//! println!(
//!     "{} cloud labels over {} bytes ({} frames filtered), accuracy/byte {:.3e}",
//!     result.edge.labels_cloud,
//!     result.edge.bytes_shipped,
//!     result.edge.frames_filtered,
//!     result.edge.accuracy_per_byte,
//! );
//! # Ok(())
//! # }
//! ```
//!
//! # Observability
//!
//! Everything the executor does can be tapped through [`SimObserver`]
//! without perturbing results. Beyond the original per-session event hooks
//! (`on_phase`, `on_drift`, `on_accuracy`, `on_finished`), the trait carries
//! default-method hooks for every cluster-level decision: step attribution
//! (`on_step_context`), a catch-all `on_event`, window barriers
//! (`on_window_barrier`), per-camera and per-accelerator state sampled at
//! every window mark (`on_window_sample` with a [`WindowSample`],
//! `on_accelerator_sample` with an [`AcceleratorSample`]), label-sharing
//! admissions (`on_share`), offload routing (`on_offload_route`), churn
//! (`on_churn_join` / `on_churn_leave` / `on_churn_drain` /
//! `on_migration`), and uplink transfers (`on_uplink_transfer`). All hooks
//! default to no-ops, so existing observers compile unchanged.
//!
//! The **window sampling contract**: an observer is not a stage of the one
//! executor, so it leaves a run's windows as they are — a stage-free run
//! stays one unbounded window. Each accelerator loop samples itself at
//! window marks `k · share_window_s` (k ≥ 1): one `on_window_sample` per
//! live camera in the loop's admission order, then one
//! `on_accelerator_sample`. In one unbounded window that is every mark,
//! before the loop executes its first event at or past it; with barriers
//! it is every barrier's mark, when the loop is next advanced after the
//! barrier ran; every loop samples the run's final mark at the end. A real
//! barrier (a share, churn or offload stage) fires its hooks
//! single-threaded in a fixed order — label exchange (`on_share`), churn
//! events, offload routing (`on_offload_route`), then `on_window_barrier`
//! — before any loop samples that mark. Because observed execution is
//! serial, an observer needs no synchronisation and sees a bit-identical
//! stream at any worker-thread count. The `dacapo-telemetry` crate builds its
//! chrome-trace/JSON-Lines recorder on exactly these hooks.
//!
//! # Snapshots and elastic membership
//!
//! A [`Session`] is an explicit state/behavior split — one versioned,
//! serde-able [`SessionSnapshot`] holding the complete mutable state
//! (config, student weights, sample buffer, teacher RNG, scheduler state via
//! [`sched::Scheduler::state`], stream cursor, partial timeline) plus a
//! runtime derived from its configuration. [`Session::snapshot`] clones the
//! former, and [`Session::restore`] rebuilds the latter around it into a
//! session that continues **bit-identically** — even after the snapshot
//! round-trips through JSON text in another process
//! ([`SessionSnapshot::to_json`] / [`SessionSnapshot::from_json`]). A
//! snapshot from a different [`SNAPSHOT_VERSION`], or one whose state a
//! session could not run (a non-finite clock, a buffer of another shape
//! than the configuration's), is refused with [`CoreError::Snapshot`]
//! instead of being misread.
//!
//! On top of snapshots, the cluster executor supports **elastic
//! membership**: a [`ChurnPlan`] schedules cameras joining and leaving
//! mid-run and accelerators draining (their resident sessions
//! snapshot-migrate to the surviving accelerators through the standard
//! admission path). Churn executes at the same deterministic window
//! barriers as label sharing, so churn-bearing runs stay bit-identical
//! across worker-thread counts; telemetry lands in
//! [`ClusterResult::churn`] as [`ChurnMetrics`] (migrations, migration
//! stall seconds, peak residency, orphaned cameras).
//!
//! ```no_run
//! use dacapo_core::{ChurnPlan, Cluster, Session, SessionSnapshot, SimConfig};
//! use dacapo_datagen::Scenario;
//! use dacapo_dnn::zoo::ModelPair;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Checkpoint a running session to JSON and resume it later.
//! let config = SimConfig::builder(Scenario::s1(), ModelPair::ResNet18Wrn50).build()?;
//! let mut session = Session::new(config.clone())?;
//! while session.progress() < 0.5 {
//!     session.step()?;
//! }
//! let json = session.snapshot().to_json();
//! let mut resumed = Session::restore(SessionSnapshot::from_json(&json)?)?;
//! resumed.run_to_end()?; // bit-identical to never having stopped
//!
//! // An elastic cluster: a camera joins at t=300 s, accelerator 1 drains
//! // at t=600 s (its sessions migrate), and a camera leaves at t=900 s.
//! let plan = ChurnPlan::new()
//!     .join(300.0, "late", config.clone())
//!     .drain(600.0, 1)
//!     .leave(900.0, "cam-0");
//! let result = Cluster::new(2)
//!     .camera("cam-0", config.clone())
//!     .camera("cam-1", config)
//!     .churn(plan)
//!     .run()?;
//! println!("{} migrations", result.churn.migrations);
//! # Ok(())
//! # }
//! ```
//!
//! # Mapping to the paper
//!
//! * [`Hyperparams`] — Table I's resource-allocation hyperparameters
//!   (`N_t`, `N_v`, `N_l`, `N_ldd`, buffer capacity, drift threshold).
//! * [`SampleBuffer`] — the fixed-capacity labeled sample buffer, a columnar
//!   ring whose rows are read as [`SampleRef`]s; [`LabeledSample`] is the
//!   owned record at the API and serde edges.
//! * [`StudentModel`] / [`TeacherOracle`](dacapo_dnn::TeacherOracle) — the
//!   deployed student and the labeling teacher.
//! * [`PlatformRates`] — the execution platform's capability sheet (a
//!   spatially-partitioned DaCapo accelerator or a time-shared GPU
//!   baseline), built by the [`platform`] registry from the `dacapo-accel`
//!   performance models.
//! * [`sched`] — the temporal resource allocators: the paper's
//!   spatiotemporal Algorithm 1 plus the DaCapo-Spatial, Ekya, and EOMU
//!   baselines, behind the pluggable-policy registry.
//!
//! # Examples
//!
//! Stepping a session and reacting to events:
//!
//! ```no_run
//! use dacapo_core::{Session, SessionEvent, SimConfig, SchedulerKind, PlatformKind};
//! use dacapo_datagen::Scenario;
//! use dacapo_dnn::zoo::ModelPair;
//!
//! # fn main() -> Result<(), dacapo_core::CoreError> {
//! let config = SimConfig::builder(Scenario::s1(), ModelPair::ResNet18Wrn50)
//!     .platform(PlatformKind::DaCapo)
//!     .scheduler(SchedulerKind::DaCapoSpatiotemporal)
//!     .build()?;
//! let mut session = Session::new(config)?;
//! loop {
//!     match session.step()? {
//!         SessionEvent::Drift { at_s, response_index } => {
//!             println!("drift response #{response_index} at {at_s:.0} s");
//!         }
//!         SessionEvent::Finished => break,
//!         _ => {}
//!     }
//! }
//! let result = session.into_result();
//! println!("mean accuracy {:.1}%", result.mean_accuracy * 100.0);
//! # Ok(())
//! # }
//! ```
//!
//! Driving a fleet of cameras in parallel, one dedicated accelerator each:
//!
//! ```no_run
//! use dacapo_core::{Cluster, SimConfig};
//! use dacapo_datagen::Scenario;
//! use dacapo_dnn::zoo::ModelPair;
//!
//! # fn main() -> Result<(), dacapo_core::CoreError> {
//! let scenarios = Scenario::all();
//! let mut cluster = Cluster::new(scenarios.len());
//! for (i, scenario) in scenarios.into_iter().enumerate() {
//!     let config = SimConfig::builder(scenario, ModelPair::ResNet18Wrn50)
//!         .seed(0xDACA90 + i as u64)
//!         .build()?;
//!     cluster = cluster.camera(format!("cam-{i}"), config);
//! }
//! let result = cluster.run()?.fleet;
//! println!(
//!     "{} cameras: mean {:.1}%, p10 {:.1}%, total {:.0} J",
//!     result.cameras.len(),
//!     result.mean_accuracy * 100.0,
//!     result.p10_accuracy * 100.0,
//!     result.total_energy_joules,
//! );
//! # Ok(())
//! # }
//! ```

// Library code of this crate is in the strict clippy tier (see the root
// Cargo.toml): beyond the workspace-wide bans, no `.expect()`, no
// undocumented `Result`, no unordered maps / clock types / `dyn Error`.
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::missing_errors_doc, clippy::disallowed_types)
)]

pub mod arbiter;
mod buffer;
mod cluster;
mod config;
pub mod edge;
mod error;
mod fleet;
pub mod metrics;
pub mod platform;
pub mod registry;
pub mod sched;
mod session;
pub mod share;
mod sim;
mod student;

pub use buffer::{LabeledSample, SampleBuffer, SampleRef};
pub use cluster::{
    AdmissionPolicy, ChurnEvent, ChurnMetrics, ChurnPlan, Cluster, ClusterResult, ContentionMetrics,
};
pub use config::{Hyperparams, SimConfig, SimConfigBuilder};
pub use edge::{EdgeConfig, EdgeMetrics, LabelRoute, UplinkSpec};
pub use error::CoreError;
pub use fleet::{CameraResult, FleetResult};
pub use platform::{PlatformKind, PlatformRates, PlatformSpec};
pub use sched::{SchedulerKind, SchedulerSpec};
pub use session::{
    AcceleratorSample, Session, SessionEvent, SessionSnapshot, SimObserver, WindowSample,
    SNAPSHOT_VERSION,
};
pub use share::ShareMetrics;
pub use sim::{ClSimulator, PhaseKind, PhaseRecord, SimResult};
pub use student::StudentModel;

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
