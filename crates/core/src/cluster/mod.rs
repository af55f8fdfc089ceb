//! Virtual-time cluster executor: thousands of camera sessions multiplexed
//! over a shared pool of accelerators under a pluggable arbitration policy.
//!
//! [`Cluster`] is the one executor for N cameras. With one dedicated
//! accelerator per camera, `Cluster::new(N)`, it answers "what do N
//! independent cameras do?"; with fewer, it answers the question the paper
//! poses at scale: what happens when those cameras **contend** for
//! hardware. Each cluster owns N [`Session`](crate::Session)s and M
//! accelerator resources. Cameras are
//! assigned to accelerators round-robin at admission; each accelerator runs
//! an event-driven virtual-time loop that pops the next-due session step from a
//! binary-heap event queue, asks its [`Arbiter`](crate::arbiter::Arbiter)
//! for a capacity grant, and stretches the step's cluster-time duration by
//! the reciprocal of the granted share — the
//! [`Sharing::TimeShared`](crate::platform::Sharing) slowdown generalized
//! across cameras.
//!
//! Two invariants make the executor useful:
//!
//! * **Per-camera results are contention-free.** Arbitration stretches
//!   *cluster* time, never a session's own timeline, so every camera's
//!   [`SimResult`] stays bit-identical to a solo run; contention surfaces
//!   only in the [`ContentionMetrics`] (step stretch, makespan, accelerator
//!   utilization). A cluster with one dedicated accelerator per camera is
//!   therefore a fleet of solo runs (property-tested bit-identical).
//! * **Everything is deterministic.** Event-queue ties break by admission
//!   order, accelerators are independent of each other, and no wall-clock
//!   value feeds the virtual clock — two runs of the same cluster produce
//!   identical [`ClusterResult`]s regardless of thread count.
//!
//! Admission control bounds residency: [`Cluster::capacity_per_accelerator`]
//! caps concurrent sessions per accelerator, and cameras past the bound are
//! either rejected with a typed
//! [`CoreError::AdmissionRejected`] or queued
//! ([`AdmissionPolicy`]) until a resident on their accelerator finishes.
//!
//! # Cross-camera label sharing
//!
//! With a [`crate::share`] policy selected ([`Cluster::share`]), the
//! executor additionally divides cluster virtual time into fixed exchange
//! windows ([`Cluster::share_window_s`]). Every accelerator loop advances to
//! the window boundary (in parallel — accelerators stay independent inside a
//! window), then a single-threaded barrier exchanges freshly teacher-labeled
//! samples between cameras: each live session's exports are offered to every
//! peer in **camera admission-index order**, the policy grants an admit
//! fraction per (importer, exporter) pair, and admitted samples enter the
//! importer's [`SampleBuffer`](crate::SampleBuffer) without the importer
//! paying any teacher labeling time. Grants are decided for every pair but
//! only the rows that survive the importer's FIFO eviction are copied (see
//! [`crate::share`] for the cost model). The deterministic exchange order keeps
//! shared runs bit-identical across worker-thread counts. Sharing telemetry
//! lands in [`ClusterResult::share`]; the reserved name `"none"` selects no
//! policy: it means the exchange stage is absent.
//!
//! # Edge–cloud offload
//!
//! With an offload policy selected ([`Cluster::offload`]), the same window
//! barriers additionally route each edge-configured camera's labeling for
//! the upcoming window: the local teacher, or the cloud tier behind the
//! camera's modeled uplink (see [`crate::edge`]). Decisions run
//! single-threaded in camera admission-index order, so routed runs stay
//! deterministic at any worker-thread count. A cloud-offloaded labeling
//! phase consumes no local accelerator compute — the executor exempts it
//! from arbitration exactly like a wait — and uplink telemetry aggregates
//! into [`ClusterResult::edge`]. The reserved name `"local-only"` (the
//! default) selects no policy: it means the routing stage is absent.
//!
//! # One executor
//!
//! Every run is the same loop over windows (`run_windows`): advance every
//! accelerator loop to the window boundary, then run the barrier's stages
//! in a fixed order — label exchange, churn, offload routing. Each stage is
//! optional: a reserved name (`"none"`, `"local-only"`) or an empty
//! [`ChurnPlan`] means the stage is absent, not that another executor runs.
//! A run with no stages is one unbounded window: its boundary is +∞, so no
//! barrier is ever crossed, and an accelerator's sessions are only built
//! when a worker first advances that accelerator — a `threads(1)` run holds
//! one accelerator's sessions at a time, where finite windows keep every
//! accelerator's residents alive from window 0 on.
//!
//! An observer is not a stage: it leaves the windows as they are, and each
//! accelerator loop samples its own state at window marks
//! `k · share_window_s` (k ≥ 1). In one unbounded window that is every
//! mark, taken before the loop executes its first event at or past it; in
//! finite windows it is every barrier's mark, taken when the loop is next
//! advanced after the barrier ran, so the samples describe the post-barrier
//! fleet (a window the executor skips for lack of events has no barrier
//! and no samples). At the end the executor has every loop sample the
//! run's final mark. An observed stage-free run therefore builds one
//! accelerator's residents at a time, too.
//!
//! # Who owns the training arena
//!
//! The accelerator, as in the paper's hardware, where a sub-accelerator's
//! buffers serve whichever model's kernel is scheduled on it. Each
//! accelerator loop holds exactly one `TrainScratch` and lends it to
//! everything its residents compute: the pre-training of a camera it admits
//! and every phase (labeling accuracy, measurements, retraining,
//! validation), each executed when its event pops. A resident session —
//! built here, or restored by a drain migration — never has an arena of its
//! own; what a camera costs while resident is its student's weights, its
//! sample buffer and its timeline. Lending is sound because an arena carries
//! capacity and no numeric state (every kernel overwrites what it reads:
//! `dacapo_dnn`'s tests, lifted to whole sessions of differing shapes and
//! precisions by `core`'s), and it needs no lock because a loop is what a
//! worker thread holds: one arena per loop means `threads(n)` shares
//! nothing. The arena's size is set by the largest batch any resident
//! evaluates, not by the resident count (a unit test of the loop holds
//! both), and it stays in cache from one resident's step to the next.
//!
//! # Barrier discipline
//!
//! Within a window the accelerator loops run in parallel and touch only
//! their own cameras; everything that crosses cameras happens in the
//! barrier's three stages, on one thread, between windows. Nothing polices
//! that at run time and no tool checks it: the module layout, privacy and
//! the borrow checker do.
//!
//! * **A worker holds one loop and nothing else.** `advance` — the only
//!   place this module spawns threads — hands each worker a `&mut AccelLoop`
//!   claimed from `loops.iter_mut()`. An `AccelLoop` owns or immutably
//!   borrows everything it holds (no `Arc`, lock, cell or atomic among its
//!   fields), so a worker has no path to another loop's sessions, and while
//!   the workers run, the borrow they share is the only one `loops` allows.
//! * **The stages need all loops at once.** `barrier::Barrier` has private
//!   fields and one constructor, over `&mut [AccelLoop]` — building one
//!   inside the parallel region is a borrow error, so the stages run where
//!   `run_windows` builds it: after `advance` returned.
//! * **A loop's barrier-side methods are not in its reach.** `accel_loop`
//!   holds what a worker can call (`run_until` and below) and never names
//!   `barrier`; handing over label exports, removing a leaver and draining
//!   an accelerator are `AccelLoop` methods *private to* `barrier`, so
//!   calling one from `run_until` does not compile.
//!
//! What the types do not forbid: `run_until` is free to call a
//! barrier-flavoured `Session` method (`admit_samples`, `set_label_route`)
//! on its *own* residents — it does hand them to an observer, in its window
//! samples. That cannot make a result depend on the thread count — one loop
//! is serial, and observed runs step their loops on one thread — but it
//! could still move a camera's numbers; the
//! finite-windows ≡ unbounded-window, solo ≡ fleet ≡ cluster, observed ≡
//! unobserved and two-pass-exchange ≡ oracle tests are what pin that.

mod accel_loop;
mod barrier;
mod plan;

pub use plan::{ChurnEvent, ChurnMetrics, ChurnPlan};

use crate::arbiter;
use crate::config::SimConfig;
use crate::edge::{self, EdgeMetrics, OffloadPolicy};
use crate::fleet::{aggregate, prefix_camera, CameraResult, FleetResult};
use crate::metrics::{mean, percentiles};
use crate::session::SimObserver;
use crate::share::{self, ShareMetrics};
use crate::sim::SimResult;
use crate::{CoreError, Result};
use accel_loop::{AccelLoop, AccelOutcome};
use barrier::{Barrier, ChurnOutcome, PairCorrelations, Resident, ShareStage};
use plan::{PreparedEvent, ResolvedChurn};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Default cross-camera exchange window in cluster virtual seconds (one
/// scenario segment at the paper's 60-second segmentation).
const DEFAULT_SHARE_WINDOW_S: f64 = 60.0;

/// What happens to cameras assigned past an accelerator's capacity bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Refuse to run: [`Cluster::run`] fails with
    /// [`CoreError::AdmissionRejected`] naming the first camera over the
    /// bound.
    Reject,
    /// Queue: the camera waits (in admission order, per accelerator) and
    /// starts at the cluster time a resident session finishes.
    Queue,
}

/// Cluster-wide contention telemetry: how hard the accelerators were fought
/// over, independent of the per-camera accuracy results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContentionMetrics {
    /// Number of shared accelerators in the pool.
    pub accelerators: usize,
    /// The arbitration policy name the cluster ran under.
    pub arbiter: String,
    /// Cluster virtual time at which the last session finished, in seconds.
    pub makespan_s: f64,
    /// Total phases executed across every session (including waits).
    pub steps_executed: usize,
    /// Mean stretch over arbitrated (labeling/retraining) steps: cluster-time
    /// duration divided by session-time duration, `1.0` meaning no
    /// contention. `0` when no arbitrated step executed.
    pub mean_step_stretch: f64,
    /// Median arbitrated-step stretch (`0` when no arbitrated step ran).
    pub p50_step_stretch: f64,
    /// 99th-percentile arbitrated-step stretch (the contention tail).
    pub p99_step_stretch: f64,
    /// Worst single-step stretch.
    pub max_step_stretch: f64,
    /// Per-accelerator utilization: arbitrated session-seconds executed
    /// divided by that accelerator's local makespan (`0` for idle
    /// accelerators).
    pub accelerator_utilization: Vec<f64>,
    /// Mean of [`Self::accelerator_utilization`].
    pub mean_accelerator_utilization: f64,
    /// Sum over accelerators of each event loop's peak heap depth — the
    /// cluster's peak concurrent event footprint.
    pub peak_queue_depth: usize,
    /// Cameras that waited in an admission queue before starting.
    pub queued_cameras: usize,
}

/// The outcome of a cluster run: the per-camera results and their fleet
/// aggregates, plus the contention telemetry only a shared-accelerator
/// execution can produce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterResult {
    /// Per-camera results and fleet-level aggregates, covering the initial
    /// cameras plus every mid-run join (in plan order after the initial
    /// set). With sharing disabled (the default `"none"` policy) camera
    /// results are bit-identical to solo runs — contention never changes a
    /// session's numbers, only its place on the cluster clock; a camera
    /// that left mid-run (or was orphaned by a drain) reports the partial
    /// result of its executed prefix. An active share policy feeds peers'
    /// labels into sessions' buffers, so camera results then legitimately
    /// differ from solo runs.
    pub fleet: FleetResult,
    /// Contention telemetry.
    pub contention: ContentionMetrics,
    /// Cross-camera label-sharing telemetry (zeroed under the `"none"`
    /// policy).
    pub share: ShareMetrics,
    /// Elastic-membership telemetry (zeroed, except peak residency, when
    /// the churn plan was empty).
    pub churn: ChurnMetrics,
    /// Edge–cloud offload telemetry: uplink bytes, filtered frames, and
    /// local-vs-cloud label counts aggregated across every camera (zeroed
    /// under the default `"local-only"` policy, or when no camera carries
    /// an edge tier).
    pub edge: EdgeMetrics,
}

impl ClusterResult {
    /// The camera result with the given name, if present.
    #[must_use]
    pub fn camera(&self, name: &str) -> Option<&SimResult> {
        self.fleet.camera(name)
    }
}

/// Builder-style driver for a cluster of camera sessions sharing a pool of
/// accelerators.
///
/// # Examples
///
/// ```no_run
/// use dacapo_core::{Cluster, SimConfig};
/// use dacapo_datagen::Scenario;
/// use dacapo_dnn::zoo::ModelPair;
///
/// # fn main() -> Result<(), dacapo_core::CoreError> {
/// // 1000 cameras contending for 4 accelerators under fair-share.
/// let mut cluster = Cluster::new(4).arbiter("fair-share");
/// for i in 0..1000 {
///     let scenario = Scenario::all()[i % 8].clone();
///     let config = SimConfig::builder(scenario, ModelPair::ResNet18Wrn50)
///         .seed(0xDACA90 + i as u64)
///         .build()?;
///     cluster = cluster.camera(format!("cam-{i:04}"), config);
/// }
/// let result = cluster.run()?;
/// println!(
///     "makespan {:.0} s, p99 stretch {:.1}x, mean accuracy {:.1}%",
///     result.contention.makespan_s,
///     result.contention.p99_step_stretch,
///     result.fleet.mean_accuracy * 100.0,
/// );
/// # Ok(())
/// # }
/// ```
pub struct Cluster {
    cameras: Vec<(String, SimConfig)>,
    accelerators: usize,
    threads: usize,
    arbiter: String,
    capacity: Option<usize>,
    admission: AdmissionPolicy,
    share: String,
    share_window_s: f64,
    churn: ChurnPlan,
    offload: String,
}

impl Cluster {
    /// Creates an empty cluster with `accelerators` shared accelerator
    /// resources, a `fair-share` arbiter, no admission bound, sharing
    /// disabled, and worker threads sized to the machine's available
    /// parallelism.
    #[must_use]
    pub fn new(accelerators: usize) -> Self {
        let threads = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        Self {
            cameras: Vec::new(),
            accelerators,
            threads,
            arbiter: "fair-share".to_string(),
            capacity: None,
            admission: AdmissionPolicy::Queue,
            share: "none".to_string(),
            share_window_s: DEFAULT_SHARE_WINDOW_S,
            churn: ChurnPlan::new(),
            offload: "local-only".to_string(),
        }
    }

    /// Adds a camera with its own configuration. Cameras are assigned to
    /// accelerators round-robin in the order they are added.
    #[must_use]
    pub fn camera(mut self, name: impl Into<String>, config: SimConfig) -> Self {
        self.cameras.push((name.into(), config));
        self
    }

    /// Selects the arbitration policy by registry name (see
    /// [`crate::arbiter::register`]), with an optional `:<params>` suffix —
    /// `"fair-share"`, `"priority:3,1"`, `"drift-first:4"`, or any custom
    /// registered policy.
    #[must_use]
    pub fn arbiter(mut self, name: impl Into<String>) -> Self {
        self.arbiter = name.into();
        self
    }

    /// Selects the cross-camera label-sharing policy by registry name (see
    /// [`crate::share::register`]), with an optional `:<params>` suffix —
    /// `"none"` (the default and a reserved name: the exchange stage is
    /// absent), `"broadcast"`, `"correlated:0.7"`, or any custom registered
    /// policy.
    #[must_use]
    pub fn share(mut self, name: impl Into<String>) -> Self {
        self.share = name.into();
        self
    }

    /// Sets the window length in cluster virtual seconds (default 60, one
    /// paper segment). Every barrier stage — label exchange, churn, offload
    /// routing — executes at the same window boundaries; a run with no
    /// stages is one unbounded window. An observer's window samples fall on
    /// the same marks, whether or not the run has barriers.
    #[must_use]
    pub fn share_window_s(mut self, window_s: f64) -> Self {
        self.share_window_s = window_s;
        self
    }

    /// Selects the edge–cloud offload policy by registry name (see
    /// [`crate::edge::register_offload`]), with an optional `:<params>`
    /// suffix — `"local-only"` (the default and a reserved name: the
    /// routing stage is absent, every camera labels on its own
    /// accelerator), `"cloud-only"`, `"threshold:<queue-depth>"`,
    /// `"budget:<bytes-per-window>"`, or any custom registered policy.
    /// Routing decisions are taken at the deterministic window barriers of
    /// [`Cluster::share_window_s`]; every policy other than `"local-only"`
    /// requires at least one camera carrying an
    /// [`EdgeConfig`](crate::edge::EdgeConfig). Cameras without an edge
    /// tier always label locally.
    #[must_use]
    pub fn offload(mut self, name: impl Into<String>) -> Self {
        self.offload = name.into();
        self
    }

    /// Installs an elastic-membership plan: cameras joining and leaving
    /// mid-run and accelerators draining (their residents snapshot-migrate
    /// to the survivors). Events execute at the deterministic window
    /// barriers of [`Cluster::share_window_s`]; with an empty plan (the
    /// default) the churn stage is absent.
    #[must_use]
    pub fn churn(mut self, plan: ChurnPlan) -> Self {
        self.churn = plan;
        self
    }

    /// Caps the number of worker threads (at least one is always used).
    /// Accelerators are independent, so threading never changes results.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Bounds the number of concurrently resident sessions per accelerator.
    /// Cameras past the bound are handled per the [`AdmissionPolicy`].
    #[must_use]
    pub fn capacity_per_accelerator(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Sets what happens to cameras past the capacity bound (default:
    /// [`AdmissionPolicy::Queue`]).
    #[must_use]
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Accepted and ignored: every phase runs when its event pops, in its
    /// accelerator loop's one arena, whatever is passed here. Kept because
    /// the frozen benchmark calls it.
    #[must_use]
    pub fn batch_retraining(self, _enabled: bool) -> Self {
        self
    }

    /// Number of cameras currently in the cluster.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cameras.len()
    }

    /// Whether the cluster has no cameras.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cameras.is_empty()
    }

    /// Runs every camera session to completion, accelerator loops spread
    /// across the worker threads, and aggregates results plus contention
    /// and sharing metrics. Deterministic at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty cluster, a zero
    /// accelerator/capacity bound, duplicate camera names, an invalid camera
    /// configuration, an unregistered arbiter or share policy, or a bad
    /// share window; [`CoreError::AdmissionRejected`] when the admission
    /// policy is [`AdmissionPolicy::Reject`] and a camera lands past the
    /// capacity bound; [`CoreError::WorkerPanicked`] when a plugin panics
    /// on a worker thread; and otherwise propagates the session error of
    /// the lowest-indexed failing accelerator, at any thread count.
    pub fn run(self) -> Result<ClusterResult> {
        self.run_impl(None)
    }

    /// Like [`Cluster::run`], but forwards every session event (phases,
    /// drift responses, accuracy samples, finishes) of every camera to
    /// `observer` through the standard [`SimObserver`] hooks, each burst
    /// preceded by [`SimObserver::on_step_context`] naming its camera and
    /// accelerator. An observer is not a barrier stage: it leaves the run's
    /// windows as [`Cluster::run`] has them, so a run with no share, churn
    /// or offload stage stays one unbounded window and builds one
    /// accelerator's residents at a time. The stream is grouped by window
    /// (within each window, accelerators stream in index order, each in
    /// cluster-virtual-time order; one unbounded window makes it
    /// accelerator-major). Each accelerator loop reports its state at the
    /// window marks `k · share_window_s` — every mark of an unbounded
    /// window, every barrier's otherwise — through
    /// [`SimObserver::on_window_sample`] (one per resident, in the loop's
    /// admission order) and [`SimObserver::on_accelerator_sample`], and
    /// [`SimObserver::on_window_barrier`] fires only where a real barrier
    /// runs. Execution is single-threaded so the observer needs no
    /// synchronisation and sees a bit-identical stream at any
    /// [`Cluster::threads`] setting. The returned result is identical to
    /// [`Cluster::run`]'s (property-tested).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Cluster::run`].
    pub fn run_with(self, observer: &mut dyn SimObserver) -> Result<ClusterResult> {
        self.run_impl(Some(observer))
    }

    fn run_impl(self, observer: Option<&mut dyn SimObserver>) -> Result<ClusterResult> {
        let ResolvedChurn { joiners, events } = self.validate()?;
        let accelerators = self.accelerators;
        let arbiter_name = self.arbiter;
        let offload_name = self.offload;
        let initial_cameras = self.cameras.len();
        let mut cameras = self.cameras;
        // Joined cameras extend the camera list (and therefore the results)
        // past the initial set; only the initial set is assigned up front.
        cameras.extend(joiners);
        // The optional stages: a reserved name means the stage is absent.
        let share = if share::is_disabled(&self.share) {
            None
        } else {
            let policy = share::create(&self.share)?;
            Some(ShareStage {
                metrics: ShareMetrics::fresh(policy.name(), self.share_window_s),
                correlations: PairCorrelations::new(cameras.len()),
                policy,
            })
        };
        let offload = if edge::is_local_only(&offload_name) {
            None
        } else {
            Some(edge::create_offload(&offload_name)?)
        };
        // A run with no stages never needs a barrier: it is one unbounded
        // window. An observer is not a stage: the loops sample their own
        // window marks.
        let staged = share.is_some() || offload.is_some() || !events.is_empty();
        let window_s = if staged { self.share_window_s } else { f64::INFINITY };

        let loops = (0..accelerators)
            .map(|accel| {
                // Round-robin assignment, in admission order per accelerator.
                let assigned: Vec<usize> = (accel..initial_cameras).step_by(accelerators).collect();
                AccelLoop::new(
                    accel,
                    &assigned,
                    &cameras,
                    &arbiter_name,
                    self.capacity,
                    share.is_some(),
                    self.share_window_s,
                )
            })
            .collect::<Result<Vec<_>>>()?;
        let executor = Executor {
            loops,
            cameras: &cameras,
            threads: self.threads,
            admission: self.admission,
            window_s,
            share,
            events,
            offload,
            observer,
            roster: Vec::new(),
            window: 0,
        };
        let (outcomes, share_stage, churn_outcome) = executor.run_windows()?;
        let share_metrics = share_stage
            .map_or_else(|| ShareMetrics::disabled(self.share_window_s), |stage| stage.metrics);

        let mut results: Vec<Option<SimResult>> = (0..cameras.len()).map(|_| None).collect();
        let mut stretches = Vec::new();
        let mut utilization = Vec::with_capacity(accelerators);
        let mut steps_executed = 0;
        let mut peak_queue_depth = 0;
        let mut queued_cameras = 0;
        let mut makespan_s: f64 = 0.0;
        let mut churn_metrics = churn_outcome.metrics;
        let mut edge_accum = churn_outcome.edge;
        for outcome in outcomes {
            for (camera_index, result) in outcome.results {
                results[camera_index] = Some(result);
            }
            edge_accum.merge(&outcome.edge);
            stretches.extend(outcome.stretches);
            steps_executed += outcome.steps;
            peak_queue_depth += outcome.peak_depth;
            queued_cameras += outcome.queued;
            churn_metrics.migration_stall_s += outcome.stall_s;
            makespan_s = makespan_s.max(outcome.makespan_s);
            let local_utilization =
                if outcome.makespan_s > 0.0 { outcome.busy_s / outcome.makespan_s } else { 0.0 };
            utilization.push(local_utilization);
        }
        for (camera_index, result) in churn_outcome.extra_results {
            results[camera_index] = Some(result);
        }
        // Cameras without a result either left before starting or were
        // orphaned from an admission queue — there is nothing to report for
        // them, so they are absent from the fleet results.
        let camera_results: Vec<CameraResult> = cameras
            .into_iter()
            .zip(results)
            .filter_map(|((camera, _), result)| {
                result.map(|result| CameraResult { camera, result })
            })
            .collect();
        let [p50_step_stretch, p99_step_stretch] = percentiles(&stretches, [50.0, 99.0]);
        let contention = ContentionMetrics {
            accelerators,
            arbiter: arbiter_name,
            makespan_s,
            steps_executed,
            mean_step_stretch: mean(&stretches),
            p50_step_stretch,
            p99_step_stretch,
            max_step_stretch: stretches.iter().copied().fold(0.0, f64::max),
            mean_accelerator_utilization: mean(&utilization),
            accelerator_utilization: utilization,
            peak_queue_depth,
            queued_cameras,
        };
        let fleet = aggregate(camera_results);
        let edge = EdgeMetrics::from_accum(offload_name, &edge_accum, fleet.mean_accuracy);
        Ok(ClusterResult { fleet, contention, share: share_metrics, churn: churn_metrics, edge })
    }

    /// Full up-front validation so a bad camera or policy fails fast,
    /// before any session is constructed or simulated. What comes back is
    /// the churn plan resolved against the cameras ([`plan::resolve`]).
    fn validate(&self) -> Result<ResolvedChurn> {
        if self.accelerators == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "a cluster needs at least one accelerator".into(),
            });
        }
        if self.cameras.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "a cluster needs at least one camera".into(),
            });
        }
        if self.capacity == Some(0) {
            return Err(CoreError::InvalidConfig {
                reason: "per-accelerator capacity must be at least one session".into(),
            });
        }
        if !(self.share_window_s.is_finite() && self.share_window_s > 0.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "cross-camera share window must be positive and finite, got {} s",
                    self.share_window_s
                ),
            });
        }
        for (i, (name, config)) in self.cameras.iter().enumerate() {
            if self.cameras[..i].iter().any(|(other, _)| other == name) {
                return Err(CoreError::InvalidConfig {
                    reason: format!("duplicate camera name '{name}'"),
                });
            }
            check_camera(name, config)?;
        }
        // Resolve every policy once up front: an unregistered policy or
        // malformed parameters must not fail mid-run. A reserved name has
        // no policy to resolve: its stage is absent.
        arbiter::create(&self.arbiter)?;
        if !share::is_disabled(&self.share) {
            share::create(&self.share)?;
            // Shared labels are copied row for row into peers' buffers, so
            // every camera that can take part in an exchange (joiners
            // included) must produce rows of one length.
            let joiners = self.churn.events().iter().filter_map(|event| match event {
                ChurnEvent::Join { camera, config, .. } => Some((camera.as_str(), &**config)),
                _ => None,
            });
            let mut participants =
                self.cameras.iter().map(|(name, config)| (name.as_str(), config)).chain(joiners);
            if let Some((first, first_config)) = participants.next() {
                let dim = first_config.stream.feature_dim;
                if let Some((other, other_config)) =
                    participants.find(|(_, config)| config.stream.feature_dim != dim)
                {
                    return Err(CoreError::InvalidConfig {
                        reason: format!(
                            "share policy '{}' needs every camera to agree on \
                             stream.feature_dim, but camera '{first}' has {dim} and camera \
                             '{other}' has {}",
                            self.share, other_config.stream.feature_dim
                        ),
                    });
                }
            }
        }
        if !edge::is_local_only(&self.offload) {
            edge::create_offload(&self.offload)?;
            let has_edge_camera = self.cameras.iter().any(|(_, config)| config.edge.is_some())
                || self.churn.events().iter().any(|event| {
                    matches!(event, ChurnEvent::Join { config, .. } if config.edge.is_some())
                });
            if !has_edge_camera {
                return Err(CoreError::InvalidConfig {
                    reason: format!(
                        "offload policy '{}' has nothing to route: no camera (initial or \
                         joining) carries an edge tier — attach one with \
                         SimConfig::builder(..).edge(..)",
                        self.offload
                    ),
                });
            }
        }
        let churn =
            plan::resolve(&self.churn, &self.cameras, self.accelerators, self.share_window_s)?;
        if self.admission == AdmissionPolicy::Reject {
            if let Some(capacity) = self.capacity {
                let bound = self.accelerators.checked_mul(capacity).ok_or_else(|| {
                    CoreError::InvalidConfig {
                        reason: format!(
                            "capacity_per_accelerator {capacity} on {} accelerators overflows \
                             the cluster's session bound",
                            self.accelerators
                        ),
                    }
                })?;
                if self.cameras.len() > bound {
                    let (camera, _) = &self.cameras[bound];
                    return Err(CoreError::AdmissionRejected {
                        camera: camera.clone(),
                        reason: format!(
                            "cluster capacity is {capacity} sessions on each of {} accelerators \
                             ({bound} total) and the admission policy is Reject",
                            self.accelerators
                        ),
                    });
                }
            }
        }
        Ok(churn)
    }
}

/// Catches a bad camera config (including an unregistered scheduler or
/// platform name) before any simulation time is spent, so the error carries
/// the offending camera's name. The resolutions are cheap; `Session::new`
/// repeats them.
fn check_camera(name: &str, config: &SimConfig) -> Result<()> {
    config.validate().map_err(|e| prefix_camera(name, e))?;
    config.scheduler.create(&config.hyper).map_err(|e| prefix_camera(name, e))?;
    config.platform_rates().map_err(|e| prefix_camera(name, e))?;
    Ok(())
}

/// The one executor: the accelerator loops, the optional barrier stages,
/// and the window counter. Every run — featureless or not, observed or
/// not — is [`Executor::run_windows`].
struct Executor<'a, 'o> {
    loops: Vec<AccelLoop<'a>>,
    cameras: &'a [(String, SimConfig)],
    threads: usize,
    admission: AdmissionPolicy,
    /// The window length; +∞ for a run with no stages.
    window_s: f64,
    share: Option<ShareStage>,
    /// The churn stage: events in execution order (empty = stage absent).
    events: Vec<PreparedEvent>,
    offload: Option<Box<dyn OffloadPolicy>>,
    observer: Option<&'a mut (dyn SimObserver + 'o)>,
    /// The barrier's list of live sessions, kept here so its storage is
    /// reused from one barrier to the next.
    roster: Vec<Resident>,
    window: usize,
}

impl<'a> Executor<'a, '_> {
    /// Algorithm 1's loop over windows: accelerator loops advance to the
    /// boundary (in parallel inside a window), then the single-threaded
    /// barrier runs the stages that are present — label exchange, churn,
    /// offload routing, in that order — and tells the observer the window
    /// closed. At the end every loop samples the run's final mark.
    fn run_windows(mut self) -> Result<(Vec<AccelOutcome>, Option<ShareStage>, ChurnOutcome)> {
        let mut churn = ChurnOutcome::default();
        churn.metrics.peak_residency = self.loops.iter().map(AccelLoop::live_count).sum();
        let mut next_event = 0usize;
        // Route the initial residents before any simulation time passes: the
        // run's opening stretch is window 0, decided at a virtual barrier at
        // 0 s. Routing is the one stage that needs sessions before time
        // moves, so it starts the loops itself: advancing to 0 s admits the
        // initial residents and executes nothing.
        if let Some(offload) = self.offload.as_deref_mut() {
            advance(&mut self.loops, 0.0, self.threads, self.observer.as_deref_mut())?;
            Barrier::new(
                &mut self.loops,
                &mut self.roster,
                self.cameras,
                0,
                0.0,
                self.observer.as_deref_mut(),
            )
            .route_offload(offload, 0)?;
        }
        while self.loops.iter().any(|accel_loop| !accel_loop.is_done())
            || next_event < self.events.len()
        {
            // Jump straight to the window containing the earliest due event (or
            // ending at the earliest pending churn event), so long event-free
            // stretches cost no barrier rounds. Windows are absolute
            // (`k * window_s`), so skipped empty windows leave the indices and
            // boundaries of the windows that do run — and therefore every
            // exchange and churn barrier — unchanged.
            let mut target_window = f64::INFINITY;
            let earliest_due_s =
                self.loops.iter().filter_map(AccelLoop::next_due_s).fold(f64::INFINITY, f64::min);
            if earliest_due_s.is_finite() {
                // A due event at time t executes inside window floor(t / w).
                target_window = target_window.min((earliest_due_s / self.window_s).floor());
            }
            if let Some(event) = self.events.get(next_event) {
                // A churn event at time t fires at the first boundary >= t,
                // i.e. at the end of window ceil(t / w) - 1.
                target_window =
                    target_window.min(((event.at_s / self.window_s).ceil() - 1.0).max(0.0));
            }
            if target_window.is_finite() {
                self.window = self.window.max(target_window as usize);
            }
            let boundary_s = (self.window as f64 + 1.0) * self.window_s;
            advance(&mut self.loops, boundary_s, self.threads, self.observer.as_deref_mut())?;
            // A run with no stages has no barrier: its one window never
            // closes.
            if boundary_s.is_finite() {
                let mut barrier = Barrier::new(
                    &mut self.loops,
                    &mut self.roster,
                    self.cameras,
                    self.window,
                    boundary_s,
                    self.observer.as_deref_mut(),
                );
                if let Some(stage) = self.share.as_mut() {
                    barrier.exchange_window(stage)?;
                }
                while let Some(event) = self.events.get(next_event) {
                    if event.at_s > boundary_s {
                        break;
                    }
                    barrier.apply_churn(event, self.admission, &mut churn)?;
                    next_event += 1;
                }
                // Routing runs after churn so the policy sees the post-churn
                // fleet (joined cameras included, departed ones gone) for the
                // window the barrier opens.
                if let Some(offload) = self.offload.as_deref_mut() {
                    barrier.route_offload(offload, self.window + 1)?;
                }
                if let Some(observer) = self.observer.as_deref_mut() {
                    observer.on_window_barrier(self.window, boundary_s);
                }
                let residency: usize = self.loops.iter().map(AccelLoop::live_count).sum();
                churn.metrics.peak_residency = churn.metrics.peak_residency.max(residency);
            }
            self.window += 1;
        }
        if let Some(observer) = self.observer {
            // The run's final mark closes the window of its last event, or
            // of its last barrier: every loop reports up to there.
            let last_mark = self
                .loops
                .iter()
                .map(|accel_loop| accel_loop.next_mark)
                .fold(self.window, usize::max);
            for accel_loop in &mut self.loops {
                accel_loop.sample_mark(last_mark, observer);
            }
        }
        if let Some(stage) = self.share.as_mut() {
            stage.metrics.windows = self.window;
        }
        Ok((self.loops.into_iter().map(AccelLoop::into_outcome).collect(), self.share, churn))
    }
}

/// Advances every accelerator loop to `boundary_s` — the executor's one
/// parallel region, for finite windows and the unbounded one alike.
/// Observed and single-worker runs step the loops in index order on the
/// calling thread. Otherwise workers claim loops dynamically; which thread
/// runs which loop never affects results, only wall-clock time, and the
/// error reported is always the lowest-indexed failing accelerator's: a
/// worker skips a loop only when a lower-indexed one has already failed.
fn advance(
    loops: &mut [AccelLoop<'_>],
    boundary_s: f64,
    threads: usize,
    mut observer: Option<&mut (dyn SimObserver + '_)>,
) -> Result<()> {
    let workers = threads.min(loops.len());
    if observer.is_some() || workers <= 1 {
        return loops
            .iter_mut()
            .try_for_each(|accel_loop| accel_loop.run_until(boundary_s, observer.as_deref_mut()));
    }
    // Claims never panic while holding the lock, so a poisoned queue is
    // still a valid queue.
    let queue = Mutex::new(loops.iter_mut().enumerate());
    let lowest_failed = AtomicUsize::new(usize::MAX);
    // The loop each worker is running, so a panicked worker can be named.
    let running: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
    let (queue, lowest_failed) = (&queue, &lowest_failed);
    let first_failure = std::thread::scope(|scope| {
        let handles: Vec<_> = running
            .iter()
            .map(|running| {
                scope.spawn(move || loop {
                    let (accel, accel_loop) =
                        queue.lock().unwrap_or_else(PoisonError::into_inner).next()?;
                    if accel > lowest_failed.load(Ordering::SeqCst) {
                        return None;
                    }
                    running.store(accel, Ordering::SeqCst);
                    if let Err(e) = accel_loop.run_until(boundary_s, None) {
                        lowest_failed.fetch_min(accel, Ordering::SeqCst);
                        return Some((accel, e));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .zip(&running)
            .filter_map(|(handle, running)| {
                handle.join().unwrap_or_else(|_| {
                    let accelerator = running.load(Ordering::SeqCst);
                    Some((accelerator, CoreError::WorkerPanicked { accelerator }))
                })
            })
            .min_by_key(|(accel, _)| *accel)
    });
    first_failure.map_or(Ok(()), |(_, e)| Err(e))
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the fail-fast tests time the host to show validation rejects a plan before any simulation runs"
)]
mod tests {
    use super::*;
    use crate::sched::SchedulerKind;
    use crate::sim::test_support::short_config;
    use crate::sim::PhaseRecord;

    fn two_camera_cluster(accelerators: usize) -> Cluster {
        Cluster::new(accelerators)
            .camera("calm", short_config(SchedulerKind::DaCapoSpatial))
            .camera("adaptive", short_config(SchedulerKind::DaCapoSpatiotemporal))
    }

    #[test]
    fn empty_clusters_zero_accelerators_and_duplicates_are_rejected() {
        assert!(Cluster::new(1).run().is_err());
        assert!(Cluster::new(0)
            .camera("a", short_config(SchedulerKind::NoAdaptation))
            .run()
            .is_err());
        let err = Cluster::new(1)
            .camera("a", short_config(SchedulerKind::NoAdaptation))
            .camera("a", short_config(SchedulerKind::NoAdaptation))
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        let err = Cluster::new(1)
            .capacity_per_accelerator(0)
            .camera("a", short_config(SchedulerKind::NoAdaptation))
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("capacity"), "{err}");
    }

    #[test]
    fn bad_configs_and_unknown_arbiters_fail_before_any_simulation() {
        let mut broken = short_config(SchedulerKind::NoAdaptation);
        broken.scheduler = "not-a-registered-policy".into();
        let started = std::time::Instant::now();
        let err = Cluster::new(2)
            .camera("good", short_config(SchedulerKind::NoAdaptation))
            .camera("broken", broken)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("broken"), "{err}");
        assert!(started.elapsed().as_millis() < 500, "validation should fail fast");

        let started = std::time::Instant::now();
        let err = two_camera_cluster(1).arbiter("warp-arbiter").run().unwrap_err();
        assert!(err.to_string().contains("warp-arbiter"), "{err}");
        assert!(started.elapsed().as_millis() < 500, "validation should fail fast");
        assert!(two_camera_cluster(1).arbiter("priority:bogus").run().is_err());
    }

    #[test]
    fn unknown_share_policies_and_bad_windows_fail_before_any_simulation() {
        let started = std::time::Instant::now();
        let err = two_camera_cluster(1).share("telepathy").run().unwrap_err();
        assert!(err.to_string().contains("telepathy"), "{err}");
        assert!(started.elapsed().as_millis() < 500, "validation should fail fast");
        assert!(two_camera_cluster(1).share("correlated:2.0").run().is_err());
        for window_s in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let err = two_camera_cluster(1)
                .share("broadcast")
                .share_window_s(window_s)
                .run()
                .unwrap_err();
            assert!(err.to_string().contains("share window"), "{err}");
        }
        // The window is only consulted with sharing active: a degenerate
        // value still fails fast even under the default "none" policy, so
        // misconfigurations cannot lurk until someone enables sharing.
        assert!(two_camera_cluster(1).share_window_s(0.0).run().is_err());
    }

    #[test]
    fn dedicated_accelerators_reproduce_the_fleet_exactly() {
        let cluster = two_camera_cluster(2).run().unwrap();
        for (camera, scheduler) in [
            ("calm", SchedulerKind::DaCapoSpatial),
            ("adaptive", SchedulerKind::DaCapoSpatiotemporal),
        ] {
            let solo = crate::ClSimulator::new(short_config(scheduler)).unwrap().run().unwrap();
            assert_eq!(cluster.camera(camera), Some(&solo), "{camera}");
        }
        // No contention: every arbitrated step ran at full capacity.
        assert_eq!(cluster.contention.accelerators, 2);
        assert!((cluster.contention.p99_step_stretch - 1.0).abs() < 1e-12);
        assert!((cluster.contention.max_step_stretch - 1.0).abs() < 1e-12);
        assert_eq!(cluster.contention.queued_cameras, 0);
        assert_eq!(cluster.contention.peak_queue_depth, 2, "one event per dedicated camera");
        // Sharing is off by default.
        assert_eq!(cluster.share.policy, "none");
        assert_eq!(cluster.share.labels_reused, 0);
        assert_eq!(cluster.share.windows, 0);
    }

    #[test]
    fn contention_stretches_cluster_time_but_not_camera_results() {
        let dedicated = two_camera_cluster(2).run().unwrap();
        let contended = two_camera_cluster(1).run().unwrap();
        // Same sessions, same numbers — only the cluster clock differs.
        assert_eq!(dedicated.fleet, contended.fleet);
        assert!(contended.contention.makespan_s > dedicated.contention.makespan_s);
        // Two residents under fair-share: every contended step stretches 2x
        // until the first camera finishes.
        assert!((contended.contention.max_step_stretch - 2.0).abs() < 1e-12);
        assert!(contended.contention.mean_step_stretch > 1.0);
        assert!(contended.contention.p50_step_stretch >= 1.0);
        assert!(contended.contention.p99_step_stretch >= contended.contention.p50_step_stretch);
    }

    #[test]
    fn utilization_is_full_for_a_dedicated_busy_camera() {
        // A spatiotemporal session labels/retrains nearly continuously, so a
        // dedicated accelerator is almost always busy.
        let result = Cluster::new(1)
            .camera("only", short_config(SchedulerKind::DaCapoSpatiotemporal))
            .run()
            .unwrap();
        assert_eq!(result.contention.accelerator_utilization.len(), 1);
        let utilization = result.contention.accelerator_utilization[0];
        assert!((0.5..=1.0).contains(&utilization), "utilization {utilization}");
        assert!((result.contention.mean_accelerator_utilization - utilization).abs() < 1e-12);
        assert!(result.contention.makespan_s >= result.fleet.cameras[0].result.duration_s - 1e-9);
    }

    #[test]
    fn idle_accelerators_report_zero_utilization() {
        let result = Cluster::new(3)
            .camera("only", short_config(SchedulerKind::NoAdaptation))
            .run()
            .unwrap();
        assert_eq!(result.contention.accelerator_utilization.len(), 3);
        assert_eq!(result.contention.accelerator_utilization[1], 0.0);
        assert_eq!(result.contention.accelerator_utilization[2], 0.0);
        // A no-adaptation camera only waits: nothing is ever arbitrated.
        assert_eq!(result.contention.mean_step_stretch, 0.0);
        assert_eq!(result.contention.p99_step_stretch, 0.0);
    }

    #[test]
    fn admission_rejects_past_capacity_with_a_typed_error() {
        let err = two_camera_cluster(1)
            .capacity_per_accelerator(1)
            .admission(AdmissionPolicy::Reject)
            .run()
            .unwrap_err();
        match &err {
            CoreError::AdmissionRejected { camera, reason } => {
                assert_eq!(camera, "adaptive");
                assert!(reason.contains("capacity is 1"), "{reason}");
            }
            other => panic!("expected AdmissionRejected, got {other:?}"),
        }
        assert!(err.to_string().contains("adaptive"), "{err}");
        // A bound past `usize::MAX` is a configuration error, not a wrap.
        let overflowing = two_camera_cluster(2)
            .capacity_per_accelerator(usize::MAX)
            .admission(AdmissionPolicy::Reject)
            .run();
        match overflowing {
            Err(CoreError::InvalidConfig { reason }) => {
                assert!(reason.contains("capacity_per_accelerator"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn queued_cameras_wait_for_a_resident_to_finish() {
        let queued = two_camera_cluster(1)
            .capacity_per_accelerator(1)
            .admission(AdmissionPolicy::Queue)
            .run()
            .unwrap();
        let unbounded = two_camera_cluster(1).run().unwrap();
        // Queueing serialises the cameras: identical results, no stretch,
        // and a makespan spanning both runs back to back.
        assert_eq!(queued.fleet, unbounded.fleet);
        assert_eq!(queued.contention.queued_cameras, 1);
        assert!((queued.contention.max_step_stretch - 1.0).abs() < 1e-12);
        assert!(queued.contention.makespan_s > unbounded.contention.makespan_s - 1e-9);
    }

    #[test]
    fn thread_count_never_changes_cluster_results() {
        let serial = two_camera_cluster(2).threads(1).run().unwrap();
        let parallel = two_camera_cluster(2).threads(8).run().unwrap();
        assert_eq!(serial, parallel);
    }

    /// Registers `zero-admit`, a share policy that admits nothing: an
    /// exchange stage that gives a run finite windows and changes no
    /// camera's numbers, only the share metrics. Returns its name.
    fn zero_admit() -> &'static str {
        use crate::share::{ShareContext, SharePolicy};

        struct ZeroAdmit;
        impl SharePolicy for ZeroAdmit {
            fn name(&self) -> String {
                "zero-admit".to_string()
            }
            fn admit_fraction(&mut self, _ctx: &ShareContext<'_>) -> f64 {
                0.0
            }
        }
        share::register("zero-admit", |_| Ok(Box::new(ZeroAdmit)));
        "zero-admit"
    }

    /// The memory shape the unbounded window buys: sessions are built when
    /// a worker first advances their accelerator and dropped as they
    /// finish, so a feature-free single-threaded run holds one
    /// accelerator's residents at a time, observed or not. Finite windows
    /// (here: an exchange stage that admits nothing) advance every
    /// accelerator in window 0 and keep all of them alive — which is what
    /// finite windows cost in memory.
    #[test]
    fn an_unbounded_window_holds_one_accelerators_sessions_at_a_time() {
        use crate::sched::{self, Action, Scheduler, SchedulerContext};

        static LIVE: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);

        /// A spatial scheduler that counts itself — and so its session —
        /// alive from `build` to `Drop`.
        struct Counted(Box<dyn Scheduler>);
        impl Scheduler for Counted {
            fn name(&self) -> String {
                "live-counted".to_string()
            }
            fn next_action(&mut self, ctx: &SchedulerContext) -> Action {
                self.0.next_action(ctx)
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::SeqCst);
            }
        }
        sched::register("live-counted", |hyper| {
            let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
            PEAK.fetch_max(live, Ordering::SeqCst);
            Box::new(Counted(SchedulerKind::DaCapoSpatial.create(hyper)))
        });
        let build = || {
            let mut config = short_config(SchedulerKind::DaCapoSpatial);
            config.scheduler = "live-counted".into();
            (0..24).fold(Cluster::new(4).threads(1), |cluster, i| {
                cluster.camera(format!("cam-{i}"), config.clone())
            })
        };
        let plain = build().run().unwrap();
        assert_eq!(LIVE.load(Ordering::SeqCst), 0);
        assert_eq!(PEAK.swap(0, Ordering::SeqCst), 6, "one accelerator's six residents");
        let observed = build().run_with(&mut ()).unwrap();
        assert_eq!(LIVE.load(Ordering::SeqCst), 0);
        assert_eq!(PEAK.swap(0, Ordering::SeqCst), 6, "an observer is not a stage");
        assert_eq!(plain, observed);
        let mut windowed = build().share(zero_admit()).run_with(&mut ()).unwrap();
        assert_eq!(PEAK.load(Ordering::SeqCst), 24, "every accelerator's residents at once");
        assert!(windowed.share.windows > 0, "the exchange stage ran");
        windowed.share = plain.share.clone();
        assert_eq!(plain, windowed);
    }

    #[test]
    fn batching_is_invisible_when_residents_disagree_on_every_arena_shape() {
        // Every phase of a loop computes in that loop's one arena. Put
        // cameras on it that reshape the arena's every buffer between turns
        // (fp32 and MX, three feature widths, three mini-batch sizes), cut
        // the run into short windows, and the thread count may not show —
        // and every camera still reports what it reports alone, in an arena
        // of its own.
        let configs = crate::sim::test_support::mixed_configs(7);
        // The windows come from a churn stage whose one event, a leave long
        // after every camera finished, changes nothing: an exchange stage
        // would need the cameras to agree on one feature width.
        let build = |threads: usize| {
            let mut cluster = Cluster::new(2)
                .churn(ChurnPlan::new().leave(1e5, "cam-0"))
                .share_window_s(7.0)
                .threads(threads);
            for (i, config) in configs.iter().enumerate() {
                cluster = cluster.camera(format!("cam-{i}"), config.clone());
            }
            cluster.run_with(&mut ()).unwrap()
        };
        let serial = build(1);
        assert_eq!(serial.churn.leaves, 1);
        assert_eq!(serial, build(2));
        for (i, config) in configs.into_iter().enumerate() {
            let solo = crate::ClSimulator::new(config).unwrap().run().unwrap();
            assert_eq!(serial.camera(&format!("cam-{i}")), Some(&solo));
        }
    }

    #[test]
    fn share_churn_and_offload_compose_identically_at_any_thread_count() {
        // Joins, leaves, snapshot migration (drain), label exchange and
        // offload routing all mutate sessions between windows, on one
        // thread; the loops between them run in parallel. No thread count
        // may show in the result.
        let build = |threads: usize| {
            let plan = ChurnPlan::new()
                .join(40.0, "late", edge_camera(SchedulerKind::DaCapoSpatiotemporal, "wifi"))
                .drain(60.0, 1)
                .leave(80.0, "a");
            Cluster::new(2)
                .camera("a", edge_camera(SchedulerKind::DaCapoSpatiotemporal, "wifi"))
                .camera("b", edge_camera(SchedulerKind::DaCapoSpatiotemporal, "wifi"))
                .camera("c", short_config(SchedulerKind::DaCapoSpatial))
                .share("broadcast")
                .share_window_s(20.0)
                .offload("threshold:1")
                .churn(plan)
                .threads(threads)
                .run()
                .unwrap()
        };
        let serial = build(1);
        let churn = &serial.churn;
        assert_eq!((churn.joins, churn.drains, churn.leaves), (1, 1, 1), "{churn:?}");
        assert!(serial.share.labels_reused > 0, "{:?}", serial.share);
        assert!(serial.edge.labels_cloud > 0, "{:?}", serial.edge);
        assert_eq!(serial, build(2));
        assert_eq!(serial, build(8));
    }

    #[test]
    fn explicit_none_share_matches_the_default_exactly() {
        let default = two_camera_cluster(1).run().unwrap();
        let explicit = two_camera_cluster(1).share("none").run().unwrap();
        assert_eq!(default, explicit);
    }

    #[test]
    fn broadcast_sharing_reuses_labels_between_co_located_cameras() {
        // Both short_config cameras walk the same scenario, so any export
        // is admissible; the spatiotemporal sessions label continuously.
        let shared = Cluster::new(1)
            .camera("a", short_config(SchedulerKind::DaCapoSpatiotemporal))
            .camera("b", short_config(SchedulerKind::DaCapoSpatiotemporal))
            .share("broadcast")
            .share_window_s(20.0)
            .run()
            .unwrap();
        assert_eq!(shared.share.policy, "broadcast");
        assert!(shared.share.windows >= 1);
        assert!(shared.share.labels_exported > 0, "{:?}", shared.share);
        assert!(shared.share.labels_reused > 0, "{:?}", shared.share);
        assert!(shared.share.labeling_seconds_saved > 0.0, "{:?}", shared.share);
        // Contention telemetry is unaffected by what lands in the buffers:
        // grants depend only on residency, which sharing does not change.
        let unshared = Cluster::new(1)
            .camera("a", short_config(SchedulerKind::DaCapoSpatiotemporal))
            .camera("b", short_config(SchedulerKind::DaCapoSpatiotemporal))
            .run()
            .unwrap();
        assert_eq!(shared.contention.accelerators, unshared.contention.accelerators);
        assert_eq!(shared.contention.queued_cameras, unshared.contention.queued_cameras);
    }

    #[test]
    fn invalid_admit_fractions_from_untrusted_policies_error_instead_of_corrupting() {
        use crate::share::{ShareContext, SharePolicy};

        struct NanAdmit;
        impl SharePolicy for NanAdmit {
            fn name(&self) -> String {
                "nan-admit".to_string()
            }
            fn admit_fraction(&mut self, _ctx: &ShareContext<'_>) -> f64 {
                f64::NAN
            }
        }
        share::register("nan-admit", |_| Ok(Box::new(NanAdmit)));
        let err = Cluster::new(1)
            .camera("a", short_config(SchedulerKind::DaCapoSpatiotemporal))
            .camera("b", short_config(SchedulerKind::DaCapoSpatiotemporal))
            .share("nan-admit")
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("invalid admit fraction"), "{err}");
    }

    #[test]
    fn observed_runs_match_unobserved_runs_and_see_every_event() {
        #[derive(Default)]
        struct Counter {
            phases: usize,
            accuracy: usize,
            drifts: usize,
            finished: usize,
        }
        impl SimObserver for Counter {
            fn on_phase(&mut self, _phase: &PhaseRecord) {
                self.phases += 1;
            }
            fn on_drift(&mut self, _at_s: f64, _index: usize) {
                self.drifts += 1;
            }
            fn on_accuracy(&mut self, _at_s: f64, _accuracy: f64) {
                self.accuracy += 1;
            }
            fn on_finished(&mut self) {
                self.finished += 1;
            }
        }

        let mut counter = Counter::default();
        let observed = two_camera_cluster(1).run_with(&mut counter).unwrap();
        let plain = two_camera_cluster(1).run().unwrap();
        assert_eq!(observed, plain, "observation must not perturb the run");
        let phases: usize = observed.fleet.cameras.iter().map(|c| c.result.phases.len()).sum();
        let accuracy: usize =
            observed.fleet.cameras.iter().map(|c| c.result.accuracy_timeline.len()).sum();
        assert_eq!(counter.phases, phases);
        assert_eq!(counter.accuracy, accuracy);
        assert_eq!(counter.drifts, observed.fleet.total_drift_responses);
        assert_eq!(counter.finished, observed.fleet.cameras.len());
    }

    #[test]
    fn observed_shared_runs_match_unobserved_shared_runs() {
        #[derive(Default)]
        struct Counter {
            finished: usize,
        }
        impl SimObserver for Counter {
            fn on_finished(&mut self) {
                self.finished += 1;
            }
        }
        let build = || {
            Cluster::new(1)
                .camera("a", short_config(SchedulerKind::DaCapoSpatiotemporal))
                .camera("b", short_config(SchedulerKind::DaCapoSpatial))
                .share("broadcast")
                .share_window_s(25.0)
        };
        let mut counter = Counter::default();
        let observed = build().run_with(&mut counter).unwrap();
        let plain = build().run().unwrap();
        assert_eq!(observed, plain, "observation must not perturb a shared run");
        assert_eq!(counter.finished, 2);
    }

    /// Records the `(accelerator, window, boundary)` of every accelerator
    /// sample and counts window barriers.
    #[derive(Default)]
    struct Marks {
        sampled: Vec<(usize, usize, f64)>,
        barriers: usize,
    }

    impl SimObserver for Marks {
        fn on_window_barrier(&mut self, _window_index: usize, _boundary_s: f64) {
            self.barriers += 1;
        }
        fn on_accelerator_sample(&mut self, sample: &crate::AcceleratorSample) {
            self.sampled.push((sample.accelerator, sample.window_index, sample.boundary_s));
        }
    }

    #[test]
    fn a_stage_free_observed_run_crosses_no_barrier_and_samples_every_mark() {
        let mut marks = Marks::default();
        let build = || two_camera_cluster(2).share_window_s(20.0);
        let observed = build().run_with(&mut marks).unwrap();
        assert_eq!(observed, build().run().unwrap());
        assert_eq!(marks.barriers, 0, "an observer is not a stage");
        // Each accelerator reports marks in order, once each, up to the
        // run's last; the one that ran longest reports every mark.
        let last = (observed.contention.makespan_s / 20.0).floor() as usize;
        let windows = |accel: usize| -> Vec<usize> {
            marks.sampled.iter().filter(|(a, ..)| *a == accel).map(|&(_, w, _)| w).collect()
        };
        for accel in 0..2 {
            let windows = windows(accel);
            assert_eq!(windows.last(), Some(&last), "{windows:?}");
            assert!(windows.windows(2).all(|pair| pair[0] < pair[1]), "{windows:?}");
        }
        let every: Vec<usize> = (0..=last).collect();
        assert!(windows(0) == every || windows(1) == every, "{:?}", marks.sampled);
        assert!(marks
            .sampled
            .iter()
            .all(|&(_, w, boundary_s)| boundary_s == (w + 1) as f64 * 20.0));
        // Accelerator-major: accelerator 0 streams its marks before
        // accelerator 1 starts, but for the final one.
        let first_of_1 = marks.sampled.iter().position(|(a, ..)| *a == 1).unwrap();
        assert_eq!(first_of_1, windows(0).len() - 1, "{:?}", marks.sampled);
    }

    /// A churn event far in the future makes the executor jump over every
    /// empty window to its barrier; an observer's samples jump with it
    /// instead of reporting each idle mark on the way.
    #[test]
    fn a_far_churn_barrier_is_sampled_without_the_idle_marks_before_it() {
        let plan = ChurnPlan::new().leave(1e12, "calm");
        let mut marks = Marks::default();
        let observed = two_camera_cluster(1).churn(plan.clone()).run_with(&mut marks).unwrap();
        assert_eq!(observed, two_camera_cluster(1).churn(plan).run().unwrap());
        // The leave fires at the first barrier at or after 1e12 s.
        let &(_, _, last_s) = marks.sampled.last().unwrap();
        assert!((1e12..1e12 + 60.0).contains(&last_s), "{last_s}");
        assert_eq!(marks.sampled.len(), marks.barriers, "one sample per barrier");
        assert!(marks.barriers < 10, "{} barriers", marks.barriers);
    }

    #[test]
    fn invalid_shares_from_untrusted_arbiters_error_instead_of_spinning() {
        use crate::arbiter::{Arbiter, GrantRequest};

        /// Grants whatever share its parameter spells.
        struct BadShare(f64);
        impl Arbiter for BadShare {
            fn name(&self) -> String {
                "bad-share".to_string()
            }
            fn grant(&mut self, _request: &GrantRequest<'_>) -> f64 {
                self.0
            }
        }
        arbiter::register("bad-share", |params| {
            Ok(Box::new(BadShare(params.and_then(|p| p.parse().ok()).unwrap_or(f64::NAN))))
        });
        // NaN, out of range, and a subnormal whose reciprocal overflows: the
        // last would park the camera at +inf on the cluster clock, where no
        // window — not even the unbounded one — ever reaches it.
        for share in ["NaN", "0", "1.5", "5e-324"] {
            let cluster = two_camera_cluster(1).arbiter(format!("bad-share:{share}"));
            let err = cluster.run().unwrap_err();
            assert!(err.to_string().contains("invalid capacity share"), "{share}: {err}");
        }
    }

    #[test]
    fn drift_first_changes_contention_but_never_camera_results() {
        let fair = Cluster::new(1)
            .camera("a", short_config(SchedulerKind::DaCapoSpatiotemporal))
            .camera("b", short_config(SchedulerKind::DaCapoSpatial))
            .run()
            .unwrap();
        let drift_first = Cluster::new(1)
            .arbiter("drift-first:4")
            .camera("a", short_config(SchedulerKind::DaCapoSpatiotemporal))
            .camera("b", short_config(SchedulerKind::DaCapoSpatial))
            .run()
            .unwrap();
        assert_eq!(fair.fleet, drift_first.fleet);
        // The spatiotemporal camera drifts (see sim tests), so drift-first
        // reallocates: its recovery steps run at a 5/4 stretch instead of
        // the fair 2x, which shows up in the contention aggregates.
        assert!(fair.fleet.total_drift_responses >= 1);
        assert_ne!(fair.contention, drift_first.contention);
    }

    #[test]
    fn explicit_empty_churn_plan_matches_the_default_exactly() {
        let default = two_camera_cluster(1).run().unwrap();
        let explicit = two_camera_cluster(1).churn(ChurnPlan::new()).run().unwrap();
        assert_eq!(default, explicit);
        assert_eq!(default.churn.joins, 0);
        assert_eq!(default.churn.migrations, 0);
        assert_eq!(default.churn.peak_residency, 2);
    }

    #[test]
    fn joined_cameras_run_to_completion_and_extend_the_fleet() {
        let plan =
            ChurnPlan::new().join(30.0, "late", short_config(SchedulerKind::DaCapoSpatiotemporal));
        let result = two_camera_cluster(2).churn(plan).run().unwrap();
        assert_eq!(result.churn.joins, 1);
        assert_eq!(result.fleet.cameras.len(), 3);
        assert_eq!(result.fleet.cameras[2].camera, "late", "joins follow the initial set");
        let late = result.camera("late").expect("joined camera reports a result");
        // The joined camera ran its entire scenario (120 s short_config).
        assert!((late.duration_s - 120.0).abs() < 1e-9);
        // Contention aside, a joined camera's numbers match a solo run.
        let solo = crate::ClSimulator::new(short_config(SchedulerKind::DaCapoSpatiotemporal))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(late, &solo);
        // It joined at the first 60 s barrier, so the cluster clock ran at
        // least to 60 + 120.
        assert!(result.contention.makespan_s >= 180.0 - 1e-9);
        assert_eq!(result.churn.peak_residency, 3);
    }

    #[test]
    fn leaving_cameras_report_partial_results_at_the_barrier() {
        let plan = ChurnPlan::new().leave(60.0, "adaptive");
        let result = two_camera_cluster(2).churn(plan).run().unwrap();
        assert_eq!(result.churn.leaves, 1);
        assert_eq!(result.fleet.cameras.len(), 2);
        let departed = result.camera("adaptive").expect("partial result present");
        assert!(
            departed.duration_s < 120.0 - 1e-9,
            "a mid-run leave covers only the executed prefix ({} s)",
            departed.duration_s
        );
        // The survivor is untouched.
        let full = result.camera("calm").unwrap();
        assert!((full.duration_s - 120.0).abs() < 1e-9);
        // Leaving after the scenario already finished is a no-op.
        let noop = two_camera_cluster(2)
            .churn(ChurnPlan::new().leave(10_000.0, "adaptive"))
            .run()
            .unwrap();
        assert_eq!(noop.fleet, two_camera_cluster(2).run().unwrap().fleet);
        assert_eq!(noop.churn.leaves, 1);
    }

    #[test]
    fn drained_accelerators_migrate_residents_without_changing_results() {
        let baseline = two_camera_cluster(2).run().unwrap();
        // Two cameras on two accelerators; accelerator 1 (hosting
        // "adaptive") drains at 50 s → its session snapshot-migrates onto
        // accelerator 0 and finishes there.
        let drained = two_camera_cluster(2).churn(ChurnPlan::new().drain(50.0, 1)).run().unwrap();
        assert_eq!(drained.churn.drains, 1);
        assert_eq!(drained.churn.migrations, 1);
        assert_eq!(drained.churn.orphaned_cameras, 0);
        assert!(drained.churn.migration_stall_s >= 0.0);
        // Sharing is off, so migration must not perturb any camera's
        // numbers: results are bit-identical to the churn-free cluster.
        assert_eq!(drained.fleet, baseline.fleet);
        // Post-migration the survivor accelerator hosts both sessions, so
        // contention appears where the baseline had none.
        assert!(
            drained.contention.max_step_stretch >= baseline.contention.max_step_stretch - 1e-12
        );
    }

    #[test]
    fn draining_every_accelerator_orphans_the_residents() {
        let result = two_camera_cluster(1).churn(ChurnPlan::new().drain(60.0, 0)).run().unwrap();
        assert_eq!(result.churn.drains, 1);
        assert_eq!(result.churn.migrations, 0);
        assert_eq!(result.churn.orphaned_cameras, 2);
        // Orphans report the executed prefix.
        for camera in &result.fleet.cameras {
            assert!(camera.result.duration_s < 120.0 - 1e-9, "{}", camera.camera);
        }
    }

    #[test]
    fn malformed_churn_plans_fail_before_any_simulation() {
        let started = std::time::Instant::now();
        let checks: Vec<(ChurnPlan, &str)> = vec![
            (ChurnPlan::new().leave(f64::NAN, "calm"), "finite"),
            (ChurnPlan::new().leave(-5.0, "calm"), "non-negative"),
            (ChurnPlan::new().leave(10.0, "ghost"), "unknown camera"),
            (ChurnPlan::new().drain(10.0, 7), "accelerator 7"),
            (ChurnPlan::new().drain(10.0, 0).drain(20.0, 0), "drained twice"),
            (
                ChurnPlan::new().join(10.0, "calm", short_config(SchedulerKind::NoAdaptation)),
                "duplicates",
            ),
            (
                ChurnPlan::new()
                    .join(100.0, "late", short_config(SchedulerKind::NoAdaptation))
                    .leave(50.0, "late"),
                "before joining",
            ),
            (ChurnPlan::new().leave(1e22, "calm"), "representable window range"),
        ];
        for (plan, needle) in checks {
            let err = two_camera_cluster(2).churn(plan).run().unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
        assert!(started.elapsed().as_millis() < 500, "churn validation should fail fast");
    }

    #[test]
    fn displaced_queued_cameras_start_on_idle_survivors_instead_of_vanishing() {
        use crate::sim::test_support::fast_rates;
        use dacapo_datagen::{Scenario, Segment, SegmentAttributes};
        use dacapo_dnn::zoo::ModelPair;

        let config_with_duration = |seconds: f64| {
            let scenario = Scenario::try_from_segments(
                "churn-len",
                vec![Segment { attributes: SegmentAttributes::default(), duration_s: seconds }],
            )
            .expect("segments are non-empty with positive durations");
            SimConfig::builder(scenario, ModelPair::ResNet18Wrn50)
                .platform_rates(fast_rates("churn-test"))
                .scheduler(SchedulerKind::DaCapoSpatiotemporal)
                .measurement(10.0, 10)
                .pretrain_samples(48)
                .build()
                .unwrap()
        };
        // Round-robin over 3 accelerators at capacity 1: cam-0 (long) →
        // accel 0 with cam-3 queued behind it, cam-1/cam-2 (short) finish
        // early on accels 1/2. Draining accel 0 at t=120 then migrates
        // cam-0 onto one idle survivor and must *start* the displaced
        // cam-3 on the other — an idle accelerator never revisits its
        // queue, so merely enqueueing would silently lose the camera.
        let result = Cluster::new(3)
            .capacity_per_accelerator(1)
            .camera("cam-0", config_with_duration(300.0))
            .camera("cam-1", config_with_duration(60.0))
            .camera("cam-2", config_with_duration(60.0))
            .camera("cam-3", config_with_duration(60.0))
            .churn(ChurnPlan::new().drain(120.0, 0))
            .run()
            .unwrap();
        assert_eq!(result.fleet.cameras.len(), 4, "no camera may vanish");
        assert_eq!(result.churn.orphaned_cameras, 0);
        assert_eq!(result.churn.migrations, 1);
        let displaced = result.camera("cam-3").expect("displaced camera ran");
        assert!((displaced.duration_s - 60.0).abs() < 1e-9, "cam-3 ran its whole scenario");
        let migrated = result.camera("cam-0").expect("migrated camera ran");
        assert!((migrated.duration_s - 300.0).abs() < 1e-9);
        // cam-3 waited in a queue exactly once (its initial admission);
        // being re-homed by the drain is not a second wait.
        assert_eq!(result.contention.queued_cameras, 1);
        // The drained accelerator served cam-0 for ~120 s before the
        // barrier, which must show up as non-zero, sane utilization.
        let drained_utilization = result.contention.accelerator_utilization[0];
        assert!(
            drained_utilization > 0.0 && drained_utilization <= 1.0 + 1e-9,
            "drained accelerator utilization {drained_utilization}"
        );
    }

    #[test]
    fn churn_validation_follows_execution_order_not_plan_order() {
        // The leave is *added* before the join but executes after it in
        // virtual time; validation must accept what the barriers would run.
        let plan = ChurnPlan::new().leave(100.0, "late").join(
            30.0,
            "late",
            short_config(SchedulerKind::DaCapoSpatiotemporal),
        );
        let result = two_camera_cluster(2).churn(plan).run().unwrap();
        assert_eq!(result.churn.joins, 1);
        assert_eq!(result.churn.leaves, 1);
        let late = result.camera("late").expect("joined camera reports a result");
        assert!(late.duration_s < 120.0 - 1e-9, "the later leave cut the run short");
    }

    #[test]
    fn churn_composes_with_cross_camera_sharing() {
        let plan =
            ChurnPlan::new().join(40.0, "late", short_config(SchedulerKind::DaCapoSpatiotemporal));
        let result = Cluster::new(1)
            .camera("a", short_config(SchedulerKind::DaCapoSpatiotemporal))
            .camera("b", short_config(SchedulerKind::DaCapoSpatiotemporal))
            .share("broadcast")
            .share_window_s(20.0)
            .churn(plan)
            .run()
            .unwrap();
        assert_eq!(result.churn.joins, 1);
        assert!(result.share.labels_reused > 0, "{:?}", result.share);
        assert_eq!(result.fleet.cameras.len(), 3);
        assert!(result.camera("late").is_some());
    }

    fn edge_camera(scheduler: SchedulerKind, uplink: &str) -> SimConfig {
        let mut config = short_config(scheduler);
        config.edge = Some(crate::edge::EdgeConfig::new(uplink));
        config
    }

    #[test]
    fn unknown_offload_policies_and_edgeless_clusters_fail_before_any_simulation() {
        let started = std::time::Instant::now();
        let err = two_camera_cluster(1).offload("teleport").run().unwrap_err();
        assert!(err.to_string().contains("teleport"), "{err}");
        assert!(two_camera_cluster(1).offload("threshold:bogus").run().is_err());
        assert!(two_camera_cluster(1).offload("budget:0").run().is_err());
        // Any routing policy needs at least one edge-configured camera.
        let err = two_camera_cluster(1).offload("cloud-only").run().unwrap_err();
        assert!(err.to_string().contains("edge tier"), "{err}");
        assert!(started.elapsed().as_millis() < 500, "offload validation should fail fast");
        // A joining edge camera satisfies the requirement even when the
        // initial fleet is edgeless.
        let plan = ChurnPlan::new().join(
            30.0,
            "late",
            edge_camera(SchedulerKind::DaCapoSpatiotemporal, "broadband"),
        );
        let result = two_camera_cluster(2).offload("cloud-only").churn(plan).run().unwrap();
        assert!(result.edge.labels_cloud > 0, "{:?}", result.edge);
    }

    #[test]
    fn local_only_offload_matches_the_default_and_never_ships_bytes() {
        let baseline = two_camera_cluster(1).run().unwrap();
        let explicit = two_camera_cluster(1).offload("local-only").run().unwrap();
        assert_eq!(baseline, explicit);
        assert_eq!(baseline.edge.policy, "local-only");
        assert_eq!(baseline.edge.bytes_shipped, 0);
        // Edge-configured cameras left on the local route are bit-identical
        // to plain ones: the tier only keeps counters.
        let with_tier = Cluster::new(1)
            .camera("calm", edge_camera(SchedulerKind::DaCapoSpatial, "broadband"))
            .camera("adaptive", edge_camera(SchedulerKind::DaCapoSpatiotemporal, "broadband"))
            .run()
            .unwrap();
        assert_eq!(with_tier.fleet, baseline.fleet);
        assert_eq!(with_tier.contention, baseline.contention);
        assert!(with_tier.edge.labels_local > 0, "{:?}", with_tier.edge);
        assert_eq!(with_tier.edge.labels_cloud, 0);
        assert_eq!(with_tier.edge.bytes_shipped, 0);
    }

    #[test]
    fn cloud_only_offload_ships_labels_over_the_uplink() {
        let result = Cluster::new(1)
            .camera("a", edge_camera(SchedulerKind::DaCapoSpatiotemporal, "broadband"))
            .camera("b", edge_camera(SchedulerKind::DaCapoSpatiotemporal, "broadband"))
            .offload("cloud-only")
            .share_window_s(20.0)
            .run()
            .unwrap();
        assert_eq!(result.edge.policy, "cloud-only");
        assert!(result.edge.labels_cloud > 0, "{:?}", result.edge);
        assert!(result.edge.frames_shipped > 0, "{:?}", result.edge);
        assert!(result.edge.bytes_shipped > 0, "{:?}", result.edge);
        assert!(result.edge.cloud_label_latency_p50_s > 0.0, "{:?}", result.edge);
        assert!(
            result.edge.cloud_label_latency_p99_s >= result.edge.cloud_label_latency_p50_s,
            "{:?}",
            result.edge
        );
        assert!(result.edge.accuracy_per_byte > 0.0, "{:?}", result.edge);
    }

    #[test]
    fn offloaded_labeling_bypasses_accelerator_arbitration() {
        // The same camera, local vs. cloud: offloaded labeling accrues no
        // accelerator busy time, so utilization must drop once the labels
        // move to the cloud tier (retraining stays local in both runs).
        let local = Cluster::new(1)
            .camera("solo", edge_camera(SchedulerKind::DaCapoSpatiotemporal, "broadband"))
            .run()
            .unwrap();
        let cloud = Cluster::new(1)
            .camera("solo", edge_camera(SchedulerKind::DaCapoSpatiotemporal, "broadband"))
            .offload("cloud-only")
            .run()
            .unwrap();
        assert!(cloud.edge.labels_cloud > 0, "{:?}", cloud.edge);
        assert!(
            cloud.contention.accelerator_utilization[0]
                < local.contention.accelerator_utilization[0],
            "cloud {} vs local {}",
            cloud.contention.accelerator_utilization[0],
            local.contention.accelerator_utilization[0]
        );
    }

    #[test]
    fn threshold_offload_routes_by_local_queue_depth() {
        let cameras = |cluster: Cluster| {
            cluster
                .camera("a", edge_camera(SchedulerKind::DaCapoSpatiotemporal, "broadband"))
                .camera("b", edge_camera(SchedulerKind::DaCapoSpatiotemporal, "broadband"))
        };
        // Two residents on one accelerator exceed depth 1 → cloud.
        let contended = cameras(Cluster::new(1)).offload("threshold:1").run().unwrap();
        assert!(contended.edge.labels_cloud > 0, "{:?}", contended.edge);
        // One resident each on two accelerators stays local.
        let dedicated = cameras(Cluster::new(2)).offload("threshold:1").run().unwrap();
        assert_eq!(dedicated.edge.labels_cloud, 0, "{:?}", dedicated.edge);
        assert_eq!(dedicated.edge.bytes_shipped, 0);
        assert!(dedicated.edge.labels_local > 0, "{:?}", dedicated.edge);
    }

    #[test]
    fn budget_offload_downgrades_to_local_when_the_window_meter_fills() {
        let build = |offload: &str| {
            Cluster::new(1)
                .camera("solo", edge_camera(SchedulerKind::DaCapoSpatiotemporal, "broadband"))
                .offload(offload)
                .share_window_s(20.0)
                .run()
                .unwrap()
        };
        // Roughly two frames' worth of bytes per 20 s window: the camera
        // ships a little, exhausts the meter, and labels the rest locally.
        let capped = build("budget:150000");
        assert!(capped.edge.labels_cloud > 0, "{:?}", capped.edge);
        assert!(capped.edge.labels_local > 0, "{:?}", capped.edge);
        let unlimited = build("cloud-only");
        assert!(
            capped.edge.bytes_shipped < unlimited.edge.bytes_shipped,
            "capped {} vs unlimited {}",
            capped.edge.bytes_shipped,
            unlimited.edge.bytes_shipped
        );
    }

    #[test]
    fn mixed_fleets_route_only_the_edge_configured_cameras() {
        let result = Cluster::new(1)
            .camera("edge", edge_camera(SchedulerKind::DaCapoSpatiotemporal, "lte"))
            .camera("plain", short_config(SchedulerKind::DaCapoSpatiotemporal))
            .offload("cloud-only")
            .share_window_s(20.0)
            .run()
            .unwrap();
        assert!(result.edge.labels_cloud > 0, "{:?}", result.edge);
        // The plain camera is untouched by routing: its numbers match a
        // solo run of the same configuration under the same contention-free
        // result invariant.
        let solo = crate::ClSimulator::new(short_config(SchedulerKind::DaCapoSpatiotemporal))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(result.camera("plain").unwrap(), &solo);
    }

    #[test]
    fn thread_count_never_changes_offloaded_cluster_results() {
        let build = || {
            let mut cluster = Cluster::new(2).offload("threshold:1").share_window_s(30.0);
            for i in 0..5 {
                cluster = cluster.camera(
                    format!("cam-{i}"),
                    edge_camera(SchedulerKind::DaCapoSpatiotemporal, "lte"),
                );
            }
            cluster
        };
        let serial = build().threads(1).run().unwrap();
        let parallel = build().threads(8).run().unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn offload_composes_with_sharing_and_churn() {
        let plan = ChurnPlan::new()
            .join(40.0, "late", edge_camera(SchedulerKind::DaCapoSpatiotemporal, "wifi"))
            .leave(80.0, "a");
        let result = Cluster::new(1)
            .camera("a", edge_camera(SchedulerKind::DaCapoSpatiotemporal, "wifi"))
            .camera("b", edge_camera(SchedulerKind::DaCapoSpatiotemporal, "wifi"))
            .share("broadcast")
            .share_window_s(20.0)
            .offload("cloud-only")
            .churn(plan)
            .run()
            .unwrap();
        assert_eq!(result.churn.joins, 1);
        assert_eq!(result.churn.leaves, 1);
        assert!(result.edge.labels_cloud > 0, "{:?}", result.edge);
        // The departed camera's uplink counters survive finalisation at the
        // barrier: three cameras shipped, and every shipped frame is
        // accounted for in the aggregate.
        assert!(result.edge.frames_shipped > 0, "{:?}", result.edge);
        assert!(result.share.labels_exported > 0, "{:?}", result.share);
    }

    #[test]
    fn share_enabled_clusters_must_agree_on_the_feature_length() {
        let mut wide = short_config(SchedulerKind::DaCapoSpatial);
        wide.stream.feature_dim = 24;
        let mismatched = || {
            Cluster::new(1)
                .camera("narrow", short_config(SchedulerKind::DaCapoSpatial))
                .camera("wide", wide.clone())
        };
        let err = mismatched().share("broadcast").run().unwrap_err();
        let CoreError::InvalidConfig { reason } = &err else { panic!("{err:?}") };
        assert!(reason.contains("'narrow' has 16") && reason.contains("'wide' has 24"), "{reason}");
        // A camera that only joins later is held to the same rule.
        let plan = ChurnPlan::new().join(30.0, "late", wide.clone());
        let err = two_camera_cluster(1).share("broadcast").churn(plan).run().unwrap_err();
        assert!(err.to_string().contains("'late' has 24"), "{err}");
        // Without sharing no row ever crosses cameras, so mixed fleets run.
        assert!(mismatched().run().is_ok());
    }

    #[test]
    fn priority_weights_shape_the_stretch_tail() {
        let result = two_camera_cluster(1).arbiter("priority:3,1").run().unwrap();
        // While both cameras are resident, the weight-1 camera's steps
        // stretch 4x (share 1/4) and the weight-3 camera's 4/3x; once the
        // faster camera finishes the survivor runs unstretched.
        assert!((result.contention.max_step_stretch - 4.0).abs() < 1e-9);
        assert!(result.contention.mean_step_stretch > 1.0);
    }
}
