//! The re-entrant continuous-learning execution engine.
//!
//! [`Session`] is the steppable heart of the runtime: one camera stream
//! walking one drifting scenario. Each [`Session::step`] call executes at
//! most one temporal phase and returns a [`SessionEvent`] describing what
//! just happened, so callers can observe mid-run state, interleave many
//! cameras (see [`Cluster`](crate::Cluster)), or drive custom control loops —
//! none of which the old one-shot `ClSimulator::run()` allowed.
//!
//! For push-style consumption, [`Session::run_with`] drives the session to
//! completion while forwarding every event to a [`SimObserver`].
//!
//! # Snapshots
//!
//! A session is an explicit state/behavior split, and the split is the
//! type: a [`Session`] holds one versioned [`SessionSnapshot`] — everything
//! mutable — plus a private runtime (the frame stream, the platform
//! capability sheet, the scheduler *instance*, the centre cache, and — for a
//! standalone session only — a training arena) that one constructor derives
//! from the snapshot's configuration. So
//! [`Session::snapshot`] is a clone of the first half, [`Session::restore`]
//! validates a snapshot and rebuilds the second half around it, and a piece
//! of state that is in neither — mutable but not snapshotted — has nowhere
//! to live. Restoring is
//! **bit-identical**: a session snapshotted at any step and restored — even
//! from JSON text in another process — continues with exactly the events,
//! timeline, and final [`SimResult`] of the uninterrupted run. Stateful
//! schedulers participate through
//! [`Scheduler::state`](crate::sched::Scheduler::state) /
//! [`Scheduler::restore_state`](crate::sched::Scheduler::restore_state),
//! and the teacher's RNG and the stream's [`StreamCursor`] are captured
//! exactly.

use crate::buffer::{Grant, SampleBlock, SampleBuffer, SampleRef, SharedTails};
use crate::config::SimConfig;
use crate::edge::{EdgeAccum, EdgeTierState, LabelRoute, ResolvedUplink};
use crate::platform::PlatformRates;
use crate::sched::{Action, Scheduler, SchedulerContext};
use crate::sim::{PhaseKind, PhaseRecord, SimResult};
use crate::student::StudentModel;
use crate::{CoreError, Result};
use dacapo_datagen::{CenterCache, Frame, FrameStream, StreamCursor, NUM_CLASSES};
use dacapo_dnn::{TeacherOracle, TrainScratch};
use serde::{Deserialize, Serialize, Value};
use std::collections::VecDeque;

/// Smallest phase duration the engine will schedule, to guarantee forward
/// progress even when a platform rate is enormous.
pub(crate) const MIN_PHASE_SECONDS: f64 = 0.05;

/// What one [`Session::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SessionEvent {
    /// One temporal phase (labeling, retraining, or idling) completed.
    Phase(PhaseRecord),
    /// The scheduler declared data drift and reset the sample buffer.
    /// `response_index` counts drift responses from 1.
    Drift {
        /// Simulated time of the drift response in seconds.
        at_s: f64,
        /// Ordinal of this drift response (1-based).
        response_index: usize,
    },
    /// A fresh accuracy measurement was appended to the timeline.
    Accuracy {
        /// Simulated time of the measurement in seconds.
        at_s: f64,
        /// Measured end-to-end accuracy (already discounted for dropped
        /// frames).
        accuracy: f64,
    },
    /// The scenario is over. Subsequent `step` calls keep returning this.
    Finished,
}

impl SessionEvent {
    /// Delivers the event to `observer`: first through the
    /// [`SimObserver::on_event`] catch-all — so an observer (or an event
    /// kind without a dedicated hook) can never silently lose events — then
    /// through its typed hook. The one dispatch every observed execution
    /// shares ([`Session::run_with`] and the cluster executor); the match
    /// is exhaustive on purpose, so adding a variant is a compile error
    /// here until its dispatch is decided — and the two denied lints keep a
    /// `_` arm from ever standing in for one variant or for several.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    pub(crate) fn dispatch(&self, observer: &mut dyn SimObserver) {
        observer.on_event(self);
        match self {
            SessionEvent::Phase(phase) => observer.on_phase(phase),
            SessionEvent::Drift { at_s, response_index } => {
                observer.on_drift(*at_s, *response_index);
            }
            SessionEvent::Accuracy { at_s, accuracy } => observer.on_accuracy(*at_s, *accuracy),
            SessionEvent::Finished => observer.on_finished(),
        }
    }
}

/// Reports what one step shipped over the uplink — the delta between two
/// [`Session::uplink_meter`] reads taken around it — through
/// [`SimObserver::on_uplink_transfer`]. Silent without an edge tier or when
/// nothing moved.
pub(crate) fn report_uplink(
    observer: &mut dyn SimObserver,
    camera: &str,
    at_s: f64,
    before: Option<(u64, u64)>,
    after: Option<(u64, u64)>,
) {
    if let (Some((bytes0, labels0)), Some((bytes1, labels1))) = (before, after) {
        let bytes = bytes1.saturating_sub(bytes0);
        let labels = labels1.saturating_sub(labels0);
        if bytes > 0 || labels > 0 {
            observer.on_uplink_transfer(camera, at_s, bytes, labels as usize);
        }
    }
}

/// Observer hooks for tapping a session's event stream without owning the
/// stepping loop. All methods default to no-ops, so implementors override
/// only what they need — and new hooks can be added without breaking
/// existing observers.
///
/// Besides the per-session event hooks, the trait carries the cluster-level
/// hooks of the window sampling contract (see the crate docs'
/// *Observability* section): step attribution, barrier notifications,
/// per-camera/per-accelerator samples, share admissions, offload routes,
/// churn, and uplink transfers. Observed executions are single-threaded, so
/// implementations need no internal synchronisation.
pub trait SimObserver {
    /// Called after each completed phase.
    fn on_phase(&mut self, _phase: &PhaseRecord) {}

    /// Called when the scheduler responds to detected drift.
    fn on_drift(&mut self, _at_s: f64, _response_index: usize) {}

    /// Called for every accuracy measurement appended to the timeline.
    fn on_accuracy(&mut self, _at_s: f64, _accuracy: f64) {}

    /// Called once when the scenario completes.
    fn on_finished(&mut self) {}

    /// Called once for **every** forwarded [`SessionEvent`], before the
    /// event's specific hook. The catch-all: an observer that only
    /// implements `on_event` can never lose an event kind added after it
    /// was written.
    fn on_event(&mut self, _event: &SessionEvent) {}

    /// Called by the cluster executor before each step's event burst,
    /// identifying the camera (name and admission index) and the
    /// accelerator that produced the burst. Standalone sessions never call
    /// this; cluster runs call it before every `on_event`/`on_phase` group.
    fn on_step_context(&mut self, _camera: &str, _camera_index: usize, _accelerator: usize) {}

    /// Called at each cluster window barrier after that window's label
    /// exchange, churn, and offload routing completed. `window_index` is
    /// the window that just closed; `boundary_s` its end in cluster time.
    /// Fires only where a real barrier runs — a share, offload or churn
    /// stage is present — never in a stage-free run, observed or not.
    fn on_window_barrier(&mut self, _window_index: usize, _boundary_s: f64) {}

    /// Called per accelerator loop at each window mark it samples — every
    /// mark `k · share_window_s` (k ≥ 1) of an unbounded window, every
    /// barrier's mark (after the barrier ran) otherwise, and the run's final
    /// mark — once per live camera on that accelerator, in the loop's
    /// admission order, with that camera's sampled state.
    fn on_window_sample(&mut self, _sample: &WindowSample<'_>) {}

    /// Called per accelerator loop at each window mark it samples, after
    /// that loop's per-camera window samples, with the accelerator's
    /// sampled state.
    fn on_accelerator_sample(&mut self, _sample: &AcceleratorSample) {}

    /// Called when a share policy admits labels from `exporter` into
    /// `importer` at a window barrier (only for admissions > 0 samples).
    fn on_share(&mut self, _exporter: &str, _importer: &str, _admitted: usize, _boundary_s: f64) {}

    /// Called when the offload policy routes a camera's labeling for the
    /// window opening at `boundary_s` (`window_index` is that new window).
    fn on_offload_route(
        &mut self,
        _camera: &str,
        _route: LabelRoute,
        _window_index: usize,
        _boundary_s: f64,
    ) {
    }

    /// Called when a churn join places (or orphans — `accelerator` is
    /// `None`) a camera at a window barrier.
    fn on_churn_join(&mut self, _camera: &str, _accelerator: Option<usize>, _at_s: f64) {}

    /// Called when a churn leave removes a camera at a window barrier.
    fn on_churn_leave(&mut self, _camera: &str, _at_s: f64) {}

    /// Called when a churn drain closes an accelerator at a window barrier.
    fn on_churn_drain(&mut self, _accelerator: usize, _at_s: f64) {}

    /// Called per session migrated off a drained accelerator:
    /// `to_accelerator` is its new home, or `None` when the fleet had no
    /// surviving accelerator and the camera was orphaned.
    fn on_migration(
        &mut self,
        _camera: &str,
        _from_accelerator: usize,
        _to_accelerator: Option<usize>,
        _at_s: f64,
    ) {
    }

    /// Called when a session ships labeling work over its uplink: `bytes`
    /// uplink bytes and `labels` cloud-labeling requests accounted at
    /// virtual time `at_s`. Standalone sessions report an empty camera name
    /// (the observer's current context applies); cluster runs pass the
    /// owning camera's name.
    fn on_uplink_transfer(&mut self, _camera: &str, _at_s: f64, _bytes: u64, _labels: usize) {}
}

/// The do-nothing observer.
impl SimObserver for () {}

/// One camera's state sampled at a cluster window mark, handed to
/// [`SimObserver::on_window_sample`]. Each accelerator loop samples its own
/// residents, in its admission order, when it has executed every event
/// before the mark (and, where a barrier stands at the mark, once the
/// barrier ran); observed runs are single-threaded, so the stream is
/// deterministic at any worker-thread count. Label counters are cumulative
/// over the run; the per-window deltas are the consumer's to compute.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSample<'a> {
    /// The window that just closed.
    pub window_index: usize,
    /// The mark's cluster time (end of `window_index`) in seconds.
    pub boundary_s: f64,
    /// The sampled camera's name.
    pub camera: &'a str,
    /// The sampled camera's admission index in the cluster.
    pub camera_index: usize,
    /// The accelerator currently hosting the camera.
    pub accelerator: usize,
    /// The session-local virtual clock (unstretched by arbitration).
    pub now_s: f64,
    /// The most recent accuracy measurement, if any was taken yet.
    pub accuracy: Option<f64>,
    /// Labeled samples currently resident in the sample buffer.
    pub buffer_len: usize,
    /// Fraction of buffered samples no older than one window on the
    /// session's own clock (see [`SampleBuffer::fresh_fraction`]).
    ///
    /// [`SampleBuffer::fresh_fraction`]: crate::SampleBuffer::fresh_fraction
    pub buffer_fresh_fraction: f64,
    /// Cumulative locally teacher-labeled samples (0 without an edge tier).
    pub labels_local: u64,
    /// Cumulative cloud-labeled samples (0 without an edge tier).
    pub labels_cloud: u64,
    /// Cloud labels shipped but not yet arrived into the buffer.
    pub in_flight_cloud_labels: usize,
}

/// One accelerator's state sampled at a cluster window mark, handed to
/// [`SimObserver::on_accelerator_sample`] after the same loop's per-camera
/// [`WindowSample`]s. Busy time is cumulative over the run.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorSample {
    /// The window that just closed.
    pub window_index: usize,
    /// The mark's cluster time (end of `window_index`) in seconds.
    pub boundary_s: f64,
    /// The sampled accelerator's index.
    pub accelerator: usize,
    /// Cumulative arbitrated compute seconds executed so far.
    pub busy_s: f64,
    /// `busy_s / boundary_s` — the utilization up to this mark.
    pub utilization: f64,
    /// Currently resident (live) sessions.
    pub live_sessions: usize,
    /// Sessions waiting in the admission queue.
    pub queued_sessions: usize,
    /// Entries in the accelerator's event heap (the queue depth of the
    /// event loop itself).
    pub event_depth: usize,
    /// Whether a churn drain has closed this accelerator.
    pub drained: bool,
}

/// A re-entrant, steppable continuous-learning run: one camera stream, one
/// scenario, one scheduling policy.
///
/// # Examples
///
/// ```no_run
/// use dacapo_core::{Session, SessionEvent, SimConfig};
/// use dacapo_datagen::Scenario;
/// use dacapo_dnn::zoo::ModelPair;
///
/// # fn main() -> Result<(), dacapo_core::CoreError> {
/// let config = SimConfig::builder(Scenario::s1(), ModelPair::ResNet18Wrn50).build()?;
/// let mut session = Session::new(config)?;
/// loop {
///     match session.step()? {
///         SessionEvent::Drift { at_s, .. } => println!("drift response at {at_s:.0} s"),
///         SessionEvent::Finished => break,
///         _ => {}
///     }
/// }
/// let result = session.into_result();
/// println!("mean accuracy {:.1}%", result.mean_accuracy * 100.0);
/// # Ok(())
/// # }
/// ```
pub struct Session {
    /// Everything that rides a snapshot — the one list of session state.
    state: SessionSnapshot,
    /// Everything else, rebuilt from `state.config` by [`Runtime::build`].
    rt: Runtime,
}

/// The derived half of a [`Session`]: behavior and scratch that
/// [`Runtime::build`] reconstructs from the configuration alone, so none of
/// it rides a snapshot. The frame stream, platform sheet and uplink are pure
/// functions of the configuration; the scheduler *instance* is re-created
/// through the registry (its decision state travels as
/// [`SessionSnapshot::scheduler_state`]); the centre cache memoises pure
/// values and a training arena carries capacity, never numeric state, so a
/// cold one — or somebody else's — is bit-identical (property-tested).
struct Runtime {
    stream: FrameStream,
    scheduler: Box<dyn Scheduler>,
    platform: PlatformRates,
    /// The scenario's total duration in seconds.
    duration_s: f64,
    /// Fraction of frames the platform drops at the stream's frame rate.
    drop_rate: f64,
    /// The resolved uplink, present exactly when the configuration has an
    /// edge tier (and so exactly when [`SessionSnapshot::edge`] is `Some`).
    uplink: Option<ResolvedUplink>,
    /// The standalone path's training arena: what the no-argument
    /// [`Session::new`] / [`Session::step`] family computes in. Every kernel
    /// call takes its arena as a parameter, and a session stepped by the
    /// cluster executor is lent the accelerator loop's, so a resident never
    /// has one of its own (`None`, as after [`Session::restore`]).
    scratch: Option<Box<TrainScratch>>,
    center_cache: CenterCache,
}

impl Runtime {
    /// Validates `config` and builds the runtime it describes — the one
    /// constructor behind [`Session::new`] and [`Session::restore`].
    fn build(config: &SimConfig) -> Result<Self> {
        config.validate()?;
        let scheduler = config.scheduler.create(&config.hyper)?;
        let platform = config.platform_rates()?;
        let uplink = config
            .edge
            .as_ref()
            .map(|edge| ResolvedUplink::resolve(edge, config.stream.feature_dim))
            .transpose()?;
        Ok(Self {
            stream: FrameStream::new(&config.scenario, config.stream),
            scheduler,
            duration_s: config.scenario.duration_s(),
            drop_rate: platform.frame_drop_rate(config.stream.fps),
            platform,
            uplink,
            scratch: None,
            center_cache: CenterCache::new(),
        })
    }
}

/// The version tag of the public snapshot format. Bump it whenever the
/// serialised shape of [`SessionSnapshot`] changes incompatibly — a field
/// added, removed, renamed or retyped, here or in a type it contains;
/// [`Session::restore`] rejects snapshots from other versions rather than
/// misreading them (the compatibility rule: same version restores
/// bit-identically, anything else is refused loudly). A change of in-memory
/// representation that writes the same JSON (the buffer's ring, the columnar
/// label block) is not a format change. Version 2 added the edge–cloud tier
/// state ([`SessionSnapshot::edge`]).
pub const SNAPSHOT_VERSION: u32 = 2;

/// The complete mutable state of a [`Session`] — configuration, student
/// weights, sample buffer, teacher RNG, scheduler state, stream cursor, and
/// the partial timeline. A running session *is* one of these plus a runtime
/// derived from its configuration, so [`Session::snapshot`] is a clone and
/// [`Session::restore`] a constructor.
///
/// **The contract:** add a field to this struct and it rides every snapshot;
/// anything a session holds outside it must be rebuildable from
/// [`SimConfig`] alone. There is no second list to keep in step.
///
/// The format is versioned ([`SNAPSHOT_VERSION`]) and serde-able: write it
/// out with [`SessionSnapshot::to_json`], read it back with
/// [`SessionSnapshot::from_json`], and the restored session is bit-identical
/// to the uninterrupted original (property-tested). Snapshots are also the
/// unit of live migration in the cluster executor: when an accelerator
/// drains, its resident sessions snapshot-migrate to the survivors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// Snapshot format version ([`SNAPSHOT_VERSION`] at capture time).
    pub version: u32,
    /// The configuration the session was built from; restoring rebuilds the
    /// stream, platform sheet, and scheduler instance from it.
    pub config: SimConfig,
    /// The student model, weights and all.
    pub student: StudentModel,
    /// The teacher oracle, including its exact RNG state.
    pub teacher: TeacherOracle,
    /// The labeled sample buffer.
    pub buffer: SampleBuffer,
    /// The scheduling policy's mutable decision state
    /// ([`Value::Null`] for stateless policies; see
    /// [`Scheduler::state`](crate::sched::Scheduler::state)). The policy
    /// *instance* is rebuilt from the configuration's
    /// [`SchedulerSpec`](crate::sched::SchedulerSpec) through the registry
    /// and handed this state — how a `Box<dyn Scheduler>` survives a serde
    /// round trip without duplicating its spec in the format. Inside a live
    /// session the instance owns its state and this field stays `Null`;
    /// [`Session::snapshot`] fills it in.
    pub scheduler_state: Value,
    /// The frame stream's resumable read position.
    pub stream_cursor: StreamCursor,
    /// Simulated time reached so far, in seconds.
    pub now_s: f64,
    /// Next accuracy-measurement time, in seconds.
    pub next_measure_s: f64,
    /// The accuracy timeline recorded so far.
    pub timeline: Vec<(f64, f64)>,
    /// The phases executed so far.
    pub phases: Vec<PhaseRecord>,
    /// Validation accuracy after the most recent retraining, if any.
    pub last_validation: Option<f64>,
    /// Student accuracy on the most recently labeled batch, if any.
    pub last_labeling: Option<f64>,
    /// Drift responses issued so far.
    pub drift_responses: usize,
    /// The per-phase draw seed's current value.
    pub phase_seed: u64,
    /// Events produced but not yet returned by [`Session::step`].
    pub(crate) pending: VecDeque<SessionEvent>,
    /// Whether the scenario has completed.
    pub finished: bool,
    /// Whether the session records freshly labeled batches for export.
    pub record_labels: bool,
    /// Recorded label batches not yet drained by the cluster executor.
    pub(crate) fresh_labels: SampleBlock,
    /// The edge–cloud tier's mutable state (cloud teacher RNG, in-flight
    /// labels, uplink meters), present exactly when the configuration
    /// carries an [`EdgeConfig`](crate::edge::EdgeConfig). The uplink model
    /// itself is behavior and is re-resolved from the configuration's
    /// uplink profile on restore.
    pub edge: Option<EdgeTierState>,
}

impl SessionSnapshot {
    /// Serialises the snapshot as pretty-printed JSON.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "every snapshot field serialises through the derived impls; there is no \
                  fallible custom Serialize in the tree"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialisation is infallible")
    }

    /// Parses a snapshot from JSON text (the inverse of
    /// [`SessionSnapshot::to_json`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Snapshot`] for malformed JSON or a tree that
    /// does not match the snapshot shape. The version tag is checked by
    /// [`Session::restore`], not here, so tooling can still inspect
    /// same-shape snapshots from other versions.
    pub fn from_json(text: &str) -> Result<Self> {
        serde_json::from_str(text)
            .map_err(|e| CoreError::Snapshot { reason: format!("malformed snapshot JSON: {e}") })
    }

    /// Rejects state a session could not run, naming the offending field:
    /// the checks [`Session::restore`] makes once the configuration itself
    /// has validated and `stream` has been regenerated from it. O(state).
    fn validate(&self, stream: &FrameStream) -> Result<()> {
        let bad = |reason: String| Err(CoreError::Snapshot { reason });
        for (field, value) in [("now_s", self.now_s), ("next_measure_s", self.next_measure_s)] {
            if !(value.is_finite() && value >= 0.0) {
                return bad(format!("{field} must be finite and non-negative, got {value}"));
            }
        }
        if let Some(i) = self.timeline.iter().position(|(at_s, _)| !at_s.is_finite()) {
            return bad(format!("timeline[{i}] has a non-finite time"));
        }
        if let Some(i) =
            self.phases.iter().position(|p| !(p.start_s.is_finite() && p.duration_s.is_finite()))
        {
            return bad(format!("phases[{i}] has a non-finite start or duration"));
        }
        if let Err(e) = self.student.network().validate() {
            return bad(format!("student does not match its own configuration: {e}"));
        }
        let feature_dim = self.config.stream.feature_dim;
        let student = self.student.network().config();
        if student.input_dim != feature_dim {
            return bad(format!(
                "student takes {}-feature inputs but config.stream.feature_dim is {feature_dim}",
                student.input_dim
            ));
        }
        if student.num_classes != NUM_CLASSES {
            return bad(format!(
                "student.network.config.num_classes is {} but there are {NUM_CLASSES} classes",
                student.num_classes
            ));
        }
        // A teacher labels every frame the session samples: it must know
        // the stream's classes and hold a base accuracy the configuration
        // would accept (`SimConfig::validate`, `EdgeConfig::validate`).
        let cloud = self.edge.as_ref().map(|edge| &edge.cloud);
        let teachers = [("teacher", self.teacher.num_classes(), self.teacher.base_accuracy())]
            .into_iter()
            .chain(cloud.map(|c| ("edge.cloud.oracle", c.num_classes(), c.base_accuracy())));
        for (field, num_classes, base_accuracy) in teachers {
            if num_classes != NUM_CLASSES {
                return bad(format!(
                    "{field}.num_classes is {num_classes} but there are {NUM_CLASSES} classes"
                ));
            }
            if !(0.0..=1.0).contains(&base_accuracy) {
                return bad(format!(
                    "{field}.base_accuracy must lie in [0, 1], got {base_accuracy}"
                ));
            }
        }
        if self.buffer.capacity() != self.config.hyper.buffer_capacity {
            return bad(format!(
                "buffer.capacity is {} but config.hyper.buffer_capacity is {}",
                self.buffer.capacity(),
                self.config.hyper.buffer_capacity
            ));
        }
        // Every stored row is a future retraining or exchange operand: one of
        // the wrong width, or of a class the student has no logit for, must
        // stop here — not inside a kernel on whichever loop the session
        // migrated to.
        check_rows("buffer", "", feature_dim, self.buffer.samples())?;
        check_rows("fresh_labels", "", feature_dim, self.fresh_labels.rows())?;
        let in_flight = self.edge.iter().flat_map(|edge| &edge.in_flight);
        check_rows("edge.in_flight", ".sample", feature_dim, in_flight.map(|l| l.sample.view()))?;
        if self.stream_cursor.position() > stream.num_frames() {
            return bad(format!(
                "stream_cursor is at frame {} of a {}-frame stream",
                self.stream_cursor.position(),
                stream.num_frames()
            ));
        }
        match (&self.config.edge, &self.edge) {
            (Some(_), Some(edge)) => edge.validate(),
            (None, None) => Ok(()),
            (Some(_), None) => bad("the configuration has an edge tier but the snapshot \
                                    carries no edge state"
                .into()),
            (None, Some(_)) => bad("the snapshot carries edge-tier state but the \
                                    configuration has no edge tier"
                .into()),
        }
    }
}

/// Rejects the first row of a snapshot's sample store (`store[i]`, its record
/// under the `record` suffix) that the configured student could not take:
/// another width than the stream's, or a class index past the classes.
fn check_rows<'a>(
    store: &str,
    record: &str,
    feature_dim: usize,
    rows: impl Iterator<Item = SampleRef<'a>>,
) -> Result<()> {
    for (i, row) in rows.enumerate() {
        let problem = if row.features.len() == feature_dim {
            [("teacher_label", row.teacher_label), ("true_class", row.true_class)]
                .into_iter()
                .find(|&(_, class)| class >= NUM_CLASSES)
                .map(|(field, class)| {
                    format!(".{field} is {class} but there are {NUM_CLASSES} classes")
                })
        } else {
            let width = row.features.len();
            Some(format!(" has {width} features but config.stream.feature_dim is {feature_dim}"))
        };
        if let Some(problem) = problem {
            return Err(CoreError::Snapshot { reason: format!("{store}[{i}]{record}{problem}") });
        }
    }
    Ok(())
}

impl Session {
    /// Builds a session: constructs the stream, pre-trains the student on the
    /// general (mixed-context) distribution, and instantiates the scheduler
    /// through the policy registry.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the configuration is invalid
    /// or names an unregistered scheduling policy.
    pub fn new(config: SimConfig) -> Result<Self> {
        let mut own = Box::default();
        let mut session = Self::new_in(config, &mut own)?;
        session.rt.scratch = Some(own);
        Ok(session)
    }

    /// [`Session::new`] with the pre-training computed in a lent arena: how
    /// the cluster executor admits a camera, so the session it builds owns
    /// none. The `*_in` forms below are the same split for stepping; the
    /// arena carries no numeric state between calls, so whose it is never
    /// shows in a result.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::new`].
    pub(crate) fn new_in(config: SimConfig, scratch: &mut TrainScratch) -> Result<Self> {
        // The runtime resolves the policy and platform before the (expensive)
        // pretraining below, so an unregistered name fails fast.
        let mut rt = Runtime::build(&config)?;
        let mut student = StudentModel::new(
            config.stream.feature_dim,
            rt.platform.inference_quant(),
            rt.platform.training_quant(),
            config.hyper.learning_rate,
            config.hyper.batch_size,
            config.seed,
        )?;

        // Pre-deployment training on the "general dataset": samples spread
        // uniformly over the whole scenario (every context appears), labeled
        // with ground truth, as the paper assumes pre-trained models.
        if config.pretrain_samples > 0 {
            let frames = rt.stream.num_frames();
            let stride = (frames / config.pretrain_samples.max(1) as u64).max(1);
            let pretrain: Vec<Frame> = (0..frames)
                .step_by(stride as usize)
                .map(|i| rt.stream.frame_at_cached(i, &mut rt.center_cache))
                .collect();
            let rows: Vec<&[f32]> = pretrain.iter().map(|f| f.sample.features.as_slice()).collect();
            let labels: Vec<usize> = pretrain.iter().map(|f| f.sample.true_class).collect();
            student.retrain(&rows, &labels, 2, scratch)?;
        }

        let state = SessionSnapshot {
            version: SNAPSHOT_VERSION,
            student,
            teacher: TeacherOracle::new(
                NUM_CLASSES,
                config.teacher_accuracy,
                config.seed.wrapping_add(1),
            ),
            buffer: SampleBuffer::new(config.hyper.buffer_capacity),
            scheduler_state: Value::Null,
            stream_cursor: rt.stream.cursor(),
            now_s: 0.0,
            next_measure_s: 0.0,
            timeline: Vec::new(),
            phases: Vec::new(),
            last_validation: None,
            last_labeling: None,
            drift_responses: 0,
            phase_seed: config.seed,
            pending: VecDeque::new(),
            finished: false,
            record_labels: false,
            fresh_labels: SampleBlock::default(),
            edge: config
                .edge
                .as_ref()
                .map(|edge| EdgeTierState::new(edge, NUM_CLASSES, config.seed.wrapping_add(2))),
            config,
        };
        Ok(Self { state, rt })
    }

    /// Captures the session's complete mutable state as a serialisable,
    /// versioned [`SessionSnapshot`]. The session keeps running; the
    /// snapshot is an independent copy.
    ///
    /// [`Session::restore`] rebuilds a session from the snapshot that is
    /// bit-identical to this one — same onward events, same final
    /// [`SimResult`] — even after a JSON round trip in another process.
    #[must_use]
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot { scheduler_state: self.rt.scheduler.state(), ..self.state.clone() }
    }

    /// Rebuilds a session from a [`SessionSnapshot`], resuming exactly where
    /// [`Session::snapshot`] left off: the snapshot becomes the session's
    /// state as-is, and the runtime around it — stream, platform sheet,
    /// uplink, a scheduler instance handed its captured state — is rebuilt
    /// from the snapshot's configuration by the constructor
    /// [`Session::new`] uses. No pre-training runs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Snapshot`] for a snapshot from a different
    /// [`SNAPSHOT_VERSION`] or one whose state the session could not run
    /// (a non-finite or negative clock, a buffer or student of another
    /// shape than the configuration's, a student with another class count
    /// than the stream's, a buffered, recorded or in-flight
    /// sample of another width than the stream's or of a class index past
    /// the classes, a cursor past the stream's end, edge
    /// state without an edge tier or the reverse — the reason names the
    /// field), [`CoreError::InvalidConfig`] when the embedded configuration
    /// no longer validates or names an unregistered scheduler or platform,
    /// and propagates scheduler-state restoration failures.
    pub fn restore(snapshot: SessionSnapshot) -> Result<Self> {
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(CoreError::Snapshot {
                reason: format!(
                    "snapshot format version {} is not supported (this runtime reads version \
                     {SNAPSHOT_VERSION})",
                    snapshot.version
                ),
            });
        }
        let mut rt = Runtime::build(&snapshot.config)?;
        snapshot.validate(&rt.stream)?;
        let mut state = snapshot;
        rt.scheduler.restore_state(&state.scheduler_state)?;
        state.scheduler_state = Value::Null;
        Ok(Self { state, rt })
    }

    /// Makes the session keep a copy of every batch its teacher freshly
    /// labels, for [`Session::take_fresh_labels`] to drain. Off by default
    /// (recording copies every labeled row once more); the cluster executor
    /// enables it when a cross-camera [`crate::share`] policy is active.
    pub(crate) fn set_record_labels(&mut self, record: bool) {
        self.state.record_labels = record;
    }

    /// Drains the teacher-labeled samples recorded since the last drain
    /// (empty unless [`Session::set_record_labels`] enabled recording).
    pub(crate) fn take_fresh_labels(&mut self) -> SampleBlock {
        std::mem::take(&mut self.state.fresh_labels)
    }

    /// Admits externally labeled samples (correlated peers' exports) into
    /// the sample buffer: the first `rows` rows of each grant, in order,
    /// evicting the oldest residents as needed — copying only the rows that
    /// survive the call, or none when the grants fill the buffer and `tails`
    /// already holds their tail (see `SampleBuffer::admit_grants`).
    /// Admitted imports are *not* re-exported by
    /// [`Session::take_fresh_labels`], so shared labels never echo around
    /// the fleet.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if a batch's feature length
    /// differs from the buffered samples'.
    pub(crate) fn admit_samples(
        &mut self,
        grants: &[Grant<'_>],
        tails: &mut SharedTails,
    ) -> Result<()> {
        self.state.buffer.admit_grants(grants, tails)
    }

    /// The session's effective teacher-labeling throughput in samples per
    /// second — the rate an admitted import batch would have cost to label
    /// locally.
    pub(crate) fn labeling_sps(&self) -> f64 {
        self.rt.platform.effective_labeling_sps(self.state.config.stream.fps)
    }

    /// Whether the session carries an edge–cloud tier (the configuration
    /// had an [`EdgeConfig`](crate::edge::EdgeConfig)).
    pub(crate) fn has_edge_tier(&self) -> bool {
        self.state.edge.is_some()
    }

    /// Whether the most recent labeling phase ran on the cloud tier. The
    /// cluster executor exempts such phases from accelerator arbitration —
    /// offloaded labeling costs no local compute.
    pub(crate) fn last_phase_offloaded(&self) -> bool {
        self.state.edge.as_ref().is_some_and(|tier| tier.last_phase_offloaded)
    }

    /// This session's `(labels_local, labels_cloud)` counters, zero without
    /// an edge tier. It copies none of the tier's cloud latencies, which
    /// grow with every cloud label.
    pub(crate) fn label_counts(&self) -> (u64, u64) {
        self.state.edge.as_ref().map_or((0, 0), |tier| (tier.labels_local, tier.labels_cloud))
    }

    /// Buffer depth and uplink byte meters, the session-side half of the
    /// cluster's [`OffloadContext`](crate::edge::OffloadContext):
    /// `(buffer_len, bytes_shipped, window_bytes)`. The byte meters are
    /// zero without an edge tier.
    pub(crate) fn offload_meter(&self) -> (usize, u64, u64) {
        let (bytes_shipped, window_bytes) =
            self.state.edge.as_ref().map_or((0, 0), |tier| (tier.bytes_shipped, tier.window_bytes));
        (self.state.buffer.len(), bytes_shipped, window_bytes)
    }

    /// Cumulative uplink meters for observer reporting: `(bytes_shipped,
    /// labels_cloud)`, or `None` without an edge tier. Deltas between two
    /// reads bound one step's shipment.
    pub(crate) fn uplink_meter(&self) -> Option<(u64, u64)> {
        self.state.edge.as_ref().map(|tier| (tier.bytes_shipped, tier.labels_cloud))
    }

    /// Bytes held by the session's own training arena: 0 unless a
    /// no-argument stepping method ever ran on it.
    #[cfg(test)]
    pub(crate) fn own_arena_bytes(&self) -> usize {
        self.rt.scratch.as_ref().map_or(0, |arena| arena.capacity_bytes())
    }

    /// The sample buffer, for tests that stage or inspect its contents.
    #[cfg(test)]
    pub(crate) fn buffer_mut(&mut self) -> &mut SampleBuffer {
        &mut self.state.buffer
    }

    /// Current sample-buffer depth, for barrier sampling.
    pub(crate) fn buffer_len(&self) -> usize {
        self.state.buffer.len()
    }

    /// Fraction of buffered samples stamped at or after `cutoff_s` on the
    /// session's own clock, for barrier sampling.
    pub(crate) fn buffer_fresh_fraction(&self, cutoff_s: f64) -> f64 {
        self.state.buffer.fresh_fraction(cutoff_s)
    }

    /// Routes the session's labeling for the window that is starting:
    /// local teacher or cloud tier (optionally byte-budgeted). Opens a new
    /// uplink accounting window — the per-window byte meter resets. The
    /// cluster executor calls this at every window barrier with the
    /// [`OffloadPolicy`](crate::edge::OffloadPolicy)'s decision; standalone
    /// sessions may drive it directly.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the session has no edge tier
    /// (no [`EdgeConfig`](crate::edge::EdgeConfig) in its configuration).
    pub fn set_label_route(&mut self, route: LabelRoute) -> Result<()> {
        match self.state.edge.as_mut() {
            Some(tier) => {
                tier.begin_window(route);
                Ok(())
            }
            None => Err(CoreError::InvalidConfig {
                reason: "cannot set a label route: the session has no edge tier configured \
                         (attach one with SimConfig::builder(..).edge(..))"
                    .into(),
            }),
        }
    }

    /// The session's current label route, or `None` without an edge tier.
    #[must_use]
    pub fn label_route(&self) -> Option<LabelRoute> {
        self.state.edge.as_ref().map(|tier| tier.route)
    }

    /// Number of cloud labels shipped but not yet arrived into the buffer.
    #[must_use]
    pub fn in_flight_cloud_labels(&self) -> usize {
        self.state.edge.as_ref().map_or(0, |tier| tier.in_flight.len())
    }

    /// The configuration this session was built from.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.state.config
    }

    /// The resolved platform capability sheet the session runs against.
    #[must_use]
    pub fn platform(&self) -> &PlatformRates {
        &self.rt.platform
    }

    /// The stream's resumable read position: how far the labeling kernel has
    /// consumed the camera stream. Snapshots carry this cursor.
    #[must_use]
    pub fn stream_cursor(&self) -> StreamCursor {
        self.state.stream_cursor
    }

    /// Current simulated time in seconds.
    #[must_use]
    pub fn now_s(&self) -> f64 {
        self.state.now_s
    }

    /// Total scenario duration in seconds.
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.rt.duration_s
    }

    /// Fraction of the scenario executed so far, in `[0, 1]`.
    #[must_use]
    pub fn progress(&self) -> f64 {
        (self.state.now_s / self.rt.duration_s).clamp(0.0, 1.0)
    }

    /// Whether the scenario has completed.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.state.finished && self.state.pending.is_empty()
    }

    /// The accuracy timeline recorded so far.
    #[must_use]
    pub fn accuracy_timeline(&self) -> &[(f64, f64)] {
        &self.state.timeline
    }

    /// The phases executed so far.
    #[must_use]
    pub fn phases(&self) -> &[PhaseRecord] {
        &self.state.phases
    }

    /// Number of drift responses issued so far.
    #[must_use]
    pub fn drift_responses(&self) -> usize {
        self.state.drift_responses
    }

    /// Executes work until the next event is available and returns it.
    ///
    /// Each scheduler action produces a short burst of events (an optional
    /// [`SessionEvent::Drift`], the [`SessionEvent::Accuracy`] measurements
    /// that fell inside the phase, then the [`SessionEvent::Phase`] itself);
    /// `step` drains that burst one event per call. After the scenario ends
    /// it keeps returning [`SessionEvent::Finished`].
    ///
    /// # Errors
    ///
    /// Returns an error if a kernel invocation fails (which indicates a
    /// configuration inconsistency, such as mismatched feature dimensions).
    pub fn step(&mut self) -> Result<SessionEvent> {
        self.with_own_scratch(Self::step_in)
    }

    /// Runs `f` with the session's own arena (made on first use) lent to
    /// it: every no-argument stepping method is its `*_in` form under this.
    fn with_own_scratch<R>(&mut self, f: impl FnOnce(&mut Self, &mut TrainScratch) -> R) -> R {
        let mut own = self.rt.scratch.take().unwrap_or_default();
        let out = f(self, &mut own);
        self.rt.scratch = Some(own);
        out
    }

    /// [`Session::step`], computing in `scratch`.
    fn step_in(&mut self, scratch: &mut TrainScratch) -> Result<SessionEvent> {
        if self.state.pending.is_empty() && !self.state.finished {
            if self.state.now_s >= self.rt.duration_s {
                // Flush any remaining measurement points, then finish.
                self.measure_until(self.rt.duration_s, scratch)?;
                self.state.finished = true;
                self.state.pending.push_back(SessionEvent::Finished);
            } else {
                // Queues at least the phase event of the action it ran.
                self.execute_next_action(scratch)?;
            }
        }
        // Only a finished session's queue is ever empty here.
        Ok(self.state.pending.pop_front().unwrap_or(SessionEvent::Finished))
    }

    /// Steps the session to completion, forwarding every event to `observer`
    /// (each event through [`SimObserver::on_event`] first, then its
    /// specific hook). Uplink shipments are reported through
    /// [`SimObserver::on_uplink_transfer`] with an empty camera name — a
    /// standalone session has none; the cluster executor supplies it.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`Session::step`].
    pub fn run_with(&mut self, observer: &mut dyn SimObserver) -> Result<()> {
        let mut last_uplink = self.uplink_meter();
        loop {
            let event = self.step()?;
            let uplink = self.uplink_meter();
            report_uplink(observer, "", self.state.now_s, last_uplink, uplink);
            last_uplink = uplink;
            event.dispatch(observer);
            if event == SessionEvent::Finished {
                return Ok(());
            }
        }
    }

    /// Steps the session to completion without observing events.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`Session::step`].
    pub fn run_to_end(&mut self) -> Result<()> {
        self.run_with(&mut ())
    }

    /// Executes scheduler actions until one temporal phase completes (or the
    /// scenario finishes), returning the whole event burst in order. The
    /// last event is always [`SessionEvent::Phase`] or
    /// [`SessionEvent::Finished`], so callers that account virtual time per
    /// phase — the [`Cluster`](crate::Cluster) executor — get exactly one
    /// time-bearing event per call, with its drift and accuracy events
    /// attached.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`Session::step`].
    pub fn step_phase(&mut self) -> Result<Vec<SessionEvent>> {
        self.with_own_scratch(Self::step_phase_in)
    }

    /// [`Session::step_phase`], computing in `scratch` — the cluster
    /// executor's stepping call, with its accelerator loop's arena.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::step_phase`].
    pub(crate) fn step_phase_in(
        &mut self,
        scratch: &mut TrainScratch,
    ) -> Result<Vec<SessionEvent>> {
        let mut events = Vec::new();
        loop {
            let event = self.step_in(scratch)?;
            let boundary = matches!(event, SessionEvent::Phase(_) | SessionEvent::Finished);
            events.push(event);
            if boundary {
                return Ok(events);
            }
        }
    }

    /// Consumes a session that leaves the cluster executor — finished,
    /// departed, dequeued or orphaned: folds its edge-tier counters into
    /// the cluster's `edge` and returns its result.
    pub(crate) fn into_result_with_edge(self, edge: &mut EdgeAccum) -> SimResult {
        if let Some(tier) = &self.state.edge {
            edge.add_tier(tier);
        }
        self.into_result()
    }

    /// Consumes the session and returns the metrics collected so far.
    ///
    /// Normally called after [`Session::step`] returned
    /// [`SessionEvent::Finished`]; calling it earlier yields a partial result
    /// covering only the executed prefix of the scenario — `duration_s` and
    /// `energy_joules` then account for the executed time, not the full
    /// scenario.
    #[must_use]
    pub fn into_result(self) -> SimResult {
        let Self { state, rt } = self;
        let mean_accuracy = if state.timeline.is_empty() {
            0.0
        } else {
            state.timeline.iter().map(|(_, a)| a).sum::<f64>() / state.timeline.len() as f64
        };
        // A finished run covers the whole scenario (now_s can overshoot the
        // end by a fraction of a phase); a partial run covers only the
        // executed prefix.
        let covered_s = state.now_s.min(rt.duration_s);
        SimResult {
            system: format!("{} / {}", rt.platform.name(), rt.scheduler.name()),
            scenario: state.config.scenario.name().to_string(),
            pair: state.config.pair,
            scheduler: rt.scheduler.name(),
            accuracy_timeline: state.timeline,
            mean_accuracy,
            frame_drop_rate: rt.drop_rate,
            energy_joules: rt.platform.energy_joules(covered_s),
            power_watts: rt.platform.power_watts(),
            phases: state.phases,
            drift_responses: state.drift_responses,
            duration_s: covered_s,
        }
    }

    /// Asks the scheduler for one action and executes it, queueing the
    /// resulting events in chronological order.
    fn execute_next_action(&mut self, scratch: &mut TrainScratch) -> Result<()> {
        let duration = self.rt.duration_s;
        let fps = self.state.config.stream.fps;
        // Cloud labels whose uplink round trip has completed land in the
        // buffer before the scheduler looks at it — deferred arrival is the
        // whole point of the modeled uplink.
        if let Some(tier) = self.state.edge.as_mut() {
            for sample in tier.deliver_matured(self.state.now_s) {
                if self.state.record_labels {
                    self.state.fresh_labels.push(sample.view());
                }
                self.state.buffer.admit_row(sample.view())?;
            }
        }
        let ctx = SchedulerContext {
            now_s: self.state.now_s,
            buffer_len: self.state.buffer.len(),
            buffer_capacity: self.state.buffer.capacity(),
            last_validation_accuracy: self.state.last_validation,
            last_labeling_accuracy: self.state.last_labeling,
        };
        let action = self.rt.scheduler.next_action(&ctx);
        self.state.phase_seed = self.state.phase_seed.wrapping_add(0x9e37_79b9);

        match action {
            Action::Label { samples, reset_buffer } => {
                if reset_buffer {
                    self.state.buffer.reset();
                    // Stale pre-drift labels must not trickle into the
                    // freshly cleared buffer once their uplink round trip
                    // completes.
                    if let Some(tier) = self.state.edge.as_mut() {
                        tier.discard_in_flight();
                    }
                    self.state.drift_responses += 1;
                    self.state.pending.push_back(SessionEvent::Drift {
                        at_s: self.state.now_s,
                        response_index: self.state.drift_responses,
                    });
                }
                // The phase ships over the uplink exactly when the window's
                // route (budget permitting) says cloud.
                let route =
                    self.state.edge.as_ref().map_or(LabelRoute::Local, EdgeTierState::phase_route);
                let uplink =
                    self.rt.uplink.as_ref().filter(|_| matches!(route, LabelRoute::Cloud { .. }));
                let rate = match uplink {
                    // The uplink is the labeling bottleneck: frames ship no
                    // faster than the link carries them or the camera
                    // captures them.
                    Some(uplink) => uplink.labeling_sps(fps),
                    None => self.rt.platform.effective_labeling_sps(fps),
                };
                if rate <= f64::EPSILON {
                    // Labeling is starved out entirely (e.g. an overloaded
                    // GPU); burn the rest of the scenario waiting.
                    let wait = (duration - self.state.now_s).max(MIN_PHASE_SECONDS);
                    return self.close_phase(PhaseKind::Wait, wait, 0, reset_buffer, scratch);
                }
                let remaining = duration - self.state.now_s;
                let ideal_duration = samples.max(1) as f64 / rate;
                let phase_duration =
                    ideal_duration.clamp(MIN_PHASE_SECONDS.min(remaining), remaining);
                let actual_samples =
                    ((phase_duration * rate).floor() as usize).clamp(1, samples.max(1));

                // Spread the labeled samples over the phase's time range,
                // consuming the stream through its resumable cursor (the
                // position snapshots carry): the cursor moves to the
                // phase's end, and of the strided frames it passed only the
                // `actual_samples` that get labeled are synthesised.
                let step = ((phase_duration * fps) as u64 / actual_samples as u64).max(1);
                let cursor = &mut self.state.stream_cursor;
                cursor.seek_time(&self.rt.stream, self.state.now_s);
                let first = cursor.position();
                cursor.seek_time(&self.rt.stream, self.state.now_s + phase_duration);
                let selected: Vec<Frame> = (first..cursor.position())
                    .step_by(step as usize)
                    .take(actual_samples)
                    .map(|i| self.rt.stream.frame_at_cached(i, &mut self.rt.center_cache))
                    .collect();
                let phase_samples;
                if let Some((uplink, tier)) = uplink.zip(self.state.edge.as_mut()) {
                    // Cloud path: each sampled frame runs the near-duplicate
                    // filter, survivors ship over the serial uplink and come
                    // back as in-flight labels — nothing enters the buffer
                    // until the round trip completes. A shipped frame's
                    // features move into its in-flight label.
                    let first_shipped = tier.in_flight.len();
                    for frame in selected {
                        uplink.offer(
                            tier,
                            frame.sample.features,
                            frame.sample.true_class,
                            frame.timestamp_s,
                            &frame.attributes,
                        );
                    }
                    tier.last_phase_offloaded = true;
                    let shipped = &tier.in_flight[first_shipped..];
                    phase_samples = shipped.len();
                    if !shipped.is_empty() {
                        let rows: Vec<&[f32]> =
                            shipped.iter().map(|l| l.sample.features.as_slice()).collect();
                        let labels: Vec<usize> =
                            shipped.iter().map(|l| l.sample.teacher_label).collect();
                        self.state.last_labeling =
                            Some(self.state.student.accuracy_on_rows(&rows, &labels, scratch)?);
                    }
                } else {
                    let rows: Vec<&[f32]> =
                        selected.iter().map(|f| f.sample.features.as_slice()).collect();
                    let labels: Vec<usize> = selected
                        .iter()
                        .map(|frame| {
                            self.state
                                .teacher
                                .label(frame.sample.true_class, frame.attributes.difficulty())
                        })
                        .collect();
                    // acc_l: the current student's accuracy on the freshly
                    // labeled data, judged by the teacher's labels.
                    self.state.last_labeling =
                        Some(self.state.student.accuracy_on_rows(&rows, &labels, scratch)?);
                    if let Some(tier) = self.state.edge.as_mut() {
                        tier.note_local_labels(selected.len());
                        tier.last_phase_offloaded = false;
                    }
                    // Each labeled row is copied from its frame straight
                    // into the buffer's slab (and the export block).
                    for (frame, &teacher_label) in selected.iter().zip(&labels) {
                        let row = SampleRef {
                            features: &frame.sample.features,
                            teacher_label,
                            true_class: frame.sample.true_class,
                            timestamp_s: frame.timestamp_s,
                        };
                        if self.state.record_labels {
                            self.state.fresh_labels.push(row);
                        }
                        self.state.buffer.admit_row(row)?;
                    }
                    phase_samples = actual_samples;
                }

                self.close_phase(
                    PhaseKind::Label,
                    phase_duration,
                    phase_samples,
                    reset_buffer,
                    scratch,
                )
            }
            Action::Retrain { samples, epochs } => {
                let (train, validation) = self.state.buffer.draw_indices(
                    samples,
                    self.state.config.hyper.validation_samples,
                    self.state.phase_seed,
                );
                if train.is_empty() {
                    let wait = MIN_PHASE_SECONDS.max(1.0);
                    return self.close_phase(PhaseKind::Wait, wait, 0, false, scratch);
                }
                let presentations = train.len() * epochs.max(1);
                let rate = self.rt.platform.effective_retraining_sps(fps);
                let remaining = duration - self.state.now_s;
                let phase_duration = if rate <= f64::EPSILON {
                    remaining
                } else {
                    (presentations as f64 / rate).clamp(MIN_PHASE_SECONDS.min(remaining), remaining)
                };

                // The old model keeps serving inference during retraining;
                // the updated weights deploy when the phase completes, so the
                // phase's measurements are taken before it retrains (which
                // leaves `close_phase` none to take).
                self.measure_until(self.state.now_s + phase_duration, scratch)?;
                let (rows, labels) = self.state.buffer.gather(&train);
                self.state.student.retrain(&rows, &labels, epochs.max(1), scratch)?;
                let (rows, labels) = self.state.buffer.gather(&validation);
                self.state.last_validation =
                    Some(self.state.student.accuracy_on_rows(&rows, &labels, scratch)?);
                self.close_phase(PhaseKind::Retrain, phase_duration, presentations, false, scratch)
            }
            Action::Wait { seconds } => {
                // Schedulers come from the open registry, so their actions
                // are untrusted: a NaN wait would poison the clock and spin
                // the session forever.
                if !seconds.is_finite() {
                    return Err(CoreError::InvalidConfig {
                        reason: format!(
                            "scheduler '{}' returned a non-finite wait ({seconds})",
                            self.rt.scheduler.name()
                        ),
                    });
                }
                let remaining = duration - self.state.now_s;
                let wait = seconds.clamp(MIN_PHASE_SECONDS.min(remaining), remaining);
                self.close_phase(PhaseKind::Wait, wait, 0, false, scratch)
            }
        }
    }

    /// Closes a phase of `duration_s` that starts now: records the
    /// measurement points it covers, then the phase itself, queueing their
    /// events in that order, and advances the clock to the phase's end.
    fn close_phase(
        &mut self,
        kind: PhaseKind,
        duration_s: f64,
        samples: usize,
        drift_response: bool,
        scratch: &mut TrainScratch,
    ) -> Result<()> {
        self.measure_until(self.state.now_s + duration_s, scratch)?;
        let phase =
            PhaseRecord { kind, start_s: self.state.now_s, duration_s, samples, drift_response };
        self.state.phases.push(phase);
        self.state.pending.push_back(SessionEvent::Phase(phase));
        self.state.now_s += duration_s;
        Ok(())
    }

    /// Records accuracy measurements at every measurement point in
    /// `[next_measure, until)` using the student's current weights, queueing
    /// one event per point.
    fn measure_until(&mut self, until: f64, scratch: &mut TrainScratch) -> Result<()> {
        let interval = self.state.config.measure_interval_s;
        let frames_wanted = self.state.config.eval_frames_per_measurement as u64;
        while self.state.next_measure_s < until && self.state.next_measure_s < self.rt.duration_s {
            let window_frames = (interval * self.state.config.stream.fps) as u64;
            let step = (window_frames / frames_wanted.max(1)).max(1);
            let frames = self.rt.stream.frames_between_cached(
                self.state.next_measure_s,
                self.state.next_measure_s + interval,
                step,
                &mut self.rt.center_cache,
            );
            if frames.is_empty() {
                return Err(CoreError::InvalidConfig {
                    reason: "measurement interval produced no evaluation frames".into(),
                });
            }
            let accuracy = self.state.student.accuracy_on_frames(&frames, scratch)?
                * (1.0 - self.rt.drop_rate);
            self.state.timeline.push((self.state.next_measure_s, accuracy));
            self.state
                .pending
                .push_back(SessionEvent::Accuracy { at_s: self.state.next_measure_s, accuracy });
            self.state.next_measure_s += interval;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedulerKind;
    use crate::sim::test_support::{short_config, short_scenario};
    use crate::ClSimulator;
    use dacapo_dnn::{Activation, Dense, Mlp, MlpConfig};

    impl Session {
        /// This session's edge-tier counters.
        fn edge_accum(&self) -> Option<EdgeAccum> {
            self.state.edge.as_ref().map(|tier| {
                let mut accum = EdgeAccum::default();
                accum.add_tier(tier);
                accum
            })
        }
    }

    #[test]
    fn stepped_session_matches_one_shot_run_exactly() {
        let run = ClSimulator::new(short_config(SchedulerKind::DaCapoSpatiotemporal))
            .unwrap()
            .run()
            .unwrap();
        let mut session = Session::new(short_config(SchedulerKind::DaCapoSpatiotemporal)).unwrap();
        while session.step().unwrap() != SessionEvent::Finished {}
        let stepped = session.into_result();
        assert_eq!(run, stepped);
    }

    #[test]
    fn event_stream_mirrors_the_collected_result() {
        let mut session = Session::new(short_config(SchedulerKind::DaCapoSpatiotemporal)).unwrap();
        let mut phases = 0usize;
        let mut accuracy_events = Vec::new();
        let mut drift_events = 0usize;
        loop {
            match session.step().unwrap() {
                SessionEvent::Phase(_) => phases += 1,
                SessionEvent::Accuracy { at_s, accuracy } => accuracy_events.push((at_s, accuracy)),
                SessionEvent::Drift { .. } => drift_events += 1,
                SessionEvent::Finished => break,
            }
        }
        assert!(session.is_finished());
        let result = session.into_result();
        assert_eq!(result.phases.len(), phases);
        assert_eq!(result.accuracy_timeline, accuracy_events);
        assert_eq!(result.drift_responses, drift_events);
        assert!(drift_events >= 1, "the injected drift should surface as an event");
    }

    #[test]
    fn observer_hooks_see_every_event() {
        #[derive(Default)]
        struct Counter {
            phases: usize,
            accuracy: usize,
            drifts: usize,
            finished: bool,
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
                self.finished = true;
            }
        }

        let mut session = Session::new(short_config(SchedulerKind::DaCapoSpatiotemporal)).unwrap();
        let mut counter = Counter::default();
        session.run_with(&mut counter).unwrap();
        assert!(counter.finished);
        let result = session.into_result();
        assert_eq!(counter.phases, result.phases.len());
        assert_eq!(counter.accuracy, result.accuracy_timeline.len());
        assert_eq!(counter.drifts, result.drift_responses);
    }

    #[test]
    fn finished_sessions_keep_reporting_finished() {
        let mut session = Session::new(short_config(SchedulerKind::NoAdaptation)).unwrap();
        session.run_to_end().unwrap();
        for _ in 0..3 {
            assert_eq!(session.step().unwrap(), SessionEvent::Finished);
        }
    }

    #[test]
    fn progress_and_time_advance_monotonically() {
        let mut session = Session::new(short_config(SchedulerKind::DaCapoSpatial)).unwrap();
        assert_eq!(session.now_s(), 0.0);
        assert_eq!(session.progress(), 0.0);
        let mut previous = 0.0;
        while session.step().unwrap() != SessionEvent::Finished {
            assert!(session.now_s() >= previous);
            previous = session.now_s();
        }
        assert!((session.progress() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partial_results_cover_only_the_executed_prefix() {
        let mut session = Session::new(short_config(SchedulerKind::DaCapoSpatiotemporal)).unwrap();
        // Execute a handful of phases, well short of the 120 s scenario.
        let mut phases = 0;
        while phases < 3 {
            if let SessionEvent::Phase(_) = session.step().unwrap() {
                phases += 1;
            }
        }
        let partial = session.into_result();
        assert_eq!(partial.phases.len(), 3);
        let executed: f64 = partial.phases.iter().map(|p| p.duration_s).sum();
        assert!(executed < 120.0);
        // Partial results account only for executed time, not the full
        // scenario (1 W platform: energy in joules == covered seconds).
        assert!((partial.duration_s - executed).abs() < 1e-9);
        assert!((partial.energy_joules - executed).abs() < 1e-9);
    }

    #[test]
    fn non_finite_waits_from_untrusted_policies_error_instead_of_spinning() {
        use crate::sched::{self, Action, Scheduler, SchedulerContext};

        struct NanWait;
        impl Scheduler for NanWait {
            fn name(&self) -> String {
                "NaN-Wait".to_string()
            }
            fn next_action(&mut self, _ctx: &SchedulerContext) -> Action {
                Action::Wait { seconds: f64::NAN }
            }
        }
        sched::register("nan-wait", |_| Box::new(NanWait));
        let mut config = short_config(SchedulerKind::NoAdaptation);
        config.scheduler = "nan-wait".into();
        let mut session = Session::new(config).unwrap();
        let err = loop {
            match session.step() {
                Ok(SessionEvent::Finished) => panic!("NaN wait must not finish cleanly"),
                Ok(_) => continue,
                Err(err) => break err,
            }
        };
        assert!(err.to_string().contains("non-finite wait"), "{err}");
    }

    #[test]
    fn step_phase_yields_whole_bursts_ending_in_a_time_bearing_event() {
        let mut session = Session::new(short_config(SchedulerKind::DaCapoSpatiotemporal)).unwrap();
        let mut bursts = 0usize;
        let mut phases = 0usize;
        loop {
            let events = session.step_phase().unwrap();
            assert!(!events.is_empty());
            // Only the final event of a burst is time-bearing.
            for event in &events[..events.len() - 1] {
                assert!(matches!(
                    event,
                    SessionEvent::Drift { .. } | SessionEvent::Accuracy { .. }
                ));
            }
            bursts += 1;
            match events.last().unwrap() {
                SessionEvent::Phase(_) => phases += 1,
                SessionEvent::Finished => break,
                other => panic!("burst ended with {other:?}"),
            }
        }
        assert!(session.is_finished());
        let result = session.into_result();
        assert_eq!(result.phases.len(), phases);
        assert!(bursts > phases, "the finished burst is extra");
        // Bit-identical to a one-shot run of the same config.
        let one_shot = ClSimulator::new(short_config(SchedulerKind::DaCapoSpatiotemporal))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(result, one_shot);
    }

    #[test]
    fn sessions_are_send_for_fleet_threading() {
        fn assert_send<T: Send>() {}
        assert_send::<Session>();
    }

    /// Steps a session `phases` whole phases, then returns it.
    fn session_after_phases(scheduler: SchedulerKind, phases: usize) -> Session {
        let mut session = Session::new(short_config(scheduler)).unwrap();
        let mut executed = 0;
        while executed < phases && !session.is_finished() {
            if let SessionEvent::Phase(_) = session.step().unwrap() {
                executed += 1;
            }
        }
        session
    }

    #[test]
    fn snapshot_restore_is_bit_identical_for_every_builtin_scheduler() {
        for kind in SchedulerKind::BUILTINS {
            let mut uninterrupted = Session::new(short_config(kind)).unwrap();
            uninterrupted.run_to_end().unwrap();
            let expected = uninterrupted.into_result();

            let interrupted = session_after_phases(kind, 4);
            let snapshot = interrupted.snapshot();
            assert_eq!(snapshot.version, SNAPSHOT_VERSION);
            drop(interrupted);
            let mut restored = Session::restore(snapshot).unwrap();
            restored.run_to_end().unwrap();
            assert_eq!(restored.into_result(), expected, "{kind} diverged after restore");
        }
    }

    #[test]
    fn snapshot_survives_a_json_round_trip_bit_identically() {
        let mut uninterrupted =
            Session::new(short_config(SchedulerKind::DaCapoSpatiotemporal)).unwrap();
        uninterrupted.run_to_end().unwrap();
        let expected = uninterrupted.into_result();

        let session = session_after_phases(SchedulerKind::DaCapoSpatiotemporal, 5);
        let json = session.snapshot().to_json();
        let parsed = SessionSnapshot::from_json(&json).unwrap();
        assert_eq!(parsed, session.snapshot(), "JSON round trip preserves the snapshot exactly");
        let mut restored = Session::restore(parsed).unwrap();
        restored.run_to_end().unwrap();
        assert_eq!(restored.into_result(), expected);
    }

    /// An MX student's quantised inference weights are derived, not snapshot
    /// state: after every retraining phase, and after a snapshot is restored
    /// as it is or through JSON text, the student equals — copy included —
    /// and evaluates as a network rebuilt from its weights alone (the
    /// serialised form, which carries no copy).
    #[test]
    fn an_mx_students_inference_weights_follow_its_weights_through_restores() {
        let config = SimConfig {
            platform: "dacapo".into(),
            ..short_config(SchedulerKind::DaCapoSpatiotemporal)
        };
        let features =
            dacapo_tensor::init::uniform(24, config.stream.feature_dim, -1.0, 1.0, 5).unwrap();
        let assert_follows = |session: &Session, what: &str| {
            let net = session.state.student.network();
            assert!(matches!(net.config().inference_mode, dacapo_dnn::QuantMode::Mx(_)));
            let rebuilt = Mlp::from_value(&net.to_value()).unwrap();
            assert_eq!(net, &rebuilt, "{what}");
            let mode = net.config().inference_mode;
            assert_eq!(net.forward(&features, mode), rebuilt.forward(&features, mode), "{what}");
        };
        let mut session = Session::new(config).unwrap();
        assert_follows(&session, "pre-trained");
        let mut retrains = 0;
        while retrains < 3 {
            let event = session.step().unwrap();
            assert_ne!(event, SessionEvent::Finished, "the run retrains three times");
            if matches!(event, SessionEvent::Phase(PhaseRecord { kind: PhaseKind::Retrain, .. })) {
                retrains += 1;
                assert_follows(&session, &format!("retrain {retrains}"));
            }
        }
        let snapshot = session.snapshot();
        assert_follows(&Session::restore(snapshot.clone()).unwrap(), "restored");
        let parsed = SessionSnapshot::from_json(&snapshot.to_json()).unwrap();
        assert_follows(&Session::restore(parsed).unwrap(), "restored from JSON");
    }

    /// A label phase synthesises only the frames it labels, yet consumes the
    /// stream as the cursor's own range method does: the labeled rows are the
    /// first `samples` of `frames_until` over the phase's time range, and the
    /// cursor ends where `frames_until` leaves it.
    #[test]
    fn label_phases_label_the_head_of_the_strided_range_and_consume_all_of_it() {
        // This pair's labeling rate on the DaCapo platform does not divide
        // the frame rate, so its phases stride over more frames than they
        // label.
        let config = SimConfig::builder(short_scenario(), dacapo_dnn::zoo::ModelPair::VitB32VitB16)
            .platform("dacapo")
            .scheduler(SchedulerKind::DaCapoSpatiotemporal)
            .measurement(5.0, 20)
            .pretrain_samples(128)
            .build()
            .unwrap();
        let mut session = Session::new(config).unwrap();
        session.set_record_labels(true);
        let fps = session.config().stream.fps;
        let mut label_phases = 0;
        let mut dropped = 0;
        let mut cursor = session.stream_cursor();
        while !session.is_finished() {
            if session.state.pending.is_empty() {
                // The next step runs an action: this is where it starts from.
                cursor = session.stream_cursor();
            }
            let SessionEvent::Phase(phase) = session.step().unwrap() else { continue };
            if phase.kind != PhaseKind::Label || phase.samples == 0 {
                continue;
            }
            let end_s = phase.start_s + phase.duration_s;
            let step = ((phase.duration_s * fps) as u64 / phase.samples as u64).max(1);
            cursor.seek_time(&session.rt.stream, phase.start_s);
            let mut expected = cursor.frames_until(&session.rt.stream, end_s, step);
            assert_eq!(session.stream_cursor(), cursor, "phase at {}", phase.start_s);
            dropped += expected.len().saturating_sub(phase.samples);
            expected.truncate(phase.samples);
            let labeled = session.take_fresh_labels();
            assert_eq!(labeled.len(), expected.len(), "phase at {}", phase.start_s);
            for (i, frame) in expected.iter().enumerate() {
                let row = labeled.get(i);
                assert_eq!(row.timestamp_s, frame.timestamp_s);
                assert_eq!(row.true_class, frame.sample.true_class);
                assert_eq!(row.features, frame.sample.features.as_slice());
            }
            label_phases += 1;
        }
        assert!(label_phases >= 3, "the run labels repeatedly ({label_phases})");
        assert!(dropped > 0, "some phase's strided range is longer than what it labels");
    }

    #[test]
    fn snapshots_capture_progress_and_restore_resumes_mid_run() {
        let session = session_after_phases(SchedulerKind::DaCapoSpatiotemporal, 3);
        let snapshot = session.snapshot();
        assert!(snapshot.now_s > 0.0);
        assert_eq!(snapshot.phases.len(), 3);
        assert!(!snapshot.finished);
        assert!(snapshot.stream_cursor.position() > 0, "labeling consumed stream frames");
        let restored = Session::restore(snapshot.clone()).unwrap();
        assert_eq!(restored.now_s(), session.now_s());
        assert_eq!(restored.phases(), session.phases());
        assert_eq!(restored.stream_cursor(), session.stream_cursor());
        // Snapshotting the restored session reproduces the original snapshot.
        assert_eq!(restored.snapshot(), snapshot);
    }

    #[test]
    fn unsupported_snapshot_versions_are_rejected_loudly() {
        let session = session_after_phases(SchedulerKind::NoAdaptation, 1);
        let mut snapshot = session.snapshot();
        snapshot.version = SNAPSHOT_VERSION + 1;
        let err = match Session::restore(snapshot) {
            Err(err) => err,
            Ok(_) => panic!("future-version snapshots must not restore"),
        };
        match &err {
            CoreError::Snapshot { reason } => {
                assert!(reason.contains("version"), "{reason}");
            }
            other => panic!("expected CoreError::Snapshot, got {other:?}"),
        }
    }

    #[test]
    fn malformed_snapshot_json_errors_cleanly() {
        assert!(SessionSnapshot::from_json("not json").is_err());
        assert!(SessionSnapshot::from_json("{\"version\": 2}").is_err());
    }

    /// The short test config with an edge tier over the broadband uplink.
    fn edge_config(scheduler: SchedulerKind) -> SimConfig {
        let mut config = short_config(scheduler);
        config.edge = Some(crate::edge::EdgeConfig::new("broadband"));
        config
    }

    #[test]
    fn a_local_routed_edge_session_is_bit_identical_to_a_plain_one() {
        let mut plain = Session::new(short_config(SchedulerKind::DaCapoSpatiotemporal)).unwrap();
        plain.run_to_end().unwrap();
        let mut edged = Session::new(edge_config(SchedulerKind::DaCapoSpatiotemporal)).unwrap();
        edged.run_to_end().unwrap();
        let accum = edged.edge_accum().unwrap();
        assert_eq!(accum.labels_cloud, 0, "the default route is local");
        assert_eq!(accum.bytes_shipped, 0);
        assert!(accum.labels_local > 0, "local labels are still counted");
        assert_eq!(plain.into_result(), edged.into_result());
    }

    #[test]
    fn cloud_routing_defers_label_arrival_into_the_buffer() {
        let mut session = Session::new(edge_config(SchedulerKind::DaCapoSpatiotemporal)).unwrap();
        session.set_label_route(LabelRoute::Cloud { byte_budget: None }).unwrap();
        assert_eq!(session.label_route(), Some(LabelRoute::Cloud { byte_budget: None }));
        let mut saw_in_flight = false;
        while !session.is_finished() {
            session.step().unwrap();
            saw_in_flight |= session.in_flight_cloud_labels() > 0;
        }
        assert!(saw_in_flight, "cloud labels must spend time on the wire");
        let accum = session.edge_accum().unwrap();
        assert!(accum.labels_cloud > 0, "{accum:?}");
        assert!(accum.bytes_shipped > 0);
        assert!(accum.frames_filtered > 0, "a static scene triggers the filter: {accum:?}");
        assert!(!accum.latencies_s.is_empty());
        assert!(accum.latencies_s.iter().all(|l| *l > 0.0));
    }

    #[test]
    fn snapshots_round_trip_mid_flight_cloud_labels_bit_identically() {
        let route = LabelRoute::Cloud { byte_budget: None };
        let mut uninterrupted =
            Session::new(edge_config(SchedulerKind::DaCapoSpatiotemporal)).unwrap();
        uninterrupted.set_label_route(route).unwrap();
        uninterrupted.run_to_end().unwrap();
        let expected_accum = uninterrupted.edge_accum().unwrap();
        let expected = uninterrupted.into_result();

        let mut session = Session::new(edge_config(SchedulerKind::DaCapoSpatiotemporal)).unwrap();
        session.set_label_route(route).unwrap();
        while session.in_flight_cloud_labels() == 0 && !session.is_finished() {
            session.step().unwrap();
        }
        assert!(session.in_flight_cloud_labels() > 0, "test needs labels on the wire");
        let json = session.snapshot().to_json();
        let snapshot = SessionSnapshot::from_json(&json).unwrap();
        assert!(
            !snapshot.edge.as_ref().unwrap().in_flight.is_empty(),
            "in-flight labels ride the snapshot"
        );
        let mut restored = Session::restore(snapshot).unwrap();
        restored.run_to_end().unwrap();
        let restored_accum = restored.edge_accum().unwrap();
        assert_eq!(restored_accum.labels_cloud, expected_accum.labels_cloud);
        assert_eq!(restored_accum.bytes_shipped, expected_accum.bytes_shipped);
        assert_eq!(restored.into_result(), expected);
    }

    #[test]
    fn label_routes_require_an_edge_tier() {
        let mut session = Session::new(short_config(SchedulerKind::NoAdaptation)).unwrap();
        assert!(session.label_route().is_none());
        assert_eq!(session.in_flight_cloud_labels(), 0);
        let err = session.set_label_route(LabelRoute::Local).unwrap_err();
        assert!(err.to_string().contains("no edge tier"), "{err}");
    }

    #[test]
    fn edge_state_and_config_presence_must_agree_on_restore() {
        let session = Session::new(edge_config(SchedulerKind::NoAdaptation)).unwrap();
        let mut snapshot = session.snapshot();
        snapshot.edge = None;
        assert!(Session::restore(snapshot).is_err(), "config has edge, snapshot does not");

        let plain = Session::new(short_config(SchedulerKind::NoAdaptation)).unwrap();
        let mut snapshot = plain.snapshot();
        snapshot.edge = session.snapshot().edge;
        assert!(Session::restore(snapshot).is_err(), "snapshot has edge, config does not");
    }

    /// Mid-run snapshots to mutate: one plain, one with an edge tier and
    /// cloud labels on the wire.
    fn mid_run_snapshots() -> [SessionSnapshot; 2] {
        let plain = session_after_phases(SchedulerKind::DaCapoSpatiotemporal, 4).snapshot();
        let mut edged = Session::new(edge_config(SchedulerKind::DaCapoSpatiotemporal)).unwrap();
        edged.set_label_route(LabelRoute::Cloud { byte_budget: None }).unwrap();
        while edged.in_flight_cloud_labels() == 0 {
            edged.step().unwrap();
        }
        [plain, edged.snapshot()]
    }

    /// Restoring `snapshot` must fail with a typed snapshot error, whose
    /// reason comes back.
    #[track_caller]
    fn assert_unrestorable(snapshot: Result<SessionSnapshot>, what: &str) -> String {
        match snapshot.and_then(Session::restore) {
            Err(CoreError::Snapshot { reason }) if !reason.is_empty() => reason,
            Err(other) => panic!("{what}: expected CoreError::Snapshot, got {other:?}"),
            Ok(_) => panic!("{what}: hostile state must not restore"),
        }
    }

    /// The `key` entry of an object in a serialised tree.
    fn field<'v>(value: &'v mut Value, key: &str) -> &'v mut Value {
        let Value::Object(entries) = value else { panic!("{key}'s parent is an object") };
        &mut entries.iter_mut().find(|(k, _)| k == key).expect("the field exists").1
    }

    /// Decodes `snapshot`'s JSON with its student's network rewritten — how
    /// a hostile file arrives: an `Mlp` in memory cannot be mis-shaped, so
    /// the edit has to ride the serialised form.
    fn with_student_network(
        snapshot: &SessionSnapshot,
        edit: impl FnOnce(&mut Value),
    ) -> Result<SessionSnapshot> {
        let mut tree = snapshot.to_value();
        edit(field(field(&mut tree, "student"), "network"));
        SessionSnapshot::from_json(&serde_json::to_string(&tree).unwrap())
    }

    /// Decodes `snapshot`'s JSON with the value at `path` replaced — how a
    /// teacher arrives hostile, its fields being private.
    fn with_field(
        snapshot: &SessionSnapshot,
        path: &[&str],
        value: Value,
    ) -> Result<SessionSnapshot> {
        let mut tree = snapshot.to_value();
        *path.iter().fold(&mut tree, |node, key| field(node, key)) = value;
        SessionSnapshot::from_json(&serde_json::to_string(&tree).unwrap())
    }

    /// [`with_student_network`] with the network's layer list rewritten.
    fn with_student_layers(
        snapshot: &SessionSnapshot,
        edit: impl FnOnce(&mut Vec<Value>),
    ) -> Result<SessionSnapshot> {
        with_student_network(snapshot, |network| {
            let Value::Array(layers) = field(network, "layers") else {
                panic!("layers is an array")
            };
            edit(layers);
        })
    }

    #[test]
    fn restore_rejects_state_it_cannot_run() {
        type Mutation = (&'static str, fn(&mut SessionSnapshot));
        let any_session: &[Mutation] = &[
            ("now_s NaN", |s| s.now_s = f64::NAN),
            ("now_s negative", |s| s.now_s = -1.0),
            ("now_s +inf", |s| s.now_s = f64::INFINITY),
            ("now_s -inf", |s| s.now_s = f64::NEG_INFINITY),
            ("next_measure_s NaN", |s| s.next_measure_s = f64::NAN),
            ("next_measure_s negative", |s| s.next_measure_s = -1e300),
            ("timeline time", |s| s.timeline[0].0 = f64::NAN),
            ("phase start", |s| s.phases[0].start_s = f64::INFINITY),
            ("phase duration", |s| s.phases.last_mut().unwrap().duration_s = f64::NAN),
            ("feature_dim vs student", |s| s.config.stream.feature_dim += 1),
            ("buffer capacity", |s| s.buffer = SampleBuffer::new(s.buffer.capacity() + 1)),
            ("buffer row width", |s| {
                let wide = vec![0.0; s.config.stream.feature_dim + 1];
                s.buffer.reset();
                s.buffer.push(crate::LabeledSample {
                    features: wide,
                    teacher_label: 0,
                    true_class: 0,
                    timestamp_s: 0.0,
                });
            }),
            ("buffer class", |s| {
                s.buffer.push(crate::LabeledSample {
                    features: vec![0.0; s.config.stream.feature_dim],
                    teacher_label: NUM_CLASSES,
                    true_class: 0,
                    timestamp_s: 0.0,
                });
            }),
            ("recorded row width", |s| {
                let features = &vec![0.0; s.config.stream.feature_dim - 1];
                let row = SampleRef { features, teacher_label: 0, true_class: 0, timestamp_s: 0.0 };
                s.fresh_labels.push(row);
            }),
            ("recorded class", |s| {
                let features = &vec![0.0; s.config.stream.feature_dim];
                let row =
                    SampleRef { features, teacher_label: 0, true_class: 10, timestamp_s: 0.0 };
                s.fresh_labels.push(row);
            }),
            ("cursor past the end", |s| {
                let past = Value::Object(vec![("next_index".to_string(), Value::UInt(u64::MAX))]);
                s.stream_cursor = StreamCursor::from_value(&past).unwrap();
            }),
        ];
        let edge_only: &[Mutation] = &[
            ("edge state missing", |s| s.edge = None),
            ("uplink clock", |s| s.edge.as_mut().unwrap().uplink_free_at_s = f64::NAN),
            ("arrival time", |s| {
                s.edge.as_mut().unwrap().in_flight[0].arrival_s = f64::INFINITY;
            }),
            ("in-flight class", |s| {
                s.edge.as_mut().unwrap().in_flight[0].sample.teacher_label = usize::MAX;
            }),
            ("in-flight row width", |s| {
                s.edge.as_mut().unwrap().in_flight[0].sample.features.push(0.0);
            }),
        ];
        let [plain, edged] = mid_run_snapshots();
        for (snapshot, mutations) in
            [(&plain, any_session), (&edged, any_session), (&edged, edge_only)]
        {
            assert!(Session::restore(snapshot.clone()).is_ok(), "the unmutated snapshot restores");
            for (what, mutate) in mutations {
                let mut hostile = snapshot.clone();
                mutate(&mut hostile);
                assert_unrestorable(Ok(hostile), what);
            }
        }
        for snapshot in [&plain, &edged] {
            assert_unrestorable(
                with_student_layers(snapshot, Vec::clear),
                "student without layers",
            );
            assert_unrestorable(
                with_student_layers(snapshot, |layers| drop(layers.remove(1))),
                "student missing a layer",
            );
            let wide = Dense::new(snapshot.config.stream.feature_dim, 65, Activation::Relu, 0);
            assert_unrestorable(
                with_student_layers(snapshot, |layers| layers[0] = wide.unwrap().to_value()),
                "student weight width",
            );
            // A well-formed network for the wrong number of classes.
            let config = snapshot.student.network().config();
            let narrow = MlpConfig { num_classes: NUM_CLASSES - 1, ..config.clone() };
            let narrow = Mlp::new(narrow).unwrap().to_value();
            let reason = assert_unrestorable(
                with_student_network(snapshot, |network| *network = narrow),
                "student class count",
            );
            assert!(reason.contains("student.network.config.num_classes"), "{reason}");
            assert!(with_student_layers(snapshot, |_| {}).and_then(Session::restore).is_ok());
        }
        let mut hostile = plain.clone();
        hostile.edge = edged.edge.clone();
        assert_unrestorable(Ok(hostile), "edge state without an edge tier");
        // Teachers that would panic at their first label: too few classes,
        // and a base accuracy JSON `null` (read as NaN) or outside [0, 1].
        let teachers: [(&SessionSnapshot, &[&str]); 3] = [
            (&plain, &["teacher"]),
            (&edged, &["teacher"]),
            (&edged, &["edge", "cloud", "oracle"]),
        ];
        for (snapshot, teacher) in teachers {
            let at = |key| [teacher, &[key]].concat();
            for (key, value, named) in [
                ("num_classes", Value::UInt(2), "num_classes is 2"),
                ("base_accuracy", Value::Null, "base_accuracy must lie in [0, 1], got NaN"),
                ("base_accuracy", Value::Float(1.5), "base_accuracy must lie in [0, 1], got 1.5"),
            ] {
                let what = format!("{}.{key}", teacher.join("."));
                let reason = assert_unrestorable(with_field(snapshot, &at(key), value), &what);
                assert!(reason.starts_with(&what) && reason.contains(named), "{reason}");
            }
            let classes = Value::UInt(NUM_CLASSES as u64);
            for (key, value) in [("num_classes", classes), ("base_accuracy", Value::Float(0.0))] {
                assert!(with_field(snapshot, &at(key), value).and_then(Session::restore).is_ok());
            }
        }
    }

    #[test]
    fn non_finite_clocks_spliced_into_snapshot_json_are_rejected() {
        let [plain, _] = mid_run_snapshots();
        let json = plain.to_json();
        let key = "\n  \"now_s\": ";
        let start = json.find(key).expect("now_s is a top-level field") + key.len();
        let end = start + json[start..].find(',').unwrap();
        for hostile in ["null", "1e999", "-1e999"] {
            let text = format!("{}{hostile}{}", &json[..start], &json[end..]);
            assert_unrestorable(SessionSnapshot::from_json(&text), hostile);
        }
        assert!(SessionSnapshot::from_json(&json).and_then(Session::restore).is_ok());
    }

    #[test]
    fn a_snapshot_of_a_degenerate_scenario_does_not_decode() {
        let empty = r#"{"name":"x","segments":[]}"#;
        let err = serde_json::from_str::<dacapo_datagen::Scenario>(empty).unwrap_err();
        assert!(err.to_string().contains("at least one segment"), "{err}");
        let session = session_after_phases(SchedulerKind::DaCapoSpatiotemporal, 2);
        let mut tree = session.snapshot().to_value();
        let Value::Array(segments) =
            field(field(field(&mut tree, "config"), "scenario"), "segments")
        else {
            panic!("segments is an array")
        };
        *field(&mut segments[0], "duration_s") = Value::Float(-60.0);
        let text = serde_json::to_string(&tree).unwrap();
        let reason = assert_unrestorable(SessionSnapshot::from_json(&text), "negative segment");
        assert!(reason.contains("segment 0 has -60"), "{reason}");
    }

    #[test]
    fn restoring_an_unregistered_scheduler_fails_with_a_clear_error() {
        let session = session_after_phases(SchedulerKind::NoAdaptation, 1);
        let mut snapshot = session.snapshot();
        snapshot.config.scheduler = "never-registered-policy".into();
        let err = match Session::restore(snapshot) {
            Err(err) => err,
            Ok(_) => panic!("unregistered schedulers must not restore"),
        };
        assert!(err.to_string().contains("never-registered-policy"), "{err}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4))]

        /// Whose arena a session computes in never shows in what it
        /// computes: four sessions that agree on nothing an arena's shape
        /// depends on (fp32 and MX, three feature widths, three mini-batch
        /// sizes), admitted into and stepped through ONE lent arena in a
        /// random interleaving — one of them snapshotted and restored on
        /// the way, as a migration does — emit the events, end in the
        /// snapshots and return the results of the same sessions each run
        /// alone in its own arena. And none of the lent ones ever grows an
        /// arena of its own.
        #[test]
        fn sessions_interleaved_through_one_lent_arena_match_sessions_with_their_own(
            seed in 0u64..1_000_000,
            schedule in proptest::collection::vec(0usize..4, 40),
            migrant in 0usize..4,
            migrate_after in 0usize..5,
        ) {
            let configs = crate::sim::test_support::mixed_configs(seed);
            let mut arena = TrainScratch::new();
            let mut lent: Vec<Session> = configs
                .iter()
                .map(|config| Session::new_in(config.clone(), &mut arena).unwrap())
                .collect();
            let mut lent_events = vec![Vec::new(); lent.len()];
            let mut bursts = [0usize; 4];
            // The schedule first, then round-robin until everyone finished.
            for index in schedule.into_iter().chain((0..4).cycle()) {
                if lent.iter().all(Session::is_finished) {
                    break;
                }
                if lent[index].is_finished() {
                    continue;
                }
                if index == migrant && bursts[index] == migrate_after {
                    lent[index] = Session::restore(lent[index].snapshot()).unwrap();
                }
                lent_events[index].extend(lent[index].step_phase_in(&mut arena).unwrap());
                bursts[index] += 1;
            }
            proptest::prop_assert!(bursts[migrant] > migrate_after, "the migrant moved mid-run");
            proptest::prop_assert!(arena.capacity_bytes() > 0);

            for ((config, lent), lent_events) in configs.into_iter().zip(lent).zip(lent_events) {
                proptest::prop_assert_eq!(lent.own_arena_bytes(), 0, "a lent session owns no arena");
                let mut own = Session::new(config).unwrap();
                let mut own_events = Vec::new();
                while !own.is_finished() {
                    own_events.extend(own.step_phase().unwrap());
                }
                proptest::prop_assert!(own.own_arena_bytes() > 0);
                proptest::prop_assert_eq!(lent_events, own_events);
                proptest::prop_assert_eq!(lent.snapshot(), own.snapshot());
                proptest::prop_assert_eq!(lent.into_result(), own.into_result());
            }
        }
    }

    #[test]
    fn finished_sessions_snapshot_and_restore_to_finished_sessions() {
        let mut session = Session::new(short_config(SchedulerKind::DaCapoSpatial)).unwrap();
        session.run_to_end().unwrap();
        let snapshot = session.snapshot();
        assert!(snapshot.finished);
        let mut restored = Session::restore(snapshot).unwrap();
        assert_eq!(restored.step().unwrap(), SessionEvent::Finished);
        assert_eq!(restored.into_result(), session.into_result());
    }
}
