//! Elastic membership: the churn plan a cluster run is given, what it did
//! to the fleet, and the one resolver that turns the plan into indexed
//! events in execution order — or into the error that says why it cannot.

use super::check_camera;
use crate::config::SimConfig;
use crate::{CoreError, Result};
use serde::{Deserialize, Serialize};

/// One elastic-membership event on the cluster's virtual timeline. Events
/// are *scheduled* at `at_s` but *execute* at the first window barrier at or
/// after that time (see [`ChurnPlan`]), so churn stays deterministic across
/// worker-thread counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChurnEvent {
    /// A camera joins the cluster mid-run: its session starts (admitted via
    /// the standard capacity/admission path onto the least-loaded surviving
    /// accelerator) at the barrier.
    Join {
        /// Virtual time at which the camera becomes available, in seconds.
        at_s: f64,
        /// The camera's unique name.
        camera: String,
        /// The camera's full configuration (boxed: a `SimConfig` dwarfs the
        /// other variants).
        config: Box<SimConfig>,
    },
    /// A camera leaves the cluster mid-run: its session stops at the
    /// barrier and its partial [`SimResult`](crate::SimResult) (covering the
    /// executed prefix) is reported. Leaving a camera that already finished
    /// is a no-op; a camera still waiting in an admission queue departs
    /// without a result.
    Leave {
        /// Virtual time of the departure, in seconds.
        at_s: f64,
        /// Name of the departing camera.
        camera: String,
    },
    /// An accelerator drains for maintenance: at the barrier, every resident
    /// session is snapshotted (through the public
    /// [`SessionSnapshot`](crate::SessionSnapshot) format) and restored onto
    /// a surviving accelerator via the standard admission path. With no
    /// survivor, residents are orphaned and report partial results.
    Drain {
        /// Virtual time of the drain, in seconds.
        at_s: f64,
        /// Index of the accelerator to drain.
        accelerator: usize,
    },
}

impl ChurnEvent {
    /// The event's scheduled virtual time, in seconds.
    #[must_use]
    pub fn at_s(&self) -> f64 {
        match self {
            ChurnEvent::Join { at_s, .. }
            | ChurnEvent::Leave { at_s, .. }
            | ChurnEvent::Drain { at_s, .. } => *at_s,
        }
    }
}

/// A schedule of elastic-membership events ([`ChurnEvent`]) for one cluster
/// run, built in fluent style and executed at the same deterministic window
/// barriers as cross-camera label sharing: an event at time `t` fires at the
/// first barrier `b = k · window_s` with `b >= t`; events quantised to the
/// same barrier apply in the order they were added to the plan.
///
/// # Examples
///
/// ```no_run
/// use dacapo_core::{ChurnPlan, Cluster, SimConfig};
/// use dacapo_datagen::Scenario;
/// use dacapo_dnn::zoo::ModelPair;
///
/// # fn main() -> Result<(), dacapo_core::CoreError> {
/// let late = SimConfig::builder(Scenario::s2(), ModelPair::ResNet18Wrn50).build()?;
/// let plan = ChurnPlan::new()
///     .join(300.0, "late-joiner", late)
///     .leave(600.0, "cam-0")
///     .drain(900.0, 1);
/// let mut cluster = Cluster::new(2).churn(plan);
/// # let config = SimConfig::builder(Scenario::s1(), ModelPair::ResNet18Wrn50).build()?;
/// cluster = cluster.camera("cam-0", config.clone()).camera("cam-1", config);
/// let result = cluster.run()?;
/// println!("{} migrations", result.churn.migrations);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ChurnPlan {
    events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// Creates an empty plan (a cluster with an empty plan executes
    /// bit-identically to one without any plan).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a camera join at virtual time `at_s`.
    #[must_use]
    pub fn join(mut self, at_s: f64, camera: impl Into<String>, config: SimConfig) -> Self {
        self.events.push(ChurnEvent::Join {
            at_s,
            camera: camera.into(),
            config: Box::new(config),
        });
        self
    }

    /// Schedules a camera departure at virtual time `at_s`.
    #[must_use]
    pub fn leave(mut self, at_s: f64, camera: impl Into<String>) -> Self {
        self.events.push(ChurnEvent::Leave { at_s, camera: camera.into() });
        self
    }

    /// Schedules an accelerator drain at virtual time `at_s`.
    #[must_use]
    pub fn drain(mut self, at_s: f64, accelerator: usize) -> Self {
        self.events.push(ChurnEvent::Drain { at_s, accelerator });
        self
    }

    /// Adds an already-built event.
    #[must_use]
    pub fn event(mut self, event: ChurnEvent) -> Self {
        self.events.push(event);
        self
    }

    /// The scheduled events, in the order they were added.
    #[must_use]
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Telemetry of one cluster run's elastic membership: what the churn plan
/// did to the fleet. Zeroed (except [`ChurnMetrics::peak_residency`]) when
/// the plan was empty.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ChurnMetrics {
    /// Cameras that joined mid-run.
    pub joins: usize,
    /// Camera departures applied.
    pub leaves: usize,
    /// Accelerator drains applied.
    pub drains: usize,
    /// Sessions snapshot-migrated off a draining accelerator onto a
    /// survivor (directly admitted or queued for resumption).
    pub migrations: usize,
    /// Total virtual seconds migrated sessions spent between their drain
    /// event's scheduled time and resuming on the target accelerator —
    /// barrier-quantisation delay plus any admission queueing.
    pub migration_stall_s: f64,
    /// Peak number of concurrently resident (live) sessions across the
    /// cluster, sampled at admission and at every window barrier.
    pub peak_residency: usize,
    /// Cameras stranded without a home: residents (or queued cameras) of a
    /// drained accelerator with no surviving accelerator, and joins denied
    /// under [`AdmissionPolicy::Reject`](super::AdmissionPolicy::Reject) at
    /// full capacity. Orphans that had already run report partial results;
    /// orphans that never started are absent from
    /// [`FleetResult::cameras`](crate::FleetResult::cameras).
    pub orphaned_cameras: usize,
}

/// A churn event with its camera name resolved to a cluster camera index.
pub(super) struct PreparedEvent {
    pub(super) at_s: f64,
    pub(super) action: ChurnAction,
}

pub(super) enum ChurnAction {
    Join { camera_index: usize },
    Leave { camera_index: usize },
    Drain { accelerator: usize },
}

/// A churn plan checked and resolved against the cluster it is for.
pub(super) struct ResolvedChurn {
    /// The joining cameras in plan order: they take the camera indices
    /// past the initial set.
    pub(super) joiners: Vec<(String, SimConfig)>,
    /// The events, names turned into camera indices, in execution order:
    /// by scheduled time, same-time events in plan order.
    pub(super) events: Vec<PreparedEvent>,
}

/// Checks a churn plan against the cluster it is for while resolving it, so
/// a malformed event fails the run before any simulation time is spent and
/// the executor only ever sees events it can apply.
pub(super) fn resolve(
    plan: &ChurnPlan,
    cameras: &[(String, SimConfig)],
    accelerators: usize,
    window_s: f64,
) -> Result<ResolvedChurn> {
    // First pass, in plan order: per-event shape checks (times, join
    // configs, name uniqueness). Every event notes the camera index a join
    // in its place takes, which fixes the joiners' result indices and lets
    // a leave be added to the plan before the join it follows in time.
    let mut joiners: Vec<(String, SimConfig)> = Vec::new();
    let mut order: Vec<(f64, usize, usize)> = Vec::with_capacity(plan.len());
    for (seq, event) in plan.events().iter().enumerate() {
        let at_s = event.at_s();
        if !(at_s.is_finite() && at_s >= 0.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "churn event #{seq} must be scheduled at a finite, non-negative \
                     virtual time, got {at_s} s"
                ),
            });
        }
        // Window indices are computed in f64 and stored in usize; past
        // 2^53 windows both representations break down, so cap the
        // schedule well inside that range instead of hanging the run.
        if at_s / window_s >= 9.0e15 {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "churn event #{seq} at {at_s} s is beyond the representable window \
                     range for a {window_s} s window"
                ),
            });
        }
        order.push((at_s, seq, cameras.len() + joiners.len()));
        if let ChurnEvent::Join { camera, config, .. } = event {
            if cameras.iter().chain(&joiners).any(|(name, _)| name == camera) {
                return Err(CoreError::InvalidConfig {
                    reason: format!("churn join duplicates camera name '{camera}'"),
                });
            }
            check_camera(camera, config)?;
            joiners.push((camera.clone(), (**config).clone()));
        }
    }
    // Second pass, in *execution* order (time, then plan order for ties —
    // exactly how the barriers will apply the events), so ordering rules
    // match what actually runs.
    order.sort_by(|(a, sa, _), (b, sb, _)| a.total_cmp(b).then(sa.cmp(sb)));
    let mut joined = vec![true; cameras.len()];
    joined.resize(cameras.len() + joiners.len(), false);
    let mut drained: Vec<usize> = Vec::new();
    let mut events = Vec::with_capacity(order.len());
    for (at_s, seq, join_index) in order {
        let action = match &plan.events()[seq] {
            ChurnEvent::Join { .. } => {
                joined[join_index] = true;
                ChurnAction::Join { camera_index: join_index }
            }
            ChurnEvent::Leave { camera, .. } => {
                match cameras.iter().chain(&joiners).position(|(name, _)| name == camera) {
                    Some(camera_index) if joined[camera_index] => {
                        ChurnAction::Leave { camera_index }
                    }
                    Some(_) => {
                        return Err(CoreError::InvalidConfig {
                            reason: format!(
                                "camera '{camera}' cannot leave at {at_s} s before joining"
                            ),
                        });
                    }
                    None => {
                        return Err(CoreError::InvalidConfig {
                            reason: format!("churn leave names unknown camera '{camera}'"),
                        });
                    }
                }
            }
            ChurnEvent::Drain { accelerator, .. } => {
                if *accelerator >= accelerators {
                    return Err(CoreError::InvalidConfig {
                        reason: format!(
                            "churn drain names accelerator {accelerator}, but the cluster \
                             has only {accelerators}"
                        ),
                    });
                }
                if drained.contains(accelerator) {
                    return Err(CoreError::InvalidConfig {
                        reason: format!(
                            "accelerator {accelerator} is drained twice in the churn plan"
                        ),
                    });
                }
                drained.push(*accelerator);
                ChurnAction::Drain { accelerator: *accelerator }
            }
        };
        events.push(PreparedEvent { at_s, action });
    }
    Ok(ResolvedChurn { joiners, events })
}
