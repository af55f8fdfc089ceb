//! Temporal resource allocation: the DaCapo spatiotemporal algorithm
//! (Algorithm 1), the baseline scheduling policies it is compared against,
//! and the pluggable-policy registry.
//!
//! A scheduler owns the T-SA (DaCapo) or the GPU time left over after
//! inference (baselines) and decides, phase by phase, whether to spend it on
//! **labeling** new samples or **retraining** the student, and whether the
//! sample buffer should be reset because data drift was detected.
//!
//! Of the baselines, DaCapo-Spatial and Ekya are one fixed-window policy
//! (`FixedWindow`): each window opens with a profiling wait, if the policy
//! has one, then labels once and retrains once, and idles to its end.
//! DaCapo-Spatial is a `window_seconds` window without profiling; Ekya is a
//! window twice as long whose first 15 % profile candidate configurations.
//! EOMU keeps a state machine of its own, since it retrains only when the
//! accuracy it monitors degrades.
//!
//! # Pluggable policies
//!
//! Policies are built by registered functions rather than a closed enum
//! match, so external crates (and CLI flags) can add schedulers without
//! touching this crate: implement [`Scheduler`], [`register`] a name and a
//! `Fn(&Hyperparams) -> Box<dyn Scheduler>` that builds it, and select it by
//! name via [`SchedulerSpec::Named`] (the `SimConfig` builder accepts a
//! `&str` scheduler directly). The paper's five builtin policies are
//! pre-registered under their lower-cased display names
//! (`"dacapo-spatiotemporal"`, `"dacapo-spatial"`, `"ekya"`, `"eomu"`,
//! `"no-adaptation"`). Names follow the workspace's one `<name>[:<params>]`
//! grammar ([`crate::registry`]), but a scheduler's build function takes no
//! parameters, so a suffixed name (`"ekya:3"`) is an error naming the suffix.

use crate::config::Hyperparams;
use crate::registry::{no_params, split_params, Registry};
use crate::{CoreError, Result};
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The scheduling policies evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// DaCapo's spatiotemporal allocation (Algorithm 1): alternate retraining
    /// and labeling, detect drift by comparing validation accuracy against
    /// fresh-label accuracy, and respond by resetting the buffer and labeling
    /// 4× more.
    DaCapoSpatiotemporal,
    /// DaCapo-Spatial: the same spatial partition but a fixed-window temporal
    /// schedule with no drift response.
    DaCapoSpatial,
    /// Ekya: fixed (long) windows; each window spends part of its budget on a
    /// profiling pass before retraining with the selected configuration.
    Ekya,
    /// EOMU: short monitoring windows that label a little continuously and
    /// trigger retraining only when observed accuracy degrades.
    Eomu,
    /// No adaptation at all: the pre-trained student serves every frame and
    /// the labeling/retraining resources stay idle. Used by the Figure 2
    /// motivation study as the "Student" (non-continuous-learning) case.
    NoAdaptation,
}

impl SchedulerKind {
    /// All continuous-learning policies in the order Figure 9 lists the
    /// systems (the non-adaptive baseline is excluded).
    pub const ALL: [SchedulerKind; 4] = [
        SchedulerKind::Ekya,
        SchedulerKind::Eomu,
        SchedulerKind::DaCapoSpatial,
        SchedulerKind::DaCapoSpatiotemporal,
    ];

    /// Every builtin policy, including the non-adaptive baseline. This is
    /// the single source of truth the policy registry is seeded from.
    pub const BUILTINS: [SchedulerKind; 5] = [
        SchedulerKind::DaCapoSpatiotemporal,
        SchedulerKind::DaCapoSpatial,
        SchedulerKind::Ekya,
        SchedulerKind::Eomu,
        SchedulerKind::NoAdaptation,
    ];

    /// Instantiates the policy with the given hyperparameters.
    #[must_use]
    pub fn create(self, hyper: &Hyperparams) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::DaCapoSpatiotemporal => Box::new(Spatiotemporal::new(hyper)),
            SchedulerKind::DaCapoSpatial => {
                Box::new(FixedWindow::new(self, hyper, hyper.window_seconds, 0.0))
            }
            SchedulerKind::Ekya => {
                // Ekya windows are long (its paper uses 200 s; we use twice
                // the DaCapo window so the relative sluggishness is
                // preserved), and each opens with a profiling pass.
                let window_s = hyper.window_seconds * 2.0;
                Box::new(FixedWindow::new(self, hyper, window_s, window_s * 0.15))
            }
            SchedulerKind::Eomu => Box::new(Eomu::new(hyper)),
            SchedulerKind::NoAdaptation => Box::new(NoAdaptation),
        }
    }

    /// Whether this policy reacts to detected data drift.
    #[must_use]
    pub fn drift_aware(self) -> bool {
        matches!(self, SchedulerKind::DaCapoSpatiotemporal | SchedulerKind::Eomu)
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerKind::DaCapoSpatiotemporal => write!(f, "DaCapo-Spatiotemporal"),
            SchedulerKind::DaCapoSpatial => write!(f, "DaCapo-Spatial"),
            SchedulerKind::Ekya => write!(f, "Ekya"),
            SchedulerKind::Eomu => write!(f, "EOMU"),
            SchedulerKind::NoAdaptation => write!(f, "No-Adaptation"),
        }
    }
}

/// The non-adaptive baseline: never labels, never retrains.
#[derive(Debug)]
struct NoAdaptation;

impl Scheduler for NoAdaptation {
    fn name(&self) -> String {
        SchedulerKind::NoAdaptation.to_string()
    }

    fn next_action(&mut self, _ctx: &SchedulerContext) -> Action {
        Action::Wait { seconds: 30.0 }
    }
}

/// What the simulator tells the scheduler before each decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerContext {
    /// Current simulation time in seconds.
    pub now_s: f64,
    /// Number of samples currently buffered.
    pub buffer_len: usize,
    /// Buffer capacity.
    pub buffer_capacity: usize,
    /// Validation accuracy (`acc_v`) measured after the most recent
    /// retraining phase, if any.
    pub last_validation_accuracy: Option<f64>,
    /// Student accuracy (`acc_l`) on the most recently labeled batch, if any.
    pub last_labeling_accuracy: Option<f64>,
}

/// One temporal-allocation decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Action {
    /// Label `samples` freshly sampled frames with the teacher. When
    /// `reset_buffer` is set, the sample buffer is cleared first (the drift
    /// response of Algorithm 1, lines 12–13).
    Label {
        /// Number of samples to label.
        samples: usize,
        /// Whether to clear the buffer before adding the new samples.
        reset_buffer: bool,
    },
    /// Draw `samples` from the buffer and retrain for `epochs` epochs.
    Retrain {
        /// Number of buffered samples to draw.
        samples: usize,
        /// Number of epochs over the drawn samples.
        epochs: usize,
    },
    /// Leave the retraining/labeling resources idle for `seconds` (fixed
    /// -window baselines waiting for their next window, or profiling
    /// overhead).
    Wait {
        /// Idle duration in seconds.
        seconds: f64,
    },
}

/// A temporal resource-allocation policy.
///
/// `Send` is required so sessions can run on [`Cluster`](crate::Cluster)
/// worker threads.
pub trait Scheduler: Send {
    /// The policy's display name (used for reporting, e.g.
    /// `"DaCapo-Spatiotemporal"`).
    fn name(&self) -> String;

    /// Decides what the T-SA (or GPU leftover) does next.
    fn next_action(&mut self, ctx: &SchedulerContext) -> Action;

    /// The policy's mutable decision state as a serialisable JSON value, for
    /// [`Session::snapshot`](crate::Session::snapshot). Stateless policies
    /// keep the default [`Value::Null`]; stateful ones must return enough to
    /// make [`Scheduler::restore_state`] resume the exact decision sequence.
    /// All builtin policies implement both hooks.
    fn state(&self) -> Value {
        Value::Null
    }

    /// Restores the state captured by [`Scheduler::state`] into a freshly
    /// built policy instance. The default accepts only [`Value::Null`]: a
    /// policy that never reports state cannot silently discard someone
    /// else's.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the state does not match
    /// what this policy produces.
    fn restore_state(&mut self, state: &Value) -> Result<()> {
        if *state == Value::Null {
            Ok(())
        } else {
            Err(CoreError::InvalidConfig {
                reason: format!(
                    "scheduler '{}' is stateless but was handed snapshot state to restore",
                    self.name()
                ),
            })
        }
    }
}

/// How a registered policy is built: one fresh instance per session.
type Build = dyn Fn(&Hyperparams) -> Box<dyn Scheduler> + Send + Sync;

/// The global policy registry, seeded with the builtin kinds; storage and
/// lookup rules live in [`crate::registry`].
fn registry() -> &'static Registry<Build> {
    static REGISTRY: OnceLock<Registry<Build>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let registry: Registry<Build> = Registry::new("scheduler", &[]);
        for kind in SchedulerKind::BUILTINS {
            registry.register(
                &kind.to_string(),
                Arc::new(move |hyper: &Hyperparams| kind.create(hyper)),
            );
        }
        registry
    })
}

/// Registers (or replaces) the policy `build` makes under the
/// case-insensitive `name`.
///
/// # Panics
///
/// Panics if `name` contains `':'` — the colon introduces the parameter
/// suffix during lookup, so such a name could never be resolved.
pub fn register(
    name: &str,
    build: impl Fn(&Hyperparams) -> Box<dyn Scheduler> + Send + Sync + 'static,
) {
    registry().register(name, Arc::new(build));
}

/// The names of every registered policy, sorted.
#[must_use]
pub fn registered_names() -> Vec<String> {
    registry().names()
}

/// How a `SimConfig` selects its scheduling policy: a builtin kind, or a
/// registered policy by name.
///
/// `Kind(k)` builds the builtin directly; `Named(s)` resolves through the
/// registry, so a custom policy [`register`]ed over a builtin name wins for
/// the named form. Equality is structural: `Named("ekya")` and
/// `Kind(SchedulerKind::Ekya)` select the same policy but are different
/// specs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchedulerSpec {
    /// One of the paper's builtin policies.
    Kind(SchedulerKind),
    /// A policy resolved through the registry at session construction.
    Named(String),
}

impl SchedulerSpec {
    /// Instantiates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if a named policy is not
    /// registered or carries a `:<params>` suffix.
    pub fn create(&self, hyper: &Hyperparams) -> Result<Box<dyn Scheduler>> {
        match self {
            SchedulerSpec::Kind(kind) => Ok(kind.create(hyper)),
            SchedulerSpec::Named(name) => {
                let invalid = |reason| CoreError::InvalidConfig { reason };
                let (build, params) = registry().resolve(name).map_err(invalid)?;
                let base = split_params(name).0.to_lowercase();
                no_params("scheduler", &base, params).map_err(invalid)?;
                Ok(build(hyper))
            }
        }
    }
}

impl From<SchedulerKind> for SchedulerSpec {
    fn from(kind: SchedulerKind) -> Self {
        SchedulerSpec::Kind(kind)
    }
}

impl From<&str> for SchedulerSpec {
    fn from(name: &str) -> Self {
        SchedulerSpec::Named(name.to_string())
    }
}

impl From<String> for SchedulerSpec {
    fn from(name: String) -> Self {
        SchedulerSpec::Named(name)
    }
}

impl PartialEq<SchedulerKind> for SchedulerSpec {
    fn eq(&self, other: &SchedulerKind) -> bool {
        *self == SchedulerSpec::Kind(*other)
    }
}

impl fmt::Display for SchedulerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerSpec::Kind(kind) => write!(f, "{kind}"),
            SchedulerSpec::Named(name) => write!(f, "{name}"),
        }
    }
}

/// Maps a snapshot-state decode failure into a config error naming the
/// policy, shared by the builtin [`Scheduler::restore_state`] impls.
fn bad_state(name: &str, e: impl fmt::Display) -> CoreError {
    CoreError::InvalidConfig {
        reason: format!("scheduler '{name}' cannot restore snapshot state: {e}"),
    }
}

/// Detects drift per Algorithm 1 line 11: drift iff `acc_l - acc_v < V_thr`.
fn drift_detected(ctx: &SchedulerContext, threshold: f64) -> bool {
    match (ctx.last_labeling_accuracy, ctx.last_validation_accuracy) {
        (Some(acc_l), Some(acc_v)) => acc_l - acc_v < threshold,
        _ => false,
    }
}

// --------------------------------------------------------------------------
// DaCapo-Spatiotemporal (Algorithm 1)
// --------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum CyclePoint {
    Retrain,
    Label,
    DriftCheck,
}

/// The paper's Algorithm 1.
#[derive(Debug)]
struct Spatiotemporal {
    hyper: Hyperparams,
    next: CyclePoint,
}

impl Spatiotemporal {
    fn new(hyper: &Hyperparams) -> Self {
        Self { hyper: *hyper, next: CyclePoint::Retrain }
    }
}

impl Scheduler for Spatiotemporal {
    fn name(&self) -> String {
        SchedulerKind::DaCapoSpatiotemporal.to_string()
    }

    fn next_action(&mut self, ctx: &SchedulerContext) -> Action {
        loop {
            match self.next {
                CyclePoint::Retrain => {
                    // Retraining needs data; bootstrap by labeling until the
                    // buffer can supply a training and validation draw.
                    let needed = self.hyper.validation_samples + self.hyper.batch_size;
                    if ctx.buffer_len < needed {
                        return Action::Label {
                            samples: self.hyper.label_samples,
                            reset_buffer: false,
                        };
                    }
                    self.next = CyclePoint::Label;
                    return Action::Retrain {
                        samples: self.hyper.retrain_samples,
                        epochs: self.hyper.epochs,
                    };
                }
                CyclePoint::Label => {
                    self.next = CyclePoint::DriftCheck;
                    return Action::Label {
                        samples: self.hyper.label_samples,
                        reset_buffer: false,
                    };
                }
                CyclePoint::DriftCheck => {
                    self.next = CyclePoint::Retrain;
                    if drift_detected(ctx, self.hyper.drift_threshold) {
                        // Clear outdated samples and extend labeling so the
                        // buffer refills with the new distribution.
                        return Action::Label {
                            samples: self.hyper.drift_label_samples() - self.hyper.label_samples,
                            reset_buffer: true,
                        };
                    }
                    // No drift: fall through to the next retraining phase.
                }
            }
        }
    }

    fn state(&self) -> Value {
        self.next.to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<()> {
        self.next = CyclePoint::from_value(state).map_err(|e| bad_state(&self.name(), e))?;
        Ok(())
    }
}

// --------------------------------------------------------------------------
// DaCapo-Spatial and Ekya (fixed windows, no drift response)
// --------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum WindowStep {
    Profile,
    Label,
    Retrain,
    Idle,
}

/// The fixed-window baselines, DaCapo-Spatial and Ekya: every `window_s`
/// window first waits `profile_s` (Ekya's profiling of candidate
/// configurations, idle time from the student's point of view; none for
/// DaCapo-Spatial), then labels `N_l` samples and retrains once.
#[derive(Debug)]
struct FixedWindow {
    kind: SchedulerKind,
    hyper: Hyperparams,
    window_s: f64,
    profile_s: f64,
    state: WindowState,
}

/// [`FixedWindow`]'s decision state, which is also its snapshot form (the
/// window geometry is derived from the hyperparameters, so only the cursor
/// is state).
#[derive(Debug, Serialize, Deserialize)]
struct WindowState {
    window_index: u64,
    step: WindowStep,
}

impl FixedWindow {
    fn new(kind: SchedulerKind, hyper: &Hyperparams, window_s: f64, profile_s: f64) -> Self {
        let mut policy = Self {
            kind,
            hyper: *hyper,
            window_s,
            profile_s,
            state: WindowState { window_index: 0, step: WindowStep::Label },
        };
        policy.state.step = policy.opening_step();
        policy
    }

    /// A window opens with its profiling wait, if the policy has one.
    fn opening_step(&self) -> WindowStep {
        if self.profile_s > 0.0 {
            WindowStep::Profile
        } else {
            WindowStep::Label
        }
    }

    fn window_end(&self) -> f64 {
        window_end(self.state.window_index, self.window_s)
    }
}

/// The end of window `index` of a fixed-window policy whose windows are
/// `window_s` long. In `f64`, so that a restored `window_index` of
/// `u64::MAX` cannot overflow (below 2^53 the sum is the same exact
/// integer).
fn window_end(index: u64, window_s: f64) -> f64 {
    (index as f64 + 1.0) * window_s
}

/// The window a fixed-window policy at window `index` moves to at `now_s`:
/// the first one from `index` on whose [`window_end`] lies past `now_s` —
/// where stepping one window at a time stops, found from `now_s / window_s`
/// in a few steps however short the windows are. `u64::MAX` if even that
/// window ends by `now_s`.
fn window_holding(index: u64, window_s: f64, now_s: f64) -> u64 {
    // Rising in `i`, true below the answer and false from it on.
    let ended = |i: u64| now_s >= window_end(i, window_s);
    // An estimate within a few windows of the answer (saturating: NaN is 0),
    // then the one-window steps settle it on either side.
    let mut i = ((now_s / window_s) as u64).max(index);
    while i > index && !ended(i - 1) {
        i -= 1;
    }
    while ended(i) && i < u64::MAX {
        i += 1;
    }
    i
}

impl Scheduler for FixedWindow {
    fn name(&self) -> String {
        self.kind.to_string()
    }

    fn next_action(&mut self, ctx: &SchedulerContext) -> Action {
        // Move to the window that contains `now`.
        let index = window_holding(self.state.window_index, self.window_s, ctx.now_s);
        if index != self.state.window_index {
            self.state.window_index = index;
            self.state.step = self.opening_step();
        }
        match self.state.step {
            WindowStep::Profile => {
                self.state.step = WindowStep::Label;
                Action::Wait { seconds: self.profile_s }
            }
            WindowStep::Label => {
                self.state.step = WindowStep::Retrain;
                Action::Label { samples: self.hyper.label_samples, reset_buffer: false }
            }
            WindowStep::Retrain => {
                self.state.step = WindowStep::Idle;
                if ctx.buffer_len < self.hyper.batch_size {
                    Action::Wait { seconds: (self.window_end() - ctx.now_s).max(0.1) }
                } else {
                    Action::Retrain {
                        samples: self.hyper.retrain_samples,
                        epochs: self.hyper.epochs,
                    }
                }
            }
            WindowStep::Idle => Action::Wait { seconds: (self.window_end() - ctx.now_s).max(0.1) },
        }
    }

    fn state(&self) -> Value {
        self.state.to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<()> {
        let state = WindowState::from_value(state).map_err(|e| bad_state(&self.name(), e))?;
        if state.step == WindowStep::Profile && self.opening_step() != WindowStep::Profile {
            return Err(bad_state(&self.name(), "a policy without profiling has no Profile step"));
        }
        self.state = state;
        Ok(())
    }
}

// --------------------------------------------------------------------------
// EOMU (short monitoring windows, triggered retraining)
// --------------------------------------------------------------------------

/// EOMU-style scheduling: 10-second monitoring windows that label a small
/// batch each window and trigger retraining only when the freshly observed
/// accuracy degrades relative to the best recently seen.
///
/// Because the retraining must fit the short monitoring window, each
/// triggered retraining is a *shallow* pass (a single epoch over the drawn
/// samples) — the paper observes that EOMU's frequent retrainings "with
/// insufficient resources engender incomplete models".
#[derive(Debug)]
struct Eomu {
    hyper: Hyperparams,
    window_seconds: f64,
    trigger_margin: f64,
    state: EomuState,
}

/// [`Eomu`]'s decision state, which is also its snapshot form.
#[derive(Debug, Serialize, Deserialize)]
struct EomuState {
    best_recent_accuracy: Option<f64>,
    window_index: u64,
    labeled_this_window: bool,
    retrained_this_window: bool,
}

impl Eomu {
    fn new(hyper: &Hyperparams) -> Self {
        Self {
            hyper: *hyper,
            // The paper configures EOMU with 10-second windows.
            window_seconds: 10.0,
            trigger_margin: 0.05,
            state: EomuState {
                best_recent_accuracy: None,
                window_index: 0,
                labeled_this_window: false,
                retrained_this_window: false,
            },
        }
    }

    fn window_end(&self) -> f64 {
        window_end(self.state.window_index, self.window_seconds)
    }
}

impl Scheduler for Eomu {
    fn name(&self) -> String {
        SchedulerKind::Eomu.to_string()
    }

    fn next_action(&mut self, ctx: &SchedulerContext) -> Action {
        let index = window_holding(self.state.window_index, self.window_seconds, ctx.now_s);
        if index != self.state.window_index {
            self.state.window_index = index;
            self.state.labeled_this_window = false;
            self.state.retrained_this_window = false;
        }
        if !self.state.labeled_this_window {
            self.state.labeled_this_window = true;
            // Continuous monitoring labels a quarter of the usual quota.
            return Action::Label {
                samples: (self.hyper.label_samples / 4).max(self.hyper.batch_size),
                reset_buffer: false,
            };
        }
        if !self.state.retrained_this_window {
            self.state.retrained_this_window = true;
            let observed = ctx.last_labeling_accuracy;
            let degraded = match (observed, self.state.best_recent_accuracy) {
                (Some(now), Some(best)) => now < best - self.trigger_margin,
                (Some(_), None) => true, // no history yet: adapt eagerly
                _ => false,
            };
            if let Some(now) = observed {
                let best = self.state.best_recent_accuracy.unwrap_or(0.0);
                // Exponentially decay the best so long-gone highs do not keep
                // triggering retraining forever.
                self.state.best_recent_accuracy = Some((best * 0.95).max(now));
            }
            if degraded && ctx.buffer_len >= self.hyper.batch_size {
                // Shallow retraining that fits the short monitoring window.
                return Action::Retrain { samples: self.hyper.retrain_samples, epochs: 1 };
            }
        }
        Action::Wait { seconds: (self.window_end() - ctx.now_s).max(0.1) }
    }

    fn state(&self) -> Value {
        self.state.to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<()> {
        self.state = EomuState::from_value(state).map_err(|e| bad_state(&self.name(), e))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(now: f64, buffer: usize, acc_v: Option<f64>, acc_l: Option<f64>) -> SchedulerContext {
        SchedulerContext {
            now_s: now,
            buffer_len: buffer,
            buffer_capacity: 512,
            last_validation_accuracy: acc_v,
            last_labeling_accuracy: acc_l,
        }
    }

    #[test]
    fn kinds_display_like_the_paper() {
        assert_eq!(SchedulerKind::DaCapoSpatiotemporal.to_string(), "DaCapo-Spatiotemporal");
        assert_eq!(SchedulerKind::Eomu.to_string(), "EOMU");
        assert!(SchedulerKind::DaCapoSpatiotemporal.drift_aware());
        assert!(!SchedulerKind::DaCapoSpatial.drift_aware());
        assert!(!SchedulerKind::Ekya.drift_aware());
        assert!(!SchedulerKind::NoAdaptation.drift_aware());
    }

    #[test]
    fn no_adaptation_only_ever_waits() {
        let hyper = Hyperparams::default();
        let mut sched = SchedulerKind::NoAdaptation.create(&hyper);
        for step in 0..10 {
            let action = sched.next_action(&ctx(step as f64 * 30.0, 500, Some(0.9), Some(0.1)));
            assert!(matches!(action, Action::Wait { .. }));
        }
    }

    #[test]
    fn spatiotemporal_bootstraps_with_labeling_when_buffer_is_empty() {
        let hyper = Hyperparams::default();
        let mut sched = SchedulerKind::DaCapoSpatiotemporal.create(&hyper);
        match sched.next_action(&ctx(0.0, 0, None, None)) {
            Action::Label { samples, reset_buffer } => {
                assert_eq!(samples, hyper.label_samples);
                assert!(!reset_buffer);
            }
            other => panic!("expected bootstrap labeling, got {other:?}"),
        }
    }

    #[test]
    fn spatiotemporal_alternates_retrain_and_label() {
        let hyper = Hyperparams::default();
        let mut sched = SchedulerKind::DaCapoSpatiotemporal.create(&hyper);
        let full = ctx(10.0, 400, Some(0.8), Some(0.82));
        let first = sched.next_action(&full);
        assert!(matches!(first, Action::Retrain { samples, epochs }
            if samples == hyper.retrain_samples && epochs == hyper.epochs));
        let second = sched.next_action(&full);
        assert!(matches!(second, Action::Label { reset_buffer: false, .. }));
        // No drift: the cycle returns to retraining.
        let third = sched.next_action(&full);
        assert!(matches!(third, Action::Retrain { .. }));
    }

    #[test]
    fn spatiotemporal_resets_buffer_and_extends_labeling_on_drift() {
        let hyper = Hyperparams::default();
        let mut sched = SchedulerKind::DaCapoSpatiotemporal.create(&hyper);
        let calm = ctx(10.0, 400, Some(0.8), Some(0.82));
        let _ = sched.next_action(&calm); // retrain
        let _ = sched.next_action(&calm); // label
                                          // Fresh labels score far below validation: drift.
        let drifted = ctx(20.0, 400, Some(0.8), Some(0.4));
        match sched.next_action(&drifted) {
            Action::Label { samples, reset_buffer } => {
                assert!(reset_buffer, "drift must clear the stale buffer");
                assert_eq!(samples, hyper.drift_label_samples() - hyper.label_samples);
            }
            other => panic!("expected extended labeling on drift, got {other:?}"),
        }
        // After the drift response the cycle resumes with retraining.
        let after = ctx(30.0, 300, Some(0.8), Some(0.75));
        assert!(matches!(sched.next_action(&after), Action::Retrain { .. }));
    }

    #[test]
    fn spatial_only_never_resets_the_buffer() {
        let hyper = Hyperparams::default();
        let mut sched = SchedulerKind::DaCapoSpatial.create(&hyper);
        // Strong drift signal, plenty of data: still no reset.
        for step in 0..50 {
            let action = sched.next_action(&ctx(step as f64 * 7.0, 400, Some(0.9), Some(0.2)));
            if let Action::Label { reset_buffer, .. } = action {
                assert!(!reset_buffer);
            }
        }
    }

    /// Drives a fixed-window baseline through three windows of (profile,)
    /// label, retrain, idle, then checks that a buffer short of one
    /// mini-batch idles out the window instead. The two fixed-window
    /// baselines differ only in window length and in the profiling wait
    /// that opens each of Ekya's windows.
    fn assert_fixed_window_cycle(
        kind: SchedulerKind,
        window_s: f64,
        profile_fraction: Option<f64>,
    ) {
        let hyper = Hyperparams::default();
        let label = Action::Label { samples: hyper.label_samples, reset_buffer: false };
        let retrain = Action::Retrain { samples: hyper.retrain_samples, epochs: hyper.epochs };
        let mut sched = kind.create(&hyper);
        for window in 0..3 {
            let start = window as f64 * window_s;
            let mut expected: Vec<(f64, Action)> = Vec::new();
            if let Some(fraction) = profile_fraction {
                expected.push((start, Action::Wait { seconds: window_s * fraction }));
            }
            expected.extend([
                (start + 10.0, label),
                (start + 15.0, retrain),
                (start + 20.0, Action::Wait { seconds: window_s - 20.0 }),
                (start + 30.0, Action::Wait { seconds: window_s - 30.0 }),
            ]);
            for (now, action) in expected {
                assert_eq!(sched.next_action(&ctx(now, 400, None, None)), action, "{kind}");
            }
        }
        let mut sched = kind.create(&hyper);
        let profiles = usize::from(profile_fraction.is_some());
        for _ in 0..=profiles {
            let _ = sched.next_action(&ctx(0.0, 0, None, None));
        }
        assert_eq!(
            sched.next_action(&ctx(5.0, hyper.batch_size - 1, None, None)),
            Action::Wait { seconds: window_s - 5.0 },
            "{kind}"
        );
    }

    #[test]
    fn spatial_only_cycles_label_retrain_idle_per_window() {
        let hyper = Hyperparams::default();
        assert_fixed_window_cycle(SchedulerKind::DaCapoSpatial, hyper.window_seconds, None);
    }

    #[test]
    fn ekya_spends_time_profiling_before_retraining() {
        let hyper = Hyperparams::default();
        assert_fixed_window_cycle(SchedulerKind::Ekya, 2.0 * hyper.window_seconds, Some(0.15));
    }

    #[test]
    fn a_policy_without_profiling_refuses_a_profile_step() {
        let hyper = Hyperparams::default();
        let json = r#"{"window_index":0,"step":"Profile"}"#;
        let profile = serde_json::value_from_str(json).unwrap();
        let mut spatial = SchedulerKind::DaCapoSpatial.create(&hyper);
        let err = spatial.restore_state(&profile).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }), "{err:?}");
        assert!(err.to_string().contains("'DaCapo-Spatial'"), "{err}");
        // Ekya opens every window with one.
        let mut ekya = SchedulerKind::Ekya.create(&hyper);
        ekya.restore_state(&profile).unwrap();
        assert_eq!(serde_json::to_string(&ekya.state()).unwrap(), json);
    }

    #[test]
    fn eomu_triggers_retraining_only_on_degradation() {
        let hyper = Hyperparams::default();
        let mut sched = SchedulerKind::Eomu.create(&hyper);
        // Window 0: label, then (no history) retrain eagerly.
        assert!(matches!(sched.next_action(&ctx(0.0, 400, None, None)), Action::Label { .. }));
        assert!(matches!(
            sched.next_action(&ctx(1.0, 400, None, Some(0.8))),
            Action::Retrain { .. }
        ));
        // Window 1: accuracy holds, so after labeling it only waits.
        assert!(matches!(
            sched.next_action(&ctx(10.5, 400, Some(0.8), Some(0.8))),
            Action::Label { .. }
        ));
        assert!(matches!(
            sched.next_action(&ctx(11.0, 400, Some(0.8), Some(0.8))),
            Action::Wait { .. }
        ));
        // Window 2: accuracy collapses, retraining triggers again.
        assert!(matches!(
            sched.next_action(&ctx(20.5, 400, Some(0.8), Some(0.5))),
            Action::Label { .. }
        ));
        assert!(matches!(
            sched.next_action(&ctx(21.0, 400, Some(0.8), Some(0.5))),
            Action::Retrain { .. }
        ));
    }

    #[test]
    fn builtin_policies_are_registered_by_display_name() {
        let names = registered_names();
        for kind in SchedulerKind::BUILTINS {
            assert!(names.contains(&kind.to_string().to_lowercase()), "{kind} missing");
            let scheduler =
                SchedulerSpec::Named(kind.to_string()).create(&Hyperparams::default()).unwrap();
            assert_eq!(scheduler.name(), kind.to_string());
            // Selecting the builtin by kind and by its registry name runs
            // the same session.
            let by_kind = crate::sim::test_support::short_config(kind);
            let mut by_name = by_kind.clone();
            by_name.scheduler = kind.to_string().to_lowercase().into();
            let run = |config| crate::ClSimulator::new(config).unwrap().run().unwrap();
            assert_eq!(run(by_kind), run(by_name), "{kind}");
        }
        // Lookup is case-insensitive.
        let ekya = SchedulerSpec::Named("EKYA".into()).create(&Hyperparams::default()).unwrap();
        assert_eq!(ekya.name(), "Ekya");
        assert!(SchedulerSpec::Named("no-such-policy".into())
            .create(&Hyperparams::default())
            .is_err());
        assert!(!names.contains(&"no-such-policy".to_string()));
        assert!(names.len() >= 5);
    }

    #[test]
    fn external_factories_plug_in_through_the_registry() {
        /// A policy no builtin enum variant knows about: it only ever waits.
        struct Lazy;
        impl Scheduler for Lazy {
            fn name(&self) -> String {
                "Lazy".to_string()
            }
            fn next_action(&mut self, _ctx: &SchedulerContext) -> Action {
                Action::Wait { seconds: 60.0 }
            }
        }
        register("lazy", |_: &Hyperparams| Box::new(Lazy));
        let spec = SchedulerSpec::from("lazy");
        let mut scheduler = spec.create(&Hyperparams::default()).unwrap();
        assert_eq!(scheduler.name(), "Lazy");
        assert!(matches!(
            scheduler.next_action(&ctx(0.0, 0, None, None)),
            Action::Wait { seconds } if seconds == 60.0
        ));
    }

    #[test]
    fn named_specs_fail_cleanly_for_unknown_policies() {
        let spec = SchedulerSpec::Named("does-not-exist".to_string());
        let err = match spec.create(&Hyperparams::default()) {
            Err(err) => err,
            Ok(_) => panic!("unknown policy must not resolve"),
        };
        assert!(err.to_string().contains("does-not-exist"), "{err}");
        assert!(err.to_string().contains("registered scheduler names"), "{err}");
    }

    #[test]
    fn a_suffixed_builtin_is_an_error_naming_the_suffix() {
        let spec = SchedulerSpec::from("ekya:3");
        assert_ne!(spec, SchedulerKind::Ekya);
        let err = match spec.create(&Hyperparams::default()) {
            Err(err) => err,
            Ok(_) => panic!("a builtin takes no parameters"),
        };
        assert!(matches!(err, CoreError::InvalidConfig { .. }), "{err:?}");
        assert!(err.to_string().contains("':3'"), "{err}");
    }

    #[test]
    #[should_panic(expected = "must not contain ':'")]
    fn registering_a_scheduler_name_with_a_colon_panics() {
        register("ekya:fast", |hyper: &Hyperparams| SchedulerKind::Ekya.create(hyper));
    }

    #[test]
    fn specs_compare_against_kinds_and_display_like_them() {
        let spec = SchedulerSpec::from(SchedulerKind::Ekya);
        assert_eq!(spec, SchedulerKind::Ekya);
        assert_ne!(spec, SchedulerKind::Eomu);
        assert_eq!(spec.to_string(), "Ekya");
        let named = SchedulerSpec::from("custom-policy");
        assert_eq!(named.to_string(), "custom-policy");
        assert_ne!(named, SchedulerKind::Ekya);
    }

    #[test]
    fn spec_equality_is_semantic_across_kind_and_name_forms() {
        // Selection is semantic: a builtin named in any case builds the
        // policy its kind builds. Equality is structural: a name never
        // equals a kind, and names compare as spelled.
        let hyper = Hyperparams::default();
        for name in ["ekya", "Ekya", "DaCapo-Spatiotemporal"] {
            let policy = SchedulerSpec::from(name).create(&hyper).unwrap();
            assert_eq!(policy.name().to_lowercase(), name.to_lowercase());
        }
        assert_ne!(SchedulerSpec::from("my-policy"), SchedulerSpec::from("other-policy"));
        assert_ne!(SchedulerSpec::from("my-policy"), SchedulerSpec::Kind(SchedulerKind::Ekya));
    }

    #[test]
    fn builtin_scheduler_state_round_trips_mid_cycle() {
        // Drive each stateful builtin a few (odd) steps so its cursor sits
        // mid-cycle, capture the state, restore into a fresh instance, and
        // check both produce the same onward decision sequence.
        let hyper = Hyperparams::default();
        for kind in SchedulerKind::BUILTINS {
            let mut original = kind.create(&hyper);
            for step in 0..5 {
                let _ = original.next_action(&ctx(step as f64 * 13.0, 400, Some(0.8), Some(0.78)));
            }
            let state = original.state();
            let mut restored = kind.create(&hyper);
            restored.restore_state(&state).expect("builtin state restores");
            for step in 5..20 {
                let c = ctx(step as f64 * 13.0, 400, Some(0.8), Some(0.76));
                assert_eq!(
                    restored.next_action(&c),
                    original.next_action(&c),
                    "{kind} diverged after state restore"
                );
            }
        }
    }

    #[test]
    fn windowed_scheduler_state_json_is_pinned_mid_cycle() {
        // The exact snapshot form of each windowed policy's state after a
        // fixed run of contexts that ends mid-window: a session snapshot
        // carries these bytes, so a renamed, reordered or dropped field
        // shows here, and restoring them must give the same state back.
        let hyper = Hyperparams::default();
        let contexts = [
            ctx(0.0, 0, None, None),
            ctx(5.0, 96, None, Some(0.71)),
            ctx(30.0, 160, Some(0.8), Some(0.62)),
            ctx(31.0, 160, Some(0.8), Some(0.62)),
            ctx(61.0, 200, Some(0.8), Some(0.655)),
            ctx(125.0, 240, Some(0.8), Some(0.7)),
        ];
        let pinned = [
            (SchedulerKind::DaCapoSpatial, r#"{"window_index":2,"step":"Retrain"}"#),
            (SchedulerKind::Ekya, r#"{"window_index":1,"step":"Label"}"#),
            (
                SchedulerKind::Eomu,
                concat!(
                    r#"{"best_recent_accuracy":0.6745,"window_index":12,"#,
                    r#""labeled_this_window":true,"retrained_this_window":false}"#
                ),
            ),
        ];
        for (kind, json) in pinned {
            let mut sched = kind.create(&hyper);
            for c in &contexts {
                let _ = sched.next_action(c);
            }
            let state = sched.state();
            assert_eq!(serde_json::to_string(&state).unwrap(), json, "{kind}");
            let mut restored = kind.create(&hyper);
            restored.restore_state(&serde_json::value_from_str(json).unwrap()).unwrap();
            assert_eq!(restored.state(), state, "{kind}");
        }
    }

    #[test]
    fn a_restored_last_window_index_does_not_overflow() {
        let hyper = Hyperparams::default();
        for (kind, json) in [
            (
                SchedulerKind::DaCapoSpatial,
                r#"{"window_index":18446744073709551615,"step":"Idle"}"#,
            ),
            (SchedulerKind::Ekya, r#"{"window_index":18446744073709551615,"step":"Idle"}"#),
            (
                SchedulerKind::Eomu,
                concat!(
                    r#"{"best_recent_accuracy":null,"window_index":18446744073709551615,"#,
                    r#""labeled_this_window":true,"retrained_this_window":true}"#
                ),
            ),
        ] {
            let mut sched = kind.create(&hyper);
            sched.restore_state(&serde_json::value_from_str(json).unwrap()).unwrap();
            let action = sched.next_action(&ctx(0.0, 400, None, None));
            assert!(matches!(action, Action::Wait { seconds } if seconds > 1e20), "{kind}");
        }
    }

    #[test]
    fn the_window_holding_now_is_where_one_window_steps_stop() {
        // The loop the fixed-window policies ran, up to the last index.
        let stepped = |mut index: u64, window_s: f64, now_s: f64| {
            while now_s >= window_end(index, window_s) && index < u64::MAX {
                index += 1;
            }
            index
        };
        let starts = [0, 1, 7, 1_000, (1 << 53) - 3, 1 << 53, (1 << 60) + 5, u64::MAX - 9];
        for window_s in [10.0, 0.1, 1.0 / 3.0, 1e-5, 1e-12, 7.3e9] {
            for start in starts {
                for ahead in [0, 1, 2, 5, 100] {
                    let boundary = window_end(start.saturating_add(ahead), window_s);
                    for now_s in [boundary.next_down(), boundary, boundary.next_up()] {
                        assert_eq!(
                            window_holding(start, window_s, now_s),
                            stepped(start, window_s, now_s),
                            "window {window_s} from {start} at {now_s}"
                        );
                    }
                }
                // A clock that never reached the window, or is not a time.
                for now_s in [0.0, f64::NAN] {
                    assert_eq!(window_holding(start, window_s, now_s), start);
                }
            }
            // From the first window, far ahead: the estimate alone, where
            // the loop would take up to 1.2e14 steps.
            for now_s in [60.0, 1_200.0] {
                let index = window_holding(0, window_s, now_s);
                let before = index.checked_sub(1).map_or(0.0, |i| window_end(i, window_s));
                assert!(before <= now_s, "{window_s} at {now_s}");
                assert!(now_s < window_end(index, window_s), "{window_s} at {now_s}");
            }
        }
        assert_eq!(window_holding(3, 1e-300, 1e300), u64::MAX);
        assert_eq!(window_holding(3, 1.0, f64::INFINITY), u64::MAX);
    }

    #[test]
    fn windows_far_shorter_than_a_phase_still_run_a_session_to_its_end() {
        for kind in [SchedulerKind::DaCapoSpatial, SchedulerKind::Ekya] {
            let mut config = crate::sim::test_support::short_config(kind);
            config.hyper.window_seconds = 1e-12;
            let mut session = crate::session::Session::new(config).unwrap();
            session.run_to_end().unwrap();
            assert!(session.is_finished(), "{kind}");
        }
    }

    #[test]
    fn default_restore_state_accepts_only_null() {
        struct Stateless;
        impl Scheduler for Stateless {
            fn name(&self) -> String {
                "stateless".to_string()
            }
            fn next_action(&mut self, _ctx: &SchedulerContext) -> Action {
                Action::Wait { seconds: 1.0 }
            }
        }
        let mut sched = Stateless;
        assert_eq!(sched.state(), Value::Null);
        assert!(sched.restore_state(&Value::Null).is_ok());
        let err = sched.restore_state(&Value::Bool(true)).unwrap_err();
        assert!(err.to_string().contains("stateless"), "{err}");
    }

    #[test]
    fn eomu_labels_less_per_window_than_dacapo() {
        let hyper = Hyperparams::default();
        let mut eomu = SchedulerKind::Eomu.create(&hyper);
        let mut dacapo = SchedulerKind::DaCapoSpatiotemporal.create(&hyper);
        let c = ctx(0.0, 0, None, None);
        let eomu_samples = match eomu.next_action(&c) {
            Action::Label { samples, .. } => samples,
            other => panic!("unexpected {other:?}"),
        };
        let dacapo_samples = match dacapo.next_action(&c) {
            Action::Label { samples, .. } => samples,
            other => panic!("unexpected {other:?}"),
        };
        assert!(eomu_samples < dacapo_samples);
    }
}
