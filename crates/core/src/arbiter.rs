//! Shared-accelerator arbitration policies and their pluggable registry.
//!
//! When many camera [`Session`](crate::Session)s multiplex a pool of
//! accelerators (see [`Cluster`](crate::Cluster)), someone has to decide how
//! much of an accelerator each session's next step gets. That someone is an
//! [`Arbiter`]: before every labeling or retraining phase, the cluster
//! executor asks the accelerator's arbiter for a **capacity share** in
//! `(0, 1]`, and the step's virtual-time duration is stretched by the
//! reciprocal of that share — the same slowdown model as
//! [`Sharing::TimeShared`](crate::platform::Sharing), generalized across
//! cameras.
//!
//! # Pluggable policies
//!
//! Arbiters are built by registered functions, mirroring
//! [`crate::sched::register`] and [`crate::platform::register`]: implement
//! [`Arbiter`], [`register`] a name and a
//! `Fn(Option<&str>) -> Result<Box<dyn Arbiter>>` that builds it, and select
//! it by name via [`Cluster::arbiter`](crate::Cluster::arbiter). Names may
//! carry a `:<params>` suffix that is forwarded to the build function, so
//! one name can describe a policy family. Three builtins are pre-registered:
//!
//! * `"fair-share"` — every resident session gets `1/n` of its accelerator.
//! * `"priority:<weights>"` — comma-separated positive weights, assigned to
//!   each accelerator's residents by admission order (cycling), shares
//!   proportional to weight (`"priority:3,1"` gives an accelerator's
//!   first-admitted camera three quarters against its second). Keying on
//!   admission order rather than global camera index keeps the weights
//!   meaningful under round-robin placement, which would otherwise group
//!   same-weight cameras onto the same accelerator.
//! * `"drift-first"` / `"drift-first:<boost>"` — sessions currently
//!   recovering from a detected drift weigh `boost` (default 2) against 1
//!   for everyone else: DaCapo Section V's temporal-allocation idea lifted
//!   to fleet scope, so drift recovery finishes sooner at the price of
//!   slowing calm streams.

use crate::registry::{no_params, Registry};
use crate::{CoreError, Result};
use std::sync::{Arc, OnceLock};

/// One resident (admitted, unfinished) session on an accelerator, as an
/// arbiter sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerSession {
    /// The session's camera index within the cluster (the order cameras
    /// were added).
    pub camera_index: usize,
    /// The session's admission order on **its accelerator** (0 = first
    /// admitted there). Weight-cycling policies key on this so round-robin
    /// placement cannot collapse their weight pattern.
    pub admission_index: usize,
    /// Whether the session is currently recovering from a detected drift
    /// (from its drift response until its next retraining phase completes).
    pub recovering: bool,
}

/// Everything an [`Arbiter`] gets to decide one capacity grant.
#[derive(Debug, Clone, Copy)]
pub struct GrantRequest<'a> {
    /// Cluster virtual time of the step in seconds.
    pub now_s: f64,
    /// Index of the accelerator being arbitrated.
    pub accelerator: usize,
    /// Name of the camera requesting capacity.
    pub camera: &'a str,
    /// The requesting camera's cluster index.
    pub camera_index: usize,
    /// The requesting session's admission order on this accelerator.
    pub admission_index: usize,
    /// Whether the requesting session is recovering from a drift.
    pub recovering: bool,
    /// Every resident session on the accelerator, **including** the
    /// requester, in admission order.
    pub residents: &'a [PeerSession],
}

/// A shared-accelerator arbitration policy.
///
/// `Send` is required so per-accelerator event loops can run on
/// [`Cluster`](crate::Cluster) worker threads. Each accelerator gets its own
/// arbiter instance, so implementations may keep per-accelerator state.
pub trait Arbiter: Send {
    /// The policy's display name (used for reporting, e.g. `"fair-share"`).
    fn name(&self) -> String;

    /// Grants the requesting session a capacity share in `(0, 1]` for its
    /// next step. The executor validates the grant and errors on non-finite
    /// or out-of-range shares rather than letting them poison the clock.
    fn grant(&mut self, request: &GrantRequest<'_>) -> f64;
}

/// How a registered arbiter is built for one accelerator, from the
/// `:<params>` suffix of the selected name. It must validate the params and
/// return [`CoreError::InvalidConfig`] for malformed ones rather than
/// panicking.
type Build = dyn Fn(Option<&str>) -> Result<Box<dyn Arbiter>> + Send + Sync;

// --------------------------------------------------------------------------
// Builtin policies
// --------------------------------------------------------------------------

/// `"fair-share"`: every resident session gets an equal slice.
struct FairShare;

impl Arbiter for FairShare {
    fn name(&self) -> String {
        "fair-share".to_string()
    }

    fn grant(&mut self, request: &GrantRequest<'_>) -> f64 {
        1.0 / request.residents.len().max(1) as f64
    }
}

fn fair_share(params: Option<&str>) -> Result<Box<dyn Arbiter>> {
    no_params("arbiter", "fair-share", params)
        .map_err(|reason| CoreError::InvalidConfig { reason })?;
    Ok(Box::new(FairShare))
}

/// `"priority:<weights>"`: static weights cycling over each accelerator's
/// residents in admission order.
struct Priority {
    weights: Vec<f64>,
}

impl Priority {
    fn weight(&self, admission_index: usize) -> f64 {
        self.weights[admission_index % self.weights.len()]
    }
}

impl Arbiter for Priority {
    fn name(&self) -> String {
        let weights: Vec<String> = self.weights.iter().map(|w| format!("{w}")).collect();
        format!("priority:{}", weights.join(","))
    }

    fn grant(&mut self, request: &GrantRequest<'_>) -> f64 {
        let total: f64 = request.residents.iter().map(|r| self.weight(r.admission_index)).sum();
        if total <= 0.0 {
            return 1.0;
        }
        self.weight(request.admission_index) / total
    }
}

fn priority(params: Option<&str>) -> Result<Box<dyn Arbiter>> {
    let raw = params.ok_or_else(|| CoreError::InvalidConfig {
        reason: "arbiter 'priority' needs weights, e.g. 'priority:3,1'".into(),
    })?;
    let weights: Vec<f64> = raw
        .split(',')
        .map(|w| {
            let weight: f64 = w.trim().parse().map_err(|_| CoreError::InvalidConfig {
                reason: format!("priority weight '{w}' is not a number"),
            })?;
            if !weight.is_finite() || weight <= 0.0 {
                return Err(CoreError::InvalidConfig {
                    reason: format!("priority weights must be finite and positive, got {weight}"),
                });
            }
            Ok(weight)
        })
        .collect::<Result<_>>()?;
    if weights.is_empty() {
        return Err(CoreError::InvalidConfig {
            reason: "arbiter 'priority' needs at least one weight".into(),
        });
    }
    Ok(Box::new(Priority { weights }))
}

/// `"drift-first[:<boost>]"`: sessions recovering from a drift weigh `boost`
/// against 1 for calm sessions.
struct DriftFirst {
    boost: f64,
}

impl Arbiter for DriftFirst {
    fn name(&self) -> String {
        format!("drift-first:{}", self.boost)
    }

    fn grant(&mut self, request: &GrantRequest<'_>) -> f64 {
        let weight = |recovering: bool| if recovering { self.boost } else { 1.0 };
        let total: f64 = request.residents.iter().map(|r| weight(r.recovering)).sum();
        if total <= 0.0 {
            return 1.0;
        }
        weight(request.recovering) / total
    }
}

fn drift_first(params: Option<&str>) -> Result<Box<dyn Arbiter>> {
    let boost = match params {
        None => 2.0,
        Some(raw) => raw.trim().parse::<f64>().map_err(|_| CoreError::InvalidConfig {
            reason: format!("drift-first expects a numeric boost, got ':{raw}'"),
        })?,
    };
    if !boost.is_finite() || boost < 1.0 {
        return Err(CoreError::InvalidConfig {
            reason: format!("drift-first boost must be finite and at least 1, got {boost}"),
        });
    }
    Ok(Box::new(DriftFirst { boost }))
}

// --------------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------------

/// The global arbiter registry, seeded with the builtin policies; storage
/// and lookup rules live in [`crate::registry`].
fn registry() -> &'static Registry<Build> {
    static REGISTRY: OnceLock<Registry<Build>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let registry: Registry<Build> = Registry::new("arbiter", &[]);
        registry.register("fair-share", Arc::new(fair_share));
        registry.register("priority", Arc::new(priority));
        registry.register("drift-first", Arc::new(drift_first));
        registry
    })
}

/// Registers (or replaces) the arbiter `build` makes under the
/// case-insensitive base `name`.
///
/// # Panics
///
/// Panics if `name` contains `':'` — the colon introduces the parameter
/// suffix during lookup, so such a name could never be resolved.
pub fn register(
    name: &str,
    build: impl Fn(Option<&str>) -> Result<Box<dyn Arbiter>> + Send + Sync + 'static,
) {
    registry().register(name, Arc::new(build));
}

/// The base names of every registered arbitration policy, sorted.
#[must_use]
pub fn registered_names() -> Vec<String> {
    registry().names()
}

/// Instantiates the arbiter selected by `name` (with optional `:<params>`
/// suffix) for one accelerator.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for an unregistered name or
/// malformed parameters.
pub fn create(name: &str) -> Result<Box<dyn Arbiter>> {
    let (build, params) =
        registry().resolve(name).map_err(|reason| CoreError::InvalidConfig { reason })?;
    build(params)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peers(flags: &[bool]) -> Vec<PeerSession> {
        flags
            .iter()
            .enumerate()
            .map(|(index, &recovering)| PeerSession {
                camera_index: index,
                admission_index: index,
                recovering,
            })
            .collect()
    }

    fn request<'a>(
        admission_index: usize,
        recovering: bool,
        residents: &'a [PeerSession],
    ) -> GrantRequest<'a> {
        GrantRequest {
            now_s: 0.0,
            accelerator: 0,
            camera: "cam",
            camera_index: admission_index,
            admission_index,
            recovering,
            residents,
        }
    }

    #[test]
    fn fair_share_splits_evenly() {
        let mut arbiter = create("fair-share").unwrap();
        let residents = peers(&[false, false, false, false]);
        let share = arbiter.grant(&request(0, false, &residents));
        assert!((share - 0.25).abs() < 1e-12);
        let solo = peers(&[false]);
        assert!((arbiter.grant(&request(0, false, &solo)) - 1.0).abs() < 1e-12);
        assert!(create("fair-share:2").is_err(), "fair-share takes no parameters");
    }

    #[test]
    fn priority_weights_cycle_by_admission_order() {
        let mut arbiter = create("priority:3,1").unwrap();
        let residents = peers(&[false, false]);
        // The first-admitted resident carries weight 3, the second weight 1.
        assert!((arbiter.grant(&request(0, false, &residents)) - 0.75).abs() < 1e-12);
        assert!((arbiter.grant(&request(1, false, &residents)) - 0.25).abs() < 1e-12);
        // The third admission cycles back to weight 3.
        let three = peers(&[false, false, false]);
        let share = arbiter.grant(&request(2, false, &three));
        assert!((share - 3.0 / 7.0).abs() < 1e-12);
        assert_eq!(arbiter.name(), "priority:3,1");
        // Weights key on the accelerator-local admission order, not the
        // cluster-wide camera index, so round-robin placement (which puts
        // cameras 0 and 2 together on a 2-accelerator cluster) cannot
        // collapse a 3:1 weighting into fair-share.
        let round_robin = [
            PeerSession { camera_index: 0, admission_index: 0, recovering: false },
            PeerSession { camera_index: 2, admission_index: 1, recovering: false },
        ];
        let first = GrantRequest {
            now_s: 0.0,
            accelerator: 0,
            camera: "cam-0",
            camera_index: 0,
            admission_index: 0,
            recovering: false,
            residents: &round_robin,
        };
        assert!((arbiter.grant(&first) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn priority_rejects_malformed_weights() {
        assert!(create("priority").is_err(), "priority needs weights");
        assert!(create("priority:").is_err());
        assert!(create("priority:3,zero").is_err());
        assert!(create("priority:0").is_err());
        assert!(create("priority:-1,2").is_err());
        assert!(create("priority:NaN").is_err());
        assert!(create("priority: 2 , 1 ").is_ok(), "whitespace around weights is fine");
    }

    #[test]
    fn drift_first_boosts_recovering_sessions() {
        let mut arbiter = create("drift-first").unwrap();
        let residents = peers(&[true, false]);
        // Recovering session weighs 2 against 1: 2/3 vs 1/3.
        assert!((arbiter.grant(&request(0, true, &residents)) - 2.0 / 3.0).abs() < 1e-12);
        assert!((arbiter.grant(&request(1, false, &residents)) - 1.0 / 3.0).abs() < 1e-12);
        // With nobody recovering it degenerates to fair-share.
        let calm = peers(&[false, false]);
        assert!((arbiter.grant(&request(0, false, &calm)) - 0.5).abs() < 1e-12);
        // The boost is tunable.
        let mut strong = create("drift-first:4").unwrap();
        assert!((strong.grant(&request(0, true, &residents)) - 0.8).abs() < 1e-12);
        assert!(create("drift-first:0.5").is_err(), "boosts below 1 would invert the policy");
        assert!(create("drift-first:inf").is_err());
        assert!(create("drift-first:fast").is_err());
    }

    #[test]
    fn registry_resolves_case_insensitively_and_lists_builtins() {
        assert_eq!(create("FAIR-SHARE").unwrap().name(), "fair-share");
        assert_eq!(create("Priority:9").unwrap().name(), "priority:9");
        let names = registered_names();
        assert!(!names.contains(&"no-such-arbiter".to_string()));
        for builtin in ["fair-share", "priority", "drift-first"] {
            assert!(names.contains(&builtin.to_string()), "{builtin} missing from {names:?}");
        }
        let err = match create("no-such-arbiter") {
            Err(err) => err,
            Ok(_) => panic!("unknown arbiter must not resolve"),
        };
        assert!(err.to_string().contains("no-such-arbiter"), "{err}");
        assert!(err.to_string().contains("registered arbiter names"), "{err}");
    }

    #[test]
    fn external_factories_plug_in_through_the_registry() {
        /// A policy no builtin knows about: everyone always gets 100%.
        struct Oversubscribe;
        impl Arbiter for Oversubscribe {
            fn name(&self) -> String {
                "oversubscribe".to_string()
            }
            fn grant(&mut self, _request: &GrantRequest<'_>) -> f64 {
                1.0
            }
        }
        register("oversubscribe", |_| Ok(Box::new(Oversubscribe)));
        let mut arbiter = create("oversubscribe").unwrap();
        let residents = peers(&[false, false, false]);
        assert!((arbiter.grant(&request(1, false, &residents)) - 1.0).abs() < 1e-12);
    }
}
