//! Cross-camera label-sharing policies and their pluggable registry.
//!
//! Fleets of co-located cameras see **correlated** drift, so teacher labels
//! produced for one camera are often useful to its peers — reusing them cuts
//! the fleet's aggregate labeling cost while per-camera accuracy holds. When
//! a [`Cluster`](crate::Cluster) runs with sharing enabled
//! ([`Cluster::share`](crate::Cluster::share)), the executor divides cluster
//! virtual time into fixed windows
//! ([`Cluster::share_window_s`](crate::Cluster::share_window_s)); at every
//! window boundary each camera *exports* the samples its teacher freshly
//! labeled during the window, and every live peer asks the cluster's
//! [`SharePolicy`] which fraction of each export batch to *admit* into its
//! own [`SampleBuffer`](crate::SampleBuffer). Admitted imports cost the
//! importer nothing — the labeling work already happened on the exporter —
//! and the savings are reported as
//! [`ShareMetrics::labeling_seconds_saved`].
//!
//! Exchanges are deterministic: importers and exporters are walked in
//! camera admission-index order at each boundary, so cluster runs stay
//! bit-identical across worker-thread counts.
//!
//! # What an exchange costs
//!
//! With `N` live cameras, export batches of `B` samples and buffers of
//! capacity `C_b`, one boundary costs:
//!
//! | part | cost |
//! |---|---|
//! | collecting exports | one block move per exporter; a row copy only for a camera's second batch in the window |
//! | policy pass | `N²` [`SharePolicy::admit_fraction`] calls, each correlation from a flat triangular memo |
//! | an importer granted fewer than `C_b` rows | one row copy per granted row |
//! | an importer granted `C_b` rows or more | one `Arc` clone; `C_b` row copies once per distinct set of surviving rows |
//!
//! — not `N² · B` sample clones. Each importer is served in two passes.
//! Pass one consults the policy for every exporter, in order, and accounts
//! every granted sample ([`ShareMetrics::labels_reused`],
//! `labeling_seconds_saved`,
//! [`SimObserver::on_share`](crate::SimObserver::on_share)); pass two
//! admits only the granted rows that survive the importer's own eviction.
//! A FIFO of capacity `C` fed a sequence `S` ends as the last `C` elements
//! of `old ++ S`, so skipping the first `|S| − C` granted samples leaves
//! the buffer bit-identical to admitting them one by one (property-tested
//! against the per-sample loop). When `|S| ≥ C` nothing old survives, and
//! importers granted the same last `C` rows view one shared block of them
//! (see [`SampleBuffer`](crate::SampleBuffer)): on the frozen benchmark's
//! broadcast fleet that is about four blocks per barrier for 192 importers.
//! The pair correlation in [`ShareContext`] never changes during a run.
//!
//! # Pluggable policies
//!
//! Policies are built by registered functions, mirroring
//! [`crate::sched::register`], [`crate::platform::register`], and
//! [`crate::arbiter::register`]: implement [`SharePolicy`], [`register`] a
//! name and a `Fn(Option<&str>) -> Result<Box<dyn SharePolicy>>` that
//! builds it, and select it by name via
//! [`Cluster::share`](crate::Cluster::share). Names may carry a
//! `:<params>` suffix forwarded to the build function.
//!
//! `"none"` (the default) is not a policy: it is the family's **reserved**
//! name, meaning the exchange stage is absent — the cluster runs without
//! one, bit-identical to a cluster built before the share subsystem
//! existed. Nothing is registered under it, [`register`] rejects plugins
//! trying to claim it, and [`create`] refuses it (with or without a
//! suffix). Two builtins are pre-registered:
//!
//! * `"broadcast"` — every camera admits every peer's full export batch.
//! * `"correlated[:<threshold>]"` — a camera admits a peer's exports only
//!   when the two cameras' scenarios overlap in attributes
//!   ([`Scenario::attribute_overlap`](dacapo_datagen::Scenario::attribute_overlap))
//!   at least `threshold` (default `0.5`), the ECCO-style exploitation of
//!   cross-camera correlation.

use crate::registry::{no_params, Registry};
use crate::{CoreError, Result};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Everything a [`SharePolicy`] gets to decide one import admission: one
/// (importer, exporter) pair at one window boundary.
#[derive(Debug, Clone, Copy)]
pub struct ShareContext<'a> {
    /// Index of the exchange window that just ended (0-based).
    pub window_index: usize,
    /// Cluster virtual time of the window boundary, in seconds.
    pub boundary_s: f64,
    /// Name of the camera offering its freshly labeled samples.
    pub exporter: &'a str,
    /// The exporter's cluster camera index (admission order).
    pub exporter_index: usize,
    /// Name of the camera deciding whether to admit the batch.
    pub importer: &'a str,
    /// The importer's cluster camera index (admission order).
    pub importer_index: usize,
    /// Attribute overlap between the two cameras' scenarios in `[0, 1]`
    /// (see [`Scenario::attribute_overlap`](dacapo_datagen::Scenario::attribute_overlap)).
    pub correlation: f64,
    /// Number of samples in the exporter's batch this window.
    pub fresh_labels: usize,
}

/// A cross-camera label-sharing policy.
///
/// `Send` is required so the policy can live inside a cluster run that
/// spreads accelerator loops across worker threads; the policy itself is
/// only ever invoked at single-threaded window barriers, in deterministic
/// (importer, exporter) admission order, so implementations may keep state.
pub trait SharePolicy: Send {
    /// The policy's display name (used for reporting, e.g. `"broadcast"`).
    fn name(&self) -> String;

    /// Returns the fraction of the exporter's batch the importer admits,
    /// in `[0, 1]` (`0` = admit nothing, `1` = admit everything; the
    /// admitted count is the fraction of the batch size, rounded to the
    /// nearest sample). The executor validates the fraction and errors on
    /// non-finite or out-of-range values.
    fn admit_fraction(&mut self, ctx: &ShareContext<'_>) -> f64;
}

/// How a registered sharing policy is built for one cluster run, from the
/// `:<params>` suffix of the selected name. It must validate the params and
/// return [`CoreError::InvalidConfig`] for malformed ones rather than
/// panicking.
type Build = dyn Fn(Option<&str>) -> Result<Box<dyn SharePolicy>> + Send + Sync;

/// Telemetry of one cluster run's cross-camera sharing: how much teacher
/// labeling work the fleet avoided by reusing peers' labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShareMetrics {
    /// The sharing policy name the cluster ran under (`"none"` when
    /// sharing was disabled).
    pub policy: String,
    /// Exchange window length in cluster virtual seconds.
    pub window_s: f64,
    /// Number of calendar exchange windows spanning the run — the index of
    /// the last window boundary, counting from 1, so
    /// `windows * window_s >= makespan` (`0` when sharing was disabled).
    /// Event-free windows are skipped without a barrier but still counted;
    /// they exchange nothing either way.
    pub windows: usize,
    /// Freshly teacher-labeled samples offered for export across the run.
    pub labels_exported: usize,
    /// Imported samples admitted into peers' buffers — each one a teacher
    /// labeling invocation some camera did *not* have to pay for itself.
    pub labels_reused: usize,
    /// Teacher labeling time the importers saved, summed over admissions at
    /// each importer's own effective labeling rate, in seconds.
    pub labeling_seconds_saved: f64,
    /// (importer, exporter, window) offers the policy declined outright
    /// (granted an admit fraction of exactly `0`). A positive fraction too
    /// small to round to one sample is not counted as a reject.
    pub import_rejects: usize,
}

impl ShareMetrics {
    /// Metrics of a run that never exchanged anything (policy `name`,
    /// usually `"none"`).
    #[must_use]
    pub(crate) fn disabled(window_s: f64) -> Self {
        Self::fresh("none".to_string(), window_s)
    }

    /// Zeroed metrics for a run about to start under `policy`.
    #[must_use]
    pub(crate) fn fresh(policy: String, window_s: f64) -> Self {
        Self {
            policy,
            window_s,
            windows: 0,
            labels_exported: 0,
            labels_reused: 0,
            labeling_seconds_saved: 0.0,
            import_rejects: 0,
        }
    }
}

// --------------------------------------------------------------------------
// Builtin policies
// --------------------------------------------------------------------------

/// `"broadcast"`: every camera admits every peer's full batch.
struct Broadcast;

impl SharePolicy for Broadcast {
    fn name(&self) -> String {
        "broadcast".to_string()
    }

    fn admit_fraction(&mut self, _ctx: &ShareContext<'_>) -> f64 {
        1.0
    }
}

fn broadcast(params: Option<&str>) -> Result<Box<dyn SharePolicy>> {
    no_params("share policy", "broadcast", params)
        .map_err(|reason| CoreError::InvalidConfig { reason })?;
    Ok(Box::new(Broadcast))
}

/// `"correlated[:<threshold>]"`: admit everything from peers whose scenario
/// attribute overlap reaches the threshold, nothing from the rest.
struct Correlated {
    threshold: f64,
}

impl SharePolicy for Correlated {
    fn name(&self) -> String {
        format!("correlated:{}", self.threshold)
    }

    fn admit_fraction(&mut self, ctx: &ShareContext<'_>) -> f64 {
        if ctx.correlation >= self.threshold {
            1.0
        } else {
            0.0
        }
    }
}

fn correlated(params: Option<&str>) -> Result<Box<dyn SharePolicy>> {
    let threshold = match params {
        None => 0.5,
        Some(raw) => raw.trim().parse::<f64>().map_err(|_| CoreError::InvalidConfig {
            reason: format!("correlated expects a numeric threshold, got ':{raw}'"),
        })?,
    };
    if !(threshold.is_finite() && (0.0..=1.0).contains(&threshold)) {
        return Err(CoreError::InvalidConfig {
            reason: format!(
                "correlated threshold must lie in [0, 1], got {threshold} (overlaps are \
                     fractions of the common timeline)"
            ),
        });
    }
    Ok(Box::new(Correlated { threshold }))
}

// --------------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------------

/// The global share registry, seeded with the builtin policies; storage and
/// lookup rules live in [`crate::registry`].
fn registry() -> &'static Registry<Build> {
    static REGISTRY: OnceLock<Registry<Build>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        // Under `"none"` the cluster executor has no exchange stage at all,
        // so a policy registered there would never be consulted.
        let registry: Registry<Build> = Registry::new("share policy", &["none"]);
        registry.register("broadcast", Arc::new(broadcast));
        registry.register("correlated", Arc::new(correlated));
        registry
    })
}

/// Registers (or replaces) the sharing policy `build` makes under the
/// case-insensitive base `name`.
///
/// # Panics
///
/// Panics if `name` contains `':'` (reserved for parameter suffixes during
/// lookup) or is `"none"` — the reserved name of the absent exchange stage.
pub fn register(
    name: &str,
    build: impl Fn(Option<&str>) -> Result<Box<dyn SharePolicy>> + Send + Sync + 'static,
) {
    registry().register(name, Arc::new(build));
}

/// The base names of every registered sharing policy, sorted.
#[must_use]
pub fn registered_names() -> Vec<String> {
    registry().names()
}

/// Whether `name` is the reserved `"none"` (in any case, without a
/// suffix) — the cluster executor then runs without an exchange stage.
#[must_use]
pub fn is_disabled(name: &str) -> bool {
    registry().is_reserved(name)
}

/// Instantiates the sharing policy selected by `name` (with optional
/// `:<params>` suffix) for one cluster run.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for an unregistered name, the
/// reserved `"none"` (it selects no policy), or malformed parameters.
pub fn create(name: &str) -> Result<Box<dyn SharePolicy>> {
    let (build, params) =
        registry().resolve(name).map_err(|reason| CoreError::InvalidConfig { reason })?;
    build(params)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn context(correlation: f64) -> ShareContext<'static> {
        ShareContext {
            window_index: 0,
            boundary_s: 60.0,
            exporter: "cam-0",
            exporter_index: 0,
            importer: "cam-1",
            importer_index: 1,
            correlation,
            fresh_labels: 32,
        }
    }

    #[test]
    fn none_admits_nothing_and_broadcast_everything() {
        // `none` admits nothing because nothing is built: the stage is absent.
        for name in ["none", "NONE", "none:1", "none:x"] {
            let err = match create(name) {
                Err(err) => err,
                Ok(_) => panic!("'{name}' must select no policy"),
            };
            assert!(matches!(err, CoreError::InvalidConfig { .. }), "{err:?}");
            assert!(err.to_string().contains("stage is absent"), "{err}");
        }
        let mut broadcast = create("broadcast").unwrap();
        for correlation in [0.0, 0.5, 1.0] {
            assert_eq!(broadcast.admit_fraction(&context(correlation)), 1.0);
        }
        assert_eq!(broadcast.name(), "broadcast");
        assert!(create("broadcast:0.5").is_err(), "broadcast takes no parameters");
    }

    #[test]
    fn correlated_thresholds_gate_on_overlap() {
        let mut policy = create("correlated:0.7").unwrap();
        assert_eq!(policy.admit_fraction(&context(0.8)), 1.0);
        assert_eq!(policy.admit_fraction(&context(0.7)), 1.0, "threshold is inclusive");
        assert_eq!(policy.admit_fraction(&context(0.69)), 0.0);
        assert_eq!(policy.name(), "correlated:0.7");
        // The default threshold is 0.5.
        let mut default = create("correlated").unwrap();
        assert_eq!(default.admit_fraction(&context(0.5)), 1.0);
        assert_eq!(default.admit_fraction(&context(0.4)), 0.0);
    }

    #[test]
    fn correlated_rejects_malformed_thresholds() {
        assert!(create("correlated:fast").is_err());
        assert!(create("correlated:-0.1").is_err());
        assert!(create("correlated:1.5").is_err());
        assert!(create("correlated:NaN").is_err());
        assert!(create("correlated: 0.25 ").is_ok(), "whitespace around the threshold is fine");
    }

    #[test]
    fn registry_resolves_case_insensitively_and_lists_builtins() {
        assert_eq!(create("BROADCAST").unwrap().name(), "broadcast");
        assert_eq!(create("Correlated:0.9").unwrap().name(), "correlated:0.9");
        let names = registered_names();
        assert!(!names.contains(&"no-such-policy".to_string()));
        for builtin in ["broadcast", "correlated"] {
            assert!(names.contains(&builtin.to_string()), "{builtin} missing from {names:?}");
        }
        assert!(!names.contains(&"none".to_string()), "the reserved name is not a policy");
        let err = match create("no-such-policy") {
            Err(err) => err,
            Ok(_) => panic!("unknown policy must not resolve"),
        };
        assert!(err.to_string().contains("no-such-policy"), "{err}");
        assert!(err.to_string().contains("registered share policy names"), "{err}");
    }

    #[test]
    fn disabled_detection_ignores_case_but_not_other_names() {
        assert!(is_disabled("none"));
        assert!(is_disabled("NONE"));
        assert!(!is_disabled("broadcast"));
        assert!(!is_disabled("nonesuch"));
        assert!(!is_disabled("none:1"), "a suffixed sentinel is an error, not the sentinel");
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn registering_over_the_reserved_none_policy_panics() {
        register("none", broadcast);
    }

    #[test]
    fn external_factories_plug_in_through_the_registry() {
        /// A policy no builtin knows about: admit half of every batch.
        struct HalfShare;
        impl SharePolicy for HalfShare {
            fn name(&self) -> String {
                "half-share".to_string()
            }
            fn admit_fraction(&mut self, _ctx: &ShareContext<'_>) -> f64 {
                0.5
            }
        }
        register("half-share", |_| Ok(Box::new(HalfShare)));
        let mut policy = create("half-share").unwrap();
        assert_eq!(policy.admit_fraction(&context(0.0)), 0.5);
        assert!(registered_names().contains(&"half-share".to_string()));
    }

    #[test]
    fn fresh_metrics_start_zeroed() {
        let metrics = ShareMetrics::fresh("broadcast".into(), 60.0);
        assert_eq!(metrics.labels_exported, 0);
        assert_eq!(metrics.labels_reused, 0);
        assert_eq!(metrics.labeling_seconds_saved, 0.0);
        assert_eq!(metrics.import_rejects, 0);
        assert_eq!(metrics.windows, 0);
        let disabled = ShareMetrics::disabled(30.0);
        assert_eq!(disabled.policy, "none");
        assert_eq!(disabled.window_s, 30.0);
    }
}
