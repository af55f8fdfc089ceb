//! The edge–cloud tier: modeled uplinks, near-duplicate frame filtering,
//! and pluggable offload policies.
//!
//! Every camera in the base system owns a *local* teacher; the premise of an
//! autonomous deployment is that it usually cannot. This module adds the
//! missing tier: a camera may ship sampled frames over a deterministic,
//! bandwidth/latency-modeled **uplink** ([`UplinkSpec`]) to a
//! [`CloudTeacher`] — higher labeling accuracy and
//! zero local compute, paid for in uplink bytes and a round-trip latency
//! that delays label arrival into the
//! [`SampleBuffer`](crate::SampleBuffer). An EdgeCam-style **filter stage**
//! drops near-duplicate frames before they reach the uplink, and a
//! pluggable [`OffloadPolicy`] decides *per exchange window* (the same
//! deterministic barriers label sharing and churn use) whether each camera
//! labels locally or in the cloud.
//!
//! # Uplink profiles and the offload registry
//!
//! * **Uplink profiles** are a fixed table, [`UPLINK_PROFILES`]:
//!   [`create_uplink`] resolves a name like `"lte"` or `"wifi:100,15"` into
//!   an [`UplinkSpec`]. The profiles: `"broadband"` (100 Mbit/s, 10 ms),
//!   `"wifi"` (54 Mbit/s, 20 ms), `"lte"` (12 Mbit/s, 60 ms), and
//!   `"degraded"` (0.25 Mbit/s, 200 ms); each accepts an optional
//!   `:<mbps>[,<latency_ms>]` parameter suffix describing a whole family of
//!   links through one name, so any link is one name away without a plugin.
//! * **Offload policies** ([`register_offload`] / [`create_offload`])
//!   choose a [`LabelRoute`] per camera per window, a
//!   registry family mirroring [`crate::sched`], [`crate::platform`],
//!   [`crate::arbiter`], and [`crate::share`]. `"local-only"` (the default)
//!   is not a policy: it is the family's **reserved** name, meaning the
//!   routing stage is absent, as the share registry's `"none"` does.
//!   Builtins: `"cloud-only"`, `"threshold:<queue-depth>"` (offload when
//!   more than `queue-depth` cameras share the accelerator), and
//!   `"budget:<bytes-per-window>"` (cloud labeling under a per-window uplink
//!   byte budget, falling back to the local teacher once it is spent).
//!
//! Offload decisions ride the cluster's single-threaded window barriers in
//! camera admission-index order, so edge-tier runs stay bit-identical
//! across worker-thread counts.

use crate::buffer::LabeledSample;
use crate::registry::{no_params, split_params, Registry};
use crate::{CoreError, Result};
use dacapo_datagen::SegmentAttributes;
use dacapo_dnn::CloudTeacher;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Default per-frame payload overhead in bytes: the encoded frame crop plus
/// protocol headers that ride the uplink on top of the raw feature tensor.
/// All builtin uplink profiles use it.
pub const DEFAULT_FRAME_OVERHEAD_BYTES: u64 = 60_000;

/// How long a shipped frame keeps suppressing near-duplicates, in stream
/// seconds: the filter similarity decays linearly to zero over this horizon,
/// so even a static scene ships a refresher frame at least this often.
pub const FILTER_HORIZON_S: f64 = 2.0;

// --------------------------------------------------------------------------
// Uplink model
// --------------------------------------------------------------------------

/// A deterministic model of one camera's uplink to the cloud tier.
///
/// Shipping a frame charges `frame_overhead_bytes` plus the raw feature
/// bytes, transfers at `bandwidth_bps` (the uplink is serial: a frame waits
/// for the previous transfer to finish), and its label arrives back
/// `latency_s` after the transfer completes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UplinkSpec {
    bandwidth_bps: f64,
    latency_s: f64,
    frame_overhead_bytes: u64,
}

impl UplinkSpec {
    /// Creates an uplink model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless `bandwidth_bps` is finite
    /// and positive and `latency_s` is finite and non-negative.
    pub fn new(bandwidth_bps: f64, latency_s: f64, frame_overhead_bytes: u64) -> Result<Self> {
        if !(bandwidth_bps.is_finite() && bandwidth_bps > 0.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "uplink bandwidth must be finite and positive, got {bandwidth_bps} bit/s"
                ),
            });
        }
        if !(latency_s.is_finite() && latency_s >= 0.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "uplink latency must be finite and non-negative, got {latency_s} s"
                ),
            });
        }
        Ok(Self { bandwidth_bps, latency_s, frame_overhead_bytes })
    }

    /// Uplink bandwidth in bits per second.
    #[must_use]
    pub fn bandwidth_bps(&self) -> f64 {
        self.bandwidth_bps
    }

    /// One-way label round-trip latency in seconds, added after a frame's
    /// transfer completes.
    #[must_use]
    pub fn latency_s(&self) -> f64 {
        self.latency_s
    }

    /// Per-frame payload overhead in bytes (encoded frame + headers).
    #[must_use]
    pub fn frame_overhead_bytes(&self) -> u64 {
        self.frame_overhead_bytes
    }

    /// Total bytes one shipped frame costs for a `feature_dim`-float sample.
    #[must_use]
    pub fn frame_bytes(&self, feature_dim: usize) -> u64 {
        self.frame_overhead_bytes + (feature_dim as u64) * 4
    }

    /// Seconds one frame of `frame_bytes` occupies the uplink.
    #[must_use]
    pub fn transfer_s(&self, frame_bytes: u64) -> f64 {
        (frame_bytes as f64) * 8.0 / self.bandwidth_bps
    }
}

/// The builtin uplink profiles: name, bandwidth in Mbit/s, latency in ms.
/// [`create_uplink`] looks a name up here, case-insensitively.
pub const UPLINK_PROFILES: [(&str, f64, f64); 4] = [
    ("broadband", 100.0, 10.0),
    ("wifi", 54.0, 20.0),
    ("lte", 12.0, 60.0),
    ("degraded", 0.25, 200.0),
];

// --------------------------------------------------------------------------
// Offload policies
// --------------------------------------------------------------------------

/// Where one camera's next labeling window runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LabelRoute {
    /// Label on the local teacher (the pre-cloud behavior).
    Local,
    /// Ship filtered frames to the cloud teacher over the uplink.
    Cloud {
        /// Optional per-window uplink byte budget: once the camera has
        /// shipped this many bytes inside the current window, further
        /// labeling phases fall back to the local teacher until the next
        /// window boundary resets the meter.
        byte_budget: Option<u64>,
    },
}

/// Everything an [`OffloadPolicy`] gets to route one camera's next window.
#[derive(Debug, Clone, Copy)]
pub struct OffloadContext<'a> {
    /// Index of the exchange window about to start (0-based; decisions are
    /// taken at the barrier *opening* the window).
    pub window_index: usize,
    /// Cluster virtual time of the window boundary, in seconds.
    pub boundary_s: f64,
    /// Name of the camera being routed.
    pub camera: &'a str,
    /// The camera's cluster camera index (admission order).
    pub camera_index: usize,
    /// Index of the accelerator the camera resides on.
    pub accelerator: usize,
    /// Number of live sessions currently sharing that accelerator,
    /// including this camera — the local labeling queue depth.
    pub resident_cameras: usize,
    /// Number of samples currently in the camera's buffer.
    pub buffer_len: usize,
    /// Uplink bytes the camera has shipped across the whole run so far.
    pub bytes_shipped: u64,
    /// Uplink bytes the camera shipped during the window that just ended.
    pub window_bytes: u64,
}

/// A per-window local-vs-cloud labeling routing policy.
///
/// `Send` is required so the policy can live inside a cluster run that
/// spreads accelerator loops across worker threads; it is only ever invoked
/// at single-threaded window barriers, in deterministic camera
/// admission-index order, so implementations may keep state.
pub trait OffloadPolicy: Send {
    /// Routes one camera's next labeling window.
    fn route(&mut self, ctx: &OffloadContext<'_>) -> LabelRoute;
}

/// How a registered offload policy is built for one cluster run, from the
/// `:<params>` suffix of the selected name. It must validate the params and
/// return [`CoreError::InvalidConfig`] for malformed ones rather than
/// panicking.
type Build = dyn Fn(Option<&str>) -> Result<Box<dyn OffloadPolicy>> + Send + Sync;

/// `"cloud-only"`: every window ships to the cloud teacher.
struct CloudOnly;

impl OffloadPolicy for CloudOnly {
    fn route(&mut self, _ctx: &OffloadContext<'_>) -> LabelRoute {
        LabelRoute::Cloud { byte_budget: None }
    }
}

fn cloud_only(params: Option<&str>) -> Result<Box<dyn OffloadPolicy>> {
    no_params("offload policy", "cloud-only", params)
        .map_err(|reason| CoreError::InvalidConfig { reason })?;
    Ok(Box::new(CloudOnly))
}

/// `"threshold:<queue-depth>"`: offload a camera exactly when its local
/// accelerator is crowded — more than `queue-depth` live sessions sharing
/// it — so the cloud absorbs labeling load the contended accelerator would
/// otherwise serialise.
struct Threshold {
    depth: usize,
}

impl OffloadPolicy for Threshold {
    fn route(&mut self, ctx: &OffloadContext<'_>) -> LabelRoute {
        if ctx.resident_cameras > self.depth {
            LabelRoute::Cloud { byte_budget: None }
        } else {
            LabelRoute::Local
        }
    }
}

fn threshold(params: Option<&str>) -> Result<Box<dyn OffloadPolicy>> {
    let raw = params.ok_or_else(|| CoreError::InvalidConfig {
        reason: "offload policy 'threshold' requires a queue depth, e.g. 'threshold:2'".to_string(),
    })?;
    let depth = raw.trim().parse::<usize>().map_err(|_| CoreError::InvalidConfig {
        reason: format!("threshold expects an integer queue depth, got ':{raw}'"),
    })?;
    Ok(Box::new(Threshold { depth }))
}

/// `"budget:<bytes-per-window>"`: always prefer the cloud teacher, but cap
/// each window's uplink spend — once the budget is shipped, the camera's
/// remaining labeling phases that window fall back to the local teacher.
struct Budget {
    bytes_per_window: u64,
}

impl OffloadPolicy for Budget {
    fn route(&mut self, _ctx: &OffloadContext<'_>) -> LabelRoute {
        LabelRoute::Cloud { byte_budget: Some(self.bytes_per_window) }
    }
}

fn budget(params: Option<&str>) -> Result<Box<dyn OffloadPolicy>> {
    let raw = params.ok_or_else(|| CoreError::InvalidConfig {
        reason: "offload policy 'budget' requires a per-window byte budget, e.g. \
                     'budget:5000000'"
            .to_string(),
    })?;
    let bytes_per_window = raw.trim().parse::<u64>().map_err(|_| CoreError::InvalidConfig {
        reason: format!("budget expects an integer byte count per window, got ':{raw}'"),
    })?;
    if bytes_per_window == 0 {
        return Err(CoreError::InvalidConfig {
            reason: "budget of 0 bytes per window never ships anything; use 'local-only'"
                .to_string(),
        });
    }
    Ok(Box::new(Budget { bytes_per_window }))
}

// --------------------------------------------------------------------------
// Registries
// --------------------------------------------------------------------------

/// The global offload-policy registry, seeded with the builtin policies.
fn offload_registry() -> &'static Registry<Build> {
    static REGISTRY: OnceLock<Registry<Build>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        // Under `"local-only"` the cluster executor has no routing stage at
        // all, so a policy registered there would never be consulted.
        let registry: Registry<Build> = Registry::new("offload policy", &["local-only"]);
        registry.register("cloud-only", Arc::new(cloud_only));
        registry.register("threshold", Arc::new(threshold));
        registry.register("budget", Arc::new(budget));
        registry
    })
}

/// Registers (or replaces) the offload policy `build` makes under the
/// case-insensitive base `name`.
///
/// # Panics
///
/// Panics if `name` contains `':'` (reserved for parameter suffixes during
/// lookup) or is `"local-only"` — the reserved name of the absent routing
/// stage.
pub fn register_offload(
    name: &str,
    build: impl Fn(Option<&str>) -> Result<Box<dyn OffloadPolicy>> + Send + Sync + 'static,
) {
    offload_registry().register(name, Arc::new(build));
}

/// The base names of every registered offload policy, sorted.
#[must_use]
pub fn registered_offload_policies() -> Vec<String> {
    offload_registry().names()
}

/// Whether `name` is the reserved `"local-only"` (in any case, without a
/// suffix) — the cluster executor then runs without a routing stage.
#[must_use]
pub fn is_local_only(name: &str) -> bool {
    offload_registry().is_reserved(name)
}

/// Instantiates the offload policy selected by `name` (with optional
/// `:<params>` suffix) for one cluster run.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for an unregistered name, the
/// reserved `"local-only"` (it selects no policy), or malformed parameters.
pub fn create_offload(name: &str) -> Result<Box<dyn OffloadPolicy>> {
    let (build, params) =
        offload_registry().resolve(name).map_err(|reason| CoreError::InvalidConfig { reason })?;
    build(params)
}

/// Resolves the uplink profile selected by `name` (one of
/// [`UPLINK_PROFILES`], in any case, with an optional
/// `:<mbps>[,<latency_ms>]` override) into a concrete [`UplinkSpec`].
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for an unknown profile or malformed
/// parameters.
pub fn create_uplink(name: &str) -> Result<UplinkSpec> {
    let (base, params) = split_params(name);
    let Some(&(profile, mut mbps, mut latency_ms)) =
        UPLINK_PROFILES.iter().find(|(profile, ..)| profile.eq_ignore_ascii_case(base))
    else {
        let names = UPLINK_PROFILES.map(|(profile, ..)| profile).join(", ");
        return Err(CoreError::InvalidConfig {
            reason: format!("unknown uplink profile '{base}'; known profiles: {names}"),
        });
    };
    if let Some(raw) = params {
        let mut parts = raw.splitn(2, ',');
        let mbps_raw = parts.next().unwrap_or("").trim();
        mbps = mbps_raw.parse::<f64>().map_err(|_| CoreError::InvalidConfig {
            reason: format!(
                "uplink profile '{profile}' expects ':<mbps>[,<latency_ms>]', got ':{raw}'"
            ),
        })?;
        if let Some(latency_raw) = parts.next() {
            latency_ms = latency_raw.trim().parse::<f64>().map_err(|_| CoreError::InvalidConfig {
                reason: format!(
                    "uplink profile '{profile}' expects a numeric latency in ms, got '{latency_raw}'"
                ),
            })?;
        }
    }
    UplinkSpec::new(mbps * 1e6, latency_ms / 1e3, DEFAULT_FRAME_OVERHEAD_BYTES)
}

// --------------------------------------------------------------------------
// Per-camera edge configuration
// --------------------------------------------------------------------------

/// One camera's edge-tier configuration, stored in
/// [`SimConfig`](crate::SimConfig) (see
/// [`SimConfigBuilder::edge`](crate::SimConfigBuilder::edge)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeConfig {
    /// Uplink profile name, one of [`UPLINK_PROFILES`], with optional
    /// `:<mbps>[,<latency_ms>]` parameters (e.g. `"lte"`, `"wifi:100,15"`).
    pub uplink: String,
    /// Near-duplicate filter threshold in `[0, 1]`: a sampled frame is
    /// dropped before the uplink when its similarity to the last shipped
    /// frame — attribute agreement decayed linearly over
    /// [`FILTER_HORIZON_S`] — reaches the threshold. `1.0` ships every
    /// frame; lower values filter more aggressively; `0.0` ships only one
    /// frame per horizon.
    pub filter_threshold: f64,
    /// Base accuracy of the cloud labeling tier in `[0, 1]` (see
    /// [`CloudTeacher`]; difficult frames cost it
    /// only a quarter of the local teacher's penalty).
    pub cloud_accuracy: f64,
}

impl EdgeConfig {
    /// An edge tier over the named uplink profile with the default filter
    /// threshold (`0.9`) and cloud accuracy (`0.99`).
    #[must_use]
    pub fn new(uplink: impl Into<String>) -> Self {
        Self { uplink: uplink.into(), filter_threshold: 0.9, cloud_accuracy: 0.99 }
    }

    /// Sets the near-duplicate filter threshold.
    #[must_use]
    pub fn filter_threshold(mut self, threshold: f64) -> Self {
        self.filter_threshold = threshold;
        self
    }

    /// Sets the cloud tier's base labeling accuracy.
    #[must_use]
    pub fn cloud_accuracy(mut self, accuracy: f64) -> Self {
        self.cloud_accuracy = accuracy;
        self
    }

    /// Validates the configuration, resolving the uplink profile.
    pub(crate) fn validate(&self) -> Result<()> {
        if !(self.filter_threshold.is_finite() && (0.0..=1.0).contains(&self.filter_threshold)) {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "edge filter threshold must lie in [0, 1], got {}",
                    self.filter_threshold
                ),
            });
        }
        if !(self.cloud_accuracy.is_finite() && (0.0..=1.0).contains(&self.cloud_accuracy)) {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "cloud teacher accuracy must lie in [0, 1], got {}",
                    self.cloud_accuracy
                ),
            });
        }
        create_uplink(&self.uplink).map(|_| ())
    }
}

// --------------------------------------------------------------------------
// Session-side edge tier
// --------------------------------------------------------------------------

/// One cloud label on the wire: shipped, labeled, not yet delivered into
/// the camera's buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InFlightLabel {
    /// The cloud-labeled sample awaiting delivery.
    pub sample: LabeledSample,
    /// Session virtual time at which the label lands in the buffer.
    pub arrival_s: f64,
}

/// The last frame that cleared the near-duplicate filter, against which new
/// candidates are compared.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShippedMark {
    /// Stream timestamp of the shipped frame.
    pub at_s: f64,
    /// Scenario attributes active when it was captured.
    pub attributes: SegmentAttributes,
}

/// The complete mutable state of one camera's edge tier — everything a
/// [`SessionSnapshot`](crate::SessionSnapshot) must capture so a restored
/// session resumes bit-identically mid-offload, in-flight cloud labels and
/// all.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeTierState {
    /// The cloud labeling tier, including its exact RNG state.
    pub cloud: CloudTeacher,
    /// Where the camera's labeling currently routes.
    pub route: LabelRoute,
    /// Cloud labels shipped but not yet arrived, in arrival order.
    pub in_flight: Vec<InFlightLabel>,
    /// The filter's comparison anchor, if any frame has shipped yet.
    pub last_shipped: Option<ShippedMark>,
    /// Earliest time the serial uplink can start the next transfer.
    pub uplink_free_at_s: f64,
    /// Bytes shipped inside the current exchange window (reset at each
    /// window boundary; the meter [`LabelRoute::Cloud::byte_budget`] caps).
    pub window_bytes: u64,
    /// Total uplink bytes shipped across the run.
    pub bytes_shipped: u64,
    /// Frames that cleared the filter and went over the uplink.
    pub frames_shipped: u64,
    /// Frames the near-duplicate filter dropped before the uplink.
    pub frames_filtered: u64,
    /// Samples labeled by the local teacher while the edge tier was
    /// configured.
    pub labels_local: u64,
    /// Samples labeled by the cloud tier.
    pub labels_cloud: u64,
    /// Per-label uplink-induced delays (transfer + latency) in seconds.
    pub cloud_latencies_s: Vec<f64>,
    /// Whether the most recent labeling phase ran on the cloud tier (the
    /// cluster executor exempts such phases from accelerator arbitration —
    /// they cost no local compute).
    pub last_phase_offloaded: bool,
}

/// One camera's resolved uplink: the behavior half of its edge tier, a pure
/// function of the [`EdgeConfig`] and the stream's feature width. It lives in
/// the session's derived runtime and is rebuilt on restore; the mutable half
/// is the [`EdgeTierState`] that rides the snapshot.
#[derive(Debug, Clone)]
pub(crate) struct ResolvedUplink {
    spec: UplinkSpec,
    filter_threshold: f64,
    frame_bytes: u64,
}

impl ResolvedUplink {
    /// Resolves `config`'s uplink profile ([`create_uplink`]) for a camera
    /// with `feature_dim`-float samples ([`EdgeConfig::validate`] has checked
    /// the threshold's range by the time a runtime is built).
    pub(crate) fn resolve(config: &EdgeConfig, feature_dim: usize) -> Result<Self> {
        let spec = create_uplink(&config.uplink)?;
        let frame_bytes = spec.frame_bytes(feature_dim);
        Ok(Self { spec, filter_threshold: config.filter_threshold, frame_bytes })
    }

    /// Frames per second the uplink can ship: bandwidth-bound, capped at
    /// the stream rate (a camera cannot ship frames it has not captured).
    pub(crate) fn labeling_sps(&self, fps: f64) -> f64 {
        (self.spec.bandwidth_bps / 8.0 / self.frame_bytes as f64).min(fps)
    }

    /// Offers one sampled frame to the uplink, taking ownership of its
    /// features. If the frame cleared the near-duplicate filter it ships:
    /// the cloud-labeled sample is queued at the tail of `state`'s in-flight
    /// list until its arrival time, and a reference to it is returned.
    /// `None` means the filter dropped the frame.
    pub(crate) fn offer<'s>(
        &self,
        state: &'s mut EdgeTierState,
        features: Vec<f32>,
        true_class: usize,
        timestamp_s: f64,
        attributes: &SegmentAttributes,
    ) -> Option<&'s LabeledSample> {
        if let Some(mark) = &state.last_shipped {
            let similarity = attribute_similarity(&mark.attributes, attributes)
                * (1.0 - (timestamp_s - mark.at_s) / FILTER_HORIZON_S).max(0.0);
            if similarity >= self.filter_threshold {
                state.frames_filtered += 1;
                return None;
            }
        }
        let transfer_s = self.spec.transfer_s(self.frame_bytes);
        let completion_s = timestamp_s.max(state.uplink_free_at_s) + transfer_s;
        state.uplink_free_at_s = completion_s;
        let arrival_s = completion_s + self.spec.latency_s;
        let teacher_label = state.cloud.label(true_class, attributes.difficulty());
        let sample = LabeledSample { features, teacher_label, true_class, timestamp_s };
        state.last_shipped = Some(ShippedMark { at_s: timestamp_s, attributes: *attributes });
        state.in_flight.push(InFlightLabel { sample, arrival_s });
        state.window_bytes += self.frame_bytes;
        state.bytes_shipped += self.frame_bytes;
        state.frames_shipped += 1;
        state.labels_cloud += 1;
        state.cloud_latencies_s.push(arrival_s - timestamp_s);
        state.in_flight.last().map(|label| &label.sample)
    }
}

impl EdgeTierState {
    /// The state of a fresh edge tier labeling over `num_classes` classes.
    pub(crate) fn new(config: &EdgeConfig, num_classes: usize, seed: u64) -> Self {
        Self {
            cloud: CloudTeacher::new(num_classes, config.cloud_accuracy, seed),
            route: LabelRoute::Local,
            in_flight: Vec::new(),
            last_shipped: None,
            uplink_free_at_s: 0.0,
            window_bytes: 0,
            bytes_shipped: 0,
            frames_shipped: 0,
            frames_filtered: 0,
            labels_local: 0,
            labels_cloud: 0,
            cloud_latencies_s: Vec::new(),
            last_phase_offloaded: false,
        }
    }

    /// The route the *next labeling phase* should take: the window's route,
    /// downgraded to local once a byte budget is spent.
    pub(crate) fn phase_route(&self) -> LabelRoute {
        match self.route {
            LabelRoute::Cloud { byte_budget: Some(budget) } if self.window_bytes >= budget => {
                LabelRoute::Local
            }
            route => route,
        }
    }

    /// Drains every in-flight label whose arrival time has passed, in
    /// arrival order.
    pub(crate) fn deliver_matured(&mut self, now_s: f64) -> Vec<LabeledSample> {
        if self.in_flight.iter().all(|l| l.arrival_s > now_s) {
            return Vec::new();
        }
        let mut matured: Vec<InFlightLabel> = Vec::new();
        let mut waiting = Vec::with_capacity(self.in_flight.len());
        for label in self.in_flight.drain(..) {
            if label.arrival_s <= now_s {
                matured.push(label);
            } else {
                waiting.push(label);
            }
        }
        self.in_flight = waiting;
        matured.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
        matured.into_iter().map(|l| l.sample).collect()
    }

    /// Opens a new exchange window on the given route, resetting the
    /// per-window byte meter.
    pub(crate) fn begin_window(&mut self, route: LabelRoute) {
        self.route = route;
        self.window_bytes = 0;
    }

    /// Drops every in-flight label (the buffer-reset drift response: stale
    /// pre-drift labels must not arrive into a freshly cleared buffer).
    pub(crate) fn discard_in_flight(&mut self) {
        self.in_flight.clear();
    }

    /// Records `n` locally-labeled samples for the local/cloud split.
    pub(crate) fn note_local_labels(&mut self, n: usize) {
        self.labels_local += n as u64;
    }

    /// Rejects state a session cannot run: a non-finite uplink clock or
    /// in-flight arrival time would poison label delivery.
    pub(crate) fn validate(&self) -> Result<()> {
        if !self.uplink_free_at_s.is_finite() {
            return Err(CoreError::Snapshot {
                reason: format!(
                    "edge.uplink_free_at_s must be finite, got {}",
                    self.uplink_free_at_s
                ),
            });
        }
        if let Some(i) = self.in_flight.iter().position(|l| !l.arrival_s.is_finite()) {
            return Err(CoreError::Snapshot {
                reason: format!("edge.in_flight[{i}].arrival_s must be finite"),
            });
        }
        Ok(())
    }
}

/// Fraction of attribute dimensions two segments agree on, equally weighted
/// over label distribution, time of day, location, and weather.
fn attribute_similarity(a: &SegmentAttributes, b: &SegmentAttributes) -> f64 {
    let mut matches = 0u32;
    matches += u32::from(a.labels == b.labels);
    matches += u32::from(a.time == b.time);
    matches += u32::from(a.location == b.location);
    matches += u32::from(a.weather == b.weather);
    f64::from(matches) / 4.0
}

// --------------------------------------------------------------------------
// Metrics
// --------------------------------------------------------------------------

/// Telemetry of one cluster run's edge–cloud tier: what the fleet shipped,
/// filtered, and paid in label latency, and what accuracy each uplink byte
/// bought.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeMetrics {
    /// The offload policy the cluster ran under (`"local-only"` when the
    /// edge tier was disabled).
    pub policy: String,
    /// Samples labeled by local teachers on edge-configured cameras.
    pub labels_local: u64,
    /// Samples labeled by the cloud tier.
    pub labels_cloud: u64,
    /// Frames shipped over uplinks across the fleet.
    pub frames_shipped: u64,
    /// Frames the near-duplicate filters dropped before the uplink.
    pub frames_filtered: u64,
    /// Total uplink bytes shipped across the fleet.
    pub bytes_shipped: u64,
    /// Median uplink-induced label delay (transfer + latency), in seconds.
    pub cloud_label_latency_p50_s: f64,
    /// 99th-percentile uplink-induced label delay, in seconds.
    pub cloud_label_latency_p99_s: f64,
    /// The fleet's mean accuracy divided by the bytes that bought it (`0`
    /// when nothing shipped) — the headline the edge–cloud bench sweeps.
    pub accuracy_per_byte: f64,
}

impl EdgeMetrics {
    /// Aggregates per-camera accumulators into the cluster-level metrics.
    #[must_use]
    pub(crate) fn from_accum(policy: String, accum: &EdgeAccum, mean_accuracy: f64) -> Self {
        let [latency_p50_s, latency_p99_s] =
            crate::metrics::percentiles(&accum.latencies_s, [50.0, 99.0]);
        Self {
            policy,
            labels_local: accum.labels_local,
            labels_cloud: accum.labels_cloud,
            frames_shipped: accum.frames_shipped,
            frames_filtered: accum.frames_filtered,
            bytes_shipped: accum.bytes_shipped,
            cloud_label_latency_p50_s: latency_p50_s,
            cloud_label_latency_p99_s: latency_p99_s,
            accuracy_per_byte: if accum.bytes_shipped > 0 {
                mean_accuracy / accum.bytes_shipped as f64
            } else {
                0.0
            },
        }
    }
}

/// Edge-tier counters summed over cameras while a cluster runs.
#[derive(Debug, Clone, Default)]
pub(crate) struct EdgeAccum {
    pub(crate) bytes_shipped: u64,
    pub(crate) frames_shipped: u64,
    pub(crate) frames_filtered: u64,
    pub(crate) labels_local: u64,
    pub(crate) labels_cloud: u64,
    pub(crate) latencies_s: Vec<f64>,
}

impl EdgeAccum {
    /// Folds another camera's counters into this accumulator.
    pub(crate) fn merge(&mut self, other: &EdgeAccum) {
        self.bytes_shipped += other.bytes_shipped;
        self.frames_shipped += other.frames_shipped;
        self.frames_filtered += other.frames_filtered;
        self.labels_local += other.labels_local;
        self.labels_cloud += other.labels_cloud;
        self.latencies_s.extend_from_slice(&other.latencies_s);
    }

    /// Folds one camera's tier counters into this accumulator: its
    /// contribution to the cluster's [`EdgeMetrics`].
    pub(crate) fn add_tier(&mut self, tier: &EdgeTierState) {
        self.bytes_shipped += tier.bytes_shipped;
        self.frames_shipped += tier.frames_shipped;
        self.frames_filtered += tier.frames_filtered;
        self.labels_local += tier.labels_local;
        self.labels_cloud += tier.labels_cloud;
        self.latencies_s.extend_from_slice(&tier.cloud_latencies_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn context(resident_cameras: usize) -> OffloadContext<'static> {
        OffloadContext {
            window_index: 0,
            boundary_s: 60.0,
            camera: "cam-0",
            camera_index: 0,
            accelerator: 0,
            resident_cameras,
            buffer_len: 128,
            bytes_shipped: 0,
            window_bytes: 0,
        }
    }

    #[test]
    fn local_only_and_cloud_only_route_unconditionally() {
        // `local-only` routes every window locally because nothing is
        // built: the routing stage is absent.
        for name in ["local-only", "LOCAL-ONLY", "local-only:1", "local-only:x"] {
            let err = match create_offload(name) {
                Err(err) => err,
                Ok(_) => panic!("'{name}' must select no policy"),
            };
            assert!(matches!(err, CoreError::InvalidConfig { .. }), "{err:?}");
            assert!(err.to_string().contains("stage is absent"), "{err}");
        }
        let mut cloud = create_offload("cloud-only").unwrap();
        for residents in [1, 4, 64] {
            assert_eq!(cloud.route(&context(residents)), LabelRoute::Cloud { byte_budget: None });
        }
        assert!(create_offload("cloud-only:x").is_err(), "cloud-only takes no parameters");
    }

    #[test]
    fn threshold_gates_on_accelerator_residency() {
        let mut policy = create_offload("threshold:2").unwrap();
        assert_eq!(policy.route(&context(1)), LabelRoute::Local);
        assert_eq!(policy.route(&context(2)), LabelRoute::Local, "threshold is exclusive");
        assert_eq!(policy.route(&context(3)), LabelRoute::Cloud { byte_budget: None });
        assert!(create_offload("threshold").is_err(), "the depth parameter is required");
        assert!(create_offload("threshold:fast").is_err());
    }

    #[test]
    fn budget_routes_cloud_with_a_byte_cap() {
        let mut policy = create_offload("budget:5000000").unwrap();
        assert_eq!(policy.route(&context(1)), LabelRoute::Cloud { byte_budget: Some(5_000_000) });
        assert!(create_offload("budget").is_err(), "the byte parameter is required");
        assert!(create_offload("budget:0").is_err(), "a zero budget is a misconfiguration");
        assert!(create_offload("budget:-3").is_err());
        assert!(create_offload("budget: 1000 ").is_ok(), "whitespace around the count is fine");
    }

    #[test]
    fn offload_registry_resolves_case_insensitively_and_lists_builtins() {
        let mut cloud = create_offload("CLOUD-ONLY").unwrap();
        assert_eq!(cloud.route(&context(1)), LabelRoute::Cloud { byte_budget: None });
        let mut budget = create_offload("Budget:123").unwrap();
        assert_eq!(budget.route(&context(1)), LabelRoute::Cloud { byte_budget: Some(123) });
        let names = registered_offload_policies();
        assert!(!names.contains(&"no-such-policy".to_string()));
        for builtin in ["cloud-only", "threshold", "budget"] {
            assert!(names.contains(&builtin.to_string()), "{builtin} missing from {names:?}");
        }
        assert!(!names.contains(&"local-only".to_string()), "the reserved name is not a policy");
        let err = match create_offload("no-such-policy") {
            Err(err) => err,
            Ok(_) => panic!("unknown policy must not resolve"),
        };
        assert!(err.to_string().contains("no-such-policy"), "{err}");
        assert!(err.to_string().contains("registered offload policy names"), "{err}");
    }

    #[test]
    fn local_only_detection_ignores_case_but_not_other_names() {
        assert!(is_local_only("local-only"));
        assert!(is_local_only("LOCAL-ONLY"));
        assert!(!is_local_only("cloud-only"));
        assert!(!is_local_only("local-only-ish"));
        assert!(
            !is_local_only("local-only:1"),
            "a suffixed sentinel is an error, not the sentinel"
        );
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn registering_over_the_reserved_local_only_policy_panics() {
        register_offload("local-only", cloud_only);
    }

    #[test]
    fn external_offload_policies_plug_in_through_the_registry() {
        /// Offload only even-indexed windows.
        struct Alternating;
        impl OffloadPolicy for Alternating {
            fn route(&mut self, ctx: &OffloadContext<'_>) -> LabelRoute {
                if ctx.window_index.is_multiple_of(2) {
                    LabelRoute::Cloud { byte_budget: None }
                } else {
                    LabelRoute::Local
                }
            }
        }
        register_offload("alternating", |_| Ok(Box::new(Alternating)));
        let mut policy = create_offload("alternating").unwrap();
        assert_eq!(policy.route(&context(1)), LabelRoute::Cloud { byte_budget: None });
        assert!(registered_offload_policies().contains(&"alternating".to_string()));
    }

    #[test]
    fn builtin_uplink_profiles_resolve_with_and_without_params() {
        let lte = create_uplink("lte").unwrap();
        assert_eq!(lte.bandwidth_bps(), 12.0e6);
        assert_eq!(lte.latency_s(), 0.06);
        assert_eq!(lte.frame_overhead_bytes(), DEFAULT_FRAME_OVERHEAD_BYTES);
        let fast_wifi = create_uplink("wifi:100,15").unwrap();
        assert_eq!(fast_wifi.bandwidth_bps(), 100.0e6);
        assert_eq!(fast_wifi.latency_s(), 0.015);
        let slower = create_uplink("degraded:0.1").unwrap();
        assert_eq!(slower.bandwidth_bps(), 0.1e6);
        assert_eq!(slower.latency_s(), 0.2, "latency keeps the profile default");
        for profile in ["broadband", "wifi", "lte", "degraded"] {
            assert!(create_uplink(profile).is_ok(), "{profile} missing");
        }
        assert_eq!(create_uplink("LTE").unwrap(), lte, "lookups are case-insensitive");
    }

    #[test]
    fn uplink_profiles_reject_malformed_params() {
        assert!(create_uplink("lte:fast").is_err());
        assert!(create_uplink("lte:12,slow").is_err());
        assert!(create_uplink("lte:0").is_err(), "zero bandwidth is invalid");
        assert!(create_uplink("lte:-5").is_err());
        assert!(create_uplink("wifi:54,-1").is_err(), "negative latency is invalid");
        assert!(create_uplink("lte: 20 , 30 ").is_ok(), "whitespace is fine");
        let err = match create_uplink("carrier-pigeon") {
            Err(err) => err,
            Ok(_) => panic!("unknown profile must not resolve"),
        };
        assert!(err.to_string().contains("carrier-pigeon"), "{err}");
        assert!(err.to_string().contains("known profiles: broadband, wifi"), "{err}");
    }

    #[test]
    fn uplink_spec_accounts_bytes_and_transfer_time() {
        let spec = UplinkSpec::new(8.0e6, 0.05, 1000).unwrap();
        assert_eq!(spec.frame_bytes(16), 1064);
        // 1000 bytes at 8 Mbit/s = 1 ms.
        assert!((spec.transfer_s(1000) - 0.001).abs() < 1e-12);
        assert!(UplinkSpec::new(f64::NAN, 0.0, 0).is_err());
        assert!(UplinkSpec::new(1.0, f64::INFINITY, 0).is_err());
    }

    #[test]
    fn edge_config_validates_its_ranges_and_uplink() {
        assert!(EdgeConfig::new("lte").validate().is_ok());
        assert!(EdgeConfig::new("lte:20,30").validate().is_ok());
        assert!(EdgeConfig::new("no-such-uplink").validate().is_err());
        assert!(EdgeConfig::new("lte").filter_threshold(1.5).validate().is_err());
        assert!(EdgeConfig::new("lte").filter_threshold(f64::NAN).validate().is_err());
        assert!(EdgeConfig::new("lte").cloud_accuracy(-0.1).validate().is_err());
    }

    /// A fresh edge tier over LTE: the resolved uplink and its state.
    fn tier(filter_threshold: f64) -> (ResolvedUplink, EdgeTierState) {
        let config = EdgeConfig::new("lte").filter_threshold(filter_threshold);
        (ResolvedUplink::resolve(&config, 16).unwrap(), EdgeTierState::new(&config, 10, 7))
    }

    #[test]
    fn offer_ships_labels_and_queues_them_in_flight() {
        let (uplink, mut state) = tier(1.0);
        let attrs = SegmentAttributes::default();
        let shipped =
            uplink.offer(&mut state, vec![0.0; 16], 3, 1.0, &attrs).expect("first frame ships");
        assert!(shipped.teacher_label < 10);
        assert_eq!(state.frames_shipped, 1);
        assert_eq!(state.labels_cloud, 1);
        assert_eq!(state.in_flight.len(), 1);
        assert!(state.bytes_shipped > 0);
        let arrival = state.in_flight[0].arrival_s;
        assert!(arrival > 1.0, "transfer and latency delay the label");
        // Not matured yet…
        assert!(state.deliver_matured(arrival - 1e-6).is_empty());
        // …then delivered exactly once.
        let delivered = state.deliver_matured(arrival);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].true_class, 3);
        assert!(state.in_flight.is_empty());
        assert!(state.deliver_matured(arrival + 1.0).is_empty());
    }

    #[test]
    fn filter_drops_near_duplicates_until_the_horizon_decays() {
        let (uplink, mut state) = tier(0.5);
        let attrs = SegmentAttributes::default();
        assert!(
            uplink.offer(&mut state, vec![0.0; 16], 0, 0.0, &attrs).is_some(),
            "the anchor frame ships"
        );
        // Identical attributes a blink later: similarity ~1, filtered.
        assert!(uplink.offer(&mut state, vec![0.0; 16], 0, 0.1, &attrs).is_none());
        assert_eq!(state.frames_filtered, 1);
        // Past half the horizon the decayed similarity crosses below 0.5.
        assert!(uplink.offer(&mut state, vec![0.0; 16], 0, 1.5, &attrs).is_some());
        // A frame whose attributes changed ships even when fresh.
        let night = SegmentAttributes {
            time: dacapo_datagen::TimeOfDay::Night,
            weather: dacapo_datagen::Weather::Rainy,
            ..attrs
        };
        assert!(uplink.offer(&mut state, vec![0.0; 16], 0, 1.6, &night).is_some());
    }

    #[test]
    fn a_zero_threshold_filters_everything_within_the_horizon() {
        let (uplink, mut state) = tier(0.0);
        let attrs = SegmentAttributes::default();
        assert!(uplink.offer(&mut state, vec![0.0; 16], 0, 0.0, &attrs).is_some());
        assert!(uplink.offer(&mut state, vec![0.0; 16], 0, 1.0, &attrs).is_none());
        assert!(uplink.offer(&mut state, vec![0.0; 16], 0, 1.9, &attrs).is_none());
        // At the horizon the decayed similarity reaches 0 == threshold, so
        // the frame is still filtered; just past it, a refresher ships.
        assert!(uplink
            .offer(&mut state, vec![0.0; 16], 0, FILTER_HORIZON_S + 1e-6, &attrs)
            .is_none());
        assert_eq!(state.frames_filtered, 3);
    }

    #[test]
    fn budgeted_routes_downgrade_to_local_once_spent() {
        let (uplink, mut state) = tier(1.0);
        let budget = uplink.frame_bytes * 2;
        state.begin_window(LabelRoute::Cloud { byte_budget: Some(budget) });
        assert_eq!(state.phase_route(), LabelRoute::Cloud { byte_budget: Some(budget) });
        let attrs = SegmentAttributes::default();
        uplink.offer(&mut state, vec![0.0; 16], 0, 0.0, &attrs).unwrap();
        assert!(matches!(state.phase_route(), LabelRoute::Cloud { .. }), "one frame under budget");
        uplink.offer(&mut state, vec![0.0; 16], 0, 0.5, &attrs).unwrap();
        assert_eq!(state.phase_route(), LabelRoute::Local, "budget spent");
        // A new window resets the meter.
        state.begin_window(LabelRoute::Cloud { byte_budget: Some(budget) });
        assert!(matches!(state.phase_route(), LabelRoute::Cloud { .. }));
    }

    #[test]
    fn the_uplink_serialises_transfers() {
        let (uplink, mut state) = tier(1.0);
        let attrs = SegmentAttributes::default();
        // Two frames offered back-to-back: the second waits for the first
        // transfer to complete before starting its own, so consecutive
        // arrivals are exactly one transfer time apart.
        uplink.offer(&mut state, vec![0.0; 16], 0, 0.0, &attrs).unwrap();
        uplink.offer(&mut state, vec![0.0; 16], 0, 0.001, &attrs).unwrap();
        let first = state.in_flight[0].arrival_s;
        let second = state.in_flight[1].arrival_s;
        let transfer = uplink.spec.transfer_s(uplink.frame_bytes);
        assert!(transfer > 0.001, "the test frame outlasts the capture gap");
        assert!((second - first - transfer).abs() < 1e-9);
        assert_eq!(state.cloud_latencies_s.len(), 2);
        assert!(state.cloud_latencies_s[1] > state.cloud_latencies_s[0]);
    }

    #[test]
    fn edge_tier_state_survives_serde_round_trips() {
        let (uplink, mut state) = tier(0.8);
        state.begin_window(LabelRoute::Cloud { byte_budget: Some(1 << 20) });
        let attrs = SegmentAttributes::default();
        uplink.offer(&mut state, vec![0.5; 16], 2, 0.0, &attrs).unwrap();
        state.note_local_labels(5);
        let restored = EdgeTierState::from_value(&state.to_value()).expect("round-trips");
        assert_eq!(restored, state);
    }

    #[test]
    fn metrics_aggregate_accumulators() {
        let mut accum = EdgeAccum {
            bytes_shipped: 1000,
            frames_shipped: 4,
            frames_filtered: 6,
            labels_local: 10,
            labels_cloud: 4,
            latencies_s: vec![0.1, 0.2, 0.3, 0.4],
        };
        accum.merge(&EdgeAccum {
            bytes_shipped: 500,
            frames_shipped: 2,
            frames_filtered: 1,
            labels_local: 3,
            labels_cloud: 2,
            latencies_s: vec![0.5, 0.6],
        });
        let metrics = EdgeMetrics::from_accum("cloud-only".to_string(), &accum, 0.75);
        assert_eq!(metrics.bytes_shipped, 1500);
        assert_eq!(metrics.frames_shipped, 6);
        assert_eq!(metrics.frames_filtered, 7);
        assert_eq!(metrics.labels_local, 13);
        assert_eq!(metrics.labels_cloud, 6);
        assert!((metrics.accuracy_per_byte - 0.75 / 1500.0).abs() < 1e-15);
        assert!(metrics.cloud_label_latency_p50_s > 0.0);
        assert!(metrics.cloud_label_latency_p99_s >= metrics.cloud_label_latency_p50_s);
        // A run whose edge tier never engaged reports all zeros.
        let disabled =
            EdgeMetrics::from_accum("local-only".to_string(), &EdgeAccum::default(), 0.9);
        assert_eq!(disabled.policy, "local-only");
        assert_eq!(disabled.bytes_shipped, 0);
        assert_eq!(disabled.accuracy_per_byte, 0.0, "no bytes shipped buys no accuracy");
        // The metrics struct round-trips like the other telemetry structs.
        let restored = EdgeMetrics::from_value(&metrics.to_value()).expect("round-trips");
        assert_eq!(restored, metrics);
    }
}
