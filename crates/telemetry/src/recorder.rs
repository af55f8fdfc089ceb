//! The [`TelemetryRecorder`]: a [`SimObserver`] that turns the observer
//! hook stream into trace events and per-window metrics records, fanned out
//! to the configured sinks.
//!
//! The recorder is deterministic by construction: observed runs execute
//! single-threaded, every hook fires in a fixed order (see the crate docs
//! for the window sampling contract), and every record lists its fields in
//! a fixed order — so the bytes a sink receives are identical across
//! worker-thread counts. With only the reserved `null` sink configured the
//! recorder does **no** work at all: every hook returns immediately, which
//! is what keeps null-sink observed runs bit-identical in cost and results
//! to telemetry-free runs.

use crate::error::{Result, TelemetryError};
use crate::metrics::{FieldValue, MetricsRecord};
use crate::sink::{self, TelemetrySink};
use crate::trace::{virtual_us, TraceEvent, CLUSTER_PID};
use dacapo_core::{
    AcceleratorSample, LabelRoute, PhaseKind, PhaseRecord, SimObserver, WindowSample,
};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a camera-local window has accumulated so far.
#[derive(Default)]
struct WindowTotals {
    steps: u64,
    label_s: f64,
    retrain_s: f64,
    wait_s: f64,
    labels: u64,
    labels_shared: u64,
    drifts: u64,
    accuracy_sum: f64,
    accuracy_count: u64,
}

/// Per-camera aggregation state: one trace thread, the currently
/// accumulating camera-local window, and the camera's accuracy gauge.
struct CameraTrack {
    /// The camera's display name (`session` for a standalone session).
    name: String,
    /// `accuracy/<name>`: the camera's gauge and counter track.
    accuracy_name: String,
    tid: u32,
    /// The processes this camera's thread has been named in.
    named_in: Vec<u32>,
    /// Index of the camera-local window currently accumulating.
    window: usize,
    /// The window's totals; `None` until an event lands in it.
    totals: Option<WindowTotals>,
    /// The latest accuracy sample, after how many samples of any camera
    /// it came: the gauge `"cluster"` records carry.
    accuracy: Option<(u64, f64)>,
    /// Latest event time seen on this camera's own clock.
    last_s: f64,
}

/// End-of-run totals returned by [`TelemetryRecorder::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySummary {
    /// Trace events fanned out to the sinks.
    pub trace_events: u64,
    /// Metrics records fanned out to the sinks.
    pub metrics_records: u64,
}

/// The sinks and what has been fanned out to them. Kept apart from the
/// recorder's aggregation state so an event can borrow that state while it
/// is fanned out.
struct Fanout {
    sinks: Vec<Box<dyn TelemetrySink>>,
    trace_events: u64,
    metrics_records: u64,
    error: Option<TelemetryError>,
}

impl Fanout {
    fn trace(&mut self, event: &TraceEvent<'_>) {
        if self.error.is_some() {
            return;
        }
        self.trace_events += 1;
        for sink in &mut self.sinks {
            if let Err(error) = sink.on_trace_event(event) {
                self.error = Some(error);
                return;
            }
        }
    }

    fn record(&mut self, record: &MetricsRecord<'_>) {
        if self.error.is_some() {
            return;
        }
        self.metrics_records += 1;
        for sink in &mut self.sinks {
            if let Err(error) = sink.on_metrics_record(record) {
                self.error = Some(error);
                return;
            }
        }
    }
}

/// A [`SimObserver`] that records virtual-time spans and per-window metrics
/// into pluggable sinks. See the crate docs for the full data model.
pub struct TelemetryRecorder {
    out: Fanout,
    window_s: f64,
    /// Each cluster counter's increments since the last `"cluster"` record.
    counters: BTreeMap<&'static str, u64>,
    /// Accuracy samples seen, over every camera.
    accuracy_samples: u64,
    /// Whether an accuracy gauge was set since the last `"cluster"` record.
    gauges_set: bool,
    tracks: Vec<CameraTrack>,
    /// Track index by camera name, for the hooks that name their camera.
    track_ids: BTreeMap<String, usize>,
    /// Track index by cluster admission index, for step contexts and
    /// window samples.
    tracks_by_camera: Vec<Option<usize>>,
    /// `accelerator-N` by accelerator index, empty until its process has
    /// been named.
    accelerator_names: Vec<String>,
    cluster_named: bool,
    context_pid: u32,
    context_track: Option<usize>,
    /// Index the next cluster-level metrics window will carry (advanced by
    /// window barriers; used for the residual flush at finish).
    cluster_window: usize,
    /// The latest window mark an accelerator sample named: where a cluster
    /// run's residual flush at finish ends.
    sampled_s: Option<f64>,
    /// The rendered route of the last budgeted routing decision.
    route_text: String,
}

impl Default for TelemetryRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetryRecorder {
    /// Creates a recorder with no sinks (disabled until one is added).
    #[must_use]
    pub fn new() -> Self {
        Self {
            out: Fanout { sinks: Vec::new(), trace_events: 0, metrics_records: 0, error: None },
            window_s: 60.0,
            counters: BTreeMap::new(),
            accuracy_samples: 0,
            gauges_set: false,
            tracks: Vec::new(),
            track_ids: BTreeMap::new(),
            tracks_by_camera: Vec::new(),
            accelerator_names: Vec::new(),
            cluster_named: false,
            context_pid: 0,
            context_track: None,
            cluster_window: 0,
            sampled_s: None,
            route_text: String::new(),
        }
    }

    /// Sets the camera-local aggregation window for `"camera"` records, in
    /// virtual seconds (default 60). Cluster-level `"window"` /
    /// `"accelerator"` / `"cluster"` records always follow the cluster's own
    /// window marks and barriers instead.
    #[must_use]
    pub fn window_s(mut self, window_s: f64) -> Self {
        self.window_s = window_s.max(1e-9);
        self
    }

    /// Adds a sink instance.
    #[must_use]
    pub fn with_sink(mut self, sink: Box<dyn TelemetrySink>) -> Self {
        self.out.sinks.push(sink);
        self
    }

    /// Adds a sink by registry spec (`"chrome-trace:<path>"`,
    /// `"json-lines:<path>"`, `"summary"`, …). The reserved `"null"` spec
    /// adds nothing, keeping the recorder on its do-nothing fast path. A
    /// file sink creates its file here.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::InvalidConfig`] for an unregistered name,
    /// malformed parameters, or a suffixed `"null:<anything>"`, and
    /// [`TelemetryError::Io`] naming the path when a file sink's output
    /// cannot be created.
    pub fn with_sink_spec(mut self, spec: &str) -> Result<Self> {
        if sink::is_null(spec) {
            return Ok(self);
        }
        self.out.sinks.push(sink::create(spec)?);
        Ok(self)
    }

    /// Whether the recorder does any work (it has at least one sink).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !self.out.sinks.is_empty()
    }

    /// Flushes residual per-camera windows, finishes every sink, and
    /// returns the fan-out totals.
    ///
    /// # Errors
    ///
    /// Returns the first error any sink reported, during the run or while
    /// finishing.
    pub fn finish(mut self) -> Result<TelemetrySummary> {
        if self.is_enabled() {
            for index in 0..self.tracks.len() {
                self.flush_camera_window(index);
            }
            // A cluster run ends at its last sampled mark, a standalone
            // session at the latest time on its own clock.
            let end_s = self
                .sampled_s
                .unwrap_or_else(|| self.tracks.iter().map(|t| t.last_s).fold(0.0, f64::max));
            self.flush_cluster_window(self.cluster_window, end_s);
            for sink in &mut self.out.sinks {
                if let Err(error) = sink.finish() {
                    if self.out.error.is_none() {
                        self.out.error = Some(error);
                    }
                }
            }
        }
        match self.out.error {
            Some(error) => Err(error),
            None => Ok(TelemetrySummary {
                trace_events: self.out.trace_events,
                metrics_records: self.out.metrics_records,
            }),
        }
    }

    /// Emits process-name metadata once per process id.
    fn ensure_process(&mut self, pid: u32) {
        if pid == CLUSTER_PID {
            if !self.cluster_named {
                self.cluster_named = true;
                self.out.trace(&TraceEvent::ProcessName { pid, name: "cluster" });
            }
            return;
        }
        let index = pid as usize;
        if index >= self.accelerator_names.len() {
            self.accelerator_names.resize(index + 1, String::new());
        }
        let name = &mut self.accelerator_names[index];
        if name.is_empty() {
            *name = format!("accelerator-{pid}");
            self.out.trace(&TraceEvent::ProcessName { pid, name });
        }
    }

    /// Names the process, then the track's thread in it, once each.
    fn ensure_thread(&mut self, pid: u32, track_index: usize) {
        self.ensure_process(pid);
        let track = &mut self.tracks[track_index];
        if !track.named_in.contains(&pid) {
            track.named_in.push(pid);
            self.out.trace(&TraceEvent::ThreadName { pid, tid: track.tid, name: &track.name });
        }
    }

    /// Looks up (or creates) the track for a camera name.
    fn track_index(&mut self, name: &str) -> usize {
        if let Some(&index) = self.track_ids.get(name) {
            return index;
        }
        let index = self.tracks.len();
        let display = if name.is_empty() { "session" } else { name };
        self.tracks.push(CameraTrack {
            name: display.to_string(),
            accuracy_name: format!("accuracy/{display}"),
            // tid 0 is kept for process-wide counter/metadata rows.
            tid: index as u32 + 1,
            named_in: Vec::new(),
            window: 0,
            totals: None,
            accuracy: None,
            last_s: 0.0,
        });
        self.track_ids.insert(name.to_string(), index);
        index
    }

    /// The track of the camera with cluster admission index
    /// `camera_index`, found by name the first time.
    fn camera_track_index(&mut self, camera: &str, camera_index: usize) -> usize {
        if let Some(&Some(index)) = self.tracks_by_camera.get(camera_index) {
            return index;
        }
        let index = self.track_index(camera);
        if camera_index >= self.tracks_by_camera.len() {
            self.tracks_by_camera.resize(camera_index + 1, None);
        }
        self.tracks_by_camera[camera_index] = Some(index);
        index
    }

    /// The process and track a camera-scope event lands on: `camera`'s
    /// track when the event names one, else the current burst's (the
    /// standalone-session track when no cluster ever set a context).
    fn scope(&mut self, camera: &str) -> (u32, usize) {
        let track_index = match (camera, self.context_track) {
            ("", Some(index)) => index,
            ("", None) => {
                let index = self.track_index("");
                self.context_track = Some(index);
                index
            }
            (camera, _) => self.track_index(camera),
        };
        (self.context_pid, track_index)
    }

    /// Rolls the camera-local window forward to the one containing `at_s`,
    /// flushing the previous window's record if it accumulated anything,
    /// and returns the totals of the window `at_s` lands in.
    fn roll_camera_window(&mut self, track_index: usize, at_s: f64) -> &mut WindowTotals {
        let target = if at_s > 0.0 { (at_s / self.window_s).floor() as usize } else { 0 };
        if target > self.tracks[track_index].window {
            self.flush_camera_window(track_index);
            self.tracks[track_index].window = target;
        }
        let track = &mut self.tracks[track_index];
        track.last_s = track.last_s.max(at_s);
        track.totals.get_or_insert_default()
    }

    /// Emits the accumulating `"camera"` record for one track and starts
    /// its next window empty. Empty windows produce no record.
    fn flush_camera_window(&mut self, track_index: usize) {
        let track = &mut self.tracks[track_index];
        let Some(totals) = track.totals.take() else {
            return;
        };
        let accuracy = totals.accuracy_sum / totals.accuracy_count as f64;
        let fields = [
            ("steps", FieldValue::Uint(totals.steps)),
            ("label_s", FieldValue::Float(totals.label_s)),
            ("retrain_s", FieldValue::Float(totals.retrain_s)),
            ("wait_s", FieldValue::Float(totals.wait_s)),
            ("labels", FieldValue::Uint(totals.labels)),
            ("labels_shared", FieldValue::Uint(totals.labels_shared)),
            ("drifts", FieldValue::Uint(totals.drifts)),
            ("accuracy", FieldValue::Float(accuracy)),
        ];
        // The accuracy field only when the window measured one.
        let fields = &fields[..fields.len() - usize::from(totals.accuracy_count == 0)];
        self.out.record(&MetricsRecord {
            kind: "camera",
            window_index: track.window,
            end_s: (track.window as f64 + 1.0) * self.window_s,
            scope: &track.name,
            fields,
        });
    }

    /// Adds `delta` to the named cluster counter.
    fn count(&mut self, counter: &'static str, delta: u64) {
        if delta > 0 {
            *self.counters.entry(counter).or_default() += delta;
        }
    }

    /// Counts a cluster-scope event and marks it on the cluster process.
    fn cluster_mark(
        &mut self,
        counter: &'static str,
        delta: u64,
        name: &str,
        at_s: f64,
        args: &[(&str, FieldValue<'_>)],
    ) {
        self.count(counter, delta);
        self.ensure_process(CLUSTER_PID);
        let ts_us = virtual_us(at_s);
        self.out.trace(&TraceEvent::Mark { name, pid: CLUSTER_PID, tid: 0, ts_us, args });
    }

    /// Emits the `"cluster"` record of the window that ends at `end_s`, if
    /// a counter moved or a gauge was set in it: the counters that moved,
    /// drained, then every camera's latest accuracy, each in name order.
    fn flush_cluster_window(&mut self, window_index: usize, end_s: f64) {
        if !std::mem::take(&mut self.gauges_set) && self.counters.values().all(|&n| n == 0) {
            return;
        }
        let mut fields: Vec<_> = self
            .counters
            .iter_mut()
            .filter(|(_, n)| **n > 0)
            .map(|(&name, n)| (name, FieldValue::Uint(std::mem::take(n))))
            .collect();
        // A standalone session and a camera named `session` share one
        // gauge name; it holds whichever was sampled last.
        let mut gauges: Vec<_> = self
            .tracks
            .iter()
            .filter_map(|t| {
                t.accuracy.map(|(n, value)| (t.accuracy_name.as_str(), Reverse(n), value))
            })
            .collect();
        gauges.sort_unstable_by_key(|&(name, latest, _)| (name, latest));
        gauges.dedup_by_key(|gauge| gauge.0);
        fields.extend(gauges.into_iter().map(|(name, _, value)| (name, FieldValue::Float(value))));
        self.out.record(&MetricsRecord {
            kind: "cluster",
            window_index,
            end_s,
            scope: "cluster",
            fields: &fields,
        });
    }
}

impl SimObserver for TelemetryRecorder {
    // Deliberate no-op: every event kind already reaches the recorder
    // through its typed hook below, so counting here would double-record.
    // Defined (rather than defaulted) because this impl overrides every
    // `SimObserver` hook, which `tests/source_invariants.rs`
    // (`the_recorder_overrides_every_observer_hook`) checks by name.
    fn on_event(&mut self, _event: &dacapo_core::SessionEvent) {}

    fn on_phase(&mut self, phase: &PhaseRecord) {
        if !self.is_enabled() {
            return;
        }
        let (pid, track_index) = self.scope("");
        self.ensure_thread(pid, track_index);
        let totals = self.roll_camera_window(track_index, phase.start_s);
        totals.steps += 1;
        let span_name = match phase.kind {
            PhaseKind::Label => {
                totals.label_s += phase.duration_s;
                totals.labels += phase.samples as u64;
                "label"
            }
            PhaseKind::Retrain => {
                totals.retrain_s += phase.duration_s;
                "retrain"
            }
            PhaseKind::Wait => {
                totals.wait_s += phase.duration_s;
                "wait"
            }
        };
        let track = &mut self.tracks[track_index];
        track.last_s = track.last_s.max(phase.start_s + phase.duration_s);
        let tid = track.tid;
        self.count("steps", 1);
        if phase.kind == PhaseKind::Label {
            self.count("labels", phase.samples as u64);
        }
        self.out.trace(&TraceEvent::Complete {
            name: span_name,
            pid,
            tid,
            ts_us: virtual_us(phase.start_s),
            dur_us: virtual_us(phase.duration_s),
            args: &[
                ("samples", FieldValue::Uint(phase.samples as u64)),
                ("drift_response", FieldValue::Bool(phase.drift_response)),
            ],
        });
    }

    fn on_drift(&mut self, at_s: f64, response_index: usize) {
        if !self.is_enabled() {
            return;
        }
        let (pid, track_index) = self.scope("");
        self.ensure_thread(pid, track_index);
        self.roll_camera_window(track_index, at_s).drifts += 1;
        self.count("drifts", 1);
        self.out.trace(&TraceEvent::Mark {
            name: "drift",
            pid,
            tid: self.tracks[track_index].tid,
            ts_us: virtual_us(at_s),
            args: &[("response_index", FieldValue::Uint(response_index as u64))],
        });
    }

    fn on_accuracy(&mut self, at_s: f64, accuracy: f64) {
        if !self.is_enabled() {
            return;
        }
        let (pid, track_index) = self.scope("");
        self.ensure_process(pid);
        let totals = self.roll_camera_window(track_index, at_s);
        totals.accuracy_sum += accuracy;
        totals.accuracy_count += 1;
        self.accuracy_samples += 1;
        self.gauges_set = true;
        let track = &mut self.tracks[track_index];
        track.accuracy = Some((self.accuracy_samples, accuracy));
        self.out.trace(&TraceEvent::Counter {
            name: &track.accuracy_name,
            pid,
            ts_us: virtual_us(at_s),
            series: &[("accuracy", accuracy)],
        });
    }

    fn on_finished(&mut self) {
        if !self.is_enabled() {
            return;
        }
        let (pid, track_index) = self.scope("");
        let track = &self.tracks[track_index];
        let (tid, ts_us) = (track.tid, virtual_us(track.last_s));
        self.count("finished", 1);
        self.out.trace(&TraceEvent::Mark { name: "finished", pid, tid, ts_us, args: &[] });
    }

    fn on_step_context(&mut self, camera: &str, camera_index: usize, accelerator: usize) {
        if !self.is_enabled() {
            return;
        }
        self.context_pid = accelerator as u32;
        self.context_track = Some(self.camera_track_index(camera, camera_index));
    }

    fn on_window_barrier(&mut self, window_index: usize, boundary_s: f64) {
        if !self.is_enabled() {
            return;
        }
        self.cluster_window = window_index + 1;
        self.flush_cluster_window(window_index, boundary_s);
    }

    fn on_window_sample(&mut self, sample: &WindowSample<'_>) {
        if !self.is_enabled() {
            return;
        }
        let track_index = self.camera_track_index(sample.camera, sample.camera_index);
        let fields = [
            ("accelerator", FieldValue::Uint(sample.accelerator as u64)),
            ("now_s", FieldValue::Float(sample.now_s)),
            ("buffer_len", FieldValue::Uint(sample.buffer_len as u64)),
            ("buffer_fresh", FieldValue::Float(sample.buffer_fresh_fraction)),
            ("labels_local", FieldValue::Uint(sample.labels_local)),
            ("labels_cloud", FieldValue::Uint(sample.labels_cloud)),
            ("in_flight_cloud", FieldValue::Uint(sample.in_flight_cloud_labels as u64)),
            ("accuracy", FieldValue::Float(sample.accuracy.unwrap_or_default())),
        ];
        // The accuracy field only once the camera has measured one.
        let fields = &fields[..fields.len() - usize::from(sample.accuracy.is_none())];
        self.out.record(&MetricsRecord {
            kind: "window",
            window_index: sample.window_index,
            end_s: sample.boundary_s,
            scope: &self.tracks[track_index].name,
            fields,
        });
    }

    fn on_accelerator_sample(&mut self, sample: &AcceleratorSample) {
        if !self.is_enabled() {
            return;
        }
        // Every loop ends each mark it samples with this record.
        self.sampled_s =
            Some(self.sampled_s.map_or(sample.boundary_s, |s| s.max(sample.boundary_s)));
        let pid = sample.accelerator as u32;
        self.ensure_process(pid);
        self.out.record(&MetricsRecord {
            kind: "accelerator",
            window_index: sample.window_index,
            end_s: sample.boundary_s,
            scope: &self.accelerator_names[sample.accelerator],
            fields: &[
                ("busy_s", FieldValue::Float(sample.busy_s)),
                ("utilization", FieldValue::Float(sample.utilization)),
                ("live_sessions", FieldValue::Uint(sample.live_sessions as u64)),
                ("queued_sessions", FieldValue::Uint(sample.queued_sessions as u64)),
                ("event_depth", FieldValue::Uint(sample.event_depth as u64)),
                ("drained", FieldValue::Bool(sample.drained)),
            ],
        });
        self.out.trace(&TraceEvent::Counter {
            name: "utilization",
            pid,
            ts_us: virtual_us(sample.boundary_s),
            series: &[("utilization", sample.utilization)],
        });
    }

    fn on_share(&mut self, exporter: &str, importer: &str, admitted: usize, boundary_s: f64) {
        if !self.is_enabled() {
            return;
        }
        let importer_index = self.track_index(importer);
        let totals = self.tracks[importer_index].totals.get_or_insert_default();
        totals.labels_shared += admitted as u64;
        let args = [
            ("exporter", FieldValue::Text(exporter)),
            ("importer", FieldValue::Text(importer)),
            ("admitted", FieldValue::Uint(admitted as u64)),
        ];
        self.cluster_mark("labels_shared", admitted as u64, "share", boundary_s, &args);
    }

    fn on_offload_route(
        &mut self,
        camera: &str,
        route: LabelRoute,
        window_index: usize,
        boundary_s: f64,
    ) {
        if !self.is_enabled() {
            return;
        }
        let mut route_text = std::mem::take(&mut self.route_text);
        let (counter, text) = match route {
            LabelRoute::Local => ("routes_local", "local"),
            LabelRoute::Cloud { byte_budget: None } => ("routes_cloud", "cloud"),
            LabelRoute::Cloud { byte_budget: Some(budget) } => {
                route_text.clear();
                // Writing to a `String` cannot fail.
                write!(route_text, "cloud:{budget}").unwrap_or_default();
                ("routes_cloud", route_text.as_str())
            }
        };
        let args = [
            ("camera", FieldValue::Text(camera)),
            ("route", FieldValue::Text(text)),
            ("window", FieldValue::Uint(window_index as u64)),
        ];
        self.cluster_mark(counter, 1, "route", boundary_s, &args);
        self.route_text = route_text;
    }

    fn on_churn_join(&mut self, camera: &str, accelerator: Option<usize>, at_s: f64) {
        if !self.is_enabled() {
            return;
        }
        let placement =
            accelerator.map_or(FieldValue::Text("orphaned"), |a| FieldValue::Uint(a as u64));
        let args = [("camera", FieldValue::Text(camera)), ("accelerator", placement)];
        self.cluster_mark("joins", 1, "join", at_s, &args);
    }

    fn on_churn_leave(&mut self, camera: &str, at_s: f64) {
        if !self.is_enabled() {
            return;
        }
        self.cluster_mark("leaves", 1, "leave", at_s, &[("camera", FieldValue::Text(camera))]);
    }

    fn on_churn_drain(&mut self, accelerator: usize, at_s: f64) {
        if !self.is_enabled() {
            return;
        }
        let args = [("accelerator", FieldValue::Uint(accelerator as u64))];
        self.cluster_mark("drains", 1, "drain", at_s, &args);
    }

    fn on_migration(
        &mut self,
        camera: &str,
        from_accelerator: usize,
        to_accelerator: Option<usize>,
        at_s: f64,
    ) {
        if !self.is_enabled() {
            return;
        }
        let destination =
            to_accelerator.map_or(FieldValue::Text("orphaned"), |a| FieldValue::Uint(a as u64));
        let args = [
            ("camera", FieldValue::Text(camera)),
            ("from", FieldValue::Uint(from_accelerator as u64)),
            ("to", destination),
        ];
        self.cluster_mark("migrations", 1, "migration", at_s, &args);
    }

    fn on_uplink_transfer(&mut self, camera: &str, at_s: f64, bytes: u64, labels: usize) {
        if !self.is_enabled() {
            return;
        }
        let (pid, track_index) = self.scope(camera);
        self.ensure_thread(pid, track_index);
        self.count("uplink_bytes", bytes);
        self.count("labels_cloud", labels as u64);
        self.out.trace(&TraceEvent::Mark {
            name: "uplink",
            pid,
            tid: self.tracks[track_index].tid,
            ts_us: virtual_us(at_s),
            args: &[
                ("bytes", FieldValue::Uint(bytes)),
                ("labels", FieldValue::Uint(labels as u64)),
            ],
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A sink that shares its received lines with the test.
    struct CaptureSink {
        records: Arc<Mutex<Vec<String>>>,
        traces: Arc<Mutex<Vec<String>>>,
    }

    impl TelemetrySink for CaptureSink {
        fn on_trace_event(&mut self, event: &TraceEvent<'_>) -> Result<()> {
            self.traces.lock().unwrap().push(event.to_json());
            Ok(())
        }

        fn on_metrics_record(&mut self, record: &MetricsRecord<'_>) -> Result<()> {
            self.records.lock().unwrap().push(record.to_json_line());
            Ok(())
        }
    }

    type Shared = Arc<Mutex<Vec<String>>>;

    fn capture() -> (TelemetryRecorder, Shared, Shared) {
        let records = Arc::new(Mutex::new(Vec::new()));
        let traces = Arc::new(Mutex::new(Vec::new()));
        let sink = CaptureSink { records: Arc::clone(&records), traces: Arc::clone(&traces) };
        (TelemetryRecorder::new().with_sink(Box::new(sink)), records, traces)
    }

    #[test]
    fn recorder_without_sinks_is_disabled() {
        let recorder = TelemetryRecorder::new();
        assert!(!recorder.is_enabled());
        let recorder = TelemetryRecorder::new().with_sink_spec("null").unwrap();
        assert!(!recorder.is_enabled());
    }

    #[test]
    fn phases_become_spans_and_windows_flush_on_time_crossing() {
        let (mut recorder, records, traces) = capture();
        recorder = recorder.window_s(10.0);
        recorder.on_phase(&PhaseRecord {
            kind: PhaseKind::Label,
            start_s: 1.0,
            duration_s: 2.0,
            samples: 8,
            drift_response: false,
        });
        recorder.on_accuracy(5.0, 0.75);
        // Crossing into window 1 flushes window 0's camera record.
        recorder.on_phase(&PhaseRecord {
            kind: PhaseKind::Wait,
            start_s: 12.0,
            duration_s: 1.0,
            samples: 0,
            drift_response: false,
        });
        let summary = recorder.finish().unwrap();
        assert!(summary.trace_events >= 3);
        let records = records.lock().unwrap();
        let camera: Vec<&String> =
            records.iter().filter(|line| line.contains("\"kind\":\"camera\"")).collect();
        assert_eq!(camera.len(), 2, "{records:?}");
        assert!(camera[0].contains("\"window\":0"));
        assert!(camera[0].contains("\"labels\":8"));
        assert!(camera[0].contains("\"accuracy\":0.75"));
        assert!(camera[1].contains("\"window\":1"));
        let traces = traces.lock().unwrap();
        assert!(traces
            .iter()
            .any(|t| t.contains("\"name\":\"label\"") && t.contains("\"ph\":\"X\"")));
        assert!(traces.iter().any(|t| t.contains("process_name")));
    }

    #[test]
    fn cluster_hooks_produce_cluster_scoped_output() {
        let (mut recorder, records, traces) = capture();
        // A standalone session's track is named `session`, like the camera
        // stepped below: the two share one gauge.
        recorder.on_accuracy(0.5, 0.25);
        // Cameras stepped out of name order, each measuring once.
        recorder.on_step_context("cam-1", 1, 3);
        recorder.on_phase(&PhaseRecord {
            kind: PhaseKind::Retrain,
            start_s: 0.5,
            duration_s: 1.0,
            samples: 64,
            drift_response: false,
        });
        recorder.on_accuracy(1.5, 0.5);
        recorder.on_drift(2.0, 1);
        recorder.on_step_context("cam-0", 0, 0);
        recorder.on_phase(&PhaseRecord {
            kind: PhaseKind::Label,
            start_s: 2.0,
            duration_s: 1.0,
            samples: 8,
            drift_response: true,
        });
        recorder.on_accuracy(3.0, 0.75);
        recorder.on_uplink_transfer("cam-0", 3.0, 4096, 4);
        recorder.on_step_context("session", 2, 1);
        recorder.on_accuracy(4.0, 0.125);
        recorder.on_finished();
        recorder.on_share("cam-0", "cam-1", 5, 60.0);
        recorder.on_offload_route("cam-0", LabelRoute::Local, 0, 60.0);
        recorder.on_offload_route("cam-1", LabelRoute::Cloud { byte_budget: Some(512) }, 0, 60.0);
        recorder.on_churn_join("cam-2", Some(0), 60.0);
        recorder.on_churn_leave("cam-2", 60.0);
        recorder.on_churn_drain(1, 60.0);
        recorder.on_migration("cam-1", 3, None, 60.0);
        recorder.on_window_barrier(0, 60.0);
        recorder.finish().unwrap();
        // Counters in name order, then gauges in gauge-name order.
        assert_eq!(
            cluster_records(&records),
            ["{\"kind\":\"cluster\",\"window\":0,\"end_s\":60,\"scope\":\"cluster\",\
              \"drains\":1,\"drifts\":1,\"finished\":1,\"joins\":1,\"labels\":8,\
              \"labels_cloud\":4,\"labels_shared\":5,\"leaves\":1,\"migrations\":1,\
              \"routes_cloud\":1,\"routes_local\":1,\"steps\":2,\"uplink_bytes\":4096,\
              \"accuracy/cam-0\":0.75,\"accuracy/cam-1\":0.5,\"accuracy/session\":0.125}"]
        );
        let traces = traces.lock().unwrap();
        assert!(traces.iter().any(|t| t.contains("\"name\":\"share\"")));
        assert!(traces.iter().any(|t| t.contains("\"route\":\"cloud:512\"")));
        assert!(traces.iter().any(|t| t.contains("\"name\":\"cluster\"")));
        // The retrain span runs on accelerator 3 under camera cam-1's track.
        assert!(traces
            .iter()
            .any(|t| t.contains("\"name\":\"retrain\"") && t.contains("\"pid\":3")));
    }

    #[test]
    fn counters_drain_per_window_and_a_gauge_change_alone_writes_a_record() {
        let (mut recorder, records, _) = capture();
        recorder.on_step_context("cam-0", 0, 0);
        recorder.on_drift(1.0, 1);
        recorder.on_accuracy(2.0, 0.9);
        recorder.on_window_barrier(0, 60.0);
        recorder.on_accuracy(70.0, 0.8);
        recorder.on_window_barrier(1, 120.0);
        // Nothing changed in window 2: no record.
        recorder.on_window_barrier(2, 180.0);
        recorder.on_drift(190.0, 2);
        recorder.on_window_barrier(3, 240.0);
        recorder.finish().unwrap();
        let head = |window, end_s| {
            format!("{{\"kind\":\"cluster\",\"window\":{window},\"end_s\":{end_s},\"scope\":\"cluster\"")
        };
        assert_eq!(
            cluster_records(&records),
            [
                format!("{},\"drifts\":1,\"accuracy/cam-0\":0.9}}", head(0, 60)),
                format!("{},\"accuracy/cam-0\":0.8}}", head(1, 120)),
                format!("{},\"drifts\":1,\"accuracy/cam-0\":0.8}}", head(3, 240)),
            ]
        );
    }

    fn sample(window_index: usize, boundary_s: f64) -> (WindowSample<'static>, AcceleratorSample) {
        let camera = WindowSample {
            window_index,
            boundary_s,
            camera: "cam-0",
            camera_index: 0,
            accelerator: 0,
            now_s: boundary_s,
            accuracy: Some(0.5),
            buffer_len: 4,
            buffer_fresh_fraction: 1.0,
            labels_local: 0,
            labels_cloud: 0,
            in_flight_cloud_labels: 0,
        };
        let accelerator = AcceleratorSample {
            window_index,
            boundary_s,
            accelerator: 0,
            busy_s: 1.0,
            utilization: 1.0 / boundary_s,
            live_sessions: 1,
            queued_sessions: 0,
            event_depth: 1,
            drained: false,
        };
        (camera, accelerator)
    }

    fn cluster_records(records: &Shared) -> Vec<String> {
        let records = records.lock().unwrap();
        records.iter().filter(|line| line.contains("\"kind\":\"cluster\"")).cloned().collect()
    }

    #[test]
    fn a_barrier_after_which_nothing_changed_leaves_no_record_at_finish() {
        let (mut recorder, records, _) = capture();
        recorder.on_step_context("cam-0", 0, 0);
        recorder.on_accuracy(5.0, 0.5);
        recorder.on_window_barrier(0, 60.0);
        let (camera, accelerator) = sample(0, 60.0);
        recorder.on_window_sample(&camera);
        recorder.on_accelerator_sample(&accelerator);
        recorder.finish().unwrap();
        // The accuracy gauge still has a value, but no window follows the
        // barrier's own record.
        let cluster = cluster_records(&records);
        assert_eq!(cluster.len(), 1, "{cluster:?}");
        assert!(cluster[0].starts_with("{\"kind\":\"cluster\",\"window\":0,\"end_s\":60,"));
    }

    #[test]
    fn a_run_without_barriers_ends_its_one_cluster_record_at_the_last_sampled_mark() {
        let (mut recorder, records, _) = capture();
        recorder.on_step_context("cam-0", 0, 0);
        recorder.on_phase(&PhaseRecord {
            kind: PhaseKind::Wait,
            start_s: 100.0,
            duration_s: 30.0,
            samples: 0,
            drift_response: false,
        });
        for (window, boundary_s) in [(0, 60.0), (1, 120.0), (2, 180.0)] {
            let (camera, accelerator) = sample(window, boundary_s);
            recorder.on_window_sample(&camera);
            recorder.on_accelerator_sample(&accelerator);
        }
        recorder.finish().unwrap();
        let cluster = cluster_records(&records);
        assert_eq!(cluster.len(), 1, "{cluster:?}");
        assert!(
            cluster[0].starts_with("{\"kind\":\"cluster\",\"window\":0,\"end_s\":180,"),
            "{}",
            cluster[0]
        );
        assert!(cluster[0].contains("\"steps\":1"), "{}", cluster[0]);
    }

    #[test]
    fn sink_errors_surface_from_finish() {
        struct FailingSink;
        impl TelemetrySink for FailingSink {
            fn on_trace_event(&mut self, _event: &TraceEvent<'_>) -> Result<()> {
                Err(TelemetryError::InvalidConfig { reason: "boom".into() })
            }
        }
        let mut recorder = TelemetryRecorder::new().with_sink(Box::new(FailingSink));
        recorder.on_drift(1.0, 1);
        let err = match recorder.finish() {
            Err(err) => err,
            Ok(_) => panic!("sink error must surface"),
        };
        assert!(err.to_string().contains("boom"), "{err}");
    }
}
