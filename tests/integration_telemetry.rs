//! Telemetry integration: a null-sink recorder is bit-identical to a
//! telemetry-free run (proptested), trace and metrics files are
//! byte-identical across worker-thread counts, a mid-run snapshot/restore
//! reproduces the same tail of the camera metrics timeseries, and the
//! catch-all `on_event` hook sees exactly the events the typed hooks see.

use dacapo::telemetry::sink::TelemetrySink;
use dacapo::telemetry::{MetricsRecord, TelemetryRecorder};
use dacapo_bench::{ExperimentOptions, HostRecord, EXPERIMENTS};
use dacapo_core::platform::{KernelRate, PlatformRates, Sharing};
use dacapo_core::{
    ChurnPlan, Cluster, EdgeConfig, SchedulerKind, Session, SessionEvent, SimConfig, SimObserver,
};
use dacapo_datagen::{Scenario, Segment, SegmentAttributes};
use dacapo_dnn::zoo::ModelPair;
use proptest::prelude::*;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Fast synthetic platform so the many debug-mode simulations stay quick.
fn fast_platform() -> PlatformRates {
    PlatformRates::new(
        "telemetry-test",
        KernelRate::fp32(90.0),
        KernelRate::fp32(30.0),
        KernelRate::fp32(100.0),
        Sharing::Partitioned { tsa_rows: 12, bsa_rows: 4 },
        2.0,
    )
    .expect("test rates are valid")
}

/// A short scenario with one label-distribution drift halfway through.
fn drifting_scenario(total_s: f64) -> Scenario {
    let first = SegmentAttributes::default();
    let second = SegmentAttributes { labels: dacapo_datagen::LabelDistribution::All, ..first };
    Scenario::try_from_segments(
        "telemetry",
        vec![
            Segment { attributes: first, duration_s: total_s / 2.0 },
            Segment { attributes: second, duration_s: total_s / 2.0 },
        ],
    )
    .expect("test scenario is valid")
}

fn camera_config(seed: u64, duration_s: f64, edge: bool) -> SimConfig {
    let mut builder = SimConfig::builder(drifting_scenario(duration_s), ModelPair::ResNet18Wrn50)
        .platform_rates(fast_platform())
        .scheduler(SchedulerKind::DaCapoSpatiotemporal)
        .measurement(10.0, 8)
        .pretrain_samples(48)
        .seed(seed);
    if edge {
        builder = builder.edge(EdgeConfig::new("broadband"));
    }
    builder.build().expect("camera config builds")
}

/// A cluster exercising every hook family: shared accelerators, label
/// sharing, churn (join, leave, drain), and edge offload.
fn busy_cluster(cameras: usize, seed: u64, threads: usize) -> Cluster {
    let mut cluster = Cluster::new(2)
        .arbiter("fair-share")
        .share("broadcast")
        .share_window_s(15.0)
        .offload("cloud-only")
        .churn(
            ChurnPlan::new()
                .join(16.0, "joiner", camera_config(seed ^ 0xACE, 30.0, true))
                .leave(30.0, "cam-0")
                .drain(31.0, 1),
        )
        .threads(threads);
    for i in 0..cameras {
        cluster = cluster
            .camera(format!("cam-{i}"), camera_config(seed.wrapping_add(i as u64), 45.0, true));
    }
    cluster
}

/// A test sink capturing everything it receives in shared vectors.
struct CaptureSink {
    traces: Arc<Mutex<Vec<String>>>,
    records: Arc<Mutex<Vec<String>>>,
}

impl TelemetrySink for CaptureSink {
    fn on_trace_event(
        &mut self,
        event: &dacapo::telemetry::TraceEvent<'_>,
    ) -> Result<(), dacapo::telemetry::TelemetryError> {
        self.traces.lock().expect("no poisoned locks in tests").push(event.to_json());
        Ok(())
    }

    fn on_metrics_record(
        &mut self,
        record: &MetricsRecord<'_>,
    ) -> Result<(), dacapo::telemetry::TelemetryError> {
        self.records.lock().expect("no poisoned locks in tests").push(record.to_json_line());
        Ok(())
    }
}

type Captured = (Arc<Mutex<Vec<String>>>, Arc<Mutex<Vec<String>>>);

fn capturing_recorder() -> (TelemetryRecorder, Captured) {
    let traces = Arc::new(Mutex::new(Vec::new()));
    let records = Arc::new(Mutex::new(Vec::new()));
    let sink = CaptureSink { traces: Arc::clone(&traces), records: Arc::clone(&records) };
    (TelemetryRecorder::new().with_sink(Box::new(sink)), (traces, records))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The ISSUE's fast-path property: observing a run through a recorder
    /// whose only configured sink is the reserved `null` sink produces the
    /// exact `ClusterResult` of a telemetry-free run — fleet, contention,
    /// share, churn, and edge metrics alike.
    #[test]
    fn null_sink_observed_runs_are_bit_identical_to_plain_runs(
        cameras in 2usize..4,
        seed in 0u64..1_000,
        threads in 1usize..4,
    ) {
        let plain = busy_cluster(cameras, seed, threads).run().expect("plain run");
        let mut recorder =
            TelemetryRecorder::new().with_sink_spec("null").expect("null spec is reserved");
        prop_assert!(!recorder.is_enabled());
        let observed = busy_cluster(cameras, seed, threads)
            .run_with(&mut recorder)
            .expect("null-observed run");
        prop_assert_eq!(plain, observed);
        let summary = recorder.finish().expect("disabled recorder finishes");
        prop_assert_eq!(summary.trace_events, 0);
        prop_assert_eq!(summary.metrics_records, 0);
    }
}

/// The trace-determinism acceptance criterion: the same cluster traced at
/// 1, 2, and 8 worker threads produces byte-identical chrome-trace and
/// json-lines files.
#[test]
fn trace_and_metrics_files_are_byte_identical_across_thread_counts() {
    let dir = std::env::temp_dir().join("dacapo_telemetry_threads_test");
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let mut outputs = Vec::new();
    for threads in [1usize, 2, 8] {
        let trace_path = dir.join(format!("trace_{threads}.json"));
        let metrics_path = dir.join(format!("metrics_{threads}.jsonl"));
        let mut recorder = TelemetryRecorder::new()
            .with_sink_spec(&format!("chrome-trace:{}", trace_path.display()))
            .and_then(|r| r.with_sink_spec(&format!("json-lines:{}", metrics_path.display())))
            .expect("builtin sink specs parse");
        let result =
            busy_cluster(3, 7, threads).run_with(&mut recorder).expect("traced run completes");
        let summary = recorder.finish().expect("sinks flush");
        assert!(summary.trace_events > 0, "threads={threads} recorded no trace events");
        assert!(summary.metrics_records > 0, "threads={threads} recorded no metrics");
        let trace = std::fs::read(&trace_path).expect("trace file written");
        let metrics = std::fs::read(&metrics_path).expect("metrics file written");
        outputs.push((threads, result, trace, metrics));
    }
    let (_, result_1, trace_1, metrics_1) = &outputs[0];
    for (threads, result, trace, metrics) in &outputs[1..] {
        assert_eq!(result, result_1, "results diverged at {threads} threads");
        assert_eq!(trace, trace_1, "trace bytes diverged at {threads} threads");
        assert_eq!(metrics, metrics_1, "metrics bytes diverged at {threads} threads");
    }
}

/// Where the pinned sink outputs live (see [`the_file_sinks_write_the_pinned_bytes`]).
const PINNED_DIR: &str = "tests/fixtures/golden/telemetry";

/// Compares a written sink file with its pinned copy; the error names the
/// first differing line.
fn check_pinned(written: &Path, fixture: &str) -> Result<(), String> {
    let now = std::fs::read_to_string(written).expect("sink file written");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(PINNED_DIR).join(fixture);
    let pinned = std::fs::read_to_string(&path).expect("pinned sink output is readable");
    if now == pinned {
        return Ok(());
    }
    let line = now.lines().zip(pinned.lines()).take_while(|(a, b)| a == b).count() + 1;
    let show = |text: &str| text.lines().nth(line - 1).unwrap_or("<end>").to_string();
    Err(format!(
        "{fixture}: {} differs from {PINNED_DIR}/{fixture}, first at line {line}\n  pinned: {}\n  \
         now:    {}",
        written.display(),
        show(&pinned),
        show(&now),
    ))
}

/// Runs `observe` through a recorder with both builtin file sinks and
/// compares the two files with their pinned copies `<stem>.trace.json` and
/// `<stem>.metrics.jsonl`.
fn assert_sinks_write_pinned_bytes(
    stem: &str,
    window_s: f64,
    observe: impl FnOnce(&mut TelemetryRecorder),
) {
    let dir = std::env::temp_dir().join("dacapo_telemetry_pinned_test");
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let trace = format!("{stem}.trace.json");
    let metrics = format!("{stem}.metrics.jsonl");
    let mut recorder = TelemetryRecorder::new()
        .window_s(window_s)
        .with_sink_spec(&format!("chrome-trace:{}", dir.join(&trace).display()))
        .and_then(|r| r.with_sink_spec(&format!("json-lines:{}", dir.join(&metrics).display())))
        .expect("builtin sink specs parse");
    observe(&mut recorder);
    recorder.finish().expect("sinks flush");
    let checks =
        [check_pinned(&dir.join(&trace), &trace), check_pinned(&dir.join(&metrics), &metrics)];
    let failures: Vec<String> = checks.into_iter().filter_map(Result::err).collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The sink byte pin: the chrome-trace and json-lines files of a cluster
/// firing every hook family, and of one standalone session (its
/// camera-window records), are byte for byte the files the buffering sinks
/// wrote before the sinks streamed. Equality across thread counts alone
/// would let a rewrite move the output unnoticed.
#[test]
fn the_file_sinks_write_the_pinned_bytes() {
    assert_sinks_write_pinned_bytes("busy_cluster", 60.0, |recorder| {
        busy_cluster(3, 7, 1).run_with(recorder).expect("traced run completes");
    });
    assert_sinks_write_pinned_bytes("session", 10.0, |recorder| {
        let mut session = Session::new(camera_config(11, 60.0, false)).expect("session builds");
        session.run_with(recorder).expect("traced session completes");
    });
}

/// The debug-profile half of the traced smoke run's pin (CI `cmp`s the
/// release binary's files against the same copies): `cluster_contention
/// --smoke --trace <path> --metrics <path>` writes the pinned files.
#[test]
fn the_traced_smoke_run_writes_the_pinned_bytes() {
    let dir = std::env::temp_dir().join("dacapo_telemetry_pinned_smoke_test");
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let (trace, metrics) = ("cluster_contention.trace.json", "cluster_contention.metrics.jsonl");
    let options = ExperimentOptions {
        smoke: true,
        quick: true,
        trace: Some(dir.join(trace).display().to_string()),
        metrics: Some(dir.join(metrics).display().to_string()),
        ..ExperimentOptions::default()
    };
    let experiment =
        EXPERIMENTS.iter().find(|e| e.name == "cluster_contention").expect("listed in EXPERIMENTS");
    if let Err(failure) =
        (experiment.run)(&options, &mut HostRecord::new(experiment.name, &options))
    {
        panic!("traced smoke run failed: {}", failure.0);
    }
    let checks = [check_pinned(&dir.join(trace), trace), check_pinned(&dir.join(metrics), metrics)];
    let failures: Vec<String> = checks.into_iter().filter_map(Result::err).collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Cameras placed at a churn barrier are in that barrier's window samples:
/// the join barrier's hold the joiner on the accelerator it was placed on,
/// and the drain barrier's hold every migrant under its destination.
#[test]
fn cameras_placed_at_a_churn_barrier_are_sampled_there() {
    #[derive(Default)]
    struct Placements {
        /// `(camera, accelerator, barrier)` of every join and migration.
        placed: Vec<(String, usize, f64)>,
        /// `(camera, accelerator, mark)` of every window sample.
        sampled: Vec<(String, usize, f64)>,
    }
    impl SimObserver for Placements {
        fn on_churn_join(&mut self, camera: &str, accelerator: Option<usize>, at_s: f64) {
            self.placed.extend(accelerator.map(|accel| (camera.to_string(), accel, at_s)));
        }
        fn on_migration(&mut self, camera: &str, _from: usize, to: Option<usize>, at_s: f64) {
            self.placed.extend(to.map(|accel| (camera.to_string(), accel, at_s)));
        }
        fn on_window_sample(&mut self, sample: &dacapo_core::WindowSample<'_>) {
            self.sampled.push((sample.camera.to_string(), sample.accelerator, sample.boundary_s));
        }
    }
    let mut observer = Placements::default();
    busy_cluster(3, 7, 1).run_with(&mut observer).expect("observed run completes");
    // The join at 16 s lands at the 30 s barrier; the drain at 31 s moves
    // accelerator 1's two residents (cam-1 and the joiner) at the 45 s one.
    let placed: Vec<(&str, usize, f64)> = observer
        .placed
        .iter()
        .map(|(camera, accel, at_s)| (camera.as_str(), *accel, *at_s))
        .collect();
    assert_eq!(placed, [("joiner", 1, 30.0), ("cam-1", 0, 45.0), ("joiner", 0, 45.0)]);
    for placement in &observer.placed {
        assert!(
            observer.sampled.contains(placement),
            "{placement:?} is missing from its barrier's samples {:?}",
            observer.sampled
        );
    }
}

/// The snapshot-parity criterion for telemetry: restore a session from a
/// mid-run snapshot and record its remainder — every camera-window record
/// for windows after the snapshot point matches the same windows from an
/// uninterrupted recorded run.
#[test]
fn restored_sessions_reproduce_the_metrics_timeseries_tail() {
    let window_s = 10.0;
    let camera_records = |records: &Arc<Mutex<Vec<String>>>| -> Vec<String> {
        records
            .lock()
            .expect("no poisoned locks in tests")
            .iter()
            .filter(|line| line.contains("\"kind\":\"camera\""))
            .cloned()
            .collect()
    };

    // Uninterrupted recorded run.
    let (mut full_recorder, (_, full_records)) = capturing_recorder();
    full_recorder = full_recorder.window_s(window_s);
    let mut session = Session::new(camera_config(11, 60.0, false)).expect("session builds");
    session.run_with(&mut full_recorder).expect("full run completes");
    let expected = session.into_result();
    full_recorder.finish().expect("full recorder finishes");
    let full_camera = camera_records(&full_records);
    assert!(full_camera.len() > 2, "run too short to have a tail: {full_camera:?}");

    // Same config: step partway (unobserved), snapshot, restore, record the
    // remainder.
    let mut session = Session::new(camera_config(11, 60.0, false)).expect("session builds");
    while session.now_s() < 25.0 && !session.is_finished() {
        session.step().expect("step succeeds");
    }
    let snapshot_s = session.now_s();
    let snapshot = session.snapshot();
    let mut restored = Session::restore(snapshot).expect("snapshot restores");
    let (mut tail_recorder, (_, tail_records)) = capturing_recorder();
    tail_recorder = tail_recorder.window_s(window_s);
    restored.run_with(&mut tail_recorder).expect("restored run completes");
    assert_eq!(restored.into_result(), expected, "restored run diverged");
    tail_recorder.finish().expect("tail recorder finishes");
    let tail_camera = camera_records(&tail_records);

    // Windows that begin strictly after the snapshot aggregate only
    // post-snapshot events, so the two recordings must agree on them.
    let first_clean_window = (snapshot_s / window_s).floor() as usize + 1;
    let clean = |records: &[String]| -> Vec<String> {
        records
            .iter()
            .filter(|line| {
                (first_clean_window..first_clean_window + 100)
                    .any(|w| line.contains(&format!("\"window\":{w},")))
            })
            .cloned()
            .collect()
    };
    let expected_tail = clean(&full_camera);
    assert!(!expected_tail.is_empty(), "no windows after the snapshot at {snapshot_s}s");
    assert_eq!(clean(&tail_camera), expected_tail, "metrics tail diverged after restore");
}

/// An observer counting both the catch-all `on_event` hook and every typed
/// event hook.
#[derive(Default)]
struct Counting {
    events: usize,
    phases: usize,
    drifts: usize,
    accuracies: usize,
    finishes: usize,
    barriers: usize,
    window_samples: usize,
    accelerator_samples: usize,
    shares: usize,
    routes: usize,
    joins: usize,
    leaves: usize,
    drains: usize,
    migrations: usize,
    uplinks: usize,
}

impl SimObserver for Counting {
    fn on_event(&mut self, event: &SessionEvent) {
        self.events += 1;
        // The catch-all must stay exhaustive: new variants break this match
        // at compile time, which is exactly the regression guard.
        match event {
            SessionEvent::Phase(_)
            | SessionEvent::Drift { .. }
            | SessionEvent::Accuracy { .. }
            | SessionEvent::Finished => {}
        }
    }
    fn on_phase(&mut self, _phase: &dacapo_core::PhaseRecord) {
        self.phases += 1;
    }
    fn on_drift(&mut self, _at_s: f64, _response_index: usize) {
        self.drifts += 1;
    }
    fn on_accuracy(&mut self, _at_s: f64, _accuracy: f64) {
        self.accuracies += 1;
    }
    fn on_finished(&mut self) {
        self.finishes += 1;
    }
    fn on_window_barrier(&mut self, _window_index: usize, _boundary_s: f64) {
        self.barriers += 1;
    }
    fn on_window_sample(&mut self, _sample: &dacapo_core::WindowSample<'_>) {
        self.window_samples += 1;
    }
    fn on_accelerator_sample(&mut self, _sample: &dacapo_core::AcceleratorSample) {
        self.accelerator_samples += 1;
    }
    fn on_share(&mut self, _exporter: &str, _importer: &str, _admitted: usize, _boundary_s: f64) {
        self.shares += 1;
    }
    fn on_offload_route(
        &mut self,
        _camera: &str,
        _route: dacapo_core::LabelRoute,
        _window_index: usize,
        _boundary_s: f64,
    ) {
        self.routes += 1;
    }
    fn on_churn_join(&mut self, _camera: &str, _accelerator: Option<usize>, _at_s: f64) {
        self.joins += 1;
    }
    fn on_churn_leave(&mut self, _camera: &str, _at_s: f64) {
        self.leaves += 1;
    }
    fn on_churn_drain(&mut self, _accelerator: usize, _at_s: f64) {
        self.drains += 1;
    }
    fn on_migration(
        &mut self,
        _camera: &str,
        _from_accelerator: usize,
        _to_accelerator: Option<usize>,
        _at_s: f64,
    ) {
        self.migrations += 1;
    }
    fn on_uplink_transfer(&mut self, _camera: &str, _at_s: f64, _bytes: u64, _labels: usize) {
        self.uplinks += 1;
    }
}

/// The `forward()` regression guard: the catch-all `on_event` hook fires
/// exactly once per typed session event, and every barrier-time hook family
/// fires on a cluster built to exercise it.
#[test]
fn catch_all_hook_matches_typed_hooks_and_every_family_fires() {
    let mut counting = Counting::default();
    busy_cluster(3, 3, 1).run_with(&mut counting).expect("observed run completes");
    assert_eq!(
        counting.events,
        counting.phases + counting.drifts + counting.accuracies + counting.finishes,
        "on_event must fire exactly once per typed session event",
    );
    assert!(counting.events > 0);
    assert!(counting.phases > 0);
    assert!(counting.accuracies > 0);
    assert!(counting.finishes > 0, "every camera run emits a Finished event");
    assert!(counting.barriers > 0, "the share, offload and churn stages give the run windows");
    assert!(counting.window_samples > 0);
    assert!(counting.accelerator_samples > 0);
    assert!(counting.shares > 0, "broadcast sharing admits labels");
    assert!(counting.routes > 0, "cloud-only offload routes every camera");
    assert_eq!(counting.joins, 1, "the churn plan schedules one join");
    assert_eq!(counting.leaves, 1, "the churn plan schedules one leave");
    assert_eq!(counting.drains, 1, "the churn plan schedules one drain");
    assert!(counting.uplinks > 0, "cloud labeling ships bytes on the uplink");
}
