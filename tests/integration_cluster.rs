//! Cluster executor integration: the dedicated-accelerator cluster is
//! bit-identical to solo `Session` runs, contention never
//! changes per-camera numbers, a 100-camera contended cluster is fully
//! deterministic across runs, finite windows reproduce the one unbounded
//! window exactly, and a failing accelerator surfaces the same typed error
//! at any thread count.

use dacapo_core::arbiter::{self, Arbiter, GrantRequest};
use dacapo_core::platform::{KernelRate, PlatformRates, Sharing};
use dacapo_core::share::{self, ShareContext, SharePolicy};
use dacapo_core::{
    AdmissionPolicy, ClSimulator, Cluster, ClusterResult, CoreError, SchedulerKind, SimConfig,
    SimObserver,
};
use dacapo_datagen::{Scenario, Segment, SegmentAttributes};
use dacapo_dnn::zoo::ModelPair;
use proptest::prelude::*;

/// Fast synthetic platform so the many debug-mode simulations stay quick.
fn fast_platform() -> PlatformRates {
    PlatformRates::new(
        "cluster-test",
        KernelRate::fp32(90.0),
        KernelRate::fp32(30.0),
        KernelRate::fp32(100.0),
        Sharing::Partitioned { tsa_rows: 12, bsa_rows: 4 },
        2.0,
    )
    .expect("test rates are valid")
}

/// A short scenario with one label-distribution drift at `drift_s`.
fn drifting_scenario(name: &str, drift_s: f64, total_s: f64) -> Scenario {
    let first = SegmentAttributes::default();
    let second = SegmentAttributes { labels: dacapo_datagen::LabelDistribution::All, ..first };
    Scenario::try_from_segments(
        name.to_string(),
        vec![
            Segment { attributes: first, duration_s: drift_s },
            Segment { attributes: second, duration_s: total_s - drift_s },
        ],
    )
    .expect("drifting test scenario is valid")
}

fn camera_config(seed: u64, duration_s: f64) -> SimConfig {
    SimConfig::builder(
        drifting_scenario("cl", duration_s / 2.0, duration_s),
        ModelPair::ResNet18Wrn50,
    )
    .platform_rates(fast_platform())
    .scheduler(SchedulerKind::DaCapoSpatiotemporal)
    .measurement(10.0, 8)
    .pretrain_samples(48)
    .seed(seed)
    .build()
    .expect("camera config builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A cluster with one dedicated accelerator per camera is a fleet of
    /// solo runs: every per-camera `SimResult` equals that camera's solo
    /// `Session` run.
    #[test]
    fn dedicated_accelerator_cluster_is_bit_identical_to_fleet(
        cameras in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let configs: Vec<(String, SimConfig)> = (0..cameras)
            .map(|i| (format!("cam-{i}"), camera_config(seed.wrapping_add(i as u64), 60.0)))
            .collect();

        let mut cluster = Cluster::new(cameras).threads(2);
        for (name, config) in &configs {
            cluster = cluster.camera(name.clone(), config.clone());
        }
        let cluster_result = cluster.run().expect("cluster runs");
        prop_assert_eq!(cluster_result.fleet.cameras.len(), cameras);
        // No shared accelerator: nothing ever stretches.
        prop_assert!((cluster_result.contention.max_step_stretch - 1.0).abs() < 1e-12);

        for (name, config) in configs {
            let solo = ClSimulator::new(config).unwrap().run().unwrap();
            let from_cluster = cluster_result.camera(&name).expect("camera present");
            prop_assert_eq!(from_cluster, &solo, "{}: cluster diverged from solo run", name);
        }
    }

    /// Contention reshapes the cluster clock but never a camera's numbers:
    /// squeezing the same cameras onto one shared accelerator leaves every
    /// per-camera result (and thus the fleet aggregates) bit-identical.
    #[test]
    fn contention_never_changes_per_camera_results(
        cameras in 2usize..4,
        seed in 0u64..1_000_000,
        arbiter_index in 0usize..3,
    ) {
        let arbiter = ["fair-share", "priority:2,1", "drift-first:3"][arbiter_index];
        let build = |accelerators: usize| {
            let mut cluster = Cluster::new(accelerators).arbiter(arbiter);
            for i in 0..cameras {
                cluster = cluster.camera(
                    format!("cam-{i}"),
                    camera_config(seed.wrapping_add(i as u64), 60.0),
                );
            }
            cluster
        };
        let dedicated = build(cameras).run().expect("dedicated cluster runs");
        let contended = build(1).run().expect("contended cluster runs");
        prop_assert_eq!(&dedicated.fleet, &contended.fleet);
        prop_assert!(
            contended.contention.makespan_s >= dedicated.contention.makespan_s - 1e-9,
            "sharing one accelerator cannot finish earlier than dedicated hardware"
        );
    }
}

/// Registers `zero-admit`, a share policy that admits nothing: an exchange
/// stage that gives a run finite windows and changes no camera's numbers,
/// only the share metrics.
fn register_zero_admit() {
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
}

/// `result` with `reference`'s share metrics: the whole result but the part
/// a zero-admit exchange stage legitimately changes.
fn except_share(mut result: ClusterResult, reference: &ClusterResult) -> ClusterResult {
    result.share = reference.share.clone();
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Finite ≡ unbounded windows: an exchange stage that admits nothing
    /// cuts the run into `share_window_s` windows (sessions admitted in
    /// window 0, a barrier at every boundary) where `run` executes one
    /// unbounded window. The whole `ClusterResult` but the share metrics —
    /// camera results, contention, churn peak residency, edge — must not
    /// notice, at any window length, capacity bound or thread count,
    /// observed or not.
    #[test]
    fn finite_windows_reproduce_the_unbounded_window_exactly(
        cameras in 3usize..7,
        seed in 0u64..1_000_000,
        window_index in 0usize..4,
        capacity in 1usize..4,
    ) {
        let window_s = [0.5, 5.0, 60.0, 1e6][window_index];
        let build = |threads: usize| {
            let mut cluster = Cluster::new(2)
                .threads(threads)
                .share_window_s(window_s)
                .capacity_per_accelerator(capacity)
                .admission(AdmissionPolicy::Queue);
            for i in 0..cameras {
                cluster = cluster
                    .camera(format!("cam-{i}"), camera_config(seed.wrapping_add(i as u64), 40.0));
            }
            cluster
        };
        register_zero_admit();
        let unbounded = build(1).run().expect("unobserved run");
        prop_assert_eq!(unbounded.churn.peak_residency, cameras.min(2 * capacity));
        for threads in [1, 2, 8] {
            let plain = build(threads).run().expect("unobserved run");
            prop_assert_eq!(&plain, &unbounded, "{} threads, unobserved", threads);
            let windowed =
                build(threads).share("zero-admit").run_with(&mut ()).expect("observed run");
            prop_assert_eq!(
                &except_share(windowed, &unbounded),
                &unbounded,
                "{} threads, {} s windows",
                threads,
                window_s
            );
        }
    }
}

/// The ISSUE's determinism criterion: two runs of a 100-camera contended
/// cluster produce identical `ClusterResult`s — metrics, contention
/// telemetry, everything.
#[test]
fn hundred_camera_contended_cluster_is_deterministic() {
    let build = || {
        let mut cluster = Cluster::new(4).arbiter("drift-first:2").threads(4);
        for i in 0..100 {
            cluster =
                cluster.camera(format!("cam-{i:03}"), camera_config(0xDE7E_4215 + i as u64, 20.0));
        }
        cluster
    };
    let first = build().run().expect("first run completes");
    let second = build().run().expect("second run completes");
    assert_eq!(first, second);
    assert_eq!(first.fleet.cameras.len(), 100);
    // 100 cameras round-robin over 4 accelerators: 25 residents each.
    assert_eq!(first.contention.peak_queue_depth, 100);
    assert!(first.contention.p99_step_stretch > 1.0, "a 25-way share must stretch steps");
    // Thread count is irrelevant to the outcome.
    let serial = build().threads(1).run().expect("serial run completes");
    assert_eq!(first, serial);
}

#[test]
fn queued_admission_serialises_overflow_cameras_without_changing_results() {
    let configs: Vec<(String, SimConfig)> =
        (0..3).map(|i| (format!("cam-{i}"), camera_config(0xAD417 + i as u64, 40.0))).collect();
    let build = || {
        let mut cluster = Cluster::new(1);
        for (name, config) in &configs {
            cluster = cluster.camera(name.clone(), config.clone());
        }
        cluster
    };
    let unbounded = build().run().expect("unbounded cluster runs");
    let queued = build()
        .capacity_per_accelerator(1)
        .admission(AdmissionPolicy::Queue)
        .run()
        .expect("queued cluster runs");
    assert_eq!(unbounded.fleet, queued.fleet);
    assert_eq!(queued.contention.queued_cameras, 2);
    // Serialised cameras never contend…
    assert!((queued.contention.max_step_stretch - 1.0).abs() < 1e-12);
    // …and the makespan is the whole back-to-back span.
    let total: f64 = queued.fleet.cameras.iter().map(|c| c.result.duration_s).sum();
    assert!(queued.contention.makespan_s >= total - 1e-6);

    let rejected = build().capacity_per_accelerator(2).admission(AdmissionPolicy::Reject).run();
    match rejected {
        Err(CoreError::AdmissionRejected { camera, .. }) => assert_eq!(camera, "cam-2"),
        other => panic!("expected AdmissionRejected, got {other:?}"),
    }
}

#[test]
fn cluster_observer_sees_every_event_of_every_camera() {
    #[derive(Default)]
    struct Counter {
        phases: usize,
        accuracy: usize,
        drifts: usize,
        finished: usize,
    }
    impl SimObserver for Counter {
        fn on_phase(&mut self, _phase: &dacapo_core::PhaseRecord) {
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

    let mut cluster = Cluster::new(2);
    for i in 0..4 {
        cluster = cluster.camera(format!("cam-{i}"), camera_config(0x0B5 + i as u64, 40.0));
    }
    let mut counter = Counter::default();
    let result = cluster.run_with(&mut counter).expect("observed cluster runs");
    let phases: usize = result.fleet.cameras.iter().map(|c| c.result.phases.len()).sum();
    let accuracy: usize =
        result.fleet.cameras.iter().map(|c| c.result.accuracy_timeline.len()).sum();
    assert_eq!(counter.phases, phases);
    assert_eq!(counter.accuracy, accuracy);
    assert_eq!(counter.drifts, result.fleet.total_drift_responses);
    assert_eq!(counter.finished, 4);
}

/// An arbiter that misbehaves on its first grant: NaN for `"hostile:nan"`,
/// a panic for `"hostile:panic"`.
struct Hostile {
    panics: bool,
}

impl Arbiter for Hostile {
    fn name(&self) -> String {
        "hostile".to_string()
    }
    fn grant(&mut self, request: &GrantRequest<'_>) -> f64 {
        assert!(!self.panics, "hostile arbiter panics for camera '{}'", request.camera);
        f64::NAN
    }
}

/// Nine cameras round-robin over three accelerators, every one of which
/// fails on its first arbitrated step.
fn hostile_cluster(mode: &str, threads: usize) -> Cluster {
    arbiter::register("hostile", |params| {
        Ok(Box::new(Hostile { panics: params == Some("panic") }))
    });
    let mut cluster = Cluster::new(3).arbiter(format!("hostile:{mode}")).threads(threads);
    for i in 0..9 {
        cluster = cluster.camera(format!("cam-{i}"), camera_config(0xBAD + i as u64, 40.0));
    }
    cluster
}

/// All three accelerators fail, concurrently when threaded — and the error
/// that surfaces is always accelerator 0's (its first arbitrated camera is
/// `cam-0`), never whichever worker lost the race.
#[test]
fn the_lowest_failing_accelerator_reports_at_any_thread_count() {
    let serial = hostile_cluster("nan", 1).run().unwrap_err().to_string();
    assert!(serial.contains("invalid capacity share") && serial.contains("'cam-0'"), "{serial}");
    for threads in [2, 8] {
        for _ in 0..8 {
            assert_eq!(hostile_cluster("nan", threads).run().unwrap_err().to_string(), serial);
        }
    }
}

/// A plugin panicking on a worker thread is contained: the run ends in a
/// typed error naming the lowest-indexed accelerator whose worker died,
/// instead of re-panicking out of the thread scope.
#[test]
fn a_panicking_plugin_on_a_worker_becomes_a_typed_error() {
    for threads in [2, 8] {
        match hostile_cluster("panic", threads).run() {
            Err(CoreError::WorkerPanicked { accelerator: 0 }) => {}
            other => panic!("expected WorkerPanicked for accelerator 0, got {other:?}"),
        }
    }
}
