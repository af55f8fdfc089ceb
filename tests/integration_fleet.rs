//! Fleets of independent cameras: many camera sessions, each on a dedicated
//! accelerator of one `Cluster`, across worker threads, with per-camera
//! determinism guarantees.
//!
//! The key property: a parallel run of eight cameras on distinct scenarios
//! and eight dedicated accelerators produces per-camera results that are
//! **bit-identical** to running each camera's `Session` alone with the same
//! seed — threading changes wall-clock time, never metrics.

use dacapo_core::platform::{self, KernelRate, PlatformRequest, Sharing};
use dacapo_core::{
    ClSimulator, Cluster, FleetResult, PlatformRates, Result, SchedulerKind, Session, SessionEvent,
    SimConfig,
};
use dacapo_datagen::{Scenario, Segment, SegmentAttributes};
use dacapo_dnn::zoo::ModelPair;

/// Fast synthetic platform so the eight debug-mode simulations stay quick.
fn fast_platform() -> PlatformRates {
    PlatformRates::new(
        "fleet-test",
        KernelRate::fp32(90.0),
        KernelRate::fp32(30.0),
        KernelRate::fp32(100.0),
        Sharing::Partitioned { tsa_rows: 12, bsa_rows: 4 },
        2.0,
    )
    .expect("test rates are valid")
}

/// One camera per paper scenario (S1–S6, ES1, ES2), truncated to the first
/// two segments so the whole fleet finishes fast in debug builds, each with
/// its own seed.
fn camera_configs() -> Vec<(String, SimConfig)> {
    Scenario::all()
        .into_iter()
        .enumerate()
        .map(|(i, scenario)| {
            let short = Scenario::try_from_segments(
                scenario.name().to_string(),
                scenario.segments().iter().copied().take(2).collect(),
            )
            .expect("segments are non-empty with positive durations");
            let config = SimConfig::builder(short, ModelPair::ResNet18Wrn50)
                .platform_rates(fast_platform())
                .scheduler(SchedulerKind::DaCapoSpatiotemporal)
                .measurement(10.0, 15)
                .pretrain_samples(96)
                .seed(0xF1EE7 + i as u64)
                .build()
                .expect("camera config builds");
            (format!("cam-{i}-{}", scenario.name()), config)
        })
        .collect()
}

/// Runs `configs` as a fleet: one dedicated accelerator per camera.
fn run_fleet(configs: &[(String, SimConfig)], threads: usize) -> FleetResult {
    let mut cluster = Cluster::new(configs.len()).threads(threads);
    for (name, config) in configs {
        cluster = cluster.camera(name.clone(), config.clone());
    }
    cluster.run().expect("fleet runs").fleet
}

#[test]
fn eight_camera_fleet_is_bit_identical_to_solo_sessions() {
    let configs = camera_configs();
    assert!(configs.len() >= 8, "the paper defines eight scenarios");

    let fleet_result = run_fleet(&configs, 4);
    assert_eq!(fleet_result.cameras.len(), configs.len());

    for (name, config) in configs {
        let solo = ClSimulator::new(config).unwrap().run().unwrap();
        let from_fleet = fleet_result.camera(&name).expect("camera present");
        assert_eq!(from_fleet, &solo, "{name}: fleet result diverged from solo run");
    }
}

#[test]
fn fleet_aggregates_are_consistent_with_per_camera_metrics() {
    let configs: Vec<_> = camera_configs().into_iter().take(4).collect();
    let result = run_fleet(&configs, 3);

    let accuracies: Vec<f64> = result.cameras.iter().map(|c| c.result.mean_accuracy).collect();
    let mean = accuracies.iter().sum::<f64>() / accuracies.len() as f64;
    assert!((result.mean_accuracy - mean).abs() < 1e-12);
    assert!(result.min_accuracy <= result.p10_accuracy + 1e-12);
    assert!(result.p10_accuracy <= result.p50_accuracy + 1e-12);
    assert!(accuracies.contains(&result.p50_accuracy), "p50 is nearest-rank");
    let energy: f64 = result.cameras.iter().map(|c| c.result.energy_joules).sum();
    assert!((result.total_energy_joules - energy).abs() < 1e-9);
    let drifts: usize = result.cameras.iter().map(|c| c.result.drift_responses).sum();
    assert_eq!(result.total_drift_responses, drifts);
}

#[test]
fn thread_count_never_changes_fleet_results() {
    let configs: Vec<_> = camera_configs().into_iter().take(3).collect();
    assert_eq!(run_fleet(&configs, 1), run_fleet(&configs, 8));
}

/// A platform defined *outside* `dacapo-core`: no builtin enum variant, only
/// a build function registered at runtime. The rates scale with the
/// requested frame rate to prove it sees the full request.
fn turbo_sim(request: &PlatformRequest<'_>) -> Result<PlatformRates> {
    PlatformRates::new(
        format!("TurboSim ({:.0} FPS headroom)", 3.0 * request.fps),
        KernelRate::fp32(3.0 * request.fps),
        KernelRate::fp32(35.0),
        KernelRate::fp32(110.0),
        Sharing::TimeShared,
        4.0,
    )
}

#[test]
fn out_of_crate_platforms_run_sessions_and_heterogeneous_fleets() {
    platform::register("turbo-sim", turbo_sim);

    // One short scenario, three cameras on three different platforms
    // selected by registry name: the external platform, the builtin DaCapo
    // accelerator, and a GPU baseline.
    let scenario = Scenario::try_from_segments(
        "hetero",
        vec![Segment { attributes: SegmentAttributes::default(), duration_s: 60.0 }],
    )
    .expect("segments are non-empty with positive durations");
    let camera_platforms = ["turbo-sim", "dacapo", "orin-high"];
    let configs: Vec<(String, SimConfig)> = camera_platforms
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let config = SimConfig::builder(scenario.clone(), ModelPair::ResNet18Wrn50)
                .platform(*name)
                .scheduler(SchedulerKind::DaCapoSpatiotemporal)
                .measurement(10.0, 15)
                .pretrain_samples(96)
                .seed(0xCAFE + i as u64)
                .build()
                .expect("camera config builds");
            (format!("cam-{name}"), config)
        })
        .collect();

    // The external platform steps through a plain Session like any builtin.
    let mut session = Session::new(configs[0].1.clone()).expect("session on custom platform");
    assert_eq!(session.platform().name(), "TurboSim (90 FPS headroom)");
    assert!(session.platform().is_shared());
    while session.step().expect("session steps") != SessionEvent::Finished {}
    let solo_turbo = session.into_result();
    assert!(solo_turbo.system.starts_with("TurboSim"), "{}", solo_turbo.system);
    assert!(solo_turbo.mean_accuracy > 0.1);

    // A heterogeneous fleet mixes all three platforms, and every camera's
    // result is bit-identical to its solo run.
    let fleet_result = run_fleet(&configs, 3);
    let mut system_names = Vec::new();
    for (name, config) in &configs {
        let solo = ClSimulator::new(config.clone()).unwrap().run().unwrap();
        let from_fleet = fleet_result.camera(name).expect("camera present");
        assert_eq!(from_fleet, &solo, "{name}: fleet result diverged from solo run");
        system_names.push(from_fleet.system.clone());
    }
    // The cameras really ran on three distinct platforms.
    system_names.sort();
    system_names.dedup();
    assert_eq!(system_names.len(), camera_platforms.len(), "{system_names:?}");
}

#[test]
fn mid_run_session_state_is_observable_while_stepping() {
    // The re-entrant API's reason to exist: interleave two cameras by hand
    // and watch both advance. (A cluster does this with threads; here we do
    // it cooperatively on one thread.)
    let configs: Vec<_> = camera_configs().into_iter().take(2).collect();
    let mut a = Session::new(configs[0].1.clone()).unwrap();
    let mut b = Session::new(configs[1].1.clone()).unwrap();
    let mut a_done = false;
    let mut b_done = false;
    while !(a_done && b_done) {
        if !a_done && a.step().unwrap() == SessionEvent::Finished {
            a_done = true;
        }
        if !b_done && b.step().unwrap() == SessionEvent::Finished {
            b_done = true;
        }
        assert!(a.now_s() <= a.duration_s() + 1.5);
        assert!(b.now_s() <= b.duration_s() + 1.5);
    }
    let result_a = a.into_result();
    let result_b = b.into_result();
    // Interleaving per-camera stepping must equal solo runs too.
    let solo_a = ClSimulator::new(configs[0].1.clone()).unwrap().run().unwrap();
    let solo_b = ClSimulator::new(configs[1].1.clone()).unwrap().run().unwrap();
    assert_eq!(result_a, solo_a);
    assert_eq!(result_b, solo_b);
}
