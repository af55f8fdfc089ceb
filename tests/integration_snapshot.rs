//! Checkpoint/restore and elastic-membership integration: a session
//! snapshotted at an arbitrary mid-run step (solo or inside a contended
//! cluster) restores bit-identically, churn at window boundaries is
//! invariant across worker-thread counts, and an empty churn plan
//! reproduces the churn-free executor exactly.

use dacapo_core::platform::{KernelRate, PlatformRates, Sharing};
use dacapo_core::{
    ChurnPlan, ClSimulator, Cluster, SchedulerKind, Session, SessionEvent, SessionSnapshot,
    SimConfig,
};
use dacapo_datagen::{Scenario, Segment, SegmentAttributes};
use dacapo_dnn::zoo::ModelPair;
use proptest::prelude::*;

/// Fast synthetic platform so the many debug-mode simulations stay quick.
fn fast_platform() -> PlatformRates {
    PlatformRates::new(
        "snapshot-test",
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
        "snap",
        vec![
            Segment { attributes: first, duration_s: total_s / 2.0 },
            Segment { attributes: second, duration_s: total_s / 2.0 },
        ],
    )
    .expect("test scenario is valid")
}

fn camera_config(scheduler: SchedulerKind, seed: u64, duration_s: f64) -> SimConfig {
    SimConfig::builder(drifting_scenario(duration_s), ModelPair::ResNet18Wrn50)
        .platform_rates(fast_platform())
        .scheduler(scheduler)
        .measurement(10.0, 8)
        .pretrain_samples(48)
        .seed(seed)
        .build()
        .expect("camera config builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The PR's acceptance property (solo half): snapshot at an arbitrary
    /// mid-run step, push the snapshot through its JSON text form, restore,
    /// run to completion — bit-identical to the uninterrupted run.
    #[test]
    fn snapshot_restore_at_any_step_is_bit_identical(
        scheduler_index in 0usize..4,
        interrupt_after in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let scheduler = [
            SchedulerKind::DaCapoSpatiotemporal,
            SchedulerKind::DaCapoSpatial,
            SchedulerKind::Ekya,
            SchedulerKind::Eomu,
        ][scheduler_index];
        let config = camera_config(scheduler, seed, 60.0);

        let mut uninterrupted = Session::new(config.clone()).expect("session builds");
        uninterrupted.run_to_end().expect("uninterrupted run completes");
        let expected = uninterrupted.into_result();

        let mut session = Session::new(config).expect("session builds");
        let mut steps = 0usize;
        while steps < interrupt_after && !session.is_finished() {
            let _ = session.step().expect("step succeeds");
            steps += 1;
        }
        let json = session.snapshot().to_json();
        drop(session);
        let snapshot = SessionSnapshot::from_json(&json).expect("snapshot parses back");
        let mut restored = Session::restore(snapshot).expect("snapshot restores");
        restored.run_to_end().expect("restored run completes");
        prop_assert_eq!(
            restored.into_result(),
            expected,
            "restore diverged ({} after {} steps)",
            scheduler,
            steps
        );
    }

    /// The cluster half: a contended cluster whose accelerator drains at a
    /// window boundary (snapshot-migrating its residents) reports per-camera
    /// results bit-identical to the churn-free contended cluster — and both
    /// match solo runs, because arbitration and migration only move cluster
    /// time, never session state.
    #[test]
    fn drain_migration_in_a_contended_cluster_preserves_results(
        seed in 0u64..1_000_000,
        drain_at in 1usize..5,
    ) {
        let cameras = 4usize;
        let build = |plan: ChurnPlan| {
            let mut cluster = Cluster::new(2).share_window_s(15.0).churn(plan);
            for i in 0..cameras {
                cluster = cluster.camera(
                    format!("cam-{i}"),
                    camera_config(
                        SchedulerKind::DaCapoSpatiotemporal,
                        seed.wrapping_add(i as u64),
                        40.0,
                    ),
                );
            }
            cluster
        };
        let baseline = build(ChurnPlan::new()).run().expect("baseline cluster runs");
        let drained = build(ChurnPlan::new().drain(drain_at as f64 * 15.0, 1))
            .run()
            .expect("drained cluster runs");
        prop_assert_eq!(&drained.fleet, &baseline.fleet);
        for i in 0..cameras {
            let name = format!("cam-{i}");
            let solo = ClSimulator::new(camera_config(
                SchedulerKind::DaCapoSpatiotemporal,
                seed.wrapping_add(i as u64),
                40.0,
            ))
            .expect("solo simulator builds")
            .run()
            .expect("solo run completes");
            prop_assert_eq!(drained.camera(&name).expect("camera present"), &solo);
        }
        prop_assert_eq!(drained.churn.drains, 1);
        prop_assert!(drained.churn.migrations <= 2, "at most the residents migrate");
    }

    /// Churn-at-window-boundary runs are bit-identical across 1/2/8 worker
    /// threads: every membership change happens at a single-threaded
    /// barrier, so thread count can only change wall-clock time.
    #[test]
    fn churn_is_invariant_across_worker_thread_counts(
        seed in 0u64..1_000_000,
    ) {
        let build = |threads: usize| {
            let plan = ChurnPlan::new()
                .join(20.0, "late", camera_config(SchedulerKind::DaCapoSpatial, seed ^ 0xFE, 40.0))
                .leave(30.0, "cam-1")
                .drain(45.0, 1);
            let mut cluster = Cluster::new(2).threads(threads).share_window_s(15.0).churn(plan);
            for i in 0..4usize {
                cluster = cluster.camera(
                    format!("cam-{i}"),
                    camera_config(
                        SchedulerKind::DaCapoSpatiotemporal,
                        seed.wrapping_add(i as u64),
                        40.0,
                    ),
                );
            }
            cluster
        };
        let serial = build(1).run().expect("serial churn run completes");
        let two = build(2).run().expect("two-thread churn run completes");
        let eight = build(8).run().expect("eight-thread churn run completes");
        prop_assert_eq!(&serial, &two);
        prop_assert_eq!(&serial, &eight);
        prop_assert_eq!(serial.churn.joins, 1);
        prop_assert_eq!(serial.churn.leaves, 1);
        prop_assert_eq!(serial.churn.drains, 1);
    }
}

/// A cluster with an empty churn plan runs without a churn stage and
/// reproduces a plan-free cluster exactly, with or without contention and
/// sharing.
#[test]
fn empty_churn_plans_reproduce_the_churn_free_executor() {
    let build = || {
        let mut cluster = Cluster::new(2);
        for i in 0..3usize {
            cluster = cluster.camera(
                format!("cam-{i}"),
                camera_config(SchedulerKind::DaCapoSpatiotemporal, 0xE1A5 + i as u64, 40.0),
            );
        }
        cluster
    };
    let bare = build().run().expect("bare cluster runs");
    let empty_plan = build().churn(ChurnPlan::new()).run().expect("empty-plan cluster runs");
    assert_eq!(bare, empty_plan);
    assert_eq!(bare.churn.migrations, 0);
    assert_eq!(bare.churn.peak_residency, 3);

    let shared = build().share("broadcast").share_window_s(20.0).run().expect("shared runs");
    let shared_empty_plan = build()
        .share("broadcast")
        .share_window_s(20.0)
        .churn(ChurnPlan::new())
        .run()
        .expect("shared empty-plan runs");
    assert_eq!(shared, shared_empty_plan);
}

/// A mid-run session inside a contended cluster can be checkpointed through
/// the drain path and the restored continuation matches the uninterrupted
/// session exactly — exercising snapshot() on sessions whose buffers,
/// scheduler state, and teacher RNG are all mid-flight.
#[test]
fn snapshots_taken_mid_drift_recovery_restore_exactly() {
    let config = camera_config(SchedulerKind::DaCapoSpatiotemporal, 0xD21F7, 60.0);
    let mut uninterrupted = Session::new(config.clone()).expect("session builds");
    uninterrupted.run_to_end().expect("run completes");
    let expected = uninterrupted.into_result();

    // Interrupt right after the drift response fires, the gnarliest moment:
    // freshly reset buffer, extended labeling queued, teacher RNG mid-burst.
    let mut session = Session::new(config).expect("session builds");
    loop {
        match session.step().expect("step succeeds") {
            SessionEvent::Drift { .. } => break,
            SessionEvent::Finished => panic!("spatiotemporal short run must hit the drift"),
            _ => {}
        }
    }
    let json = session.snapshot().to_json();
    let mut restored =
        Session::restore(SessionSnapshot::from_json(&json).expect("parses")).expect("restores");
    restored.run_to_end().expect("restored run completes");
    assert_eq!(restored.into_result(), expected);
}
