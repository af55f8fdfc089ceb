//! Edge–cloud tier integration: the reserved `local-only` name is
//! bit-identical to a fleet with no edge tier at all (at any worker-thread
//! count), offloaded clusters are deterministic across thread counts, a
//! session snapshotted mid-window with cloud labels still in flight
//! round-trips through JSON exactly, `EdgeMetrics` survives serde, the
//! offload registry resolves builtins and out-of-crate entries alike, and
//! every uplink profile resolves.

use dacapo_core::edge::{self, OffloadContext, OffloadPolicy};
use dacapo_core::platform::{KernelRate, PlatformRates, Sharing};
use dacapo_core::{
    Cluster, ClusterResult, EdgeConfig, LabelRoute, SchedulerKind, Session, SessionSnapshot,
    SimConfig,
};
use dacapo_datagen::{Scenario, Segment, SegmentAttributes};
use dacapo_dnn::zoo::ModelPair;
use proptest::prelude::*;

/// Fast synthetic platform so the many debug-mode simulations stay quick.
fn fast_platform() -> PlatformRates {
    PlatformRates::new(
        "edge-test",
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
        "edge",
        vec![
            Segment { attributes: first, duration_s: total_s / 2.0 },
            Segment { attributes: second, duration_s: total_s / 2.0 },
        ],
    )
    .expect("test scenario is valid")
}

/// One camera config, with or without an edge tier on the given uplink.
fn camera_config(seed: u64, duration_s: f64, uplink: Option<&str>) -> SimConfig {
    let mut builder = SimConfig::builder(drifting_scenario(duration_s), ModelPair::ResNet18Wrn50)
        .platform_rates(fast_platform())
        .scheduler(SchedulerKind::DaCapoSpatiotemporal)
        .measurement(10.0, 8)
        .pretrain_samples(48)
        .seed(seed);
    if let Some(uplink) = uplink {
        builder = builder.edge(EdgeConfig::new(uplink));
    }
    builder.build().expect("camera config builds")
}

fn build_cluster(
    cameras: usize,
    seed: u64,
    uplink: Option<&str>,
    offload: &str,
    threads: usize,
) -> Cluster {
    let mut cluster = Cluster::new(2).offload(offload).share_window_s(15.0).threads(threads);
    for i in 0..cameras {
        cluster = cluster
            .camera(format!("cam-{i}"), camera_config(seed.wrapping_add(i as u64), 40.0, uplink));
    }
    cluster
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The ISSUE's bit-identity property: a fleet of edge-tier cameras under
    /// the reserved `local-only` policy produces per-camera results *and*
    /// contention telemetry bit-identical to the same fleet with no edge
    /// tier at all, at any worker-thread count — the tier's presence alone
    /// perturbs nothing.
    #[test]
    fn local_only_is_bit_identical_to_an_edgeless_fleet(
        cameras in 2usize..4,
        seed in 0u64..1_000_000,
        thread_index in 0usize..3,
    ) {
        let threads = [1, 2, 8][thread_index];
        let edgeless = build_cluster(cameras, seed, None, "local-only", threads)
            .run()
            .expect("edgeless cluster runs");
        let local = build_cluster(cameras, seed, Some("lte"), "local-only", threads)
            .run()
            .expect("local-only cluster runs");
        prop_assert_eq!(&edgeless.fleet, &local.fleet);
        prop_assert_eq!(&edgeless.contention, &local.contention);
        // The tier is present and counting, just never shipping.
        prop_assert!(local.edge.labels_local > 0);
        prop_assert_eq!(local.edge.labels_cloud, 0);
        prop_assert_eq!(local.edge.bytes_shipped, 0);
        // The edgeless fleet reports untouched metrics.
        prop_assert_eq!(edgeless.edge.labels_local, 0);
        prop_assert_eq!(edgeless.edge.bytes_shipped, 0);
    }
}

/// The determinism criterion: a contended cloud-offloaded cluster — uplink
/// queueing, deferred label arrival, window routing and all — produces
/// identical `ClusterResult`s at 1, 2, and 8 worker threads.
#[test]
fn offloaded_cluster_is_deterministic_across_thread_counts() {
    let run = |threads: usize| -> ClusterResult {
        build_cluster(4, 0xED6E, Some("lte"), "cloud-only", threads)
            .run()
            .expect("cloud-only cluster runs")
    };
    let serial = run(1);
    assert!(serial.edge.labels_cloud > 0, "cloud-only must ship labels: {:?}", serial.edge);
    assert!(serial.edge.bytes_shipped > 0);
    let two = run(2);
    let eight = run(8);
    assert_eq!(serial, two);
    assert_eq!(serial, eight);
    // And across repeat runs at the same thread count.
    assert_eq!(eight, run(8));
}

/// The checkpoint criterion: snapshot a session mid-window while cloud
/// labels are still in flight on the uplink, push the snapshot through its
/// JSON text form, restore, run to completion — bit-identical to the
/// uninterrupted run. In-flight arrivals and uplink meters all ride the
/// snapshot.
#[test]
fn snapshots_with_in_flight_cloud_labels_round_trip_through_json() {
    let config = camera_config(0xC10D, 60.0, Some("lte"));

    let mut uninterrupted = Session::new(config.clone()).expect("session builds");
    uninterrupted.set_label_route(LabelRoute::Cloud { byte_budget: None }).expect("route sets");
    uninterrupted.run_to_end().expect("uninterrupted run completes");
    let expected = uninterrupted.into_result();

    let mut session = Session::new(config).expect("session builds");
    session.set_label_route(LabelRoute::Cloud { byte_budget: None }).expect("route sets");
    while session.in_flight_cloud_labels() == 0 {
        assert!(!session.is_finished(), "the cloud route must put labels in flight");
        session.step().expect("step succeeds");
    }
    let in_flight = session.in_flight_cloud_labels();
    assert!(in_flight > 0);
    let json = session.snapshot().to_json();
    drop(session);

    let snapshot = SessionSnapshot::from_json(&json).expect("snapshot parses back");
    let mut restored = Session::restore(snapshot).expect("snapshot restores");
    assert_eq!(
        restored.in_flight_cloud_labels(),
        in_flight,
        "in-flight labels must survive the JSON round trip"
    );
    assert_eq!(restored.label_route(), Some(LabelRoute::Cloud { byte_budget: None }));
    restored.run_to_end().expect("restored run completes");
    assert_eq!(restored.into_result(), expected);
}

/// `EdgeMetrics` — latency percentiles, byte meters, accuracy-per-byte —
/// survives a serde JSON round trip unchanged, so `ClusterResult`s with an
/// edge tier persist like any other.
#[test]
fn edge_metrics_survive_a_serde_round_trip() {
    let result = build_cluster(3, 0x5EDE, Some("broadband"), "cloud-only", 2)
        .run()
        .expect("cloud-only cluster runs");
    assert!(result.edge.bytes_shipped > 0);
    assert!(result.edge.accuracy_per_byte > 0.0);
    let json = serde_json::to_string(&result.edge).expect("metrics serialise");
    let back: dacapo_core::EdgeMetrics = serde_json::from_str(&json).expect("metrics parse back");
    assert_eq!(back, result.edge);
}

/// Out-of-crate offload policies resolve through the registry by name,
/// exactly like builtins, and every uplink profile resolves with and
/// without parameter overrides.
#[test]
fn registries_resolve_builtins_and_out_of_crate_policies() {
    struct EvenWindows;
    impl OffloadPolicy for EvenWindows {
        fn route(&mut self, ctx: &OffloadContext<'_>) -> LabelRoute {
            if ctx.window_index.is_multiple_of(2) {
                LabelRoute::Cloud { byte_budget: None }
            } else {
                LabelRoute::Local
            }
        }
    }
    edge::register_offload("even-windows", |_| Ok(Box::new(EvenWindows)));
    let names = edge::registered_offload_policies();
    assert!(names.contains(&"even-windows".to_string()));
    assert!(edge::create_offload("EVEN-WINDOWS").is_ok(), "lookups are case-insensitive");
    for builtin in ["cloud-only", "threshold", "budget"] {
        assert!(names.contains(&builtin.to_string()), "{builtin} missing");
    }
    assert!(edge::create_offload("threshold:2").is_ok());
    assert!(!names.contains(&"local-only".to_string()), "the reserved name is not a policy");
    assert!(edge::create_offload("local-only").is_err());

    // And the registered policy drives a real cluster run end to end.
    let result = build_cluster(2, 0xE7E4, Some("wifi"), "even-windows", 2)
        .run()
        .expect("even-windows cluster runs");
    assert!(result.edge.labels_cloud > 0, "window 0 routes cloud: {:?}", result.edge);
    assert_eq!(result.edge.policy, "even-windows");

    // The uplink profiles resolve, in any case, with parameter overrides.
    for builtin in ["broadband", "wifi", "lte", "degraded"] {
        assert!(edge::create_uplink(builtin).is_ok(), "{builtin} missing");
        assert!(edge::create_uplink(&builtin.to_uppercase()).is_ok(), "{builtin} is case-blind");
    }
    let default_lte = edge::create_uplink("lte").expect("lte resolves");
    assert!((default_lte.bandwidth_bps() - 12e6).abs() < 1e-6);
    let tuned = edge::create_uplink("lte:6,120").expect("parametrised lte resolves");
    assert!((tuned.bandwidth_bps() - 6e6).abs() < 1e-6);
    assert!((tuned.latency_s() - 0.12).abs() < 1e-9);
    assert!(edge::create_uplink("carrier-pigeon").is_err());
}
