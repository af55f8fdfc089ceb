//! Serde round-trips of the public result/config surface: `SimConfig`,
//! `PlatformSpec`, `SimResult`, `FleetResult`, and `ClusterResult` all
//! survive a JSON text round trip exactly, and re-encode to the same bytes
//! (encode → decode → encode is a fixed point), so observer logs, bench records,
//! and snapshots written by one process can be read back by another — and a
//! golden `SessionSnapshot` file pins the snapshot format byte for byte.

use dacapo_core::platform::{KernelRate, PlatformSpec, Sharing};
use dacapo_core::{
    Cluster, FleetResult, PhaseKind, PhaseRecord, PlatformKind, PlatformRates, SchedulerKind,
    SchedulerSpec, Session, SessionEvent, SessionSnapshot, ShareMetrics, SimConfig, SimResult,
    SNAPSHOT_VERSION,
};
use dacapo_datagen::Scenario;
use dacapo_dnn::zoo::ModelPair;
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// JSON-text round trip: serialise, parse, compare — and encode → decode →
/// encode is a fixed point, byte for byte, in both layouts.
fn round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: &T) {
    let compact = serde_json::to_string(value).expect("serialises");
    let reparsed: T = serde_json::from_str(&compact).expect("parses back");
    assert_eq!(&reparsed, value, "compact JSON round trip changed the value");
    assert_eq!(serde_json::to_string(&reparsed).expect("serialises"), compact);
    let pretty = serde_json::to_string_pretty(value).expect("serialises pretty");
    let reparsed: T = serde_json::from_str(&pretty).expect("parses back pretty");
    assert_eq!(&reparsed, value, "pretty JSON round trip changed the value");
    assert_eq!(serde_json::to_string_pretty(&reparsed).expect("serialises"), pretty);
}

/// A value in (0, 1] derived from raw bits, guaranteed finite.
fn unit(bits: u64) -> f64 {
    ((bits % 1000) as f64 + 1.0) / 1000.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `SimConfig` round-trips across scenario, scheduler, platform, and
    /// seed choices (builtin kinds, registry names, and explicit rates).
    #[test]
    fn sim_config_round_trips(
        scenario_index in 0usize..8,
        scheduler_index in 0usize..5,
        platform_choice in 0usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let scenario = Scenario::all()[scenario_index].clone();
        let scheduler = SchedulerKind::BUILTINS[scheduler_index];
        let mut builder = SimConfig::builder(scenario, ModelPair::ResNet18Wrn50)
            .scheduler(scheduler)
            .seed(seed);
        builder = match platform_choice {
            0 => builder.platform(PlatformKind::DaCapo),
            1 => builder.platform(PlatformKind::OrinHigh),
            2 => builder.platform("orin-dvfs:45"),
            3 => builder.platform("scaled-dacapo:32"),
            4 => builder.platform("rtx-3090"),
            _ => builder.platform_rates(
                PlatformRates::new(
                    "custom",
                    KernelRate::fp32(unit(seed) * 200.0),
                    KernelRate::fp32(unit(seed ^ 1) * 50.0),
                    KernelRate::fp32(unit(seed ^ 2) * 150.0),
                    Sharing::TimeShared,
                    unit(seed ^ 3) * 10.0,
                )
                .expect("generated rates are valid"),
            ),
        };
        let config = builder.build().expect("config builds");
        round_trip(&config);
        // The reparsed config still resolves to the same capability sheet.
        let reparsed: SimConfig =
            serde_json::from_str(&serde_json::to_string(&config).expect("serialises"))
                .expect("parses");
        prop_assert_eq!(
            reparsed.platform_rates().expect("reparsed platform resolves"),
            config.platform_rates().expect("platform resolves")
        );
    }

    /// `PlatformSpec` round-trips in all three forms.
    #[test]
    fn platform_spec_round_trips(choice in 0usize..5, bits in 0u64..u64::MAX) {
        let spec = match choice {
            0 => PlatformSpec::Kind(PlatformKind::ALL[(bits % 4) as usize]),
            1 => PlatformSpec::Named("orin-dvfs:42".to_string()),
            2 => PlatformSpec::Named("some-unregistered-platform".to_string()),
            3 => PlatformSpec::Named(format!("scaled-dacapo:{}", 2 + bits % 64)),
            _ => PlatformSpec::Rates(
                PlatformRates::new(
                    "spec-rt",
                    KernelRate::fp32(unit(bits) * 300.0),
                    KernelRate::fp32(unit(bits ^ 5) * 60.0),
                    KernelRate::fp32(unit(bits ^ 6) * 80.0),
                    Sharing::Partitioned {
                        tsa_rows: 1 + (bits % 15) as usize,
                        bsa_rows: 1 + (bits % 7) as usize,
                    },
                    unit(bits ^ 7),
                )
                .expect("generated rates are valid"),
            ),
        };
        round_trip(&spec);
    }

    /// Synthetic `SimResult`s (finite values, arbitrary shapes) and the
    /// `FleetResult` aggregating them round-trip exactly.
    #[test]
    fn sim_and_fleet_results_round_trip(
        timeline_len in 0usize..20,
        phase_count in 0usize..12,
        bits in 0u64..u64::MAX,
    ) {
        let timeline: Vec<(f64, f64)> = (0..timeline_len)
            .map(|i| (i as f64 * 5.0, unit(bits.wrapping_add(i as u64))))
            .collect();
        let phases: Vec<PhaseRecord> = (0..phase_count)
            .map(|i| PhaseRecord {
                kind: [PhaseKind::Label, PhaseKind::Retrain, PhaseKind::Wait][i % 3],
                start_s: i as f64 * 7.5,
                duration_s: unit(bits ^ i as u64) * 30.0,
                samples: (bits.wrapping_mul(i as u64 + 1) % 512) as usize,
                drift_response: i % 4 == 0,
            })
            .collect();
        let result = SimResult {
            system: "test / sched".to_string(),
            scenario: "S1".to_string(),
            pair: ModelPair::ResNet18Wrn50,
            scheduler: "DaCapo-Spatiotemporal".to_string(),
            mean_accuracy: unit(bits ^ 0xA),
            accuracy_timeline: timeline,
            frame_drop_rate: unit(bits ^ 0xB) - 0.001,
            energy_joules: unit(bits ^ 0xC) * 1e4,
            power_watts: unit(bits ^ 0xD) * 60.0,
            phases,
            drift_responses: (bits % 9) as usize,
            duration_s: 1200.0,
        };
        round_trip(&result);

        // A populated fleet aggregate over per-camera copies round-trips
        // too (camera names exercise string escaping).
        let cameras: Vec<dacapo_core::CameraResult> = (0..3)
            .map(|i| dacapo_core::CameraResult {
                camera: format!("cam \"{i}\"\t✓"),
                result: result.clone(),
            })
            .collect();
        let fleet = FleetResult {
            mean_accuracy: result.mean_accuracy,
            p50_accuracy: result.mean_accuracy,
            p10_accuracy: result.mean_accuracy,
            min_accuracy: result.mean_accuracy,
            total_energy_joules: result.energy_joules * 3.0,
            aggregate_drop_rate: result.frame_drop_rate,
            total_drift_responses: result.drift_responses * 3,
            cameras,
        };
        round_trip(&fleet);
    }
}

/// A real (short) cluster run's `ClusterResult` — fleet, contention, share,
/// and churn telemetry together — survives the JSON round trip, which is
/// exactly what the bench records and CI artifacts rely on.
#[test]
fn cluster_results_from_a_real_run_round_trip() {
    let config = SimConfig::builder(
        Scenario::try_from_segments(
            "rt",
            vec![dacapo_datagen::Segment {
                attributes: dacapo_datagen::SegmentAttributes::default(),
                duration_s: 30.0,
            }],
        )
        .expect("scenario is valid"),
        ModelPair::ResNet18Wrn50,
    )
    .platform_rates(
        PlatformRates::new(
            "rt-chip",
            KernelRate::fp32(90.0),
            KernelRate::fp32(30.0),
            KernelRate::fp32(100.0),
            Sharing::Partitioned { tsa_rows: 12, bsa_rows: 4 },
            2.0,
        )
        .expect("rates are valid"),
    )
    .scheduler(SchedulerKind::DaCapoSpatiotemporal)
    .measurement(10.0, 8)
    .pretrain_samples(48)
    .build()
    .expect("config builds");

    let result = Cluster::new(1)
        .camera("a", config.clone())
        .camera("b", config)
        .share("broadcast")
        .share_window_s(10.0)
        .run()
        .expect("cluster runs");
    round_trip(&result);
    round_trip(&result.fleet);
    round_trip(&result.contention);
    round_trip(&result.share);
    round_trip(&result.churn);
}

/// The event/record types that used to be write-only now read back:
/// `SessionEvent` in every variant, plus `ShareMetrics` and a standalone
/// `FleetResult`.
#[test]
fn session_events_and_metrics_round_trip() {
    let events = [
        SessionEvent::Phase(PhaseRecord {
            kind: PhaseKind::Retrain,
            start_s: 12.5,
            duration_s: 3.25,
            samples: 384,
            drift_response: false,
        }),
        SessionEvent::Drift { at_s: 61.0, response_index: 2 },
        SessionEvent::Accuracy { at_s: 65.0, accuracy: 0.8125 },
        SessionEvent::Finished,
    ];
    for event in &events {
        round_trip(event);
    }

    let metrics = ShareMetrics {
        policy: "correlated:0.6".to_string(),
        window_s: 60.0,
        windows: 20,
        labels_exported: 5000,
        labels_reused: 1250,
        labeling_seconds_saved: 312.5,
        import_rejects: 7,
    };
    round_trip(&metrics);

    let empty = FleetResult {
        cameras: Vec::new(),
        mean_accuracy: 0.0,
        p50_accuracy: 0.0,
        p10_accuracy: 0.0,
        min_accuracy: 0.0,
        total_energy_joules: 0.0,
        aggregate_drop_rate: 0.0,
        total_drift_responses: 0,
    };
    round_trip(&empty);
}

/// Every config and snapshot carries its scheduler and platform as a spec:
/// a builtin is `{"Kind": ..}` and a registry name `{"Named": ..}`, and
/// each form reads back as itself, never as the other.
#[test]
fn spec_forms_serialise_to_their_pinned_json() {
    fn pinned<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: T, json: &str) {
        assert_eq!(serde_json::to_string(&value).expect("serialises"), json);
        assert_eq!(serde_json::from_str::<T>(json).expect("parses"), value);
        round_trip(&value);
    }
    pinned(SchedulerSpec::Kind(SchedulerKind::Ekya), r#"{"Kind":"Ekya"}"#);
    pinned(SchedulerSpec::Named("ekya".into()), r#"{"Named":"ekya"}"#);
    pinned(PlatformSpec::Kind(PlatformKind::OrinHigh), r#"{"Kind":"OrinHigh"}"#);
    pinned(PlatformSpec::Named("scaled-dacapo:32".into()), r#"{"Named":"scaled-dacapo:32"}"#);
}

/// A version-2 `SessionSnapshot` written by the commit *before* the sample
/// buffer became a columnar ring (mid-run, a full and wrapped 24-sample
/// buffer, eight cloud labels in flight) must restore and re-serialise to
/// the same bytes: the storage layout changed, the format did not, so
/// `SNAPSHOT_VERSION` stays 2.
#[test]
fn a_golden_v2_snapshot_round_trips_byte_for_byte() {
    let golden = include_str!("fixtures/session_snapshot_v2.json");
    let snapshot = SessionSnapshot::from_json(golden).expect("the golden snapshot parses");
    assert_eq!(snapshot.version, SNAPSHOT_VERSION);
    assert_eq!(snapshot.buffer.len(), 24, "the fixture carries a full buffer");
    let in_flight = snapshot.edge.as_ref().expect("the fixture has an edge tier").in_flight.len();
    assert_eq!(in_flight, 8, "the fixture carries in-flight cloud labels");

    let restored = Session::restore(snapshot).expect("the golden snapshot restores");
    assert_eq!(restored.in_flight_cloud_labels(), in_flight);
    assert_eq!(restored.snapshot().to_json(), golden);

    // And the restored session is a working one: it runs to completion.
    let mut restored = restored;
    restored.run_to_end().expect("the restored session finishes");
    assert!(restored.is_finished());
}

/// The golden snapshot's JSON with the value at `path` — object keys, and
/// decimal indices into arrays — handed to `edit`: a hostile file, as one
/// would arrive.
fn golden_with(path: &[&str], edit: impl FnOnce(&mut Value)) -> String {
    let mut tree = serde_json::value_from_str(include_str!("fixtures/session_snapshot_v2.json"))
        .expect("the golden snapshot is JSON");
    let mut node = &mut tree;
    for step in path {
        node = match node {
            Value::Object(fields) => {
                fields.iter_mut().find(|(key, _)| key == step).map(|f| &mut f.1)
            }
            Value::Array(items) => step.parse().ok().and_then(|index: usize| items.get_mut(index)),
            _ => None,
        }
        .expect("every step of the path names a field or an element");
    }
    edit(node);
    serde_json::to_string(&tree).expect("the tree serialises")
}

/// Every sample a snapshot stores — buffered, recorded for export, or in
/// flight from the cloud — is checked on restore against the stream's
/// feature width and the class count, and the error names the store, the
/// row and the field: a migrant with a bad row must fail at the barrier that
/// moves it, not later inside a kernel on its new accelerator.
#[test]
fn restore_names_the_bad_sample_of_a_mutated_golden_snapshot() {
    fn set(value: u64) -> impl FnOnce(&mut Value) {
        move |node| *node = Value::UInt(value)
    }
    /// Two well-formed 16-feature samples lifted from the fixture's buffer,
    /// edited, as the whole array at the visited node.
    fn rows(edit: fn(&mut Vec<Value>)) -> impl FnOnce(&mut Value) {
        let mut row = Value::Null;
        golden_with(&["buffer", "samples", "0"], |node| row = node.clone());
        let mut block = vec![row.clone(), row];
        edit(&mut block);
        move |node| *node = Value::Array(block)
    }
    fn field(row: &mut Value, key: &str, value: u64) {
        let Value::Object(fields) = row else { panic!("a sample is an object") };
        fields.iter_mut().find(|(k, _)| k == key).expect("the field exists").1 = Value::UInt(value);
    }
    fn narrow(row: &mut Value) {
        let Value::Object(fields) = row else { panic!("a sample is an object") };
        let Value::Array(features) = &mut fields[0].1 else { panic!("features come first") };
        features.pop();
    }

    let cases: Vec<(String, &str)> = vec![
        (
            golden_with(&["buffer", "samples", "5", "teacher_label"], set(10)),
            "buffer[5].teacher_label",
        ),
        (golden_with(&["buffer", "samples", "23", "true_class"], set(10)), "buffer[23].true_class"),
        (
            golden_with(&["fresh_labels"], rows(|block| block.iter_mut().for_each(narrow))),
            "fresh_labels[0] has 15 features",
        ),
        (
            golden_with(&["fresh_labels"], rows(|block| field(&mut block[1], "teacher_label", 10))),
            "fresh_labels[1].teacher_label",
        ),
        (
            golden_with(
                &["fresh_labels"],
                rows(|block| field(&mut block[0], "true_class", u64::MAX)),
            ),
            "fresh_labels[0].true_class",
        ),
        (
            golden_with(&["edge", "in_flight", "2", "sample", "teacher_label"], set(10)),
            "edge.in_flight[2].sample.teacher_label",
        ),
        (
            golden_with(&["edge", "in_flight", "7", "sample", "true_class"], set(10)),
            "edge.in_flight[7].sample.true_class",
        ),
        (
            golden_with(&["edge", "in_flight", "0", "sample"], narrow),
            "edge.in_flight[0].sample has 15 features",
        ),
    ];
    for (text, named) in cases {
        let snapshot = SessionSnapshot::from_json(&text).expect("the mutation keeps the shape");
        match Session::restore(snapshot) {
            Err(dacapo_core::CoreError::Snapshot { reason }) => {
                assert!(reason.contains(named), "expected '{named}' in: {reason}");
            }
            Err(other) => panic!("{named}: expected CoreError::Snapshot, got {other:?}"),
            Ok(_) => panic!("{named}: a hostile sample must not restore"),
        }
    }
    // The harness itself is harmless: untouched, and with well-formed
    // recorded rows, the golden snapshot still restores.
    for text in [golden_with(&[], |_| {}), golden_with(&["fresh_labels"], rows(|_| {}))] {
        let snapshot = SessionSnapshot::from_json(&text).expect("parses");
        assert!(Session::restore(snapshot).is_ok());
    }
}

/// A float literal past `f64`'s range is refused at parse time with its
/// byte offset: read as +∞, it would reach `restore` as a clock that never
/// advances.
#[test]
fn a_snapshot_with_an_out_of_range_number_is_refused_at_its_byte() {
    let golden = include_str!("fixtures/session_snapshot_v2.json");
    let field = "\"now_s\": ";
    let start = golden.find(field).expect("the fixture has a clock") + field.len();
    let end = start + golden[start..].find([',', '\n']).expect("the value ends");
    let text = format!("{}1e999{}", &golden[..start], &golden[end..]);
    match SessionSnapshot::from_json(&text) {
        Err(dacapo_core::CoreError::Snapshot { reason }) => {
            let at = format!("at byte {start}");
            assert!(reason.contains("number out of range") && reason.contains(&at), "{reason}");
        }
        Err(other) => panic!("expected CoreError::Snapshot, got {other:?}"),
        Ok(_) => panic!("an out-of-range number must not parse"),
    }
}

/// A snapshot that repeats a field is refused at parse time, naming the
/// key: reading either copy would silently drop the other.
#[test]
fn a_snapshot_repeating_a_field_is_refused_naming_the_key() {
    let text = golden_with(&[], |node| {
        let Value::Object(fields) = node else { panic!("a snapshot is an object") };
        fields.push(("now_s".to_string(), Value::Int(-1)));
    });
    match SessionSnapshot::from_json(&text) {
        Err(dacapo_core::CoreError::Snapshot { reason }) => {
            assert!(reason.contains("duplicate key 'now_s'"), "{reason}");
        }
        Err(other) => panic!("expected CoreError::Snapshot, got {other:?}"),
        Ok(_) => panic!("a repeated field must not parse"),
    }
}
