//! Cross-crate property-based tests: invariants of the allocators, buffer,
//! schedulers, and simulator that must hold for arbitrary (bounded) inputs.

use dacapo_accel::estimator::{estimate, PrecisionPlan};
use dacapo_accel::gpu::GpuDevice;
use dacapo_accel::{AccelConfig, DaCapoAccelerator};
use dacapo_core::platform::{KernelRate, Sharing};
use dacapo_core::sched::{Action, SchedulerContext};
use dacapo_core::{
    ClSimulator, Hyperparams, LabeledSample, PlatformKind, PlatformRates, PlatformSpec,
    SampleBuffer, SchedulerKind, Session, SessionEvent, SimConfig,
};
use dacapo_datagen::{
    LabelDistribution, Location, Scenario, Segment, SegmentAttributes, TimeOfDay, Weather,
};
use dacapo_dnn::zoo::ModelPair;
use proptest::prelude::*;

fn arbitrary_attributes() -> impl Strategy<Value = SegmentAttributes> {
    (any::<bool>(), any::<bool>(), any::<bool>(), 0u8..4).prop_map(
        |(labels, night, highway, weather)| SegmentAttributes {
            labels: if labels { LabelDistribution::All } else { LabelDistribution::TrafficOnly },
            time: if night { TimeOfDay::Night } else { TimeOfDay::Daytime },
            location: if highway { Location::Highway } else { Location::City },
            weather: match weather {
                0 => Weather::Clear,
                1 => Weather::Overcast,
                2 => Weather::Snowy,
                _ => Weather::Rainy,
            },
        },
    )
}

fn arbitrary_scenario() -> impl Strategy<Value = Scenario> {
    prop::collection::vec((arbitrary_attributes(), 20.0f64..60.0), 1..5).prop_map(|segments| {
        Scenario::try_from_segments(
            "prop",
            segments
                .into_iter()
                .map(|(attributes, duration_s)| Segment { attributes, duration_s })
                .collect(),
        )
        .expect("segments are non-empty with positive durations")
    })
}

fn fast_platform() -> PlatformRates {
    PlatformRates::new(
        "prop-platform",
        KernelRate::fp32(60.0),
        KernelRate::fp32(50.0),
        KernelRate::fp32(200.0),
        Sharing::Partitioned { tsa_rows: 8, bsa_rows: 8 },
        1.0,
    )
    .expect("test rates are valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any T-SA/B-SA split of the array yields positive throughput for every
    /// kernel and preserves the row total.
    #[test]
    fn any_partition_gives_positive_kernel_throughput(tsa_rows in 1usize..16) {
        let accel = DaCapoAccelerator::new(AccelConfig::default()).unwrap();
        let plan = PrecisionPlan::default();
        for pair in ModelPair::ALL {
            let est = estimate(&accel, pair, tsa_rows, 16, &plan).unwrap();
            prop_assert_eq!(est.tsa_rows + est.bsa_rows, 16);
            prop_assert!(est.inference_fps > 0.0);
            prop_assert!(est.labeling_samples_per_s > 0.0);
            prop_assert!(est.retraining_samples_per_s > 0.0);
        }
    }

    /// The sample buffer never exceeds its capacity and always keeps the most
    /// recent samples.
    #[test]
    fn buffer_capacity_invariant(capacity in 1usize..64, pushes in 1usize..200) {
        let mut buffer = SampleBuffer::new(capacity);
        for i in 0..pushes {
            buffer.push(LabeledSample {
                features: vec![0.0; 4],
                teacher_label: 0,
                true_class: 0,
                timestamp_s: i as f64,
            });
            prop_assert!(buffer.len() <= capacity);
        }
        prop_assert_eq!(buffer.len(), pushes.min(capacity));
        let newest = buffer.samples().last().unwrap().timestamp_s;
        prop_assert_eq!(newest, (pushes - 1) as f64);
    }

    /// Buffer draws never exceed the requested sizes, never overlap, and
    /// never invent samples.
    #[test]
    fn buffer_draw_invariants(
        capacity in 4usize..128,
        fill in 1usize..128,
        train in 1usize..96,
        validation in 1usize..32,
        seed in 0u64..1000,
    ) {
        let mut buffer = SampleBuffer::new(capacity);
        for i in 0..fill {
            buffer.push(LabeledSample {
                features: vec![i as f32],
                teacher_label: i % 3,
                true_class: i % 3,
                timestamp_s: i as f64,
            });
        }
        let (train_set, val_set) = buffer.draw(train, validation, seed);
        prop_assert!(train_set.len() <= train);
        prop_assert!(val_set.len() <= validation.max(buffer.len()));
        prop_assert!(train_set.len() + val_set.len() <= buffer.len());
        for t in &train_set {
            prop_assert!(!val_set.iter().any(|v| v.timestamp_s == t.timestamp_s));
        }
    }

    /// Every scheduler only ever returns well-formed actions: positive sample
    /// counts, positive waits, and buffer resets only from drift-aware
    /// policies.
    #[test]
    fn schedulers_return_well_formed_actions(
        buffer_len in 0usize..600,
        acc_v in prop::option::of(0.0f64..1.0),
        acc_l in prop::option::of(0.0f64..1.0),
        steps in 1usize..30,
    ) {
        let hyper = Hyperparams::default();
        for kind in [
            SchedulerKind::DaCapoSpatiotemporal,
            SchedulerKind::DaCapoSpatial,
            SchedulerKind::Ekya,
            SchedulerKind::Eomu,
            SchedulerKind::NoAdaptation,
        ] {
            let mut scheduler = kind.create(&hyper);
            let mut now = 0.0;
            for _ in 0..steps {
                let action = scheduler.next_action(&SchedulerContext {
                    now_s: now,
                    buffer_len,
                    buffer_capacity: hyper.buffer_capacity,
                    last_validation_accuracy: acc_v,
                    last_labeling_accuracy: acc_l,
                });
                match action {
                    Action::Label { samples, reset_buffer } => {
                        prop_assert!(samples > 0, "{kind}: zero-sample labeling");
                        if reset_buffer {
                            prop_assert!(kind.drift_aware(), "{kind} reset the buffer");
                        }
                    }
                    Action::Retrain { samples, epochs } => {
                        prop_assert!(samples > 0 && epochs > 0, "{kind}: empty retraining");
                    }
                    Action::Wait { seconds } => prop_assert!(seconds > 0.0, "{kind}: non-positive wait"),
                }
                now += 3.0;
            }
        }
    }

    /// For arbitrary short scenarios the simulator produces a monotone
    /// timeline of in-range accuracies, covers the full duration with phases,
    /// and conserves energy accounting.
    #[test]
    fn simulator_invariants_hold_for_arbitrary_scenarios(
        scenario in arbitrary_scenario(),
        scheduler_index in 0usize..4,
    ) {
        let scheduler = SchedulerKind::ALL[scheduler_index];
        let config = SimConfig::builder(scenario, ModelPair::ResNet18Wrn50)
            .platform_rates(fast_platform())
            .scheduler(scheduler)
            .measurement(10.0, 10)
            .pretrain_samples(64)
            .build()
            .unwrap();
        let duration = config.scenario.duration_s();
        let result = ClSimulator::new(config).unwrap().run().unwrap();

        prop_assert!((result.duration_s - duration).abs() < 1e-9);
        let mut previous_time = -1.0;
        for &(t, accuracy) in &result.accuracy_timeline {
            prop_assert!(t > previous_time, "timeline not monotone");
            prop_assert!((0.0..=1.0).contains(&accuracy));
            previous_time = t;
        }
        let (label, retrain, wait) = result.time_breakdown();
        prop_assert!(label >= 0.0 && retrain >= 0.0 && wait >= 0.0);
        prop_assert!(label + retrain + wait <= duration + 2.0);
        prop_assert!((result.energy_joules - duration).abs() < 1e-6); // 1 W platform
    }

    /// Registry resolution never changes the numbers: for every builtin
    /// platform kind and a range of frame rates, a registry-resolved
    /// `PlatformSpec` (by kind *and* by name) produces rates bit-identical
    /// to the direct constructors (`PlatformRates::dacapo` / `::gpu`).
    #[test]
    fn spec_resolution_matches_direct_constructors(
        kind_index in 0usize..4,
        fps in 10.0f64..60.0,
    ) {
        let kind = PlatformKind::ALL[kind_index];
        let pair = ModelPair::ResNet18Wrn50;
        let accel = AccelConfig::default();
        let direct = match kind {
            PlatformKind::DaCapo => PlatformRates::dacapo(pair, fps, &accel).unwrap(),
            PlatformKind::OrinHigh => {
                PlatformRates::gpu(GpuDevice::jetson_orin_high(), pair).unwrap()
            }
            PlatformKind::OrinLow => {
                PlatformRates::gpu(GpuDevice::jetson_orin_low(), pair).unwrap()
            }
            PlatformKind::Rtx3090 => PlatformRates::gpu(GpuDevice::rtx_3090(), pair).unwrap(),
        };
        let by_kind = PlatformSpec::Kind(kind).resolve(pair, fps, &accel).unwrap();
        let by_name =
            PlatformSpec::Named(kind.to_string().to_lowercase()).resolve(pair, fps, &accel).unwrap();
        prop_assert_eq!(&direct, &by_kind);
        prop_assert_eq!(&direct, &by_name);
    }

    /// Determinism across APIs: `ClSimulator::run()` and a manually stepped
    /// `Session` built from the same seeded config produce identical
    /// `SimResult`s, for arbitrary scenarios, schedulers, and seeds.
    #[test]
    fn one_shot_run_equals_manually_stepped_session(
        scenario in arbitrary_scenario(),
        scheduler_index in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let build = || {
            SimConfig::builder(scenario.clone(), ModelPair::ResNet18Wrn50)
                .platform_rates(fast_platform())
                .scheduler(SchedulerKind::ALL[scheduler_index])
                .measurement(10.0, 10)
                .pretrain_samples(64)
                .seed(seed)
                .build()
                .unwrap()
        };

        let one_shot = ClSimulator::new(build()).unwrap().run().unwrap();

        let mut session = Session::new(build()).unwrap();
        let mut events = 0usize;
        while session.step().unwrap() != SessionEvent::Finished {
            events += 1;
        }
        let stepped = session.into_result();

        prop_assert_eq!(&one_shot, &stepped);
        prop_assert!(
            events >= stepped.phases.len() + stepped.accuracy_timeline.len(),
            "every phase and accuracy sample must surface as an event"
        );
    }
}

/// A stepped `Session` on a name-resolved platform spec matches the
/// enum-built one-shot run exactly: platform selection by registry name is
/// invisible to the engine's numbers.
#[test]
fn spec_built_session_matches_enum_built_run() {
    let scenario = Scenario::try_from_segments(
        "spec-vs-enum",
        vec![Segment { attributes: SegmentAttributes::default(), duration_s: 60.0 }],
    )
    .expect("segments are non-empty with positive durations");
    let build = |platform: PlatformSpec| {
        SimConfig::builder(scenario.clone(), ModelPair::ResNet18Wrn50)
            .platform(platform)
            .scheduler(SchedulerKind::DaCapoSpatiotemporal)
            .measurement(10.0, 15)
            .pretrain_samples(96)
            .build()
            .unwrap()
    };

    let enum_built =
        ClSimulator::new(build(PlatformSpec::Kind(PlatformKind::DaCapo))).unwrap().run().unwrap();

    let mut session = Session::new(build(PlatformSpec::from("dacapo"))).unwrap();
    while session.step().unwrap() != SessionEvent::Finished {}
    let spec_built = session.into_result();

    assert_eq!(enum_built, spec_built);
}
