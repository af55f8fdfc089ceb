//! Figure 2: the motivation study — accuracy of the non-adaptive Student,
//! the Teacher used for every frame, and an idealised Ekya continuous
//! learning system, on a datacenter GPU (RTX 3090) versus an autonomous
//! -system GPU (Jetson Orin).
//!
//! Dropped frames count as incorrect, which is what separates the two GPUs:
//! the RTX 3090 never drops frames, while the Orin cannot run the teacher (or
//! a full CL stack for the larger pair) at 30 FPS.

use crate::runner::{run_system, SystemUnderTest};
use crate::{pct, render_table, ExperimentOptions, Failure, HostRecord, Report};
use dacapo_accel::gpu::GpuDevice;
use dacapo_core::SchedulerKind;
use dacapo_datagen::{FrameStream, Scenario, StreamConfig};
use dacapo_dnn::workload::{unit_costs, Kernel};
use dacapo_dnn::zoo::ModelPair;
use serde::Serialize;
use std::fmt::Write as _;

#[derive(Serialize)]
struct Row {
    pair: String,
    gpu: String,
    student_accuracy: f64,
    teacher_accuracy: f64,
    ekya_accuracy: f64,
}

/// Accuracy of running the *teacher* on every frame: the teacher's labeling
/// accuracy degraded by the frames it drops on this device.
fn teacher_on_every_frame(pair: ModelPair, device: &GpuDevice, scenario: &Scenario) -> f64 {
    let stream_config = StreamConfig::default();
    let per_frame = unit_costs(pair).labeling_per_sample;
    let capacity_fps = device.units_per_second(Kernel::Labeling, per_frame);
    let drop_rate = if capacity_fps >= stream_config.fps {
        0.0
    } else {
        1.0 - capacity_fps / stream_config.fps
    };
    // The teacher's classification accuracy over the scenario: its base
    // accuracy lowered by the per-segment difficulty.
    let stream = FrameStream::new(scenario, stream_config);
    let teacher_base = 0.95f64;
    let mut total = 0.0;
    for segment in stream.scenario().segments() {
        total += (teacher_base - segment.attributes.difficulty()).clamp(0.0, 1.0);
    }
    let mean_teacher = total / stream.scenario().segments().len() as f64;
    mean_teacher * (1.0 - drop_rate)
}

pub(super) fn run(options: &ExperimentOptions, _host: &mut HostRecord) -> Result<Report, Failure> {
    let mut text = String::new();
    let scenario = Scenario::s1();
    let pairs = [ModelPair::ResNet18Wrn50, ModelPair::ResNet34Wrn101];
    // Each GPU's registry name selects its platform; the device drives the
    // roofline lookup for the teacher column.
    let gpus = [("rtx-3090", GpuDevice::rtx_3090()), ("orin-high", GpuDevice::jetson_orin_high())];

    let mut rows = Vec::new();
    for pair in pairs {
        for (gpu, device) in &gpus {
            // Student without continuous learning: the pre-trained model only.
            let student = run_system(
                scenario.clone(),
                pair,
                SystemUnderTest {
                    label: "Student",
                    platform: gpu,
                    scheduler: SchedulerKind::NoAdaptation,
                },
                options.quick,
            )?;
            // Idealised Ekya continuous learning on the same GPU.
            let ekya = run_system(
                scenario.clone(),
                pair,
                SystemUnderTest { label: "Ekya", platform: gpu, scheduler: SchedulerKind::Ekya },
                options.quick,
            )?;
            rows.push(Row {
                pair: pair.to_string(),
                gpu: device.name.clone(),
                student_accuracy: student.mean_accuracy,
                teacher_accuracy: teacher_on_every_frame(pair, device, &scenario),
                ekya_accuracy: ekya.mean_accuracy,
            });
        }
    }

    writeln!(
        text,
        "Figure 2: Student / Teacher / Ekya accuracy on RTX 3090 vs Jetson Orin (scenario S1)\n"
    )?;
    let table = render_table(
        &["Pair", "GPU", "Student", "Teacher", "Ekya"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.pair.clone(),
                    r.gpu.clone(),
                    pct(r.student_accuracy),
                    pct(r.teacher_accuracy),
                    pct(r.ekya_accuracy),
                ]
            })
            .collect::<Vec<_>>(),
    );
    writeln!(text, "{table}")?;
    writeln!(
        text,
        "Shape check: on the RTX 3090 the teacher beats the raw student and Ekya closes the gap; \
         moving to the Orin costs the teacher (and, for the heavy pair, Ekya) accuracy because \
         frames drop."
    )?;
    Report::new(&rows, text)
}
