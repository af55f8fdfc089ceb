//! The layer sheet: each layer's public functions timed at the shapes the
//! workloads use (student MLP 16-64-32-10, batch 16, evaluation batch 10,
//! buffer 512). Workload-independent; every case runs for `case_s` seconds
//! beside the probe and reports a normalised rate.

use crate::probe::{Probe, Timing};
use crate::stats::quantile;
use crate::workloads::{generate, Plan, Size};
use dacapo_accel::estimator::{estimate, spatial_allocation, PrecisionPlan};
use dacapo_accel::{AccelConfig, DaCapoAccelerator};
use dacapo_core::{LabeledSample, SampleBuffer, Session, SessionEvent, SessionSnapshot, SimConfig};
use dacapo_datagen::{CenterCache, FrameStream, Scenario, StreamConfig, NUM_CLASSES};
use dacapo_dnn::zoo::{ModelPair, PaperModel};
use dacapo_dnn::{
    train_stacked, Mlp, MlpConfig, QuantMode, StackedJob, TeacherOracle, TrainScratch,
};
use dacapo_mx::{MxPrecision, MxVector};
use dacapo_tensor::{init, ops, quant, Matrix, Workspace};
use std::hint::black_box;
use std::time::Instant;

/// One layer-sheet metric.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Times cases one after another.
struct Sheet<'a> {
    probe: &'a Probe,
    case_s: f64,
    out: Vec<LayerMetric>,
}

impl Sheet<'_> {
    /// Runs `op` repeatedly for about `case_s` seconds. Returns the calls
    /// made and what they took.
    fn time(&mut self, mut op: impl FnMut()) -> (f64, Timing) {
        op(); // warm caches and scratch arenas
        let case_s = self.case_s;
        let (timing, calls) = self.probe.time(|| {
            let started = Instant::now();
            let mut calls = 0u64;
            // Read the clock about once per millisecond, so that it stays
            // out of the short operations.
            let mut batch = 1u64;
            loop {
                for _ in 0..batch {
                    op();
                }
                calls += batch;
                let raw_s = started.elapsed().as_secs_f64();
                if raw_s >= case_s {
                    return calls;
                }
                batch = ((1e-3 * calls as f64 / raw_s) as u64).clamp(1, 1 << 20);
            }
        });
        (calls as f64, timing)
    }

    /// Records `work_per_call x calls / seconds / scale` (a throughput).
    fn rate(
        &mut self,
        name: &'static str,
        unit: &'static str,
        work_per_call: f64,
        scale: f64,
        op: impl FnMut(),
    ) {
        let (calls, timing) = self.time(op);
        let value = work_per_call * calls / timing.normalised_s() / scale;
        self.out.push(LayerMetric { name, unit, value });
    }

    /// Records `seconds x scale / (calls x items_per_call)` (a latency).
    fn latency(
        &mut self,
        name: &'static str,
        unit: &'static str,
        items_per_call: f64,
        scale: f64,
        op: impl FnMut(),
    ) {
        let (calls, timing) = self.time(op);
        let value = timing.normalised_s() * scale / (calls * items_per_call);
        self.out.push(LayerMetric { name, unit, value });
    }
}

/// The student's three GEMM shapes at batch 16: `(m, k, n)`.
const STUDENT_GEMMS: [(usize, usize, usize); 3] = [(16, 16, 64), (16, 64, 32), (16, 32, 10)];
const STUDENT_MACS: f64 = (16 * 16 * 64 + 16 * 64 * 32 + 16 * 32 * 10) as f64;

fn uniform(rows: usize, cols: usize, seed: u64) -> Matrix {
    init::uniform(rows, cols, -1.0, 1.0, seed).expect("layer-sheet shapes are positive")
}

fn student(inference: QuantMode, training: QuantMode) -> Mlp {
    Mlp::new(MlpConfig {
        input_dim: 16,
        hidden: vec![64, 32],
        num_classes: NUM_CLASSES,
        inference_mode: inference,
        training_mode: training,
        seed: 0x5eed,
    })
    .expect("student shape is valid")
}

fn tensor_cases(sheet: &mut Sheet<'_>) {
    let mut ws = Workspace::new();
    let mut out = Matrix::identity(1);
    let operands: Vec<(Matrix, Matrix)> =
        STUDENT_GEMMS.iter().map(|&(m, k, n)| (uniform(m, k, 1), uniform(k, n, 2))).collect();
    sheet.rate("tensor.gemm_f32_student_gmacs", "GMAC/s", STUDENT_MACS, 1e9, || {
        for (a, b) in &operands {
            ops::matmul_into(black_box(a), black_box(b), &mut out, &mut ws).expect("shapes agree");
        }
    });
    let (a, b) = (uniform(256, 256, 3), uniform(256, 256, 4));
    sheet.rate("tensor.gemm_f32_large_gmacs", "GMAC/s", 256f64.powi(3), 1e9, || {
        ops::matmul_into(black_box(&a), black_box(&b), &mut out, &mut ws).expect("shapes agree");
    });
    // The weight gradient `xT . delta`: x is batch x k, delta is batch x n.
    let gradients: Vec<(Matrix, Matrix)> =
        STUDENT_GEMMS.iter().map(|&(m, k, n)| (uniform(m, k, 5), uniform(m, n, 6))).collect();
    sheet.rate("tensor.gemm_atb_student_gmacs", "GMAC/s", STUDENT_MACS, 1e9, || {
        for (x, delta) in &gradients {
            ops::matmul_at_b(black_box(x), black_box(delta), &mut out, &mut ws)
                .expect("shapes agree");
        }
    });
    for (name, precision) in [
        ("tensor.gemm_mx6_student_gmacs", MxPrecision::Mx6),
        ("tensor.gemm_mx9_student_gmacs", MxPrecision::Mx9),
    ] {
        sheet.rate(name, "GMAC/s", STUDENT_MACS, 1e9, || {
            for (a, b) in &operands {
                quant::mx_matmul_into(black_box(a), black_box(b), precision, &mut out, &mut ws)
                    .expect("finite operands");
            }
        });
    }
    let rows = uniform(64, 64, 7);
    sheet.rate("tensor.quantize_rows_gbs", "GB/s", (rows.len() * 4) as f64, 1e9, || {
        quant::quantize_rows_into(black_box(&rows), MxPrecision::Mx6, &mut out)
            .expect("finite operands");
    });
}

fn mx_cases(sheet: &mut Sheet<'_>) {
    let data: Vec<f32> = (0..4096).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.03).collect();
    let bytes = (data.len() * 4) as f64;
    let mut out = vec![0.0f32; data.len()];
    for (name, precision) in
        [("mx.quantize_mx6_gbs", MxPrecision::Mx6), ("mx.quantize_mx9_gbs", MxPrecision::Mx9)]
    {
        sheet.rate(name, "GB/s", bytes, 1e9, || {
            MxVector::quantize_into(black_box(&data), precision, &mut out).expect("finite data");
        });
    }
    sheet.rate("mx.encode_mx9_gbs", "GB/s", bytes, 1e9, || {
        black_box(MxVector::encode(black_box(&data), MxPrecision::Mx9).expect("finite data"));
    });
    let encoded = MxVector::encode(&data, MxPrecision::Mx9).expect("finite data");
    sheet.rate("mx.dot_gmacs", "GMAC/s", data.len() as f64, 1e9, || {
        black_box(black_box(&encoded).dot(&encoded).expect("equal lengths"));
    });
}

fn dnn_cases(sheet: &mut Sheet<'_>) {
    let features = uniform(128, 16, 8);
    let rows: Vec<&[f32]> = features.iter_rows().collect();
    let labels: Vec<usize> = (0..rows.len()).map(|i| i % NUM_CLASSES).collect();
    let mut scratch = TrainScratch::new();
    const EPOCHS: usize = 3;
    let presentations = (rows.len() * EPOCHS) as f64;

    for (name, training) in [
        ("dnn.train_fp32_us_per_sample", QuantMode::Fp32),
        ("dnn.train_mx_us_per_sample", QuantMode::Mx(MxPrecision::Mx9)),
    ] {
        let pristine = student(QuantMode::Fp32, training);
        sheet.latency(name, "us", presentations, 1e6, || {
            let mut net = pristine.clone();
            net.train_rows_with(&rows, &labels, EPOCHS, 16, 1e-2, &mut scratch)
                .expect("training batch is well-formed");
            black_box(&net);
        });
    }
    let pristine = student(QuantMode::Fp32, QuantMode::Fp32);
    const JOBS: usize = 8;
    sheet.latency(
        "dnn.train_stacked_us_per_sample",
        "us",
        presentations * JOBS as f64,
        1e6,
        || {
            let mut nets = vec![pristine.clone(); JOBS];
            let mut jobs: Vec<StackedJob<'_>> = nets
                .iter_mut()
                .map(|net| StackedJob {
                    net,
                    rows: rows.clone(),
                    labels: labels.clone(),
                    epochs: EPOCHS,
                    batch_size: 16,
                    learning_rate: 1e-2,
                })
                .collect();
            black_box(train_stacked(&mut jobs, &mut scratch).expect("jobs are well-formed"));
        },
    );
    for (name, inference) in [
        ("dnn.eval_fp32_us_per_sample", QuantMode::Fp32),
        ("dnn.eval_mx_us_per_sample", QuantMode::Mx(MxPrecision::Mx6)),
    ] {
        let net = student(inference, QuantMode::Fp32);
        sheet.latency(name, "us", 10.0, 1e6, || {
            black_box(
                net.evaluate_rows_with(black_box(&rows[..10]), &labels[..10], &mut scratch)
                    .expect("evaluation batch is well-formed"),
            );
        });
    }
    let mut teacher = TeacherOracle::new(NUM_CLASSES, 0.95, 9);
    let mut class = 0usize;
    sheet.latency("dnn.teacher_label_ns", "ns", 1.0, 1e9, || {
        class = (class + 1) % NUM_CLASSES;
        black_box(teacher.label(class, 0.1));
    });
}

/// The zoo's worst relative error against the paper's Table III (parameter
/// counts and forward GFLOPs): the model's error against its reference.
fn table3_max_err_pct() -> f64 {
    PaperModel::ALL
        .iter()
        .flat_map(|model| {
            let spec = model.spec();
            [
                (spec.params() as f64 / 1e6, model.table3_params_millions()),
                (spec.forward_gflops(), model.table3_gflops()),
            ]
        })
        .map(|(modelled, paper)| 100.0 * (modelled / paper - 1.0).abs())
        .fold(0.0, f64::max)
}

fn datagen_cases(sheet: &mut Sheet<'_>) {
    let stream = FrameStream::new(&Scenario::s1(), StreamConfig::default());
    let mut index = 0u64;
    sheet.rate("datagen.frames_per_s", "1/s", 1.0, 1.0, || {
        index = (index + 7) % stream.num_frames();
        black_box(stream.frame_at(index));
    });
    // One accuracy measurement's frames: 10 out of a 10 s interval.
    let mut cache = CenterCache::new();
    let mut start_s = 0.0;
    sheet.rate("datagen.frames_cached_per_s", "1/s", 10.0, 1.0, || {
        start_s = (start_s + 10.0) % 1000.0;
        black_box(stream.frames_between_cached(start_s, start_s + 10.0, 30, &mut cache));
    });
}

fn accel_cases(sheet: &mut Sheet<'_>) {
    let accel = DaCapoAccelerator::new(AccelConfig::default()).expect("default accelerator");
    let plan = PrecisionPlan::default();
    let pair = ModelPair::ResNet18Wrn50;
    sheet.latency("accel.estimate_us", "us", 1.0, 1e6, || {
        black_box(estimate(&accel, pair, 12, 16, &plan).expect("12 T-SA rows are valid"));
    });
    sheet.latency("accel.spatial_allocation_us", "us", 1.0, 1e6, || {
        black_box(spatial_allocation(&accel, pair, 30.0, &plan).expect("30 fps is feasible"));
    });
    let partition = accel.partition(12).expect("12 T-SA rows are valid");
    let gemms = PaperModel::ResNet18.spec().forward_gemms(1);
    sheet.latency("accel.gemm_cycles_us", "us", 1.0, 1e6, || {
        black_box(partition.bsa().gemms_cycles(black_box(&gemms), MxPrecision::Mx6));
    });
}

/// A `fleet-steady` camera: the session the fleet workloads run.
fn fleet_camera_config() -> SimConfig {
    match generate("fleet-steady", 0, Size::Quick) {
        Some(Plan::Fleet(fleet)) => fleet.cameras[0].1.clone(),
        _ => unreachable!("fleet-steady is a fleet workload"),
    }
}

fn core_cases(sheet: &mut Sheet<'_>) {
    let sample = LabeledSample {
        features: vec![0.25; 16],
        teacher_label: 3,
        true_class: 3,
        timestamp_s: 1.0,
    };
    let mut buffer = SampleBuffer::new(512);
    sheet.latency("core.buffer.push_ns", "ns", 1.0, 1e9, || {
        buffer.push(black_box(&sample).clone());
    });
    let mut seed = 0u64;
    sheet.latency("core.buffer.draw_us", "us", 1.0, 1e6, || {
        seed += 1;
        black_box(buffer.draw(128, 32, seed));
    });

    let config = fleet_camera_config();
    sheet.latency("core.session.new_ms", "ms", 1.0, 1e3, || {
        black_box(Session::new(config.clone()).expect("benchmark config is valid"));
    });

    // Whole sessions stepped one phase at a time; each step is timed on its
    // own, then scaled by the case's normalisation factor.
    let mut step_s: Vec<f64> = Vec::new();
    let (_, timing) = sheet.time(|| {
        let mut session = Session::new(config.clone()).expect("benchmark config is valid");
        loop {
            let started = Instant::now();
            let events = session.step_phase().expect("benchmark session steps");
            step_s.push(started.elapsed().as_secs_f64());
            if matches!(events.last(), Some(SessionEvent::Finished)) {
                break;
            }
        }
    });
    let factor = timing.factor();
    for (name, q) in [("core.session.step_us_p50", 0.5), ("core.session.step_us_p99", 0.99)] {
        sheet.out.push(LayerMetric {
            name,
            unit: "us",
            value: quantile(&step_s, q) * factor * 1e6,
        });
    }

    let mut session = Session::new(config).expect("benchmark config is valid");
    while session.progress() < 0.5 {
        session.step().expect("benchmark session steps");
    }
    let json = session.snapshot().to_json();
    let megabytes = json.len() as f64 / 1e6;
    sheet.rate("core.snapshot.out_mbs", "MB/s", megabytes, 1.0, || {
        black_box(black_box(&session).snapshot().to_json());
    });
    sheet.rate("core.snapshot.in_mbs", "MB/s", megabytes, 1.0, || {
        let snapshot = SessionSnapshot::from_json(black_box(&json)).expect("own snapshot parses");
        black_box(Session::restore(snapshot).expect("own snapshot restores"));
    });
    sheet.out.push(LayerMetric {
        name: "core.snapshot.bytes",
        unit: "bytes",
        value: json.len() as f64,
    });
}

/// Runs every case for `case_s` seconds each.
pub fn run(probe: &Probe, case_s: f64) -> Vec<LayerMetric> {
    let mut sheet = Sheet { probe, case_s, out: Vec::new() };
    tensor_cases(&mut sheet);
    mx_cases(&mut sheet);
    dnn_cases(&mut sheet);
    sheet.out.push(LayerMetric {
        name: "dnn.table3_max_err_pct",
        unit: "%",
        value: table3_max_err_pct(),
    });
    datagen_cases(&mut sheet);
    accel_cases(&mut sheet);
    core_cases(&mut sheet);
    sheet.out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_case_reports_a_positive_finite_value() {
        let metrics = run(&Probe::start(), 0.02);
        assert_eq!(metrics.len(), 30);
        for metric in &metrics {
            assert!(metric.value.is_finite() && metric.value > 0.0, "{}", metric.name);
        }
        let mut names: Vec<_> = metrics.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), metrics.len(), "metric names are unique");
    }

    #[test]
    fn the_zoo_stays_within_its_documented_table3_error() {
        // The zoo's own tests allow 2 % on parameters and 6 % on GFLOPs.
        let err = table3_max_err_pct();
        assert!(err > 0.0 && err < 6.0, "{err}");
    }
}
