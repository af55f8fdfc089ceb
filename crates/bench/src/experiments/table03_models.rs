//! Table III: specifications of the evaluated DNN models.
//!
//! Prints parameters (millions) and forward GFLOPs for the six models,
//! measured from the GEMM-level model specs, next to the values the paper
//! reports.

use crate::{render_table, ExperimentOptions, Failure, HostRecord, Report};
use dacapo_dnn::zoo::PaperModel;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    model: String,
    role: &'static str,
    params_millions: f64,
    paper_params_millions: f64,
    gflops: f64,
    paper_gflops: f64,
}

pub(super) fn run(_options: &ExperimentOptions, _host: &mut HostRecord) -> Result<Report, Failure> {
    let rows: Vec<Row> = PaperModel::ALL
        .iter()
        .map(|&model| {
            let spec = model.spec();
            Row {
                model: model.to_string(),
                role: if model.is_student() { "Student" } else { "Teacher" },
                params_millions: spec.params() as f64 / 1e6,
                paper_params_millions: model.table3_params_millions(),
                gflops: spec.forward_gflops(),
                paper_gflops: model.table3_gflops(),
            }
        })
        .collect();

    let table = render_table(
        &["Type", "Name", "Params (M)", "paper", "GFLOPs", "paper"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.role.to_string(),
                    r.model.clone(),
                    format!("{:.1}", r.params_millions),
                    format!("{:.1}", r.paper_params_millions),
                    format!("{:.2}", r.gflops),
                    format!("{:.2}", r.paper_gflops),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let text = format!("Table III: specifications of the evaluated DNN models\n\n{table}\n");
    Report::new(&rows, text)
}
