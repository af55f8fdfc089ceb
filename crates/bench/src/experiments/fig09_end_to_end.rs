//! Figure 9: end-to-end averaged accuracy of six continuously learning
//! systems on scenarios S1–S6, for the three model pairs, plus the geometric
//! mean.
//!
//! Also prints the Table I hyperparameters when `--show-config` is passed.

use crate::runner::{run_system, FIG9_SYSTEMS};
use crate::{pct, render_table, ExperimentOptions, Failure, HostRecord, Report};
use dacapo_core::metrics::geometric_mean;
use dacapo_core::Hyperparams;
use dacapo_datagen::Scenario;
use dacapo_dnn::zoo::ModelPair;
use serde::Serialize;
use std::fmt::Write as _;

#[derive(Serialize)]
struct SystemRow {
    pair: String,
    system: String,
    per_scenario: Vec<(String, f64)>,
    gmean: f64,
}

pub(super) fn run(options: &ExperimentOptions, _host: &mut HostRecord) -> Result<Report, Failure> {
    let mut text = String::new();
    if options.show_config {
        let hp = Hyperparams::default();
        writeln!(text, "Table I hyperparameters: N_t={}, N_v={}, N_l={}, N_ldd={}, C_b={}, V_thr={}, epochs={}, batch={}\n",
            hp.retrain_samples, hp.validation_samples, hp.label_samples, hp.drift_label_samples(),
            hp.buffer_capacity, hp.drift_threshold, hp.epochs, hp.batch_size)?;
    }

    let scenarios =
        if options.quick { vec![Scenario::s1(), Scenario::s3()] } else { Scenario::regular() };
    let pairs = ModelPair::ALL;

    let mut all_rows: Vec<SystemRow> = Vec::new();
    for pair in pairs {
        writeln!(text, "== {pair} ==\n")?;
        let mut table_rows = Vec::new();
        for system in FIG9_SYSTEMS {
            let mut per_scenario = Vec::new();
            for scenario in &scenarios {
                let result = run_system(scenario.clone(), pair, system, options.quick)?;
                per_scenario.push((scenario.name().to_string(), result.mean_accuracy));
            }
            let gmean = geometric_mean(&per_scenario.iter().map(|(_, a)| *a).collect::<Vec<_>>());
            let mut cells = vec![system.label.to_string()];
            cells.extend(per_scenario.iter().map(|(_, a)| pct(*a)));
            cells.push(pct(gmean));
            table_rows.push(cells);
            all_rows.push(SystemRow {
                pair: pair.to_string(),
                system: system.label.to_string(),
                per_scenario,
                gmean,
            });
        }
        let mut headers = vec!["System"];
        let names: Vec<String> = scenarios.iter().map(|s| s.name().to_string()).collect();
        headers.extend(names.iter().map(String::as_str));
        headers.push("gmean");
        writeln!(text, "{}", render_table(&headers, &table_rows))?;
    }

    // Headline comparison: DaCapo-Spatiotemporal vs the Orin baselines.
    let gmean_of = |label: &str| {
        let values: Vec<f64> =
            all_rows.iter().filter(|r| r.system == label).map(|r| r.gmean).collect();
        values.iter().sum::<f64>() / values.len().max(1) as f64
    };
    let dacapo = gmean_of("DaCapo-Spatiotemporal");
    let ekya = gmean_of("OrinHigh-Ekya");
    let eomu = gmean_of("OrinHigh-EOMU");
    writeln!(
        text,
        "Headline: DaCapo-Spatiotemporal is {:+.1} points vs OrinHigh-Ekya and {:+.1} points vs \
         OrinHigh-EOMU (paper reports +6.5 and +5.5).",
        (dacapo - ekya) * 100.0,
        (dacapo - eomu) * 100.0
    )?;
    Report::new(&all_rows, text)
}
