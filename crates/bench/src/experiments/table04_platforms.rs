//! Table IV: evaluated platforms, enumerated from the platform registry.
//!
//! Resolves every platform registered in `dacapo_core::platform` for the
//! paper's default workload (ResNet18/WideResNet50 at 30 FPS) and prints the
//! resulting capability sheets — builtin kinds, the parameterised builtin
//! families, and any custom platform registered at startup all show up for
//! free. The DaCapo component-level area/power budget follows.

use crate::{render_table, ExperimentOptions, Failure, HostRecord, Report};
use dacapo_accel::power::PowerModel;
use dacapo_accel::AccelConfig;
use dacapo_core::platform::{self, PlatformSpec, Sharing};
use dacapo_dnn::zoo::ModelPair;
use serde::Serialize;
use std::fmt::Write as _;

#[derive(Serialize)]
struct PlatformRow {
    registry_name: String,
    device: String,
    power_w: f64,
    inference_fps: f64,
    labeling_sps: f64,
    retraining_sps: f64,
    sharing: String,
}

pub(super) fn run(_options: &ExperimentOptions, _host: &mut HostRecord) -> Result<Report, Failure> {
    let mut text = String::new();
    let accel_config = AccelConfig::default();
    let pair = ModelPair::ResNet18Wrn50;
    let fps = 30.0;

    let mut rows = Vec::new();
    for name in platform::registered_names() {
        match PlatformSpec::Named(name.clone()).resolve(pair, fps, &accel_config) {
            Ok(rates) => rows.push(PlatformRow {
                registry_name: name,
                device: rates.name().to_string(),
                power_w: rates.power_watts(),
                inference_fps: rates.inference_fps_capacity(),
                labeling_sps: rates.labeling_sps(),
                retraining_sps: rates.retraining_sps(),
                sharing: match rates.sharing() {
                    Sharing::Partitioned { tsa_rows, bsa_rows } => {
                        format!("partitioned (T-SA {tsa_rows} / B-SA {bsa_rows})")
                    }
                    Sharing::TimeShared => "time-shared".to_string(),
                },
            }),
            Err(e) => writeln!(text, "warning: platform '{name}' did not resolve: {e}")?,
        }
    }

    writeln!(
        text,
        "Table IV: registered execution platforms ({} total) on {pair} at {fps:.0} FPS\n",
        rows.len()
    )?;
    let table = render_table(
        &["Registry name", "Device", "Power", "Inference", "Labeling", "Retraining", "Sharing"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.registry_name.clone(),
                    r.device.clone(),
                    format!("{:.3} W", r.power_w),
                    format!("{:.0} FPS", r.inference_fps),
                    format!("{:.1} sps", r.labeling_sps),
                    format!("{:.1} sps", r.retraining_sps),
                    r.sharing.clone(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    writeln!(text, "{table}")?;

    let power = PowerModel::for_config(&accel_config);
    writeln!(text, "DaCapo component budget (modelled split of the Table IV totals):\n")?;
    let breakdown = render_table(
        &["Component", "Area (mm2)", "Power (W)"],
        &power
            .components()
            .iter()
            .map(|c| {
                vec![c.name.clone(), format!("{:.3}", c.area_mm2), format!("{:.4}", c.power_w)]
            })
            .collect::<Vec<_>>(),
    );
    writeln!(text, "{breakdown}")?;
    writeln!(
        text,
        "DaCapo chip: {:.3} mm2 at {:.1} GHz (28 nm)",
        power.total_area_mm2(),
        accel_config.frequency_hz / 1e9
    )?;

    let watts = |registry_name: &str| {
        rows.iter().find(|r| r.registry_name == registry_name).map(|r| r.power_w)
    };
    if let (Some(high), Some(low), Some(dacapo)) =
        (watts("orin-high"), watts("orin-low"), watts("dacapo"))
    {
        writeln!(
            text,
            "Power ratios: OrinHigh / DaCapo = {:.0}x, OrinLow / DaCapo = {:.0}x",
            high / dacapo,
            low / dacapo
        )?;
    }
    Report::new(&rows, text)
}
