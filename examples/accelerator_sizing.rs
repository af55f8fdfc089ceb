//! Accelerator sizing study: sweep the T-SA/B-SA row split and the MX
//! precision assignment and print the resulting kernel throughputs — the
//! exploration the offline performance estimator (Section IV) automates.
//!
//! ```text
//! cargo run --release --example accelerator_sizing
//! ```

use dacapo_accel::estimator::{estimate, spatial_allocation, PrecisionPlan};
use dacapo_accel::power::PowerModel;
use dacapo_accel::{AccelConfig, DaCapoAccelerator};
use dacapo_dnn::zoo::ModelPair;
use dacapo_mx::MxPrecision;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = AccelConfig::default();
    let accel = DaCapoAccelerator::new(config)?;
    let power = PowerModel::for_config(&config);
    println!(
        "DaCapo prototype: {}x{} DPEs @ {:.0} MHz, {:.3} mm2, {:.3} W\n",
        config.rows,
        config.cols,
        config.frequency_hz / 1e6,
        power.total_area_mm2(),
        power.total_power_w()
    );

    let plan = PrecisionPlan::default();
    for pair in ModelPair::ALL {
        println!("== {pair} ==");
        println!(
            "{:>9} {:>9} {:>14} {:>16} {:>18}",
            "T-SA rows", "B-SA rows", "inference FPS", "labeling (sps)", "retraining (sps)"
        );
        for tsa_rows in (2..16).step_by(2) {
            let est = estimate(&accel, pair, tsa_rows, 16, &plan)?;
            println!(
                "{:>9} {:>9} {:>14.1} {:>16.1} {:>18.1}",
                est.tsa_rows,
                est.bsa_rows,
                est.inference_fps,
                est.labeling_samples_per_s,
                est.retraining_samples_per_s
            );
        }
        let chosen = spatial_allocation(&accel, pair, 30.0, &plan)?;
        println!("offline spatial allocator picks T-SA = {chosen} rows for 30 FPS\n");
    }

    // Precision ablation: what retraining throughput costs at each MX mode on
    // a 12-row T-SA.
    println!("== precision ablation (12-row T-SA, retraining batches) ==");
    for precision in MxPrecision::ALL {
        let custom = PrecisionPlan { retraining: precision, ..PrecisionPlan::default() };
        let est = estimate(&accel, ModelPair::ResNet18Wrn50, 12, 16, &custom)?;
        println!("  retraining at {precision}: {:.1} samples/s", est.retraining_samples_per_s);
    }
    println!("(the paper selects MX9 for retraining because MX4/MX6 degrade training accuracy)");
    Ok(())
}
