//! Runs every experiment binary's logic in sequence, writing JSON results to
//! `results/`. A convenience driver for regenerating the whole evaluation.
//!
//! Run with `cargo run --release -p dacapo-bench --bin run_all [--quick]`.

use std::process::Command;

const EXPERIMENTS: [&str; 15] = [
    "table03_models",
    "table04_platforms",
    "fig08_label_distribution",
    "fig03_kernel_breakdown",
    "fig02_motivation",
    "fig09_end_to_end",
    "fig10_accuracy_over_time",
    "fig11_temporal_allocation",
    "fig12_extreme_scenarios",
    "energy_comparison",
    "fleet_scaling",
    // Also leaves the stable executor-throughput trajectory record
    // (results/BENCH_cluster.json) behind.
    "cluster_contention",
    // Also leaves the stable sharing trajectory record
    // (results/BENCH_cross_camera.json) behind.
    "cross_camera",
    // Also leaves the stable elasticity trajectory record
    // (results/BENCH_churn.json) behind.
    "elastic_churn",
    // Also leaves the stable edge-cloud trajectory record
    // (results/BENCH_edge_cloud.json) behind.
    "edge_cloud",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut failures = Vec::new();
    for experiment in EXPERIMENTS {
        println!("\n=================== {experiment} ===================\n");
        let mut command = Command::new(env!("CARGO"));
        command.args(["run", "--release", "-p", "dacapo-bench", "--bin", experiment, "--"]);
        command.arg("--json");
        for arg in &args {
            command.arg(arg);
        }
        match command.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{experiment} exited with {status}");
                failures.push(experiment);
            }
            Err(e) => {
                eprintln!("failed to launch {experiment}: {e}");
                failures.push(experiment);
            }
        }
    }
    if failures.is_empty() {
        println!("\nAll experiments completed; JSON results are under results/.");
    } else {
        eprintln!("\nExperiments with failures: {failures:?}");
        std::process::exit(1);
    }
}
