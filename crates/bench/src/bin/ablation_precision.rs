//! Ablation: MX precision assignment.
//!
//! One entry of `dacapo_bench::EXPERIMENTS`, by name; the experiment itself
//! is `src/experiments/ablation_precision.rs`.
//!
//! ```text
//! cargo run --release -p dacapo-bench --bin ablation_precision -- [--quick] [--json]
//! ```

fn main() -> std::process::ExitCode {
    dacapo_bench::driver::main(env!("CARGO_BIN_NAME"))
}
