//! Ablation: the T-SA/B-SA row split.
//!
//! One entry of `dacapo_bench::EXPERIMENTS`, by name; the experiment itself
//! is `src/experiments/ablation_partition.rs`.
//!
//! ```text
//! cargo run --release -p dacapo-bench --bin ablation_partition -- [--quick] [--json]
//! ```

fn main() -> std::process::ExitCode {
    dacapo_bench::driver::main(env!("CARGO_BIN_NAME"))
}
