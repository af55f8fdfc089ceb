//! Cluster contention sweep: cameras × shared accelerators under `fair-share`;
//! `--trace <path>` / `--metrics <path>` observe its smallest point.
//!
//! One entry of `dacapo_bench::EXPERIMENTS`, by name; the experiment itself
//! is `src/experiments/cluster_contention.rs`.
//!
//! ```text
//! cargo run --release -p dacapo-bench --bin cluster_contention -- [--quick|--smoke] [--json]
//! ```

fn main() -> std::process::ExitCode {
    dacapo_bench::driver::main(env!("CARGO_BIN_NAME"))
}
