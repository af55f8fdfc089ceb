//! Elastic-membership sweep: joins, leaves and a drain under churn profiles.
//!
//! One entry of `dacapo_bench::EXPERIMENTS`, by name; the experiment itself
//! is `src/experiments/elastic_churn.rs`.
//!
//! ```text
//! cargo run --release -p dacapo-bench --bin elastic_churn -- [--quick|--smoke] [--json]
//! ```

fn main() -> std::process::ExitCode {
    dacapo_bench::driver::main(env!("CARGO_BIN_NAME"))
}
