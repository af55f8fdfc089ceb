//! Figure 10: accuracy over time on scenario S1.
//!
//! One entry of `dacapo_bench::EXPERIMENTS`, by name; the experiment itself
//! is `src/experiments/fig10_accuracy_over_time.rs`.
//!
//! ```text
//! cargo run --release -p dacapo-bench --bin fig10_accuracy_over_time -- [--quick] [--json]
//! ```

fn main() -> std::process::ExitCode {
    dacapo_bench::driver::main(env!("CARGO_BIN_NAME"))
}
