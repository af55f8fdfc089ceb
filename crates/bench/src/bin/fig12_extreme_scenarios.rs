//! Figure 12: the extreme drift scenarios ES1 and ES2.
//!
//! One entry of `dacapo_bench::EXPERIMENTS`, by name; the experiment itself
//! is `src/experiments/fig12_extreme_scenarios.rs`.
//!
//! ```text
//! cargo run --release -p dacapo-bench --bin fig12_extreme_scenarios -- [--quick] [--json]
//! ```

fn main() -> std::process::ExitCode {
    dacapo_bench::driver::main(env!("CARGO_BIN_NAME"))
}
