//! Figure 11: retraining vs labeling time split of DC-S and DC-ST.
//!
//! One entry of `dacapo_bench::EXPERIMENTS`, by name; the experiment itself
//! is `src/experiments/fig11_temporal_allocation.rs`.
//!
//! ```text
//! cargo run --release -p dacapo-bench --bin fig11_temporal_allocation -- [--quick] [--json]
//! ```

fn main() -> std::process::ExitCode {
    dacapo_bench::driver::main(env!("CARGO_BIN_NAME"))
}
