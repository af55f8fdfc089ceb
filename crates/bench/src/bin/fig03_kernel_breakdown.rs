//! Figure 3: MAC breakdown of the three continuous-learning kernels.
//!
//! One entry of `dacapo_bench::EXPERIMENTS`, by name; the experiment itself
//! is `src/experiments/fig03_kernel_breakdown.rs`.
//!
//! ```text
//! cargo run -p dacapo-bench --bin fig03_kernel_breakdown -- [--json]
//! ```

fn main() -> std::process::ExitCode {
    dacapo_bench::driver::main(env!("CARGO_BIN_NAME"))
}
