//! Figure 2: Student / Teacher / Ekya accuracy on RTX 3090 vs Jetson Orin.
//!
//! One entry of `dacapo_bench::EXPERIMENTS`, by name; the experiment itself
//! is `src/experiments/fig02_motivation.rs`.
//!
//! ```text
//! cargo run --release -p dacapo-bench --bin fig02_motivation -- [--quick] [--json]
//! ```

fn main() -> std::process::ExitCode {
    dacapo_bench::driver::main(env!("CARGO_BIN_NAME"))
}
