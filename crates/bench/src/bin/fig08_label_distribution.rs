//! Figure 8 / Table II: scenario definitions and per-segment label distributions.
//!
//! One entry of `dacapo_bench::EXPERIMENTS`, by name; the experiment itself
//! is `src/experiments/fig08_label_distribution.rs`.
//!
//! ```text
//! cargo run -p dacapo-bench --bin fig08_label_distribution -- [--json]
//! ```

fn main() -> std::process::ExitCode {
    dacapo_bench::driver::main(env!("CARGO_BIN_NAME"))
}
