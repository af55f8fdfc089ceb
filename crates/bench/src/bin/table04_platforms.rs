//! Table IV: evaluated platforms, enumerated from the platform registry.
//!
//! One entry of `dacapo_bench::EXPERIMENTS`, by name; the experiment itself
//! is `src/experiments/table04_platforms.rs`.
//!
//! ```text
//! cargo run -p dacapo-bench --bin table04_platforms -- [--json]
//! ```

fn main() -> std::process::ExitCode {
    dacapo_bench::driver::main(env!("CARGO_BIN_NAME"))
}
