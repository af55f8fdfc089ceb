//! Table III: specifications of the evaluated DNN models.
//!
//! One entry of `dacapo_bench::EXPERIMENTS`, by name; the experiment itself
//! is `src/experiments/table03_models.rs`.
//!
//! ```text
//! cargo run -p dacapo-bench --bin table03_models -- [--json]
//! ```

fn main() -> std::process::ExitCode {
    dacapo_bench::driver::main(env!("CARGO_BIN_NAME"))
}
