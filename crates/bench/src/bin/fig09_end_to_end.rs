//! Figure 9: end-to-end accuracy of six systems × scenarios × three model pairs.
//!
//! One entry of `dacapo_bench::EXPERIMENTS`, by name; the experiment itself
//! is `src/experiments/fig09_end_to_end.rs`.
//!
//! ```text
//! cargo run --release -p dacapo-bench --bin fig09_end_to_end -- [--quick] [--json] [--show-config]
//! ```

fn main() -> std::process::ExitCode {
    dacapo_bench::driver::main(env!("CARGO_BIN_NAME"))
}
