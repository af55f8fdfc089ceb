//! Energy and power comparison (Sections I and VII-B).
//!
//! One entry of `dacapo_bench::EXPERIMENTS`, by name; the experiment itself
//! is `src/experiments/energy_comparison.rs`.
//!
//! ```text
//! cargo run --release -p dacapo-bench --bin energy_comparison -- [--quick] [--json]
//! ```

fn main() -> std::process::ExitCode {
    dacapo_bench::driver::main(env!("CARGO_BIN_NAME"))
}
