//! Multi-camera fleet run: eight scenarios as a heterogeneous parallel fleet.
//!
//! One entry of `dacapo_bench::EXPERIMENTS`, by name; the experiment itself
//! is `src/experiments/fleet_scaling.rs`.
//!
//! ```text
//! cargo run --release -p dacapo-bench --bin fleet_scaling -- [--quick] [--json]
//! ```

fn main() -> std::process::ExitCode {
    dacapo_bench::driver::main(env!("CARGO_BIN_NAME"))
}
