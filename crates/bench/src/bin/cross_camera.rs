//! Cross-camera label-sharing sweep: overlap × sharing policy.
//!
//! One entry of `dacapo_bench::EXPERIMENTS`, by name; the experiment itself
//! is `src/experiments/cross_camera.rs`.
//!
//! ```text
//! cargo run --release -p dacapo-bench --bin cross_camera -- [--quick|--smoke] [--json]
//! ```

fn main() -> std::process::ExitCode {
    dacapo_bench::driver::main(env!("CARGO_BIN_NAME"))
}
