//! Edge–cloud offload sweep: uplink × offload policy.
//!
//! One entry of `dacapo_bench::EXPERIMENTS`, by name; the experiment itself
//! is `src/experiments/edge_cloud.rs`.
//!
//! ```text
//! cargo run --release -p dacapo-bench --bin edge_cloud -- [--quick|--smoke] [--json]
//! ```

fn main() -> std::process::ExitCode {
    dacapo_bench::driver::main(env!("CARGO_BIN_NAME"))
}
