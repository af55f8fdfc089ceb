//! Runs every entry of `dacapo_bench::EXPERIMENTS` in order, in this process,
//! writing each one's JSON to `results/` — the whole evaluation regenerated.
//! A failing experiment is reported by name and the rest still run.
//!
//! Run with `cargo run --release -p dacapo-bench --bin run_all -- [--quick|--smoke]`.

fn main() -> std::process::ExitCode {
    dacapo_bench::driver::run_all()
}
