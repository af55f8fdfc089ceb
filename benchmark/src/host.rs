//! What the benchmark reads from the host: process counters and the run
//! manifest that ties an output record to a machine, commit and toolchain.

use crate::probe::{Probe, PROBE_NOMINAL_S};
use crate::Args;
use serde::Value;
use std::process::Command;

/// Makes glibc's allocator use one arena. With its default of one arena per
/// thread, which arena a short-lived worker thread lands in (and so how much
/// freed memory can be reused) differs from run to run: measured on
/// `fleet-observed`, peak RSS of one commit and one seed then ranges over
/// 47-52 MB, against 39.1-39.2 MB with a single arena. Measured repetitions
/// allocate from one thread, so nothing contends for that arena. Call before
/// any thread starts. Returns whether the allocator took the setting.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn use_one_malloc_arena() -> bool {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` takes two plain integers and only updates the
    // allocator's own settings; no other thread exists yet.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn use_one_malloc_arena() -> bool {
    false
}

/// Peak resident set size (`VmHWM`) in MB; 0 where `/proc` has no such line.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds of the whole process so far (`utime + stime` of
/// `/proc/self/stat`, in the kernel's 100 Hz ticks). During a repetition
/// that is the workload plus the probe thread: about the wall time while
/// the two have the pinned core to themselves, less when something else
/// took part of it.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields count from its ')'.
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 =
        after_name.split_whitespace().skip(11).take(2).filter_map(|t| t.parse::<f64>().ok()).sum();
    ticks / 100.0
}

/// First line of a command's output, or `"unknown"` (a source checkout
/// without `.git`, a machine without the tool).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The CPU features this binary was *compiled* for: the visible effect of
/// `-C target-cpu=native`, which decides how wide the GEMM kernels vectorise.
fn compiled_cpu_features() -> Vec<Value> {
    let mut features = Vec::new();
    macro_rules! feature {
        ($($name:tt),*) => {$(
            if cfg!(target_feature = $name) {
                features.push(Value::Str($name.to_string()));
            }
        )*};
    }
    feature!("sse4.2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512vl", "neon");
    features
}

/// The manifest embedded in every output record.
pub fn manifest(workload: &str, mode: &str, args: &Args, probe: &Probe) -> Value {
    let entry = |key: &str, value: Value| (key.to_string(), value);
    Value::Object(vec![
        entry("workload", Value::Str(workload.to_string())),
        entry("mode", Value::Str(mode.to_string())),
        entry("seed", Value::UInt(args.seed)),
        entry("seconds", Value::Float(args.seconds)),
        entry("quick_non_comparable", Value::Bool(args.quick)),
        entry("git_sha", Value::Str(first_line("git", &["rev-parse", "HEAD"]))),
        entry("rustc", Value::Str(first_line("rustc", &["-V"]))),
        entry("target_cpu_features", Value::Array(compiled_cpu_features())),
        entry("nproc", Value::UInt(probe.cpus() as u64)),
        entry("pinned", Value::Bool(probe.pinned)),
        entry("one_malloc_arena", Value::Bool(args.one_arena)),
        entry("probe_nominal_s", Value::Float(PROBE_NOMINAL_S)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_manifest_names_the_run() {
        let args = Args {
            workload: None,
            seed: 9,
            seconds: 2.0,
            trace: false,
            quick: true,
            sheet: true,
            one_arena: false,
        };
        let manifest = manifest("fleet-steady", "end-to-end", &args, &Probe::start());
        assert_eq!(manifest.get("seed"), Some(&Value::UInt(9)));
        assert_eq!(manifest.get("probe_nominal_s"), Some(&Value::Float(PROBE_NOMINAL_S)));
        for key in ["git_sha", "rustc", "target_cpu_features", "nproc", "pinned", "workload"] {
            assert!(manifest.get(key).is_some(), "{key} missing");
        }
    }

    #[test]
    fn process_counters_read_something_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
            let started = std::time::Instant::now();
            while started.elapsed().as_secs_f64() < 0.05 {
                std::hint::spin_loop();
            }
            assert!(process_cpu_seconds() > 0.0);
        }
    }
}
