//! The host-speed probe and the normalisation built on it.
//!
//! The sandbox this benchmark runs in changes speed from second to second:
//! ten-millisecond slices of a fixed kernel take anywhere between 1x and 2x
//! their best time, in bursts that last about a second, and CPU time tracks
//! wall time (the core is slowed, not descheduled). Raw timings of one
//! commit therefore disagree by 10-30 %. Probes run *before and after* a
//! repetition do not fix that, because the host they see is not the host
//! the repetition saw: measured, they leave 6-10 % between runs.
//!
//! So the probe runs *during* the repetition. The process pins itself to
//! one CPU and a second thread executes a fixed kernel in a loop there; the
//! kernel scheduler time-slices the two threads every few milliseconds, so
//! both see the same host, and with two always-runnable threads each gets
//! half the core. The probe iterations completed while an interval ran are
//! then a host-independent measure of the CPU work the interval did:
//! `normalised seconds = iterations x PROBE_NOMINAL_S`, the CPU seconds the
//! same work takes on the nominal host.
//!
//! What the kernel does matters as much as when it runs. The host slows
//! memory- and throughput-bound code far more than dependent arithmetic, so
//! a probe made of one kind of work mis-tracks a workload made of several:
//! regressing probe iterations per repetition on the repetition's wall time
//! (0 is perfect tracking) gave -0.17 / -0.61 / -0.53 on `fleet-steady` /
//! `fleet-barrier` / `solo-paper` for a naive 96-cubed triple loop, +0.68
//! for a register-only chain, and +0.09 / +0.18 / -0.07 for the blend used
//! here: a 1 MiB copy, a dependent multiply-add chain and a scalar
//! row-streaming 96-cubed product per iteration (about 1 : 2 : 6 in time). With it, repetitions of one workload
//! scatter by 3-4 % where raw wall times scatter by 8-12 %.
//!
//! **Frozen.** The kernel, its three sizes and [`PROBE_NOMINAL_S`] define
//! the unit every normalised metric is expressed in. The kernel uses no
//! workspace crate, so no change to the repository can make it faster;
//! changing any of it invalidates every recorded baseline.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Bytes one probe iteration copies.
const COPY_BYTES: usize = 1 << 20;
/// Dependent multiply-adds in one probe iteration.
const CHAIN_STEPS: usize = 30_000;
/// Side of the square matrices one probe iteration multiplies.
const GEMM_DIM: usize = 96;

/// What one probe iteration takes on the nominal host, in seconds.
pub const PROBE_NOMINAL_S: f64 = 0.0006;

/// The probe's operands, owned by the probe thread.
struct Kernel {
    source: Vec<u8>,
    target: Vec<u8>,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    x: f32,
}

impl Kernel {
    fn new() -> Self {
        let cell = |i: usize| ((i * 37 % 101) as f32 - 50.0) * 0.01;
        let len = GEMM_DIM * GEMM_DIM;
        Self {
            source: (0..COPY_BYTES).map(|i| i as u8).collect(),
            target: vec![0; COPY_BYTES],
            a: (0..len).map(cell).collect(),
            b: (0..len).map(|i| cell(i + 13)).collect(),
            c: vec![0.0; len],
            x: 1.0,
        }
    }

    /// One probe iteration: memory traffic, dependent arithmetic, and
    /// load/store-heavy scalar arithmetic, in plain loops over plain slices.
    #[inline(never)]
    fn iterate(&mut self) {
        self.target.copy_from_slice(black_box(&self.source));
        black_box(&mut self.target);

        for _ in 0..CHAIN_STEPS {
            self.x = black_box(self.x) * 1.000_000_1 + 0.5;
            if self.x > 1e30 {
                self.x = 1.0;
            }
        }

        // Indexed on purpose: the bounds checks keep this loop scalar, so it
        // is load/store traffic on warm lines, the kind of work the host
        // slows the most.
        let (a, b, c) = (&self.a[..], &self.b[..], &mut self.c[..]);
        c.fill(0.0);
        for i in 0..GEMM_DIM {
            for k in 0..GEMM_DIM {
                let a_ik = a[i * GEMM_DIM + k];
                for j in 0..GEMM_DIM {
                    c[i * GEMM_DIM + j] += a_ik * b[k * GEMM_DIM + j];
                }
            }
        }
        black_box(&mut self.c);
    }
}

/// Restricts the calling thread (and every thread it spawns afterwards) to
/// the given CPUs. Returns whether the kernel accepted the mask.
#[cfg(target_os = "linux")]
fn set_affinity(cpus: impl Iterator<Item = usize>) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    for cpu in cpus.filter(|&cpu| cpu < 64 * 16) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, initialised array and `cpusetsize` is its
    // exact size in bytes, which is all the call reads; pid 0 names the
    // calling thread. glibc is already linked by std.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn set_affinity(_cpus: impl Iterator<Item = usize>) -> bool {
    false
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

struct Shared {
    iterations: AtomicU64,
    /// The probe thread works while this is set and parks otherwise.
    running: AtomicBool,
    quit: AtomicBool,
}

/// The probe thread and the clock built on it.
pub struct Probe {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
    cpus: usize,
    /// Whether the process could be pinned. Without it the two threads
    /// float over different CPUs and normalised numbers mean little.
    pub pinned: bool,
}

impl Probe {
    /// Pins the process to its last CPU (the one least used by the rest of
    /// the system) and starts the probe thread, parked.
    pub fn start() -> Self {
        // Read before pinning: afterwards the process sees one CPU.
        let cpus = nproc();
        let pinned = set_affinity(std::iter::once(cpus - 1));
        // Relaxed throughout: the counter is a statistic and the flags
        // publish no other data.
        let shared = Arc::new(Shared {
            iterations: AtomicU64::new(0),
            running: AtomicBool::new(false),
            quit: AtomicBool::new(false),
        });
        let worker = Arc::clone(&shared);
        let thread = std::thread::spawn(move || {
            let mut kernel = Kernel::new();
            while !worker.quit.load(Ordering::Relaxed) {
                if worker.running.load(Ordering::Relaxed) {
                    kernel.iterate();
                    worker.iterations.fetch_add(1, Ordering::Relaxed);
                } else {
                    std::thread::park();
                }
            }
        });
        Self { shared, thread: Some(thread), cpus, pinned }
    }

    /// CPUs the process may use when it is not pinned.
    pub fn cpus(&self) -> usize {
        self.cpus
    }

    /// Times `work` while the probe shares the core with it.
    pub fn time<T>(&self, work: impl FnOnce() -> T) -> (Timing, T) {
        let thread = self.thread.as_ref().expect("the probe thread lives until drop");
        self.shared.running.store(true, Ordering::Relaxed);
        thread.thread().unpark();
        let before = self.shared.iterations.load(Ordering::Relaxed);
        let started = Instant::now();
        let out = work();
        let raw_s = started.elapsed().as_secs_f64();
        let iterations = self.shared.iterations.load(Ordering::Relaxed) - before;
        self.shared.running.store(false, Ordering::Relaxed);
        (Timing { raw_s, iterations }, out)
    }

    /// Runs `work` with the probe parked and the process free to use every
    /// CPU, then pins it again: for the one measurement that is about
    /// threads.
    pub fn unpinned<T>(&self, work: impl FnOnce() -> T) -> T {
        set_affinity(0..self.cpus);
        let out = work();
        set_affinity(std::iter::once(self.cpus - 1));
        out
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.shared.quit.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            // A panicked probe thread has nothing left to clean up.
            let _ = thread.join();
        }
    }
}

/// One measured interval: its wall time and the probe iterations that
/// completed beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub raw_s: f64,
    pub iterations: u64,
}

impl Timing {
    /// CPU seconds the interval's work takes on the nominal host. An
    /// interval too short for the probe to finish once counts as one
    /// iteration, so that rates stay finite.
    pub fn normalised_s(&self) -> f64 {
        self.iterations.max(1) as f64 * PROBE_NOMINAL_S
    }

    /// Wall milliseconds per probe iteration while the interval ran: twice
    /// the iteration's own time when the core is shared evenly.
    pub fn probe_ms(&self) -> f64 {
        1e3 * self.raw_s / self.iterations.max(1) as f64
    }

    /// Converts raw seconds measured inside the interval to normalised ones.
    pub fn factor(&self) -> f64 {
        self.normalised_s() / self.raw_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalised_time_counts_probe_iterations_not_wall_time() {
        let fast = Timing { raw_s: 1.0, iterations: 1000 };
        let slow = Timing { raw_s: 2.0, iterations: 1000 };
        // The same work on a host twice as slow: same normalised time.
        assert_eq!(fast.normalised_s(), slow.normalised_s());
        assert!((fast.normalised_s() - 1000.0 * PROBE_NOMINAL_S).abs() < 1e-12);
        assert!((slow.probe_ms() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn the_factor_scales_raw_parts_of_an_interval() {
        let t = Timing { raw_s: 4.0, iterations: 2000 };
        // A quarter of the interval is a quarter of its normalised time.
        assert!((1.0 * t.factor() - t.normalised_s() / 4.0).abs() < 1e-12);
    }

    #[test]
    fn the_probe_counts_only_while_an_interval_runs() {
        let probe = Probe::start();
        let spin = || {
            let started = Instant::now();
            while started.elapsed().as_secs_f64() < 0.05 {
                std::hint::spin_loop();
            }
        };
        let (first, ()) = probe.time(spin);
        assert!(first.iterations > 0, "the probe ran beside the interval");
        assert!(first.raw_s >= 0.05);
        let parked = probe.shared.iterations.load(Ordering::Relaxed);
        spin();
        // At most the iteration that was in flight when the interval ended.
        assert!(probe.shared.iterations.load(Ordering::Relaxed) <= parked + 1);
    }

    #[test]
    fn an_iteration_does_all_three_kinds_of_work() {
        let mut kernel = Kernel::new();
        kernel.iterate();
        assert_eq!(kernel.target, kernel.source);
        assert!(kernel.x > CHAIN_STEPS as f32 * 0.4, "the chain advanced: {}", kernel.x);
        // Row 0 of A times column 0 of B, recomputed independently.
        let expected: f32 = (0..GEMM_DIM).map(|k| kernel.a[k] * kernel.b[k * GEMM_DIM]).sum();
        assert!((kernel.c[0] - expected).abs() < 1e-3);
        let first = kernel.c.clone();
        kernel.iterate();
        assert_eq!(kernel.c, first, "iterations repeat the same product");
    }
}
