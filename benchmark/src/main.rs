//! The repository benchmark. See `benchmark/README.md` for the metrics,
//! the workloads and how the numbers interact.
//!
//! ```text
//! dacapo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! dacapo-benchmark [--seed <n>] [--seconds <s>] [--quick]      # everything
//! ```
//!
//! With `--workload`, one workload runs in this process: `--trace 0`
//! measures the end-to-end metrics with no observer attached, `--trace 1`
//! the per-layer metrics (span-recording runs plus the layer sheet). The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the same numbers with quartiles,
//! raw values and the run manifest go to `benchmark/out/`. Without
//! `--workload`, every workload runs in both modes, one child process each
//! (peak memory and set-up time are per process).

mod host;
mod layers;
mod probe;
mod stats;
mod tracer;
mod workloads;

use probe::{Probe, Timing};
use serde::Value;
use stats::{median, overhead_pct, quantile, spread_pct};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use tracer::{buckets, step_seconds, Buckets, Counts, Tracer};
use workloads::{
    check, failed_sessions, generate, Agreement, Drive, Plan, RepResult, SinkTotals, Size,
};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest measured repetitions, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Span-recording repetitions of a traced run.
const TRACED_REPS: usize = 3;
/// Repetitions of each run a traced run compares against (untraced,
/// measurement-free, null-sink, full-sink).
const COMPARISON_REPS: usize = 2;
/// Seconds per layer-sheet case.
const LAYER_CASE_S: f64 = 0.5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    sheet: bool,
    /// Whether the allocator was limited to one arena (not a flag).
    one_arena: bool,
}

impl Args {
    fn size(&self) -> Size {
        if self.quick {
            Size::Quick
        } else {
            Size::Full
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        sheet: true,
        one_arena: false,
    };
    let mut words = std::env::args().skip(1);
    while let Some(flag) = words.next() {
        let mut value = || words.next().ok_or(format!("{flag} needs a value"));
        let flag_value = |text: String| match text.as_str() {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(format!("expected 0 or 1, got '{other}'")),
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => args.trace = flag_value(value()?)?,
            // Internal: the run-everything mode measures the workload-
            // independent metrics (telemetry cost and thread scaling on the
            // steady fleet, the layer sheet) once, not once per workload.
            "--sheet" => args.sheet = flag_value(value()?)?,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    /// Shown beside the value and stored in the record: quartiles, raw
    /// values, shares.
    note: String,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.to_string(), unit, value, note: String::new() }
}

fn count(name: &str, value: u64) -> Metric {
    metric(name, "count", value as f64)
}

/// A timing-derived metric: the median over repetitions, with quartiles,
/// the raw (un-normalised) median and the repetition count beside it.
fn timing_metric(name: &str, unit: &'static str, normalised: &[f64], raw: &[f64]) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value: median(normalised),
        note: format!(
            "q1 {:.6} q3 {:.6} raw-median {:.6} n {}",
            quantile(normalised, 0.25),
            quantile(normalised, 0.75),
            median(raw),
            normalised.len()
        ),
    }
}

/// One measured repetition.
struct Rep {
    timing: Timing,
    cpu_s: f64,
    steps: usize,
    totals: SinkTotals,
}

/// Runs repetitions of one workload against its reference result and keeps
/// the operation counts.
struct Runner<'a> {
    probe: &'a Probe,
    plan: Plan,
    reference: RepResult,
    out_dir: &'a Path,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// What the first file-recorded repetition's sinks wrote; the later
    /// ones must write exactly as much (their output is deterministic).
    first_sink_totals: Option<SinkTotals>,
}

impl Runner<'_> {
    fn new<'a>(
        probe: &'a Probe,
        plan: Plan,
        reference: RepResult,
        out_dir: &'a Path,
    ) -> Runner<'a> {
        Runner {
            probe,
            plan,
            reference,
            out_dir,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            first_sink_totals: None,
        }
    }

    /// Judges a repetition's outcome: every session is one operation.
    fn judge(&mut self, outcome: &Result<(RepResult, SinkTotals), String>, agreement: Agreement) {
        let sessions = self.plan.sessions();
        self.attempted += sessions as u64;
        let failed = match outcome {
            Err(problem) => {
                self.problems.push(problem.clone());
                sessions
            }
            Ok((result, _)) => match check(&self.plan, result) {
                Err(problem) => {
                    self.problems.push(problem);
                    sessions
                }
                Ok(()) => failed_sessions(&self.reference, result, agreement),
            },
        };
        if failed > 0 && self.problems.is_empty() {
            self.problems.push(format!("{failed} sessions disagree with the warm-up's results"));
        }
        self.failed += failed as u64;
    }

    /// One repetition: construction outside the timed call, then the run,
    /// either plain (`recorded: None`) or through a `TelemetryRecorder`
    /// without (`Some(false)`) or with (`Some(true)`) its file sinks.
    /// Callers that record to files end with [`Runner::verify_trace_file`].
    fn rep(&mut self, recorded: Option<bool>) -> Rep {
        let prepared = self.plan.prepare(1);
        let drive = match recorded {
            None => Drive::Plain,
            Some(false) => Drive::Recorded { files: None },
            Some(true) => Drive::Recorded { files: Some(self.out_dir) },
        };
        let cpu_before = host::process_cpu_seconds();
        let (timing, mut outcome) = self.probe.time(|| prepared.run(drive));
        let cpu_s = host::process_cpu_seconds() - cpu_before;
        if let (Some(true), Ok((_, totals))) = (recorded, &outcome) {
            if *self.first_sink_totals.get_or_insert(*totals) != *totals {
                outcome = Err(format!("sinks wrote {totals:?}, the first repetition's did not"));
            }
        }
        self.judge(&outcome, Agreement::Exact);
        let (steps, totals) = outcome.map_or((0, SinkTotals::default()), |(r, t)| (r.steps(), t));
        Rep { timing, cpu_s, steps, totals }
    }

    /// Checks the trace file of the last file-recorded repetition, if any.
    fn verify_trace_file(&mut self) {
        if let Some(totals) = self.first_sink_totals {
            if let Err(problem) = workloads::verify_trace_file(self.out_dir, totals) {
                self.problems.push(problem);
            }
        }
    }

    /// One span-recording repetition of `plan`: the workload itself, or its
    /// measurement-free twin (which agrees with the reference on phases only).
    fn traced_rep(
        &mut self,
        tracer: &mut Tracer,
        index: usize,
        plan: &Plan,
        agreement: Agreement,
    ) -> (Rep, Counts) {
        tracer.begin_rep(index);
        let prepared = plan.prepare(1);
        let (timing, outcome) = self.probe.time(|| {
            tracer.begin_run();
            let outcome = prepared.run(Drive::Traced(&mut *tracer));
            tracer.end_run();
            outcome
        });
        self.judge(&outcome, agreement);
        let counts = tracer.end_rep();
        let steps = outcome.map_or(0, |(result, _)| result.steps());
        (Rep { timing, cpu_s: 0.0, steps, totals: SinkTotals::default() }, counts)
    }
}

/// What a run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    /// The measured repetitions, for the record.
    reps: Vec<Rep>,
}

fn normalised(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.timing.normalised_s()).collect()
}

fn raw(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.timing.raw_s).collect()
}

/// Set-up: workload generation from the seed, fleet construction and one
/// unmeasured warm-up repetition (registries, allocator arenas, caches).
/// The warm-up is always the plain `run()`, so on `fleet-observed` the
/// measured (recorded) repetitions are checked against an unobserved run.
fn set_up(name: &str, args: &Args) -> Result<(Plan, RepResult), String> {
    let plan =
        generate(name, args.seed, args.size()).ok_or(format!("unknown workload '{name}'"))?;
    let (reference, _) = plan.prepare(1).run(Drive::Plain)?;
    check(&plan, &reference)?;
    Ok((plan, reference))
}

fn end_to_end(name: &str, args: &Args, probe: &Probe, out_dir: &Path) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..if args.quick { 1 } else { SETUP_REPS } {
        let (timing, result) = probe.time(|| set_up(name, args));
        setups.push(timing);
        built = Some(result?);
    }
    let (plan, reference) = built.expect("at least one set-up ran");
    let recorded = plan.observed().then_some(true);
    let mut runner = Runner::new(probe, plan, reference, out_dir);

    let min_reps = if args.quick { 2 } else { MIN_REPS };
    let measuring = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || (!args.quick && measuring.elapsed().as_secs_f64() < args.seconds)
    {
        reps.push(runner.rep(recorded));
    }

    let rates = |seconds: fn(&Rep) -> f64| -> Vec<f64> {
        reps.iter().map(|r| r.steps as f64 / seconds(r)).collect()
    };
    let setup_normalised: Vec<f64> = setups.iter().map(Timing::normalised_s).collect();
    let setup_raw: Vec<f64> = setups.iter().map(|t| t.raw_s).collect();
    let metrics = vec![
        timing_metric(
            "steps_per_s",
            "1/s",
            &rates(|r| r.timing.normalised_s()),
            &rates(|r| r.timing.raw_s),
        ),
        timing_metric("setup_s", "s", &setup_normalised, &setup_raw),
        metric("peak_rss_mb", "MB", host::peak_rss_mb()),
        metric("mean_accuracy_pct", "%", 100.0 * runner.reference.mean_accuracy()),
    ];
    // After peak memory was read: the parsed trace is larger than the run.
    runner.verify_trace_file();
    Ok(Outcome {
        attempted: runner.attempted,
        failed: runner.failed,
        problems: runner.problems,
        metrics,
        reps,
    })
}

/// The workload-independent fleet measurements, all on the `fleet-steady`
/// fleet: what the telemetry path costs (a recorder without sinks against
/// the fast path, then file sinks against no sinks), and `threads(1)` wall
/// over `threads(nproc)` wall with the process unpinned and the probe
/// parked. The last is a diagnostic: two threads on a shared two-vCPU
/// sandbox are far too noisy to gate on.
fn fleet_sheet(args: &Args, probe: &Probe, out_dir: &Path) -> Result<Outcome, String> {
    let (plan, reference) = set_up("fleet-steady", args)?;
    let mut runner = Runner::new(probe, plan, reference, out_dir);
    let reps = if args.quick { 1 } else { COMPARISON_REPS };
    let mut drive = |recorded| -> Vec<Rep> { (0..reps).map(|_| runner.rep(recorded)).collect() };
    let (plain, null_sink, full_sink) = (drive(None), drive(Some(false)), drive(Some(true)));
    let plain_s = median(&normalised(&plain));
    let null_s = median(&normalised(&null_sink));
    let full_s = median(&normalised(&full_sink));
    let sink = full_sink.last().map(|r| r.totals).unwrap_or_default();
    runner.verify_trace_file();

    let run = |threads: usize| {
        let prepared = runner.plan.prepare(threads);
        let started = Instant::now();
        let (result, _) = prepared.run(Drive::Plain)?;
        Ok::<_, String>((started.elapsed().as_secs_f64(), result))
    };
    let (single, multi) = probe.unpinned(|| (run(1), run(probe.cpus())));
    let ((single_s, single), (multi_s, multi)) = (single?, multi?);
    // Thread-count invariance is part of the determinism contract.
    runner.attempted += 2 * runner.plan.sessions() as u64;
    runner.failed += failed_sessions(&runner.reference, &single, Agreement::Exact) as u64
        + failed_sessions(&runner.reference, &multi, Agreement::Exact) as u64;

    let metrics = vec![
        metric("core.cluster.thread_scaling_x", "x", single_s / multi_s),
        metric("telemetry.null_overhead_pct", "%", overhead_pct(null_s, plain_s)),
        metric("telemetry.overhead_pct", "%", overhead_pct(full_s, null_s)),
        count("telemetry.events", sink.trace_events),
        count("telemetry.records", sink.metrics_records),
        metric("telemetry.bytes_written", "bytes", sink.bytes_written as f64),
        metric("telemetry.events_per_s", "1/s", sink.trace_events as f64 / full_s),
    ];
    Ok(Outcome {
        attempted: runner.attempted,
        failed: runner.failed,
        problems: runner.problems,
        metrics,
        reps: Vec::new(),
    })
}

fn traced(name: &str, args: &Args, probe: &Probe, out_dir: &Path) -> Result<Outcome, String> {
    let (plan, reference) = set_up(name, args)?;
    let quiet_plan = plan.without_measurements();
    let mut runner = Runner::new(probe, plan, reference, out_dir);
    let comparison_reps = if args.quick { 1 } else { COMPARISON_REPS };
    let traced_reps = if args.quick { 1 } else { TRACED_REPS };

    let plain: Vec<Rep> = (0..comparison_reps).map(|_| runner.rep(None)).collect();
    let mut tracer = Tracer::new();
    let workload = runner.plan.clone();
    let (spans, counts): (Vec<Rep>, Vec<Counts>) = (0..traced_reps)
        .map(|i| runner.traced_rep(&mut tracer, i, &workload, Agreement::Exact))
        .unzip();
    let (quiet, quiet_counts): (Vec<Rep>, Vec<Counts>) = (traced_reps
        ..traced_reps + comparison_reps)
        .map(|i| runner.traced_rep(&mut tracer, i, &quiet_plan, Agreement::Phases))
        .unzip();

    // What one accuracy measurement costs: the step time that disappears
    // when measurement is switched off, per measurement that disappeared.
    let step_s = |reps: &[Rep], first: usize| {
        let each: Vec<f64> = reps
            .iter()
            .enumerate()
            .map(|(i, rep)| step_seconds(&tracer.spans, first + i) * rep.timing.factor())
            .collect();
        median(&each)
    };
    let counts = counts[0];
    let removed = counts.measurements.saturating_sub(quiet_counts[0].measurements);
    let measurement_s = if removed > 0 {
        ((step_s(&spans, 0) - step_s(&quiet, traced_reps)) / removed as f64).max(0.0)
    } else {
        0.0
    };
    for (i, rep) in spans.iter().enumerate() {
        tracer.add_measure_spans(i, measurement_s / rep.timing.factor());
    }
    let trace_path = out_dir.join(format!("{name}.spans.json"));
    std::fs::write(&trace_path, tracer.chrome_trace()).map_err(|e| e.to_string())?;

    // Each traced repetition's buckets, scaled to the nominal host by the
    // probe iterations that ran beside that repetition.
    let per_rep: Vec<(Buckets, f64)> = spans
        .iter()
        .enumerate()
        .map(|(i, rep)| (buckets(&tracer.spans, i), rep.timing.factor()))
        .collect();
    let run_s = median(&per_rep.iter().map(|(b, f)| b.run_s * f).collect::<Vec<_>>());
    let bucket = |name: &str, pick: fn(&Buckets) -> f64| {
        let raw: Vec<f64> = per_rep.iter().map(|(b, _)| pick(b)).collect();
        let normalised: Vec<f64> = per_rep.iter().map(|(b, factor)| pick(b) * factor).collect();
        let mut m = timing_metric(name, "s", &normalised, &raw);
        m.note.push_str(&format!(" share {:.1}%", 100.0 * m.value / run_s));
        m
    };
    let cluster = runner.reference.cluster();
    let barrier = bucket("core.cluster.barrier_s", |b| b.barrier_s);
    let barrier_us_per_camera = if counts.cameras_sampled > 0 {
        barrier.value * 1e6 / counts.cameras_sampled as f64
    } else {
        0.0
    };
    let plain_s = median(&normalised(&plain));
    let steps = runner.reference.steps();
    let probe_ms: Vec<f64> =
        plain.iter().chain(&spans).chain(&quiet).map(|r| r.timing.probe_ms()).collect();

    let metrics = vec![
        bucket("core.session.label_s", |b| b.label_s),
        bucket("core.session.retrain_s", |b| b.retrain_s),
        bucket("core.session.measure_s", |b| b.measure_s),
        bucket("core.session.wait_s", |b| b.wait_s),
        count("core.session.phases", counts.phases),
        count("core.session.measurements", counts.measurements),
        count("core.session.drift_responses", counts.drift_responses),
        barrier,
        count("core.cluster.barriers", counts.barriers),
        metric("core.cluster.barrier_us_per_camera", "us", barrier_us_per_camera),
        bucket("core.cluster.other_s", |b| b.other_s),
        count("core.cluster.steps", steps as u64),
        count(
            "core.cluster.peak_event_depth",
            cluster.map_or(0, |c| c.contention.peak_queue_depth as u64),
        ),
        metric(
            "core.cluster.p99_step_stretch",
            "x",
            cluster.map_or(0.0, |c| c.contention.p99_step_stretch),
        ),
        count("core.share.admissions", counts.share_admissions),
        count("core.share.labels_reused", cluster.map_or(0, |c| c.share.labels_reused as u64)),
        metric(
            "core.edge.bytes_shipped",
            "bytes",
            cluster.map_or(0.0, |c| c.edge.bytes_shipped as f64),
        ),
        count("core.edge.labels_cloud", cluster.map_or(0, |c| c.edge.labels_cloud)),
        count("core.cluster.migrations", cluster.map_or(0, |c| c.churn.migrations as u64)),
        metric("core.platform.energy_j", "J", runner.reference.energy_j()),
        metric("host.steps_per_s_raw", "1/s", steps as f64 / median(&raw(&plain))),
        metric("host.run_s_raw_p50", "s", median(&raw(&plain))),
        metric("host.probe_ms_p50", "ms", median(&probe_ms)),
        metric("host.probe_spread_pct", "%", spread_pct(&probe_ms)),
        metric(
            "host.cpu_s_per_rep",
            "s",
            median(&plain.iter().map(|r| r.cpu_s).collect::<Vec<_>>()),
        ),
        metric("host.trace_overhead_pct", "%", overhead_pct(median(&normalised(&spans)), plain_s)),
    ];
    let mut outcome = Outcome {
        attempted: runner.attempted,
        failed: runner.failed,
        problems: runner.problems,
        metrics,
        reps: spans,
    };
    if args.sheet {
        let fleet = fleet_sheet(args, probe, out_dir)?;
        outcome.attempted += fleet.attempted;
        outcome.failed += fleet.failed;
        outcome.problems.extend(fleet.problems);
        outcome.metrics.extend(fleet.metrics);
        let case_s = if args.quick { 0.02 } else { LAYER_CASE_S };
        let layers = layers::run(probe, case_s);
        outcome.metrics.extend(layers.into_iter().map(|m| metric(m.name, m.unit, m.value)));
    }
    println!("spans: {}", trace_path.display());
    Ok(outcome)
}

/// Prints every metric by name with its unit, writes the full record, and
/// ends with the one-line JSON result.
fn report(
    name: &str,
    args: &Args,
    probe: &Probe,
    out_dir: &Path,
    outcome: &Outcome,
) -> Result<(), String> {
    let mode = if args.trace { "traced" } else { "end-to-end" };
    let manifest = host::manifest(name, mode, args, probe);
    println!("== {name} | {mode} | seed {} | {} repetitions ==", args.seed, outcome.reps.len());
    if let Some(info) = workloads::WORKLOADS.iter().find(|w| w.name == name) {
        println!("why: {}", info.why);
    }
    if args.quick {
        println!("QUICK TIER: quarter-size fleets, numbers are NOT comparable to full runs");
    }
    println!("manifest: {}", serde_json::to_string(&manifest).map_err(|e| e.to_string())?);
    for m in &outcome.metrics {
        println!("{:<38} {:>16.6} {:<7} {}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "{:<38} {:>16.6} {:<7} {} failed of {} attempted",
        "fail_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        "ratio",
        outcome.failed,
        outcome.attempted
    );
    for problem in &outcome.problems {
        println!("problem: {problem}");
    }

    let entry = |key: &str, value: Value| (key.to_string(), value);
    let metrics = |with_notes: bool| {
        Value::Object(
            outcome
                .metrics
                .iter()
                .map(|m| {
                    let mut fields = vec![
                        entry("value", Value::Float(m.value)),
                        entry("unit", Value::Str(m.unit.to_string())),
                    ];
                    if with_notes && !m.note.is_empty() {
                        fields.push(entry("note", Value::Str(m.note.clone())));
                    }
                    (m.name.clone(), Value::Object(fields))
                })
                .collect(),
        )
    };
    let result = |with_notes: bool| {
        vec![
            entry("correct", Value::Bool(outcome.failed == 0 && outcome.problems.is_empty())),
            entry("attempted", Value::UInt(outcome.attempted)),
            entry("failed", Value::UInt(outcome.failed)),
            entry("metrics", metrics(with_notes)),
        ]
    };
    let reps = outcome
        .reps
        .iter()
        .map(|rep| {
            let t = rep.timing;
            Value::Object(vec![
                entry("steps", Value::UInt(rep.steps as u64)),
                entry("cpu_s", Value::Float(rep.cpu_s)),
                entry("raw_s", Value::Float(t.raw_s)),
                entry("normalised_s", Value::Float(t.normalised_s())),
                entry("probe_iterations", Value::UInt(t.iterations)),
            ])
        })
        .collect();
    let mut record = vec![entry("manifest", manifest), entry("repetitions", Value::Array(reps))];
    record.extend(result(true));
    let record_path = out_dir.join(format!("{name}.{mode}.json"));
    let text = serde_json::to_string_pretty(&Value::Object(record)).map_err(|e| e.to_string())?;
    std::fs::write(&record_path, text).map_err(|e| e.to_string())?;
    println!("record: {}", record_path.display());
    println!(
        "{}",
        serde_json::to_string(&Value::Object(result(false))).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Runs every workload in both modes, one child process each, streaming
/// their output. The layer sheet is measured once, by the last traced run.
fn run_everything(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let last = workloads::WORKLOADS.len() - 1;
    for trace in ["0", "1"] {
        for (index, info) in workloads::WORKLOADS.iter().enumerate() {
            let mut child = std::process::Command::new(&exe);
            child.args(["--workload", info.name, "--trace", trace]);
            child.args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()]);
            child.args(["--sheet", if index == last { "1" } else { "0" }]);
            if args.quick {
                child.arg("--quick");
            }
            let status = child.status().map_err(|e| e.to_string())?;
            if !status.success() {
                return Err(format!("{} (--trace {trace}) exited with {status}", info.name));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let one_arena = host::use_one_malloc_arena();
    let args = match parse_args() {
        Ok(args) => Args { one_arena, ..args },
        Err(problem) => {
            eprintln!("dacapo-benchmark: {problem}");
            return ExitCode::from(2);
        }
    };
    let run = || -> Result<(), String> {
        let Some(name) = args.workload.as_deref() else { return run_everything(&args) };
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
        let probe = Probe::start();
        if !probe.pinned {
            eprintln!(
                "dacapo-benchmark: could not pin to one CPU; normalised numbers are unreliable"
            );
        }
        let outcome = if args.trace {
            traced(name, &args, &probe, &out_dir)?
        } else {
            end_to_end(name, &args, &probe, &out_dir)?
        };
        report(name, &args, &probe, &out_dir, &outcome)
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(problem) => {
            eprintln!("dacapo-benchmark: {problem}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two string fields of every entry under one key of `BENCHMARK.json`,
    /// the contract the benchmark driver reads.
    fn contract(key: &str, first: &str, second: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let document = serde_json::value_from_str(text).expect("BENCHMARK.json parses");
        let entries = document.get(key).and_then(Value::as_array).expect("key holds a list");
        let field = |entry: &Value, name: &str| {
            entry.get(name).and_then(Value::as_str).expect("field is a string").to_string()
        };
        entries.iter().map(|e| (field(e, first), field(e, second))).collect()
    }

    fn reported(outcome: &Outcome) -> Vec<(String, String)> {
        outcome.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
    }

    fn quick(trace: bool) -> Args {
        Args {
            workload: None,
            seed: 5,
            seconds: 1.0,
            trace,
            quick: true,
            sheet: true,
            one_arena: false,
        }
    }

    #[test]
    fn both_modes_report_exactly_the_metrics_the_contract_names() {
        let probe = Probe::start();
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&out_dir).unwrap();

        let outcome = end_to_end("fleet-observed", &quick(false), &probe, &out_dir).unwrap();
        assert_eq!(reported(&outcome), contract("end_to_end", "name", "unit"));
        assert_eq!((outcome.failed, outcome.problems.len()), (0, 0));
        assert_eq!(outcome.attempted, 2 * 24);

        let outcome = traced("fleet-barrier", &quick(true), &probe, &out_dir).unwrap();
        assert_eq!(reported(&outcome), contract("per_layer", "name", "unit"));
        assert_eq!((outcome.failed, outcome.problems.len()), (0, 0), "{:?}", outcome.problems);
    }

    #[test]
    fn the_contract_names_the_workloads_with_their_reasons() {
        let listed: Vec<(String, String)> =
            workloads::WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(listed, contract("workloads", "name", "why"));
    }
}
