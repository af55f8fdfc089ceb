//! The four workloads: generation from a seed, execution, and checks.
//!
//! Generation is a pure function of `(name, seed, size)`: the seed only
//! feeds camera RNG seeds and churn times, never the fleet's shape, so
//! every seed does a comparable amount of work. The program under test
//! receives only the generated configurations.

use crate::tracer::Tracer;
use dacapo_core::platform::{KernelRate, PlatformRates, Sharing};
use dacapo_core::{
    ChurnEvent, ChurnPlan, ClSimulator, Cluster, ClusterResult, EdgeConfig, SchedulerKind, Session,
    SimConfig, SimResult,
};
use dacapo_datagen::Scenario;
use dacapo_dnn::zoo::ModelPair;
use dacapo_telemetry::{TelemetryRecorder, TelemetrySummary};
use std::path::Path;

/// A workload's name and the reason it exists (mirrored in `BENCHMARK.json`).
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "fleet-steady",
        why: "feature-free fast path: fp32 retraining and evaluation dominate, barriers never run",
    },
    WorkloadInfo {
        name: "fleet-barrier",
        why:
            "share+offload+churn at 5 s windows: barrier stages dominate, kernels are the minority",
    },
    WorkloadInfo {
        name: "fleet-observed",
        why: "the steady fleet through the windowed executor and the full telemetry sink path",
    },
    WorkloadInfo {
        name: "solo-paper",
        why: "paper-default MX sessions: MX9 retraining and MX6 measurement do the work, fp32 none",
    },
];

/// Full-size fleets, or the quarter-size smoke tier behind `--quick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Quick,
}

impl Size {
    fn cameras(self, full: usize) -> usize {
        match self {
            Size::Full => full,
            Size::Quick => (full / 4).max(2),
        }
    }
}

/// A cluster run's inputs. `observed` marks the workload whose *measured*
/// run goes through a `TelemetryRecorder` with both file sinks.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlan {
    pub accelerators: usize,
    pub cameras: Vec<(String, SimConfig)>,
    /// Share policy and window, offload policy, churn: absent on the
    /// feature-free fleets.
    pub share: Option<(&'static str, f64)>,
    pub offload: Option<&'static str>,
    pub churn: ChurnPlan,
    pub observed: bool,
}

/// Everything one workload runs, generated from the seed.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    Fleet(FleetPlan),
    Solo(Vec<SimConfig>),
}

/// SplitMix64: the benchmark's only source of seed-derived values.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seed-derived time in `[low, high)` seconds.
fn time_in(seed: u64, stream: u64, low: f64, high: f64) -> f64 {
    low + (mix(seed, stream) >> 11) as f64 / (1u64 << 53) as f64 * (high - low)
}

fn truncated(scenario: &Scenario, segments: usize) -> Scenario {
    let kept = scenario.segments().iter().copied().take(segments).collect();
    Scenario::try_from_segments(scenario.name().to_string(), kept)
        .expect("paper scenarios have at least one positive-length segment")
}

/// Synthetic fp32 capability sheets (the ones `steps_bench` and
/// `edge_cloud` sweep with): they keep the spatial allocator out of the
/// fleet workloads, and `labeling_sps` sets how slow the local teacher is.
fn fp32_rates(name: &str, labeling_sps: f64) -> PlatformRates {
    PlatformRates::new(
        name,
        KernelRate::fp32(120.0),
        KernelRate::fp32(labeling_sps),
        KernelRate::fp32(160.0),
        Sharing::Partitioned { tsa_rows: 12, bsa_rows: 4 },
        1.5,
    )
    .expect("benchmark rates are valid")
}

fn fleet_camera(
    index: usize,
    seed: u64,
    segments: usize,
    rates: PlatformRates,
    edge: Option<EdgeConfig>,
) -> (String, SimConfig) {
    let scenarios = Scenario::all();
    let scenario = truncated(&scenarios[index % scenarios.len()], segments);
    let mut builder = SimConfig::builder(scenario, ModelPair::ResNet18Wrn50)
        .platform_rates(rates)
        .scheduler(SchedulerKind::DaCapoSpatiotemporal)
        .measurement(10.0, 10)
        .pretrain_samples(64)
        .seed(mix(seed, index as u64));
    if let Some(edge) = edge {
        builder = builder.edge(edge);
    }
    (format!("cam-{index:03}"), builder.build().expect("benchmark camera config builds"))
}

fn steady_fleet(seed: u64, size: Size, observed: bool) -> FleetPlan {
    let cameras = (0..size.cameras(96))
        .map(|i| fleet_camera(i, seed, 2, fp32_rates("steady-chip", 40.0), None))
        .collect();
    FleetPlan {
        accelerators: 4,
        cameras,
        share: None,
        offload: None,
        churn: ChurnPlan::new(),
        observed,
    }
}

fn barrier_fleet(seed: u64, size: Size) -> FleetPlan {
    let edge = || Some(EdgeConfig::new("lte").filter_threshold(0.98));
    let count = size.cameras(192);
    let cameras: Vec<_> = (0..count)
        .map(|i| fleet_camera(i, seed, 1, fp32_rates("edge-chip", 12.0), edge()))
        .collect();
    // With `count / 2` residents per accelerator under fair-share, a 60 s
    // scenario stretches to thousands of cluster seconds; the churn times
    // sit inside the first tenth of that so every event fires.
    let scale = count as f64 / 192.0;
    let leaver = cameras[(mix(seed, 0xC0) % count as u64) as usize].0.clone();
    let (_, joiner) = fleet_camera(count, seed, 1, fp32_rates("edge-chip", 12.0), edge());
    let churn = ChurnPlan::new()
        .join(time_in(seed, 0xC1, 20.0, 60.0) * scale, "cam-late", joiner)
        .leave(time_in(seed, 0xC2, 80.0, 140.0) * scale, leaver)
        .drain(time_in(seed, 0xC3, 160.0, 240.0) * scale, 1);
    FleetPlan {
        accelerators: 2,
        cameras,
        share: Some(("broadcast", 5.0)),
        offload: Some("threshold:1"),
        churn,
        observed: false,
    }
}

fn solo_sessions(seed: u64, size: Size) -> Vec<SimConfig> {
    // Every other paper scenario (S1, S3, S5, ES1): one more drift
    // dimension each, at half the cost of all eight.
    Scenario::all()
        .into_iter()
        .step_by(2)
        .take(size.cameras(4))
        .enumerate()
        .map(|(i, scenario)| {
            // Full-length scenarios, except in the smoke tier.
            let scenario = match size {
                Size::Full => scenario,
                Size::Quick => truncated(&scenario, 5),
            };
            SimConfig::builder(scenario, ModelPair::ALL[i % ModelPair::ALL.len()])
                .platform("dacapo")
                .scheduler(SchedulerKind::DaCapoSpatiotemporal)
                .seed(mix(seed, i as u64))
                .build()
                .expect("paper-default config builds")
        })
        .collect()
}

/// Generates a workload's inputs. `None` for an unknown name.
pub fn generate(name: &str, seed: u64, size: Size) -> Option<Plan> {
    Some(match name {
        "fleet-steady" => Plan::Fleet(steady_fleet(seed, size, false)),
        "fleet-barrier" => Plan::Fleet(barrier_fleet(seed, size)),
        "fleet-observed" => Plan::Fleet(steady_fleet(seed, size, true)),
        "solo-paper" => Plan::Solo(solo_sessions(seed, size)),
        _ => return None,
    })
}

impl FleetPlan {
    /// Builds the cluster, single-threaded so that timings do not depend on
    /// how the sandbox schedules worker threads.
    pub fn cluster(&self, threads: usize) -> Cluster {
        let mut cluster =
            Cluster::new(self.accelerators).threads(threads).churn(self.churn.clone());
        if let Some((policy, window_s)) = self.share {
            cluster = cluster.share(policy).share_window_s(window_s);
        }
        if let Some(policy) = self.offload {
            cluster = cluster.offload(policy);
        }
        for (name, config) in &self.cameras {
            cluster = cluster.camera(name.clone(), config.clone());
        }
        cluster
    }
}

/// What one repetition produced.
#[derive(Debug, Clone, PartialEq)]
pub enum RepResult {
    Fleet(Box<ClusterResult>),
    Solo(Vec<SimResult>),
}

impl RepResult {
    /// Every camera session's result, in a fixed order.
    pub fn sessions(&self) -> Vec<&SimResult> {
        match self {
            RepResult::Fleet(result) => result.fleet.cameras.iter().map(|c| &c.result).collect(),
            RepResult::Solo(results) => results.iter().collect(),
        }
    }

    /// Executor steps: the cluster's own count, or phases for solo sessions.
    pub fn steps(&self) -> usize {
        match self {
            RepResult::Fleet(result) => result.contention.steps_executed,
            RepResult::Solo(results) => results.iter().map(|r| r.phases.len()).sum(),
        }
    }

    /// The simulated accuracy users read, as a fraction.
    pub fn mean_accuracy(&self) -> f64 {
        match self {
            RepResult::Fleet(result) => result.fleet.mean_accuracy,
            RepResult::Solo(results) => {
                results.iter().map(|r| r.mean_accuracy).sum::<f64>() / results.len() as f64
            }
        }
    }

    pub fn energy_j(&self) -> f64 {
        self.sessions().iter().map(|r| r.energy_joules).sum()
    }

    pub fn cluster(&self) -> Option<&ClusterResult> {
        match self {
            RepResult::Fleet(result) => Some(result),
            RepResult::Solo(_) => None,
        }
    }
}

/// How a repetition is driven.
pub enum Drive<'a> {
    /// The path users get from `run()`.
    Plain,
    /// A fleet through a `TelemetryRecorder`: no sinks (`files: None`, the
    /// recorder's do-nothing path), or chrome-trace + json-lines files
    /// under a directory.
    Recorded { files: Option<&'a Path> },
    /// Through the span recorder, one step dispatched at a time so that it
    /// can attribute host time per step (see `tracer`).
    Traced(&'a mut Tracer),
}

/// Sink totals of a recorded repetition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkTotals {
    pub trace_events: u64,
    pub metrics_records: u64,
    pub bytes_written: u64,
}

const TRACE_FILE: &str = "telemetry.trace.json";
const METRICS_FILE: &str = "telemetry.metrics.jsonl";

fn recorder(files: Option<&Path>) -> TelemetryRecorder {
    let Some(dir) = files else { return TelemetryRecorder::new() };
    TelemetryRecorder::new()
        .with_sink_spec(&format!("chrome-trace:{}", dir.join(TRACE_FILE).display()))
        .and_then(|r| r.with_sink_spec(&format!("json-lines:{}", dir.join(METRICS_FILE).display())))
        .expect("builtin sink specs parse")
}

/// Finishes a recorder and adds up what its sinks wrote.
fn finish_recorder(
    recorder: TelemetryRecorder,
    files: Option<&Path>,
) -> Result<SinkTotals, String> {
    let TelemetrySummary { trace_events, metrics_records } =
        recorder.finish().map_err(|e| e.to_string())?;
    let mut bytes_written = 0;
    for name in files.iter().flat_map(|dir| [dir.join(TRACE_FILE), dir.join(METRICS_FILE)]) {
        bytes_written += std::fs::metadata(name).map_err(|e| e.to_string())?.len();
    }
    Ok(SinkTotals { trace_events, metrics_records, bytes_written })
}

/// Parses the trace file the last recorded repetition left in `dir`: it
/// must hold exactly the events the recorder counted. Run after peak memory
/// has been read, because the parsed tree is several times the file.
pub fn verify_trace_file(dir: &Path, totals: SinkTotals) -> Result<(), String> {
    let text = std::fs::read_to_string(dir.join(TRACE_FILE)).map_err(|e| e.to_string())?;
    let document = serde_json::value_from_str(&text).map_err(|e| e.to_string())?;
    let parsed = document.get("traceEvents").and_then(|v| v.as_array()).map_or(0, <[_]>::len);
    if parsed as u64 == totals.trace_events {
        Ok(())
    } else {
        Err(format!("trace file holds {parsed} events, recorder counted {}", totals.trace_events))
    }
}

impl Plan {
    /// Camera sessions driven per repetition (joined cameras included).
    pub fn sessions(&self) -> usize {
        match self {
            Plan::Fleet(fleet) => {
                let joins =
                    fleet.churn.events().iter().filter(|e| matches!(e, ChurnEvent::Join { .. }));
                fleet.cameras.len() + joins.count()
            }
            Plan::Solo(configs) => configs.len(),
        }
    }

    /// The same workload with accuracy measurement switched off (one
    /// measurement per session, at t=0). Measurements never feed back into
    /// a session, so every phase stays as it was: the traced run uses the
    /// difference to price a measurement.
    pub fn without_measurements(&self) -> Plan {
        let quiet = |config: &SimConfig| SimConfig { measure_interval_s: 1e9, ..config.clone() };
        match self {
            Plan::Solo(configs) => Plan::Solo(configs.iter().map(quiet).collect()),
            Plan::Fleet(fleet) => {
                let churn = fleet.churn.events().iter().fold(ChurnPlan::new(), |plan, event| {
                    plan.event(match event {
                        ChurnEvent::Join { at_s, camera, config } => ChurnEvent::Join {
                            at_s: *at_s,
                            camera: camera.clone(),
                            config: Box::new(quiet(config)),
                        },
                        other => other.clone(),
                    })
                });
                let cameras =
                    fleet.cameras.iter().map(|(name, c)| (name.clone(), quiet(c))).collect();
                Plan::Fleet(FleetPlan { cameras, churn, ..fleet.clone() })
            }
        }
    }

    /// Whether the measured run of this workload is the recorded one.
    pub fn observed(&self) -> bool {
        matches!(self, Plan::Fleet(fleet) if fleet.observed)
    }

    /// Runs one repetition. Construction happens in `prepare`, outside the
    /// timed call, exactly as `steps_bench` does.
    pub fn prepare(&self, threads: usize) -> Prepared {
        match self {
            Plan::Fleet(fleet) => Prepared::Fleet(fleet.cluster(threads)),
            Plan::Solo(configs) => Prepared::Solo(configs.clone()),
        }
    }
}

/// A repetition's inputs, built and ready to run.
pub enum Prepared {
    Fleet(Cluster),
    Solo(Vec<SimConfig>),
}

impl Prepared {
    /// The timed call. Returns the result and, for recorded drives, what
    /// the sinks wrote.
    pub fn run(self, drive: Drive<'_>) -> Result<(RepResult, SinkTotals), String> {
        let mut totals = SinkTotals::default();
        let result = match (self, drive) {
            (Prepared::Fleet(cluster), Drive::Plain) => {
                RepResult::Fleet(Box::new(cluster.run().map_err(|e| e.to_string())?))
            }
            (Prepared::Fleet(cluster), Drive::Recorded { files }) => {
                let mut rec = recorder(files);
                let result = cluster.run_with(&mut rec).map_err(|e| e.to_string())?;
                totals = finish_recorder(rec, files)?;
                RepResult::Fleet(Box::new(result))
            }
            (Prepared::Fleet(cluster), Drive::Traced(tracer)) => RepResult::Fleet(Box::new(
                cluster.batch_retraining(false).run_with(tracer).map_err(|e| e.to_string())?,
            )),
            (Prepared::Solo(configs), Drive::Plain) => RepResult::Solo(
                configs
                    .into_iter()
                    .map(|config| ClSimulator::new(config)?.run())
                    .collect::<Result<_, _>>()
                    .map_err(|e| e.to_string())?,
            ),
            (Prepared::Solo(_), Drive::Recorded { .. }) => {
                return Err("solo sessions have no recorded drive".into());
            }
            (Prepared::Solo(configs), Drive::Traced(tracer)) => {
                let mut results = Vec::with_capacity(configs.len());
                for (index, config) in configs.into_iter().enumerate() {
                    tracer.begin_solo_session(index);
                    let mut session = Session::new(config).map_err(|e| e.to_string())?;
                    session.run_with(tracer).map_err(|e| e.to_string())?;
                    results.push(session.into_result());
                }
                RepResult::Solo(results)
            }
        };
        Ok((result, totals))
    }
}

/// The workload's own check on a repetition's result: every feature the
/// workload exists to exercise must have fired.
pub fn check(plan: &Plan, result: &RepResult) -> Result<(), String> {
    let (Plan::Fleet(fleet), Some(cluster)) = (plan, result.cluster()) else { return Ok(()) };
    if fleet.share.is_some() && cluster.share.labels_reused == 0 {
        return Err("label sharing reused nothing".into());
    }
    if fleet.offload.is_some() && cluster.edge.bytes_shipped == 0 {
        return Err("offload shipped no bytes".into());
    }
    if !fleet.churn.is_empty() && cluster.churn.migrations == 0 {
        return Err("the drain migrated no session".into());
    }
    Ok(())
}

/// What a repetition's sessions must share with the reference's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agreement {
    /// The whole `SimResult`: the determinism contract.
    Exact,
    /// The executed phases only: for runs with measurement switched off.
    Phases,
}

/// Failed operations of one repetition against the reference repetition.
/// One operation is one camera session driven to completion; it fails when
/// its result disagrees with the reference's or its accuracy leaves
/// `[0, 1]`. A missing or extra session fails too.
pub fn failed_sessions(reference: &RepResult, rep: &RepResult, agreement: Agreement) -> usize {
    let (expected, got) = (reference.sessions(), rep.sessions());
    let agrees = |want: &SimResult, have: &SimResult| match agreement {
        Agreement::Exact => want == have,
        Agreement::Phases => want.phases == have.phases,
    };
    let mismatched = expected
        .iter()
        .zip(&got)
        .filter(|(want, have)| !agrees(want, have) || !(0.0..=1.0).contains(&have.mean_accuracy))
        .count();
    mismatched + expected.len().abs_diff(got.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn camera_seeds(plan: &Plan) -> Vec<u64> {
        match plan {
            Plan::Fleet(fleet) => fleet.cameras.iter().map(|(_, c)| c.seed).collect(),
            Plan::Solo(configs) => configs.iter().map(|c| c.seed).collect(),
        }
    }

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        for info in &WORKLOADS {
            let a = generate(info.name, 7, Size::Quick).unwrap();
            let b = generate(info.name, 7, Size::Quick).unwrap();
            assert_eq!(a, b, "{}: same seed must give identical configs", info.name);
            let c = generate(info.name, 8, Size::Quick).unwrap();
            assert_ne!(camera_seeds(&a), camera_seeds(&c), "{}", info.name);
            // The seed moves RNG seeds, never the amount of work.
            assert_eq!(a.sessions(), c.sessions(), "{}", info.name);
        }
    }

    #[test]
    fn churn_times_follow_the_seed() {
        let times = |seed| match generate("fleet-barrier", seed, Size::Full).unwrap() {
            Plan::Fleet(fleet) => {
                fleet.churn.events().iter().map(ChurnEvent::at_s).collect::<Vec<_>>()
            }
            Plan::Solo(_) => unreachable!("fleet-barrier is a fleet"),
        };
        assert_eq!(times(3), times(3));
        assert_ne!(times(3), times(4));
        assert!(times(3).windows(2).all(|w| w[0] < w[1]), "join < leave < drain");
    }

    #[test]
    fn switching_measurement_off_keeps_every_phase() {
        for name in ["fleet-barrier", "solo-paper"] {
            let plan = generate(name, 5, Size::Quick).unwrap();
            let (with, _) = plan.prepare(1).run(Drive::Plain).unwrap();
            let (without, _) = plan.without_measurements().prepare(1).run(Drive::Plain).unwrap();
            assert_eq!(failed_sessions(&with, &without, Agreement::Phases), 0, "{name}");
            assert!(failed_sessions(&with, &without, Agreement::Exact) > 0, "{name}");
        }
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(generate("no-such-workload", 1, Size::Quick).is_none());
    }

    fn tiny_solo_result() -> RepResult {
        let scenario = truncated(&Scenario::s1(), 1);
        let config = SimConfig::builder(scenario, ModelPair::ResNet18Wrn50)
            .platform_rates(fp32_rates("test-chip", 40.0))
            .measurement(10.0, 10)
            .pretrain_samples(64)
            .build()
            .unwrap();
        let (result, _) = Prepared::Solo(vec![config.clone(), config]).run(Drive::Plain).unwrap();
        result
    }

    #[test]
    fn a_mismatched_result_counts_as_failed() {
        let reference = tiny_solo_result();
        assert_eq!(failed_sessions(&reference, &reference.clone(), Agreement::Exact), 0);

        let RepResult::Solo(mut results) = reference.clone() else { unreachable!() };
        results[1].drift_responses += 1;
        let rep = RepResult::Solo(results.clone());
        assert_eq!(failed_sessions(&reference, &rep, Agreement::Exact), 1);
        // Same phases: good enough for a run with measurement switched off.
        assert_eq!(failed_sessions(&reference, &rep, Agreement::Phases), 0);

        results[0].mean_accuracy = 1.5;
        let rep = RepResult::Solo(results.clone());
        assert_eq!(failed_sessions(&reference, &rep, Agreement::Exact), 2);

        results.pop();
        assert_eq!(failed_sessions(&reference, &RepResult::Solo(results), Agreement::Exact), 2);
    }
}
