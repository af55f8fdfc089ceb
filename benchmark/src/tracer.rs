//! Span recording for the traced run.
//!
//! The crates carry no spans of their own yet, so every span here is taken
//! from outside, at the only boundary the executors expose: `SimObserver`
//! callbacks. A step's host work (labeling or retraining, plus the accuracy
//! measurements that fell inside the phase) finishes right before the first
//! callback of its event burst, and nothing runs between the last callback
//! of one burst and the work of the next, so lapping a clock at those two
//! points gives each step's host time exactly. Barrier work (label
//! exchange, churn, routing, sampling) lies between the last burst of a
//! window and the last barrier callback.
//!
//! Two things cannot be separated from outside and are handled explicitly:
//!
//! * **Measurement inside a step.** A burst's accuracy measurements run
//!   inside the same call as its phase, and their number grows with the
//!   phase's length, so no statistic over one run separates the two.
//!   Measurements never feed back into a session (schedulers see validation
//!   accuracy, not the reported timeline), so the traced run is repeated
//!   with measurement switched off: the difference in step time, divided by
//!   the number of measurements, is the cost of one. Each step then gets a
//!   `measure` child of `its measurements x that cost`. The child is an
//!   estimate and says so; the enclosing `step` span is measured.
//! * **Session construction.** `Cluster::run_with` builds and pre-trains
//!   every session before its first callback, so the first interval of a
//!   run is recorded as an `admit` span (it also holds that first step's
//!   work: one step in thousands).
//!
//! Traced cluster runs use `batch_retraining(false)` so that each step's
//! work precedes its own burst; results are bit-identical either way.

use dacapo_core::{
    AcceleratorSample, LabelRoute, PhaseKind, PhaseRecord, SessionEvent, SimObserver, WindowSample,
};
use std::time::Instant;

/// What a span covers. The tree is `rep -> run -> {admit | window}`,
/// `window -> {step | barrier}`, `step -> measure`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Rep,
    Run,
    Admit,
    Window,
    Barrier,
    Step(StepKind),
    Measure,
}

/// The phase a step executed; `Finish` is the trailing measurement flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    Label,
    Retrain,
    Wait,
    Finish,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Rep => "rep",
            SpanKind::Run => "run",
            SpanKind::Admit => "admit",
            SpanKind::Window => "window",
            SpanKind::Barrier => "barrier",
            SpanKind::Step(StepKind::Label) => "step.label",
            SpanKind::Step(StepKind::Retrain) => "step.retrain",
            SpanKind::Step(StepKind::Wait) => "step.wait",
            SpanKind::Step(StepKind::Finish) => "step.finish",
            SpanKind::Measure => "measure",
        }
    }
}

/// One recorded interval, in seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub kind: SpanKind,
    /// Index of the causing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Shared by every span of one repetition.
    pub rep: usize,
    pub start_s: f64,
    pub end_s: f64,
    /// Camera admission index and accelerator, for steps.
    pub camera: Option<(usize, usize)>,
    /// Accuracy measurements taken inside a step.
    pub measurements: u32,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

#[derive(Debug, Clone, Copy)]
enum State {
    /// Executor work is running; it began at `Tracer::mark`.
    Working,
    /// Inside a step's callback burst. The work ran over `[start, end]`.
    Burst { start: f64, end: f64, measurements: u32 },
    /// Inside a window barrier that began at `start`; `last` is the most
    /// recent barrier callback.
    Barrier { start: f64, last: f64 },
}

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub phases: u64,
    pub measurements: u64,
    pub drift_responses: u64,
    pub barriers: u64,
    /// Sum over barriers of the live cameras sampled there.
    pub cameras_sampled: u64,
    pub share_admissions: u64,
}

/// The span-recording observer.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub counts: Counts,
    rep: usize,
    rep_span: Option<usize>,
    run_span: Option<usize>,
    window_span: Option<usize>,
    /// Start of the interval not yet attributed to a span.
    mark: f64,
    state: State,
    /// The next finished interval is session construction, not a step.
    admitting: bool,
    camera: (usize, usize),
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: Counts::default(),
            rep: 0,
            rep_span: None,
            run_span: None,
            window_span: None,
            mark: 0.0,
            state: State::Working,
            admitting: false,
            camera: (0, 0),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn push(&mut self, kind: SpanKind, parent: Option<usize>, start_s: f64, end_s: f64) -> usize {
        self.spans.push(Span {
            kind,
            parent,
            rep: self.rep,
            start_s,
            end_s,
            camera: None,
            measurements: 0,
        });
        self.spans.len() - 1
    }

    /// Opens repetition `rep`'s root span.
    pub fn begin_rep(&mut self, rep: usize) {
        self.rep = rep;
        self.counts = Counts::default();
        let now = self.now();
        self.rep_span = Some(self.push(SpanKind::Rep, None, now, now));
    }

    /// Opens the span of the timed `run()` call.
    pub fn begin_run(&mut self) {
        let now = self.now();
        self.run_span = Some(self.push(SpanKind::Run, self.rep_span, now, now));
        self.mark = now;
        self.state = State::Working;
        self.admitting = true;
    }

    /// Announces that the driver is about to construct and run solo session
    /// `index` (a cluster announces its cameras through `on_step_context`).
    pub fn begin_solo_session(&mut self, index: usize) {
        self.camera = (index, 0);
        self.admitting = true;
    }

    /// Closes whatever is open inside the run, then the run itself.
    pub fn end_run(&mut self) {
        let now = self.now();
        if let State::Barrier { start, last } = self.state {
            self.close_barrier(start, last);
        }
        if let Some(window) = self.window_span.take() {
            self.spans[window].end_s = self.mark;
        }
        if let Some(run) = self.run_span.take() {
            self.spans[run].end_s = now;
        }
        self.state = State::Working;
    }

    /// Closes the repetition and hands back its counts.
    pub fn end_rep(&mut self) -> Counts {
        let now = self.now();
        if let Some(rep) = self.rep_span.take() {
            self.spans[rep].end_s = now;
        }
        self.counts
    }

    fn open_window(&mut self, start_s: f64) -> usize {
        match self.window_span {
            Some(window) => window,
            None => {
                let window = self.push(SpanKind::Window, self.run_span, start_s, start_s);
                self.window_span = Some(window);
                window
            }
        }
    }

    fn close_barrier(&mut self, start: f64, last: f64) {
        let window = self.open_window(start);
        self.push(SpanKind::Barrier, Some(window), start, last);
        self.spans[window].end_s = last;
        self.window_span = None;
        self.mark = last;
    }

    /// The executor's work ended and a callback burst begins.
    fn work_ended(&mut self) {
        if matches!(self.state, State::Burst { .. }) {
            return;
        }
        let now = self.now();
        if let State::Barrier { start, last } = self.state {
            self.close_barrier(start, last);
        }
        self.state = State::Burst { start: self.mark, end: now, measurements: 0 };
    }

    /// The burst's last callback: record the step and start the next lap.
    fn burst_ended(&mut self, kind: StepKind) {
        let State::Burst { start, end, measurements } = self.state else { return };
        if std::mem::take(&mut self.admitting) {
            // A solo session after the first: the window so far ends where
            // this session's construction began.
            if let Some(window) = self.window_span.take() {
                self.spans[window].end_s = start;
            }
            self.push(SpanKind::Admit, self.run_span, start, end);
        } else {
            let window = self.open_window(start);
            let step = self.push(SpanKind::Step(kind), Some(window), start, end);
            self.spans[step].camera = Some(self.camera);
            self.spans[step].measurements = measurements;
        }
        self.mark = self.now();
        self.state = State::Working;
    }

    /// A barrier callback: the barrier began when the last burst ended.
    fn barrier_touched(&mut self) {
        let now = self.now();
        let start = match self.state {
            State::Barrier { start, .. } => start,
            State::Working | State::Burst { .. } => {
                if std::mem::take(&mut self.admitting) {
                    // Routing at t=0 is the run's first callback: everything
                    // before it was session construction.
                    self.push(SpanKind::Admit, self.run_span, self.mark, now);
                    now
                } else {
                    self.mark
                }
            }
        };
        self.state = State::Barrier { start, last: now };
    }

    /// Adds the estimated `measure` child to every step of repetition `rep`
    /// that took measurements, at `cost_s` raw seconds per measurement.
    pub fn add_measure_spans(&mut self, rep: usize, cost_s: f64) {
        for index in 0..self.spans.len() {
            let span = &self.spans[index];
            if span.rep != rep || !matches!(span.kind, SpanKind::Step(_)) || span.measurements == 0
            {
                continue;
            }
            let (start_s, measurements) = (span.start_s, span.measurements);
            let end_s = start_s + (cost_s * f64::from(measurements)).min(span.duration_s());
            let child = self.push(SpanKind::Measure, Some(index), start_s, end_s);
            self.spans[child].rep = rep;
            self.spans[child].measurements = measurements;
        }
    }

    /// Renders every span as a Chrome Trace Event Format document: one
    /// process per repetition, all spans on one thread (they nest).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"rep\":{}",
                span.kind.name(),
                span.rep,
                span.start_s * 1e6,
                span.duration_s() * 1e6,
                span.rep,
            ));
            if let Some((camera, accelerator)) = span.camera {
                out.push_str(&format!(",\"camera\":{camera},\"accelerator\":{accelerator}"));
            }
            if span.measurements > 0 {
                out.push_str(&format!(",\"measurements\":{}", span.measurements));
            }
            if span.kind == SpanKind::Measure {
                out.push_str(",\"estimated\":true");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

impl SimObserver for Tracer {
    fn on_step_context(&mut self, _camera: &str, camera_index: usize, accelerator: usize) {
        self.work_ended();
        self.camera = (camera_index, accelerator);
    }

    fn on_uplink_transfer(&mut self, _camera: &str, _at_s: f64, _bytes: u64, _labels: usize) {
        self.work_ended();
    }

    fn on_event(&mut self, event: &SessionEvent) {
        self.work_ended();
        match event {
            SessionEvent::Accuracy { .. } => {
                self.counts.measurements += 1;
                if let State::Burst { measurements, .. } = &mut self.state {
                    *measurements += 1;
                }
            }
            SessionEvent::Drift { .. } => self.counts.drift_responses += 1,
            SessionEvent::Phase(_) | SessionEvent::Finished => {}
        }
    }

    fn on_phase(&mut self, phase: &PhaseRecord) {
        self.counts.phases += 1;
        self.burst_ended(match phase.kind {
            PhaseKind::Label => StepKind::Label,
            PhaseKind::Retrain => StepKind::Retrain,
            PhaseKind::Wait => StepKind::Wait,
        });
    }

    fn on_finished(&mut self) {
        self.burst_ended(StepKind::Finish);
    }

    fn on_window_barrier(&mut self, _window_index: usize, _boundary_s: f64) {
        self.counts.barriers += 1;
        self.barrier_touched();
    }

    fn on_window_sample(&mut self, _sample: &WindowSample<'_>) {
        self.counts.cameras_sampled += 1;
        self.barrier_touched();
    }

    fn on_accelerator_sample(&mut self, _sample: &AcceleratorSample) {
        self.barrier_touched();
    }

    fn on_share(&mut self, _exporter: &str, _importer: &str, _admitted: usize, _boundary_s: f64) {
        self.counts.share_admissions += 1;
        self.barrier_touched();
    }

    fn on_offload_route(&mut self, _camera: &str, _route: LabelRoute, _window: usize, _at_s: f64) {
        self.barrier_touched();
    }

    fn on_churn_join(&mut self, _camera: &str, _accelerator: Option<usize>, _at_s: f64) {
        self.barrier_touched();
    }

    fn on_churn_leave(&mut self, _camera: &str, _at_s: f64) {
        self.barrier_touched();
    }

    fn on_churn_drain(&mut self, _accelerator: usize, _at_s: f64) {
        self.barrier_touched();
    }

    fn on_migration(&mut self, _camera: &str, _from: usize, _to: Option<usize>, _at_s: f64) {
        self.barrier_touched();
    }
}

/// Each span's self time: its duration minus what its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_s).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.duration_s();
        }
    }
    own
}

/// Raw seconds repetition `rep` spent inside steps.
pub fn step_seconds(spans: &[Span], rep: usize) -> f64 {
    spans
        .iter()
        .filter(|s| s.rep == rep && matches!(s.kind, SpanKind::Step(_)))
        .map(Span::duration_s)
        .sum()
}

/// Host seconds of one repetition's `run()` call, by where they went.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Buckets {
    pub run_s: f64,
    pub label_s: f64,
    pub retrain_s: f64,
    pub wait_s: f64,
    pub measure_s: f64,
    pub barrier_s: f64,
    /// Everything else inside `run()`: session construction and
    /// pre-training, observer forwarding, result assembly.
    pub other_s: f64,
}

/// Sums repetition `rep`'s self times into buckets.
pub fn buckets(spans: &[Span], rep: usize) -> Buckets {
    let own = self_times(spans);
    let mut b = Buckets::default();
    for (span, own_s) in spans.iter().zip(own).filter(|(s, _)| s.rep == rep) {
        match span.kind {
            SpanKind::Run => {
                b.run_s = span.duration_s();
                b.other_s += own_s;
            }
            SpanKind::Admit | SpanKind::Window => b.other_s += own_s,
            SpanKind::Step(StepKind::Label) => b.label_s += own_s,
            SpanKind::Step(StepKind::Retrain) => b.retrain_s += own_s,
            SpanKind::Step(StepKind::Wait | StepKind::Finish) => b.wait_s += own_s,
            SpanKind::Measure => b.measure_s += own_s,
            SpanKind::Barrier => b.barrier_s += own_s,
            SpanKind::Rep => {}
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{generate, Drive, Size};

    fn traced(workload: &str) -> Tracer {
        let plan = generate(workload, 11, Size::Quick).unwrap();
        let mut tracer = Tracer::new();
        for rep in 0..2 {
            tracer.begin_rep(rep);
            let prepared = plan.prepare(1);
            tracer.begin_run();
            prepared.run(Drive::Traced(&mut tracer)).unwrap();
            tracer.end_run();
            tracer.end_rep();
            tracer.add_measure_spans(rep, 20e-6);
        }
        tracer
    }

    /// Children lie inside their parent, siblings do not overlap (no
    /// negative self time), and a repetition's self times add up to it.
    fn assert_well_formed(tracer: &Tracer) {
        let spans = &tracer.spans;
        let slack = 1e-9;
        for span in spans {
            assert!(span.end_s >= span.start_s, "{span:?}");
            if let Some(parent) = span.parent {
                let parent = &spans[parent];
                assert_eq!(parent.rep, span.rep);
                assert!(
                    span.start_s >= parent.start_s - slack && span.end_s <= parent.end_s + slack,
                    "{span:?} outside {parent:?}"
                );
            }
        }
        let own = self_times(spans);
        assert!(own.iter().all(|&s| s >= -1e-6), "siblings overlap");
        for (index, root) in spans.iter().enumerate().filter(|(_, s)| s.kind == SpanKind::Rep) {
            let total: f64 =
                spans.iter().zip(&own).filter(|(s, _)| s.rep == root.rep).map(|(_, o)| o).sum();
            let want = spans[index].duration_s();
            assert!((total - want).abs() <= 0.01 * want, "self times {total} vs rep {want}");
            let b = buckets(spans, root.rep);
            let parts = b.label_s + b.retrain_s + b.wait_s + b.measure_s + b.barrier_s + b.other_s;
            assert!((parts - b.run_s).abs() <= 0.01 * b.run_s, "buckets {parts} vs {}", b.run_s);
        }
    }

    #[test]
    fn a_traced_barrier_fleet_yields_a_well_formed_tree() {
        let tracer = traced("fleet-barrier");
        assert_well_formed(&tracer);
        let kinds = |kind| tracer.spans.iter().filter(|s| s.kind == kind).count();
        assert_eq!(kinds(SpanKind::Rep), 2);
        assert_eq!(kinds(SpanKind::Run), 2);
        assert!(
            kinds(SpanKind::Barrier) > 0 && kinds(SpanKind::Window) >= kinds(SpanKind::Barrier)
        );
        assert!(kinds(SpanKind::Step(StepKind::Retrain)) > 0);
        assert!(kinds(SpanKind::Measure) > 0);
        assert!(tracer.counts.barriers > 0 && tracer.counts.share_admissions > 0);
    }

    #[test]
    fn a_traced_solo_workload_yields_a_well_formed_tree() {
        let tracer = traced("solo-paper");
        assert_well_formed(&tracer);
        // One admit span per session and repetition, no barriers.
        let admits = tracer.spans.iter().filter(|s| s.kind == SpanKind::Admit).count();
        assert_eq!(admits, 2 * 2);
        assert!(tracer.spans.iter().all(|s| s.kind != SpanKind::Barrier));
    }

    #[test]
    fn measure_children_never_outgrow_their_step() {
        let tracer = traced("fleet-steady");
        for span in tracer.spans.iter().filter(|s| s.kind == SpanKind::Measure) {
            let step = &tracer.spans[span.parent.unwrap()];
            assert!(matches!(step.kind, SpanKind::Step(_)));
            assert!(span.duration_s() <= step.duration_s() + 1e-12);
            assert_eq!(span.measurements, step.measurements);
        }
    }

    #[test]
    fn the_chrome_trace_parses_and_holds_every_span() {
        let tracer = traced("fleet-steady");
        let document = serde_json::value_from_str(&tracer.chrome_trace()).unwrap();
        let events = document.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        assert_eq!(events.len(), tracer.spans.len());
    }
}
