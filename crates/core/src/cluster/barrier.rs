//! The window barrier: every stage that touches more than one camera —
//! label exchange, churn, offload routing — over one [`Barrier`], which
//! only exists while no worker holds a loop. The accelerator loop's
//! barrier-side methods are defined here too, private to this module, so
//! the loop's own event code (`accel_loop`) cannot call them.

use super::accel_loop::{AccelLoop, PendingEntry};
use super::plan::{ChurnAction, PreparedEvent};
use super::{AdmissionPolicy, ChurnMetrics};
use crate::buffer::{Grant, SampleBlock, SharedTails};
use crate::config::SimConfig;
use crate::edge::{EdgeAccum, OffloadContext, OffloadPolicy};
use crate::fleet::prefix_camera;
use crate::session::{Session, SimObserver};
use crate::share::{ShareContext, ShareMetrics, SharePolicy};
use crate::sim::SimResult;
use crate::{CoreError, Result};
use std::collections::{btree_map, BTreeMap, VecDeque};

/// The label-exchange stage's state: present only under an active share
/// policy.
pub(super) struct ShareStage {
    pub(super) policy: Box<dyn SharePolicy>,
    pub(super) correlations: PairCorrelations,
    pub(super) metrics: ShareMetrics,
}

/// What the window barriers' churn processing produced, alongside the
/// per-accelerator outcomes.
#[derive(Default)]
pub(super) struct ChurnOutcome {
    pub(super) metrics: ChurnMetrics,
    /// `(camera index, partial result)` of cameras that stopped at a churn
    /// barrier: mid-run leaves and orphaned residents.
    pub(super) extra_results: Vec<(usize, SimResult)>,
    /// Edge-tier counters of sessions finalised at churn barriers without
    /// passing through an accelerator loop's own bookkeeping (orphans).
    pub(super) edge: EdgeAccum,
}

/// A live session lifted off a draining accelerator, with the executor-side
/// state that must survive the move.
struct Migrant {
    camera_index: usize,
    session: Box<Session>,
    now_s: f64,
    recovering: bool,
}

/// What [`AccelLoop::leave`] found for a departing camera.
enum LeaveOutcome {
    /// The camera was live here: its partial result.
    Departed(SimResult),
    /// The camera was waiting in the admission queue. A never-started
    /// camera carries no result; a queued migrant reports its partial one.
    Dequeued(Option<SimResult>),
    /// The camera is not on this accelerator (elsewhere, or finished).
    NotHere,
}

impl AccelLoop<'_> {
    /// Drains this accelerator at a churn barrier: marks it closed, clears
    /// its event heap, and lifts out every live session (in admission
    /// order) and queued entry for re-homing elsewhere.
    fn drain_accelerator(&mut self) -> (Vec<Migrant>, VecDeque<PendingEntry>) {
        self.drained = true;
        self.heap.clear();
        let mut migrants = Vec::new();
        for slot_index in std::mem::take(&mut self.active) {
            let slot = &mut self.slots[slot_index];
            if let Some(session) = slot.session.take() {
                // This accelerator served the resident up to its next-due
                // time; fold that into the local makespan so the drained
                // accelerator's utilization stays busy_s-consistent instead
                // of reporting 0 (or >1) after the migration.
                self.outcome.makespan_s = self.outcome.makespan_s.max(slot.now_s);
                migrants.push(Migrant {
                    camera_index: slot.camera_index,
                    session,
                    now_s: slot.now_s,
                    recovering: slot.recovering,
                });
            }
        }
        (migrants, std::mem::take(&mut self.pending))
    }

    /// Removes a departing camera at a churn barrier, freeing its capacity
    /// for the next queued camera (which starts at `boundary_s`).
    fn leave(&mut self, camera_index: usize, boundary_s: f64) -> Result<LeaveOutcome> {
        let live = self.active.iter().enumerate().find_map(|(position, &slot)| {
            let slot = &mut self.slots[slot];
            if slot.camera_index != camera_index {
                return None;
            }
            slot.session.take().map(|session| (position, session))
        });
        if let Some((position, session)) = live {
            self.active.remove(position);
            let result = session.into_result_with_edge(&mut self.outcome.edge);
            // The departure happens at the barrier; the freed capacity goes
            // to the next queued camera from the same moment.
            self.outcome.makespan_s = self.outcome.makespan_s.max(boundary_s);
            self.start_next_pending(boundary_s)?;
            return Ok(LeaveOutcome::Departed(result));
        }
        let queued = self.pending.iter().position(|entry| entry.camera_index == camera_index);
        if let Some(entry) = queued.and_then(|position| self.pending.remove(position)) {
            let edge = &mut self.outcome.edge;
            let result = entry.session.map(|session| session.into_result_with_edge(edge));
            return Ok(LeaveOutcome::Dequeued(result));
        }
        Ok(LeaveOutcome::NotHere)
    }

    /// Drains the freshly labeled batches collected since the last drain.
    fn take_exports(&mut self) -> Vec<(usize, SampleBlock)> {
        std::mem::take(&mut self.exports)
    }
}

/// The surviving accelerator that should receive the next placed camera:
/// fewest live + queued sessions, ties to the lowest index — deterministic,
/// so churn placement never depends on thread scheduling.
fn pick_target(loops: &[AccelLoop<'_>]) -> Option<usize> {
    loops
        .iter()
        .enumerate()
        .filter(|(_, accel_loop)| !accel_loop.drained)
        .min_by_key(|(index, accel_loop)| (accel_loop.load(), *index))
        .map(|(index, _)| index)
}

/// One live session's coordinates at a window barrier: which camera it is
/// and where its session lives.
#[derive(Debug, Clone, Copy)]
pub(super) struct Resident {
    camera_index: usize,
    accel: usize,
    slot: usize,
}

/// Collects the live sessions into `roster` in camera admission-index
/// order — the order every barrier stage walks.
fn collect_roster(loops: &[AccelLoop<'_>], roster: &mut Vec<Resident>) {
    roster.clear();
    for (accel, accel_loop) in loops.iter().enumerate() {
        for (slot, resident) in accel_loop.slots.iter().enumerate() {
            if resident.session.is_some() {
                roster.push(Resident { camera_index: resident.camera_index, accel, slot });
            }
        }
    }
    roster.sort_by_key(|resident| resident.camera_index);
}

/// The session a roster entry points at (`None` once it finished or left).
fn resident_session<'l>(
    loops: &'l mut [AccelLoop<'_>],
    resident: Resident,
) -> Option<&'l mut Session> {
    loops[resident.accel].slots[resident.slot].session.as_deref_mut()
}

/// Memo of the symmetric scenario-attribute overlap between camera pairs: a
/// flat lower-triangular table over camera admission indices, sized once
/// for the whole run (joining cameras included). A pair's overlap never
/// changes, and the exchange asks for it `N²` times per barrier.
pub(super) struct PairCorrelations {
    /// Entry `hi * (hi - 1) / 2 + lo` for `lo < hi`; NaN until computed.
    table: Vec<f64>,
}

impl PairCorrelations {
    pub(super) fn new(cameras: usize) -> Self {
        Self { table: vec![f64::NAN; cameras * cameras.saturating_sub(1) / 2] }
    }

    /// The overlap of the distinct cameras `a` and `b`, computed on first
    /// use.
    fn get(&mut self, a: usize, b: usize, cameras: &[(String, SimConfig)]) -> f64 {
        let (lo, hi) = (a.min(b), a.max(b));
        let entry = &mut self.table[hi * (hi - 1) / 2 + lo];
        if entry.is_nan() {
            *entry = cameras[a].1.scenario.attribute_overlap(&cameras[b].1.scenario);
        }
        *entry
    }
}

/// What every stage of one window barrier works on: the loops between two
/// windows, the live sessions in admission order, and where on the cluster
/// clock the barrier stands. `window` is the window the barrier closes.
///
/// The fields are private and [`Barrier::new`] is the only way to get one:
/// it wants every loop mutably, so it cannot be built while a worker of the
/// parallel region still holds one.
pub(super) struct Barrier<'b, 'a, 'o> {
    loops: &'b mut [AccelLoop<'a>],
    roster: &'b mut Vec<Resident>,
    cameras: &'a [(String, SimConfig)],
    window: usize,
    boundary_s: f64,
    observer: Option<&'b mut (dyn SimObserver + 'o)>,
}

impl<'b, 'a, 'o> Barrier<'b, 'a, 'o> {
    /// Opens the barrier that closes `window` at `boundary_s`, collecting
    /// the live sessions into `roster` (the caller's, so its storage is
    /// reused across barriers).
    pub(super) fn new(
        loops: &'b mut [AccelLoop<'a>],
        roster: &'b mut Vec<Resident>,
        cameras: &'a [(String, SimConfig)],
        window: usize,
        boundary_s: f64,
        observer: Option<&'b mut (dyn SimObserver + 'o)>,
    ) -> Self {
        collect_roster(loops, roster);
        Self { loops, roster, cameras, window, boundary_s, observer }
    }

    /// The label-exchange stage: drain every camera's fresh exports, then
    /// walk importers and exporters in camera admission-index order, asking
    /// the policy for an admit fraction per pair. Single-threaded and fully
    /// ordered, so shared runs stay deterministic at any worker-thread
    /// count.
    ///
    /// Each importer is served in two passes. Pass one consults the policy
    /// for every exporter — validation, metrics and observer calls included
    /// — and only records what was granted. Pass two hands the grants to the
    /// importer's buffer, which copies just the rows that survive its own
    /// FIFO eviction — or, when the grants fill it, views their tail, built
    /// once per barrier for every importer granted the same rows. A barrier
    /// therefore costs `N²` policy calls plus at most `N · C_b` row copies,
    /// and one `C_b`-row tail per distinct grant set when grants exceed
    /// `C_b`, not `N² · batch` sample clones.
    pub(super) fn exchange_window(&mut self, stage: &mut ShareStage) -> Result<()> {
        let ShareStage { policy, correlations, metrics } = stage;
        let cameras = self.cameras;
        let mut exports: BTreeMap<usize, SampleBlock> = BTreeMap::new();
        for accel_loop in self.loops.iter_mut() {
            for (camera_index, batch) in accel_loop.take_exports() {
                // A camera that labeled once in the window hands over its
                // block; only a second one is copied onto it.
                match exports.entry(camera_index) {
                    btree_map::Entry::Vacant(entry) => {
                        entry.insert(batch);
                    }
                    btree_map::Entry::Occupied(mut entry) => entry.get_mut().append(&batch),
                }
            }
        }
        metrics.labels_exported += exports.values().map(SampleBlock::len).sum::<usize>();
        if exports.is_empty() {
            return Ok(());
        }
        let mut grants: Vec<Grant<'_>> = Vec::with_capacity(exports.len());
        let mut tails = SharedTails::default();
        for &resident in self.roster.iter() {
            let importer_index = resident.camera_index;
            let Some(session) = resident_session(self.loops, resident) else { continue };
            let labeling_sps = session.labeling_sps();
            grants.clear();
            for (&exporter_index, batch) in &exports {
                if exporter_index == importer_index {
                    continue;
                }
                let ctx = ShareContext {
                    window_index: self.window,
                    boundary_s: self.boundary_s,
                    exporter: &cameras[exporter_index].0,
                    exporter_index,
                    importer: &cameras[importer_index].0,
                    importer_index,
                    correlation: correlations.get(importer_index, exporter_index, cameras),
                    fresh_labels: batch.len(),
                };
                let fraction = policy.admit_fraction(&ctx);
                if !fraction.is_finite() || !(0.0..=1.0).contains(&fraction) {
                    return Err(CoreError::InvalidConfig {
                        reason: format!(
                            "share policy '{}' returned an invalid admit fraction ({fraction}) \
                             for importer '{}'; fractions must lie in [0, 1]",
                            policy.name(),
                            cameras[importer_index].0
                        ),
                    });
                }
                let admitted =
                    (((batch.len() as f64) * fraction).round() as usize).min(batch.len());
                if admitted == 0 {
                    // Only an outright refusal counts as a reject; a positive
                    // fraction too small to round to one sample is a grant
                    // that happened to admit nothing.
                    if fraction == 0.0 {
                        metrics.import_rejects += 1;
                    }
                    continue;
                }
                grants.push(Grant { source: exporter_index, block: batch, rows: admitted });
                if let Some(observer) = self.observer.as_deref_mut() {
                    observer.on_share(
                        &cameras[exporter_index].0,
                        &cameras[importer_index].0,
                        admitted,
                        self.boundary_s,
                    );
                }
                metrics.labels_reused += admitted;
                if labeling_sps > 0.0 {
                    metrics.labeling_seconds_saved += admitted as f64 / labeling_sps;
                }
            }
            session
                .admit_samples(&grants, &mut tails)
                .map_err(|e| prefix_camera(&cameras[importer_index].0, e))?;
        }
        Ok(())
    }

    /// The churn stage, one event at a time (single-threaded, in execution
    /// order — the churn counterpart of [`Barrier::exchange_window`]). The
    /// stages after it walk the fleet as the event left it.
    pub(super) fn apply_churn(
        &mut self,
        event: &PreparedEvent,
        admission: AdmissionPolicy,
        churn: &mut ChurnOutcome,
    ) -> Result<()> {
        let (cameras, boundary_s) = (self.cameras, self.boundary_s);
        match event.action {
            ChurnAction::Join { camera_index } => {
                churn.metrics.joins += 1;
                // Long-running clusters should not abort because one join
                // found the fleet full: under `Reject` the denied camera is
                // recorded as an orphan instead.
                let entry = PendingEntry::fresh(camera_index);
                let placed = self.place(entry, boundary_s, Some(admission), churn)?;
                if let Some(observer) = self.observer.as_deref_mut() {
                    observer.on_churn_join(&cameras[camera_index].0, placed, boundary_s);
                }
            }
            ChurnAction::Leave { camera_index } => {
                churn.metrics.leaves += 1;
                for accel_loop in self.loops.iter_mut() {
                    match accel_loop.leave(camera_index, boundary_s)? {
                        LeaveOutcome::Departed(result) => {
                            churn.extra_results.push((camera_index, result));
                            break;
                        }
                        LeaveOutcome::Dequeued(result) => {
                            churn.extra_results.extend(result.map(|result| (camera_index, result)));
                            break;
                        }
                        // Not on this accelerator; a camera found nowhere has
                        // already finished, making the leave a no-op.
                        LeaveOutcome::NotHere => {}
                    }
                }
                if let Some(observer) = self.observer.as_deref_mut() {
                    observer.on_churn_leave(&cameras[camera_index].0, boundary_s);
                }
            }
            ChurnAction::Drain { accelerator } => {
                churn.metrics.drains += 1;
                if let Some(observer) = self.observer.as_deref_mut() {
                    observer.on_churn_drain(accelerator, boundary_s);
                }
                let (migrants, displaced) = self.loops[accelerator].drain_accelerator();
                for migrant in migrants {
                    let camera_name = &cameras[migrant.camera_index].0;
                    // Live migration goes through the public snapshot format:
                    // the restored session is bit-identical to the original
                    // (property-tested), so drains never perturb results. It
                    // arrives owning no training arena — none rides a
                    // snapshot — and computes in its new loop's from the
                    // first step there.
                    let restored = Session::restore(migrant.session.snapshot())
                        .map_err(|e| prefix_camera(camera_name, e))?;
                    let entry = PendingEntry {
                        camera_index: migrant.camera_index,
                        session: Some(Box::new(restored)),
                        recovering: migrant.recovering,
                        drain_at_s: Some(event.at_s),
                    };
                    // A migrant resumes at its own place on the cluster
                    // clock, not at the barrier.
                    let destination = self.place(entry, migrant.now_s, Some(admission), churn)?;
                    churn.metrics.migrations += usize::from(destination.is_some());
                    if let Some(observer) = self.observer.as_deref_mut() {
                        observer.on_migration(camera_name, accelerator, destination, boundary_s);
                    }
                }
                for entry in displaced {
                    let camera_name = &cameras[entry.camera_index].0;
                    // A displaced waiter was admitted once already: it queues
                    // again whatever the admission policy says.
                    let destination = self.place(entry, boundary_s, None, churn)?;
                    if let Some(observer) = self.observer.as_deref_mut() {
                        observer.on_migration(camera_name, accelerator, destination, boundary_s);
                    }
                }
            }
        }
        collect_roster(self.loops, self.roster);
        Ok(())
    }

    /// Places one camera at a churn barrier — a join, a migrant off a
    /// draining accelerator, or a waiter displaced from its queue — on the
    /// least-loaded surviving accelerator, and returns where it landed.
    /// With headroom it starts at `at_s` (an idle accelerator never revisits
    /// its queue on its own, so deferring would strand the camera). On a
    /// full target a new `arrival` follows its admission policy — `Queue`
    /// counts a first wait, `Reject` orphans — while a displaced waiter
    /// (`None`) rejoins a queue without counting a second wait. With no
    /// survivor the camera is orphaned: `None` is returned, and a camera
    /// that had already run reports its executed prefix. Placement reads
    /// every accelerator's load and rewrites one's residents.
    fn place(
        &mut self,
        entry: PendingEntry,
        at_s: f64,
        arrival: Option<AdmissionPolicy>,
        churn: &mut ChurnOutcome,
    ) -> Result<Option<usize>> {
        let target = pick_target(self.loops);
        let has_room = target
            .is_some_and(|target| self.loops[target].live_count() < self.loops[target].capacity);
        let accepted = has_room || arrival != Some(AdmissionPolicy::Reject);
        let Some(target) = target.filter(|_| accepted) else {
            churn.metrics.orphaned_cameras += 1;
            if let Some(session) = entry.session {
                let result = session.into_result_with_edge(&mut churn.edge);
                churn.extra_results.push((entry.camera_index, result));
            }
            return Ok(None);
        };
        let accel_loop = &mut self.loops[target];
        if has_room {
            let stall_s = accel_loop.admit(entry, at_s)?;
            match arrival {
                Some(_) => churn.metrics.migration_stall_s += stall_s,
                None => accel_loop.outcome.stall_s += stall_s,
            }
        } else {
            accel_loop.outcome.queued += usize::from(arrival.is_some());
            accel_loop.pending.push_back(entry);
        }
        Ok(Some(target))
    }

    /// The offload-routing stage: walk the live, edge-configured sessions in
    /// camera admission-index order and set each one's label route for
    /// `window_index`, the window this barrier opens, from the policy's
    /// decision. Single-threaded and fully ordered — the routing counterpart
    /// of [`Barrier::exchange_window`]. Cameras without an edge tier are
    /// skipped (they always label locally), and cameras admitted from a
    /// queue mid-window run their first partial window on the Local default
    /// until the next barrier routes them. Routes are only rewritten here,
    /// between windows, so a whole window runs on one route.
    pub(super) fn route_offload(
        &mut self,
        policy: &mut dyn OffloadPolicy,
        window_index: usize,
    ) -> Result<()> {
        let (cameras, boundary_s) = (self.cameras, self.boundary_s);
        let live_counts: Vec<usize> = self.loops.iter().map(AccelLoop::live_count).collect();
        for &resident in self.roster.iter() {
            let Resident { camera_index, accel, .. } = resident;
            let Some(session) = resident_session(self.loops, resident) else { continue };
            if !session.has_edge_tier() {
                continue;
            }
            let (buffer_len, bytes_shipped, window_bytes) = session.offload_meter();
            let route = policy.route(&OffloadContext {
                window_index,
                boundary_s,
                camera: &cameras[camera_index].0,
                camera_index,
                accelerator: accel,
                resident_cameras: live_counts[accel],
                buffer_len,
                bytes_shipped,
                window_bytes,
            });
            session
                .set_label_route(route)
                .map_err(|e| prefix_camera(&cameras[camera_index].0, e))?;
            if let Some(observer) = self.observer.as_deref_mut() {
                observer.on_offload_route(
                    &cameras[camera_index].0,
                    route,
                    window_index,
                    boundary_s,
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedulerKind;
    use crate::sim::test_support::short_config;
    use crate::SampleBuffer;

    /// The per-sample exchange loop `exchange_window` replaced, kept as the
    /// oracle the two-pass exchange is tested against: every granted sample
    /// is cloned and pushed into the importer's buffer one by one, and the
    /// pair correlation is recomputed at every use.
    fn exchange_window_oracle(
        loops: &mut [AccelLoop<'_>],
        policy: &mut dyn SharePolicy,
        cameras: &[(String, SimConfig)],
        metrics: &mut ShareMetrics,
        window_index: usize,
        boundary_s: f64,
        observer: &mut dyn SimObserver,
    ) -> Result<()> {
        use crate::buffer::LabeledSample;
        let mut exports: BTreeMap<usize, Vec<LabeledSample>> = BTreeMap::new();
        for accel_loop in loops.iter_mut() {
            for (camera_index, batch) in accel_loop.take_exports() {
                exports
                    .entry(camera_index)
                    .or_default()
                    .extend((0..batch.len()).map(|i| batch.get(i).to_sample()));
            }
        }
        metrics.labels_exported += exports.values().map(Vec::len).sum::<usize>();
        if exports.is_empty() {
            return Ok(());
        }
        let mut importers: Vec<(usize, &mut Session)> = Vec::new();
        for accel_loop in loops.iter_mut() {
            importers.extend(accel_loop.slots.iter_mut().filter_map(|slot| {
                let camera_index = slot.camera_index;
                slot.session.as_deref_mut().map(|session| (camera_index, session))
            }));
        }
        importers.sort_by_key(|(camera_index, _)| *camera_index);
        for (importer_index, session) in importers {
            for (&exporter_index, batch) in &exports {
                if exporter_index == importer_index {
                    continue;
                }
                let correlation = cameras[importer_index]
                    .1
                    .scenario
                    .attribute_overlap(&cameras[exporter_index].1.scenario);
                let ctx = ShareContext {
                    window_index,
                    boundary_s,
                    exporter: &cameras[exporter_index].0,
                    exporter_index,
                    importer: &cameras[importer_index].0,
                    importer_index,
                    correlation,
                    fresh_labels: batch.len(),
                };
                let fraction = policy.admit_fraction(&ctx);
                if !fraction.is_finite() || !(0.0..=1.0).contains(&fraction) {
                    return Err(CoreError::InvalidConfig { reason: "invalid fraction".into() });
                }
                let admitted =
                    (((batch.len() as f64) * fraction).round() as usize).min(batch.len());
                if admitted == 0 {
                    if fraction == 0.0 {
                        metrics.import_rejects += 1;
                    }
                    continue;
                }
                for sample in batch.iter().take(admitted).cloned() {
                    session.buffer_mut().push(sample);
                }
                observer.on_share(
                    &cameras[exporter_index].0,
                    &cameras[importer_index].0,
                    admitted,
                    boundary_s,
                );
                metrics.labels_reused += admitted;
                let labeling_sps = session.labeling_sps();
                if labeling_sps > 0.0 {
                    metrics.labeling_seconds_saved += admitted as f64 / labeling_sps;
                }
            }
        }
        Ok(())
    }

    /// Grants a fraction per (importer, exporter) pair from a fixed menu:
    /// refuse, too small to round to a sample, partial, everything.
    struct MenuPolicy {
        salt: usize,
    }

    impl SharePolicy for MenuPolicy {
        fn name(&self) -> String {
            "menu".to_string()
        }
        fn admit_fraction(&mut self, ctx: &ShareContext<'_>) -> f64 {
            const MENU: [f64; 4] = [0.0, 1e-9, 0.37, 1.0];
            // The policy sees the memoised correlation; fold it in so a
            // wrong table entry changes the grants.
            let pick = self.salt + ctx.importer_index * 7 + ctx.exporter_index * 3;
            MENU[(pick + (ctx.correlation * 16.0) as usize) % MENU.len()]
        }
    }

    #[derive(Default, PartialEq, Debug)]
    struct ShareLog(Vec<(String, String, usize, f64)>);

    impl SimObserver for ShareLog {
        fn on_share(&mut self, exporter: &str, importer: &str, admitted: usize, boundary_s: f64) {
            self.0.push((exporter.to_string(), importer.to_string(), admitted, boundary_s));
        }
    }

    /// `n` distinguishable labeled rows from `camera`, numbered from `from`.
    fn labeled_block(camera: usize, from: usize, n: usize, dim: usize) -> SampleBlock {
        let mut block = SampleBlock::default();
        for k in from..from + n {
            let features: Vec<f32> =
                (0..dim).map(|d| (camera * 1000 + k) as f32 + d as f32 / 64.0).collect();
            block.push(crate::buffer::SampleRef {
                features: &features,
                teacher_label: k % 10,
                true_class: (k + camera) % 10,
                timestamp_s: k as f64 + camera as f64 / 8.0,
            });
        }
        block
    }

    /// Snapshots taken between the windows of a broadcast exchange — buffers
    /// viewing a shared tail, some under rows of their own — re-encode to
    /// the bytes they decoded from, and to the bytes the same rows pushed
    /// one by one into a plain ring give.
    #[test]
    fn mid_run_snapshots_of_broadcast_importers_are_serde_fixed_points() {
        let cameras: Vec<(String, SimConfig)> = (0..6)
            .map(|i| {
                let mut config = short_config(SchedulerKind::DaCapoSpatial);
                // Five peers' label phases overfill the buffer; one of its
                // own does not.
                config.hyper.buffer_capacity = 12;
                config.hyper.label_samples = 4;
                config.hyper.retrain_samples = 6;
                config.hyper.validation_samples = 2;
                config.hyper.batch_size = 4;
                config.seed = 70 + i;
                (format!("cam-{i}"), config)
            })
            .collect();
        let assigned: Vec<usize> = (0..cameras.len()).collect();
        let mut loops =
            vec![AccelLoop::new(0, &assigned, &cameras, "fair-share", None, true, 5.0).unwrap()];
        let mut stage = ShareStage {
            policy: crate::share::create("broadcast").unwrap(),
            correlations: PairCorrelations::new(cameras.len()),
            metrics: ShareMetrics::fresh("broadcast".to_string(), 5.0),
        };
        let mut roster = Vec::new();
        let (mut shared, mut prefixed) = (0, 0);
        for window in 0..12 {
            let boundary_s = 5.0 * (window + 1) as f64;
            loops[0].run_until(boundary_s, None).unwrap();
            Barrier::new(&mut loops, &mut roster, &cameras, window, boundary_s, None)
                .exchange_window(&mut stage)
                .unwrap();
            // Step on to the middle of the next window, so some importers
            // write own rows over their shared tail.
            loops[0].run_until(boundary_s + 2.5, None).unwrap();
            for session in loops[0].slots.iter_mut().filter_map(|slot| slot.session.as_mut()) {
                let snapshot = session.snapshot();
                if let Some(own_rows) = snapshot.buffer.own_rows_over_shared_tail() {
                    shared += 1;
                    prefixed += usize::from(own_rows > 0);
                }
                let json = snapshot.to_json();
                let decoded = crate::SessionSnapshot::from_json(&json).unwrap();
                assert_eq!(
                    decoded.buffer.own_rows_over_shared_tail(),
                    None,
                    "decoded as a plain ring"
                );
                assert_eq!(decoded.to_json(), json);
                let mut plain = snapshot;
                let mut rebuilt = SampleBuffer::new(plain.buffer.capacity());
                rebuilt.extend(plain.buffer.samples().map(|row| row.to_sample()));
                plain.buffer = rebuilt;
                assert_eq!(plain.to_json(), json);
            }
        }
        assert!(stage.metrics.labels_reused > 0);
        assert!(shared > 0, "no importer was ever filled by its grants");
        assert!(prefixed > 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

        /// The two-pass, survivor-only exchange leaves every buffer, the
        /// share metrics and the `on_share` stream exactly as the per-sample
        /// loop does — over random fleets whose exporters include importers,
        /// idle cameras and a camera that already left, with batches from
        /// empty to three buffers' worth and every kind of admit fraction.
        #[test]
        fn the_two_pass_exchange_matches_the_per_sample_oracle(
            fleet in 2usize..6,
            accelerators in 1usize..3,
            capacities in proptest::collection::vec(1usize..64, 6),
            prefill in proptest::collection::vec(0usize..200, 6),
            batches in proptest::collection::vec(0usize..192, 6),
            split in proptest::collection::vec(0usize..3, 6),
            leaver in 0usize..8,
            salt in 0usize..4,
        ) {
            // Each camera drifts at its own time, so every pair has its own
            // attribute overlap for the correlation memo to get right.
            let cameras: Vec<(String, SimConfig)> = (0..fleet)
                .map(|i| {
                    let mut config = short_config(SchedulerKind::DaCapoSpatial);
                    let mut segments = config.scenario.segments().to_vec();
                    segments[0].duration_s = 20.0 * (i + 1) as f64;
                    config.scenario =
                        dacapo_datagen::Scenario::try_from_segments("staggered", segments)
                            .expect("segments are non-empty with positive durations");
                    config.pretrain_samples = 0;
                    config.seed = 40 + i as u64;
                    (format!("cam-{i}"), config)
                })
                .collect();
            let dim = cameras[0].1.stream.feature_dim;
            let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); accelerators];
            for index in 0..fleet {
                assignment[index % accelerators].push(index);
            }
            let boundary_s = 20.0;
            let stage = || -> Vec<AccelLoop<'_>> {
                let mut loops: Vec<AccelLoop<'_>> = assignment
                    .iter()
                    .enumerate()
                    .map(|(accel, assigned)| {
                        AccelLoop::new(accel, assigned, &cameras, "fair-share", None, true, 20.0)
                            .unwrap()
                    })
                    .collect();
                for accel_loop in &mut loops {
                    // Advancing to 0 s admits the residents and steps nothing.
                    accel_loop.run_until(0.0, None).unwrap();
                    for slot in 0..accel_loop.slots.len() {
                        let camera = accel_loop.slots[slot].camera_index;
                        // Batches scale with the importer-side capacity so
                        // they range from nothing to three buffers' worth.
                        let capacity = capacities[camera];
                        let session = accel_loop.slots[slot].session.as_mut().unwrap();
                        *session.buffer_mut() = SampleBuffer::new(capacity);
                        let resident = labeled_block(camera, 0, prefill[camera] % (capacity + 1), dim);
                        let prefill = Grant { source: camera, block: &resident, rows: resident.len() };
                        session.admit_samples(&[prefill], &mut SharedTails::default()).unwrap();
                        let batch = batches[camera] % (3 * capacity + 1);
                        // Exports arrive as one block, as two (two labeling
                        // phases in the window), or not at all.
                        match split[camera] {
                            0 => {}
                            1 => accel_loop
                                .exports
                                .push((camera, labeled_block(camera, 500, batch, dim))),
                            _ => {
                                let first = batch / 3;
                                accel_loop
                                    .exports
                                    .push((camera, labeled_block(camera, 500, first, dim)));
                                accel_loop.exports.push((
                                    camera,
                                    labeled_block(camera, 500 + first, batch - first, dim),
                                ));
                            }
                        }
                    }
                }
                // One camera may leave after labeling: its exports are still
                // offered, but it imports nothing.
                if leaver < fleet {
                    let accel = leaver % accelerators;
                    assert!(matches!(
                        loops[accel].leave(leaver, boundary_s).unwrap(),
                        LeaveOutcome::Departed(_)
                    ));
                }
                loops
            };

            let mut fast = stage();
            let mut fast_stage = ShareStage {
                policy: Box::new(MenuPolicy { salt }),
                correlations: PairCorrelations::new(cameras.len()),
                metrics: ShareMetrics::fresh("menu".to_string(), boundary_s),
            };
            let mut fast_log = ShareLog::default();
            let mut roster = Vec::new();
            Barrier::new(&mut fast, &mut roster, &cameras, 3, boundary_s, Some(&mut fast_log))
                .exchange_window(&mut fast_stage)
                .unwrap();
            let fast_metrics = fast_stage.metrics;

            let mut slow = stage();
            let mut slow_metrics = ShareMetrics::fresh("menu".to_string(), boundary_s);
            let mut slow_log = ShareLog::default();
            exchange_window_oracle(
                &mut slow,
                &mut MenuPolicy { salt },
                &cameras,
                &mut slow_metrics,
                3,
                boundary_s,
                &mut slow_log,
            )
            .unwrap();

            proptest::prop_assert_eq!(&fast_metrics, &slow_metrics);
            proptest::prop_assert_eq!(&fast_log, &slow_log);
            for (fast_loop, slow_loop) in fast.iter_mut().zip(&mut slow) {
                proptest::prop_assert!(fast_loop.exports.is_empty() && slow_loop.exports.is_empty());
                for (fast_slot, slow_slot) in fast_loop.slots.iter_mut().zip(&mut slow_loop.slots) {
                    match (fast_slot.session.as_mut(), slow_slot.session.as_mut()) {
                        (Some(fast_session), Some(slow_session)) => {
                            let expected: Vec<crate::buffer::LabeledSample> =
                                slow_session.buffer_mut().samples().map(|s| s.to_sample()).collect();
                            let actual: Vec<crate::buffer::LabeledSample> =
                                fast_session.buffer_mut().samples().map(|s| s.to_sample()).collect();
                            proptest::prop_assert_eq!(actual, expected);
                        }
                        (None, None) => {}
                        _ => panic!("the two fleets were staged identically"),
                    }
                }
            }
        }
    }
}
