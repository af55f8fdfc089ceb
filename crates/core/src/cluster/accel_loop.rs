//! One accelerator's virtual-time event loop: everything a worker thread
//! can reach inside a window. Nothing here names the sibling `barrier`
//! module — the cross-camera stages, and this loop's own barrier-side
//! methods, live there and are private to it.

use crate::arbiter::{self, GrantRequest, PeerSession};
use crate::buffer::SampleBlock;
use crate::config::SimConfig;
use crate::edge::EdgeAccum;
use crate::fleet::prefix_camera;
use crate::session::{
    report_uplink, AcceleratorSample, Session, SessionEvent, SimObserver, WindowSample,
};
use crate::sim::{PhaseKind, SimResult};
use crate::{CoreError, Result};
use dacapo_dnn::TrainScratch;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A heap entry: when a session's next step is due on the cluster clock.
/// Orders by due time (IEEE total order), ties broken by admission sequence
/// so the executor is deterministic; the event queue is a
/// `BinaryHeap<Reverse<Due>>`, earliest first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Due {
    at: f64,
    seq: u64,
    slot: usize,
}

impl Eq for Due {}

impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Due {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.total_cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// One admitted session's executor state. The session itself is dropped
/// (converted to its [`SimResult`]) the moment it finishes — or taken when
/// its camera leaves or migrates — so heap entries may reference slots
/// whose session is gone; the event loop skips those stale entries.
pub(super) struct Slot {
    pub(super) camera_index: usize,
    pub(super) session: Option<Box<Session>>,
    pub(super) now_s: f64,
    pub(super) recovering: bool,
}

/// One entry of an accelerator's admission queue: either a camera that has
/// not started yet (`session: None`) or a mid-run migrant from a drained
/// accelerator awaiting resumption.
pub(super) struct PendingEntry {
    pub(super) camera_index: usize,
    pub(super) session: Option<Box<Session>>,
    pub(super) recovering: bool,
    /// The drain event's scheduled time, for migrants: the time from there
    /// to resumption counts toward
    /// [`ChurnMetrics::migration_stall_s`](super::ChurnMetrics::migration_stall_s).
    pub(super) drain_at_s: Option<f64>,
}

impl PendingEntry {
    /// A camera that has not run yet.
    pub(super) fn fresh(camera_index: usize) -> Self {
        Self { camera_index, session: None, recovering: false, drain_at_s: None }
    }
}

/// What one accelerator's event loop produced.
#[derive(Default)]
pub(super) struct AccelOutcome {
    /// `(camera index, result)` for every camera that ran here.
    pub(super) results: Vec<(usize, SimResult)>,
    /// Stretch factor of every arbitrated (label/retrain) step.
    pub(super) stretches: Vec<f64>,
    /// Total phases executed (including waits).
    pub(super) steps: usize,
    /// Arbitrated session-seconds executed (the accelerator's busy time).
    pub(super) busy_s: f64,
    /// Cluster time at which the last resident finished.
    pub(super) makespan_s: f64,
    /// Peak event-heap depth.
    pub(super) peak_depth: usize,
    /// Cameras that waited in the admission queue.
    pub(super) queued: usize,
    /// Virtual seconds queued migrants stalled here before resuming.
    pub(super) stall_s: f64,
    /// Edge-tier counters of every session finalised on this accelerator.
    pub(super) edge: EdgeAccum,
}

/// One accelerator's re-entrant virtual-time event loop, advanced in
/// window-bounded increments by [`AccelLoop::run_until`] (state persisting
/// across barriers); an unbounded window runs it to completion in one call.
pub(super) struct AccelLoop<'a> {
    pub(super) accel: usize,
    cameras: &'a [(String, SimConfig)],
    arbiter: Box<dyn arbiter::Arbiter>,
    record_labels: bool,
    /// Resident-session bound (`usize::MAX` when unbounded).
    pub(super) capacity: usize,
    /// Whether this accelerator has been drained by a churn event; drained
    /// loops accept no further work.
    pub(super) drained: bool,
    /// The initial residents, admitted at cluster time 0 when the loop is
    /// first advanced — inside the worker, so session construction is as
    /// parallel as stepping and a loop nobody has advanced yet holds no
    /// sessions. They count as live from the start.
    initial: Vec<usize>,
    pub(super) pending: VecDeque<PendingEntry>,
    pub(super) slots: Vec<Slot>,
    pub(super) heap: BinaryHeap<Reverse<Due>>,
    /// Slot indices of the currently resident (unfinished) sessions, in
    /// admission order; a slot's index doubles as its admission index.
    pub(super) active: Vec<usize>,
    seq: u64,
    pub(super) outcome: AccelOutcome,
    /// `(camera index, batch)` of freshly teacher-labeled samples collected
    /// since the barrier last took them.
    pub(super) exports: Vec<(usize, SampleBlock)>,
    /// The accelerator's one training arena, lent to everything its
    /// residents compute: admission pre-training and every phase, each
    /// executed when its event pops. It grows to the largest batch any
    /// resident evaluates and stays warm from one resident's step to the
    /// next; no session here holds one of its own.
    scratch: TrainScratch,
    /// Reusable peer-summary buffer for arbitration requests, refilled per
    /// arbitrated step instead of allocated.
    residents: Vec<PeerSession>,
    /// The spacing of the window marks an observer samples at
    /// (`k · mark_s`, k ≥ 1): the cluster's window length, whether or not
    /// any barrier runs there.
    mark_s: f64,
    /// `k` of the first window mark this loop has not sampled yet.
    pub(super) next_mark: usize,
    /// `k` of the last finite boundary this loop was advanced to: a barrier
    /// ran there before the loop is advanced again (0 before the first).
    barrier_mark: usize,
}

impl<'a> AccelLoop<'a> {
    /// Creates the loop with its assigned cameras split at the capacity
    /// bound into initial residents and the admission queue, sampling for an
    /// observer every `mark_s` virtual seconds. No session exists until the
    /// loop is first advanced.
    pub(super) fn new(
        accel: usize,
        assigned: &[usize],
        cameras: &'a [(String, SimConfig)],
        arbiter_name: &str,
        capacity: Option<usize>,
        record_labels: bool,
        mark_s: f64,
    ) -> Result<Self> {
        let capacity = capacity.unwrap_or(usize::MAX);
        let (initial, queued) = assigned.split_at(assigned.len().min(capacity));
        Ok(Self {
            accel,
            cameras,
            arbiter: arbiter::create(arbiter_name)?,
            record_labels,
            capacity,
            drained: false,
            initial: initial.to_vec(),
            pending: queued.iter().map(|&index| PendingEntry::fresh(index)).collect(),
            slots: Vec::with_capacity(initial.len()),
            heap: BinaryHeap::new(),
            active: Vec::new(),
            seq: 0,
            outcome: AccelOutcome {
                results: Vec::with_capacity(assigned.len()),
                queued: queued.len(),
                ..AccelOutcome::default()
            },
            exports: Vec::new(),
            scratch: TrainScratch::new(),
            residents: Vec::new(),
            mark_s,
            next_mark: 1,
            barrier_mark: 0,
        })
    }

    /// Whether every assigned session has finished.
    pub(super) fn is_done(&self) -> bool {
        self.heap.is_empty() && self.initial.is_empty()
    }

    /// Number of currently resident (live) sessions.
    pub(super) fn live_count(&self) -> usize {
        self.active.len() + self.initial.len()
    }

    /// Load figure for deterministic placement decisions: live residents
    /// plus queued cameras.
    pub(super) fn load(&self) -> usize {
        self.live_count() + self.pending.len()
    }

    /// Cluster time of this loop's next due event, if any remains.
    pub(super) fn next_due_s(&self) -> Option<f64> {
        if self.initial.is_empty() {
            self.heap.peek().map(|Reverse(due)| due.at)
        } else {
            Some(0.0)
        }
    }

    /// Pops and executes events due strictly before `stop_at_s` (every
    /// remaining event when it is +∞), forwarding each step's burst to the
    /// observer if one is given, and its window samples (see
    /// [`AccelLoop::sample_mark`]). The first call admits the initial
    /// residents; loop state persists, so the next call resumes exactly
    /// where this one stopped.
    pub(super) fn run_until(
        &mut self,
        stop_at_s: f64,
        mut observer: Option<&mut (dyn SimObserver + '_)>,
    ) -> Result<()> {
        for camera_index in std::mem::take(&mut self.initial) {
            self.admit(PendingEntry::fresh(camera_index), 0.0)?;
        }
        if let Some(observer) = observer.as_deref_mut() {
            // The barrier at the last stop has run since: its mark now
            // describes the post-barrier fleet.
            self.sample_mark(self.barrier_mark, observer);
        }
        // A finite window's only mark ahead is the next barrier's, sampled
        // after it ran; the marks the executor jumped over closed windows
        // with no event anywhere, and get no samples, as they get no barrier.
        let unbounded = stop_at_s.is_infinite();
        let cameras = self.cameras;
        while let Some(&Reverse(due)) = self.heap.peek() {
            if due.at >= stop_at_s {
                break;
            }
            if let Some(observer) = observer.as_deref_mut().filter(|_| unbounded) {
                while self.next_mark as f64 * self.mark_s <= due.at {
                    self.sample_mark(self.next_mark, observer);
                }
            }
            self.heap.pop();
            let slot = &mut self.slots[due.slot];
            // A slot without a session is a stale entry: its camera left or
            // migrated away at a churn barrier after the entry was queued.
            // The session steps out of its slot and goes back only if it did
            // not finish.
            let Some(mut session) = slot.session.take() else { continue };
            let camera_index = slot.camera_index;
            let camera_name = &cameras[camera_index].0;
            let uplink_before = session.uplink_meter();
            let events = session
                .step_phase_in(&mut self.scratch)
                .map_err(|e| prefix_camera(camera_name, e))?;

            // A drift response entering this step marks the session as
            // recovering *before* arbitration, so drift-aware arbiters can
            // boost the response itself; the recovery ends once a retraining
            // phase completes (checked after the grant below).
            if events.iter().any(|e| matches!(e, SessionEvent::Drift { .. })) {
                slot.recovering = true;
            }
            let phase = events.iter().rev().find_map(|event| match event {
                SessionEvent::Phase(p) => Some(*p),
                _ => None,
            });

            let session = match phase {
                Some(phase) => {
                    self.outcome.steps += 1;
                    // A cloud-offloaded labeling phase consumed no local
                    // accelerator compute — the uplink already charged its
                    // bytes and latency — so, like a wait, it passes through
                    // unarbitrated and unstretched.
                    let offloaded =
                        phase.kind == PhaseKind::Label && session.last_phase_offloaded();
                    if self.record_labels && phase.kind == PhaseKind::Label {
                        let fresh = session.take_fresh_labels();
                        if !fresh.is_empty() {
                            self.exports.push((camera_index, fresh));
                        }
                    }
                    let arbitrated =
                        !offloaded && matches!(phase.kind, PhaseKind::Label | PhaseKind::Retrain);
                    let stretch = if arbitrated {
                        self.residents.clear();
                        for &slot in &self.active {
                            self.residents.push(PeerSession {
                                camera_index: self.slots[slot].camera_index,
                                admission_index: slot,
                                recovering: self.slots[slot].recovering,
                            });
                        }
                        let share = self.arbiter.grant(&GrantRequest {
                            now_s: due.at,
                            accelerator: self.accel,
                            camera: camera_name,
                            camera_index,
                            admission_index: due.slot,
                            recovering: self.slots[due.slot].recovering,
                            residents: &self.residents,
                        });
                        // A share too small to invert would park the session
                        // at +∞ on the cluster clock, which no window reaches.
                        if !(share > 0.0 && share <= 1.0 && (1.0 / share).is_finite()) {
                            return Err(CoreError::InvalidConfig {
                                reason: format!(
                                    "arbiter '{}' granted an invalid capacity share ({share}) to \
                                     camera '{camera_name}'; shares must lie in (0, 1]",
                                    self.arbiter.name()
                                ),
                            });
                        }
                        self.outcome.busy_s += phase.duration_s;
                        let stretch = 1.0 / share;
                        self.outcome.stretches.push(stretch);
                        stretch
                    } else {
                        // Waits consume no accelerator compute, so they pass
                        // through unstretched and unarbitrated.
                        1.0
                    };
                    let slot = &mut self.slots[due.slot];
                    if phase.kind == PhaseKind::Retrain {
                        slot.recovering = false;
                    }
                    slot.now_s += phase.duration_s * stretch;
                    self.heap.push(Reverse(Due { at: slot.now_s, seq: self.seq, slot: due.slot }));
                    self.seq += 1;
                    self.outcome.peak_depth = self.outcome.peak_depth.max(self.heap.len());
                    Some(session)
                }
                None => {
                    // The session finished (the burst ended with `Finished`,
                    // possibly after trailing accuracy flushes): collect its
                    // result now and drop the session so finished cameras
                    // never accumulate live model state.
                    let at = slot.now_s;
                    let result = session.into_result_with_edge(&mut self.outcome.edge);
                    self.outcome.results.push((camera_index, result));
                    self.active.retain(|&slot| slot != due.slot);
                    self.outcome.makespan_s = self.outcome.makespan_s.max(at);
                    self.start_next_pending(at)?;
                    None
                }
            };
            if let Some(observer) = observer.as_deref_mut() {
                observer.on_step_context(camera_name, camera_index, self.accel);
                let uplink_after = session.as_deref().and_then(Session::uplink_meter);
                let now_s = self.slots[due.slot].now_s;
                report_uplink(observer, camera_name, now_s, uplink_before, uplink_after);
                for event in &events {
                    event.dispatch(observer);
                }
            }
            self.slots[due.slot].session = session;
        }
        if !unbounded {
            self.barrier_mark = (stop_at_s / self.mark_s).round() as usize;
        }
        Ok(())
    }

    /// Hands `observer` this loop's state at window mark `mark`
    /// (`mark · mark_s`): one [`WindowSample`] per resident in admission
    /// order, then one [`AcceleratorSample`] — unless the loop already
    /// sampled this mark or a later one. Unsampled marks before it are
    /// skipped: the loop was idle across them. A loop samples a mark before
    /// it executes its first event at or past it in an unbounded window, or
    /// when it is next advanced after the barrier at the mark ran; the
    /// executor has every loop sample the run's final mark at the end.
    pub(super) fn sample_mark(&mut self, mark: usize, observer: &mut (dyn SimObserver + '_)) {
        if mark < self.next_mark {
            return;
        }
        self.next_mark = mark + 1;
        let (window_index, boundary_s) = (mark - 1, mark as f64 * self.mark_s);
        for &slot in &self.active {
            let Slot { camera_index, session, .. } = &self.slots[slot];
            let Some(session) = session else { continue };
            let now_s = session.now_s();
            let (labels_local, labels_cloud) = session.label_counts();
            // "Fresh" relative to the closing window's span at this
            // camera's own clock (a queued-then-admitted camera may trail
            // the mark).
            let cutoff_s = (now_s - self.mark_s).max(0.0);
            observer.on_window_sample(&WindowSample {
                window_index,
                boundary_s,
                camera: &self.cameras[*camera_index].0,
                camera_index: *camera_index,
                accelerator: self.accel,
                now_s,
                accuracy: session.accuracy_timeline().last().map(|&(_, accuracy)| accuracy),
                buffer_len: session.buffer_len(),
                buffer_fresh_fraction: session.buffer_fresh_fraction(cutoff_s),
                labels_local,
                labels_cloud,
                in_flight_cloud_labels: session.in_flight_cloud_labels(),
            });
        }
        let busy_s = self.outcome.busy_s;
        observer.on_accelerator_sample(&AcceleratorSample {
            window_index,
            boundary_s,
            accelerator: self.accel,
            busy_s,
            utilization: busy_s / boundary_s,
            live_sessions: self.live_count(),
            queued_sessions: self.pending.len(),
            event_depth: self.heap.len(),
            drained: self.drained,
        });
    }

    /// Enters `entry`'s camera into this accelerator's event loop at cluster
    /// time `at`: a camera that has not run yet gets its session built here
    /// (pre-trained in the loop's arena), a migrant resumes the one it
    /// carries — the resumption half of a snapshot migration; a restored
    /// session owns no arena, so it too computes in this loop's from now on. Returns the migrant's stall (drain to
    /// resumption), `0` for everyone else.
    pub(super) fn admit(&mut self, entry: PendingEntry, at: f64) -> Result<f64> {
        let (name, config) = &self.cameras[entry.camera_index];
        let mut session = match entry.session {
            Some(session) => session,
            None => Box::new(
                Session::new_in(config.clone(), &mut self.scratch)
                    .map_err(|e| prefix_camera(name, e))?,
            ),
        };
        session.set_record_labels(self.record_labels);
        self.slots.push(Slot {
            camera_index: entry.camera_index,
            session: Some(session),
            now_s: at,
            recovering: entry.recovering,
        });
        let slot = self.slots.len() - 1;
        self.heap.push(Reverse(Due { at, seq: self.seq, slot }));
        self.active.push(slot);
        self.seq += 1;
        self.outcome.peak_depth = self.outcome.peak_depth.max(self.heap.len());
        Ok(entry.drain_at_s.map_or(0.0, |drain_at_s| (at - drain_at_s).max(0.0)))
    }

    /// Starts the next queued camera (or resumes a queued migrant) at
    /// cluster time `at`, if any is waiting.
    pub(super) fn start_next_pending(&mut self, at: f64) -> Result<()> {
        if let Some(next) = self.pending.pop_front() {
            self.outcome.stall_s += self.admit(next, at)?;
        }
        Ok(())
    }

    /// Finalises the loop into its outcome (call only once drained).
    pub(super) fn into_outcome(mut self) -> AccelOutcome {
        debug_assert!(self.heap.is_empty(), "outcomes are collected only after the loop drained");
        debug_assert!(
            self.active.is_empty(),
            "the event loop drains only when every session finished"
        );
        self.outcome.results.sort_by_key(|(camera_index, _)| *camera_index);
        self.outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedulerKind;
    use crate::sim::test_support::short_config;

    /// Advances one loop of `residents` identical cameras until each has run
    /// about ten of its own seconds — pre-training, labeling, retraining,
    /// validation and measurements all behind it — and returns the loop
    /// arena's size beside the residents' own arenas' sizes.
    fn arena_bytes_after_a_while(residents: usize) -> (usize, Vec<usize>) {
        let cameras: Vec<(String, SimConfig)> = (0..residents)
            .map(|i| (format!("cam-{i}"), short_config(SchedulerKind::DaCapoSpatiotemporal)))
            .collect();
        let assigned: Vec<usize> = (0..residents).collect();
        let mut accel_loop =
            AccelLoop::new(0, &assigned, &cameras, "fair-share", None, false, 60.0).unwrap();
        // Fair share stretches every step by the resident count.
        accel_loop.run_until(10.0 * residents as f64, None).unwrap();
        let sessions = accel_loop.slots.iter().filter_map(|slot| slot.session.as_deref());
        (accel_loop.scratch.capacity_bytes(), sessions.map(Session::own_arena_bytes).collect())
    }

    /// The guard against a per-session buffer coming back: a loop's
    /// training memory is its one arena, whose size is set by the largest
    /// batch any resident computes — not by how many residents there are —
    /// and a resident holds none.
    #[test]
    fn the_loop_arena_does_not_grow_with_the_resident_count_and_residents_own_none() {
        let (few, own_few) = arena_bytes_after_a_while(4);
        let (many, own_many) = arena_bytes_after_a_while(40);
        assert!(few > 0, "the residents computed in the loop's arena");
        assert_eq!(few, many, "ten times the residents, the same arena");
        assert_eq!((own_few.len(), own_many.len()), (4, 40), "nobody finished yet");
        assert!(own_few.iter().chain(&own_many).all(|&bytes| bytes == 0));
    }
}
