//! Exhaustiveness fixture: a miniature event enum, its dispatch fn, and
//! the observer impl the rule holds to full coverage.

/// The fixture's event alphabet.
pub enum SessionEvent {
    /// A phase change.
    Phase,
    /// A drift detection.
    Drift,
    /// End of session.
    Finished,
}

pub trait SimObserver {
    fn on_event(&mut self, _event: &SessionEvent) {}
    fn on_phase(&mut self) {}
    fn on_drift(&mut self) {}
}

fn dispatch(observer: &mut dyn SimObserver, event: &SessionEvent) {
    observer.on_event(event);
    match event {
        SessionEvent::Phase => observer.on_phase(),
        SessionEvent::Drift => observer.on_drift(),
        _ => {}
    }
}

pub struct TelemetryRecorder;

impl SimObserver for TelemetryRecorder {
    fn on_event(&mut self, _event: &SessionEvent) {}
    fn on_phase(&mut self) {}
}

pub struct Replay;

impl Replay {
    fn dispatch(&self, event: &SessionEvent) { // lint: allow(exhaustiveness) — fixture: deliberately partial replay
        if let SessionEvent::Phase = event {}
    }
}
