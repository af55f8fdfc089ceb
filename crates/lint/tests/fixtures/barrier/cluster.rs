//! Barrier-discipline fixture: a miniature executor with a clean
//! barrier path, a sink call in the parallel loop, a barrier fn the
//! loop can reach, and a stale annotation.

struct Camera;

impl Camera {
    fn take_exports(&mut self) {}
    fn admit_samples(&mut self) {}
}

// lint: barrier-only(labels cross cameras only between windows)
fn exchange_window(camera: &mut Camera) {
    camera.take_exports();
    camera.admit_samples();
}

fn run_windows(camera: &mut Camera) {
    run_until(camera);
    exchange_window(camera);
}

fn run_until(camera: &mut Camera) {
    step(camera);
    helper(camera);
}

fn step(camera: &mut Camera) {
    camera.take_exports();
}

fn sneaky(camera: &mut Camera) {
    exchange_window(camera);
}

// lint: barrier-only(reachable from the loop — the rule must object)
fn racy_share(camera: &mut Camera) {
    camera.admit_samples();
}

fn helper(camera: &mut Camera) {
    racy_share(camera);
}

// lint: barrier-only(stale — nothing follows but a struct)
struct Dangling;
