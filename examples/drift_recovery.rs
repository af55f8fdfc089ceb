//! Drift recovery walkthrough: build a custom two-segment scenario with one
//! hard data drift, run DaCapo-Spatiotemporal and DaCapo-Spatial side by
//! side, and print the accuracy timeline around the drift so the different
//! recovery speeds are visible (the mechanism behind Figure 10's drift
//! cases).
//!
//! ```text
//! cargo run --release --example drift_recovery
//! ```

use dacapo_core::{PlatformKind, SchedulerKind, Session, SimConfig, SimObserver, SimResult};
use dacapo_datagen::{
    LabelDistribution, Location, Scenario, Segment, SegmentAttributes, TimeOfDay,
};
use dacapo_dnn::zoo::ModelPair;

/// Observer narrating drift responses as the session executes them.
struct DriftNarrator {
    scheduler: SchedulerKind,
}

impl SimObserver for DriftNarrator {
    fn on_drift(&mut self, at_s: f64, response_index: usize) {
        println!("  [{}] drift response #{response_index} at t = {at_s:.0} s", self.scheduler);
    }
}

fn run(
    scenario: &Scenario,
    scheduler: SchedulerKind,
) -> Result<SimResult, Box<dyn std::error::Error>> {
    let config = SimConfig::builder(scenario.clone(), ModelPair::ResNet18Wrn50)
        .platform(PlatformKind::DaCapo)
        .scheduler(scheduler)
        .measurement(5.0, 30)
        .build()?;
    let mut session = Session::new(config)?;
    session.run_with(&mut DriftNarrator { scheduler })?;
    Ok(session.into_result())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two minutes of daytime city driving with traffic-only labels, then a
    // compound drift: night, highway, and the full label set all at once.
    let calm = SegmentAttributes::default();
    let drifted = SegmentAttributes {
        labels: LabelDistribution::All,
        time: TimeOfDay::Night,
        location: Location::Highway,
        ..calm
    };
    let scenario = Scenario::try_from_segments(
        "drift-demo",
        vec![
            Segment { attributes: calm, duration_s: 120.0 },
            Segment { attributes: drifted, duration_s: 120.0 },
        ],
    )?;
    println!("drift occurs at t = 120 s ({} -> {})\n", calm, drifted);

    let spatiotemporal = run(&scenario, SchedulerKind::DaCapoSpatiotemporal)?;
    let spatial = run(&scenario, SchedulerKind::DaCapoSpatial)?;

    println!("{:>8}  {:>22}  {:>16}", "time", "DaCapo-Spatiotemporal", "DaCapo-Spatial");
    for ((t, st), (_, sp)) in
        spatiotemporal.windowed_accuracy(15.0).iter().zip(spatial.windowed_accuracy(15.0).iter())
    {
        let marker = if (*t - 135.0).abs() < 7.5 { "  <- drift" } else { "" };
        println!("{t:>7.0}s  {:>21.1}%  {:>15.1}%{marker}", st * 100.0, sp * 100.0);
    }

    println!(
        "\nspatiotemporal detected {} drift(s) and finished at {:.1}% mean accuracy; \
         spatial-only finished at {:.1}%",
        spatiotemporal.drift_responses,
        spatiotemporal.mean_accuracy * 100.0,
        spatial.mean_accuracy * 100.0
    );
    Ok(())
}
