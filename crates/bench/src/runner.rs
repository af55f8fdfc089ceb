//! Shared experiment runner: builds and runs one (scenario, pair, platform,
//! scheduler) simulation with consistent settings across all figures.
//!
//! Experiments execute on the re-entrant [`Session`] engine;
//! [`run_system_with`] additionally taps the event stream through a
//! [`SimObserver`] so figure binaries can collect mid-run metrics without
//! re-running simulations.

use dacapo_core::{Result, SchedulerKind, Session, SimConfig, SimObserver, SimResult};
use dacapo_datagen::Scenario;
use dacapo_dnn::zoo::ModelPair;

/// One system configuration of the paper's evaluation matrix: a hardware
/// platform plus a temporal-allocation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystemUnderTest {
    /// Short label used in tables (matches Figure 9's legend).
    pub label: &'static str,
    /// Hardware platform, as a registered platform-registry name (see
    /// `dacapo_core::platform::registered_names`) — builtin kinds go by
    /// their lower-cased display names, and custom or parameterised
    /// platforms (`"scaled-dacapo:32"`) work the same way.
    pub platform: &'static str,
    /// Scheduling policy.
    pub scheduler: SchedulerKind,
}

/// The six systems compared in Figure 9, in the paper's order.
pub const FIG9_SYSTEMS: [SystemUnderTest; 6] = [
    SystemUnderTest { label: "OrinLow-Ekya", platform: "orin-low", scheduler: SchedulerKind::Ekya },
    SystemUnderTest {
        label: "OrinHigh-Ekya",
        platform: "orin-high",
        scheduler: SchedulerKind::Ekya,
    },
    SystemUnderTest {
        label: "OrinHigh-EOMU",
        platform: "orin-high",
        scheduler: SchedulerKind::Eomu,
    },
    SystemUnderTest { label: "DaCapo-Ekya", platform: "dacapo", scheduler: SchedulerKind::Ekya },
    SystemUnderTest {
        label: "DaCapo-Spatial",
        platform: "dacapo",
        scheduler: SchedulerKind::DaCapoSpatial,
    },
    SystemUnderTest {
        label: "DaCapo-Spatiotemporal",
        platform: "dacapo",
        scheduler: SchedulerKind::DaCapoSpatiotemporal,
    },
];

/// Truncates a scenario to its first `segments` segments (used by `--quick`).
#[must_use]
pub fn truncate_scenario(scenario: &Scenario, segments: usize) -> Scenario {
    let kept: Vec<_> = scenario.segments().iter().copied().take(segments.max(1)).collect();
    Scenario::try_from_segments(scenario.name().to_string(), kept)
        .expect("truncation keeps at least one positive-duration segment")
}

/// Builds the simulation configuration used by every figure-level experiment.
///
/// # Errors
///
/// Propagates configuration and spatial-allocation errors.
pub fn experiment_config(
    scenario: Scenario,
    pair: ModelPair,
    system: SystemUnderTest,
    quick: bool,
) -> Result<SimConfig> {
    let scenario = if quick { truncate_scenario(&scenario, 5) } else { scenario };
    let mut builder = SimConfig::builder(scenario, pair)
        .platform(system.platform)
        .scheduler(system.scheduler)
        .seed(0xDACA90);
    if quick {
        builder = builder.measurement(10.0, 20).pretrain_samples(128);
    }
    builder.build()
}

/// Runs one system on one scenario.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_system(
    scenario: Scenario,
    pair: ModelPair,
    system: SystemUnderTest,
    quick: bool,
) -> Result<SimResult> {
    run_system_with(scenario, pair, system, quick, &mut ())
}

/// Runs one system on one scenario, forwarding every session event
/// (phases, drift responses, accuracy samples) to `observer`.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_system_with(
    scenario: Scenario,
    pair: ModelPair,
    system: SystemUnderTest,
    quick: bool,
    observer: &mut dyn SimObserver,
) -> Result<SimResult> {
    let config = experiment_config(scenario, pair, system, quick)?;
    let mut session = Session::new(config)?;
    session.run_with(observer)?;
    Ok(session.into_result())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_matrix_matches_paper_legend() {
        assert_eq!(FIG9_SYSTEMS.len(), 6);
        assert_eq!(FIG9_SYSTEMS[0].label, "OrinLow-Ekya");
        assert_eq!(FIG9_SYSTEMS[5].label, "DaCapo-Spatiotemporal");
        assert!(FIG9_SYSTEMS.iter().filter(|s| s.platform == "dacapo").count() == 3);
        // Every system names a registered platform.
        for system in FIG9_SYSTEMS {
            assert!(
                dacapo_core::platform::registered_names()
                    .contains(&dacapo_core::registry::split_params(system.platform).0.to_string()),
                "{} names unregistered platform '{}'",
                system.label,
                system.platform
            );
        }
    }

    #[test]
    fn truncation_preserves_name_and_segment_prefix() {
        let full = Scenario::s1();
        let short = truncate_scenario(&full, 3);
        assert_eq!(short.name(), "S1");
        assert_eq!(short.segments().len(), 3);
        assert_eq!(short.segments(), &full.segments()[..3]);
    }

    #[test]
    fn quick_experiment_runs_end_to_end() {
        let result =
            run_system(Scenario::s1(), ModelPair::ResNet18Wrn50, FIG9_SYSTEMS[5], true).unwrap();
        assert!(result.mean_accuracy > 0.2);
        assert_eq!(result.scenario, "S1");
    }

    #[test]
    fn observed_runs_match_unobserved_runs_exactly() {
        #[derive(Default)]
        struct Tap {
            phases: usize,
            accuracy_samples: usize,
        }
        impl dacapo_core::SimObserver for Tap {
            fn on_phase(&mut self, _phase: &dacapo_core::PhaseRecord) {
                self.phases += 1;
            }
            fn on_accuracy(&mut self, _at_s: f64, _accuracy: f64) {
                self.accuracy_samples += 1;
            }
        }

        let mut tap = Tap::default();
        let observed = run_system_with(
            Scenario::s1(),
            ModelPair::ResNet18Wrn50,
            FIG9_SYSTEMS[5],
            true,
            &mut tap,
        )
        .unwrap();
        let plain =
            run_system(Scenario::s1(), ModelPair::ResNet18Wrn50, FIG9_SYSTEMS[5], true).unwrap();
        assert_eq!(observed, plain, "observation must not perturb the run");
        assert_eq!(tap.phases, observed.phases.len());
        assert_eq!(tap.accuracy_samples, observed.accuracy_timeline.len());
    }
}
