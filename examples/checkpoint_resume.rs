//! Checkpointable sessions and elastic cluster membership: snapshot a
//! running session to versioned JSON, restore it bit-identically (even with
//! a custom *stateful* scheduler, whose state rides along through the
//! `Scheduler::state` / `restore_state` hooks), then run a cluster whose
//! membership churns — a camera joins mid-run, another leaves, and an
//! accelerator drains, snapshot-migrating its residents to the survivors.
//!
//! ```text
//! cargo run --release --example checkpoint_resume
//! ```

use dacapo_core::sched::{self, Action, Scheduler, SchedulerContext};
use dacapo_core::{
    ChurnPlan, Cluster, CoreError, Hyperparams, Session, SessionSnapshot, SimConfig,
};
use dacapo_datagen::Scenario;
use dacapo_dnn::zoo::ModelPair;
use serde::{Deserialize, Serialize, Value};

/// A scheduling policy `dacapo-core` knows nothing about, with real mutable
/// state: it labels for a fixed number of phases, then retrains once, with
/// the cadence *doubling* after every drift-free cycle. Without the
/// `state()` / `restore_state()` hooks a snapshot could not capture where
/// in the cadence the policy stands.
struct Cadence {
    hyper: Hyperparams,
    state: CadenceState,
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct CadenceState {
    labels_until_retrain: usize,
    cadence: usize,
}

impl Scheduler for Cadence {
    fn name(&self) -> String {
        "Cadence".to_string()
    }

    fn next_action(&mut self, ctx: &SchedulerContext) -> Action {
        if self.state.labels_until_retrain == 0 || ctx.buffer_len < self.hyper.batch_size * 2 {
            if ctx.buffer_len < self.hyper.batch_size * 2 {
                return Action::Label { samples: self.hyper.label_samples, reset_buffer: false };
            }
            self.state.cadence = (self.state.cadence * 2).min(8);
            self.state.labels_until_retrain = self.state.cadence;
            return Action::Retrain { samples: self.hyper.retrain_samples, epochs: 2 };
        }
        self.state.labels_until_retrain -= 1;
        Action::Label { samples: self.hyper.label_samples, reset_buffer: false }
    }

    fn state(&self) -> Value {
        self.state.to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), CoreError> {
        self.state = CadenceState::from_value(state).map_err(|e| CoreError::InvalidConfig {
            reason: format!("cadence state does not parse: {e}"),
        })?;
        Ok(())
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    sched::register("cadence", |hyper: &Hyperparams| {
        Box::new(Cadence {
            hyper: *hyper,
            state: CadenceState { labels_until_retrain: 1, cadence: 1 },
        })
    });

    // --- Part 1: checkpoint a mid-run session to JSON and resume it. ---
    let config = SimConfig::builder(Scenario::es1(), ModelPair::ResNet18Wrn50)
        .scheduler("cadence")
        .measurement(15.0, 15)
        .pretrain_samples(96)
        .build()?;

    let mut uninterrupted = Session::new(config.clone())?;
    uninterrupted.run_to_end()?;
    let expected = uninterrupted.into_result();

    let mut session = Session::new(config)?;
    while session.progress() < 0.4 {
        session.step()?;
    }
    let snapshot = session.snapshot();
    let json = snapshot.to_json();
    println!(
        "checkpointed at {:.0} s / {:.0} s ({} bytes of JSON, format v{})",
        session.now_s(),
        session.duration_s(),
        json.len(),
        snapshot.version,
    );
    drop(session); // e.g. the process restarts here

    let mut restored = Session::restore(SessionSnapshot::from_json(&json)?)?;
    restored.run_to_end()?;
    let resumed = restored.into_result();
    assert_eq!(resumed, expected, "restore must be bit-identical");
    println!(
        "resumed -> mean accuracy {:.1}% — bit-identical to the uninterrupted run\n",
        resumed.mean_accuracy * 100.0,
    );

    // --- Part 2: a cluster whose membership churns mid-run. ---
    let camera = |seed: u64| {
        SimConfig::builder(Scenario::s3(), ModelPair::ResNet18Wrn50).seed(0xE1A5 + seed).build()
    };
    let plan = ChurnPlan::new()
        .join(240.0, "reinforcement", camera(100)?)
        .leave(600.0, "cam-1")
        .drain(480.0, 1);
    let mut cluster = Cluster::new(2).churn(plan);
    for i in 0..4u64 {
        cluster = cluster.camera(format!("cam-{i}"), camera(i)?);
    }
    let result = cluster.run()?;
    println!(
        "elastic cluster: {} joins, {} leaves, {} drain(s), {} migration(s) \
         ({:.0} s total stall), peak residency {}",
        result.churn.joins,
        result.churn.leaves,
        result.churn.drains,
        result.churn.migrations,
        result.churn.migration_stall_s,
        result.churn.peak_residency,
    );
    for camera in &result.fleet.cameras {
        println!(
            "  {:>14}: {:>5.1}% over {:>4.0} s",
            camera.camera,
            camera.result.mean_accuracy * 100.0,
            camera.result.duration_s,
        );
    }
    let departed = result.camera("cam-1").expect("partial result present");
    assert!(departed.duration_s < Scenario::s3().duration_s());
    assert!(result.churn.migrations >= 1, "the drain must migrate someone");
    println!("\ncam-1 left mid-run and reports its executed prefix only — no data lost.");
    Ok(())
}
