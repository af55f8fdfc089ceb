//! The experiments, one module each, and the table that lists them.
//!
//! Each module's `run` is the whole experiment: it builds its rows, renders
//! its tables and shape-check text into a [`Report`](crate::Report), and
//! leaves flags, printing, files and exit codes to the [`driver`](crate::driver).

mod ablation_partition;
mod ablation_precision;
mod cluster_contention;
mod cross_camera;
mod edge_cloud;
mod elastic_churn;
mod energy_comparison;
mod fig02_motivation;
mod fig03_kernel_breakdown;
mod fig08_label_distribution;
mod fig09_end_to_end;
mod fig10_accuracy_over_time;
mod fig11_temporal_allocation;
mod fig12_extreme_scenarios;
mod fleet_scaling;
mod sweep;
mod table03_models;
mod table04_platforms;

use crate::Experiment;

macro_rules! experiments {
    ($($name:ident),* $(,)?) => {
        [$(Experiment { name: stringify!($name), run: $name::run }),*]
    };
}

/// Every experiment, in the order `run_all` runs them. The binaries, `run_all`
/// and the golden test all read this table, and a test holds it equal to the
/// set of `src/bin/` stems and of `tests/fixtures/golden/` files — so an
/// experiment cannot exist without being run and pinned.
pub const EXPERIMENTS: [Experiment; 17] = experiments![
    table03_models,
    table04_platforms,
    fig08_label_distribution,
    fig03_kernel_breakdown,
    fig02_motivation,
    fig09_end_to_end,
    fig10_accuracy_over_time,
    fig11_temporal_allocation,
    fig12_extreme_scenarios,
    energy_comparison,
    ablation_partition,
    ablation_precision,
    fleet_scaling,
    cluster_contention,
    cross_camera,
    elastic_churn,
    edge_cloud,
];
