//! Tier sizing shared by the experiments.
//!
//! Every sweep runs at one of three sizes — the CI `--smoke` tier,
//! the `--quick` tier, and the full sweep — and used to re-implement the
//! same `if smoke { .. } else if quick { .. } else { .. }` chain. [`tier`]
//! is that chain, written once.

use crate::ExperimentOptions;

/// Picks the value matching the tier the options select: `smoke` wins over
/// `quick` (mirroring [`ExperimentOptions::from_iter`], where `--smoke`
/// implies `quick`), and the full configuration is the default.
///
/// # Examples
///
/// ```
/// use dacapo_bench::{cli, ExperimentOptions};
///
/// let options = ExperimentOptions::from_iter(["--smoke".to_string()]).unwrap();
/// let (cameras, accelerators) = cli::tier(&options, (4, 2), (6, 2), (12, 3));
/// assert_eq!((cameras, accelerators), (4, 2));
/// ```
pub fn tier<T>(options: &ExperimentOptions, smoke: T, quick: T, full: T) -> T {
    if options.smoke {
        smoke
    } else if options.quick {
        quick
    } else {
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(args: &[&str]) -> ExperimentOptions {
        ExperimentOptions::from_iter(args.iter().map(|s| (*s).to_string())).unwrap()
    }

    #[test]
    fn tier_selects_by_flag_with_smoke_winning() {
        assert_eq!(tier(&options(&[]), 1, 2, 3), 3);
        assert_eq!(tier(&options(&["--quick"]), 1, 2, 3), 2);
        assert_eq!(tier(&options(&["--smoke"]), 1, 2, 3), 1);
        // --smoke implies --quick; the smoke tier still wins.
        assert_eq!(tier(&options(&["--quick", "--smoke"]), 1, 2, 3), 1);
    }

    #[test]
    fn tier_carries_arbitrary_tuple_payloads() {
        let slices: &[f64] = tier(&options(&["--quick"]), &[1.0], &[1.0, 0.2], &[1.0, 0.6, 0.2]);
        assert_eq!(slices, &[1.0, 0.2]);
        assert_eq!(tier(&options(&[]), (6, 2, 1), (16, 2, 2), (60, 4, 3)), (60, 4, 3));
    }
}
