//! Aggregation helpers for experiment reporting.

/// Geometric mean of a slice of positive values (the aggregate Figure 9 uses
/// across scenarios). Returns 0 for an empty slice.
///
/// Every value is clamped to a `1e-12` floor before taking logs, so zeros,
/// negatives, and NaNs all contribute the floor instead of poisoning the
/// result — `geometric_mean(&[f64::NAN])` is `1e-12`, not NaN.
///
/// # Examples
///
/// ```
/// use dacapo_core::metrics::geometric_mean;
///
/// let g = geometric_mean(&[0.5, 0.5, 0.5]);
/// assert!((g - 0.5).abs() < 1e-12);
/// ```
#[must_use]
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean of a slice. Returns 0 for an empty slice; a NaN anywhere
/// in the slice propagates to the result (standard IEEE summation).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Nearest-rank percentile of a slice (`pct` in `[0, 100]`), used by the
/// fleet and cluster aggregates. Returns 0 for an empty slice.
///
/// Values are ranked by IEEE total order ([`f64::total_cmp`]), so
/// NaN-bearing slices never panic: positive NaNs rank above `+∞` (and
/// negative NaNs below `-∞`), which means a NaN only surfaces for
/// percentiles that land on the NaN tail — `percentile(&[1.0, NAN], 50.0)`
/// is `1.0`, while `percentile(&[1.0, NAN], 100.0)` is NaN. A caller wanting
/// several ranks of one slice asks [`percentiles`] once.
///
/// # Panics
///
/// Panics if `pct` is outside `[0, 100]`.
#[must_use]
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let [value] = percentiles(values, [pct]);
    value
}

/// [`percentile`] at each of `pcts`, from one copy of `values` and one
/// selection per rank instead of a sort per call. Ranks are selected from
/// the highest down, each in the prefix the previous selection left below
/// it. Values equal under total order are the same bits, so the result is
/// bit for bit what sorting would pick.
///
/// # Panics
///
/// Panics if a percentile is outside `[0, 100]`.
#[must_use]
pub fn percentiles<const N: usize>(values: &[f64], pcts: [f64; N]) -> [f64; N] {
    for pct in pcts {
        assert!((0.0..=100.0).contains(&pct), "percentile {pct} out of range");
    }
    if values.is_empty() {
        return [0.0; N];
    }
    let len = values.len();
    let ranks = pcts
        .map(|pct| (((pct / 100.0) * len as f64).ceil() as usize).saturating_sub(1).min(len - 1));
    let mut order: [usize; N] = std::array::from_fn(|i| i);
    order.sort_by_key(|&i| std::cmp::Reverse(ranks[i]));
    let mut scratch = values.to_vec();
    let mut end = len;
    let mut picked = [0.0; N];
    for i in order {
        picked[i] = *scratch[..end].select_nth_unstable_by(ranks[i], f64::total_cmp).1;
        end = ranks[i] + 1;
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[0.7]) - 0.7).abs() < 1e-12);
        // gmean <= arithmetic mean.
        let values = [0.6, 0.9, 0.75];
        assert!(geometric_mean(&values) <= mean(&values));
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        let values = [0.9, 0.1, 0.5, 0.3, 0.7];
        assert_eq!(percentile(&values, 0.0), 0.1);
        assert_eq!(percentile(&values, 50.0), 0.5);
        assert_eq!(percentile(&values, 10.0), 0.1);
        assert_eq!(percentile(&values, 100.0), 0.9);
    }

    #[test]
    fn percentile_ranks_nans_on_the_tail_without_panicking() {
        let values = [1.0, f64::NAN, 0.5];
        // NaN ranks above every real number, so mid percentiles stay real…
        assert_eq!(percentile(&values, 50.0), 1.0);
        assert_eq!(percentile(&values, 0.0), 0.5);
        // …and only the NaN tail surfaces it.
        assert!(percentile(&values, 100.0).is_nan());
        assert!(percentile(&[f64::NAN], 50.0).is_nan());
        // Negative NaNs rank below every real number.
        assert_eq!(percentile(&[f64::NAN.copysign(-1.0), 2.0], 100.0), 2.0);
    }

    /// The definition `percentiles` must reproduce: sort a copy, index it.
    fn sorted_percentile(values: &[f64], pct: f64) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
    }

    proptest::proptest! {
        /// One selection per rank picks the bits the sort-based definition
        /// picks — on random slices, duplicate-heavy ones, ±0 and ±NaN.
        #[test]
        fn percentiles_pick_what_sorting_picks(
            picks in proptest::collection::vec((0usize..10, -1e3f64..1e3), 0..80),
            pcts in proptest::collection::vec(0.0f64..100.0, 1..4),
        ) {
            const MENU: [f64; 8] =
                [0.0, -0.0, f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0, 1.0];
            let values: Vec<f64> = picks
                .iter()
                .map(|&(pick, random)| MENU.get(pick).copied().unwrap_or(random))
                .collect();
            let edges = [pcts[0], 0.0, 50.0, 99.0, 100.0, pcts[pcts.len() - 1]];
            let fast = percentiles(&values, edges);
            for (pct, fast) in edges.into_iter().zip(fast) {
                proptest::prop_assert_eq!(fast.to_bits(), sorted_percentile(&values, pct).to_bits());
                proptest::prop_assert_eq!(
                    percentile(&values, pct).to_bits(),
                    sorted_percentile(&values, pct).to_bits()
                );
            }
        }
    }

    #[test]
    fn empty_and_nan_edge_behavior_of_the_means() {
        assert_eq!(mean(&[]), 0.0);
        assert!(mean(&[1.0, f64::NAN]).is_nan(), "mean propagates NaN");
        assert_eq!(geometric_mean(&[]), 0.0);
        // The gmean clamps NaNs (and zeros, and negatives) to its 1e-12
        // floor instead of poisoning the aggregate.
        assert!((geometric_mean(&[f64::NAN]) - 1e-12).abs() < 1e-24);
        assert!(geometric_mean(&[0.8, f64::NAN]).is_finite());
        assert!((geometric_mean(&[0.0, 4.0]) - (1e-12f64 * 4.0).sqrt()).abs() < 1e-12);
    }
}
