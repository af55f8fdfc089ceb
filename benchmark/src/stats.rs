//! Order statistics over small samples.

/// The `q`-quantile (`0..=1`) by linear interpolation between order
/// statistics. `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = position.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (position - below as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile range as a percentage of the median.
pub fn spread_pct(values: &[f64]) -> f64 {
    100.0 * (quantile(values, 0.75) - quantile(values, 0.25)) / median(values)
}

/// How much slower `run_s` is than `base_s`, in percent.
pub fn overhead_pct(run_s: f64, base_s: f64) -> f64 {
    100.0 * (run_s / base_s - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(quantile(&values, 0.25), 1.75);
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn spread_and_overhead_are_relative() {
        assert!((spread_pct(&[90.0, 100.0, 110.0]) - 10.0).abs() < 1e-12);
        assert!((overhead_pct(1.3, 1.0) - 30.0).abs() < 1e-12);
    }
}
