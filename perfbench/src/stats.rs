//! Order statistics used by every report.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it, so a tail figure never rests on one or two events.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` in `(0, 100]` of `sorted` (ascending).
///
/// Returns `None` — refuses to report — when fewer than [`MIN_BEYOND`]
/// samples lie beyond the chosen rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    // The epsilon keeps `0.99 * 1000` from rounding up to rank 991.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Smallest sample count for which [`percentile`] reports `p`.
pub fn samples_needed(p: f64) -> usize {
    (1..10_000_000)
        .find(|&n| percentile(&vec![0.0; n], p).is_some())
        .unwrap_or(usize::MAX)
}

/// Sorts ascending (NaN-free input assumed; NaNs sort last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median (mean of the middle pair for even counts); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let s = sorted(values.to_vec());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Arithmetic mean; `0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or `0` when the denominator is zero (a layer that did no
/// work reports no work, not NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
