//! Nearest-rank percentiles refuse to report without ten samples beyond.

use perfbench::stats::{median, percentile, samples_needed, MIN_BEYOND};

#[test]
fn p99_needs_a_thousand_samples() {
    let values: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&values, 99.0), Some(990.0));
    assert_eq!(percentile(&values[..999], 99.0), None);
    assert_eq!(samples_needed(99.0), 1000);
}

#[test]
fn every_reported_percentile_has_ten_samples_beyond_it() {
    for n in 1..400usize {
        let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        for p in [50.0, 90.0, 95.0, 99.0] {
            match percentile(&values, p) {
                Some(v) => {
                    let beyond = values.iter().filter(|&&x| x > v).count();
                    assert!(beyond >= MIN_BEYOND, "n {n} p{p}: {beyond} beyond");
                    let rank = (p / 100.0 * n as f64).ceil() as usize;
                    assert_eq!(v, values[rank - 1], "nearest rank, n {n} p{p}");
                }
                None => assert!(n - ((p / 100.0 * n as f64).ceil() as usize) < MIN_BEYOND),
            }
        }
    }
}

#[test]
fn the_median_needs_twenty_samples_and_empty_input_reports_nothing() {
    let values: Vec<f64> = (0..19).map(f64::from).collect();
    assert_eq!(percentile(&values, 50.0), None);
    let values: Vec<f64> = (0..20).map(f64::from).collect();
    assert_eq!(percentile(&values, 50.0), Some(9.0));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
}
