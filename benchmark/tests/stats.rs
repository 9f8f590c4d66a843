//! The order statistics the reports rest on.

use rpi_benchmark::stats::{
    beyond, median, percentile, quartiles, spread, supported_percentile, MIN_BEYOND,
};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_rule_needs_ten_samples_beyond() {
    // Fewer than 20 samples cannot even support a median.
    assert_eq!(supported_percentile(0), None);
    assert_eq!(supported_percentile(19), None);
    assert_eq!(supported_percentile(20), Some(50.0));
    // p90 needs 100 samples, p99 1,000, p99.9 10,000 — one fewer and the
    // rule falls back a rung.
    assert_eq!(supported_percentile(99), Some(50.0));
    assert_eq!(supported_percentile(100), Some(90.0));
    assert_eq!(supported_percentile(999), Some(90.0));
    assert_eq!(supported_percentile(1_000), Some(99.0));
    assert_eq!(supported_percentile(9_999), Some(99.0));
    assert_eq!(supported_percentile(10_000), Some(99.9));
    for n in [20, 100, 1_000, 10_000, 123_456] {
        let p = supported_percentile(n).unwrap();
        assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
    }
}

#[test]
fn beyond_counts_samples_strictly_above_the_rank() {
    let v = ramp(100);
    let p90 = percentile(&v, 90.0);
    assert_eq!(p90, 90.0);
    assert_eq!(v.iter().filter(|&&x| x > p90).count(), beyond(100, 90.0));
    assert_eq!(beyond(1_000, 99.0), 10);
    assert_eq!(beyond(1, 50.0), 0);
}

#[test]
fn percentile_is_nearest_rank_on_unsorted_input() {
    let v = [5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(percentile(&v, 50.0), 3.0);
    assert_eq!(percentile(&v, 90.0), 5.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert_eq!(median(&v), 3.0);
    assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
    // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
    assert_eq!(quartiles(&ramp(4)), (1.25, 3.75));
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
}

#[test]
fn spread_is_the_interquartile_distance_over_the_median() {
    assert_eq!(spread(&ramp(10)), 5.5 / 5.5);
    assert_eq!(spread(&[7.0, 7.0, 7.0]), 0.0);
    assert_eq!(spread(&[7.0]), 0.0, "one run has no spread to speak of");
}
