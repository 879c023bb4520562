use tie_loadbench::stats::{calmest, percentile, poisson_arrivals, quartiles, tail};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn tail_reports_the_highest_percentile_with_ten_samples_beyond() {
    let t = tail(&ramp(1000));
    assert_eq!(t.count, 1000);
    assert_eq!(t.p50, 500.0);
    assert_eq!(t.percentile, Some(99.0));
    assert_eq!(t.value, 990.0);

    // One sample short of ten beyond p99: fall back to p90.
    let t = tail(&ramp(999));
    assert_eq!((t.count, t.percentile), (999, Some(90.0)));

    let t = tail(&ramp(10_000));
    assert_eq!((t.percentile, t.value), (Some(99.9), 9990.0));

    assert_eq!(tail(&ramp(20)).percentile, Some(50.0));
    let t = tail(&ramp(19));
    assert_eq!((t.count, t.percentile), (19, None));
    assert!(t.value.is_nan());
}

#[test]
fn tail_ignores_input_order() {
    let mut v = ramp(1000);
    v.reverse();
    assert_eq!(tail(&v), tail(&ramp(1000)));
}

#[test]
fn percentile_is_nearest_rank() {
    let v = ramp(10);
    assert_eq!(percentile(&v, 50.0), 5.0);
    assert_eq!(percentile(&v, 90.0), 9.0);
    assert_eq!(percentile(&v, 100.0), 10.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
}

#[test]
fn poisson_schedule_is_seeded_and_on_rate() {
    let a = poisson_arrivals(7, 1000.0, 100.0);
    assert_eq!(a, poisson_arrivals(7, 1000.0, 100.0));
    assert_ne!(a, poisson_arrivals(8, 1000.0, 100.0));
    assert!(
        a.len() >= 95_000,
        "expected about 1e5 arrivals, got {}",
        a.len()
    );
    let rate = a.len() as f64 / 100.0;
    assert!((rate / 1000.0 - 1.0).abs() < 0.02, "rate {rate}");
    assert!(a.windows(2).all(|w| w[0] < w[1]));
    assert!(a.iter().all(|&t| (0.0..100.0).contains(&t)));
}

#[test]
fn calmest_marks_the_least_disturbed_windows() {
    let (t, f) = (true, false);
    assert_eq!(
        calmest(&[0.0, 0.01, 0.1, 0.02, 0.3], 3),
        vec![t, t, f, t, f]
    );
    // Earlier first among equals.
    assert_eq!(calmest(&[0.5, 0.5, 0.5, 0.5], 2), vec![t, t, f, f]);
    assert_eq!(
        calmest(&[0.2, 0.05, 0.3, 0.05, 0.01], 3),
        vec![f, t, f, t, t]
    );
    // No more windows than asked for: all of them.
    assert_eq!(calmest(&[0.9, 0.1], 2), vec![t, t]);
    assert_eq!(calmest(&[0.9], 3), vec![t]);
    assert!(calmest(&[], 1).is_empty());
}
