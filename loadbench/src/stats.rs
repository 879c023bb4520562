//! Sample statistics and the seeded arrival schedule.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Percentiles a tail report may use, highest last.
const TAIL_PERCENTILES: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// A timing sample summarised as its median and the highest percentile
/// that still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Number of samples.
    pub count: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// The tail percentile reported (`None` when fewer than 20 samples).
    pub percentile: Option<f64>,
    /// Its value (`NaN` when `percentile` is `None`).
    pub value: f64,
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted` samples.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps decimal percentiles such as 99.9 from rounding up a rank.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Nearest-rank percentile `p` of an unsorted sample (`NaN` when empty).
#[must_use]
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// Median of an unsorted sample (nearest rank; `NaN` when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile_of(values, 50.0)
}

/// Summarises a sample: its median and the highest percentile with at
/// least ten samples beyond it.
#[must_use]
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p50 = if n == 0 {
        f64::NAN
    } else {
        percentile(&v, 50.0)
    };
    let chosen = TAIL_PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && n - rank(p, n) >= 10);
    Tail {
        count: n,
        p50,
        percentile: chosen,
        value: chosen.map_or(f64::NAN, |p| percentile(&v, p)),
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so the spreads printed here are the ones Python reports.
///
/// # Panics
///
/// Panics with fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let ld = values.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let (n, m) = (4, ld + 1);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        // May be negative once `j` is clamped up, as in Python.
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// Marks the `k` entries of `steal` with the least steal (earlier first
/// among equals); every entry when there are no more than `k`.
#[must_use]
pub fn calmest(steal: &[f64], k: usize) -> Vec<bool> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let mut calm = vec![false; steal.len()];
    for &i in order.iter().take(k) {
        calm[i] = true;
    }
    calm
}

/// Seeded Poisson arrival times (seconds from the phase start) at `rate`
/// per second over `seconds`. The same seed always yields the same
/// schedule.
#[must_use]
pub fn poisson_arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        // 1 - U lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}
