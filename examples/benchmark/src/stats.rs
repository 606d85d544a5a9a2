//! Order statistics: nearest-rank percentiles, the median-of-windows rule
//! and Python-compatible quartiles.

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample;
/// `None` when empty.
pub fn percentile(values: &mut [u64], q: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    let rank = (q * values.len() as f64).ceil() as usize;
    Some(values[rank.clamp(1, values.len()) - 1])
}

/// Median of a small sample of floats (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Splits `(time_ns, value)` samples of a phase `[0, span_ns)` into
/// `windows` equal windows by time and returns each window's values.
/// Samples at or past `span_ns` are dropped.
pub fn split_windows(samples: &[(u64, u64)], span_ns: u64, windows: usize) -> Vec<Vec<u64>> {
    let mut out = vec![Vec::new(); windows];
    for &(t, v) in samples {
        if t < span_ns {
            let w = (u128::from(t) * windows as u128 / u128::from(span_ns)) as usize;
            out[w].push(v);
        }
    }
    out
}

/// The median over windows (every round's windows) of each window's
/// `q`-percentile: one stall moves at most one window's statistic, not the
/// reported value.
pub fn median_of_window_percentiles(windows: &mut [Vec<u64>], q: f64) -> f64 {
    let per_window: Vec<f64> = windows
        .iter_mut()
        .filter_map(|w| percentile(w, q))
        .map(|v| v as f64)
        .collect();
    median(&per_window)
}

/// Quartiles `[q1, q2, q3]` by Python's `statistics.quantiles(data, n=4)`
/// (the default "exclusive" method), for `data.len() >= 2`.
pub fn quartiles(data: &[f64]) -> [f64; 3] {
    let mut d = data.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), Some(50));
        assert_eq!(percentile(&mut v, 0.99), Some(99));
        assert_eq!(percentile(&mut v, 1.0), Some(100));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn median_of_windows_matches_a_hand_computed_case() {
        // A 10 s phase in five 2 s windows; window 2 holds one stall.
        let samples: Vec<(u64, u64)> = vec![
            (0, 10),
            (1_000, 30),
            (1_500, 20),
            (2_000, 40),
            (3_999, 50),
            (4_000, 900),
            (4_500, 1000),
            (6_000, 15),
            (7_000, 25),
            (8_000, 35),
            (9_999, 45),
            (10_000, 7), // past the phase: dropped
        ];
        let mut w = split_windows(&samples, 10_000, 5);
        assert_eq!(
            w.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![3, 2, 2, 2, 2]
        );
        // Window p50s (nearest rank): 20, 40, 900, 15, 35 -> median 35.
        assert_eq!(median_of_window_percentiles(&mut w, 0.5), 35.0);
        // Window maxima: 30, 50, 1000, 25, 45 -> median 45; the stall only
        // moves its own window.
        assert_eq!(median_of_window_percentiles(&mut w, 1.0), 45.0);
        // An even count takes the mean of the middle pair: 20, 40, 900, 15
        // -> (20 + 40) / 2.
        assert_eq!(median_of_window_percentiles(&mut w[..4], 0.5), 30.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let d: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&d), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }
}
