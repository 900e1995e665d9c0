//! Order statistics for reported timings.

/// A percentile read from a sample, with the counts that make it
/// trustworthy: `beyond` samples lie strictly above its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `sorted` by nearest rank, refused
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Result<Percentile, String> {
    let n = sorted.len();
    if n == 0 {
        return Err(format!("p{} of an empty sample", q * 100.0));
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it (need {MIN_BEYOND})",
            q * 100.0
        ));
    }
    Ok(Percentile { value: sorted[rank - 1], samples: n, beyond })
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Sort a latency sample for [`percentile`].
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Length of the windows a run's samples are grouped into.
pub const WINDOW_S: f64 = 2.0;

/// Split `[0, seconds)` into whole windows of [`WINDOW_S`] (one window
/// when the run is shorter) and group `(time_s, value)` samples by the
/// window their time falls in; samples past the last whole window are
/// dropped.
pub fn windows(samples: &[(f64, f64)], seconds: f64) -> (Vec<Vec<f64>>, f64) {
    let (n, len) = if seconds < WINDOW_S {
        (1, seconds)
    } else {
        ((seconds / WINDOW_S).floor() as usize, WINDOW_S)
    };
    let mut groups = vec![Vec::new(); n];
    for &(t, v) in samples {
        let k = (t / len).floor();
        if k >= 0.0 && (k as usize) < n {
            groups[k as usize].push(v);
        }
    }
    (groups, len)
}

/// A percentile taken in every window, summarised by its median across
/// windows, so a burst of host noise in one window cannot move it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    pub value: f64,
    pub windows: usize,
    pub samples: usize,
    /// Fewest samples beyond the percentile in any window.
    pub min_beyond: usize,
}

/// The `q`-quantile in each window of `samples`, medianed across
/// windows; refused if any window has fewer than [`MIN_BEYOND`] samples
/// beyond its percentile.
pub fn windowed_percentile(
    samples: &[(f64, f64)],
    seconds: f64,
    q: f64,
) -> Result<Windowed, String> {
    let (groups, _) = windows(samples, seconds);
    let mut values = Vec::with_capacity(groups.len());
    let mut out =
        Windowed { value: 0.0, windows: groups.len(), samples: 0, min_beyond: usize::MAX };
    for g in groups {
        let p = percentile(&sorted(g), q)?;
        values.push(p.value);
        out.samples += p.samples;
        out.min_beyond = out.min_beyond.min(p.beyond);
    }
    out.value = median(&values);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_percentile_ignores_one_noisy_window() {
        // Five 2-second windows of 100 samples each at 1.0, except one
        // window at 50.0: the median across windows stays 1.0.
        let samples: Vec<(f64, f64)> = (0..500)
            .map(|i| {
                let t = i as f64 / 50.0;
                (t, if (4.0..6.0).contains(&t) { 50.0 } else { 1.0 })
            })
            .collect();
        let w = windowed_percentile(&samples, 10.0, 0.5).unwrap();
        assert_eq!((w.value, w.windows, w.samples, w.min_beyond), (1.0, 5, 500, 50));
        // A p99 with 100 samples per window has only one beyond: refused.
        assert!(windowed_percentile(&samples, 10.0, 0.99).is_err());
        // Samples past the last whole window are dropped.
        let (groups, len) = windows(&[(0.5, 1.0), (4.5, 2.0)], 4.9);
        assert_eq!((groups, len), (vec![vec![1.0], vec![]], 2.0));
        let (groups, len) = windows(&[(0.5, 1.0)], 1.5);
        assert_eq!((groups, len), (vec![vec![1.0]], 1.5));
    }

    #[test]
    fn percentile_reports_its_sample_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p50 = percentile(&v, 0.5).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (500.0, 1000, 500));
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!((p99.value, p99.samples, p99.beyond), (990.0, 1000, 10));
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(percentile(&v, 0.99).is_err());
        assert!(percentile(&v[..19], 0.5).is_err());
        assert!(percentile(&v[..20], 0.5).is_ok());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
