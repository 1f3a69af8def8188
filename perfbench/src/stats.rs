//! Order statistics, rank correlation and the rate-ladder search.
//!
//! Every percentile the benchmark reports comes from raw samples through
//! [`percentile`] (nearest-rank), never from a bucketed histogram.

/// Nearest-rank percentile of `samples` (`p` in `0..=100`): the smallest
/// sample such that at least `p`% of all samples are ≤ it. Returns `None`
/// for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // The epsilon keeps float noise in `p / 100 · n` (e.g. 99.9% of
    // 1000 = 999.0000000000001) from moving the rank up by one.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Nearest-rank median; `0.0` for an empty slice (callers report the
/// sample count next to it).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Fractional ranks (1-based), ties sharing the mean of their positions.
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            out[k] = rank;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation of paired samples: the Pearson correlation
/// of their fractional ranks. `None` when fewer than two pairs or when
/// either side is constant.
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    assert_eq!(xs.len(), ys.len(), "spearman needs paired samples");
    if xs.len() < 2 {
        return None;
    }
    let (rx, ry) = (ranks(xs), ranks(ys));
    let (mx, my) = (mean(&rx), mean(&ry));
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (a, b) in rx.iter().zip(&ry) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    (sxx > 0.0 && syy > 0.0).then(|| sxy / (sxx * syy).sqrt())
}

/// Finds the highest rung of an ascending `ladder` that `passes`, by
/// bisection under the assumption that passing is monotone (a rung that
/// fails makes every higher rung fail). Returns the index of that rung,
/// or `None` when even the lowest rung fails. `passes` is called once
/// per probed rung, in probe order.
pub fn ladder_search(ladder: &[f64], mut passes: impl FnMut(f64) -> bool) -> Option<usize> {
    let (mut lo, mut hi) = (0usize, ladder.len());
    let mut best = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if passes(ladder[mid]) {
            best = Some(mid);
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    best
}

/// Where `target` falls between `lo` and `hi`, as a fraction clamped to
/// `[0, 1]` (0 when the two are equal).
pub fn crossing(lo: f64, hi: f64, target: f64) -> f64 {
    if hi == lo {
        return 0.0;
    }
    ((target - lo) / (hi - lo)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_cases() {
        let xs = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 5.0), Some(15.0));
        assert_eq!(percentile(&xs, 30.0), Some(20.0));
        assert_eq!(percentile(&xs, 40.0), Some(20.0));
        assert_eq!(percentile(&xs, 50.0), Some(35.0));
        assert_eq!(percentile(&xs, 100.0), Some(50.0));
        assert_eq!(percentile(&xs, 0.0), Some(15.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order_and_returns_a_sample() {
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        assert_eq!(percentile(&xs, 99.9), Some(999.0));
        assert_eq!(median(&xs), 500.0);
    }

    #[test]
    fn spearman_is_one_for_any_monotone_map_and_handles_ties() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys: Vec<f64> = xs.iter().map(|x: &f64| x.powi(3) + 7.0).collect();
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let rev: Vec<f64> = ys.iter().rev().copied().collect();
        assert!((spearman(&xs, &rev).unwrap() + 1.0).abs() < 1e-12);
        // Ties share their mean rank: ranks of ys are [1, 2.5, 2.5, 4].
        let r = spearman(&[1.0, 2.0, 3.0, 4.0], &[1.0, 5.0, 5.0, 9.0]).unwrap();
        assert!((r - 0.948_683_298_050_513_8).abs() < 1e-12, "{r}");
        assert_eq!(spearman(&[1.0, 2.0], &[3.0, 3.0]), None);
        assert_eq!(spearman(&[1.0], &[3.0]), None);
    }

    #[test]
    fn crossing_is_a_clamped_fraction() {
        assert_eq!(crossing(60.0, 100.0, 80.0), 0.5);
        assert_eq!(crossing(60.0, 100.0, 50.0), 0.0);
        assert_eq!(crossing(60.0, 100.0, 120.0), 1.0);
        assert_eq!(crossing(70.0, 70.0, 80.0), 0.0);
    }

    #[test]
    fn ladder_search_finds_the_highest_passing_rung() {
        let ladder: Vec<f64> = (1..=10).map(|r| f64::from(r) * 10.0).collect();
        for capacity in [0.0, 10.0, 35.0, 70.0, 100.0, 1e9] {
            let mut probed = Vec::new();
            let got = ladder_search(&ladder, |rate| {
                probed.push(rate);
                rate <= capacity
            });
            let want = ladder.iter().rposition(|&r| r <= capacity);
            assert_eq!(got, want, "capacity {capacity}");
            // Bisection: at most ceil(log2(10)) + 1 probes.
            assert!(probed.len() <= 4, "{probed:?}");
        }
        assert_eq!(ladder_search(&[], |_| true), None);
    }
}
