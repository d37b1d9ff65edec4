//! The benchmark's own arithmetic: nearest-rank percentiles, the "at least
//! ten samples beyond" rule, medians, quartiles, the good-side quartile a
//! run reports, and spreads.

/// Samples that must lie beyond a reported percentile (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// Sort ascending; NaNs last, so they never become a percentile.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. `p` in (0, 1]. Empty → 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly above the nearest-rank position of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether a sample of size `n` supports reporting percentile `p`: at
/// least [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Median: the middle sample, or the mean of the two middle ones. Empty → 0.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method: position `q·(n+1)`, interpolated,
/// clamped to the sample). The driver judges run-to-run steadiness with that
/// function, so the in-run spread uses the same one. Needs two samples.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    if v.len() < 2 {
        return None;
    }
    let s = sorted(v.to_vec());
    let at = |q: f64| {
        let pos = q * (s.len() + 1) as f64; // 1-based
        let lo = (pos.floor() as usize).clamp(1, s.len() - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        s[lo - 1] + frac * (s[lo] - s[lo - 1])
    };
    Some((at(0.25), at(0.75)))
}

/// `(third quartile − first quartile) / median` of the repetitions —
/// printed beside each metric as `<metric>.spread`. From seven repetitions
/// up one slow repetition does not move it, where `(max − min)` follows it
/// all the way.
/// Zero for fewer than two samples or a zero median.
pub fn spread(v: &[f64]) -> f64 {
    let m = median(v);
    match quartiles(v) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The quartile of the repetitions on a metric's good side: the third for
/// a metric where higher is better, the first where lower is. This is the
/// value a run reports. Whatever else the shared host runs can only slow a
/// repetition, never speed it up, so the good quartile moves about half as
/// far between runs of the same code as the median does (README.md "What a
/// run reports"), and a change to the program shifts every repetition and
/// with them this quartile. One sample is its own quartile. Empty → 0.
pub fn good_quartile(v: &[f64], higher_is_better: bool) -> f64 {
    match quartiles(v) {
        Some((_, q3)) if higher_is_better => q3,
        Some((q1, _)) => q1,
        None => v.first().copied().unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn good_quartile_follows_the_direction() {
        let reps = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(good_quartile(&reps, true), 5.25);
        assert_eq!(good_quartile(&reps, false), 1.75);
        // Three set-ups: the fastest one.
        assert_eq!(good_quartile(&[1.6, 1.5, 2.2], false), 1.5);
        assert_eq!(good_quartile(&[7.0], true), 7.0);
        assert_eq!(good_quartile(&[], false), 0.0);
        // One stalled repetition in eight does not move it.
        let calm = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07];
        let mut stalled = calm;
        stalled[7] = 3.0;
        assert_eq!(good_quartile(&calm, false), good_quartile(&stalled, false));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // 5 samples: p50 → rank ceil(2.5) = 3.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
    }

    #[test]
    fn ten_beyond_rule() {
        // 10 000 requests: p99 leaves 100 beyond, p95 leaves 500.
        assert_eq!(beyond(10_000, 0.99), 100);
        assert!(supports(10_000, 0.99) && supports(10_000, 0.95));
        // 120 windows: p90 leaves 12 beyond, p95 only 6.
        assert_eq!(beyond(120, 0.90), 12);
        assert_eq!(beyond(120, 0.95), 6);
        assert!(supports(120, 0.90) && !supports(120, 0.95));
        // 20 passes: only the median has ten beyond.
        assert!(supports(20, 0.5) && !supports(20, 0.9));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn median_quartiles_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // The values Python's statistics.quantiles(v, n=4) returns.
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        assert_eq!(
            quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            Some((1.75, 5.25))
        );
        assert_eq!(quartiles(&[5.0, 5.0]), Some((5.0, 5.0)));
        assert_eq!(quartiles(&[5.0]), None);
        assert!((spread(&[9.0, 10.0, 12.0]) - 0.3).abs() < 1e-12);
        // One slow repetition in seven: the range is 0.9 of the median,
        // the interquartile spread does not see it.
        let reps = [1.0, 1.02, 1.04, 1.06, 1.08, 1.1, 2.0];
        assert!((spread(&reps) - 0.08 / 1.06).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}
