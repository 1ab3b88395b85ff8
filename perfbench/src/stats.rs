//! Order statistics over raw samples.
//!
//! Percentiles here are exact nearest-rank values over every recorded
//! per-operation sample, never read off a bucketed histogram.
//! [`quartiles`] reproduces Python's `statistics.quantiles(values,
//! n=4)` (the default "exclusive" method), the statistic used to judge
//! run-to-run spread.

/// Per-operation samples summarised by exact percentiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Samples strictly greater than `p99`.
    pub beyond_p99: usize,
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort `samples` and summarise them.
pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_by(f64::total_cmp);
    let p99 = percentile(samples, 99.0);
    Summary {
        n: samples.len(),
        p50: percentile(samples, 50.0),
        p99,
        beyond_p99: samples.iter().filter(|&&s| s > p99).count(),
    }
}

/// `slices` cut into time-ordered segments of at least `min` samples,
/// at most `most` per slice (a slice shorter than `min` stays whole).
/// A stall of the machine then spoils one short segment rather than a
/// whole slice.
pub fn segments(slices: &[Vec<f64>], min: usize, most: usize) -> Vec<Vec<f64>> {
    slices
        .iter()
        .flat_map(|slice| {
            let n = (slice.len() / min.max(1)).clamp(1, most.max(1));
            let size = slice.len().div_ceil(n).max(1);
            slice.chunks(size).map(<[f64]>::to_vec).collect::<Vec<_>>()
        })
        .collect()
}

/// Summaries of `slices` (samples of one phase taken at different
/// moments of a run), the trimmed mean over slices of their p50 and the
/// median over slices of their p99. A slow spell of the machine during
/// a few slices moves those slices, not the run's figures. The p99 takes
/// the median: a stall of a few milliseconds sets the p99 of every
/// short slice it falls in, and on a busy host that is more than the
/// quarter of slices a trimmed mean drops.
pub fn over_slices(slices: &[Vec<f64>]) -> (Vec<Summary>, f64, f64) {
    let summaries: Vec<Summary> = slices.iter().map(|s| summarize(&mut s.clone())).collect();
    let p50s: Vec<f64> = summaries.iter().map(|s| s.p50).collect();
    let p99s: Vec<f64> = summaries.iter().map(|s| s.p99).collect();
    (summaries, trimmed_mean(&p50s), median(&p99s))
}

/// The mean of `values` without their lowest and highest quarter
/// (`len / 4` values from each end; all of them below four values).
///
/// The shared host runs the VM at two speeds about 1.4× apart and
/// switches between them within seconds, in proportions that change
/// from minute to minute. A median over a run's repeated measurements
/// then jumps between the two speeds when the proportion crosses one
/// half; the mean moves with the proportion instead. Dropping the
/// outer quarters keeps the mean from following the few samples a
/// stall of the VM spoils.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "trimmed mean of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The median of a few repeated measurements (mean of the middle two
/// for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Signed: for very short inputs Python extrapolates past the ends.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_tail_count() {
        let mut samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&mut samples);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99, 990.0);
        assert_eq!(s.beyond_p99, 10);

        let mut one = vec![7.0];
        let s = summarize(&mut one);
        assert_eq!((s.p50, s.p99, s.beyond_p99), (7.0, 7.0, 0));

        // Ties at the p99 value are not "beyond" it.
        let mut tied = vec![1.0; 200];
        tied[197..].fill(5.0);
        let s = summarize(&mut tied);
        assert_eq!(s.p99, 5.0);
        assert_eq!(s.beyond_p99, 0);
    }

    #[test]
    fn percentile_is_a_sample_not_an_interpolation() {
        let sorted = [1.0, 2.0, 10.0, 11.0];
        assert_eq!(percentile(&sorted, 50.0), 2.0);
        assert_eq!(percentile(&sorted, 75.0), 10.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 100.0), 11.0);
    }

    #[test]
    fn slice_figures_ignore_a_slow_slice() {
        let mut slices = vec![vec![1.0; 1000]; 8];
        slices[1] = vec![1000.0; 1000]; // one slice entirely slow
        for s in &mut slices[3][..20] {
            *s = 50.0; // 2% of another slice
        }
        let pooled: Vec<f64> = slices.concat();
        assert_eq!(summarize(&mut pooled.clone()).p50, 1.0);
        assert_eq!(summarize(&mut pooled.clone()).p99, 1000.0);
        let (summaries, p50, p99) = over_slices(&slices);
        assert_eq!((p50, p99), (1.0, 1.0));
        let slice_p99s: Vec<f64> = summaries.iter().map(|s| s.p99).collect();
        assert_eq!(slice_p99s, [1.0, 1000.0, 1.0, 50.0, 1.0, 1.0, 1.0, 1.0]);
        // Rising slices: the middle three of five set the p50's mean,
        // the middle one the p99's median.
        let rising: Vec<Vec<f64>> = (0..5)
            .map(|k| (0..100).map(|i| f64::from(k * 100 + i)).collect())
            .collect();
        assert_eq!(over_slices(&rising).1, 249.0);
        assert_eq!(over_slices(&rising).2, 298.0);
    }

    #[test]
    fn trimmed_mean_drops_the_outer_quarters() {
        // Below four values nothing is dropped.
        assert_eq!(trimmed_mean(&[3.0, 1.0, 2.0]), 2.0);
        // One from each end of five or seven, two of eight.
        assert_eq!(trimmed_mean(&[9.0, 1.0, 2.0, 3.0, 100.0]), 14.0 / 3.0);
        assert_eq!(trimmed_mean(&[0.0, 5.0, 5.0, 6.0, 7.0, 7.0, 1e9]), 6.0);
        let eight = [-1e9, 0.0, 4.0, 4.0, 6.0, 6.0, 10.0, 1e9];
        assert_eq!(trimmed_mean(&eight), 5.0);
        // Two speeds 1.4x apart: the mean follows the share of slow
        // samples, where the median jumps from one speed to the other.
        let mut mix = vec![1.0; 5];
        mix.extend([1.4; 4]);
        assert_eq!(median(&mix), 1.0);
        assert!((trimmed_mean(&mix) - 1.16).abs() < 1e-12);
        mix[4] = 1.4;
        assert_eq!(median(&mix), 1.4);
        assert!((trimmed_mean(&mix) - 1.24).abs() < 1e-12);
    }

    #[test]
    fn segments_keep_order_and_size() {
        let slice: Vec<f64> = (0..4500).map(f64::from).collect();
        let cut = segments(&[slice.clone(), vec![1.0; 900]], 1000, 4);
        // 4 segments of 1,125 from the first slice; the short one stays.
        let sizes: Vec<usize> = cut.iter().map(Vec::len).collect();
        assert_eq!(sizes, [1125, 1125, 1125, 1125, 900]);
        assert_eq!(cut[..4].concat(), slice);
        // A stall inside one segment moves only that segment's p99.
        let mut stalled = vec![1.0; 4000];
        for s in &mut stalled[1000..1060] {
            *s = 500.0;
        }
        let (_, _, whole_p99) = over_slices(&[stalled.clone()]);
        let (_, _, segmented_p99) = over_slices(&segments(&[stalled], 1000, 4));
        assert_eq!((whole_p99, segmented_p99), (500.0, 1.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [1.0, 3.0, 5.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }
}
