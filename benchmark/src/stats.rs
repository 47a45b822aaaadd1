//! Order statistics the harness reports: nearest-rank percentiles,
//! the median-of-segments rule, the upper quartile a throughput is read
//! at, and the quartile spread the A/A check uses.

/// Nearest-rank percentile of `sorted` (ascending), `p` in 0..=100.
/// `None` on an empty sample.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `samples` in place and returns its nearest-rank percentile as
/// `f64` (0.0 on an empty sample, which callers report as "not
/// measured").
pub fn percentile_of(samples: &mut [u32], p: f64) -> f64 {
    samples.sort_unstable();
    percentile(samples, p).map_or(0.0, f64::from)
}

/// Median of `values`: the mean of the two middle values for an even
/// count. 0.0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One reported timing: one value for the per-segment values with the
/// min–max printed beside it, so one noisy second cannot move the
/// number and a reader still sees that it happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentStat {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

/// The median of the per-segment values.
pub fn over_segments(values: &[f64]) -> SegmentStat {
    SegmentStat {
        value: median(values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// The third quartile of the per-segment values, the second highest of
/// seven: how a saturated closed loop's throughput is read, where the
/// segments are repeats of one scenario. A stall of any one
/// thread stops the whole loop, so what a shared box does to a segment
/// only ever lowers it, and the median of the segments carries its share
/// of that; the segments the box left alone show the program's speed,
/// and the second best of them is not a fluke.
pub fn upper_quartile_over_segments(values: &[f64]) -> SegmentStat {
    let stat = over_segments(values);
    // Two values put the exclusive method's quartile beyond the larger.
    let q3 = quartiles(values).map_or(stat.value, |(_, q3)| q3.min(stat.max));
    SegmentStat { value: q3, ..stat }
}

/// First and third quartile by the "exclusive" method — the same
/// numbers Python's `statistics.quantiles(values, n=4)` gives, which is
/// what the acceptance check computes.
fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| -> f64 {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Inter-quartile distance as a share of the median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        let five = [10u32, 20, 30, 40, 50];
        assert_eq!(percentile(&five, 50.0), Some(30));
        assert_eq!(percentile(&five, 90.0), Some(50));
        assert_eq!(percentile::<u32>(&[], 50.0), None);
        let mut unsorted = [9u32, 1, 5];
        assert_eq!(percentile_of(&mut unsorted, 50.0), 5.0);
    }

    #[test]
    fn median_of_segments_ignores_one_outlier() {
        let s = over_segments(&[100.0, 101.0, 10.0, 99.0, 102.0]);
        assert_eq!(s.value, 100.0);
        assert_eq!((s.min, s.max), (10.0, 102.0));
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn upper_quartile_is_the_second_best_of_seven_segments() {
        let s = upper_quartile_over_segments(&[160.0, 140.0, 228.0, 246.0, 211.0, 196.0, 192.0]);
        assert_eq!(s.value, 228.0);
        assert_eq!((s.min, s.max), (140.0, 246.0));
        assert_eq!(upper_quartile_over_segments(&[3.0, 9.0, 5.0]).value, 9.0);
        assert_eq!(upper_quartile_over_segments(&[1.0, 3.0]).value, 3.0);
        assert_eq!(upper_quartile_over_segments(&[7.0]).value, 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&v).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]).unwrap();
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
    }
}
