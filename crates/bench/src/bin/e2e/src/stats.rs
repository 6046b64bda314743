//! Order statistics for latency samples and for aggregating rounds.

/// Samples that must lie beyond a percentile for it to be reported
/// (choosing-metrics §1: "the highest percentile that has at least ten
/// samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// Candidate percentiles, lowest first, in per mille: integers, so that
/// ranks are exact (`0.99 * 1000.0` is not 990 in floating point).
const CANDIDATES: [u32; 4] = [500, 900, 990, 999];

/// Nearest rank (1-based) of the `per_mille` percentile among `n` samples.
fn rank(n: usize, per_mille: u32) -> usize {
    (n * per_mille as usize).div_ceil(1000).clamp(1, n.max(1))
}

/// The value at the `per_mille` percentile of an ascending-sorted slice
/// (nearest rank).  `None` on an empty slice.
pub fn percentile<T: Copy>(sorted: &[T], per_mille: u32) -> Option<T> {
    sorted.get(rank(sorted.len(), per_mille) - 1).copied()
}

/// The highest candidate percentile (per mille) that still has
/// [`MIN_BEYOND`] of `n` samples beyond it, if any.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    CANDIDATES
        .iter()
        .copied()
        .rfind(|&pm| n >= rank(n, pm) + MIN_BEYOND)
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// One metric over the rounds of a run: what is reported (the median) and
/// the range printed beside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rounds {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

/// Median-of-rounds aggregation; `None` when no round produced the metric.
pub fn over_rounds(values: &[f64]) -> Option<Rounds> {
    Some(Rounds {
        median: median(values)?,
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picker_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(500));
        assert_eq!(highest_supported_percentile(99), Some(500));
        assert_eq!(highest_supported_percentile(100), Some(900));
        assert_eq!(highest_supported_percentile(999), Some(900));
        assert_eq!(highest_supported_percentile(1_000), Some(990));
        assert_eq!(highest_supported_percentile(9_999), Some(990));
        assert_eq!(highest_supported_percentile(10_000), Some(999));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&v, 500), Some(500));
        assert_eq!(percentile(&v, 990), Some(990));
        assert_eq!(percentile(&v, 999), Some(999));
        assert_eq!(percentile(&v, 1000), Some(1000));
        assert_eq!(percentile(&v, 0), Some(1));
        assert_eq!(percentile(&v[..7], 500), Some(4));
        assert_eq!(percentile::<u32>(&[], 500), None);
    }

    #[test]
    fn median_of_rounds_ignores_one_slow_round() {
        let r = over_rounds(&[20.4, 16.2, 20.2, 20.3, 20.5]).expect("non-empty");
        assert_eq!(r.median, 20.3);
        assert_eq!((r.min, r.max), (16.2, 20.5));
        assert_eq!(median(&[1.0, 3.0]), Some(2.0));
        assert_eq!(over_rounds(&[]), None);
    }
}
