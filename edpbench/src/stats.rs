//! Order statistics: nearest-rank percentiles and the rule that decides
//! when a percentile may be reported at all.

/// Fewest samples that must lie beyond a reported percentile. With
/// fewer, the "percentile" is one or two outliers, not a property of
/// the run — this is what makes `p99_ms` need at least 1,000 ops.
const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `pct`-th percentile among `n` samples:
/// the smallest rank with at least `pct`% of the samples at or below it.
fn rank(n: usize, pct: usize) -> usize {
    (n * pct).div_ceil(100).clamp(1, n.max(1))
}

/// The nearest-rank `pct`-th percentile of ascending `sorted` samples
/// (`None` when there are none).
pub(crate) fn nearest_rank(sorted: &[f64], pct: usize) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// Whether the `pct`-th percentile of `n` samples has at least
/// [`MIN_BEYOND`] samples beyond it.
fn reportable(n: usize, pct: usize) -> bool {
    n > 0 && n - rank(n, pct) >= MIN_BEYOND
}

/// 1-based rank of the tail value among `n` samples: the p99 when `n`
/// supports it, otherwise the highest rank that still has
/// [`MIN_BEYOND`] samples beyond it, and never below the median.
pub(crate) fn tail_rank(n: usize) -> usize {
    if reportable(n, 99) {
        rank(n, 99)
    } else {
        n.saturating_sub(MIN_BEYOND).max(rank(n, 50))
    }
}

/// The tail latency reported as `p99_ms` (see [`tail_rank`]). Returns
/// the value and the fraction of samples at or below it.
pub(crate) fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = tail_rank(n);
    Some((sorted[rank - 1], rank as f64 / n as f64))
}

/// The [`tail_rank`] value of samples kept only as counts per log2
/// bucket (`(b, count)`, ascending; bucket `b ≥ 1` holds `[2^(b-1),
/// 2^b)`, bucket 0 holds zeros): the rank's position inside its bucket,
/// spread linearly over the bucket's range. Reading the bucket edge
/// instead would report the same value on every run.
pub(crate) fn log2_tail(buckets: &[(u32, u64)]) -> Option<f64> {
    let n: u64 = buckets.iter().map(|&(_, count)| count).sum();
    let rank = tail_rank(usize::try_from(n).ok()?) as u64;
    let mut below = 0;
    for &(bucket, count) in buckets {
        if below + count >= rank {
            if bucket == 0 {
                return Some(0.0);
            }
            let low = 2f64.powi(bucket as i32 - 1);
            let within = (rank - below) as f64 - 0.5;
            return Some(low + low * within / count as f64);
        }
        below += count;
    }
    None
}

/// Sorts samples ascending (total order, so a NaN cannot panic).
pub(crate) fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median, min and max of repeated calls of one microbenchmark.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Spread {
    pub(crate) median: f64,
    pub(crate) min: f64,
    pub(crate) max: f64,
    pub(crate) calls: usize,
}

impl Spread {
    /// Summarizes samples (all zero when there are none).
    pub(crate) fn of(samples: Vec<f64>) -> Self {
        let sorted = sorted(samples);
        Self {
            median: nearest_rank(&sorted, 50).unwrap_or(0.0),
            min: sorted.first().copied().unwrap_or(0.0),
            max: sorted.last().copied().unwrap_or(0.0),
            calls: sorted.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_the_share() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 50), Some(5.0));
        assert_eq!(nearest_rank(&samples, 90), Some(9.0));
        assert_eq!(nearest_rank(&samples, 91), Some(10.0));
        assert_eq!(nearest_rank(&samples, 100), Some(10.0));
        assert_eq!(nearest_rank(&samples, 1), Some(1.0));
        assert_eq!(nearest_rank(&[], 50), None);
        // Odd counts give the true median.
        assert_eq!(nearest_rank(&[3.0, 7.0, 9.0], 50), Some(7.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1,000 samples is rank 990, with exactly 10 beyond.
        assert!(reportable(1000, 99));
        assert!(!reportable(999, 99));
        // The median needs 20 samples.
        assert!(reportable(20, 50));
        assert!(!reportable(19, 50));
        assert!(!reportable(0, 50));
    }

    #[test]
    fn tail_falls_back_to_the_highest_reportable_rank() {
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&big), Some((990.0, 0.99)));
        // 240 samples: p99 is not reportable; the 230th value has 10
        // beyond it.
        let mid: Vec<f64> = (1..=240).map(f64::from).collect();
        assert_eq!(tail(&mid), Some((230.0, 230.0 / 240.0)));
        // Never below the median: with 15 samples the 5th value has 10
        // beyond it, but the median (8th) is reported.
        let few: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&few), Some((8.0, 8.0 / 15.0)));
        assert_eq!(tail(&[1.0, 2.0]), Some((1.0, 0.5)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn log2_tail_places_the_rank_inside_its_bucket() {
        // 1,000 samples: rank 990 is the 10th of 20 in [1024, 2048).
        assert_eq!(
            log2_tail(&[(10, 980), (11, 20)]),
            Some(1024.0 + 1024.0 * 9.5 / 20.0)
        );
        // 10 samples fall back to the median, the 5th of 10 in [4, 8).
        assert_eq!(log2_tail(&[(3, 10)]), Some(4.0 + 4.0 * 4.5 / 10.0));
        // A different count in the bucket moves the value.
        assert_ne!(
            log2_tail(&[(10, 979), (11, 21)]),
            log2_tail(&[(10, 980), (11, 20)])
        );
        assert_eq!(log2_tail(&[(0, 50)]), Some(0.0));
        assert_eq!(log2_tail(&[]), None);
    }

    #[test]
    fn spread_reports_median_min_max() {
        let s = Spread::of(vec![5.0, 1.0, 3.0]);
        assert_eq!((s.median, s.min, s.max, s.calls), (3.0, 1.0, 5.0, 3));
    }
}
