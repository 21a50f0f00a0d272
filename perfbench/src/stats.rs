//! Order statistics shared by every metric the benchmark computes itself.

/// The `p`-quantile of an ascending slice by ceil rank: the element at
/// zero-based index `ceil(p · (n − 1))`. p99 of 100 samples is the 100th
/// sample, never the 99th (the convention `loadgen` uses). Returns `None`
/// for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = (p.clamp(0.0, 1.0) * last as f64).ceil() as usize;
    Some(sorted[rank.min(last)])
}

/// Sorts `samples` and returns its ceil-rank `p`-quantile.
pub fn percentile_of(samples: &mut [u64], p: f64) -> Option<u64> {
    samples.sort_unstable();
    percentile(samples, p)
}

/// The median of `values` (mean of the two middle values for even
/// counts). Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_one_hundred_is_the_hundredth_sample() {
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.99), Some(100));
        assert_eq!(percentile(&hundred, 0.50), Some(51));
        assert_eq!(percentile(&hundred, 0.0), Some(1));
        assert_eq!(percentile(&hundred, 1.0), Some(100));
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[3, 9], 0.5), Some(9));
        let mut unsorted = vec![5, 1, 4, 2, 3];
        assert_eq!(percentile_of(&mut unsorted, 0.5), Some(3));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
