//! Order statistics the harness reports: medians over rounds, nearest-rank
//! percentiles over per-request samples, and the quartile spread the
//! acceptance rule uses.

/// Median of `values` (mean of the middle pair for even counts). `0.0`
/// for an empty slice, so an absent stage reads as zero cost.
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

/// Nearest-rank percentile (`p` in `0..=100`) of an ascending-sorted
/// sample; `0` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the benchmark is accepted on. Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (exclusive method), so a
/// spread computed here equals the one the driver computes. `0.0` below
/// two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = median(&v);
    if mid == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / mid.abs()
}

/// Median / min / max of one metric over the rounds of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct OverRounds {
    /// The per-round values, in round order.
    pub rounds: Vec<f64>,
}

impl OverRounds {
    /// The reported value: the median over rounds.
    pub fn median(&self) -> f64 {
        median(&self.rounds)
    }

    /// Smallest round.
    pub fn min(&self) -> f64 {
        self.rounds.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest round.
    pub fn max(&self) -> f64 {
        self.rounds.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_rounds_ignores_one_slow_round() {
        assert_eq!(median(&[944.0, 925.0, 470.0, 950.0, 940.0, 930.0]), 935.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 90.0), 90);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert!((quartile_spread(&[40.0, 10.0, 20.0]) - 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }

    #[test]
    fn over_rounds_reports_median_min_max() {
        let r = OverRounds { rounds: vec![10.0, 30.0, 20.0] };
        assert_eq!((r.median(), r.min(), r.max()), (20.0, 10.0, 30.0));
    }
}
