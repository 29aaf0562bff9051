//! Order statistics for host timings and simulated latencies.

/// Median and quartiles of a sample (linear interpolation between ranks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// Inter-quartile spread as a share of the median: the noise figure
    /// `compare` holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The `q`-quantile (`0.0..=1.0`) of an already sorted sample.
fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    assert!(!s.is_empty(), "quantile of an empty sample");
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

pub fn quartiles(samples: &[f64]) -> Quartiles {
    let s = sorted(samples);
    Quartiles {
        q1: quantile_sorted(&s, 0.25),
        median: quantile_sorted(&s, 0.5),
        q3: quantile_sorted(&s, 0.75),
    }
}

/// The highest of p50 / p90 / p99 / p99.9 / p99.99 that still has at least
/// ten samples beyond it, with its nearest-rank value. A tail percentile
/// resting on fewer samples than that is one outlier, not a distribution.
pub fn highest_supported_percentile(samples: &[u64]) -> Option<(f64, u64)> {
    let mut s = samples.to_vec();
    s.sort_unstable();
    let n = s.len();
    [99.99, 99.9, 99.0, 90.0, 50.0].into_iter().find_map(|p| {
        let rank = ((p * n as f64) / 100.0).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| (p, s[rank - 1]))
    })
}

/// Nearest-rank percentile (`p` in percent) of a non-empty sample.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut s = samples.to_vec();
    s.sort_unstable();
    let rank = ((p * s.len() as f64) / 100.0).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 3.0, 4.0));
        assert_eq!(q.spread(), 2.0 / 3.0);
        let one = quartiles(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        let s: Vec<u64> = (1..=1000).collect();
        // p99.9 leaves one sample beyond it, p99 leaves ten.
        assert_eq!(highest_supported_percentile(&s), Some((99.0, 990)));
        let s: Vec<u64> = (1..=20_000).collect();
        assert_eq!(highest_supported_percentile(&s), Some((99.9, 19_980)));
        let s: Vec<u64> = (1..=25).collect();
        assert_eq!(highest_supported_percentile(&s), Some((50.0, 13)));
        assert_eq!(highest_supported_percentile(&[1, 2, 3]), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&[5], 99.0), 5);
    }
}
