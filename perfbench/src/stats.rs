//! Exact order statistics over the benchmark's own raw samples, and the
//! process's peak resident set.
//!
//! Percentiles use the nearest-rank rule on the sorted samples: the
//! `p`-quantile of `n` samples is the sample of 1-based rank
//! `ceil(p · n)` (rank 1 for `p = 0`). No bucketing, no interpolation:
//! every reported value is one measured sample.

/// The 1-based nearest rank of quantile `p` (in `[0, 1]`) among `n ≥ 1`
/// samples.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    assert!(n >= 1, "a percentile needs at least one sample");
    assert!((0.0..=1.0).contains(&p), "quantile {p} outside [0, 1]");
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The `p`-quantile of `samples` by the nearest-rank rule.
pub fn percentile<T: Copy + PartialOrd>(samples: &[T], p: f64) -> T {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are ordered"));
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// The median (nearest-rank 0.5-quantile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is not available.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_rule() {
        // 100 samples: p50 is the 50th, p99 the 99th, p100 the last.
        assert_eq!(nearest_rank(0.5, 100), 50);
        assert_eq!(nearest_rank(0.99, 100), 99);
        assert_eq!(nearest_rank(1.0, 100), 100);
        // Ranks round up: 0.99 · 150 = 148.5 → 149.
        assert_eq!(nearest_rank(0.99, 150), 149);
        // p0 and tiny p clamp to the first sample; one sample is every
        // percentile.
        assert_eq!(nearest_rank(0.0, 7), 1);
        assert_eq!(nearest_rank(0.001, 7), 1);
        assert_eq!(nearest_rank(0.99, 1), 1);
        // An even count's median is the lower middle sample.
        assert_eq!(nearest_rank(0.5, 4), 2);
    }

    #[test]
    fn percentiles_are_samples() {
        let xs: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(percentile(&xs, 0.5), 500);
        assert_eq!(percentile(&xs, 0.99), 990);
        assert_eq!(percentile(&xs, 1.0), 1000);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
