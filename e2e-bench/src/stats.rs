//! Percentiles as the benchmark reports them.
//!
//! Every reported percentile carries its sample count and is the highest
//! percentile, up to the one asked for, that still has at least
//! [`MIN_BEYOND`] samples above it. A "p99" over 400 rounds therefore
//! reads as p97.25: the tail the sample can actually support.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// One percentile read from a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample value at the chosen rank.
    pub value: f64,
    /// The percentile actually reported (at most the one asked for).
    pub pct: f64,
    /// Sample count.
    pub n: usize,
}

/// The `want`-th percentile of `samples` by nearest rank, lowered to
/// the highest rank with at least [`MIN_BEYOND`] samples above it.
/// `None` when no rank has that many samples above it.
pub fn percentile(samples: &[f64], want: f64) -> Option<Percentile> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let wanted_rank = ((want / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = wanted_rank.min(n - MIN_BEYOND);
    Some(Percentile {
        value: sorted[rank - 1],
        pct: 100.0 * rank as f64 / n as f64,
        n,
    })
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median by the usual midpoint rule (0 for an empty sample); used for
/// the set-up repetitions, which are too few for [`percentile`].
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the helper must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn large_samples_get_the_percentile_asked_for() {
        let p = percentile(&ramp(1000), 99.0).unwrap();
        assert_eq!((p.value, p.pct, p.n), (990.0, 99.0, 1000));
        let p = percentile(&ramp(1000), 50.0).unwrap();
        assert_eq!((p.value, p.pct), (500.0, 50.0));
    }

    #[test]
    fn small_samples_fall_back_to_the_highest_rank_with_ten_beyond() {
        // p99 of 100 samples has one sample beyond it; p90 has ten.
        let p = percentile(&ramp(100), 99.0).unwrap();
        assert_eq!((p.value, p.pct, p.n), (90.0, 90.0, 100));
        let beyond = ramp(100).iter().filter(|&&v| v > p.value).count();
        assert_eq!(beyond, MIN_BEYOND);
        // The median of 21 samples has exactly ten beyond it.
        let p = percentile(&ramp(21), 50.0).unwrap();
        assert_eq!((p.value, p.n), (11.0, 21));
        // p50 of 15 samples is lowered to rank 5.
        let p = percentile(&ramp(15), 50.0).unwrap();
        assert_eq!(p.value, 5.0);
        assert!((p.pct - 100.0 * 5.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn too_few_samples_have_no_percentile() {
        assert_eq!(percentile(&ramp(10), 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert!(percentile(&ramp(11), 1.0).is_some());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
