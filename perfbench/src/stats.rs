//! Order statistics over measured samples.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond it; otherwise the figure would be set by a handful
//! of outliers and two runs of the same code would disagree.

use std::fmt;

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile was asked of too few samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TooFewSamples {
    /// The percentile asked for.
    pub pct: u32,
    /// How many samples there were.
    pub samples: usize,
    /// How many lie beyond the percentile.
    pub beyond: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} of {} samples leaves {} beyond it (need {MIN_BEYOND})",
            self.pct, self.samples, self.beyond
        )
    }
}

/// Samples beyond the `pct`-th percentile of `n` samples (nearest-rank).
fn beyond(n: usize, pct: u32) -> usize {
    n - rank(n, pct)
}

/// 1-based nearest-rank index of the `pct`-th percentile.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).max(1)
}

/// The `pct`-th percentile (nearest rank) of `samples`, refused unless at
/// least [`MIN_BEYOND`] samples lie beyond it.
///
/// # Errors
///
/// [`TooFewSamples`] when the tail is too thin to report.
pub fn percentile(samples: &[f64], pct: u32) -> Result<f64, TooFewSamples> {
    let n = samples.len();
    if n == 0 || beyond(n, pct) < MIN_BEYOND {
        return Err(TooFewSamples {
            pct,
            samples: n,
            beyond: if n == 0 { 0 } else { beyond(n, pct) },
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank(n, pct) - 1])
}

/// The median of `samples` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The largest of `samples`.
#[must_use]
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// A log-bucketed latency histogram in nanoseconds: 64 sub-buckets per
/// power of two, so a reported percentile is within 1.6% of the true
/// sample. Fixed size, so millions of acquires cost no allocation.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; 64 * SUB],
            total: 0,
        }
    }
}

impl Histogram {
    fn bucket(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let shift = exp - SUB_BITS;
        let sub = ((ns >> shift) as usize) & (SUB - 1);
        ((shift + 1) as usize) * SUB + sub
    }

    /// The upper edge of bucket `b`, in nanoseconds.
    fn upper(b: usize) -> u64 {
        if b < SUB {
            return b as u64;
        }
        let shift = (b / SUB - 1) as u32;
        let sub = (b % SUB) as u64;
        ((SUB as u64 + sub + 1) << shift) - 1
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `pct`-th percentile in nanoseconds (bucket upper edge), with
    /// the same thin-tail refusal as [`percentile`].
    ///
    /// # Errors
    ///
    /// [`TooFewSamples`] when fewer than [`MIN_BEYOND`] samples lie
    /// beyond the percentile.
    pub fn percentile(&self, pct: u32) -> Result<f64, TooFewSamples> {
        let n = usize::try_from(self.total).expect("sample count fits in usize");
        if n == 0 || beyond(n, pct) < MIN_BEYOND {
            return Err(TooFewSamples {
                pct,
                samples: n,
                beyond: if n == 0 { 0 } else { beyond(n, pct) },
            });
        }
        let want = rank(n, pct) as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= want {
                return Ok(Self::upper(b) as f64);
            }
        }
        unreachable!("rank {want} is within the {n} recorded samples")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        let err = percentile(&ninety_nine, 90).unwrap_err();
        assert!(err.beyond < MIN_BEYOND, "{err}");
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90), Ok(90.0));
        assert!(percentile(&hundred, 99).is_err());
        assert!(percentile(&[], 50).is_err());
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99), Ok(990.0));
    }

    #[test]
    fn histogram_refuses_a_thin_tail_and_tracks_percentiles() {
        let mut h = Histogram::default();
        for ns in 1..=99u64 {
            h.record(ns * 1000);
        }
        assert!(h.percentile(90).is_err());
        h.record(100_000);
        let p90 = h.percentile(90).unwrap();
        assert!((p90 - 90_000.0).abs() / 90_000.0 < 0.02, "{p90}");
        let p50 = h.percentile(50).unwrap();
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.02, "{p50}");
    }

    #[test]
    fn histogram_buckets_are_monotone() {
        let mut last = 0;
        for ns in (0..2_000_000u64).step_by(997) {
            let b = Histogram::bucket(ns);
            assert!(b >= last);
            assert!(Histogram::upper(b) >= ns, "{ns} above its bucket edge");
            last = b;
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
