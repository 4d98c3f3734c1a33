//! Order statistics and rank agreement for the benchmark's reports.

/// Samples a reported percentile must leave beyond it: a tail figure
/// resting on fewer than this many observations is noise.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, when the requested one has too few
/// samples beyond it.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of percentile `p` in `n` samples: the smallest
/// rank whose cumulative share reaches `p`.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error in `p` (99.9 is not exact in binary)
    // from pushing an integral rank up by one.
    let rank = (p / 100.0 * n as f64 - 1e-6).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of an ascending sample; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// The highest percentile no greater than `target` that leaves at least
/// [`MIN_BEYOND`] of `n` samples strictly above its rank, or `None` when
/// even the median does not.
pub fn tail_percentile(n: usize, target: f64) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= target)
        .find(|&p| n >= MIN_BEYOND && n - nearest_rank(n, p) >= MIN_BEYOND)
}

/// Latency histogram with memory independent of the sample count, so a
/// faster engine (more samples per run) does not show as more resident
/// memory. Values below 1024 ns are kept exactly; larger ones fall into
/// log-linear buckets 1/512 of their magnitude wide (under 0.2% error).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

const EXACT: u64 = 1 << 10;
const HALF: u64 = EXACT / 2;

impl Hist {
    fn index(v: u64) -> usize {
        if v < EXACT {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - 9;
        (EXACT + u64::from(shift - 1) * HALF + ((v >> shift) - HALF)) as usize
    }

    /// Midpoint of bucket `idx`.
    fn value(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < EXACT {
            return idx;
        }
        let shift = (idx - EXACT) / HALF + 1;
        let lower = ((idx - EXACT) % HALF + HALF) << shift;
        lower + (1 << shift) / 2
    }

    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        let i = Self::index(v);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Nearest-rank percentile `p`; `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.n == 0 {
            return None;
        }
        let rank = nearest_rank(self.n as usize, p) as u64;
        let mut seen = 0u64;
        self.counts
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank
            })
            .map(Self::value)
    }
}

/// Median of `values` (nearest rank on the sorted copy); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0).unwrap_or(0.0)
}

/// Kendall's tau-b between paired samples: +1 when both order the pairs
/// alike, -1 when reversed. Ties are corrected for; 0 when either side
/// has no spread or there are fewer than two pairs.
pub fn kendall_tau(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "kendall_tau needs paired samples");
    let (mut concordant, mut discordant, mut ties_x, mut ties_y) = (0i64, 0i64, 0i64, 0i64);
    for i in 0..xs.len() {
        for j in i + 1..xs.len() {
            let dx = xs[i].total_cmp(&xs[j]) as i64;
            let dy = ys[i].total_cmp(&ys[j]) as i64;
            match (dx, dy) {
                (0, 0) => {}
                (0, _) => ties_x += 1,
                (_, 0) => ties_y += 1,
                _ if dx == dy => concordant += 1,
                _ => discordant += 1,
            }
        }
    }
    let denom =
        (((concordant + discordant + ties_x) * (concordant + discordant + ties_y)) as f64).sqrt();
    if denom == 0.0 {
        0.0
    } else {
        (concordant - discordant) as f64 / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), Some(50.0));
        assert_eq!(percentile(&sorted, 99.0), Some(99.0));
        assert_eq!(percentile(&sorted, 100.0), Some(100.0));
        assert_eq!(percentile(&sorted, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Rank ceil(0.9 * 5) = 5: nearest rank never interpolates.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 90.0), Some(5.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(100_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(10_000, 99.9), Some(99.9));
        // 999 samples: rank 990 leaves 9 above, so p99 is refused.
        assert_eq!(tail_percentile(999, 99.0), Some(95.0));
        assert_eq!(tail_percentile(100, 99.0), Some(90.0));
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
        assert_eq!(tail_percentile(19, 99.0), None);
        assert_eq!(tail_percentile(0, 99.0), None);
        for n in [20, 57, 200, 999, 1000, 4321] {
            let p = tail_percentile(n, 99.0).expect("enough samples");
            assert!(n - nearest_rank(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn histogram_percentiles_are_nearest_rank() {
        let mut h = Hist::default();
        for v in (1..=100).rev() {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(50.0), Some(50));
        assert_eq!(h.percentile(99.0), Some(99));
        assert_eq!(Hist::default().percentile(50.0), None);
        let mut big = Hist::default();
        for v in [1_500u64, 37_000, 2_000_000, 9_876_543_210] {
            big.record(v);
            let got = big.percentile(100.0).expect("non-empty") as f64;
            assert!((got - v as f64).abs() / v as f64 <= 0.002, "{v} -> {got}");
        }
        let mut merged = h.clone();
        merged.merge(&big);
        assert_eq!(merged.count(), 104);
        assert_eq!(merged.percentile(1.0), Some(2));
        // Every index maps back into its own bucket.
        for v in (0..20)
            .map(|k| 1u64 << k)
            .chain([1023, 1024, 1025, 4095, 123_456_789])
        {
            assert_eq!(
                Hist::index(Hist::value(Hist::index(v))),
                Hist::index(v),
                "{v}"
            );
        }
    }

    #[test]
    fn median_of_unsorted() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn kendall_tau_extremes_and_ties() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(kendall_tau(&x, &[10.0, 20.0, 30.0, 40.0]), 1.0);
        assert_eq!(kendall_tau(&x, &[4.0, 3.0, 2.0, 1.0]), -1.0);
        assert_eq!(kendall_tau(&x, &[1.0, 1.0, 1.0, 1.0]), 0.0);
        assert_eq!(kendall_tau(&[1.0], &[2.0]), 0.0);
        // One swapped pair of six: (5 - 1) / 6.
        let tau = kendall_tau(&x, &[1.0, 3.0, 2.0, 4.0]);
        assert!((tau - 4.0 / 6.0).abs() < 1e-12);
        // tau-b tie correction: C=2, D=0, one tie in y -> 2 / sqrt(3 * 2).
        let tau = kendall_tau(&[1.0, 2.0, 3.0], &[1.0, 1.0, 2.0]);
        assert!((tau - 2.0 / 6f64.sqrt()).abs() < 1e-12);
    }
}
