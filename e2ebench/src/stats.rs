//! Order statistics and the model digest.
//!
//! Selection rules (pinned by the tests below, quoted in the README):
//! * `median` is Python's `statistics.median`: the middle sample, or the
//!   mean of the two middle samples when the count is even;
//! * `percentile` is nearest-rank: the `ceil(q * n)`-th smallest sample,
//!   so it is always a value that was actually measured;
//! * `quartiles` is Python's `statistics.quantiles(v, n=4)` (exclusive
//!   method), because that is what the driver computes the spread with.

/// Median of `v` (empty input yields 0).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of already **sorted** samples, `q` in `(0, 1]`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile, exclusive method (needs two samples).
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, linearly interpolated.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a percentage of the median.
pub fn spread_pct(v: &[f64]) -> f64 {
    let m = median(v);
    if v.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(v);
    (q3 - q1) / m * 100.0
}

/// Mean of the slowest 0.5 % of the recorded latencies (at least one
/// sample), in ns: the `model_tail_ms` of the simulated workloads.
///
/// `Histogram::quantile` buckets values to 1/32 relative resolution, so a
/// single percentile reads the same bucket edge on every seed (p99 of the
/// fleet's admit-to-install latency is 247.463935 ms on all of them) or
/// sits on a cliff (the same p99 under chaos: 755 to 1107 ms); the exact
/// maximum is one sample (1.6 to 2.6 s under chaos). The tail mean averages
/// a dozen to a few hundred order statistics, each read at its bucket's
/// upper edge capped by the exact maximum. Over 40 chaos seeds the slowest
/// 0.5 % was the steadiest tail tried: deeper than the share of installs a
/// fault delays (about 1.5 %), so it stays off the cliff.
pub fn tail_mean_ns(h: &workloads::Histogram) -> u64 {
    let n = h.count();
    if n == 0 {
        return 0;
    }
    let k = n.div_ceil(200);
    let sum: u128 = (n - k + 1..=n)
        // The half-rank offset makes `ceil(q * n)` land on rank `r` exactly.
        .map(|r| (r as f64 - 0.5) / n as f64)
        .filter_map(|q| h.quantile(q))
        .map(|v| u128::from(v.as_nanos()))
        .sum();
    (sum / u128::from(k)) as u64
}

/// FNV-1a over 64-bit words (byte-wise, little endian): the model digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_middle_or_the_mean_of_the_two_middles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank_on_measured_samples() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        // 10 samples: p99 is the maximum, p50 the fifth smallest.
        let s: Vec<u64> = (1..=10).map(|x| x * 10).collect();
        assert_eq!(percentile(&s, 0.99), 100);
        assert_eq!(percentile(&s, 0.5), 50);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]);
        assert_eq!((q1, q3), (10.0, 40.0));
        assert!((spread_pct(&v) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn tail_mean_averages_the_slowest_half_percent() {
        use rtsched::time::Nanos;
        let mut h = workloads::Histogram::new();
        assert_eq!(tail_mean_ns(&h), 0);
        // 600 samples of 1..=30 ns (exact buckets): the slowest 3 are 30s.
        for v in 1..=30u64 {
            for _ in 0..20 {
                h.record(Nanos(v));
            }
        }
        assert_eq!(tail_mean_ns(&h), 30);
        // 601 samples: the slowest 4, one of them the new maximum.
        h.record(Nanos(31));
        assert_eq!(tail_mean_ns(&h), (31 + 30 * 3) / 4);
    }

    #[test]
    fn fnv_matches_the_reference_vector_and_is_order_sensitive() {
        // FNV-1a of eight zero bytes.
        let mut h = Fnv::new();
        h.word(0);
        assert_eq!(h.finish(), 0xa8c7_f832_281a_39c5);
        let mut a = Fnv::new();
        a.words(&[1, 2]);
        let mut b = Fnv::new();
        b.words(&[2, 1]);
        assert_ne!(a.finish(), b.finish());
    }
}
