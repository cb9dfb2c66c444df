//! Hyperperiod-bounded period selection (Sec. 5 of the paper).
//!
//! A table-driven dispatcher needs the schedule to repeat after the
//! hyperperiod — the least common multiple of all task periods. Picking
//! periods indiscriminately can make the hyperperiod (and thus the table)
//! astronomically large. Tableau instead fixes a *maximum hyperperiod*
//! `H = 102,702,600 ns` (~102.7 ms), chosen because it has many integer
//! divisors above the 100 µs enforceability threshold, and restricts every
//! task's period to a divisor of `H`.
//!
//! The paper reports 186 divisors above 100 µs; [`PeriodCandidates::standard`]
//! computes exactly that set (a unit test pins the count).

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::time::Nanos;

/// Tableau's maximum hyperperiod: 102,702,600 ns (~102.7 ms).
///
/// `102,702,600 = 2^3 * 3^3 * 5^2 * 7 * 11 * 13 * 19`, which yields 768
/// divisors in total, 186 of which are at least 100 µs.
pub const STANDARD_HYPERPERIOD: Nanos = Nanos(102_702_600);

/// The smallest period the dispatcher can reasonably enforce (100 µs).
///
/// Periods below this would make per-slot overheads dominate.
pub const MIN_ENFORCEABLE_PERIOD: Nanos = Nanos(100_000);

/// Returns all divisors of `n`, in ascending order.
///
/// Trial division up to `sqrt(n)`; `n` is at most ~1e8 in practice, so this
/// is instantaneous and needs no factorization cleverness.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn divisors(n: u64) -> Vec<u64> {
    assert!(n > 0, "divisors of zero are undefined");
    let mut small = Vec::new();
    let mut large = Vec::new();
    let mut d = 1u64;
    while d * d <= n {
        if n.is_multiple_of(d) {
            small.push(d);
            if d * d != n {
                large.push(n / d);
            }
        }
        d += 1;
    }
    large.reverse();
    small.extend(large);
    small
}

/// The set of candidate periods the planner may assign: the divisors of the
/// hyperperiod that are at least as long as the enforceability threshold.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeriodCandidates {
    hyperperiod: Nanos,
    /// Candidate periods in ascending order.
    periods: Vec<Nanos>,
}

impl PeriodCandidates {
    /// Builds the candidate set for a given hyperperiod and minimum period.
    ///
    /// # Panics
    ///
    /// Panics if no divisor of `hyperperiod` is `>= min_period` (the
    /// hyperperiod itself is always a divisor, so this only fires when
    /// `min_period > hyperperiod`).
    pub fn new(hyperperiod: Nanos, min_period: Nanos) -> PeriodCandidates {
        let periods: Vec<Nanos> = divisors(hyperperiod.as_nanos())
            .into_iter()
            .map(Nanos)
            .filter(|&p| p >= min_period)
            .collect();
        assert!(
            !periods.is_empty(),
            "no candidate period >= {min_period} divides {hyperperiod}"
        );
        PeriodCandidates {
            hyperperiod,
            periods,
        }
    }

    /// The standard Tableau candidate set: divisors of
    /// [`STANDARD_HYPERPERIOD`] that are at least [`MIN_ENFORCEABLE_PERIOD`].
    /// The planner's one period menu, built once per process.
    pub fn standard() -> &'static PeriodCandidates {
        static STANDARD: OnceLock<PeriodCandidates> = OnceLock::new();
        STANDARD.get_or_init(|| PeriodCandidates::new(STANDARD_HYPERPERIOD, MIN_ENFORCEABLE_PERIOD))
    }

    /// Returns the hyperperiod all candidates divide.
    pub fn hyperperiod(&self) -> Nanos {
        self.hyperperiod
    }

    /// Returns the candidate periods in ascending order.
    pub fn periods(&self) -> &[Nanos] {
        &self.periods
    }

    /// Returns the largest candidate period `<= bound`, if any.
    pub fn largest_at_most(&self, bound: Nanos) -> Option<Nanos> {
        match self.periods.partition_point(|&p| p <= bound) {
            0 => None,
            i => Some(self.periods[i - 1]),
        }
    }

    /// Returns the smallest candidate period (the best-effort fallback when
    /// a latency goal is too tight for any candidate).
    pub fn smallest(&self) -> Nanos {
        self.periods[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divisors_of_small_numbers() {
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(49), vec![1, 7, 49]);
        assert_eq!(divisors(97), vec![1, 97]); // prime
    }

    #[test]
    fn divisors_are_sorted_and_divide() {
        let ds = divisors(STANDARD_HYPERPERIOD.as_nanos());
        assert!(ds.windows(2).all(|w| w[0] < w[1]));
        assert!(ds
            .iter()
            .all(|d| STANDARD_HYPERPERIOD.as_nanos().is_multiple_of(*d)));
    }

    #[test]
    fn standard_hyperperiod_factorization() {
        // 102,702,600 = 2^3 * 3^3 * 5^2 * 7 * 11 * 13 * 19.
        let n = 8u64 * 27 * 25 * 7 * 11 * 13 * 19;
        assert_eq!(n, STANDARD_HYPERPERIOD.as_nanos());
    }

    #[test]
    fn paper_reports_186_candidates_above_100us() {
        // Sec. 5: "a large number of integer divisors (186) above the 100us
        // threshold".
        let cands = PeriodCandidates::standard();
        assert_eq!(cands.periods().len(), 186);
        assert!(cands.periods().iter().all(|&p| p >= Nanos(100_000)));
    }

    #[test]
    fn largest_at_most_picks_correctly() {
        let cands = PeriodCandidates::standard();
        // The hyperperiod itself is the largest candidate.
        assert_eq!(
            cands.largest_at_most(STANDARD_HYPERPERIOD),
            Some(STANDARD_HYPERPERIOD)
        );
        // Anything below the smallest candidate yields none.
        assert_eq!(cands.largest_at_most(Nanos(99_999)), None);
        // A bound strictly between candidates returns the lower neighbour.
        let p = cands.largest_at_most(Nanos::from_millis(13)).unwrap();
        assert!(p <= Nanos::from_millis(13));
        assert_eq!(STANDARD_HYPERPERIOD.as_nanos() % p.as_nanos(), 0);
        // It is in fact the *largest* such divisor.
        let next_bigger = cands
            .periods()
            .iter()
            .find(|&&q| q > p)
            .copied()
            .expect("13 ms is not the top candidate");
        assert!(next_bigger > Nanos::from_millis(13));
    }

    #[test]
    fn smallest_candidate_is_at_least_threshold() {
        let cands = PeriodCandidates::standard();
        assert!(cands.smallest() >= MIN_ENFORCEABLE_PERIOD);
        // The smallest divisor of H above 100,000 ns.
        assert_eq!(
            STANDARD_HYPERPERIOD.as_nanos() % cands.smallest().as_nanos(),
            0
        );
    }

    #[test]
    fn custom_candidate_sets() {
        let c = PeriodCandidates::new(Nanos(100), Nanos(10));
        assert_eq!(
            c.periods(),
            &[Nanos(10), Nanos(20), Nanos(25), Nanos(50), Nanos(100)]
        );
        assert_eq!(c.largest_at_most(Nanos(24)), Some(Nanos(20)));
        assert_eq!(c.smallest(), Nanos(10));
    }
}
