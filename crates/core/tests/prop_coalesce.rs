//! Holds the one-pass sliver coalescing to the rescanning routine it
//! replaced.
//!
//! [`coalesce_with`] settles a core's slivers in one left-to-right pass,
//! keeping the finished prefix as a stack; [`oracle::coalesce_with`] finds
//! the first sliver, settles it, removes it from the middle of the list,
//! re-merges the whole list and starts over from the front. The planner's
//! tables (and every `CoalesceReport` a plan carries) are only as
//! deterministic as the two are equal, so the contract is exact: the same
//! allocations, the same `lost` list in the same order, the same `removed`
//! count. The lists cover touching and isolated slivers, runs of one vCPU
//! that merge before anything is settled, slivers whose donation grows a
//! neighbour that is itself a sliver, donations that leave two pieces of
//! one vCPU touching, neighbours that may not be extended (a vCPU split
//! across cores), zero-length allocations, and allocations exactly at,
//! one below and one above the threshold, including a zero threshold.

use proptest::prelude::*;

use rtsched::time::Nanos;
use tableau_core::postprocess::{coalesce_with, CoalesceReport};
use tableau_core::table::Allocation;
use tableau_core::vcpu::VcpuId;

/// The coalescing routine as it was before the one-pass rewrite, kept
/// verbatim as the reference.
mod oracle {
    use super::*;

    fn record_loss(report: &mut CoalesceReport, vcpu: VcpuId, amount: Nanos) {
        match report.lost.iter_mut().find(|(v, _)| *v == vcpu) {
            Some((_, t)) => *t += amount,
            None => report.lost.push((vcpu, amount)),
        }
    }

    /// Merges adjacent allocations of the same vCPU in place.
    fn merge_adjacent(allocs: &mut Vec<Allocation>) -> usize {
        let before = allocs.len();
        let mut merged: Vec<Allocation> = Vec::with_capacity(allocs.len());
        for a in allocs.drain(..) {
            match merged.last_mut() {
                Some(last) if last.end == a.start && last.vcpu == a.vcpu => last.end = a.end,
                _ => merged.push(a),
            }
        }
        *allocs = merged;
        before - allocs.len()
    }

    pub fn coalesce_with(
        allocs: &mut Vec<Allocation>,
        threshold: Nanos,
        may_extend: impl Fn(VcpuId) -> bool,
    ) -> CoalesceReport {
        let mut report = CoalesceReport::default();
        report.removed += merge_adjacent(allocs);

        while let Some(idx) = allocs.iter().position(|a| a.len() < threshold) {
            let sliver = allocs[idx];
            let prev_adjacent =
                idx > 0 && allocs[idx - 1].end == sliver.start && may_extend(allocs[idx - 1].vcpu);
            let next_adjacent = idx + 1 < allocs.len()
                && allocs[idx + 1].start == sliver.end
                && may_extend(allocs[idx + 1].vcpu);

            let donate_to_prev = match (prev_adjacent, next_adjacent) {
                (true, true) => allocs[idx - 1].len() >= allocs[idx + 1].len(),
                (true, false) => true,
                (false, _) => false,
            };

            if donate_to_prev {
                allocs[idx - 1].end = sliver.end;
            } else if next_adjacent {
                allocs[idx + 1].start = sliver.start;
            }
            allocs.remove(idx);
            record_loss(&mut report, sliver.vcpu, sliver.len());
            report.removed += 1;
            report.removed += merge_adjacent(allocs);
        }
        report
    }
}

/// One allocation's random part: `(gap kind, length kind, vCPU)`.
type Piece = (u8, u64, u32);

/// Lays the pieces out in order. Gaps are mostly zero (touching
/// neighbours); lengths are drawn around `threshold`, with a share exactly
/// at it and one off it either way.
fn lay_out(threshold: u64, pieces: &[Piece]) -> Vec<Allocation> {
    let mut t = 0;
    pieces
        .iter()
        .map(|&(gap, len, vcpu)| {
            t += [0, 0, 0, 1, 9][gap as usize];
            let len = match len {
                0..=39 => len,
                40..=43 => threshold,
                44..=45 => threshold.saturating_sub(1),
                _ => threshold + 1,
            };
            let a = Allocation {
                start: Nanos(t),
                end: Nanos(t + len),
                vcpu: VcpuId(vcpu),
            };
            t += len;
            a
        })
        .collect()
}

/// Runs both routines on `allocs` and requires equal results.
fn assert_same(allocs: Vec<Allocation>, threshold: Nanos, protected: u8) {
    let may_extend = |v: VcpuId| (protected >> v.0) & 1 == 0;
    let (mut got, mut want) = (allocs.clone(), allocs.clone());
    let got_report = coalesce_with(&mut got, threshold, may_extend);
    let want_report = oracle::coalesce_with(&mut want, threshold, may_extend);
    assert_eq!(got, want, "allocations of {allocs:?} at {threshold}");
    assert_eq!(
        got_report, want_report,
        "report of {allocs:?} at {threshold}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_pass_coalescing_matches_the_rescanning_oracle(
        threshold in 0u64..=24,
        pieces in proptest::collection::vec((0u8..5, 0u64..48, 0u32..5), 0..=24),
        protected in any::<u8>(),
    ) {
        assert_same(lay_out(threshold, &pieces), Nanos(threshold), protected);
    }

    #[test]
    fn one_pass_coalescing_matches_on_sliver_runs(
        pieces in proptest::collection::vec((0u8..4, 0u64..12, 0u32..3), 0..=40),
        protected in 0u8..8,
    ) {
        // Mostly slivers of three vCPUs, mostly touching: long chains of
        // donations, merges and re-merges.
        assert_same(lay_out(10, &pieces), Nanos(10), protected);
    }
}

#[test]
fn a_donation_into_a_sliver_is_settled_in_turn() {
    // v1 [0, 5) goes to v2, its only neighbour, which is still
    // a sliver at 8 ns and goes on to v3; v3 then touches v4's protected
    // piece and nothing merges.
    let a = |s, e, v| Allocation {
        start: Nanos(s),
        end: Nanos(e),
        vcpu: VcpuId(v),
    };
    let allocs = vec![a(0, 5, 1), a(5, 8, 2), a(8, 40, 3), a(40, 60, 4)];
    assert_same(allocs.clone(), Nanos(10), 1 << 4);
    let mut got = allocs;
    let report = coalesce_with(&mut got, Nanos(10), |v| v != VcpuId(4));
    assert_eq!(got, vec![a(0, 40, 3), a(40, 60, 4)]);
    assert_eq!(
        report.lost,
        vec![(VcpuId(1), Nanos(5)), (VcpuId(2), Nanos(8))]
    );
    assert_eq!(report.removed, 2);
}
