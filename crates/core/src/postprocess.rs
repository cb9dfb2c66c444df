//! Table post-processing: coalescing un-enforceable slivers (Sec. 5,
//! "Post-processing").
//!
//! Context-switching a vCPU costs a few microseconds; an allocation shorter
//! than that cannot be meaningfully enforced — by the time the vCPU is
//! switched in, the interval is over. The planner therefore coalesces
//! allocations below a threshold into a neighboring allocation: a contiguous
//! neighbor absorbs the sliver's interval (the neighbor's vCPU gets a few
//! extra microseconds; the sliver's vCPU loses them), and isolated slivers
//! are dropped to idle time (where the second-level scheduler can still use
//! them). The lost service per vCPU is tracked and reported — it is bounded
//! by `threshold` per occurrence and is orders of magnitude below the
//! reservation granularity.
//!
//! Coalescing also merges adjacent allocations of the same vCPU, which both
//! shrinks the table and *lengthens* the shortest allocation — and the
//! shortest allocation determines the slice width, so coalescing directly
//! reduces slice-table memory (Fig. 4's table sizes include this effect).

use rtsched::time::Nanos;

use crate::table::Allocation;
use crate::vcpu::VcpuId;

/// The planner's coalescing threshold: allocations shorter than 20 µs are
/// impossible to enforce given context-switch costs of a few µs. A
/// constant of the planner, not an option (`coalesce` and `coalesce_with`
/// still take any threshold).
pub const DEFAULT_THRESHOLD: Nanos = Nanos(20_000);

/// What coalescing did to one core's allocation list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoalesceReport {
    /// Service lost per vCPU (donated to a neighbor or dropped to idle).
    pub lost: Vec<(VcpuId, Nanos)>,
    /// Number of allocations removed (merged or dropped).
    pub removed: usize,
}

impl CoalesceReport {
    fn record_loss(&mut self, vcpu: VcpuId, amount: Nanos) {
        match self.lost.iter_mut().find(|(v, _)| *v == vcpu) {
            Some((_, t)) => *t += amount,
            None => self.lost.push((vcpu, amount)),
        }
    }

    /// Total service lost across all vCPUs.
    pub fn total_lost(&self) -> Nanos {
        self.lost.iter().map(|&(_, t)| t).sum()
    }

    /// Merges another report into this one.
    pub fn absorb(&mut self, other: &CoalesceReport) {
        for &(v, t) in &other.lost {
            self.record_loss(v, t);
        }
        self.removed += other.removed;
    }

    /// The same report with every vCPU id substituted through `f`.
    ///
    /// Used when a donated core's coalescing result is carried over under
    /// the request's vCPU ids (the planner's donor path; a leave shifts
    /// later ids down): the donated/dropped intervals are positionally the same, only
    /// the owners differ. Returns `None` if `f` has no substitute for some
    /// vCPU — the caller then declines that core and builds it fresh.
    pub fn relabel(&self, f: impl Fn(VcpuId) -> Option<VcpuId>) -> Option<CoalesceReport> {
        Some(CoalesceReport {
            lost: self
                .lost
                .iter()
                .map(|&(v, t)| f(v).map(|v2| (v2, t)))
                .collect::<Option<_>>()?,
            removed: self.removed,
        })
    }
}

/// Coalesces sub-threshold allocations on one core, donating only to
/// vCPUs for which `may_extend` returns `true`.
///
/// Extending an allocation is only safe for vCPUs whose service lives
/// entirely on this core: a vCPU split across cores has another piece
/// starting exactly where this one ends, and growing this one would make
/// the vCPU "run" on two cores at once. The planner passes
/// `|v| !split.contains(v)`; slivers that cannot be donated are dropped to
/// idle time instead.
///
/// Adjacent allocations of one vCPU are merged first, then the slivers are
/// settled left to right, each against its neighbours as they stand by
/// then. One pass does it: the finished prefix is kept as a stack in the
/// front of the list. A donation only lengthens a neighbour and a merge
/// only joins one, so nothing left of a sliver becomes a sliver again; the
/// right neighbour a sliver donates to is settled next, like any other.
pub fn coalesce_with(
    allocs: &mut Vec<Allocation>,
    threshold: Nanos,
    may_extend: impl Fn(VcpuId) -> bool,
) -> CoalesceReport {
    let mut report = CoalesceReport::default();
    // `allocs[..done]` is finished, `allocs[read..]` not yet read, and
    // `pending` the allocation next in line when a sliver's handling has
    // read it already.
    let (mut done, mut read) = (0usize, 0usize);
    let mut pending: Option<Allocation> = None;
    // The allocation at `read`, merged with the same vCPU's touching
    // followers.
    let read_next = |allocs: &[Allocation], read: &mut usize, removed: &mut usize| {
        let mut a = *allocs.get(*read)?;
        *read += 1;
        while let Some(b) = allocs
            .get(*read)
            .filter(|b| b.start == a.end && b.vcpu == a.vcpu)
        {
            a.end = b.end;
            *read += 1;
            *removed += 1;
        }
        Some(a)
    };
    while let Some(cur) = pending
        .take()
        .or_else(|| read_next(allocs, &mut read, &mut report.removed))
    {
        if cur.len() >= threshold {
            allocs[done] = cur;
            done += 1;
            continue;
        }
        // A sliver. Contiguous neighbours may absorb the interval; prefer
        // the longer one (it is the more established reservation and
        // keeps slice sizes large). Split vCPUs may never be extended (see
        // docs).
        let prev = done.checked_sub(1);
        let mut next = read_next(allocs, &mut read, &mut report.removed);
        let prev_adjacent =
            prev.is_some_and(|p| allocs[p].end == cur.start && may_extend(allocs[p].vcpu));
        let next_adjacent = next.is_some_and(|b| b.start == cur.end && may_extend(b.vcpu));
        let donate_to_prev = match (prev, next) {
            (Some(p), Some(b)) if prev_adjacent && next_adjacent => allocs[p].len() >= b.len(),
            _ => prev_adjacent,
        };
        if donate_to_prev {
            allocs[done - 1].end = cur.end;
        } else if let Some(b) = next.as_mut().filter(|_| next_adjacent) {
            b.start = cur.start;
        }
        // Isolated (or undonatable) slivers simply become idle time.
        report.record_loss(cur.vcpu, cur.len());
        report.removed += 1;
        // A donation can leave the neighbours touching; one vCPU's two
        // pieces then merge into the finished one.
        match (prev, next) {
            (Some(p), Some(b)) if allocs[p].end == b.start && allocs[p].vcpu == b.vcpu => {
                allocs[p].end = b.end;
                report.removed += 1;
            }
            _ => pending = next,
        }
    }
    allocs.truncate(done);
    report
}

/// Coalesces sub-threshold allocations on one core, donating to any
/// neighbor (safe when no vCPU on the core is split across cores).
///
/// The list must be sorted and non-overlapping (as produced by the
/// generators). Donations can create new adjacency; the pass merges it as
/// it goes (see [`coalesce_with`]), so the result has no sliver and no two
/// touching allocations of one vCPU.
///
/// # Examples
///
/// ```
/// use rtsched::time::Nanos;
/// use tableau_core::postprocess::{coalesce, DEFAULT_THRESHOLD};
/// use tableau_core::table::Allocation;
/// use tableau_core::vcpu::VcpuId;
///
/// let us = Nanos::from_micros;
/// let mut allocs = vec![
///     Allocation { start: us(0), end: us(500), vcpu: VcpuId(0) },
///     Allocation { start: us(500), end: us(510), vcpu: VcpuId(1) }, // 10 us sliver
///     Allocation { start: us(510), end: us(900), vcpu: VcpuId(2) },
/// ];
/// let report = coalesce(&mut allocs, DEFAULT_THRESHOLD);
/// assert_eq!(allocs.len(), 2);
/// assert_eq!(report.total_lost(), us(10));
/// ```
pub fn coalesce(allocs: &mut Vec<Allocation>, threshold: Nanos) -> CoalesceReport {
    coalesce_with(allocs, threshold, |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Nanos {
        Nanos::from_micros(v)
    }

    fn alloc(s: u64, e: u64, v: u32) -> Allocation {
        Allocation {
            start: us(s),
            end: us(e),
            vcpu: VcpuId(v),
        }
    }

    #[test]
    fn merges_adjacent_same_vcpu() {
        let mut a = vec![alloc(0, 100, 0), alloc(100, 200, 0), alloc(200, 300, 1)];
        let r = coalesce(&mut a, us(20));
        assert_eq!(a, vec![alloc(0, 200, 0), alloc(200, 300, 1)]);
        assert_eq!(r.total_lost(), Nanos::ZERO);
        assert_eq!(r.removed, 1);
    }

    #[test]
    fn sliver_donated_to_longer_neighbor() {
        let mut a = vec![alloc(0, 300, 0), alloc(300, 310, 1), alloc(310, 400, 2)];
        let r = coalesce(&mut a, us(20));
        // Prev (300 us) is longer than next (90 us): prev absorbs.
        assert_eq!(a, vec![alloc(0, 310, 0), alloc(310, 400, 2)]);
        assert_eq!(r.lost, vec![(VcpuId(1), us(10))]);
    }

    #[test]
    fn sliver_donated_to_next_when_longer() {
        let mut a = vec![alloc(0, 50, 0), alloc(50, 60, 1), alloc(60, 400, 2)];
        coalesce(&mut a, us(20));
        assert_eq!(a, vec![alloc(0, 50, 0), alloc(50, 400, 2)]);
    }

    #[test]
    fn isolated_sliver_dropped_to_idle() {
        let mut a = vec![alloc(0, 100, 0), alloc(500, 510, 1), alloc(900, 1000, 2)];
        let r = coalesce(&mut a, us(20));
        assert_eq!(a.len(), 2);
        assert_eq!(r.lost, vec![(VcpuId(1), us(10))]);
    }

    #[test]
    fn donation_can_trigger_same_vcpu_merge() {
        // After vCPU 0 absorbs the sliver, it becomes adjacent to its own
        // next allocation and the two merge.
        let mut a = vec![alloc(0, 300, 0), alloc(300, 310, 1), alloc(310, 500, 0)];
        let r = coalesce(&mut a, us(20));
        assert_eq!(a, vec![alloc(0, 500, 0)]);
        assert!(r.removed >= 2);
    }

    #[test]
    fn threshold_boundary_is_exclusive() {
        let mut a = vec![alloc(0, 20, 0), alloc(20, 39, 1)];
        coalesce(&mut a, us(20));
        // 20 us survives (not < threshold), 19 us is coalesced.
        assert_eq!(a, vec![alloc(0, 39, 0)]);
    }

    #[test]
    fn empty_and_singleton_lists() {
        let mut a: Vec<Allocation> = vec![];
        assert_eq!(coalesce(&mut a, us(20)).removed, 0);
        let mut b = vec![alloc(0, 5, 0)];
        let r = coalesce(&mut b, us(20));
        // Isolated sub-threshold allocation is dropped even if alone.
        assert!(b.is_empty());
        assert_eq!(r.lost, vec![(VcpuId(0), us(5))]);
    }

    #[test]
    fn protected_vcpus_are_never_extended() {
        // vCPU 2 is split across cores: its allocation must not absorb the
        // adjacent sliver (the sliver drops to idle instead).
        let mut a = vec![alloc(0, 10, 1), alloc(10, 300, 2)];
        let r = coalesce_with(&mut a, us(20), |v| v != VcpuId(2));
        assert_eq!(a, vec![alloc(10, 300, 2)]);
        assert_eq!(r.lost, vec![(VcpuId(1), us(10))]);
    }

    #[test]
    fn protection_prefers_the_unprotected_neighbor() {
        // Both neighbors adjacent; the longer one (vCPU 2) is protected, so
        // the sliver goes to the shorter, unprotected vCPU 0.
        let mut a = vec![alloc(0, 50, 0), alloc(50, 60, 1), alloc(60, 400, 2)];
        coalesce_with(&mut a, us(20), |v| v != VcpuId(2));
        assert_eq!(a, vec![alloc(0, 60, 0), alloc(60, 400, 2)]);
    }

    #[test]
    fn report_relabel_substitutes_all_or_nothing() {
        let mut r = CoalesceReport::default();
        r.record_loss(VcpuId(0), us(5));
        r.record_loss(VcpuId(1), us(3));
        r.removed = 2;
        let mapped = r
            .relabel(|v| Some(VcpuId(v.0 + 10)))
            .expect("total substitution");
        assert_eq!(mapped.lost, vec![(VcpuId(10), us(5)), (VcpuId(11), us(3))]);
        assert_eq!(mapped.removed, 2);
        // A partial substitution refuses rather than dropping entries.
        assert!(r
            .relabel(|v| (v == VcpuId(0)).then_some(VcpuId(10)))
            .is_none());
    }

    #[test]
    fn report_absorb_accumulates() {
        let mut r1 = CoalesceReport::default();
        r1.record_loss(VcpuId(0), us(5));
        let mut r2 = CoalesceReport::default();
        r2.record_loss(VcpuId(0), us(3));
        r2.record_loss(VcpuId(1), us(2));
        r2.removed = 2;
        r1.absorb(&r2);
        assert_eq!(r1.total_lost(), us(10));
        assert_eq!(r1.lost.len(), 2);
        assert_eq!(r1.removed, 2);
    }
}
