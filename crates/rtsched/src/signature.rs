//! Canonical bin signatures and cross-core schedule sharing.
//!
//! High-density hosts are homogeneous: with four identical single-vCPU VMs
//! per core, most bins handed to the EDF simulator are the *same task
//! multiset modulo task ids*. Simulating, coalescing, and slice-building
//! each of those bins from scratch repeats identical work `n_cores` times.
//!
//! This module provides the machinery to do that work once per *distinct*
//! bin shape:
//!
//! * [`BinSignature`] — the id-free canonical form of a bin: the ordered
//!   sequence of `(cost, period, deadline, offset)` tuples. The sequence is
//!   kept in **bin order**, not sorted into a multiset, because the EDF
//!   tie-break is positional (`(deadline, task_index, release)` in
//!   `edf.rs`): two bins produce segment-identical schedules exactly when
//!   their parameter *sequences* match, and sorting could pair bins whose
//!   tie-breaks resolve differently. Bins built by the same packing
//!   heuristic from identical specs come out in the same order, so in the
//!   homogeneous case nothing is lost.
//! * [`SigMemo`] — a per-generation memo from signature to the *positional*
//!   simulation result (task ids replaced by bin positions), shared across
//!   all stage attempts of one `generate_schedule` call.
//! * [`CoreSharing`] / [`Stamp`] — the record of which cores were stamped
//!   from a representative core's schedule and under which id-substitution
//!   map, consumed by `verify_schedule_shared` and the planner's coalesce /
//!   slice-table stages so they can reuse per-core work downstream.
//!
//! Only bins consisting entirely of implicit-deadline, zero-offset tasks
//! participate in sharing. C=D split pieces carry offsets/deadlines that tie
//! them to sibling pieces on *other* cores, and DP-Fair cluster cores are
//! produced jointly rather than per-bin; both opt out and take the direct
//! path (the memoized and direct engines must stay bit-for-bit identical).

use std::collections::HashMap;

use crate::edf::DeadlineMiss;
use crate::schedule::CoreSchedule;
use crate::task::{PeriodicTask, TaskId};

/// The id-free canonical form of a bin: `(cost, period, deadline, offset)`
/// per task, in bin order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BinSignature(Vec<(u64, u64, u64, u64)>);

impl BinSignature {
    /// Computes the signature of a bin.
    pub fn of(tasks: &[PeriodicTask]) -> BinSignature {
        BinSignature(
            tasks
                .iter()
                .map(|t| {
                    (
                        t.cost.as_nanos(),
                        t.period.as_nanos(),
                        t.deadline.as_nanos(),
                        t.offset.as_nanos(),
                    )
                })
                .collect(),
        )
    }

    /// Number of tasks in the signed bin.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` for the empty bin's signature.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Returns `true` if every task in the bin is implicit-deadline with zero
/// offset — the precondition for signature sharing.
pub fn all_implicit(tasks: &[PeriodicTask]) -> bool {
    tasks
        .iter()
        .all(|t| t.deadline == t.period && t.offset.is_zero())
}

/// Memoized positional simulation results, keyed by bin signature.
///
/// "Positional" means the stored schedules label segments with
/// `TaskId(position-in-bin)` rather than real task ids; callers relabel via
/// [`CoreSchedule::relabel`] with the concrete bin's ids. One memo lives for
/// the duration of one `generate_schedule` call and is shared across its
/// stage attempts (a bin shape that failed EDF in stage 1 is not re-simulated
/// when stage 3 tries it again). The generator memoizes only signatures that
/// two or more cores of one attempt share; a bin whose signature is its
/// own is simulated under its real ids and never enters the memo.
#[derive(Debug, Default)]
pub struct SigMemo {
    edf: HashMap<BinSignature, Result<CoreSchedule, DeadlineMiss>>,
}

impl SigMemo {
    /// Creates an empty memo.
    pub fn new() -> SigMemo {
        SigMemo::default()
    }

    /// Records an already-computed positional EDF result (the generator
    /// looks up by reference first, so a hit clones no signature).
    pub fn edf_insert(&mut self, sig: BinSignature, result: Result<CoreSchedule, DeadlineMiss>) {
        self.edf.insert(sig, result);
    }

    /// Looks up a previously computed EDF result without simulating.
    pub fn edf_get(&self, sig: &BinSignature) -> Option<&Result<CoreSchedule, DeadlineMiss>> {
        self.edf.get(sig)
    }
}

/// How one core's schedule was stamped from a representative core's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    /// Index of the representative core (always lower than the stamped
    /// core's own index, and itself never stamped).
    pub rep: usize,
    /// Task-id substitution, `(rep_id, this_id)` per bin position: the
    /// stamped core's schedule is the representative's with each `rep_id`
    /// replaced by the paired `this_id`.
    pub map: Vec<(TaskId, TaskId)>,
}

/// Per-core record of schedule sharing for one generated plan.
///
/// `stamped[core]` is `Some(stamp)` iff that core's schedule was produced by
/// relabeling a representative core's schedule rather than simulated
/// directly. Downstream consumers (verification, coalescing, slice-table
/// construction) may — after independently validating the stamp — reuse the
/// representative's result. An empty/none record means every core took the
/// direct path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreSharing {
    stamped: Vec<Option<Stamp>>,
}

impl CoreSharing {
    /// A sharing record with no stamped cores.
    pub fn none(n_cores: usize) -> CoreSharing {
        CoreSharing {
            stamped: vec![None; n_cores],
        }
    }

    /// Number of cores covered by this record.
    pub fn n_cores(&self) -> usize {
        self.stamped.len()
    }

    /// The stamp for `core`, if it was stamped.
    pub fn stamp_of(&self, core: usize) -> Option<&Stamp> {
        self.stamped.get(core).and_then(|s| s.as_ref())
    }

    /// Records that `core` was stamped.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set(&mut self, core: usize, stamp: Stamp) {
        self.stamped[core] = Some(stamp);
    }

    /// Returns `true` if any core was stamped.
    pub fn any_stamped(&self) -> bool {
        self.stamped.iter().any(|s| s.is_some())
    }

    /// Number of stamped cores.
    pub fn stamped_count(&self) -> usize {
        self.stamped.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edf::{simulate_edf, simulate_edf_positional};
    use crate::time::Nanos;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    #[test]
    fn signatures_ignore_ids_but_not_order() {
        let a = [
            PeriodicTask::implicit(TaskId(0), ms(2), ms(10)),
            PeriodicTask::implicit(TaskId(1), ms(5), ms(20)),
        ];
        let b = [
            PeriodicTask::implicit(TaskId(7), ms(2), ms(10)),
            PeriodicTask::implicit(TaskId(9), ms(5), ms(20)),
        ];
        let swapped = [b[1], b[0]];
        assert_eq!(BinSignature::of(&a), BinSignature::of(&b));
        assert_ne!(BinSignature::of(&a), BinSignature::of(&swapped));
    }

    #[test]
    fn all_implicit_rejects_pieces() {
        let whole = PeriodicTask::implicit(TaskId(0), ms(2), ms(10));
        let piece = PeriodicTask::with_window(TaskId(1), ms(2), ms(10), ms(2), Nanos::ZERO);
        let offset = PeriodicTask::with_window(TaskId(2), ms(2), ms(10), ms(8), ms(2));
        assert!(all_implicit(&[whole]));
        assert!(!all_implicit(&[whole, piece]));
        assert!(!all_implicit(&[offset]));
    }

    #[test]
    fn equal_signature_bins_remap_to_their_direct_simulations() {
        // Two bins with the same parameter sequence but different ids: the
        // memoized positional schedule, relabeled with each bin's ids, must
        // equal that bin's direct simulation segment for segment.
        let horizon = ms(20);
        let bin_a = [
            PeriodicTask::implicit(TaskId(0), ms(2), ms(10)),
            PeriodicTask::implicit(TaskId(1), ms(5), ms(20)),
        ];
        let bin_b = [
            PeriodicTask::implicit(TaskId(7), ms(2), ms(10)),
            PeriodicTask::implicit(TaskId(9), ms(5), ms(20)),
        ];
        let mut memo = SigMemo::new();
        let positional = simulate_edf_positional(&bin_a, horizon);
        memo.edf_insert(BinSignature::of(&bin_a), positional.clone());
        let positional = positional.expect("feasible bin");
        for bin in [&bin_a[..], &bin_b[..]] {
            let stamped = positional.relabel(|t| bin[t.0 as usize].id);
            let direct = simulate_edf(bin, horizon).expect("feasible bin");
            assert_eq!(stamped, direct);
        }
        // And the memo really is shared: bin B's signature hits A's entry.
        assert!(memo.edf_get(&BinSignature::of(&bin_b)).is_some());
    }

    #[test]
    fn sharing_record_roundtrip() {
        let mut sharing = CoreSharing::none(3);
        assert!(!sharing.any_stamped());
        assert_eq!(sharing.n_cores(), 3);
        sharing.set(
            2,
            Stamp {
                rep: 0,
                map: vec![(TaskId(0), TaskId(5))],
            },
        );
        assert!(sharing.any_stamped());
        assert_eq!(sharing.stamped_count(), 1);
        assert_eq!(sharing.stamp_of(2).unwrap().rep, 0);
        assert!(sharing.stamp_of(0).is_none());
        assert!(sharing.stamp_of(9).is_none());
    }
}
