//! Canonical bin signatures for the generator's simulate-once memo.
//!
//! High-density hosts are homogeneous: with four identical single-vCPU VMs
//! per core, most bins handed to the EDF simulator are the *same task
//! multiset modulo task ids*. Simulating each of those bins from scratch
//! repeats identical work `n_cores` times.
//!
//! This module provides what the generator needs to simulate once per
//! *distinct* bin shape:
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
//!
//! The memo is private to the generator's per-core simulation: each core's
//! schedule leaves the generator under its own ids, and nothing downstream
//! (verification, coalescing, the slice table) knows whether it was
//! simulated or relabelled from a copy.
//!
//! Only bins consisting entirely of implicit-deadline, zero-offset tasks
//! participate. C=D split pieces carry offsets/deadlines that tie them to
//! sibling pieces on *other* cores, and DP-Fair cluster cores are produced
//! jointly rather than per-bin; both are simulated directly.

use std::collections::HashMap;

use crate::edf::DeadlineMiss;
use crate::schedule::CoreSchedule;
use crate::task::PeriodicTask;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edf::{simulate_edf, simulate_edf_positional};
    use crate::task::TaskId;
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
}
