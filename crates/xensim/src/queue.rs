//! The pending-event set of a [`Sim`](crate::Sim): the event vocabulary and
//! the queue behind the engine selection.
//!
//! Everything that is not a core timer — wake-ups, IPIs, externals, ticks,
//! fault events — waits here, keyed `(time, seq)` with `seq` drawn from the
//! simulation's single insertion counter. Two representations exist: the
//! near/far pair of binary heaps ([`NearFar`]) the production engine runs
//! on, and the single binary heap the equivalence suites use as the oracle
//! (the oracle additionally holds the core timers, which the production
//! engines keep in per-core registers, see `timers`). The event loop in
//! [`crate::sim`] is the only consumer.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rtsched::time::Nanos;

use crate::sched::VcpuId;
use crate::sim::EngineKind;

/// Everything a simulation can have pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Event {
    /// Decision expiry or burst completion on a core.
    CoreTimer { core: usize, gen: u64 },
    /// Unconditional re-schedule (IPI arrival).
    Resched { core: usize },
    /// External event for a vCPU (packet, request, ping).
    External { vcpu: VcpuId, tag: u64 },
    /// Guest-internal timer expiry (from [`crate::sched::GuestAction::BlockFor`]).
    SelfWake { vcpu: VcpuId, gen: u64 },
    /// Scheduler periodic tick on a core.
    Tick { core: usize },
    /// Start of a stolen-time interval on a core (fault injection).
    Stolen { core: usize },
    /// A core drops out of service (fault injection).
    CoreOffline { core: usize },
    /// An offline core returns to service (fault injection).
    CoreOnline { core: usize },
}

type Entry = (Nanos, u64, Event);

/// How far past the far heap's head a refill sets the horizon (~2.1 ms,
/// a few decision quanta): the window whose events share the near heap.
/// Order does not depend on it (see [`NearFar`]); only which heap an entry
/// waits in does.
pub(crate) const SPAN: Nanos = Nanos(1 << 21);

/// The production queue: two `(time, seq)` min-heaps split at `horizon`.
///
/// Invariant: every `near` time is `< horizon` and every `far` time is
/// `>= horizon`, so whenever `near` is non-empty its minimum is the global
/// minimum, and pops come out in exactly the reference heap's order. The
/// split only keeps the far tail (externals pushed before a run, multi-
/// second timers) out of the heap the event loop pops from.
#[derive(Default)]
pub(crate) struct NearFar {
    near: BinaryHeap<Reverse<Entry>>,
    far: BinaryHeap<Reverse<Entry>>,
    horizon: Nanos,
}

impl NearFar {
    #[inline]
    fn push(&mut self, e: Entry) {
        if e.0 < self.horizon {
            self.near.push(Reverse(e));
        } else {
            self.far.push(Reverse(e));
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.near.is_empty() && self.far.is_empty()
    }

    /// Removes the earliest entry if its key is `<= bound`. An empty `near`
    /// is refilled only once `far`'s head is due: that head is the entry
    /// returned, the horizon moves `SPAN` past it, and `far`'s prefix below
    /// the new horizon moves into `near`.
    #[inline]
    fn pop_if_at_most(&mut self, bound: (Nanos, u64)) -> Option<Entry> {
        if !self.near.is_empty() {
            return pop_head(&mut self.near, bound);
        }
        let head = pop_head(&mut self.far, bound)?;
        self.horizon = Nanos(head.0.as_nanos().saturating_add(SPAN.as_nanos()));
        while let Some(&Reverse((at, _, _))) = self.far.peek() {
            if at >= self.horizon {
                break;
            }
            let e = self.far.pop().expect("peeked");
            self.near.push(e);
        }
        Some(head)
    }
}

/// Removes `heap`'s minimum if its `(time, seq)` key is `<= bound`.
#[inline]
fn pop_head(heap: &mut BinaryHeap<Reverse<Entry>>, bound: (Nanos, u64)) -> Option<Entry> {
    match heap.peek() {
        Some(&Reverse((at, seq, _))) if (at, seq) <= bound => heap.pop().map(|Reverse(e)| e),
        _ => None,
    }
}

/// The pending-event set, behind the engine selection.
pub(crate) enum EventQueue {
    Heap(BinaryHeap<Reverse<Entry>>),
    NearFar(NearFar),
}

impl EventQueue {
    pub(crate) fn new(repr: EngineKind) -> EventQueue {
        match repr.repr() {
            EngineKind::Heap => EventQueue::Heap(BinaryHeap::new()),
            _ => EventQueue::NearFar(NearFar::default()),
        }
    }

    pub(crate) fn kind(&self) -> EngineKind {
        match self {
            EventQueue::Heap(_) => EngineKind::Heap,
            EventQueue::NearFar(_) => EngineKind::Unbatched,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, at: Nanos, seq: u64, event: Event) {
        match self {
            EventQueue::Heap(h) => h.push(Reverse((at, seq, event))),
            EventQueue::NearFar(q) => q.push((at, seq, event)),
        }
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        match self {
            EventQueue::Heap(h) => h.is_empty(),
            EventQueue::NearFar(q) => q.is_empty(),
        }
    }

    /// Removes the earliest event if its `(time, seq)` key is `<= bound`
    /// (the per-event operation of the simulation loop, fused so each
    /// engine does one ordering pass).
    #[inline]
    pub(crate) fn pop_if_at_most(&mut self, bound: (Nanos, u64)) -> Option<Entry> {
        match self {
            EventQueue::Heap(h) => pop_head(h, bound),
            EventQueue::NearFar(q) => q.pop_if_at_most(bound),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Entry> {
        self.pop_if_at_most((Nanos::MAX, u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// Every `near` time is below the horizon and every `far` time at or
    /// above it.
    fn split_holds(q: &NearFar) -> bool {
        q.near.iter().all(|Reverse(e)| e.0 < q.horizon)
            && q.far.iter().all(|Reverse(e)| e.0 >= q.horizon)
    }

    /// Interleaves pushes with `pop_if_at_most` under random `(time, seq)`
    /// bounds and checks every answer against a sorted reference. Pushes
    /// land at the last popped instant (equal times), just below, at and
    /// just above the horizon, inside the near window and seconds out;
    /// bounds include a same-instant bound split by `seq` and, while
    /// `near` is empty, a bound just before `far`'s head, which must leave
    /// the horizon where it is.
    #[test]
    fn bounded_pops_match_a_sorted_reference() {
        let (mut refills, mut held_at_far_head, mut split_ties) = (0, 0, 0);
        for seed in 0..16u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut q = NearFar::default();
            let mut reference = BTreeSet::new();
            let (mut floor, mut seq) = (Nanos::ZERO, 0u64);
            for _ in 0..6_000 {
                if rng.gen_bool(0.55) {
                    let at = match rng.gen_range(0..8u32) {
                        0 => floor,
                        1 => q.horizon.saturating_sub(Nanos(1)).max(floor),
                        2 => q.horizon.max(floor),
                        3 => (q.horizon + Nanos(1)).max(floor),
                        4 => floor + Nanos::from_secs(rng.gen_range(1..60u64)),
                        _ => floor + Nanos(rng.gen_range(0..3 * SPAN.as_nanos())),
                    };
                    seq += 1;
                    let e = (at, seq, Event::Tick { core: seq as usize });
                    q.push(e);
                    reference.insert(e);
                } else {
                    let head = reference.first().copied();
                    let bound = match (rng.gen_range(0..4u32), head) {
                        (0, _) | (_, None) => (Nanos::MAX, u64::MAX),
                        (1, Some((at, seq, _))) => {
                            split_ties += 1;
                            (at, seq - rng.gen_range(0..2u64))
                        }
                        (2, Some(_)) if q.near.is_empty() => {
                            let Reverse((at, _, _)) = q.far.peek().expect("non-empty");
                            (at.saturating_sub(Nanos(1)), u64::MAX)
                        }
                        _ => (
                            floor + Nanos(rng.gen_range(0..2 * SPAN.as_nanos())),
                            rng.gen(),
                        ),
                    };
                    let (horizon, near_was_empty) = (q.horizon, q.near.is_empty());
                    let want = head.filter(|&(at, seq, _)| (at, seq) <= bound);
                    assert_eq!(
                        q.pop_if_at_most(bound),
                        want,
                        "seed {seed}, bound {bound:?}"
                    );
                    match want {
                        Some(e) => {
                            reference.remove(&e);
                            floor = e.0;
                            refills += usize::from(near_was_empty);
                        }
                        None => {
                            assert_eq!(q.horizon, horizon, "a refused pop moved the horizon");
                            held_at_far_head += usize::from(near_was_empty && !q.far.is_empty());
                        }
                    }
                }
                assert!(
                    split_holds(&q),
                    "seed {seed}: an entry sits on the wrong side"
                );
                assert_eq!(q.is_empty(), reference.is_empty());
            }
            while let Some(e) = q.pop_if_at_most((Nanos::MAX, u64::MAX)) {
                assert_eq!(Some(e), reference.pop_first(), "seed {seed}: drain order");
            }
            assert!(reference.is_empty(), "seed {seed}: entries lost");
        }
        // Each case above was met often, not once by luck.
        assert!(
            refills > 100 && held_at_far_head > 100 && split_ties > 1_000,
            "{refills} refills, {held_at_far_head} holds at the far head, {split_ties} split ties"
        );
    }
}
