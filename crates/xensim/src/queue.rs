//! The pending-event set of a [`Sim`](crate::Sim): the event vocabulary and
//! the queue behind the engine selection.
//!
//! Everything that is not a core timer — wake-ups, IPIs, externals, ticks,
//! fault events — waits here, keyed `(time, seq)` with `seq` drawn from the
//! simulation's single insertion counter. Two representations exist: the
//! hierarchical timing wheel ([`crate::wheel`]) the production engine runs
//! on, and the binary heap the equivalence suites use as the oracle (the
//! heap additionally holds the core timers, which the wheel-backed engines
//! keep in per-core registers, see `timers`). The event loop in
//! [`crate::sim`] is the only consumer.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rtsched::time::Nanos;

use crate::sched::VcpuId;
use crate::sim::EngineKind;
use crate::wheel::TimingWheel;

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

/// The pending-event set, behind the engine selection.
pub(crate) enum EventQueue {
    Heap(BinaryHeap<Reverse<(Nanos, u64, Event)>>),
    Wheel(Box<TimingWheel<Event>>),
}

impl EventQueue {
    pub(crate) fn new(repr: EngineKind) -> EventQueue {
        match repr.repr() {
            EngineKind::Heap => EventQueue::Heap(BinaryHeap::new()),
            _ => EventQueue::Wheel(Box::default()),
        }
    }

    pub(crate) fn kind(&self) -> EngineKind {
        match self {
            EventQueue::Heap(_) => EngineKind::Heap,
            EventQueue::Wheel(_) => EngineKind::Wheel,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, at: Nanos, seq: u64, event: Event) {
        match self {
            EventQueue::Heap(h) => h.push(Reverse((at, seq, event))),
            EventQueue::Wheel(w) => w.push(at, seq, event),
        }
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        match self {
            EventQueue::Heap(h) => h.is_empty(),
            EventQueue::Wheel(w) => w.is_empty(),
        }
    }

    /// Removes the earliest event if its `(time, seq)` key is `<= bound`
    /// (the per-event operation of the simulation loop, fused so each
    /// engine does one ordering pass).
    #[inline]
    pub(crate) fn pop_if_at_most(&mut self, bound: (Nanos, u64)) -> Option<(Nanos, u64, Event)> {
        match self {
            EventQueue::Heap(h) => match h.peek() {
                Some(&Reverse((at, seq, _))) if (at, seq) <= bound => {
                    let Reverse(e) = h.pop().expect("peeked");
                    Some(e)
                }
                _ => None,
            },
            EventQueue::Wheel(w) => w.pop_if_key_at_most(bound.0, bound.1),
        }
    }

    /// Hands the wheel's slot storage back if nothing is pending (see
    /// [`TimingWheel::release_slots`]); the reference heap keeps its
    /// buffer.
    pub(crate) fn release_slots(&mut self) {
        if let EventQueue::Wheel(w) = self {
            w.release_slots();
        }
    }

    pub(crate) fn pop(&mut self) -> Option<(Nanos, u64, Event)> {
        match self {
            EventQueue::Heap(h) => h.pop().map(|Reverse(e)| e),
            EventQueue::Wheel(w) => w.pop(),
        }
    }
}
