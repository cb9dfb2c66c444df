//! A hierarchical timing wheel: the simulator's O(1) event queue.
//!
//! Discrete-event simulators live and die by their pending-event set. A
//! binary heap costs O(log n) comparisons (and a cache-hostile percolation)
//! per insert and per pop; calendar-queue designs — the ones ns-3-class
//! simulators use — exploit the fact that a scheduler workload is a dense
//! band of near-future events (IPI deliveries, guest wake-ups, ticks; core
//! timers are kept out of it, in the per-core registers of `crate::timers`)
//! plus a sparse far tail, and make both operations O(1) amortized.
//!
//! Geometry (three levels, nearest first):
//!
//! * **Near wheel** — `NEAR_SLOTS` slots of `2^SLOT_SHIFT` ns each
//!   (2.048 µs), covering one ~2.1 ms *window*. An occupancy bitmap (one
//!   bit per slot) makes skipping empty slots a couple of word operations.
//!   A slot holding one entry is popped with a `Vec::pop`; a slot holding
//!   more is drained into the `current` heap, which orders them.
//! * **Overflow level** — `OVF_SLOTS` coarse buckets, each one near-window
//!   wide, extending the horizon to ~134 ms. When the near wheel advances
//!   into a new window, the matching bucket is scattered down into the
//!   near slots.
//! * **Far heap** — a plain binary heap for the sparse tail beyond the
//!   overflow horizon (warm-up schedules, multi-second timers). Events
//!   migrate inward as the horizon advances.
//!
//! **Where pushes land.** The slot width was tuned to the event density of
//! the 16-core scaling scenario (~1 event/µs) so that a slot would usually
//! hold zero or one event, but most traffic never enters a slot. Once the
//! near level is empty, a pop moves the cursor to the first occupied slot
//! of the next queued window, even when that lies past the caller's bound
//! (the earliest core timer), and every later push for a time before the
//! cursor goes straight into `current`. Cores in lockstep (slice boundaries
//! shared across cores) put several events into one slot, which then drains
//! into `current` as well. Counted on `e2ebench`'s `sim-io` (12 cores,
//! seed 42, a 6 s run): 38.8 M of 40.0 M pushes (97 %) went straight into
//! `current`, and 88 % of the entries that did pass through a near slot
//! left it through a multi-entry drain; on `experiments fig7 --quick`,
//! 6.0 M of 11.8 M pushes (51 %) went straight into `current`, and half of
//! the rest drained. So the common pop is a `current` heap pop; what the
//! levels buy is that the far tail stays out of that heap.
//!
//! **Storage.** A level's slot vectors (26 112 B of empty `Vec`s for the
//! two levels) are allocated when the first entry needs one of its slots,
//! not with the wheel. Within a run they are *drained, never dropped*:
//! pushes and pops reuse retained capacity and allocate nothing once the
//! first windows have passed, and payloads move by value (no clones).
//! [`TimingWheel::release_slots`] hands them back when nothing is pending;
//! the simulator calls it at the end of every `run_until`, so a simulation
//! whose queue is empty between calls (a fleet host, whose events are all
//! core timers after its first call) holds none, while one whose queue
//! never empties (`sim-io`) never releases.
//!
//! # Determinism
//!
//! The wheel must be observationally identical to the reference heap: pops
//! come out in ascending `(time, seq)` order, full stop. The argument:
//!
//! 1. Entries at slots strictly before the drain cursor live in the
//!    `current` heap. Every other entry's slot is `>=` the cursor, so its
//!    time is `>=` the cursor slot's start, which is `>` every `current`
//!    time (slot widths are uniform powers of two). The minimum of
//!    `current` is therefore the global minimum whenever `current` is
//!    non-empty — and two entries with *equal* times share a slot by
//!    construction, so cross-structure ties cannot exist.
//! 2. A multi-entry slot is drained into `current`, which is itself a
//!    `(time, seq)` min-heap — intra-slot order is restored there. A
//!    single-entry slot needs no ordering and is returned directly.
//! 3. Cascades (overflow → near, far → overflow/near) only move entries
//!    between levels at window boundaries, before the cursor reaches them;
//!    they never reorder anything the cursor has passed.
//!
//! The `engine_equivalence` integration test enforces this bit-for-bit
//! against the heap engine over randomized fault-injected scenarios.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rtsched::time::Nanos;

/// log2 of the near-slot width in nanoseconds (2.048 µs per slot).
const SLOT_SHIFT: u32 = 11;
/// log2 of the near-wheel slot count (1024 slots → ~2.1 ms per window).
const NEAR_BITS: u32 = 10;
/// Number of near slots.
const NEAR_SLOTS: usize = 1 << NEAR_BITS;
const NEAR_MASK: usize = NEAR_SLOTS - 1;
/// Words in the near occupancy bitmap.
const NEAR_WORDS: usize = NEAR_SLOTS / 64;
/// Number of overflow buckets, each one near-window wide (~134 ms horizon).
const OVF_SLOTS: usize = 64;
const OVF_MASK: usize = OVF_SLOTS - 1;

type Entry<T> = (Nanos, u64, T);
/// One level's slot vectors.
type Slots<T, const N: usize> = Box<[Vec<Entry<T>>; N]>;

/// A level's slot vectors, all empty: the first entry a level takes pays
/// for them.
#[cold]
fn slots<T, const N: usize>() -> Slots<T, N> {
    Box::new(std::array::from_fn(|_| Vec::new()))
}

/// A three-level timing wheel keyed by `(time, seq)`; see the module docs.
///
/// `seq` is the caller's insertion counter and the tie-breaker for equal
/// times, exactly as in the reference `BinaryHeap<Reverse<(Nanos, u64, T)>>`
/// engine.
pub struct TimingWheel<T> {
    /// Absolute index of the next near slot to inspect. Slots strictly
    /// below the cursor are empty; late pushes for them go to `current`.
    cursor: u64,
    /// Near-window index. All level classification is relative to this;
    /// `cursor` stays within `[window << NEAR_BITS, (window+1) << NEAR_BITS]`.
    window: u64,
    /// The near slots; `None` until an entry needs one (see
    /// [`TimingWheel::release_slots`]).
    near: Option<Slots<T, NEAR_SLOTS>>,
    /// One bit per near slot (by local index): set iff the slot is
    /// non-empty.
    near_bits: [u64; NEAR_WORDS],
    /// Entries across all near slots.
    near_count: usize,
    /// Bucket `c & OVF_MASK` holds entries of coarse slot `c`, for `c` in
    /// `(window, window + OVF_SLOTS]` — 64 consecutive values, so the
    /// mapping is collision-free. `None` until an entry needs a bucket.
    ovf: Option<Slots<T, OVF_SLOTS>>,
    /// One bit per overflow bucket (by `coarse & OVF_MASK`).
    ovf_bits: u64,
    ovf_count: usize,
    far: BinaryHeap<Reverse<Entry<T>>>,
    /// Entries at/behind the cursor, ordered; its minimum is the global
    /// minimum whenever non-empty (see module docs).
    current: BinaryHeap<Reverse<Entry<T>>>,
    len: usize,
}

impl<T: Ord> TimingWheel<T> {
    /// Creates an empty wheel with its cursor at time zero.
    pub fn new() -> TimingWheel<T> {
        TimingWheel {
            cursor: 0,
            window: 0,
            near: None,
            near_bits: [0; NEAR_WORDS],
            near_count: 0,
            ovf: None,
            ovf_bits: 0,
            ovf_count: 0,
            far: BinaryHeap::new(),
            current: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an entry. `seq` must be the caller's monotonically
    /// increasing insertion counter (the equal-time tie-breaker).
    #[inline]
    pub fn push(&mut self, at: Nanos, seq: u64, item: T) {
        self.len += 1;
        let abs = at.as_nanos() >> SLOT_SHIFT;
        if abs < self.cursor {
            // A past (or currently-draining) slot: joins the ordered heap
            // the cursor is consuming from.
            self.current.push(Reverse((at, seq, item)));
            return;
        }
        let coarse = abs >> NEAR_BITS;
        if coarse == self.window {
            self.push_near(abs, (at, seq, item));
        } else if coarse - self.window <= OVF_SLOTS as u64 {
            self.push_ovf(coarse, (at, seq, item));
        } else {
            self.far.push(Reverse((at, seq, item)));
        }
    }

    /// Files `e` (in the current window) under near slot `abs`.
    #[inline]
    fn push_near(&mut self, abs: u64, e: Entry<T>) {
        let local = abs as usize & NEAR_MASK;
        self.near.get_or_insert_with(slots)[local].push(e);
        self.near_bits[local >> 6] |= 1 << (local & 63);
        self.near_count += 1;
    }

    /// Files `e` under the overflow bucket of coarse slot `coarse`.
    #[inline]
    fn push_ovf(&mut self, coarse: u64, e: Entry<T>) {
        let b = coarse as usize & OVF_MASK;
        self.ovf.get_or_insert_with(slots)[b].push(e);
        self.ovf_bits |= 1 << b;
        self.ovf_count += 1;
    }

    /// Hands the slot storage back if nothing is pending, keeping the
    /// cursor where it is; the next entry that needs a slot allocates it
    /// afresh. An empty wheel then holds only its two heaps' (small)
    /// retained capacity. Called between runs, not per pop: a run whose
    /// queue keeps emptying and refilling would otherwise pay one
    /// allocation per refill.
    pub fn release_slots(&mut self) {
        if self.len == 0 {
            self.near = None;
            self.ovf = None;
        }
    }

    /// Whether slot storage is allocated (see
    /// [`TimingWheel::release_slots`]).
    #[cfg(test)]
    pub(crate) fn holds_slots(&self) -> bool {
        self.near.is_some() || self.ovf.is_some()
    }

    /// The earliest pending entry, without removing it.
    pub fn peek(&mut self) -> Option<&Entry<T>> {
        if self.current.is_empty() {
            // Pull the next entry in order, then stash it back in
            // `current` (which is "at/behind the cursor" by definition).
            let e = self.pop()?;
            self.len += 1;
            self.current.push(Reverse(e));
        }
        self.current.peek().map(|Reverse(e)| e)
    }

    /// Removes and returns the earliest pending entry.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        self.pop_if_at_most(Nanos(u64::MAX))
    }

    /// Removes and returns the earliest entry if its time is `<= limit`.
    #[inline]
    pub fn pop_if_at_most(&mut self, limit: Nanos) -> Option<Entry<T>> {
        self.pop_if_key_at_most(limit, u64::MAX)
    }

    /// Removes and returns the earliest entry if its `(time, seq)` key is
    /// `<= (limit, seq_limit)` (the fused peek-then-pop the simulation loop
    /// runs per event, bounded by the horizon or by the key of a timer held
    /// outside the wheel).
    #[inline]
    pub fn pop_if_key_at_most(&mut self, limit: Nanos, seq_limit: u64) -> Option<Entry<T>> {
        loop {
            if let Some(Reverse((at, seq, _))) = self.current.peek() {
                if (*at, *seq) > (limit, seq_limit) {
                    return None;
                }
                let Reverse(e) = self.current.pop().expect("peeked");
                self.len -= 1;
                return Some(e);
            }
            if self.len == 0 {
                return None;
            }
            if self.near_count > 0 {
                let base = self.window << NEAR_BITS;
                let from = (self.cursor - base) as usize;
                let local =
                    next_occupied(&self.near_bits, from).expect("near_count > 0, slots empty");
                let abs = base + local as u64;
                if Nanos(abs << SLOT_SHIFT) > limit {
                    // Every remaining entry is at/after this slot's start.
                    self.cursor = abs;
                    return None;
                }
                self.cursor = abs + 1;
                self.near_bits[local >> 6] &= !(1 << (local & 63));
                let slot = &mut self.near.as_mut().expect("near_count > 0")[local];
                if slot.len() == 1 {
                    // The common case at this slot width: no ordering
                    // needed, no heap touched.
                    let e = slot.pop().expect("len checked");
                    self.near_count -= 1;
                    if (e.0, e.1) <= (limit, seq_limit) {
                        self.len -= 1;
                        return Some(e);
                    }
                    // Inside the slot but beyond the limit: park it in
                    // `current` (now behind the cursor) for the next call.
                    self.current.push(Reverse(e));
                    return None;
                }
                self.near_count -= slot.len();
                for e in slot.drain(..) {
                    self.current.push(Reverse(e));
                }
                continue;
            }
            self.advance_window();
        }
    }

    /// Advances to the next window holding work, cascading overflow and
    /// far entries down. Caller guarantees the near level is empty.
    fn advance_window(&mut self) {
        let w = if self.ovf_count > 0 {
            // Occupied coarse values live in (window, window + OVF_SLOTS];
            // rotate the bitmap so bit 0 is coarse `window + 1`, then the
            // lowest set bit is the next occupied bucket.
            let start = ((self.window + 1) & OVF_MASK as u64) as u32;
            let rot = self.ovf_bits.rotate_right(start);
            self.window + 1 + rot.trailing_zeros() as u64
        } else if let Some(Reverse((at, _, _))) = self.far.peek() {
            (at.as_nanos() >> (SLOT_SHIFT + NEAR_BITS)).max(self.window + 1)
        } else {
            // Everything pending is already in `current`.
            return;
        };
        self.window = w;
        self.cursor = w << NEAR_BITS;

        // Scatter the overflow bucket owning the new window into near
        // slots.
        let b = w as usize & OVF_MASK;
        if self.ovf_bits & (1 << b) != 0 {
            self.ovf_bits &= !(1 << b);
            let bucket = &mut self.ovf.as_mut().expect("bit set")[b];
            let near = self.near.get_or_insert_with(slots);
            self.ovf_count -= bucket.len();
            self.near_count += bucket.len();
            for (at, seq, item) in bucket.drain(..) {
                let abs = at.as_nanos() >> SLOT_SHIFT;
                debug_assert_eq!(abs >> NEAR_BITS, w, "stale overflow entry");
                let local = abs as usize & NEAR_MASK;
                near[local].push((at, seq, item));
                self.near_bits[local >> 6] |= 1 << (local & 63);
            }
        }

        // Promote far entries that fell inside the (near + overflow)
        // horizon. The heap pops in time order, so this moves exactly the
        // prefix at/below the horizon.
        while let Some(Reverse((at, _, _))) = self.far.peek() {
            let coarse = at.as_nanos() >> (SLOT_SHIFT + NEAR_BITS);
            if coarse > self.window + OVF_SLOTS as u64 {
                break;
            }
            let Reverse(e) = self.far.pop().expect("peeked");
            if coarse == self.window {
                self.push_near(e.0.as_nanos() >> SLOT_SHIFT, e);
            } else {
                self.push_ovf(coarse, e);
            }
        }
    }
}

/// Index of the first set bit at/after `from`, over a slot bitmap.
#[inline]
fn next_occupied(bits: &[u64; NEAR_WORDS], from: usize) -> Option<usize> {
    if from >= NEAR_SLOTS {
        return None;
    }
    let mut w = from >> 6;
    let mut word = bits[w] & (!0u64 << (from & 63));
    loop {
        if word != 0 {
            return Some((w << 6) + word.trailing_zeros() as usize);
        }
        w += 1;
        if w >= NEAR_WORDS {
            return None;
        }
        word = bits[w];
    }
}

impl<T: Ord> Default for TimingWheel<T> {
    fn default() -> TimingWheel<T> {
        TimingWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Pops everything and checks the stream is exactly the reference
    /// heap's.
    fn drain_and_compare(wheel: &mut TimingWheel<u32>, reference: &mut Vec<(Nanos, u64, u32)>) {
        reference.sort_unstable();
        let mut got = Vec::new();
        while let Some(e) = wheel.pop() {
            got.push(e);
        }
        assert_eq!(&got, reference);
        assert!(wheel.is_empty());
    }

    #[test]
    fn empty_wheel_pops_nothing() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        assert!(w.is_empty());
        assert_eq!(w.pop(), None);
        assert_eq!(w.peek(), None);
    }

    #[test]
    fn single_level_ordering() {
        let mut w = TimingWheel::new();
        let mut reference = Vec::new();
        // All within the first near window, deliberately out of order.
        for (i, &ns) in [5000u64, 100, 2_000_000, 9999, 100, 0, 2047]
            .iter()
            .enumerate()
        {
            let e = (Nanos(ns), i as u64, i as u32);
            w.push(e.0, e.1, e.2);
            reference.push(e);
        }
        drain_and_compare(&mut w, &mut reference);
    }

    #[test]
    fn equal_times_pop_in_seq_order() {
        let mut w = TimingWheel::new();
        for seq in 0..32u64 {
            w.push(Nanos(777), seq, seq as u32);
        }
        let mut prev = None;
        while let Some((at, seq, _)) = w.pop() {
            assert_eq!(at, Nanos(777));
            assert!(prev.is_none_or(|p| p < seq), "seq order broken");
            prev = Some(seq);
        }
    }

    #[test]
    fn entries_span_all_three_levels() {
        let mut w = TimingWheel::new();
        let mut reference = Vec::new();
        let cases = [
            Nanos(12),                   // near
            Nanos::from_millis(1),       // near, later slot
            Nanos::from_millis(40),      // overflow
            Nanos::from_millis(120),     // overflow, far bucket
            Nanos::from_millis(5_000),   // far heap
            Nanos::from_millis(120_000), // far heap, deep tail
        ];
        for (i, &at) in cases.iter().enumerate() {
            w.push(at, i as u64, i as u32);
            reference.push((at, i as u64, i as u32));
        }
        drain_and_compare(&mut w, &mut reference);
    }

    #[test]
    fn pushes_behind_the_cursor_stay_ordered() {
        let mut w = TimingWheel::new();
        w.push(Nanos::from_millis(1), 0, 0);
        assert_eq!(w.pop(), Some((Nanos::from_millis(1), 0, 0)));
        // The cursor has passed the early slots; a push for an already
        // drained region must still come out before later work.
        w.push(Nanos::from_millis(2), 2, 2);
        w.push(Nanos(500), 1, 1); // far behind the cursor
        assert_eq!(w.pop(), Some((Nanos(500), 1, 1)));
        assert_eq!(w.pop(), Some((Nanos::from_millis(2), 2, 2)));
    }

    #[test]
    fn pop_if_at_most_respects_the_limit() {
        let mut w = TimingWheel::new();
        w.push(Nanos(100), 0, 0);
        w.push(Nanos(200), 1, 1);
        assert_eq!(w.pop_if_at_most(Nanos(50)), None);
        assert_eq!(w.pop_if_at_most(Nanos(150)), Some((Nanos(100), 0, 0)));
        assert_eq!(w.pop_if_at_most(Nanos(150)), None);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_if_at_most(Nanos(200)), Some((Nanos(200), 1, 1)));
        assert!(w.is_empty());
    }

    #[test]
    fn limit_inside_an_occupied_slot_leaves_later_entries() {
        let mut w = TimingWheel::new();
        // Same slot (width 2048 ns): one before the limit, one after.
        w.push(Nanos(2100), 0, 0);
        w.push(Nanos(2500), 1, 1);
        assert_eq!(w.pop_if_at_most(Nanos(2200)), Some((Nanos(2100), 0, 0)));
        assert_eq!(w.pop_if_at_most(Nanos(2200)), None);
        assert_eq!(w.pop_if_at_most(Nanos(2500)), Some((Nanos(2500), 1, 1)));
        // Single-entry slot beyond the limit is parked, not lost.
        w.push(Nanos(4097), 2, 2);
        assert_eq!(w.pop_if_at_most(Nanos(4096)), None);
        assert_eq!(w.pop(), Some((Nanos(4097), 2, 2)));
    }

    #[test]
    fn pop_if_key_at_most_breaks_a_same_instant_tie_by_seq() {
        let mut w = TimingWheel::new();
        w.push(Nanos(100), 5, 0);
        w.push(Nanos(100), 9, 1);
        assert_eq!(w.pop_if_key_at_most(Nanos(100), 4), None);
        assert_eq!(
            w.pop_if_key_at_most(Nanos(100), 5),
            Some((Nanos(100), 5, 0))
        );
        assert_eq!(w.pop_if_key_at_most(Nanos(100), 8), None);
        assert_eq!(w.pop_if_key_at_most(Nanos(99), u64::MAX), None);
        assert_eq!(
            w.pop_if_key_at_most(Nanos(101), 0),
            Some((Nanos(100), 9, 1))
        );
        // The single-entry slot path: refused on `seq` alone, the entry
        // must still be there for the next call.
        w.push(Nanos(5000), 3, 2);
        assert_eq!(w.pop_if_key_at_most(Nanos(5000), 2), None);
        assert_eq!(w.len(), 1);
        assert_eq!(
            w.pop_if_key_at_most(Nanos(5000), 3),
            Some((Nanos(5000), 3, 2))
        );
    }

    /// The property the engine swap rests on: against a uniform random
    /// mix of near/overflow/far times with interleaved pushes and pops,
    /// the wheel's pop stream equals a sorted reference, bit for bit.
    #[test]
    fn randomized_interleaved_matches_reference() {
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut w = TimingWheel::new();
            let mut reference: Vec<(Nanos, u64, u32)> = Vec::new();
            let mut popped = Vec::new();
            let mut seq = 0u64;
            let mut floor = Nanos::ZERO; // pops are monotone; pushes must be >= last pop
            for step in 0..4000 {
                if rng.gen_bool(0.6) || w.is_empty() {
                    // Mix of horizons: mostly near, some overflow, some far.
                    let span: u64 = match rng.gen_range(0..10u32) {
                        0..=6 => rng.gen_range(0..2_000_000u64),   // < 2 ms
                        7 | 8 => rng.gen_range(0..130_000_000u64), // < 130 ms
                        _ => rng.gen_range(0..60_000_000_000u64),  // < 60 s
                    };
                    let at = floor + Nanos(span);
                    w.push(at, seq, step as u32);
                    reference.push((at, seq, step as u32));
                    seq += 1;
                } else {
                    let got = w.pop().expect("wheel non-empty");
                    floor = got.0;
                    popped.push(got);
                }
            }
            while let Some(e) = w.pop() {
                popped.push(e);
            }
            reference.sort_unstable();
            // Interleaved pops must respect global order among the events
            // present at pop time; since pushes never go below the last
            // pop's time, the final stream is exactly the sorted reference.
            assert_eq!(popped, reference, "seed {seed}");
        }
    }

    /// Boundary audit for the level-classification arithmetic: pushes at
    /// the exact first/last nanosecond of every level edge (near ↔
    /// overflow, overflow ↔ far), including the coarse slot that aliases
    /// bucket `window & OVF_MASK` (coarse = window + OVF_SLOTS — legal
    /// because the bucket range `(window, window + OVF_SLOTS]` never
    /// contains `window` itself), must drain exactly like the reference
    /// heap, equal-time ties included.
    #[test]
    fn level_edge_nanoseconds_match_the_reference_heap() {
        const WINDOW: u64 = 1 << (SLOT_SHIFT + NEAR_BITS); // one near window
        const HORIZON: u64 = (OVF_SLOTS as u64 + 1) * WINDOW; // near + overflow
        let mut w = TimingWheel::new();
        let mut reference = Vec::new();
        let times = [
            0,                // first near slot
            WINDOW - 1,       // last near nanosecond
            WINDOW,           // first overflow nanosecond (coarse = 1)
            WINDOW + 1,       // one past the edge
            HORIZON - WINDOW, // first ns of coarse window + OVF_SLOTS (aliased bucket)
            HORIZON - 1,      // last ns inside the overflow horizon
            HORIZON,          // first far-heap nanosecond
            HORIZON + 1,      // one past the far horizon
            2 * HORIZON - 1,  // deep tail, one ns before a window multiple
            2 * HORIZON,      // deep tail on the multiple itself
        ];
        let mut seq = 0u64;
        for &ns in &times {
            // Two entries per boundary: equal times must tie-break by seq
            // across whatever levels classification put them in.
            for _ in 0..2 {
                w.push(Nanos(ns), seq, ns as u32);
                reference.push((Nanos(ns), seq, ns as u32));
                seq += 1;
            }
        }
        drain_and_compare(&mut w, &mut reference);
    }

    /// Far-to-overflow promotion at the exact horizon edge, from an
    /// unaligned window: when the wheel jumps to a far event's window `w`,
    /// far entries at coarse `w + OVF_SLOTS` must land in bucket
    /// `(w + OVF_SLOTS) & OVF_MASK` (the aliased one) while coarse
    /// `w + OVF_SLOTS + 1` must stay in the far heap — off-by-one in
    /// either direction would drop or misorder the edge events.
    #[test]
    fn promotion_at_the_exact_far_horizon_edge() {
        const WINDOW: u64 = 1 << (SLOT_SHIFT + NEAR_BITS);
        let mut w = TimingWheel::new();
        let mut reference = Vec::new();
        // 101 is deliberately not a multiple of OVF_SLOTS, so the rotated
        // bitmap scan and the `& OVF_MASK` bucketing both start mid-cycle.
        let base = 101 * WINDOW + 12_345;
        let edge = (101 + OVF_SLOTS as u64) * WINDOW;
        let cases = [
            base,              // becomes the new window via the far peek
            edge - 1,          // last coarse slot inside the promoted horizon
            edge,              // exactly at coarse window + OVF_SLOTS
            edge + WINDOW - 1, // same coarse slot, last nanosecond
            edge + WINDOW,     // one coarse slot beyond: must stay far
        ];
        for (i, &ns) in cases.iter().enumerate() {
            w.push(Nanos(ns), i as u64, i as u32);
            reference.push((Nanos(ns), i as u64, i as u32));
        }
        drain_and_compare(&mut w, &mut reference);
    }

    #[test]
    fn slot_storage_exists_only_while_needed() {
        let mut w = TimingWheel::new();
        assert!(!w.holds_slots(), "a new wheel holds slot storage");
        w.push(Nanos::from_millis(40), 0, 0u32); // an overflow bucket
        w.release_slots();
        assert!(w.holds_slots(), "released the slot of a pending entry");
        assert_eq!(w.pop(), Some((Nanos::from_millis(40), 0, 0)));
        w.release_slots();
        assert!(!w.holds_slots());
        // The cursor stays where the last pop left it: entries behind it,
        // in the near window, in overflow and far out still come out in
        // order, from storage allocated afresh.
        let mut reference = Vec::new();
        for (i, ms) in [39, 40, 41, 100, 5_000].into_iter().enumerate() {
            let e = (Nanos::from_millis(ms), 1 + i as u64, i as u32);
            w.push(e.0, e.1, e.2);
            reference.push(e);
        }
        assert!(w.holds_slots());
        drain_and_compare(&mut w, &mut reference);
    }

    #[test]
    fn steady_state_reuses_slot_capacity() {
        let mut w = TimingWheel::new();
        let mut now = Nanos::ZERO;
        // Sustained traffic across many windows: slot vectors must be
        // reused (drain keeps capacity) rather than grown anew.
        for seq in 0..10_000 {
            w.push(now + Nanos(5000), seq, 1u32);
            now = w.pop().unwrap().0;
        }
        assert!(w.is_empty());
        let near = w.near.as_ref().expect("near slots in use");
        let with_capacity = near.iter().filter(|s| s.capacity() > 0).count();
        assert!(with_capacity > 0, "slots never retained capacity");
    }
}
