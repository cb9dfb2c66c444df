//! Per-core timer registers: the home of decision-expiry and
//! burst-completion timers outside the event queue.
//!
//! A core has at most one live timer — the expiry of its current decision
//! or the completion of the burst running under it — and every
//! re-schedule replaces it. Kept in the event queue, each replaced timer
//! stays behind as a stale entry that is stored, cascaded, popped and
//! discarded (a quarter of all events under I/O-heavy guests, all piled
//! onto the same slot-end instant). One register per core instead makes
//! replacement an overwrite: a superseded timer never exists.
//!
//! Registers keep the `(time, seq)` key the queue would have ordered the
//! timer by — `seq` from the simulation's single insertion counter — so the
//! event loop's "minimum of queue head and earliest register" is exactly
//! the order of one queue holding everything (the reference heap engine
//! still is that queue; the equivalence suites compare against it).

use rtsched::time::Nanos;

/// An armed core timer: `(time, seq, gen)` — the `(time, seq)` key it
/// orders by among all events, and the decision generation it was armed
/// for.
pub(crate) type Timer = (Nanos, u64, u64);

/// The key of an unarmed register: after every armed one (a real `seq` is
/// never `u64::MAX`, so the low half alone tells an unarmed register).
const UNARMED: u128 = u128::MAX;

/// Whether `key` is a timer's. Reads only the low half: the key was just
/// written as two 64-bit halves, and a full-width read of it would wait
/// for both stores to retire instead of taking the value forwarded from
/// one.
#[inline(always)]
fn armed(key: u128) -> bool {
    key as u64 != u64::MAX
}

/// One register and one winner-tree node, kept side by side so a write
/// and the replay it triggers touch one allocation.
#[derive(Clone, Copy)]
struct Entry {
    /// The register's `(time, seq)` key packed as `time << 64 | seq` (one
    /// compare orders two keys); [`UNARMED`] when empty.
    key: u128,
    /// The decision generation the register was armed for.
    gen: u64,
    /// For `i >= 1`: the register with the smallest key under tree node
    /// `i` (node 1 is the root; leaf `core` is node `len + core`, held
    /// implicitly).
    winner: u32,
}

/// One timer register per core, under a winner tree that always knows the
/// earliest armed one.
///
/// The minimum over registers is asked for once per handled event, and
/// the event it names is almost always followed by a take and a re-arm of
/// that very register — which is exactly what a cached minimum cannot
/// survive: every take forced a rescan of all registers. The tree replays
/// one leaf-to-root path per write instead (`log2` of the core count
/// compares), so reading the minimum is two loads — and the replay of a
/// take is held back until the next arm or read, so that a take followed
/// by a re-arm of the same register (the common case) replays once. Two
/// registers (a fleet host, a one-core machine) keep no tree at all:
/// comparing both keys on read is cheaper than maintaining even a one-node
/// tree (DESIGN.md §5.8). The tree is private so that every write goes
/// through [`CoreTimers::arm`] / [`CoreTimers::take`], which keep it
/// coherent.
pub(crate) struct CoreTimers {
    /// Padded with unarmed registers to a power of two, at least two.
    entries: Vec<Entry>,
    /// A register taken since its path was last replayed ([`NONE`]: none).
    stale: usize,
}

/// No register is stale.
const NONE: usize = usize::MAX;

impl CoreTimers {
    /// `n_cores` unarmed registers.
    pub(crate) fn new(n_cores: usize) -> CoreTimers {
        let leaves = n_cores.next_power_of_two().max(2);
        let unarmed = Entry {
            key: UNARMED,
            gen: 0,
            winner: 0,
        };
        let mut t = CoreTimers {
            entries: vec![unarmed; leaves],
            stale: NONE,
        };
        // Every key is equal: each node's winner is its leftmost leaf.
        for node in 1..leaves {
            let depth = leaves.trailing_zeros() - node.ilog2();
            t.entries[node].winner = ((node << depth) - leaves) as u32;
        }
        t
    }

    /// Whether there are only two registers, and so no tree to maintain.
    #[inline(always)]
    fn pair(&self) -> bool {
        self.entries.len() == 2
    }

    /// Replays the stale register's path, if any.
    #[inline]
    fn settle(&mut self) {
        if self.stale != NONE {
            self.update(self.stale);
            self.stale = NONE;
        }
    }

    /// Replays the path from `core`'s leaf to the root after its key
    /// changed.
    #[inline]
    fn update(&mut self, core: usize) {
        let e = &mut self.entries[..];
        // The bottom node compares two leaves; every node above compares
        // the winner coming up with its sibling's.
        let left = core & !1;
        let mut w = if e[left + 1].key < e[left].key {
            left + 1
        } else {
            left
        };
        let mut node = (e.len() + core) / 2;
        loop {
            e[node].winner = w as u32;
            if node == 1 {
                return;
            }
            let other = e[node ^ 1].winner as usize;
            if e[other].key < e[w].key {
                w = other;
            }
            node /= 2;
        }
    }

    /// Arms `core`'s register, overwriting the timer it supersedes — which
    /// can only be one of an older decision generation, since a live timer
    /// is taken out of its register when it fires.
    #[inline]
    pub(crate) fn arm(&mut self, core: usize, (at, seq, gen): Timer) {
        let e = &mut self.entries[core];
        debug_assert!(
            !armed(e.key) || e.gen < gen,
            "core {core}: generation {gen} overwrites the live generation {}",
            e.gen
        );
        e.key = u128::from(at.as_nanos()) << 64 | u128::from(seq);
        e.gen = gen;
        if self.pair() {
            return;
        }
        if self.stale == core {
            self.stale = NONE;
        } else {
            self.settle();
        }
        self.update(core);
    }

    /// Disarms `core`'s register, returning the timer it held.
    #[inline]
    pub(crate) fn take(&mut self, core: usize) -> Option<Timer> {
        let e = &mut self.entries[core];
        let key = std::mem::replace(&mut e.key, UNARMED);
        if !armed(key) {
            return None;
        }
        let gen = e.gen;
        if !self.pair() && self.stale != core {
            self.settle();
            self.stale = core;
        }
        Some((Nanos((key >> 64) as u64), key as u64, gen))
    }

    /// The earliest armed register as `(time, seq, core)`: the smallest
    /// time, a same-instant tie going to the smaller `seq`.
    #[inline]
    pub(crate) fn earliest(&mut self) -> Option<(Nanos, u64, usize)> {
        let core = if self.pair() {
            usize::from(self.entries[1].key < self.entries[0].key)
        } else {
            self.settle();
            self.entries[1].winner as usize
        };
        let key = self.entries[core].key;
        armed(key).then_some((Nanos((key >> 64) as u64), key as u64, core))
    }

    /// Number of armed registers.
    pub(crate) fn armed(&self) -> usize {
        self.entries.iter().filter(|e| armed(e.key)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn earliest_breaks_a_same_instant_tie_by_seq() {
        let mut t = CoreTimers::new(3);
        assert_eq!(t.earliest(), None);
        t.arm(0, (Nanos(500), 9, 1));
        t.arm(2, (Nanos(500), 7, 1));
        t.arm(1, (Nanos(900), 3, 1));
        assert_eq!(t.earliest(), Some((Nanos(500), 7, 2)));
        assert_eq!(t.take(1), Some((Nanos(900), 3, 1)));
        assert_eq!(t.earliest(), Some((Nanos(500), 7, 2)));
        assert_eq!(t.take(2), Some((Nanos(500), 7, 1)));
        assert_eq!(t.earliest(), Some((Nanos(500), 9, 0)));
        assert_eq!(t.armed(), 1);
        assert_eq!(t.take(2), None);
    }

    #[test]
    fn overwriting_the_earliest_register_with_a_later_timer_moves_the_minimum() {
        let mut t = CoreTimers::new(2);
        t.arm(0, (Nanos(100), 1, 1));
        t.arm(1, (Nanos(200), 2, 1));
        assert_eq!(t.earliest(), Some((Nanos(100), 1, 0)));
        t.arm(0, (Nanos(300), 3, 2)); // supersedes the earliest
        assert_eq!(t.earliest(), Some((Nanos(200), 2, 1)));
        t.arm(1, (Nanos(50), 4, 2)); // a newer timer can still be sooner
        assert_eq!(t.earliest(), Some((Nanos(50), 4, 1)));
    }

    /// The tree never disagrees with a fresh scan, whatever the core count
    /// and the order of arms, takes and reads.
    #[test]
    fn cached_minimum_matches_a_scan_under_random_operations() {
        let scan = |t: &CoreTimers, n: usize| {
            (0..n)
                .filter(|&c| armed(t.entries[c].key))
                .map(|c| {
                    let key = t.entries[c].key;
                    (Nanos((key >> 64) as u64), key as u64, c)
                })
                .min()
        };
        for (seed, n) in (0..8u64).zip([1usize, 2, 3, 5, 6, 8, 12, 48]) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut t = CoreTimers::new(n);
            let mut gens = vec![0u64; n];
            for seq in 1..2_000u64 {
                let core = rng.gen_range(0..n);
                match rng.gen_range(0..4u32) {
                    0 => {
                        t.take(core);
                    }
                    1 => assert_eq!(t.earliest(), scan(&t, n), "seed {seed} seq {seq}"),
                    _ => {
                        gens[core] += 1;
                        // A narrow time range, so equal instants are common.
                        t.arm(core, (Nanos(rng.gen_range(0..8u64)), seq, gens[core]));
                    }
                }
            }
            assert_eq!(t.earliest(), scan(&t, n), "seed {seed}");
        }
    }
}
