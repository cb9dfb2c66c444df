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

/// One timer register per core, plus a cache of the earliest armed one.
///
/// The minimum over registers is asked for once per handled event but
/// changes less often (a wake-up or an IPI to a core that is not next
/// leaves it alone), and a scan costs a cache line per two cores: a plain
/// scan per event measured 6–10 % slower at 16 cores and 23–27 % at 48
/// (DESIGN.md §5.8). The cache is private so that every write goes
/// through [`CoreTimers::arm`] / [`CoreTimers::take`], which keep it
/// coherent.
pub(crate) struct CoreTimers {
    regs: Vec<Option<Timer>>,
    /// `(time, seq, core)` of the earliest armed register (inner `None`:
    /// none is armed); outer `None` when a write invalidated it, to be
    /// recomputed by the next [`CoreTimers::earliest`].
    cached: Option<Option<(Nanos, u64, usize)>>,
}

impl CoreTimers {
    /// `n_cores` unarmed registers.
    pub(crate) fn new(n_cores: usize) -> CoreTimers {
        CoreTimers {
            regs: vec![None; n_cores],
            cached: Some(None),
        }
    }

    /// Arms `core`'s register, overwriting the timer it supersedes — which
    /// can only be one of an older decision generation, since a live timer
    /// is taken out of its register when it fires.
    #[inline]
    pub(crate) fn arm(&mut self, core: usize, timer: Timer) {
        debug_assert!(
            self.regs[core].is_none_or(|old| old.2 < timer.2),
            "core {core}: {timer:?} overwrites the live {:?}",
            self.regs[core]
        );
        self.regs[core] = Some(timer);
        let (at, seq, _) = timer;
        match self.cached {
            // The earliest register itself was overwritten: anything may
            // be next now.
            Some(Some((_, _, c))) if c == core => self.cached = None,
            Some(Some((eat, eseq, _))) if (eat, eseq) < (at, seq) => {}
            Some(_) => self.cached = Some(Some((at, seq, core))),
            None => {}
        }
    }

    /// Disarms `core`'s register, returning the timer it held.
    #[inline]
    pub(crate) fn take(&mut self, core: usize) -> Option<Timer> {
        self.cached = None;
        self.regs[core].take()
    }

    /// The earliest armed register as `(time, seq, core)`: the smallest
    /// time, a same-instant tie going to the smaller `seq`.
    #[inline]
    pub(crate) fn earliest(&mut self) -> Option<(Nanos, u64, usize)> {
        if let Some(known) = self.cached {
            return known;
        }
        let mut best: Option<(Nanos, u64, usize)> = None;
        for (core, reg) in self.regs.iter().enumerate() {
            if let Some((at, seq, _)) = *reg {
                if best.is_none_or(|(bat, bseq, _)| (at, seq) < (bat, bseq)) {
                    best = Some((at, seq, core));
                }
            }
        }
        self.cached = Some(best);
        best
    }

    /// Number of armed registers.
    pub(crate) fn armed(&self) -> usize {
        self.regs.iter().flatten().count()
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
        // Through the cache as the arms maintained it, then through a scan.
        assert_eq!(t.earliest(), Some((Nanos(500), 7, 2)));
        assert_eq!(t.take(1), Some((Nanos(900), 3, 1)));
        assert_eq!(t.earliest(), Some((Nanos(500), 7, 2)));
        assert_eq!(t.take(2), Some((Nanos(500), 7, 1)));
        assert_eq!(t.earliest(), Some((Nanos(500), 9, 0)));
        assert_eq!(t.armed(), 1);
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

    /// The cache never disagrees with a fresh scan, whatever the order of
    /// arms, takes and reads.
    #[test]
    fn cached_minimum_matches_a_scan_under_random_operations() {
        let key = |(core, reg): (usize, &Option<Timer>)| reg.map(|(at, seq, _)| (at, seq, core));
        let scan = |t: &CoreTimers| t.regs.iter().enumerate().filter_map(key).min();
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut t = CoreTimers::new(6);
            let mut gens = [0u64; 6];
            for seq in 1..2_000u64 {
                let core = rng.gen_range(0..6usize);
                match rng.gen_range(0..4u32) {
                    0 => {
                        t.take(core);
                    }
                    1 => assert_eq!(t.earliest(), scan(&t), "seed {seed} seq {seq}"),
                    _ => {
                        gens[core] += 1;
                        // A narrow time range, so equal instants are common.
                        t.arm(core, (Nanos(rng.gen_range(0..8u64)), seq, gens[core]));
                    }
                }
            }
            assert_eq!(t.earliest(), scan(&t), "seed {seed}");
        }
    }
}
