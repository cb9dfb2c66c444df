//! Hand-written order cases for the production event queue
//! ([`crate::queue::NearFar`], reached through [`EventQueue`]): empty
//! queues, ties, bounds that split a tie by `seq`, pushes behind the last
//! pop, and times at and across the near/far horizon. Each drains against
//! a sorted reference. They complement the randomized
//! `queue::tests::bounded_pops_match_a_sorted_reference`, and keep the
//! `wheel::tests` names they had when the queue was a timing wheel.

mod tests {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rtsched::time::Nanos;

    use crate::queue::{Event, EventQueue, SPAN};
    use crate::sim::EngineKind;

    type Entry = (Nanos, u64, Event);

    fn ev(i: u64) -> Event {
        Event::Tick { core: i as usize }
    }

    fn near_far() -> EventQueue {
        let q = EventQueue::new(EngineKind::Unbatched);
        assert_eq!(q.kind(), EngineKind::Unbatched);
        q
    }

    /// Bounded by time alone: every `seq` at `at` is within the bound.
    fn pop_by_time(q: &mut EventQueue, at: Nanos) -> Option<Entry> {
        q.pop_if_at_most((at, u64::MAX))
    }

    fn push(q: &mut EventQueue, reference: &mut Vec<Entry>, at: Nanos, seq: u64) {
        q.push(at, seq, ev(seq));
        reference.push((at, seq, ev(seq)));
    }

    /// Pops everything and checks the stream is exactly the reference
    /// heap's.
    fn drain_and_compare(q: &mut EventQueue, reference: &mut [Entry]) {
        reference.sort_unstable();
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push(e);
        }
        assert_eq!(got, reference);
        assert!(q.is_empty());
    }

    #[test]
    fn empty_wheel_pops_nothing() {
        let mut q = near_far();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop_if_at_most((Nanos::ZERO, 0)), None);
        assert!(q.is_empty());
    }

    #[test]
    fn single_level_ordering() {
        let mut q = near_far();
        let mut reference = Vec::new();
        // All within one near window, deliberately out of order.
        for (i, &ns) in [5000u64, 100, 2_000_000, 9999, 100, 0, 2047]
            .iter()
            .enumerate()
        {
            push(&mut q, &mut reference, Nanos(ns), i as u64);
        }
        drain_and_compare(&mut q, &mut reference);
    }

    #[test]
    fn equal_times_pop_in_seq_order() {
        let mut q = near_far();
        for seq in (0..32u64).rev() {
            q.push(Nanos(777), seq, ev(seq));
        }
        let mut prev = None;
        while let Some((at, seq, _)) = q.pop() {
            assert_eq!(at, Nanos(777));
            assert!(prev.is_none_or(|p| p < seq), "seq order broken");
            prev = Some(seq);
        }
        assert_eq!(prev, Some(31));
    }

    /// Times inside the first refill's near window, just past it, and
    /// seconds and minutes out.
    #[test]
    fn entries_span_all_three_levels() {
        let mut q = near_far();
        let mut reference = Vec::new();
        let cases = [
            Nanos(12),                   // sets the horizon at 12 + SPAN
            Nanos::from_millis(1),       // near after that refill
            Nanos::from_millis(40),      // far, its own refill
            Nanos::from_millis(120),     // far
            Nanos::from_millis(5_000),   // far tail
            Nanos::from_millis(120_000), // far tail, deep
        ];
        for (i, &at) in cases.iter().enumerate() {
            push(&mut q, &mut reference, at, i as u64);
        }
        drain_and_compare(&mut q, &mut reference);
    }

    #[test]
    fn pushes_behind_the_cursor_stay_ordered() {
        let mut q = near_far();
        q.push(Nanos::from_millis(1), 0, ev(0));
        assert_eq!(q.pop(), Some((Nanos::from_millis(1), 0, ev(0))));
        // The horizon now lies past both pushes; one for a time before the
        // last pop must still come out before later work.
        q.push(Nanos::from_millis(2), 2, ev(2));
        q.push(Nanos(500), 1, ev(1));
        assert_eq!(q.pop(), Some((Nanos(500), 1, ev(1))));
        assert_eq!(q.pop(), Some((Nanos::from_millis(2), 2, ev(2))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_if_at_most_respects_the_limit() {
        let mut q = near_far();
        q.push(Nanos(100), 0, ev(0));
        q.push(Nanos(200), 1, ev(1));
        assert_eq!(pop_by_time(&mut q, Nanos(50)), None);
        assert_eq!(
            pop_by_time(&mut q, Nanos(150)),
            Some((Nanos(100), 0, ev(0)))
        );
        assert_eq!(pop_by_time(&mut q, Nanos(150)), None);
        assert!(!q.is_empty());
        assert_eq!(
            pop_by_time(&mut q, Nanos(200)),
            Some((Nanos(200), 1, ev(1)))
        );
        assert!(q.is_empty());
    }

    /// A bound between two entries of one near window returns the first
    /// and leaves the second; an entry alone in `far` past the bound is
    /// held there, not lost.
    #[test]
    fn limit_inside_an_occupied_slot_leaves_later_entries() {
        let mut q = near_far();
        q.push(Nanos(2100), 0, ev(0));
        q.push(Nanos(2500), 1, ev(1));
        assert_eq!(
            pop_by_time(&mut q, Nanos(2200)),
            Some((Nanos(2100), 0, ev(0)))
        );
        assert_eq!(pop_by_time(&mut q, Nanos(2200)), None);
        assert_eq!(
            pop_by_time(&mut q, Nanos(2500)),
            Some((Nanos(2500), 1, ev(1)))
        );
        let beyond = Nanos(2100) + SPAN + Nanos(1);
        q.push(beyond, 2, ev(2));
        assert_eq!(pop_by_time(&mut q, beyond - Nanos(1)), None);
        assert_eq!(q.pop(), Some((beyond, 2, ev(2))));
        assert!(q.is_empty());
    }

    #[test]
    fn pop_if_key_at_most_breaks_a_same_instant_tie_by_seq() {
        let mut q = near_far();
        q.push(Nanos(100), 5, ev(0));
        q.push(Nanos(100), 9, ev(1));
        assert_eq!(q.pop_if_at_most((Nanos(100), 4)), None);
        assert_eq!(
            q.pop_if_at_most((Nanos(100), 5)),
            Some((Nanos(100), 5, ev(0)))
        );
        assert_eq!(q.pop_if_at_most((Nanos(100), 8)), None);
        assert_eq!(q.pop_if_at_most((Nanos(99), u64::MAX)), None);
        assert_eq!(
            q.pop_if_at_most((Nanos(101), 0)),
            Some((Nanos(100), 9, ev(1)))
        );
        // The far-head path: `near` is empty, and a head refused on `seq`
        // alone must still be there for the next call.
        let far = Nanos(100) + SPAN;
        q.push(far, 3, ev(2));
        assert_eq!(q.pop_if_at_most((far, 2)), None);
        assert!(!q.is_empty());
        assert_eq!(q.pop_if_at_most((far, 3)), Some((far, 3, ev(2))));
        assert!(q.is_empty());
    }

    /// The property the engine swap rests on: against a random mix of
    /// near, window-scale and far times with interleaved pushes and pops,
    /// the queue's pop stream equals a sorted reference, bit for bit.
    #[test]
    fn randomized_interleaved_matches_reference() {
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut q = near_far();
            let mut reference: Vec<Entry> = Vec::new();
            let mut popped = Vec::new();
            let mut floor = Nanos::ZERO; // pops are monotone; pushes must be >= last pop
            for seq in 0..4000u64 {
                if rng.gen_bool(0.6) || q.is_empty() {
                    let span: u64 = match rng.gen_range(0..10u32) {
                        0..=6 => rng.gen_range(0..2_000_000u64),   // < 2 ms
                        7 | 8 => rng.gen_range(0..130_000_000u64), // < 130 ms
                        _ => rng.gen_range(0..60_000_000_000u64),  // < 60 s
                    };
                    push(&mut q, &mut reference, floor + Nanos(span), seq);
                } else {
                    let got = q.pop().expect("queue non-empty");
                    floor = got.0;
                    popped.push(got);
                }
            }
            while let Some(e) = q.pop() {
                popped.push(e);
            }
            reference.sort_unstable();
            // Pushes never go below the last pop's time, so the final
            // stream is exactly the sorted reference.
            assert_eq!(popped, reference, "seed {seed}");
        }
    }

    /// Pushes at the first and last nanoseconds around the horizon of the
    /// refill at 0 (`SPAN`) and of later refills, two per time, so equal
    /// times tie-break by `seq` whichever heap they wait in.
    #[test]
    fn level_edge_nanoseconds_match_the_reference_heap() {
        let span = SPAN.as_nanos();
        let mut q = near_far();
        let mut reference = Vec::new();
        let times = [
            0,            // the first refill: horizon = SPAN
            span - 1,     // last near nanosecond
            span,         // first far nanosecond
            span + 1,     // one past the edge
            2 * span - 1, // last nanosecond before the refill at SPAN's horizon
            2 * span,     // exactly at that horizon
            2 * span + 1, // one past it
            64 * span,    // far tail, on a multiple
            64 * span + 1,
        ];
        let mut seq = 0u64;
        for &ns in &times {
            for _ in 0..2 {
                push(&mut q, &mut reference, Nanos(ns), seq);
                seq += 1;
            }
        }
        drain_and_compare(&mut q, &mut reference);
    }

    /// A refill from an unaligned far head at `base` sets the horizon to
    /// `base + SPAN`: entries below it move to `near`, entries at or past
    /// it stay in `far`, and a push after the refill lands on its side of
    /// the same edge. Off by one in either direction would misorder the
    /// edge events against the reference.
    #[test]
    fn promotion_at_the_exact_far_horizon_edge() {
        let mut q = near_far();
        let mut reference = Vec::new();
        let base = Nanos(101 * SPAN.as_nanos() + 12_345);
        let edge = base + SPAN;
        let cases = [
            base,                   // the far head: refills, horizon = edge
            edge - Nanos(1),        // moved into `near`
            edge,                   // stays in `far`
            edge + Nanos(1),        // stays in `far`
            edge + SPAN - Nanos(1), // moves at the next refill
            edge + SPAN,            // beyond that one too
        ];
        for (i, &at) in cases.iter().enumerate() {
            push(&mut q, &mut reference, at, 2 * i as u64);
        }
        reference.sort_unstable();
        let first = q.pop().expect("non-empty");
        assert_eq!(first, reference[0]);
        // Pushed after the refill, with a seq that sorts them after the
        // entries already queued at the same instants.
        for (i, at) in [edge - Nanos(1), edge].into_iter().enumerate() {
            push(&mut q, &mut reference, at, 100 + i as u64);
        }
        drain_and_compare(&mut q, &mut reference[1..].to_vec());
    }
}
