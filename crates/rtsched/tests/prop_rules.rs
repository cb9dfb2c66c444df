//! Property-based tests for the per-bin verifier.
//!
//! The contract: for a bin and the slots of its core, [`verify_bin`]
//! returns either exactly [`verify_schedule`]'s violation list for the
//! one-core schedule holding those slots, or a [`RuleDecline`] — over
//! EDF-simulated bins, injected corruptions, and generator-produced plans.
//! Callers degrade to the full verifier on a decline or any finding, so no
//! corruption the full verifier flags can be certified per bin.
//!

use proptest::prelude::*;

use rtsched::edf::simulate_edf;
use rtsched::generator::{generate_schedule, GenOptions};
use rtsched::hyperperiod::divisors;
use rtsched::rules::{verify_bin, RuleDecline};
use rtsched::schedule::{CoreSchedule, MultiCoreSchedule, Segment};
use rtsched::task::{PeriodicTask, TaskId};
use rtsched::time::Nanos;
use rtsched::verify::{verify_schedule, Violation};

/// Table length of every plan here (µs).
const H_US: u64 = 7_200;

fn horizon() -> Nanos {
    Nanos::from_micros(H_US)
}

/// Period menu: divisors of the table length, 400 µs and up.
fn period_menu() -> Vec<u64> {
    divisors(H_US).into_iter().filter(|&d| d >= 400).collect()
}

/// Implicit-deadline tasks from `(period pick, utilization %)` pairs, ids
/// from `first_id` up, cut off where they would exceed `cores` cores.
fn tasks_of(raw: &[(usize, u64)], first_id: u32, cores: u64) -> Vec<PeriodicTask> {
    let menu = period_menu();
    let mut tasks: Vec<PeriodicTask> = raw
        .iter()
        .enumerate()
        .map(|(i, &(pi, upct))| {
            let period = Nanos::from_micros(menu[pi % menu.len()]);
            let cost = Nanos(period.as_nanos() * upct / 100);
            PeriodicTask::implicit(TaskId(first_id + i as u32), cost, period)
        })
        .collect();
    while tasks.iter().map(|t| t.cost_per(horizon())).sum::<Nanos>() > horizon() * cores {
        tasks.pop();
    }
    tasks
}

/// One core's bin (1–5 tasks, at most fully utilized, ids from 10 up) and
/// its EDF-simulated slots.
fn arb_bin() -> impl Strategy<Value = (Vec<PeriodicTask>, Vec<Segment>)> {
    proptest::collection::vec((0usize..6, 5u64..=45), 1..=5).prop_map(|raw| {
        let bin = tasks_of(&raw, 10, 1);
        let slots = simulate_edf(&bin, horizon()).expect("EDF schedules a bin that fits");
        (bin, slots.segments().to_vec())
    })
}

/// The full verifier's answer for the one-core schedule holding `slots`;
/// `None` when no schedule can hold them (out of order or overlapping).
fn full(bin: &[PeriodicTask], slots: &[Segment]) -> Option<Vec<Violation>> {
    let core = CoreSchedule::from_segments(slots.to_vec()).ok()?;
    let one = MultiCoreSchedule {
        hyperperiod: horizon(),
        cores: vec![core],
    };
    Some(verify_schedule(bin, &one))
}

/// Holds [`verify_bin`] to the contract for one bin and slot list, and
/// returns its answer.
fn check(bin: &[PeriodicTask], slots: &[Segment]) -> Result<Vec<Violation>, RuleDecline> {
    let got = verify_bin(bin, slots, horizon());
    match (&got, full(bin, slots)) {
        (Ok(v), Some(want)) => assert_eq!(v, &want, "{bin:?} {slots:?}"),
        // Slots no schedule can hold are flagged, never certified.
        (Ok(v), None) => assert!(!v.is_empty(), "certified {slots:?}"),
        (Err(_), _) => {}
    }
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A valid plan certifies incrementally — one EDF-simulated bin at a
    /// time — and each verdict is the (empty) full-verifier list.
    #[test]
    fn valid_plans_certify_incrementally((bin, slots) in arb_bin()) {
        prop_assert_eq!(check(&bin, &slots), Ok(Vec::new()));
    }

    /// Every injected corruption is either judged byte-identically to the
    /// full verifier or declined — the per-bin check can never pass a
    /// corruption the full pass flags.
    #[test]
    fn corruptions_verdict_byte_identical_to_full_verifier(
        (bin, slots) in arb_bin(),
        i in any::<usize>(),
        j in any::<usize>(),
        kind in 0u8..6,
        by in 1u64..50_000,
    ) {
        let (mut bin, mut slots) = (bin, slots);
        let (i, j) = (i % slots.len(), j % slots.len());
        let Segment { start, end, task } = slots[i];
        let by = Nanos(by.min(slots[i].len().as_nanos() - 1));
        let judged = match kind {
            // Swapped: two slots trade tasks.
            0 => {
                slots[i] = Segment::new(start, end, slots[j].task);
                slots[j] = Segment::new(slots[j].start, slots[j].end, task);
                true
            }
            // Shifted later, possibly onto its successor or past the end.
            1 => {
                slots[i] = Segment::new(start + by, end + by, task);
                true
            }
            // Truncated: the task is underserved.
            2 => {
                slots[i] = Segment::new(start, end - by, task);
                prop_assert!(full(&bin, &slots).is_some_and(|v| !v.is_empty()));
                true
            }
            // Re-labelled to a sibling in the bin.
            3 => {
                slots[i] = Segment::new(start, end, bin[j % bin.len()].id);
                true
            }
            // A slot naming a task outside the bin.
            4 => {
                slots[i] = Segment::new(start, end, TaskId(9));
                false
            }
            // An id twice in the bin.
            _ => {
                bin.push(bin[j % bin.len()]);
                false
            }
        };
        prop_assert_eq!(check(&bin, &slots).is_ok(), judged, "kind {}", kind);
    }

    /// Generator-produced two-core plans (the real planner substrate, C=D
    /// splits included): each core is judged exactly or declined, and every
    /// core certifies exactly when no task is split.
    #[test]
    fn generated_plans_agree_with_the_full_verifier(
        raw in proptest::collection::vec((0usize..6, 5u64..=90), 1..=8),
    ) {
        let tasks = tasks_of(&raw, 0, 2);
        let opts = GenOptions { min_piece: Nanos::from_micros(10), ..GenOptions::default() };
        if let Ok(g) = generate_schedule(&tasks, 2, horizon(), &opts) {
            // Per-core bins from the schedule: a task is homed on the first
            // core it appears on, so a split task's second core slots a
            // task outside its bin and must decline.
            let mut bins: Vec<Vec<PeriodicTask>> = vec![Vec::new(); g.schedule.cores.len()];
            let mut seen: Vec<u32> = Vec::new();
            for (core, cs) in g.schedule.cores.iter().enumerate() {
                for seg in cs.segments() {
                    if !seen.contains(&seg.task.0) {
                        seen.push(seg.task.0);
                        let t = tasks.iter().find(|t| t.id == seg.task).expect("known task");
                        bins[core].push(*t);
                    }
                }
            }
            let mut certified = true;
            for (bin, cs) in bins.iter().zip(&g.schedule.cores) {
                certified &= check(bin, cs.segments()) == Ok(Vec::new());
            }
            let ordered: Vec<PeriodicTask> = bins.iter().flatten().cloned().collect();
            let whole = verify_schedule(&ordered, &g.schedule);
            prop_assert!(whole.is_empty(), "generated schedules verify");
            prop_assert_eq!(certified, g.split_tasks.is_empty());
        }
    }
}
