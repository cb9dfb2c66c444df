//! Stateless per-bin schedule verification.
//!
//! [`crate::verify::verify_schedule`] re-derives every violation from the
//! whole schedule — `O(segments + tasks · windows)` per call. That is the
//! right cost for a from-scratch plan, but not for re-certifying one bin
//! out of dozens (the cores a table corruption touched, in the
//! `experiments audit` cross-check).
//!
//! [`verify_bin`] runs the verifier's four invariants over one bin's facts
//! alone:
//!
//! * **slot facts** — the core's `(start, end, task)` segment tuples;
//! * **bin-membership facts** — the tasks homed on that core (the per-core
//!   locality of a partitioned plan).
//!
//! The rules are exactly the verifier's checks: (R1) per-core slot
//! geometry, (R2) exact window service, (R3) no parallel execution, (R4)
//! the cyclic blackout bound — implemented by the *same* helper functions
//! the single-pass verifier uses, so verdicts cannot drift. It holds no
//! state between calls: a delta certifies each rebuilt bin on the borrowed
//! slices, so a verdict costs `O(delta)` instead of `O(host)`.
//!
//! **Decline, don't guess.** Judging a bin in isolation is sound only when
//! every one of its tasks appears once and every slot references a task of
//! the bin. Facts that break that locality — a duplicate task id, a slot
//! naming a task outside the bin — get a [`RuleDecline`], not a verdict,
//! and the caller degrades to the full single-pass verifier, mirroring how
//! `verify_schedule_shared` treats a stamp that fails validation. Callers
//! degrade on any finding too, so the violations they report are always
//! the full verifier's.

use crate::index::TaskIndex;
use crate::schedule::Segment;
use crate::task::{PeriodicTask, TaskId};
use crate::time::Nanos;
use crate::verify::{check_task, core_geometry, TaskIntervals, Violation};

/// Why [`verify_bin`] refuses to judge a bin.
///
/// A decline is not a violation: it means the bin's facts are not
/// self-contained, so the caller must degrade to the full single-pass
/// verifier for an authoritative answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleDecline {
    /// A task id appears twice in the bin.
    DuplicateTask(TaskId),
    /// A slot references a task that is not in the bin.
    UnknownTask {
        /// The core whose slots reference it (always 0: one bin, one core).
        core: usize,
        /// The task id outside the bin.
        task: TaskId,
    },
}

impl std::fmt::Display for RuleDecline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuleDecline::DuplicateTask(t) => write!(f, "task {t} twice in one bin"),
            RuleDecline::UnknownTask { core, task } => {
                write!(f, "core {core} slots task {task} from outside its bin")
            }
        }
    }
}

/// The locality guards for one bin: no id twice in the bin, and every slot
/// naming a task of this bin. Reports the first offender in input order.
fn bin_is_local(tasks: &[PeriodicTask], segments: &[Segment]) -> Result<(), RuleDecline> {
    let bin = TaskIndex::new(tasks.iter().map(|t| t.id.0));
    if let Some(pos) = (0..tasks.len()).find(|&pos| bin.first(pos) != pos) {
        return Err(RuleDecline::DuplicateTask(tasks[pos].id));
    }
    match segments.iter().find(|seg| bin.get(seg.task.0).is_none()) {
        None => Ok(()),
        Some(seg) => Err(RuleDecline::UnknownTask {
            core: 0,
            task: seg.task,
        }),
    }
}

/// R2–R4 for one bin, in bin order. The core's slots are bucketed by task
/// in slot order — the same intervals (and order) the full verifier would
/// hand each of these tasks, since the locality guard guarantees they
/// appear on no other core.
fn bin_task_findings(tasks: &[PeriodicTask], segments: &[Segment], h: Nanos) -> Vec<Violation> {
    let ivs = TaskIntervals::of_cores(tasks, std::iter::once(segments));
    let mut found = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        found.extend(check_task(t, ivs.of(i), h));
    }
    found
}

/// Certifies one freshly built bin in isolation: R1 over `segments`, then
/// R2–R4 per task of `tasks`, computed on the borrowed slices — exactly
/// what [`crate::verify::verify_schedule`] answers for the one-core
/// schedule holding `segments`.
///
/// # Errors
///
/// A [`RuleDecline`] when the bin is not self-contained (an id twice in
/// the bin, a slot naming a task outside it); the caller degrades to the
/// full verifier.
pub fn verify_bin(
    tasks: &[PeriodicTask],
    segments: &[Segment],
    hyperperiod: Nanos,
) -> Result<Vec<Violation>, RuleDecline> {
    bin_is_local(tasks, segments)?;
    let mut found = core_geometry(0, segments, hyperperiod);
    found.extend(bin_task_findings(tasks, segments, hyperperiod));
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{CoreSchedule, MultiCoreSchedule};
    use crate::verify::verify_schedule;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn imp(id: u32, c: u64, t: u64) -> PeriodicTask {
        PeriodicTask::implicit(TaskId(id), ms(c), ms(t))
    }

    fn seg(s: u64, e: u64, t: u32) -> Segment {
        Segment::new(ms(s), ms(e), TaskId(t))
    }

    /// The full verifier on the one-core schedule holding `segments`;
    /// `None` when no schedule can hold them (unsorted or overlapping).
    fn full(tasks: &[PeriodicTask], segments: &[Segment], h: Nanos) -> Option<Vec<Violation>> {
        let core = CoreSchedule::from_segments(segments.to_vec()).ok()?;
        let one = MultiCoreSchedule {
            hyperperiod: h,
            cores: vec![core],
        };
        Some(verify_schedule(tasks, &one))
    }

    /// Two valid bins, as the two cores of a partitioned plan.
    fn fixture() -> Vec<(Vec<PeriodicTask>, Vec<Segment>)> {
        vec![
            (
                vec![imp(0, 2, 10), imp(1, 5, 10)],
                vec![seg(0, 2, 0), seg(2, 7, 1)],
            ),
            (
                vec![imp(2, 2, 10), imp(3, 5, 10)],
                vec![seg(0, 2, 2), seg(3, 8, 3)],
            ),
        ]
    }

    #[test]
    fn verdict_matches_full_verifier_on_valid_schedule() {
        for (bin, slots) in fixture() {
            let verdict = verify_bin(&bin, &slots, ms(10)).unwrap();
            assert_eq!(Some(&verdict), full(&bin, &slots, ms(10)).as_ref());
            assert!(verdict.is_empty());
        }
    }

    #[test]
    fn verdict_matches_full_verifier_on_violations() {
        // The core underserves task 2 and drops task 3 entirely.
        let (bin, _) = fixture().pop().unwrap();
        let slots = vec![seg(0, 1, 2)];
        let verdict = verify_bin(&bin, &slots, ms(10)).unwrap();
        assert_eq!(Some(&verdict), full(&bin, &slots, ms(10)).as_ref());
        assert!(verdict
            .iter()
            .any(|v| matches!(v, Violation::WrongService { task, .. } if *task == TaskId(2))));
        assert!(verdict.contains(&Violation::MissingTask(TaskId(3))));
    }

    #[test]
    fn duplicate_task_declines() {
        let bin = vec![imp(0, 2, 10), imp(1, 5, 10), imp(0, 2, 10)];
        let err = verify_bin(&bin, &[seg(0, 2, 0), seg(2, 7, 1)], ms(10)).unwrap_err();
        assert_eq!(err, RuleDecline::DuplicateTask(TaskId(0)));
    }

    #[test]
    fn unknown_slot_task_declines() {
        let err = verify_bin(&[imp(0, 2, 10)], &[seg(0, 2, 0), seg(2, 4, 9)], ms(10)).unwrap_err();
        assert!(matches!(err, RuleDecline::UnknownTask { task, .. } if task == TaskId(9)));
    }

    #[test]
    fn verify_bin_answers_what_the_full_verifier_would() {
        let h = ms(10);
        let bin = vec![imp(0, 2, 10), imp(1, 5, 10)];
        let cases: Vec<(Vec<PeriodicTask>, Vec<Segment>)> = vec![
            // Valid.
            (bin.clone(), vec![seg(0, 2, 0), seg(2, 7, 1)]),
            // Underserved, and a task with no slot at all.
            (bin.clone(), vec![seg(0, 1, 0)]),
            // A slot running past the table end.
            (bin.clone(), vec![seg(0, 2, 0), seg(6, 11, 1)]),
            // Slots out of order: no schedule holds them, never certified.
            (bin.clone(), vec![seg(2, 7, 1), seg(0, 2, 0)]),
            // An id twice in the bin: declined, not judged.
            (vec![imp(0, 2, 10), imp(0, 2, 10)], vec![seg(0, 2, 0)]),
            // A slot naming a task outside the bin: declined.
            (bin.clone(), vec![seg(0, 2, 0), seg(2, 7, 9)]),
            // The empty bin of an idle core.
            (Vec::new(), Vec::new()),
        ];
        let mut verdicts = 0;
        for (tasks, segments) in cases {
            let got = verify_bin(&tasks, &segments, h);
            match (&got, full(&tasks, &segments, h)) {
                (Ok(v), Some(want)) => assert_eq!(v, &want, "{tasks:?} {segments:?}"),
                (Ok(v), None) => assert!(!v.is_empty(), "certified {segments:?}"),
                (Err(_), _) => {}
            }
            verdicts += usize::from(got.is_ok());
        }
        assert_eq!(verdicts, 5, "five bins judged, two declined");
    }
}
