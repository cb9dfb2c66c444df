//! Peephole post-processing: preemption reduction (the paper's Sec. 5
//! "future work" pass, implemented).
//!
//! EDF simulation produces correct tables, but its slot order is an
//! accident of deadline ties: patterns like `[X, Y, X]` — task X split
//! around a slice of Y — cost an extra preemption (and, for the dispatcher,
//! an extra context switch) that a reordering to `[X·X, Y]` or `[Y, X·X]`
//! avoids. The pass is made trivially sound by the crate's
//! generate-then-verify design: a candidate swap is applied *speculatively*
//! and kept only if the independent [`crate::verify`] pass still finds the
//! whole schedule flawless (every job window still receives its cost, no
//! cross-core parallelism). Anything the verifier rejects is rolled back.
//!
//! The pass runs to a fixed point; each accepted swap strictly reduces the
//! segment count, so termination is immediate.

use crate::schedule::{MultiCoreSchedule, Segment};
use crate::task::PeriodicTask;

use crate::verify::verify_schedule;

/// What the pass accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeepholeReport {
    /// Contiguous `[X, Y, X]` windows rewritten.
    pub swaps: u64,
    /// Segments before the pass.
    pub segments_before: usize,
    /// Segments after the pass.
    pub segments_after: usize,
}

/// Rebuilds one core's segment list with the window at `i..i+3` replaced.
fn with_window_replaced(segments: &[Segment], i: usize, replacement: [Segment; 2]) -> Vec<Segment> {
    let mut out = Vec::with_capacity(segments.len() - 1);
    out.extend_from_slice(&segments[..i]);
    out.extend_from_slice(&replacement);
    out.extend_from_slice(&segments[i + 3..]);
    out
}

/// Runs the peephole pass over `schedule`, verifying every candidate
/// against `tasks` (the original whole tasks, as handed to the generator).
pub fn peephole(tasks: &[PeriodicTask], schedule: &mut MultiCoreSchedule) -> PeepholeReport {
    let mut report = PeepholeReport {
        segments_before: schedule.cores.iter().map(|c| c.segments().len()).sum(),
        ..PeepholeReport::default()
    };

    let mut changed = true;
    while changed {
        changed = false;
        for core in 0..schedule.cores.len() {
            let mut i = 0;
            while i + 2 < schedule.cores[core].segments().len() {
                let segs = schedule.cores[core].segments().to_vec();
                let (a, b, c) = (segs[i], segs[i + 1], segs[i + 2]);
                let contiguous = a.end == b.start && b.end == c.start;
                if !(contiguous && a.task == c.task && a.task != b.task) {
                    i += 1;
                    continue;
                }
                let x_len = a.len() + c.len();
                let start = a.start;
                let end = c.end;
                // Candidate 1: X first ([X·X, Y]).
                let cand1 = [
                    Segment::new(start, start + x_len, a.task),
                    Segment::new(start + x_len, end, b.task),
                ];
                // Candidate 2: Y first ([Y, X·X]).
                let cand2 = [
                    Segment::new(start, start + b.len(), b.task),
                    Segment::new(start + b.len(), end, a.task),
                ];
                // Only the two tasks in the window can be affected: every
                // other task's segments are untouched, and the replacement
                // preserves per-core ordering by construction. Verifying
                // just those two keeps the pass O(segments) per candidate
                // instead of O(tasks x windows).
                let affected: Vec<PeriodicTask> = tasks
                    .iter()
                    .filter(|t| t.id == a.task || t.id == b.task)
                    .copied()
                    .collect();
                let mut accepted = false;
                for cand in [cand1, cand2] {
                    let new_segments = with_window_replaced(&segs, i, cand);
                    let rebuilt = crate::schedule::CoreSchedule::from_segments(new_segments)
                        .expect("replacement preserves ordering");
                    let old = std::mem::replace(&mut schedule.cores[core], rebuilt);
                    if verify_schedule(&affected, schedule).is_empty() {
                        report.swaps += 1;
                        accepted = true;
                        changed = true;
                        break;
                    }
                    schedule.cores[core] = old;
                }
                if !accepted {
                    i += 1;
                }
            }
        }
    }

    report.segments_after = schedule.cores.iter().map(|c| c.segments().len()).sum();
    debug_assert!(
        verify_schedule(tasks, schedule).is_empty(),
        "peephole output failed full verification"
    );
    report
}

/// Counts the preemptions implied by a schedule: segment boundaries where
/// the task changes without an idle gap (diagnostic used by the ablation
/// benchmark and tests).
pub fn count_preemptions(schedule: &MultiCoreSchedule) -> usize {
    schedule
        .cores
        .iter()
        .map(|c| {
            c.segments()
                .windows(2)
                .filter(|w| w[0].end == w[1].start && w[0].task != w[1].task)
                .count()
        })
        .sum()
}

/// Total idle-free context switches plus table fragmentation measure.
pub fn segment_count(schedule: &MultiCoreSchedule) -> usize {
    schedule.cores.iter().map(|c| c.segments().len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edf::simulate_edf;
    use crate::schedule::CoreSchedule;
    use crate::task::TaskId;
    use crate::time::Nanos;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn seg(s: u64, e: u64, t: u32) -> Segment {
        Segment::new(ms(s), ms(e), TaskId(t))
    }

    #[test]
    fn merges_a_preempted_slot_when_windows_allow() {
        // Task 0: (4, 10); task 1: (2, 10) with a tight deadline that EDF
        // honoured by slicing task 0. Manually construct the sliced layout
        // [X, Y, X]; both reorderings keep all windows (deadline 10).
        let t0 = PeriodicTask::implicit(TaskId(0), ms(4), ms(10));
        let t1 = PeriodicTask::implicit(TaskId(1), ms(2), ms(10));
        let mut schedule = MultiCoreSchedule {
            hyperperiod: ms(10),
            cores: vec![CoreSchedule::from_segments(vec![
                seg(0, 2, 0),
                seg(2, 4, 1),
                seg(4, 6, 0),
            ])
            .unwrap()],
        };
        let before = count_preemptions(&schedule);
        let report = peephole(&[t0, t1], &mut schedule);
        assert_eq!(report.swaps, 1);
        assert!(count_preemptions(&schedule) < before);
        assert!(verify_schedule(&[t0, t1], &schedule).is_empty());
        // Task 0's two slices merged.
        assert_eq!(schedule.cores[0].segments().len(), 2);
    }

    #[test]
    fn rejects_swaps_that_would_parallelize_a_split_task() {
        // Task 0 is split: core 0 serves it at [0, 2) and [4, 6); core 1 at
        // [2, 4). Merging core 0's pieces in either direction would overlap
        // core 1's piece — the verifier rejects both candidates, and the
        // [X, Y, X] pattern survives.
        let t0 = PeriodicTask::implicit(TaskId(0), ms(6), ms(10));
        let t1 = PeriodicTask::implicit(TaskId(1), ms(2), ms(10));
        let mut schedule = MultiCoreSchedule {
            hyperperiod: ms(10),
            cores: vec![
                CoreSchedule::from_segments(vec![seg(0, 2, 0), seg(2, 4, 1), seg(4, 6, 0)])
                    .unwrap(),
                CoreSchedule::from_segments(vec![seg(2, 4, 0)]).unwrap(),
            ],
        };
        assert!(verify_schedule(&[t0, t1], &schedule).is_empty());
        let report = peephole(&[t0, t1], &mut schedule);
        assert_eq!(report.swaps, 0);
        assert_eq!(schedule.cores[0].segments().len(), 3);
    }

    #[test]
    fn zero_laxity_pieces_may_move_when_externally_harmless() {
        // A single-core task set where one task was generated as a
        // zero-laxity piece: the piece's *internal* deadline is a planner
        // construct; the external contract (service per period, blackout
        // bound, no parallelism) allows the merge, and the verifier-gated
        // pass therefore takes it. This documents that the pass optimizes
        // against the real guarantees, not the generator's internal
        // bookkeeping.
        let t0 = PeriodicTask::implicit(TaskId(0), ms(4), ms(10));
        let t1 = PeriodicTask::implicit(TaskId(1), ms(2), ms(10));
        let mut schedule = MultiCoreSchedule {
            hyperperiod: ms(10),
            cores: vec![CoreSchedule::from_segments(vec![
                seg(0, 2, 0),
                seg(2, 4, 1),
                seg(4, 6, 0),
            ])
            .unwrap()],
        };
        let report = peephole(&[t0, t1], &mut schedule);
        assert_eq!(report.swaps, 1);
        assert!(verify_schedule(&[t0, t1], &schedule).is_empty());
    }

    #[test]
    fn preemption_counter_ignores_idle_gaps() {
        let schedule = MultiCoreSchedule {
            hyperperiod: ms(10),
            cores: vec![CoreSchedule::from_segments(vec![
                seg(0, 2, 0),
                seg(3, 5, 1), // idle gap before: not a preemption
                seg(5, 7, 0), // contiguous task change: preemption
            ])
            .unwrap()],
        };
        assert_eq!(count_preemptions(&schedule), 1);
    }

    #[test]
    fn real_edf_output_improves_or_stays_put() {
        // Mixed-period set whose EDF schedule contains genuine slicing.
        let tasks = vec![
            PeriodicTask::implicit(TaskId(0), ms(3), ms(20)),
            PeriodicTask::implicit(TaskId(1), ms(2), ms(5)),
            PeriodicTask::implicit(TaskId(2), ms(6), ms(20)),
        ];
        let core = simulate_edf(&tasks, ms(20)).unwrap();
        let mut schedule = MultiCoreSchedule {
            hyperperiod: ms(20),
            cores: vec![core],
        };
        let before = segment_count(&schedule);
        let report = peephole(&tasks, &mut schedule);
        assert!(verify_schedule(&tasks, &schedule).is_empty());
        assert!(report.segments_after <= before);
        assert_eq!(report.segments_before, before);
    }

    #[test]
    fn idempotent_at_fixed_point() {
        let tasks = vec![
            PeriodicTask::implicit(TaskId(0), ms(4), ms(10)),
            PeriodicTask::implicit(TaskId(1), ms(2), ms(10)),
        ];
        let core = simulate_edf(&tasks, ms(10)).unwrap();
        let mut schedule = MultiCoreSchedule {
            hyperperiod: ms(10),
            cores: vec![core],
        };
        peephole(&tasks, &mut schedule);
        let frozen = schedule.clone();
        let second = peephole(&tasks, &mut schedule);
        assert_eq!(second.swaps, 0);
        assert_eq!(schedule, frozen);
    }
}
