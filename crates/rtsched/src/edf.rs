//! Uniprocessor EDF schedule simulation (the table generator's engine).
//!
//! Once tasks are partitioned onto cores, Tableau "simply simulate\[s\] on
//! each core an earliest-deadline-first schedule until the hyperperiod"
//! (Sec. 5). Because EDF is optimal on uniprocessors, the simulation yields
//! a concrete table meeting every deadline whenever the core passed the
//! schedulability test.
//!
//! The simulation is event-driven: execution advances either to the next job
//! completion or to the next release (where a newly released job may preempt
//! under EDF). Ties on deadlines are broken by position in the task slice,
//! then release time, which makes table generation fully deterministic.

use crate::schedule::{CoreSchedule, Segment};
use crate::task::PeriodicTask;
use crate::time::Nanos;

/// A deadline miss detected during simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineMiss {
    /// The task whose job missed.
    pub task: crate::task::TaskId,
    /// Release time of the missed job.
    pub release: Nanos,
    /// Absolute deadline that passed with work remaining.
    pub deadline: Nanos,
    /// Unserved work at the deadline.
    pub remaining: Nanos,
}

/// One pending job in the EDF simulation.
#[derive(Debug, Clone, Copy)]
struct Job {
    deadline: Nanos,
    task_index: usize,
    release: Nanos,
    remaining: Nanos,
}

impl Job {
    /// EDF priority, smallest first: deadline, then position in the input
    /// slice, then release time. Unique per job, so the order is total.
    fn key(&self) -> (Nanos, usize, Nanos) {
        (self.deadline, self.task_index, self.release)
    }
}

/// Simulates an EDF schedule of `tasks` on one core over `[0, horizon)`.
///
/// Jobs are released at `offset + k * period`; the final partial job window
/// never extends past `horizon` because the planner maintains
/// `offset + deadline <= period` and periods dividing the horizon (see
/// [`crate::task`]). The resulting [`CoreSchedule`] therefore repeats
/// cleanly with period `horizon`.
///
/// **Cost.** `O(segments × tasks)`: each step of the loop emits at most one
/// segment, walks the ready set once (pick the earliest deadline) and, only
/// when a release is due, the task list once (admit it, find the next).
/// Releases are never materialized — each task carries one cursor to its
/// next release — so besides the output the working state is two arrays of
/// `tasks.len()` entries, nothing proportional to the number of releases in
/// the hyperperiod. A bin holds 3–8 tasks, where a scan of an unsorted
/// ready set beats a heap's sift (and a release list's sort) outright; at a
/// few dozen tasks per bin the heap would win again. The sort-and-heap
/// simulator this replaced lives on as the oracle of `tests/prop_edf.rs`.
///
/// # Errors
///
/// Returns the first [`DeadlineMiss`] if the task set was not schedulable.
/// The planner only calls this after a successful schedulability test, so an
/// error here indicates an analysis bug (and is exercised directly in
/// tests).
pub fn simulate_edf(tasks: &[PeriodicTask], horizon: Nanos) -> Result<CoreSchedule, DeadlineMiss> {
    let mut jobs_in_table = 0u64;
    for task in tasks {
        debug_assert!(task.is_valid(), "invalid task in simulate_edf: {task:?}");
        debug_assert!(
            (horizon % task.period).is_zero(),
            "period {} does not divide horizon {horizon}",
            task.period
        );
        jobs_in_table += horizon.0.checked_div(task.period.0).unwrap_or(0);
    }
    // Every job yields a segment and most preemptions merge away again, so
    // the job count is the size to start from (a hint: capped, so that a
    // nanosecond period cannot reserve a table's worth of memory up front).
    let mut schedule = CoreSchedule::with_capacity(jobs_in_table.min(1 << 16) as usize);

    // Per task, its next release not yet admitted.
    let mut cursor: Vec<Nanos> = tasks.iter().map(|t| t.offset).collect();
    // Pending jobs, unordered; at most one per task unless a miss is due.
    let mut ready: Vec<Job> = Vec::with_capacity(tasks.len() + 1);
    let mut now = Nanos::ZERO;
    // The earliest release not yet admitted; `Nanos::MAX` once every task
    // has released its last job of the table. Starts due, so the first pass
    // admits the jobs released at time zero.
    let mut next_release = Nanos::ZERO;

    loop {
        // Admit all releases up to `now`, and find the earliest one after.
        // Nothing is due before `next_release`, so most steps skip the scan.
        if next_release <= now {
            next_release = Nanos::MAX;
            for (task_index, (task, release)) in tasks.iter().zip(&mut cursor).enumerate() {
                while *release <= now && *release < horizon {
                    ready.push(Job {
                        deadline: *release + task.deadline,
                        task_index,
                        release: *release,
                        remaining: task.cost,
                    });
                    *release += task.period;
                }
                if *release < horizon {
                    next_release = next_release.min(*release);
                }
            }
        }

        let Some(at) = (0..ready.len()).min_by_key(|&i| ready[i].key()) else {
            // Idle: jump to the next release, or finish.
            if next_release == Nanos::MAX {
                break;
            }
            now = next_release;
            continue;
        };
        let job = &mut ready[at];

        // A miss happens exactly when a job still has work at its deadline.
        // Two cases surface it here: the chosen job's deadline has already
        // passed, or running it to completion would cross the deadline (EDF
        // ran every earlier-deadline job first, so nothing can save it).
        let completion = now + job.remaining;
        if job.deadline <= now || completion > job.deadline {
            let served_by_deadline = job.deadline.saturating_sub(now).min(job.remaining);
            return Err(DeadlineMiss {
                task: tasks[job.task_index].id,
                release: job.release,
                deadline: job.deadline,
                remaining: job.remaining - served_by_deadline,
            });
        }

        // Run the earliest-deadline job until it completes or the next
        // release arrives (a release is the only event that can preempt
        // under EDF with a static ready set).
        let until = completion.min(next_release);

        if until > now {
            schedule.push(Segment::new(now, until, tasks[job.task_index].id));
            job.remaining -= until - now;
        }
        now = until;

        if job.remaining.is_zero() {
            ready.swap_remove(at);
        }
    }

    debug_assert!(
        schedule
            .segments()
            .last()
            .map(|s| s.end <= horizon)
            .unwrap_or(true),
        "EDF simulation ran past the horizon"
    );
    Ok(schedule)
}

/// Simulates EDF for `tasks` with ids replaced by bin positions
/// (`TaskId(0), TaskId(1), ...` in slice order).
///
/// This is the memoization-friendly form: the result depends only on the
/// parameter *sequence* `(cost, period, deadline, offset)` of the input, so
/// one positional schedule can be stamped onto every bin sharing that
/// sequence via [`CoreSchedule::relabel`]. Equivalence with the direct
/// simulation is exact, segment for segment: the simulator orders
/// jobs by `(deadline, task_index, release)` where `task_index` is the
/// position in the input slice — real ids are consulted *only* when
/// labeling output segments and the returned [`DeadlineMiss`] — and the
/// position↔id substitution is a bijection within one bin, so segment
/// merging in [`CoreSchedule::push`] coincides too.
pub fn simulate_edf_positional(
    tasks: &[PeriodicTask],
    horizon: Nanos,
) -> Result<CoreSchedule, DeadlineMiss> {
    let positional: Vec<PeriodicTask> = tasks
        .iter()
        .enumerate()
        .map(|(pos, t)| PeriodicTask {
            id: crate::task::TaskId(pos as u32),
            ..*t
        })
        .collect();
    simulate_edf(&positional, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{PeriodicTask, TaskId};

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    #[test]
    fn single_task_runs_at_each_release() {
        let t = PeriodicTask::implicit(TaskId(0), ms(2), ms(10));
        let s = simulate_edf(&[t], ms(20)).unwrap();
        assert_eq!(
            s.segments(),
            &[
                Segment::new(ms(0), ms(2), TaskId(0)),
                Segment::new(ms(10), ms(12), TaskId(0)),
            ]
        );
    }

    #[test]
    fn edf_orders_by_deadline() {
        // Task 1 has the shorter period (hence earlier first deadline) and
        // runs first.
        let a = PeriodicTask::implicit(TaskId(0), ms(4), ms(20));
        let b = PeriodicTask::implicit(TaskId(1), ms(2), ms(10));
        let s = simulate_edf(&[a, b], ms(20)).unwrap();
        let segs = s.segments();
        assert_eq!(segs[0].task, TaskId(1));
        assert_eq!(segs[0].end, ms(2));
        assert_eq!(segs[1].task, TaskId(0));
    }

    #[test]
    fn preemption_on_earlier_deadline_release() {
        // Long job starts at 0; short-period task released at 5 preempts it.
        let long = PeriodicTask::implicit(TaskId(0), ms(8), ms(20));
        let short = PeriodicTask::with_window(TaskId(1), ms(1), ms(20), ms(2), ms(5));
        let s = simulate_edf(&[long, short], ms(20)).unwrap();
        // Expect: [0,5) long, [5,6) short, [6,9) long.
        assert_eq!(
            s.segments(),
            &[
                Segment::new(ms(0), ms(5), TaskId(0)),
                Segment::new(ms(5), ms(6), TaskId(1)),
                Segment::new(ms(6), ms(9), TaskId(0)),
            ]
        );
    }

    #[test]
    fn full_utilization_meets_all_deadlines() {
        let a = PeriodicTask::implicit(TaskId(0), ms(5), ms(10));
        let b = PeriodicTask::implicit(TaskId(1), ms(10), ms(20));
        let s = simulate_edf(&[a, b], ms(20)).unwrap();
        assert_eq!(s.busy_time(), ms(20));
        // Each task receives its cost in each of its periods.
        assert_eq!(s.service_in(TaskId(0), ms(0), ms(10)), ms(5));
        assert_eq!(s.service_in(TaskId(0), ms(10), ms(20)), ms(5));
        assert_eq!(s.service_in(TaskId(1), ms(0), ms(20)), ms(10));
    }

    #[test]
    fn zero_laxity_piece_runs_exactly_at_release() {
        let piece = PeriodicTask::with_window(TaskId(0), ms(3), ms(10), ms(3), Nanos::ZERO);
        let filler = PeriodicTask::implicit(TaskId(1), ms(4), ms(10));
        let s = simulate_edf(&[piece, filler], ms(10)).unwrap();
        assert_eq!(s.segments()[0], Segment::new(ms(0), ms(3), TaskId(0)));
    }

    #[test]
    fn offset_pieces_respect_release_times() {
        let piece = PeriodicTask::with_window(TaskId(0), ms(2), ms(10), ms(2), ms(4));
        let s = simulate_edf(&[piece], ms(20)).unwrap();
        assert_eq!(
            s.segments(),
            &[
                Segment::new(ms(4), ms(6), TaskId(0)),
                Segment::new(ms(14), ms(16), TaskId(0)),
            ]
        );
    }

    #[test]
    fn infeasible_set_reports_miss() {
        let a = PeriodicTask::with_window(TaskId(0), ms(2), ms(10), ms(2), Nanos::ZERO);
        let b = PeriodicTask::with_window(TaskId(1), ms(2), ms(10), ms(2), Nanos::ZERO);
        let err = simulate_edf(&[a, b], ms(10)).unwrap_err();
        assert_eq!(err.deadline, ms(2));
        assert!(err.remaining > Nanos::ZERO);
    }

    #[test]
    fn positional_simulation_relabels_to_direct() {
        // Ids chosen out of order so any id-sensitive tie-break would show.
        let a = PeriodicTask::implicit(TaskId(5), ms(5), ms(10));
        let b = PeriodicTask::implicit(TaskId(3), ms(10), ms(20));
        let direct = simulate_edf(&[a, b], ms(20)).unwrap();
        let pos = simulate_edf_positional(&[a, b], ms(20)).unwrap();
        let ids = [TaskId(5), TaskId(3)];
        assert_eq!(pos.relabel(|t| ids[t.0 as usize]), direct);
    }

    #[test]
    fn empty_task_list_gives_idle_schedule() {
        let s = simulate_edf(&[], ms(10)).unwrap();
        assert!(s.segments().is_empty());
    }

    #[test]
    fn simulation_respects_horizon() {
        let t = PeriodicTask::implicit(TaskId(0), ms(9), ms(10));
        let s = simulate_edf(&[t], ms(50)).unwrap();
        assert!(s.segments().last().unwrap().end <= ms(50));
        assert_eq!(s.busy_time(), ms(45));
    }
}
