//! DP-Fair optimal multiprocessor scheduling for core clusters (the
//! planner's last-resort stage).
//!
//! DP-Fair (Levin et al., ECRTS'10) partitions time at every period
//! boundary of the task set ("deadline partitioning"). Within each resulting
//! *time slice* every task is allocated processor time proportional to its
//! utilization; the per-slice allocations are then laid out on the cluster's
//! cores with McNaughton's wrap-around rule, which splits at most `m - 1`
//! tasks per slice and never runs a task on two cores at once (a task's two
//! segments sit at the end of one core's slice and the start of the next
//! core's, and each allocation is at most the slice length). The result is
//! optimal: any task set with total utilization at most `m` and per-task
//! utilization at most 1 is scheduled with no deadline misses.
//!
//! # Integer allocation: mandatory + optional
//!
//! Ideal per-slice allocations are rational (`U_i * slice_len`); tables are
//! integer nanoseconds. Naive rounding can strand a task a few nanoseconds
//! short at its period boundary when the platform is exactly full. We
//! instead use DP-Fair's *mandatory/optional* formulation with exact
//! integer arithmetic:
//!
//! * a task's **mandatory** work in a slice is what it must receive *now*
//!   or it can no longer finish its period even running in every remaining
//!   slice: `mandatory = max(0, remaining - (boundary - slice_end))`;
//! * the slice's remaining capacity (`m * len - sum(mandatory)`) is handed
//!   out as **optional** work, proportional to utilization.
//!
//! Mandatory work always fits: slices tile time, so the demand/capacity
//! constraints form a transportation polytope, which has integer vertices
//! whenever the inputs are integers — and granting optional work early only
//! *relaxes* future mandatory constraints. The result is exact per-period
//! service for any task set with total utilization at most `m` (including
//! exactly-full sets), verified independently by [`crate::verify`].

use crate::schedule::{CoreSchedule, Segment};
use crate::task::PeriodicTask;
use crate::time::Nanos;

/// Why DP-Fair generation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DpFairError {
    /// Total demand over the horizon exceeds cluster capacity.
    OverUtilized {
        /// Exact demand over the horizon.
        demand: Nanos,
        /// `m * horizon`.
        capacity: Nanos,
    },
    /// A task's own utilization requires more than one core.
    TaskTooBig(PeriodicTask),
    /// Integer rounding could not be repaired (see module docs); in
    /// practice this requires demand within nanoseconds of full capacity.
    RoundingOverflow {
        /// The slice in which capacity was exceeded.
        slice_start: Nanos,
    },
    /// DP-Fair requires implicit deadlines and zero offsets; split pieces
    /// cannot be fed to it.
    NotImplicit(PeriodicTask),
}

impl std::fmt::Display for DpFairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpFairError::OverUtilized { demand, capacity } => {
                write!(
                    f,
                    "cluster over-utilized: demand {demand} > capacity {capacity}"
                )
            }
            DpFairError::TaskTooBig(t) => write!(f, "task {} has utilization > 1", t.id),
            DpFairError::RoundingOverflow { slice_start } => {
                write!(f, "rounding overflow in slice starting at {slice_start}")
            }
            DpFairError::NotImplicit(t) => {
                write!(f, "task {} is not an implicit-deadline task", t.id)
            }
        }
    }
}

impl std::error::Error for DpFairError {}

/// Generates a DP-Fair schedule of `tasks` on a cluster of `m` cores over
/// `[0, horizon)`.
///
/// Requirements: every task is implicit-deadline with zero offset, each
/// task's utilization is below 1 (tasks with `U = 1` get dedicated cores
/// upstream in the planner), periods divide `horizon`, and total demand is
/// at most `m * horizon`.
///
/// Returns one [`CoreSchedule`] per cluster core (the caller maps cluster
/// cores onto physical cores).
pub fn dpfair_schedule(
    tasks: &[PeriodicTask],
    m: usize,
    horizon: Nanos,
) -> Result<Vec<CoreSchedule>, DpFairError> {
    for t in tasks {
        if t.deadline != t.period || !t.offset.is_zero() {
            return Err(DpFairError::NotImplicit(*t));
        }
        if t.cost > t.period {
            return Err(DpFairError::TaskTooBig(*t));
        }
    }
    let demand: Nanos = tasks.iter().map(|t| t.cost_per(horizon)).sum();
    let capacity = horizon * m as u64;
    if demand > capacity {
        return Err(DpFairError::OverUtilized { demand, capacity });
    }
    let mut cores = vec![CoreSchedule::new(); m];
    if tasks.is_empty() || m == 0 {
        if !tasks.is_empty() {
            return Err(DpFairError::OverUtilized {
                demand,
                capacity: Nanos::ZERO,
            });
        }
        return Ok(cores);
    }

    // Deadline partitioning: slice boundaries at every period multiple.
    let mut boundaries: Vec<Nanos> = vec![Nanos::ZERO, horizon];
    for t in tasks {
        let mut b = t.period;
        while b < horizon {
            boundaries.push(b);
            b += t.period;
        }
    }
    boundaries.sort_unstable();
    boundaries.dedup();

    // Remaining cost in each task's current period (reset at boundaries).
    let mut remaining: Vec<Nanos> = tasks.iter().map(|t| t.cost).collect();

    for w in boundaries.windows(2) {
        let (start, end) = (w[0], w[1]);
        let len = end - start;
        let cap = len * m as u64;

        // Mandatory work: what each task must receive in this slice to stay
        // feasible. Slices tile time, so a task's maximum future service
        // before its boundary is exactly `boundary - end`.
        let mut want: Vec<Nanos> = Vec::with_capacity(tasks.len());
        let mut total = Nanos::ZERO;
        for (i, t) in tasks.iter().enumerate() {
            // Next period boundary at or after `end`.
            let boundary =
                Nanos(end.as_nanos().div_ceil(t.period.as_nanos()) * t.period.as_nanos());
            let future = boundary - end;
            let mandatory = remaining[i].saturating_sub(future);
            if mandatory > len {
                // Cannot happen for feasible sets (see module docs); kept
                // as a defensive error path.
                return Err(DpFairError::RoundingOverflow { slice_start: start });
            }
            total += mandatory;
            want.push(mandatory);
        }
        if total > cap {
            return Err(DpFairError::RoundingOverflow { slice_start: start });
        }

        // Optional work: distribute the leftover capacity, first
        // proportionally to utilization (keeping the DP-Fair character),
        // then greedily until the pool or the takers run dry.
        let mut pool = cap - total;
        for (i, t) in tasks.iter().enumerate() {
            if pool.is_zero() {
                break;
            }
            let fair = t.cost.mul_ratio_floor(len.as_nanos(), t.period.as_nanos());
            let headroom = (len - want[i]).min(remaining[i] - want[i]);
            let give = fair.saturating_sub(want[i]).min(headroom).min(pool);
            want[i] += give;
            pool -= give;
        }
        for i in 0..tasks.len() {
            if pool.is_zero() {
                break;
            }
            let headroom = (len - want[i]).min(remaining[i] - want[i]);
            let give = headroom.min(pool);
            want[i] += give;
            pool -= give;
        }

        // McNaughton wrap-around: lay the allocations end-to-end across the
        // cluster's cores.
        let mut core = 0usize;
        let mut pos = Nanos::ZERO; // offset within the slice on `core`
        for (i, t) in tasks.iter().enumerate() {
            let mut w_i = want[i];
            remaining[i] -= w_i;
            while !w_i.is_zero() {
                let room = len - pos;
                let run = w_i.min(room);
                cores[core].push(Segment::new(start + pos, start + pos + run, t.id));
                pos += run;
                w_i -= run;
                if pos == len {
                    core += 1;
                    pos = Nanos::ZERO;
                }
            }
        }

        // Reset per-period accounting for tasks at their boundary.
        for (i, t) in tasks.iter().enumerate() {
            if (end % t.period).is_zero() {
                debug_assert!(
                    remaining[i].is_zero(),
                    "task {} did not receive its cost by the period boundary",
                    t.id
                );
                remaining[i] = t.cost;
            }
        }
    }

    Ok(cores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn imp(id: u32, c: u64, t: u64) -> PeriodicTask {
        PeriodicTask::implicit(TaskId(id), ms(c), ms(t))
    }

    /// Checks the three DP-Fair guarantees directly on the output.
    fn check(tasks: &[PeriodicTask], cores: &[CoreSchedule], horizon: Nanos) {
        // (1) Per-core segments are non-overlapping and ordered (enforced by
        // CoreSchedule::push, but re-assert).
        for c in cores {
            for w in c.segments().windows(2) {
                assert!(w[0].end <= w[1].start);
            }
        }
        // (2) Every task receives exactly C in every period.
        for t in tasks {
            let mut start = Nanos::ZERO;
            while start < horizon {
                let got: Nanos = cores
                    .iter()
                    .map(|c| c.service_in(t.id, start, start + t.period))
                    .sum();
                assert_eq!(got, t.cost, "task {} period at {start}", t.id);
                start += t.period;
            }
        }
        // (3) No task runs on two cores at once.
        for t in tasks {
            let mut segs: Vec<Segment> = cores
                .iter()
                .flat_map(|c| c.segments().iter().filter(|s| s.task == t.id).copied())
                .collect();
            segs.sort_by_key(|s| s.start);
            for w in segs.windows(2) {
                assert!(
                    w[0].end <= w[1].start,
                    "task {} runs in parallel: {:?} and {:?}",
                    t.id,
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn single_task_single_core() {
        let tasks = [imp(0, 3, 10)];
        let cores = dpfair_schedule(&tasks, 1, ms(20)).unwrap();
        check(&tasks, &cores, ms(20));
    }

    #[test]
    fn unpartitionable_set_schedules_on_cluster() {
        // Three 60% tasks on two cores: the canonical case partitioning
        // cannot handle but an optimal scheduler can.
        let tasks = [imp(0, 6, 10), imp(1, 6, 10), imp(2, 6, 10)];
        let cores = dpfair_schedule(&tasks, 2, ms(10)).unwrap();
        check(&tasks, &cores, ms(10));
        // Total busy time equals the exact demand (3 * 6 ms per 10 ms table).
        let busy: Nanos = cores.iter().map(|c| c.busy_time()).sum();
        assert_eq!(busy, ms(18));
    }

    #[test]
    fn mixed_periods_meet_all_windows() {
        let tasks = [imp(0, 4, 10), imp(1, 10, 20), imp(2, 9, 20), imp(3, 2, 5)];
        let cores = dpfair_schedule(&tasks, 2, ms(20)).unwrap();
        check(&tasks, &cores, ms(20));
    }

    #[test]
    fn rounding_with_awkward_ratios() {
        // Periods 3 and 7 us with costs chosen so U*len is never integral.
        let us = Nanos::from_micros;
        let tasks = [
            PeriodicTask::implicit(TaskId(0), us(2), us(3)),
            PeriodicTask::implicit(TaskId(1), us(5), us(7)),
            PeriodicTask::implicit(TaskId(2), us(1), us(3)),
        ];
        // Hyperperiod 21 us; total utilization ~1.71 on 2 cores.
        let cores = dpfair_schedule(&tasks, 2, us(21)).unwrap();
        check(&tasks, &cores, us(21));
    }

    #[test]
    fn over_utilization_rejected() {
        let tasks = [imp(0, 9, 10), imp(1, 9, 10), imp(2, 9, 10)];
        assert!(matches!(
            dpfair_schedule(&tasks, 2, ms(10)),
            Err(DpFairError::OverUtilized { .. })
        ));
    }

    #[test]
    fn full_utilization_task_gets_a_whole_core() {
        // U = 1 is handled by the mandatory mechanism: the task's boundary
        // never leaves it slack, so it runs wall-to-wall.
        let tasks = [
            PeriodicTask::implicit(TaskId(0), ms(10), ms(10)),
            imp(1, 5, 10),
        ];
        let cores = dpfair_schedule(&tasks, 2, ms(10)).unwrap();
        check(&tasks, &cores, ms(10));
    }

    #[test]
    fn exactly_full_platform_is_schedulable() {
        // The rounding corner that motivated the mandatory/optional
        // formulation: awkward period ratios at exactly 100% utilization.
        let us = Nanos::from_micros;
        let tasks = [
            PeriodicTask::implicit(TaskId(0), us(2), us(3)),
            PeriodicTask::implicit(TaskId(1), us(7), us(7)),
            PeriodicTask::implicit(TaskId(2), us(1), us(3)),
        ];
        // Total utilization exactly 2.0 on 2 cores (hyperperiod 21 us).
        let cores = dpfair_schedule(&tasks, 2, us(21)).unwrap();
        check(&tasks, &cores, us(21));
        let busy: Nanos = cores.iter().map(|c| c.busy_time()).sum();
        assert_eq!(busy, us(42));
    }

    #[test]
    fn non_implicit_rejected() {
        let t = PeriodicTask::with_window(TaskId(0), ms(1), ms(10), ms(5), Nanos::ZERO);
        assert!(matches!(
            dpfair_schedule(&[t], 1, ms(10)),
            Err(DpFairError::NotImplicit(_))
        ));
    }

    #[test]
    fn empty_inputs() {
        assert!(dpfair_schedule(&[], 0, ms(10)).unwrap().is_empty());
        assert_eq!(dpfair_schedule(&[], 3, ms(10)).unwrap().len(), 3);
    }

    #[test]
    fn nearly_full_three_core_cluster() {
        // 5 tasks, U = 0.59 each => 2.95 on 3 cores.
        let tasks: Vec<_> = (0..5).map(|i| imp(i, 59, 100)).collect();
        let cores = dpfair_schedule(&tasks, 3, ms(100)).unwrap();
        check(&tasks, &cores, ms(100));
    }
}
