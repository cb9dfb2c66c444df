//! Worst-fit-decreasing partitioning (the planner's first, cheapest stage).
//!
//! Partitioning statically assigns whole tasks to cores so that no core is
//! over-committed; each core is then scheduled independently with EDF. The
//! paper uses the classic *worst-fit decreasing* heuristic — always place
//! the next-largest task on the least-utilized core — because it spreads
//! load evenly, which benefits the second-level scheduler (idle slack ends
//! up on every core, not just the last one).
//!
//! Capacity accounting is exact: a task "fits" on a core iff the core's
//! total demand over the hyperperiod stays within the hyperperiod *and* the
//! processor-demand test passes (the latter matters once C=D pieces with
//! constrained deadlines share the core — see [`crate::split`]).

use crate::analysis::edf_schedulable;
use crate::task::PeriodicTask;
use crate::time::Nanos;

/// The tasks assigned to each core of a platform.
#[derive(Debug, Clone, Default)]
pub struct CoreBins {
    /// Per-core task (piece) lists.
    pub cores: Vec<Vec<PeriodicTask>>,
    /// Hyperperiod used for exact demand accounting.
    pub horizon: Nanos,
}

impl CoreBins {
    /// Creates empty bins for `n_cores` cores.
    pub fn new(n_cores: usize, horizon: Nanos) -> CoreBins {
        CoreBins {
            cores: vec![Vec::new(); n_cores],
            horizon,
        }
    }

    /// Exact demand of a core over the hyperperiod.
    pub fn demand(&self, core: usize) -> Nanos {
        self.cores[core]
            .iter()
            .map(|t| t.cost_per(self.horizon))
            .sum()
    }

    /// Remaining capacity of a core over the hyperperiod.
    pub fn slack(&self, core: usize) -> Nanos {
        self.horizon.saturating_sub(self.demand(core))
    }

    /// Returns `true` if `task` can be added to `core` without making the
    /// core unschedulable under EDF.
    pub fn fits(&self, core: usize, task: &PeriodicTask) -> bool {
        if task.cost_per(self.horizon) > self.slack(core) {
            return false;
        }
        // Fast path: a core holding only implicit-deadline tasks is
        // schedulable iff demand fits, which was just checked.
        if task.deadline == task.period && self.cores[core].iter().all(|t| t.deadline == t.period) {
            return true;
        }
        let mut with = self.cores[core].clone();
        with.push(*task);
        edf_schedulable(&with, self.horizon)
    }

    /// Core indices ordered by decreasing slack (worst-fit order), with the
    /// lowest index winning ties for determinism.
    pub fn worst_fit_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.cores.len()).collect();
        order.sort_by_key(|&c| (std::cmp::Reverse(self.slack(c)), c));
        order
    }

    /// Assigns `task` to `core` without checking; callers check
    /// [`CoreBins::fits`] first.
    pub fn assign(&mut self, core: usize, task: PeriodicTask) {
        self.cores[core].push(task);
    }
}

/// Sorts task indices by decreasing utilization (exact rational compare),
/// breaking ties by index for determinism.
pub fn decreasing_utilization_order(tasks: &[PeriodicTask]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by(|&a, &b| {
        let (ta, tb) = (&tasks[a], &tasks[b]);
        // ua > ub  <=>  Ca * Tb > Cb * Ta (u128 to avoid overflow).
        let lhs = ta.cost.as_nanos() as u128 * tb.period.as_nanos() as u128;
        let rhs = tb.cost.as_nanos() as u128 * ta.period.as_nanos() as u128;
        rhs.cmp(&lhs).then(a.cmp(&b))
    });
    order
}

/// Outcome of a partitioning attempt.
#[derive(Debug, Clone)]
pub struct PartitionResult {
    /// The (possibly partial) per-core assignment.
    pub bins: CoreBins,
    /// Tasks that could not be placed on any core, in the order tried.
    pub unassigned: Vec<PeriodicTask>,
}

impl PartitionResult {
    /// Returns `true` if every task was placed.
    pub fn is_complete(&self) -> bool {
        self.unassigned.is_empty()
    }
}

/// Partitions `tasks` onto `n_cores` cores with worst-fit decreasing.
///
/// Tasks that fit nowhere are returned in `unassigned` (they become input to
/// C=D splitting, the planner's second stage); the partial assignment built
/// so far is kept — splitting continues from it.
///
/// # Examples
///
/// ```
/// use rtsched::partition::worst_fit_decreasing;
/// use rtsched::task::{PeriodicTask, TaskId};
/// use rtsched::time::Nanos;
///
/// let ms = Nanos::from_millis;
/// let tasks: Vec<_> = (0..4)
///     .map(|i| PeriodicTask::implicit(TaskId(i), ms(5), ms(10)))
///     .collect();
/// let r = worst_fit_decreasing(&tasks, 2, ms(10));
/// assert!(r.is_complete());
/// // Worst-fit spreads two tasks per core.
/// assert!(r.bins.cores.iter().all(|c| c.len() == 2));
/// ```
pub fn worst_fit_decreasing(
    tasks: &[PeriodicTask],
    n_cores: usize,
    horizon: Nanos,
) -> PartitionResult {
    let mut bins = CoreBins::new(n_cores, horizon);
    let mut unassigned = Vec::new();
    // Worst-fit order, maintained incrementally: only the core that just
    // received a task changes slack, so one remove + sorted re-insert keeps
    // `order` equal to what a fresh `worst_fit_order()` sort would produce
    // (keys `(Reverse(slack), core)` are unique, so there is exactly one
    // sorted arrangement) without re-sorting all bins for every task.
    let mut slack = vec![horizon; n_cores];
    let mut order: Vec<usize> = (0..n_cores).collect();
    for idx in decreasing_utilization_order(tasks) {
        let task = tasks[idx];
        match order.iter().position(|&core| bins.fits(core, &task)) {
            Some(pos) => {
                let core = order.remove(pos);
                bins.assign(core, task);
                slack[core] = bins.slack(core);
                let key = (std::cmp::Reverse(slack[core]), core);
                let at = order.partition_point(|&c| (std::cmp::Reverse(slack[c]), c) < key);
                order.insert(at, core);
            }
            None => unassigned.push(task),
        }
    }
    PartitionResult { bins, unassigned }
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

    #[test]
    fn decreasing_order_is_by_utilization() {
        let tasks = [imp(0, 1, 10), imp(1, 5, 10), imp(2, 3, 10)];
        assert_eq!(decreasing_utilization_order(&tasks), vec![1, 2, 0]);
    }

    #[test]
    fn decreasing_order_breaks_ties_by_index() {
        let tasks = [imp(0, 2, 10), imp(1, 4, 20), imp(2, 1, 5)];
        // All have U = 0.2.
        assert_eq!(decreasing_utilization_order(&tasks), vec![0, 1, 2]);
    }

    #[test]
    fn exact_fit_partitions() {
        // Four 50% tasks on two cores.
        let tasks: Vec<_> = (0..4).map(|i| imp(i, 5, 10)).collect();
        let r = worst_fit_decreasing(&tasks, 2, ms(10));
        assert!(r.is_complete());
        assert_eq!(r.bins.demand(0), ms(10));
        assert_eq!(r.bins.demand(1), ms(10));
    }

    #[test]
    fn worst_fit_spreads_load() {
        // 0.6 + 0.3 + 0.3: first-fit would pack 0.6+0.3 on core 0; worst-fit
        // puts the two 0.3 tasks on the emptier core.
        let tasks = [imp(0, 6, 10), imp(1, 3, 10), imp(2, 3, 10)];
        let r = worst_fit_decreasing(&tasks, 2, ms(10));
        assert!(r.is_complete());
        let demands = [r.bins.demand(0), r.bins.demand(1)];
        assert!(demands.contains(&ms(6)));
        assert!(demands.contains(&ms(6)));
    }

    #[test]
    fn unsplittable_overflow_is_reported() {
        // Three 60% tasks on two cores: one cannot be placed whole.
        let tasks = [imp(0, 6, 10), imp(1, 6, 10), imp(2, 6, 10)];
        let r = worst_fit_decreasing(&tasks, 2, ms(10));
        assert_eq!(r.unassigned.len(), 1);
        assert_eq!(r.bins.cores.iter().map(Vec::len).sum::<usize>(), 2);
    }

    #[test]
    fn constrained_deadline_uses_demand_test() {
        // A zero-laxity piece occupying [0, 6) every 10 ms leaves room by
        // utilization for a (5, 10) implicit task, but the demand test must
        // still accept it: dbf(10) = 6 + 5 = 11 > 10 -> rejected.
        let piece = PeriodicTask::with_window(TaskId(0), ms(6), ms(10), ms(6), Nanos::ZERO);
        let mut bins = CoreBins::new(1, ms(10));
        bins.assign(0, piece);
        let t = imp(1, 5, 10);
        assert!(!bins.fits(0, &t));
        let t_ok = imp(2, 4, 10);
        assert!(bins.fits(0, &t_ok));
    }

    #[test]
    fn slack_accounting() {
        let mut bins = CoreBins::new(2, ms(20));
        bins.assign(0, imp(0, 5, 10));
        assert_eq!(bins.demand(0), ms(10));
        assert_eq!(bins.slack(0), ms(10));
        assert_eq!(bins.slack(1), ms(20));
        assert_eq!(bins.worst_fit_order(), vec![1, 0]);
    }

    #[test]
    fn zero_cores_leaves_all_unassigned() {
        let tasks = [imp(0, 1, 10)];
        let r = worst_fit_decreasing(&tasks, 0, ms(10));
        assert_eq!(r.unassigned.len(), 1);
    }
}
