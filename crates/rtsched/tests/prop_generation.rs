//! Property-based tests for schedule generation.
//!
//! The central invariant of `rtsched` is *generate-then-verify*: for any
//! task set that does not over-utilize the platform, the three-stage
//! generator must produce a schedule, and the independent verifier must
//! find it flawless (exact per-window service, no parallel execution of one
//! task, bounded blackouts). Property testing explores the awkward corners
//! of that space — near-full utilization, mixed periods, forced splits.

use proptest::prelude::*;

use rtsched::analysis::{dbf, edf_schedulable, edf_schedulable_enumerative, qpa_schedulable};
use rtsched::edf::simulate_edf;
use rtsched::generator::{generate_schedule, GenOptions};
use rtsched::hyperperiod::divisors;
use rtsched::task::{PeriodicTask, TaskId};
use rtsched::time::Nanos;
use rtsched::verify::verify_schedule;

/// Period menu: divisors of 7,200 µs (a small, divisor-rich hyperperiod).
const HYPER_US: u64 = 7_200;
fn period_menu() -> Vec<u64> {
    divisors(HYPER_US)
        .into_iter()
        .filter(|&d| d >= 400) // enforceability floor, scaled down
        .collect()
}

/// Strategy: a task with a menu period and a utilization in [5%, 95%].
fn arb_task(id: u32) -> impl Strategy<Value = PeriodicTask> {
    let menu = period_menu();
    (0..menu.len(), 5u64..=95).prop_map(move |(pi, upct)| {
        let period = Nanos::from_micros(menu[pi]);
        let cost = Nanos(period.as_nanos() * upct / 100);
        PeriodicTask::implicit(TaskId(id), cost, period)
    })
}

/// Strategy: up to 12 tasks trimmed so total utilization fits `cores`.
fn arb_taskset(cores: usize) -> impl Strategy<Value = Vec<PeriodicTask>> {
    proptest::collection::vec(any::<u32>(), 1..=12)
        .prop_flat_map(move |seeds| {
            let tasks: Vec<_> = seeds
                .iter()
                .enumerate()
                .map(|(i, _)| arb_task(i as u32))
                .collect();
            (tasks, Just(cores))
        })
        .prop_map(|(mut tasks, cores)| {
            // Trim tasks until the exact demand fits the platform.
            let horizon = Nanos::from_micros(HYPER_US);
            let capacity = horizon * cores as u64;
            while tasks.iter().map(|t| t.cost_per(horizon)).sum::<Nanos>() > capacity {
                tasks.pop();
            }
            tasks
        })
        .prop_filter("non-empty", |t| !t.is_empty())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any admissible set generates, and the generated schedule verifies.
    #[test]
    fn admissible_sets_generate_verified_schedules(tasks in arb_taskset(3)) {
        let horizon = Nanos::from_micros(HYPER_US);
        let g = generate_schedule(&tasks, 3, horizon, &GenOptions {
            // Scaled-down sliver floor to match the scaled-down horizon.
            min_piece: Nanos::from_micros(10),
            ..GenOptions::default()
        });
        let g = g.expect("admissible set must generate");
        prop_assert!(verify_schedule(&tasks, &g.schedule).is_empty());
    }

    /// The demand-bound test agrees with exhaustive EDF simulation on one
    /// core (the analysis is exact, not merely sufficient).
    #[test]
    fn demand_test_matches_edf_simulation(tasks in arb_taskset(1)) {
        let horizon = Nanos::from_micros(HYPER_US);
        let analytic = edf_schedulable(&tasks, horizon);
        let simulated = simulate_edf(&tasks, horizon).is_ok();
        prop_assert_eq!(analytic, simulated);
    }

    /// QPA computes exactly the same predicate as full point enumeration —
    /// on arbitrary (not necessarily admissible) sets, including
    /// over-utilized and zero-laxity-heavy ones.
    #[test]
    fn qpa_equals_enumeration(
        raw in proptest::collection::vec((1u64..=95, 0usize..6, 0u64..=100), 1..10)
    ) {
        let menu = period_menu();
        let tasks: Vec<PeriodicTask> = raw
            .iter()
            .enumerate()
            .map(|(i, &(upct, pi, dpct))| {
                let period = Nanos::from_micros(menu[pi % menu.len()]);
                let cost = Nanos((period.as_nanos() * upct / 100).max(1));
                // Deadline between cost and period.
                let slack = period - cost;
                let deadline = cost + Nanos(slack.as_nanos() * dpct / 100);
                PeriodicTask::with_window(TaskId(i as u32), cost, period, deadline, Nanos::ZERO)
            })
            .collect();
        let horizon = Nanos::from_micros(HYPER_US);
        prop_assert_eq!(
            qpa_schedulable(&tasks, horizon),
            edf_schedulable_enumerative(&tasks, horizon)
        );
    }

    /// dbf is monotone in t and zero below the earliest deadline.
    #[test]
    fn dbf_is_monotone(tasks in arb_taskset(2), probe in 0u64..HYPER_US) {
        let t1 = Nanos::from_micros(probe);
        let t2 = t1 + Nanos::from_micros(100);
        prop_assert!(dbf(&tasks, t1) <= dbf(&tasks, t2));
        let earliest = tasks.iter().map(|t| t.deadline).min().unwrap();
        if t1 < earliest {
            prop_assert_eq!(dbf(&tasks, t1), Nanos::ZERO);
        }
    }

    /// EDF simulation gives every task exactly its cost in every period.
    #[test]
    fn edf_service_is_exact(tasks in arb_taskset(1)) {
        let horizon = Nanos::from_micros(HYPER_US);
        if let Ok(schedule) = simulate_edf(&tasks, horizon) {
            for task in &tasks {
                let mut start = Nanos::ZERO;
                while start < horizon {
                    let got = schedule.service_in(task.id, start, start + task.period);
                    prop_assert_eq!(got, task.cost);
                    start += task.period;
                }
            }
        }
    }

    /// EDF dominates fixed priorities: anything deadline-monotonic
    /// schedules, EDF schedules too (the converse fails — see the textbook
    /// unit test in [`fp`]).
    #[test]
    fn edf_dominates_deadline_monotonic(tasks in arb_taskset(1)) {
        let horizon = Nanos::from_micros(HYPER_US);
        if fp::simulate_dm(&tasks, horizon).is_ok() {
            prop_assert!(
                simulate_edf(&tasks, horizon).is_ok(),
                "DM schedulable but EDF not?!"
            );
        }
    }

    /// Response-time analysis is exact: it agrees with exhaustive DM
    /// simulation on synchronous task sets.
    #[test]
    fn rta_matches_dm_simulation(tasks in arb_taskset(1)) {
        let horizon = Nanos::from_micros(HYPER_US);
        prop_assert_eq!(
            fp::rta_schedulable(&tasks),
            fp::simulate_dm(&tasks, horizon).is_ok()
        );
    }

    /// Generation is deterministic: same input, same schedule.
    #[test]
    fn generation_is_deterministic(tasks in arb_taskset(2)) {
        let horizon = Nanos::from_micros(HYPER_US);
        let opts = GenOptions { min_piece: Nanos::from_micros(10), ..GenOptions::default() };
        let a = generate_schedule(&tasks, 2, horizon, &opts);
        let b = generate_schedule(&tasks, 2, horizon, &opts);
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x.schedule, y.schedule),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "nondeterministic outcome"),
        }
    }
}

mod fp {
    //! Fixed-priority (deadline-monotonic) schedule simulation — the "why
    //! EDF?" ablation.
    //!
    //! The paper simulates *EDF* on each core "since EDF is optimal on
    //! uniprocessors" (Sec. 5). The natural question is what the simpler,
    //! classic alternative — fixed priorities, deadline-monotonic (DM) order —
    //! would give up. DM is optimal among fixed-priority policies but not
    //! overall: utilization bounds around ln 2 ≈ 69% apply to pathological
    //! sets, while EDF schedules anything up to 100%. This module provides a
    //! DM table engine compatible with [`rtsched::edf::simulate_edf`]'s
    //! interface so the properties above can compare the two; the textbook
    //! set that EDF handles and DM cannot is pinned in a test.
    //!
    //! Priorities: smaller relative deadline = higher priority (ties by task
    //! order), the optimal fixed-priority assignment for constrained-deadline
    //! synchronous tasks (Leung & Whitehead).

    use rtsched::edf::DeadlineMiss;
    use rtsched::schedule::{CoreSchedule, Segment};
    use rtsched::task::PeriodicTask;
    use rtsched::time::Nanos;

    /// Simulates a deadline-monotonic fixed-priority schedule of `tasks` on one
    /// core over `[0, horizon)`.
    ///
    /// Interface mirrors [`rtsched::edf::simulate_edf`]; a returned
    /// [`DeadlineMiss`] means the set is not DM-schedulable (it may still be
    /// EDF-schedulable — that gap is the point of the module).
    pub fn simulate_dm(
        tasks: &[PeriodicTask],
        horizon: Nanos,
    ) -> Result<CoreSchedule, DeadlineMiss> {
        let mut schedule = CoreSchedule::new();
        if tasks.is_empty() {
            return Ok(schedule);
        }

        // Priority order: deadline-monotonic, ties by index.
        let mut priority: Vec<usize> = (0..tasks.len()).collect();
        priority.sort_by_key(|&i| (tasks[i].deadline, i));
        let rank_of = {
            let mut rank = vec![0usize; tasks.len()];
            for (r, &i) in priority.iter().enumerate() {
                rank[i] = r;
            }
            rank
        };

        // All releases, sorted.
        let mut releases: Vec<(Nanos, usize)> = Vec::new();
        for (idx, task) in tasks.iter().enumerate() {
            debug_assert!(task.is_valid());
            debug_assert!((horizon % task.period).is_zero());
            let mut r = task.offset;
            while r < horizon {
                releases.push((r, idx));
                r += task.period;
            }
        }
        releases.sort_unstable();
        let mut next_release = 0usize;

        // Pending jobs ordered by (priority rank, release); a binary heap keyed
        // on rank.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        struct Job {
            rank: usize,
            release: Nanos,
            deadline: Nanos,
            task_index: usize,
            remaining: Nanos,
        }
        let mut ready: BinaryHeap<Reverse<Job>> = BinaryHeap::new();
        let mut now = Nanos::ZERO;

        loop {
            while next_release < releases.len() && releases[next_release].0 <= now {
                let (release, task_index) = releases[next_release];
                let task = &tasks[task_index];
                ready.push(Reverse(Job {
                    rank: rank_of[task_index],
                    release,
                    deadline: release + task.deadline,
                    task_index,
                    remaining: task.cost,
                }));
                next_release += 1;
            }
            let Some(Reverse(mut job)) = ready.pop() else {
                match releases.get(next_release) {
                    Some(&(r, _)) => {
                        now = r;
                        continue;
                    }
                    None => break,
                }
            };

            // Unlike EDF, a higher-priority release *can* save nothing for this
            // job, but a currently-feasible job may still be preempted and miss
            // later — so only report a miss at the deadline itself.
            if job.deadline <= now && job.remaining > Nanos::ZERO {
                return Err(DeadlineMiss {
                    task: tasks[job.task_index].id,
                    release: job.release,
                    deadline: job.deadline,
                    remaining: job.remaining,
                });
            }

            let completion = now + job.remaining;
            // Run until completion, the next release (possible preemption), or
            // the job's own deadline (miss detection point).
            let mut until = completion.min(job.deadline);
            if let Some(&(r, _)) = releases.get(next_release) {
                until = until.min(r);
            }

            if until > now {
                schedule.push(Segment::new(now, until, tasks[job.task_index].id));
                job.remaining -= until - now;
            }
            now = until;

            if job.remaining > Nanos::ZERO {
                if job.deadline <= now {
                    return Err(DeadlineMiss {
                        task: tasks[job.task_index].id,
                        release: job.release,
                        deadline: job.deadline,
                        remaining: job.remaining,
                    });
                }
                ready.push(Reverse(job));
            }
        }

        Ok(schedule)
    }

    /// Exact response-time analysis for synchronous, constrained-deadline
    /// fixed-priority tasks under deadline-monotonic priorities
    /// (Joseph & Pandya).
    ///
    /// The worst-case response time of task `i` is the least fixpoint of
    /// `R = C_i + sum_{j higher} ceil(R / T_j) * C_j`; the set is schedulable
    /// iff every task's fixpoint is within its deadline. Exact for synchronous
    /// releases (the critical-instant theorem), hence it must agree with
    /// [`simulate_dm`] on offset-free sets — a property test pins that.
    pub fn rta_schedulable(tasks: &[PeriodicTask]) -> bool {
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        order.sort_by_key(|&i| (tasks[i].deadline, i));

        for (rank, &i) in order.iter().enumerate() {
            let task = &tasks[i];
            debug_assert!(task.offset.is_zero(), "RTA assumes synchronous releases");
            let mut r = task.cost;
            loop {
                let interference: Nanos = order[..rank]
                    .iter()
                    .map(|&j| {
                        let hp = &tasks[j];
                        hp.cost * r.div_ceil(hp.period)
                    })
                    .sum();
                let next = task.cost + interference;
                if next > task.deadline {
                    return false;
                }
                if next == r {
                    break;
                }
                r = next;
            }
        }
        true
    }

    mod tests {
        use super::*;
        use rtsched::edf::simulate_edf;
        use rtsched::task::TaskId;
        use rtsched::verify::verify_schedule;
        use rtsched::MultiCoreSchedule;

        fn ms(v: u64) -> Nanos {
            Nanos::from_millis(v)
        }

        fn imp(id: u32, c: u64, t: u64) -> PeriodicTask {
            PeriodicTask::implicit(TaskId(id), ms(c), ms(t))
        }

        #[test]
        fn schedulable_set_is_scheduled_correctly() {
            let tasks = vec![imp(0, 2, 10), imp(1, 3, 20), imp(2, 1, 5)];
            let core = simulate_dm(&tasks, ms(20)).unwrap();
            let schedule = MultiCoreSchedule {
                hyperperiod: ms(20),
                cores: vec![core],
            };
            assert!(verify_schedule(&tasks, &schedule).is_empty());
        }

        #[test]
        fn priorities_follow_deadlines_not_arrival() {
            // Task 1 (5 ms period) preempts task 0 (20 ms period) immediately.
            let tasks = vec![imp(0, 8, 20), imp(1, 1, 5)];
            let core = simulate_dm(&tasks, ms(20)).unwrap();
            let first = core.segments()[0];
            assert_eq!(first.task, TaskId(1));
        }

        #[test]
        fn the_textbook_gap_edf_yes_dm_no() {
            // Liu & Layland's classic: full-utilization set beyond the
            // fixed-priority bound. U = 0.5 + 0.5 = 1.0 with periods 10 and 14:
            // DM misses task 1's deadline; EDF schedules it.
            let tasks = vec![imp(0, 5, 10), imp(1, 7, 14)];
            let horizon = ms(70); // lcm(10, 14)
            assert!(simulate_edf(&tasks, horizon).is_ok());
            let dm = simulate_dm(&tasks, horizon);
            assert!(dm.is_err(), "DM should miss at full utilization");
            let miss = dm.unwrap_err();
            assert_eq!(miss.task, TaskId(1));
        }

        #[test]
        fn below_the_bound_both_agree() {
            // U ≈ 0.62 < ln 2: both engines schedule it, possibly differently,
            // but both verifiably.
            let tasks = vec![imp(0, 2, 10), imp(1, 3, 14), imp(2, 7, 35)];
            let horizon = ms(70);
            for engine in [simulate_edf, simulate_dm] {
                let core = engine(&tasks, horizon).unwrap();
                let schedule = MultiCoreSchedule {
                    hyperperiod: horizon,
                    cores: vec![core],
                };
                assert!(verify_schedule(&tasks, &schedule).is_empty());
            }
        }

        #[test]
        fn empty_set() {
            assert!(simulate_dm(&[], ms(10)).unwrap().segments().is_empty());
            assert!(rta_schedulable(&[]));
        }

        #[test]
        fn rta_agrees_with_simulation_on_the_textbook_cases() {
            let sched = vec![imp(0, 2, 10), imp(1, 3, 14), imp(2, 7, 35)];
            assert!(rta_schedulable(&sched));
            assert!(simulate_dm(&sched, ms(70)).is_ok());
            let unsched = vec![imp(0, 5, 10), imp(1, 7, 14)];
            assert!(!rta_schedulable(&unsched));
            assert!(simulate_dm(&unsched, ms(70)).is_err());
        }

        #[test]
        fn rta_exact_response_boundary() {
            // hp: (4, 10) with D = 8 so it outranks the probe either way.
            // Probe: C = 6 => R = 6 + ceil(R/10)*4 -> fixpoint 10 exactly.
            // Schedulable at D = 10, not at D = 9.
            let hp = PeriodicTask::with_window(TaskId(0), ms(4), ms(10), ms(8), Nanos::ZERO);
            let ok = PeriodicTask::with_window(TaskId(1), ms(6), ms(20), ms(10), Nanos::ZERO);
            assert!(rta_schedulable(&[hp, ok]));
            let tight = PeriodicTask::with_window(TaskId(1), ms(6), ms(20), ms(9), Nanos::ZERO);
            assert!(!rta_schedulable(&[hp, tight]));
        }

        #[test]
        fn miss_detection_mid_job() {
            // A low-priority job preempted past its deadline is reported.
            let lo = PeriodicTask::with_window(TaskId(0), ms(4), ms(20), ms(5), Nanos::ZERO);
            let hi = PeriodicTask::with_window(TaskId(1), ms(3), ms(20), ms(4), ms(1));
            // lo runs [0,1), hi preempts [1,4), lo resumes [4,5) but needs 3
            // more ms by t=5: miss.
            let r = simulate_dm(&[lo, hi], ms(20));
            assert!(r.is_err());
            assert_eq!(r.unwrap_err().task, TaskId(0));
        }
    }
}
