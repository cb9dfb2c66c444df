//! Property tests holding the cursor EDF simulator to the sort-and-heap
//! simulator it replaced.
//!
//! [`simulate_edf`] keeps one release cursor per task and scans a small
//! unsorted ready set; [`oracle::simulate_edf_reference`] materializes and
//! sorts every release of the hyperperiod and runs the jobs through a
//! binary heap. The planner's tables are only as deterministic as the two
//! are equal, so the contract here is bit-for-bit: the same
//! [`CoreSchedule`](rtsched::schedule::CoreSchedule) — segment merges
//! included — and, for an infeasible bin, the same
//! [`DeadlineMiss`](rtsched::edf::DeadlineMiss), over bins of 1–8 tasks on
//! the standard hyperperiod: implicit tasks, constrained deadlines, release
//! offsets, zero-laxity (C=D) pieces, bins at exactly `U = 1`, and
//! overloaded bins.

mod oracle;

use proptest::prelude::*;

use oracle::simulate_edf_reference;
use rtsched::edf::simulate_edf;
use rtsched::hyperperiod::PeriodCandidates;
use rtsched::task::{PeriodicTask, TaskId};
use rtsched::time::Nanos;

/// The standard period menu, trimmed at 400 µs so a case stays in the low
/// thousands of jobs (the 100 µs candidates alone would be 1 027 each).
fn menu() -> Vec<Nanos> {
    PeriodCandidates::standard()
        .periods()
        .iter()
        .copied()
        .filter(|&p| p >= Nanos::from_micros(400))
        .collect()
}

fn horizon() -> Nanos {
    PeriodCandidates::standard().hyperperiod()
}

/// One task's raw draw: period pick, weight, shape, and two fractions (per
/// mille) that place the deadline and the offset.
type Draw = (usize, u64, u8, u64, u64);

fn arb_draws(max: usize) -> impl Strategy<Value = Vec<Draw>> {
    proptest::collection::vec(
        (0usize..10_000, 1u64..=100, 0u8..6, 0u64..=1000, 0u64..=1000),
        1..=max,
    )
}

/// Builds a bin whose total utilization is about `load_pct`% (above 100 the
/// bin is overloaded on purpose). Shapes: 0–2 implicit, 3 constrained
/// deadline with offset, 4 zero-laxity piece with offset, 5 zero-laxity
/// piece released at the period start. Ids descend so that any tie-break
/// consulting ids instead of positions would show.
fn build_bin(draws: &[Draw], load_pct: u64) -> Vec<PeriodicTask> {
    let menu = menu();
    let total_weight: u64 = draws.iter().map(|d| d.1).sum();
    let n = draws.len() as u32;
    draws
        .iter()
        .enumerate()
        .map(|(i, &(pick, weight, shape, d_frac, o_frac))| {
            let period = menu[pick % menu.len()];
            let cost = Nanos(
                (period.as_nanos() as u128 * weight as u128 * load_pct as u128
                    / (total_weight as u128 * 100)) as u64,
            )
            .max(Nanos(1))
            .min(period);
            let id = TaskId(n - i as u32);
            let lerp = |lo: Nanos, hi: Nanos, frac: u64| lo + (hi - lo).mul_ratio_floor(frac, 1000);
            match shape {
                0..=2 => PeriodicTask::implicit(id, cost, period),
                3 => {
                    let deadline = lerp(cost, period, d_frac);
                    let offset = lerp(Nanos::ZERO, period - deadline, o_frac);
                    PeriodicTask::with_window(id, cost, period, deadline, offset)
                }
                4 => {
                    let offset = lerp(Nanos::ZERO, period - cost, o_frac);
                    PeriodicTask::with_window(id, cost, period, cost, offset)
                }
                _ => PeriodicTask::with_window(id, cost, period, cost, Nanos::ZERO),
            }
        })
        .collect()
}

/// A bin at exactly `U = 1`: `weights` (summing to `denom`) split a core
/// among implicit tasks whose periods are all multiples of `denom`, so
/// every cost is an exact `weight / denom` share of its period.
fn full_bin(denom: u64, picks: &[usize], cuts: &[u64]) -> Vec<PeriodicTask> {
    let menu: Vec<Nanos> = menu()
        .into_iter()
        .filter(|p| p.as_nanos() % denom == 0)
        .collect();
    // `cuts` mark where the `denom` unit shares are divided among tasks.
    let mut marks: Vec<u64> = cuts.iter().map(|c| 1 + c % (denom - 1)).collect();
    marks.sort_unstable();
    marks.dedup();
    marks.push(denom);
    let mut from = 0u64;
    marks
        .iter()
        .enumerate()
        .map(|(i, &to)| {
            let period = menu[picks[i % picks.len()] % menu.len()];
            let cost = period / denom * (to - from);
            from = to;
            PeriodicTask::implicit(TaskId(i as u32), cost, period)
        })
        .collect()
}

fn assert_same(tasks: &[PeriodicTask]) -> bool {
    assert!(tasks.iter().all(PeriodicTask::is_valid), "{tasks:?}");
    let got = simulate_edf(tasks, horizon());
    let want = simulate_edf_reference(tasks, horizon());
    assert_eq!(got, want, "bin {tasks:?}");
    got.is_ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mixed shapes from a third of a core to a third over: feasible and
    /// infeasible bins alike produce the reference's exact result.
    #[test]
    fn mixed_bins_match_the_reference(draws in arb_draws(8), load_pct in 30u64..=130) {
        assert_same(&build_bin(&draws, load_pct));
    }

    /// Bins at exactly `U = 1` leave EDF no slack: every tie-break and
    /// every preemption decision is load-bearing. They are feasible, and
    /// the core is never idle.
    #[test]
    fn full_bins_match_the_reference(
        denom_pick in 0usize..8,
        picks in proptest::collection::vec(0usize..10_000, 1..=8),
        cuts in proptest::collection::vec(0u64..1_000, 0..=7),
    ) {
        let denom = [2u64, 3, 4, 5, 6, 8, 10, 12][denom_pick];
        let tasks = full_bin(denom, &picks, &cuts);
        prop_assert!(tasks.len() <= 8);
        prop_assert!(assert_same(&tasks), "U = 1 implicit bin must be feasible: {tasks:?}");
        let schedule = simulate_edf(&tasks, horizon()).unwrap();
        prop_assert_eq!(schedule.busy_time(), horizon());
    }

    /// Zero-laxity pieces must run from release to deadline; two whose
    /// windows collide are a certain miss. Light fillers around them, so
    /// some bins survive and some do not.
    #[test]
    fn zero_laxity_bins_match_the_reference(
        draws in arb_draws(4),
        fillers in arb_draws(4),
        load_pct in 20u64..=90,
    ) {
        let pieces: Vec<Draw> = draws.iter().map(|&(p, w, s, d, o)| (p, w, 4 + s % 2, d, o)).collect();
        let fillers: Vec<Draw> = fillers.iter().map(|&(p, w, _, d, o)| (p, w, 0, d, o)).collect();
        let all: Vec<Draw> = pieces.into_iter().chain(fillers).collect();
        assert_same(&build_bin(&all, load_pct));
    }

    /// Heavily overloaded bins: the reported miss (task, release, deadline,
    /// unserved work) is the reference's, and so is everything scheduled
    /// before it — checked through the shorter, feasible prefix of the bin.
    #[test]
    fn overloaded_bins_report_the_reference_miss(draws in arb_draws(8), load_pct in 101u64..=300) {
        let tasks = build_bin(&draws, load_pct);
        assert_same(&tasks);
        for keep in 1..tasks.len() {
            assert_same(&tasks[..keep]);
        }
    }
}

/// The corner the slot-per-task shortcut would get wrong: a job still
/// pending when its successor is released. The hog fills [0, 10) and wins
/// the deadline tie by index, so at t = 10 — the starved task's deadline
/// *and* its next release — both of its jobs sit in the ready set at once,
/// and the miss reported is the older one's.
#[test]
fn overrun_job_and_its_successor_coexist() {
    let ms = Nanos::from_millis;
    let hog = PeriodicTask::implicit(TaskId(0), ms(10), ms(10));
    let starved = PeriodicTask::implicit(TaskId(1), ms(1), ms(10));
    let tasks = [hog, starved];
    let got = simulate_edf(&tasks, ms(20));
    assert_eq!(got, simulate_edf_reference(&tasks, ms(20)));
    let miss = got.unwrap_err();
    assert_eq!(
        (miss.task, miss.release, miss.deadline, miss.remaining),
        (TaskId(1), ms(0), ms(10), ms(1))
    );
}
