//! Property tests holding the hash-free verifier to the hash-bucketing
//! verifier it replaced.
//!
//! [`verify_schedule`] resolves every segment's task through an
//! id → position index (direct table or sorted search) and checks each
//! task's intervals in place; [`oracle::verify_schedule_reference`] does
//! one `HashMap` lookup and one `Vec::push` per segment and re-sorts every
//! list. The contract is the **same violation list in the same order** —
//! on valid generated schedules, after one injected defect per
//! [`Violation`] kind, with duplicate task ids (each copy is checked
//! against the full list), with segments naming ids absent from the task
//! list, and with ids scattered up to `u32::MAX`.

mod oracle;

use proptest::prelude::*;
use serde::Serialize;

use oracle::verify_schedule_reference;
use rtsched::generator::{generate_schedule, GenOptions};
use rtsched::hyperperiod::divisors;
use rtsched::schedule::{CoreSchedule, MultiCoreSchedule, Segment};
use rtsched::task::{PeriodicTask, TaskId};
use rtsched::time::Nanos;
use rtsched::verify::{verify_schedule, Violation};

const HYPER_US: u64 = 7_200;
const CORES: usize = 3;

fn horizon() -> Nanos {
    Nanos::from_micros(HYPER_US)
}

/// Up to ten implicit tasks, trimmed to fit three cores — heavy enough
/// that some sets need C=D splits or a DP-Fair cluster, so some tasks have
/// intervals on several cores (core-major order is then *not* start order).
fn arb_tasks() -> impl Strategy<Value = Vec<PeriodicTask>> {
    let menu: Vec<u64> = divisors(HYPER_US)
        .into_iter()
        .filter(|&d| d >= 400)
        .collect();
    proptest::collection::vec((0usize..1_000, 10u64..=90), 1..=10).prop_map(move |draws| {
        let mut tasks: Vec<PeriodicTask> = draws
            .iter()
            .enumerate()
            .map(|(i, &(pick, upct))| {
                let period = Nanos::from_micros(menu[pick % menu.len()]);
                let cost = Nanos(period.as_nanos() * upct / 100);
                PeriodicTask::implicit(TaskId(i as u32), cost, period)
            })
            .collect();
        let capacity = horizon() * CORES as u64;
        while tasks.iter().map(|t| t.cost_per(horizon())).sum::<Nanos>() > capacity {
            tasks.pop();
        }
        tasks
    })
}

fn generate(tasks: &[PeriodicTask]) -> MultiCoreSchedule {
    let opts = GenOptions {
        min_piece: Nanos::from_micros(10),
        ..GenOptions::default()
    };
    generate_schedule(tasks, CORES, horizon(), &opts)
        .expect("admissible set generates")
        .schedule
}

/// Id layouts: the planner's dense ids, dense ids far from zero, ids
/// scattered over the whole `u32` range (incl. `u32::MAX` and
/// `u32::MAX - 1`), and a dense run with one far outlier.
fn remap(layout: u8, id: u32) -> u32 {
    const SCATTER: [u32; 10] = [
        u32::MAX - 1,
        0,
        u32::MAX,
        7,
        1 << 31,
        u32::MAX - 2,
        65_536,
        1,
        u32::MAX - 65_536,
        3_000_000_000,
    ];
    match layout % 4 {
        0 => id,
        1 => u32::MAX - 20 + id,
        2 => SCATTER[id as usize],
        _ if id == 0 => u32::MAX - 1,
        _ => id,
    }
}

fn relabel(tasks: &mut [PeriodicTask], schedule: &mut MultiCoreSchedule, layout: u8) {
    for t in tasks.iter_mut() {
        t.id = TaskId(remap(layout, t.id.0));
    }
    for core in &mut schedule.cores {
        *core = core.relabel(|t| TaskId(remap(layout, t.0)));
    }
}

/// `CoreSchedule`'s serialized form, to build cores its constructors
/// refuse: unsorted, overlapping, degenerate. The verifier is what stands
/// between such a core and the dispatcher, so it must be testable on one.
#[derive(Serialize)]
struct RawCore {
    segments: Vec<Segment>,
}

fn raw_core(segments: Vec<Segment>) -> CoreSchedule {
    serde_json::from_str(&serde_json::to_string(&RawCore { segments }).unwrap()).unwrap()
}

fn segments_of(schedule: &MultiCoreSchedule) -> Vec<Vec<Segment>> {
    schedule
        .cores
        .iter()
        .map(|c| c.segments().to_vec())
        .collect()
}

/// The defect classes; each provokes (at least) the [`Violation`] kind its
/// name carries, which [`provokes`] checks.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Defect {
    OutOfRange,
    CoreOverlap,
    WrongService,
    ParallelExecution,
    BlackoutTooLong,
    MissingTask,
}

const DEFECTS: [Defect; 6] = [
    Defect::OutOfRange,
    Defect::CoreOverlap,
    Defect::WrongService,
    Defect::ParallelExecution,
    Defect::BlackoutTooLong,
    Defect::MissingTask,
];

fn provokes(defect: Defect, v: &Violation) -> bool {
    matches!(
        (defect, v),
        (Defect::OutOfRange, Violation::OutOfRange { .. })
            | (Defect::CoreOverlap, Violation::CoreOverlap { .. })
            | (Defect::WrongService, Violation::WrongService { .. })
            | (
                Defect::ParallelExecution,
                Violation::ParallelExecution { .. }
            )
            | (Defect::BlackoutTooLong, Violation::BlackoutTooLong { .. })
            | (Defect::MissingTask, Violation::MissingTask(_))
    )
}

/// Injects `defect` into `schedule`, steering by `pick`. Returns `false`
/// when this schedule offers no site for it (e.g. no task idle enough to
/// black out).
fn inject(
    defect: Defect,
    tasks: &[PeriodicTask],
    schedule: &mut MultiCoreSchedule,
    pick: usize,
) -> bool {
    let h = schedule.hyperperiod;
    let mut cores = segments_of(schedule);
    let busy: Vec<usize> = (0..cores.len()).filter(|&c| !cores[c].is_empty()).collect();
    let Some(&core) = busy.get(pick % busy.len().max(1)) else {
        return false;
    };
    let at = pick % cores[core].len();
    let seg = cores[core][at];
    match defect {
        // A degenerate segment in place, or one stretched past the table
        // end: one that is not its task's last interval, or the one that
        // starts last in the whole table — its task's last, the interval
        // `max_blackout` measures the wrap-around gap from.
        Defect::OutOfRange => {
            let list = &mut cores[core];
            let earlier =
                (0..list.len()).find(|&i| list[i + 1..].iter().any(|s| s.task == list[i].task));
            match (pick % 3, earlier) {
                (1, Some(i)) => list[i].end = h + Nanos(5),
                (2, _) => {
                    let latest = cores.iter_mut().flatten().max_by_key(|s| s.start);
                    latest.expect("a busy core has a segment").end = h + Nanos(5);
                }
                _ => {
                    list[at] = Segment {
                        start: seg.end,
                        end: seg.start,
                        task: seg.task,
                    }
                }
            }
        }
        // Swap two neighbours (out of order), or stretch one over the next.
        Defect::CoreOverlap => {
            if cores[core].len() < 2 {
                return false;
            }
            let i = at.min(cores[core].len() - 2);
            if pick.is_multiple_of(2) {
                cores[core].swap(i, i + 1);
            } else {
                cores[core][i].end = cores[core][i + 1].start + Nanos(1);
            }
        }
        // One nanosecond short.
        Defect::WrongService => cores[core][at].end = seg.end - Nanos(1),
        // The same interval served on a second core as well.
        Defect::ParallelExecution => {
            let other = (core + 1) % cores.len();
            cores[other].push(seg);
            cores[other].sort_by_key(|s| s.start);
        }
        // Drop a task's service over enough consecutive windows that the
        // gap outgrows `2 * (T - C)`: keep only the segments that start in
        // its first period (at most two periods of service, three or more
        // of silence).
        Defect::BlackoutTooLong => {
            let n = tasks.len();
            let Some(task) = (0..n).map(|i| &tasks[(pick + i) % n]).find(|t| {
                t.period * 5 <= h
                    && t.cost < t.period
                    && cores.iter().flatten().any(|s| s.task == t.id)
            }) else {
                return false;
            };
            for list in &mut cores {
                list.retain(|s| s.task != task.id || s.start < task.period);
            }
        }
        // Every segment of one task gone.
        Defect::MissingTask => {
            for list in &mut cores {
                list.retain(|s| s.task != seg.task);
            }
        }
    }
    schedule.cores = cores.into_iter().map(raw_core).collect();
    true
}

fn assert_same(tasks: &[PeriodicTask], schedule: &MultiCoreSchedule) -> Vec<Violation> {
    let got = verify_schedule(tasks, schedule);
    let want = verify_schedule_reference(tasks, schedule);
    assert_eq!(got, want, "tasks {tasks:?}\nschedule {schedule:?}");
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Generated schedules are valid under both verifiers, in every id
    /// layout.
    #[test]
    fn valid_schedules_verify_clean(tasks in arb_tasks(), layout in any::<u8>()) {
        let mut tasks = tasks;
        let mut schedule = generate(&tasks);
        relabel(&mut tasks, &mut schedule, layout);
        prop_assert!(assert_same(&tasks, &schedule).is_empty());
    }

    /// One defect of every kind, one at a time: the lists agree entry for
    /// entry, and the defect's own kind is among them.
    #[test]
    fn injected_defects_yield_the_reference_list(
        tasks in arb_tasks(),
        layout in any::<u8>(),
        pick in 0usize..10_000,
    ) {
        for defect in DEFECTS {
            let mut tasks = tasks.clone();
            let mut schedule = generate(&tasks);
            relabel(&mut tasks, &mut schedule, layout);
            if !inject(defect, &tasks, &mut schedule, pick) {
                continue;
            }
            let found = assert_same(&tasks, &schedule);
            prop_assert!(
                found.iter().any(|v| provokes(defect, v)),
                "{defect:?} not reported in {found:?}"
            );
        }
    }

    /// Duplicate ids in the task list: every copy — whatever parameters it
    /// claims — is checked against the id's full interval list, so a copy
    /// with another cost reports its own `WrongService` entries, in task
    /// order. With a defect on top, the lists still agree.
    #[test]
    fn duplicate_ids_each_get_the_full_list(
        tasks in arb_tasks(),
        layout in any::<u8>(),
        pick in 0usize..10_000,
        defect in 0usize..12,
    ) {
        let mut tasks = tasks;
        let mut schedule = generate(&tasks);
        relabel(&mut tasks, &mut schedule, layout);
        // A faithful copy at the end, and a copy claiming one nanosecond
        // more right after its original.
        let original = tasks[pick % tasks.len()];
        tasks.push(original);
        let liar = PeriodicTask { cost: original.cost + Nanos(1), ..original };
        let liar_ok = liar.cost <= liar.period;
        if liar_ok {
            tasks.insert(pick % (tasks.len() - 1) + 1, liar);
        }
        let clean = assert_same(&tasks, &schedule);
        // Only the lying copy is flagged: once per window (its blackout
        // bound is two nanoseconds tighter too, and may trip).
        let short: Vec<&Violation> = clean
            .iter()
            .filter(|v| matches!(v, Violation::WrongService { .. }))
            .collect();
        let windows = if liar_ok { (schedule.hyperperiod / liar.period) as usize } else { 0 };
        prop_assert_eq!(short.len(), windows, "{:?}", clean);
        prop_assert!(short.iter().all(
            |v| matches!(v, Violation::WrongService { task, want, .. } if *task == liar.id && *want == liar.cost)
        ));
        if let Some(&defect) = DEFECTS.get(defect) {
            if inject(defect, &tasks, &mut schedule, pick / 7) {
                assert_same(&tasks, &schedule);
            }
        }
    }

    /// Segments naming ids the task list does not know are geometry to
    /// check and nothing more; tasks the schedule does not know are
    /// `MissingTask`. Here a task is struck from the list (its segments
    /// become foreign) and a stranger is added (absent from the schedule).
    #[test]
    fn unknown_ids_are_skipped_and_absent_tasks_missed(
        tasks in arb_tasks(),
        layout in any::<u8>(),
        pick in 0usize..10_000,
        stranger in any::<u32>(),
    ) {
        let mut tasks = tasks;
        let mut schedule = generate(&tasks);
        relabel(&mut tasks, &mut schedule, layout);
        tasks.remove(pick % tasks.len());
        let stranger = TaskId(stranger);
        let is_new = tasks.iter().all(|t| t.id != stranger)
            && segments_of(&schedule).iter().flatten().all(|s| s.task != stranger);
        if is_new {
            let period = horizon() / 2;
            tasks.insert(pick % (tasks.len() + 1), PeriodicTask::implicit(stranger, period / 4, period));
        }
        let found = assert_same(&tasks, &schedule);
        if is_new {
            prop_assert_eq!(found, vec![Violation::MissingTask(stranger)]);
        } else {
            prop_assert!(found.is_empty());
        }
    }
}
