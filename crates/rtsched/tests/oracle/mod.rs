//! Reference implementations the property tests hold the production code
//! to. These are the bodies `rtsched::edf::simulate_edf` and
//! `rtsched::verify::verify_schedule` had before the planner's data path
//! went hash-, sort- and heap-free: obviously-correct, slow, and kept
//! verbatim (public API only) so "same output" has something to mean.

#![allow(dead_code)] // each test binary uses one half

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use rtsched::edf::DeadlineMiss;
use rtsched::schedule::{CoreSchedule, MultiCoreSchedule, Segment};
use rtsched::task::PeriodicTask;
use rtsched::time::Nanos;
use rtsched::verify::Violation;

/// One pending job, ordered for a min-heap on `(deadline, task, release)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Job {
    deadline: Nanos,
    task_index: usize,
    release: Nanos,
    remaining: Nanos,
}

/// EDF by the book: materialize and sort every release of the horizon, run
/// the pending jobs through a binary heap.
pub fn simulate_edf_reference(
    tasks: &[PeriodicTask],
    horizon: Nanos,
) -> Result<CoreSchedule, DeadlineMiss> {
    let mut schedule = CoreSchedule::new();
    if tasks.is_empty() {
        return Ok(schedule);
    }

    let mut releases: Vec<(Nanos, usize)> = Vec::new();
    for (idx, task) in tasks.iter().enumerate() {
        let mut r = task.offset;
        while r < horizon {
            releases.push((r, idx));
            r += task.period;
        }
    }
    releases.sort_unstable();
    let mut next_release = 0usize;

    let mut ready: BinaryHeap<Reverse<Job>> = BinaryHeap::new();
    let mut now = Nanos::ZERO;

    loop {
        while next_release < releases.len() && releases[next_release].0 <= now {
            let (release, task_index) = releases[next_release];
            let task = &tasks[task_index];
            ready.push(Reverse(Job {
                deadline: release + task.deadline,
                task_index,
                release,
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

        let until = match releases.get(next_release) {
            Some(&(r, _)) => completion.min(r),
            None => completion,
        };

        if until > now {
            schedule.push(Segment::new(now, until, tasks[job.task_index].id));
            job.remaining -= until - now;
        }
        now = until;

        if job.remaining > Nanos::ZERO {
            ready.push(Reverse(job));
        }
    }
    Ok(schedule)
}

/// The single-pass verifier with hash bucketing: one `HashMap` lookup and
/// one growing `Vec::push` per segment, every task's list copied and
/// re-sorted, two divisions per interval.
pub fn verify_schedule_reference(
    tasks: &[PeriodicTask],
    schedule: &MultiCoreSchedule,
) -> Vec<Violation> {
    let h = schedule.hyperperiod;
    let mut violations = Vec::new();
    for (core, cs) in schedule.cores.iter().enumerate() {
        violations.extend(core_geometry(core, cs.segments(), h));
    }
    let ivs = per_task_intervals(tasks, schedule);
    for (task, ivs) in tasks.iter().zip(&ivs) {
        violations.extend(check_task(task, ivs, h));
    }
    violations
}

fn core_geometry(core: usize, segments: &[Segment], h: Nanos) -> Vec<Violation> {
    let mut found = Vec::new();
    for seg in segments {
        if seg.end > h || seg.start >= seg.end {
            found.push(Violation::OutOfRange { core });
        }
    }
    for w in segments.windows(2) {
        if w[0].end > w[1].start {
            found.push(Violation::CoreOverlap {
                core,
                at: w[1].start,
            });
        }
    }
    found
}

/// For each entry of `tasks`, its `(core, start, end)` intervals in
/// core-major order; duplicate ids each receive the full list.
fn per_task_intervals(
    tasks: &[PeriodicTask],
    schedule: &MultiCoreSchedule,
) -> Vec<Vec<(usize, Nanos, Nanos)>> {
    let mut index: HashMap<u32, Vec<usize>> = HashMap::with_capacity(tasks.len());
    for (i, t) in tasks.iter().enumerate() {
        index.entry(t.id.0).or_default().push(i);
    }
    let mut ivs: Vec<Vec<(usize, Nanos, Nanos)>> = vec![Vec::new(); tasks.len()];
    for (core, cs) in schedule.cores.iter().enumerate() {
        for seg in cs.segments() {
            if let Some(owners) = index.get(&seg.task.0) {
                for &i in owners {
                    ivs[i].push((core, seg.start, seg.end));
                }
            }
        }
    }
    ivs
}

/// The cyclic maximum service gap, by unrolling: the table laid out twice,
/// every interval clipped to the table end (the table wraps there whatever
/// a malformed interval claims), the wrap-around gap being just one more
/// gap between neighbours. The table length itself if nothing is served.
fn max_blackout_reference(ordered: &[(Nanos, Nanos)], h: Nanos) -> Nanos {
    let clipped = || ordered.iter().map(move |&(s, e)| (s, e.min(h)));
    let twice: Vec<(Nanos, Nanos)> = clipped()
        .chain(clipped().map(|(s, e)| (s + h, e + h)))
        .collect();
    let gaps = twice.windows(2).map(|w| w[1].0.saturating_sub(w[0].1));
    gaps.max().unwrap_or(h)
}

fn check_task(task: &PeriodicTask, ivs: &[(usize, Nanos, Nanos)], h: Nanos) -> Vec<Violation> {
    let mut found = Vec::new();
    if ivs.is_empty() {
        found.push(Violation::MissingTask(task.id));
        return found;
    }

    let t = task.period;
    let n_windows = h.div_ceil(t) as usize;
    let mut got = vec![Nanos::ZERO; n_windows];
    for &(_, s, e) in ivs {
        if s >= e {
            continue;
        }
        let k0 = (s / t) as usize;
        let k1 = ((e - Nanos(1)) / t) as usize;
        for (k, slot) in got.iter_mut().enumerate().take(k1 + 1).skip(k0) {
            let w_lo = t * k as u64;
            let w_hi = w_lo + t;
            let lo = s.max(w_lo);
            let hi = e.min(w_hi);
            *slot += hi.saturating_sub(lo);
        }
    }
    for (k, &g) in got.iter().enumerate() {
        if g != task.cost {
            found.push(Violation::WrongService {
                task: task.id,
                window_start: t * k as u64,
                got: g,
                want: task.cost,
            });
        }
    }

    let mut ordered: Vec<(Nanos, Nanos)> = ivs.iter().map(|&(_, s, e)| (s, e)).collect();
    ordered.sort_unstable();
    for w in ordered.windows(2) {
        if w[0].1 > w[1].0 {
            found.push(Violation::ParallelExecution {
                task: task.id,
                at: w[1].0,
            });
        }
    }

    if task.cost < task.period {
        let bound = task.worst_case_blackout();
        let observed = max_blackout_reference(&ordered, h);
        if observed > bound {
            found.push(Violation::BlackoutTooLong {
                task: task.id,
                observed,
                bound,
            });
        }
    }
    found
}
