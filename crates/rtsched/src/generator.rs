//! The three-stage schedule generator (Sec. 5 of the paper).
//!
//! Given periodic tasks and a platform, a concrete multicore cyclic schedule
//! is found with a progression of increasingly powerful (and increasingly
//! preemption-happy) techniques:
//!
//! 1. **Partitioning** — worst-fit-decreasing assignment of whole tasks,
//!    then per-core EDF simulation. Expected to succeed for practically all
//!    cloud configurations (providers control VM sizing).
//! 2. **Semi-partitioning** — C=D task splitting for tasks that fit nowhere
//!    whole, then per-core EDF simulation.
//! 3. **Localized optimal scheduling** — physically close cores are merged
//!    into clusters ("double-sized bins", then larger) scheduled with the
//!    optimal DP-Fair algorithm; splitting is still used between the
//!    remaining single-core bins. Merging repeats until everything fits,
//!    which is guaranteed before reaching one all-core cluster for any task
//!    set that does not over-utilize the platform.
//!
//! Every produced schedule is passed through [`crate::verify`]; a violation
//! is returned as an internal error rather than silently handed to the
//! dispatcher.
//!
//! **Simulate once per shape.** High-density hosts are homogeneous, so most
//! bins are the same task multiset modulo ids. The per-core simulation
//! simulates each bin signature that two or more cores share once
//! (positionally, see [`crate::signature`]) and relabels the result with
//! each sharing core's own ids; every other bin is simulated directly. The
//! memo is private: what leaves the generator is one schedule per core,
//! equal to that core's own `simulate_edf` (held by this module's tests and
//! by `tests/prop_generation.rs`), and the verifier checks every core the
//! same way.
//!
//! **Single-threaded.** Cores (stage 1/2) and clusters (stage 3) hold
//! disjoint task sets and are simulated one after another, in core order:
//! a per-core EDF simulation costs microseconds, less than handing it to
//! another thread (DESIGN.md, "Why the planner and the fleet step are
//! single-threaded").

use std::collections::HashMap;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::dpfair::dpfair_schedule;
use crate::edf::{simulate_edf, simulate_edf_positional, DeadlineMiss};
use crate::index::TaskIndex;
use crate::partition::{worst_fit_decreasing, CoreBins};
use crate::schedule::{CoreSchedule, MultiCoreSchedule};
use crate::signature::{all_implicit, BinSignature, SigMemo};
use crate::split::{semi_partition, SplitError};
use crate::task::{PeriodicTask, TaskId};
use crate::time::Nanos;
use crate::verify::verify_schedule;

/// Which stage of the progression produced the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stage {
    /// Plain partitioned EDF sufficed.
    Partitioned,
    /// C=D semi-partitioning was needed.
    SemiPartitioned,
    /// Clustered DP-Fair scheduling was needed.
    Clustered,
}

/// Tunables for schedule generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenOptions {
    /// Smallest allocation worth creating; pieces below this are never
    /// generated (they could not be enforced at runtime anyway).
    pub min_piece: Nanos,
    /// Skip straight to a later stage (used by ablation benchmarks).
    pub first_stage: Stage,
}

impl Default for GenOptions {
    fn default() -> GenOptions {
        GenOptions {
            min_piece: Nanos::from_micros(100),
            first_stage: Stage::Partitioned,
        }
    }
}

/// A successfully generated and verified multicore schedule.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The cyclic schedule, one entry per core.
    pub schedule: MultiCoreSchedule,
    /// The stage that produced it.
    pub stage: Stage,
    /// Tasks that ended up with allocations on more than one core.
    pub split_tasks: Vec<TaskId>,
}

/// Wall-clock breakdown of one generation run, by pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenTimings {
    /// Admission checks, partitioning, splitting, cluster packing.
    pub pack: Duration,
    /// EDF simulation and DP-Fair generation.
    pub simulate: Duration,
    /// Schedule verification and split detection.
    pub verify: Duration,
}

/// A [`Generated`] schedule plus its timing breakdown and stage-1 packing
/// record: the result of [`generate_schedule_instrumented`].
#[derive(Debug, Clone)]
pub struct GenOutcome {
    /// The verified schedule.
    pub generated: Generated,
    /// Per-stage wall-clock breakdown.
    pub timings: GenTimings,
    /// Stage-1 packing record: task ids per core, in bin order. Populated
    /// only when the schedule came from plain partitioning (stage 1) — the
    /// C=D and DP-Fair stages leave it empty, because their bins contain
    /// split pieces that don't map back to whole tasks. A later replan
    /// diffs bin contents against it to reuse unchanged cores.
    pub core_bins: Vec<Vec<TaskId>>,
}

/// Why generation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum GenError {
    /// Total demand exceeds platform capacity — a misconfiguration that is
    /// rejected up front, exactly as in the paper.
    OverUtilized {
        /// Exact demand over the hyperperiod.
        demand: Nanos,
        /// `n_cores * hyperperiod`.
        capacity: Nanos,
    },
    /// A period does not divide the hyperperiod (planner bug: periods must
    /// come from the candidate set).
    BadPeriod(PeriodicTask),
    /// All stages failed; carries the last stage's diagnostic.
    Exhausted(String),
    /// A generated schedule failed verification (generator bug; returned
    /// rather than panicking so callers can fall back).
    VerificationFailed(String),
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenError::OverUtilized { demand, capacity } => {
                write!(
                    f,
                    "platform over-utilized: demand {demand} > capacity {capacity}"
                )
            }
            GenError::BadPeriod(t) => {
                write!(
                    f,
                    "period {} of task {} does not divide the hyperperiod",
                    t.period, t.id
                )
            }
            GenError::Exhausted(s) => write!(f, "all generation stages failed: {s}"),
            GenError::VerificationFailed(s) => write!(f, "generated schedule invalid: {s}"),
        }
    }
}

impl std::error::Error for GenError {}

/// Generates a verified cyclic schedule for `tasks` on `n_cores` cores over
/// one hyperperiod.
///
/// `tasks` must be whole implicit-deadline tasks (one per vCPU) with periods
/// dividing `horizon`; the generator decides about splitting internally.
///
/// # Examples
///
/// ```
/// use rtsched::generator::{generate_schedule, GenOptions, Stage};
/// use rtsched::task::{PeriodicTask, TaskId};
/// use rtsched::time::Nanos;
///
/// let ms = Nanos::from_millis;
/// let tasks: Vec<_> = (0..8)
///     .map(|i| PeriodicTask::implicit(TaskId(i), ms(5), ms(20)))
///     .collect();
/// let g = generate_schedule(&tasks, 2, ms(100), &GenOptions::default()).unwrap();
/// assert_eq!(g.stage, Stage::Partitioned);
/// assert!(g.split_tasks.is_empty());
/// ```
pub fn generate_schedule(
    tasks: &[PeriodicTask],
    n_cores: usize,
    horizon: Nanos,
    opts: &GenOptions,
) -> Result<Generated, GenError> {
    generate_schedule_instrumented(tasks, n_cores, horizon, opts, |_, _| false).map(|o| o.generated)
}

/// Like [`generate_schedule`], additionally returning the per-stage timing
/// breakdown and the stage-1 packing record, for a caller that may already
/// hold the schedules of some stage-1 bins.
///
/// Once plain partitioning packs every task, `keep(core, bin)` is asked for
/// each core in core order. A core it answers `true` for is the caller's:
/// it is left idle in the returned schedule, never simulated or verified,
/// and only the tasks of the other cores are verified. `keep` is not asked
/// when stage 1 does not run or does not pack, nor for an empty task set.
pub fn generate_schedule_instrumented(
    tasks: &[PeriodicTask],
    n_cores: usize,
    horizon: Nanos,
    opts: &GenOptions,
    mut keep: impl FnMut(usize, &[PeriodicTask]) -> bool,
) -> Result<GenOutcome, GenError> {
    let mut timings = GenTimings::default();
    let t0 = Instant::now();
    for t in tasks {
        if !(horizon % t.period).is_zero() {
            return Err(GenError::BadPeriod(*t));
        }
    }
    let demand: Nanos = tasks.iter().map(|t| t.cost_per(horizon)).sum();
    let capacity = horizon * n_cores as u64;
    if demand > capacity {
        return Err(GenError::OverUtilized { demand, capacity });
    }
    if tasks.is_empty() {
        timings.pack += t0.elapsed();
        return Ok(GenOutcome {
            generated: Generated {
                schedule: MultiCoreSchedule::idle(horizon, n_cores),
                stage: Stage::Partitioned,
                split_tasks: Vec::new(),
            },
            timings,
            core_bins: vec![Vec::new(); n_cores],
        });
    }
    timings.pack += t0.elapsed();

    // One memo serves all stage attempts: a bin shape two or more cores
    // share, once simulated (or found infeasible), is never re-simulated by
    // a later attempt. A shape only one core carries bypasses the memo
    // (`simulate_cores`) and would be simulated again — but only the
    // clustered stage makes more than one attempt, and its failed attempts
    // fail in packing, before anything is simulated.
    let mut memo = SigMemo::new();
    let mut last_error = String::new();

    // Stage 1: plain partitioning (worst-fit decreasing).
    if opts.first_stage == Stage::Partitioned {
        let t0 = Instant::now();
        let r = worst_fit_decreasing(tasks, n_cores, horizon);
        timings.pack += t0.elapsed();
        if r.is_complete() {
            let bins = &r.bins.cores;
            let kept: Vec<bool> = (0..n_cores).map(|core| keep(core, &bins[core])).collect();
            let core_bins: Vec<Vec<TaskId>> = bins
                .iter()
                .map(|bin| bin.iter().map(|t| t.id).collect())
                .collect();
            let schedule = simulate_bins(&r.bins, &kept, horizon, &mut memo, &mut timings)?;
            let live: Vec<PeriodicTask>;
            let verified = if kept.contains(&true) {
                let others = bins.iter().zip(&kept).filter(|&(_, &k)| !k);
                live = others.flat_map(|(bin, _)| bin.iter().copied()).collect();
                &live[..]
            } else {
                tasks
            };
            return finish(
                verified,
                schedule,
                Stage::Partitioned,
                Vec::new(),
                timings,
                core_bins,
            );
        }
        last_error = format!("{} task(s) unplaceable whole", r.unassigned.len());
    }

    // Stage 2: C=D semi-partitioning.
    if opts.first_stage != Stage::Clustered {
        let t0 = Instant::now();
        let sp = semi_partition(tasks, n_cores, horizon, opts.min_piece);
        timings.pack += t0.elapsed();
        match sp {
            Ok(sp) => {
                let schedule = simulate_bins(&sp.bins, &[], horizon, &mut memo, &mut timings)?;
                return finish(
                    tasks,
                    schedule,
                    Stage::SemiPartitioned,
                    sp.split_tasks,
                    timings,
                    Vec::new(),
                );
            }
            Err(SplitError::NoProgress { task, remaining }) => {
                last_error = format!("splitting stuck on {} ({remaining} left)", task.id);
            }
        }
    }

    // Stage 3: clustered optimal scheduling.
    match clustered_schedule(tasks, n_cores, horizon, &mut memo, &mut timings) {
        Ok((schedule, split)) => finish(
            tasks,
            schedule,
            Stage::Clustered,
            split,
            timings,
            Vec::new(),
        ),
        Err(e) => Err(GenError::Exhausted(format!(
            "{last_error}; clustering: {e}"
        ))),
    }
}

/// Simulates per-core EDF for a bin assignment, in core order. A core
/// marked in `kept` gets an empty schedule.
///
/// Each all-implicit bin signature that two or more cores share is
/// simulated once — at its lowest-index core, positionally — and relabelled
/// with the ids of every core carrying it; bins whose signature is theirs
/// alone, and bins holding a C=D piece, are simulated directly. Every
/// result, error included, equals `simulate_edf` of that core's own bin:
/// the positional simulator differs from the direct one only in output
/// labels, and relabelling with the core's own ids restores those exactly.
fn simulate_cores(
    bins: &CoreBins,
    kept: &[bool],
    horizon: Nanos,
    memo: &mut SigMemo,
) -> Vec<Result<CoreSchedule, DeadlineMiss>> {
    let is_kept = |core: usize| kept.get(core) == Some(&true);
    let sigs: Vec<Option<BinSignature>> = (bins.cores.iter().enumerate())
        .map(|(core, b)| (!is_kept(core) && all_implicit(b)).then(|| BinSignature::of(b)))
        .collect();
    // How many cores carry each signature.
    let mut carriers: HashMap<&BinSignature, usize> = HashMap::new();
    for sig in sigs.iter().flatten() {
        *carriers.entry(sig).or_insert(0) += 1;
    }
    // A signature nobody shares — every bin of an all-unique host — gains
    // nothing from the memo: simulating it positionally, memoizing it and
    // relabelling the copy back would only add two passes over its
    // segments. It is simulated under its own ids instead.
    let mut results = Vec::with_capacity(bins.cores.len());
    for (core, (bin, sig)) in bins.cores.iter().zip(&sigs).enumerate() {
        if is_kept(core) {
            results.push(Ok(CoreSchedule::new()));
            continue;
        }
        let shared = sig
            .as_ref()
            .filter(|sig| carriers[sig] > 1 || memo.edf_get(sig).is_some());
        let Some(sig) = shared else {
            results.push(simulate_edf(bin, horizon));
            continue;
        };
        // A new shared signature is simulated once, by the first core to
        // get here.
        if memo.edf_get(sig).is_none() {
            memo.edf_insert(sig.clone(), simulate_edf_positional(bin, horizon));
        }
        results.push(match memo.edf_get(sig).expect("simulated above") {
            Ok(positional) => Ok(positional.relabel(|t| bin[t.0 as usize].id)),
            Err(miss) => Err(DeadlineMiss {
                task: bin[miss.task.0 as usize].id,
                ..*miss
            }),
        });
    }
    results
}

/// Simulates per-core EDF for a complete bin assignment.
///
/// On failure the lowest-numbered failing core's diagnostic is returned —
/// exactly the error the sequential loop would have stopped at.
fn simulate_bins(
    bins: &CoreBins,
    kept: &[bool],
    horizon: Nanos,
    memo: &mut SigMemo,
    timings: &mut GenTimings,
) -> Result<MultiCoreSchedule, GenError> {
    let t0 = Instant::now();
    let results = simulate_cores(bins, kept, horizon, memo);
    let mut schedule = MultiCoreSchedule::idle(horizon, bins.cores.len());
    for (core, result) in results.into_iter().enumerate() {
        match result {
            Ok(cs) => schedule.cores[core] = cs,
            Err(miss) => {
                timings.simulate += t0.elapsed();
                return Err(GenError::VerificationFailed(format!(
                    "EDF deadline miss on core {core}: task {} at {}",
                    miss.task, miss.deadline
                )));
            }
        }
    }
    timings.simulate += t0.elapsed();
    Ok(schedule)
}

/// Runs the verifier, detects split tasks, and assembles the result.
fn finish(
    tasks: &[PeriodicTask],
    schedule: MultiCoreSchedule,
    stage: Stage,
    mut split_tasks: Vec<TaskId>,
    mut timings: GenTimings,
    core_bins: Vec<Vec<TaskId>>,
) -> Result<GenOutcome, GenError> {
    let t0 = Instant::now();
    let violations = verify_schedule(tasks, &schedule);
    if let Some(v) = violations.first() {
        return Err(GenError::VerificationFailed(format!(
            "{v} ({} violation(s) total)",
            violations.len()
        )));
    }
    // Report every task with allocations on >1 core (covers DP-Fair
    // migrations too, not just C=D splits). One pass over all segments
    // rather than one `segments_of` scan per task; per task position, the
    // first core seen and whether a second one followed.
    let index = TaskIndex::new(tasks.iter().map(|t| t.id.0));
    let mut first_core: Vec<Option<usize>> = vec![None; tasks.len()];
    let mut multi = vec![false; tasks.len()];
    for (core, cs) in schedule.cores.iter().enumerate() {
        for seg in cs.segments() {
            let Some(pos) = index.get(seg.task.0) else {
                continue;
            };
            match first_core[pos] {
                None => first_core[pos] = Some(core),
                Some(first) => multi[pos] |= first != core,
            }
        }
    }
    for (pos, t) in tasks.iter().enumerate() {
        if multi[index.first(pos)] && !split_tasks.contains(&t.id) {
            split_tasks.push(t.id);
        }
    }
    split_tasks.sort_unstable();
    timings.verify += t0.elapsed();
    Ok(GenOutcome {
        generated: Generated {
            schedule,
            stage,
            split_tasks,
        },
        timings,
        core_bins,
    })
}

/// Stage 3: merge cores into clusters until everything fits; single-core
/// clusters run EDF (with C=D splitting between them), multi-core clusters
/// run DP-Fair.
fn clustered_schedule(
    tasks: &[PeriodicTask],
    n_cores: usize,
    horizon: Nanos,
    memo: &mut SigMemo,
    timings: &mut GenTimings,
) -> Result<(MultiCoreSchedule, Vec<TaskId>), String> {
    if n_cores == 0 {
        return Err("no cores".to_owned());
    }
    // Cluster layout: each cluster is a contiguous run of core ids (adjacent
    // cores are the "close" ones in the paper's sense — they share cache on
    // typical topologies). Start with pairs only where needed: begin with
    // all singletons and grow the *first* cluster by one core per failed
    // attempt. This mirrors the paper's repeated bin merging and terminates
    // at a single all-core cluster.
    for cluster_size in 2..=n_cores {
        let attempt = try_clustered(tasks, n_cores, cluster_size, horizon, memo, timings);
        if let Some(result) = attempt {
            return Ok(result);
        }
    }
    Err("even a single all-core cluster failed (rounding-tight utilization)".to_owned())
}

/// Attempts a layout with one cluster of `cluster_size` cores (cores
/// `0..cluster_size`) and singletons for the rest.
fn try_clustered(
    tasks: &[PeriodicTask],
    n_cores: usize,
    cluster_size: usize,
    horizon: Nanos,
    memo: &mut SigMemo,
    timings: &mut GenTimings,
) -> Option<(MultiCoreSchedule, Vec<TaskId>)> {
    let t0 = Instant::now();
    let packed = pack_cluster(tasks, n_cores, cluster_size, horizon);
    timings.pack += t0.elapsed();
    let (single_bins, cluster_tasks) = packed?;

    let t0 = Instant::now();
    let result = generate_cluster_and_singles(
        &cluster_tasks,
        &single_bins,
        n_cores,
        cluster_size,
        horizon,
        memo,
    );
    timings.simulate += t0.elapsed();
    result
}

/// Greedy packing for one clustered attempt: sort by decreasing
/// utilization; fill the cluster with the tasks that the singles cannot
/// hold. Strategy: first try to place each task on a singleton (worst-fit);
/// overflow goes to the cluster if its capacity allows.
fn pack_cluster(
    tasks: &[PeriodicTask],
    n_cores: usize,
    cluster_size: usize,
    horizon: Nanos,
) -> Option<(CoreBins, Vec<PeriodicTask>)> {
    let singles = n_cores - cluster_size;
    let order = crate::partition::decreasing_utilization_order(tasks);
    let mut single_bins = CoreBins::new(singles, horizon);
    let mut cluster_tasks: Vec<PeriodicTask> = Vec::new();
    let mut cluster_demand = Nanos::ZERO;
    // DP-Fair's mandatory/optional allocation is exact in integer
    // nanoseconds, so the cluster can be filled to the brim.
    let cluster_capacity = horizon * cluster_size as u64;

    for idx in order {
        let task = tasks[idx];
        let placed = single_bins
            .worst_fit_order()
            .into_iter()
            .find(|&c| single_bins.fits(c, &task));
        if let Some(core) = placed {
            single_bins.assign(core, task);
            continue;
        }
        let d = task.cost_per(horizon);
        if cluster_demand + d > cluster_capacity {
            return None;
        }
        cluster_tasks.push(task);
        cluster_demand += d;
    }
    Some((single_bins, cluster_tasks))
}

/// Generates DP-Fair on the cluster and EDF on the singles.
///
/// Singles whose signature repeats across cores go through the signature
/// memo (and hit it again should a later attempt simulate them),
/// one-of-a-kind singles are simulated directly each time. The cluster runs
/// DP-Fair directly, once: `clustered_schedule` tries each cluster size at
/// most once, so no later attempt could reuse it.
fn generate_cluster_and_singles(
    cluster_tasks: &[PeriodicTask],
    single_bins: &CoreBins,
    n_cores: usize,
    cluster_size: usize,
    horizon: Nanos,
    memo: &mut SigMemo,
) -> Option<(MultiCoreSchedule, Vec<TaskId>)> {
    let single_results = simulate_cores(single_bins, &[], horizon, memo);
    let cluster_cores = dpfair_schedule(cluster_tasks, cluster_size, horizon).ok()?;
    let mut schedule = MultiCoreSchedule::idle(horizon, n_cores);
    for (i, cs) in cluster_cores.into_iter().enumerate() {
        schedule.cores[i] = cs;
    }
    for (i, cs) in single_results.into_iter().enumerate() {
        schedule.cores[cluster_size + i] = cs.ok()?;
    }
    let split: Vec<TaskId> = cluster_tasks.iter().map(|t| t.id).collect();
    Some((schedule, split))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn imp(id: u32, c: u64, t: u64) -> PeriodicTask {
        PeriodicTask::implicit(TaskId(id), ms(c), ms(t))
    }

    #[test]
    fn easy_set_uses_stage_one() {
        let tasks: Vec<_> = (0..8).map(|i| imp(i, 2, 10)).collect();
        let g = generate_schedule(&tasks, 2, ms(10), &GenOptions::default()).unwrap();
        assert_eq!(g.stage, Stage::Partitioned);
        assert!(g.split_tasks.is_empty());
    }

    #[test]
    fn three_big_tasks_use_semi_partitioning() {
        let tasks = [imp(0, 6, 10), imp(1, 6, 10), imp(2, 6, 10)];
        let g = generate_schedule(&tasks, 2, ms(10), &GenOptions::default()).unwrap();
        assert_eq!(g.stage, Stage::SemiPartitioned);
        assert_eq!(g.split_tasks.len(), 1);
    }

    #[test]
    fn forced_clustering_works() {
        let tasks = [imp(0, 6, 10), imp(1, 6, 10), imp(2, 6, 10)];
        let opts = GenOptions {
            first_stage: Stage::Clustered,
            ..GenOptions::default()
        };
        let g = generate_schedule(&tasks, 2, ms(10), &opts).unwrap();
        assert_eq!(g.stage, Stage::Clustered);
    }

    #[test]
    fn over_utilization_rejected_up_front() {
        let tasks = [imp(0, 8, 10), imp(1, 8, 10), imp(2, 8, 10)];
        assert!(matches!(
            generate_schedule(&tasks, 2, ms(10), &GenOptions::default()),
            Err(GenError::OverUtilized { .. })
        ));
    }

    #[test]
    fn bad_period_rejected() {
        let tasks = [imp(0, 2, 7)];
        assert!(matches!(
            generate_schedule(&tasks, 1, ms(10), &GenOptions::default()),
            Err(GenError::BadPeriod(_))
        ));
    }

    #[test]
    fn empty_task_set_gives_idle_tables() {
        let g = generate_schedule(&[], 4, ms(10), &GenOptions::default()).unwrap();
        assert_eq!(g.schedule.n_cores(), 4);
        assert!(g.schedule.cores.iter().all(|c| c.segments().is_empty()));
    }

    #[test]
    fn dedicated_core_task_handled() {
        // One U = 1 task plus fillers.
        let tasks = [imp(0, 10, 10), imp(1, 5, 10), imp(2, 5, 10)];
        let g = generate_schedule(&tasks, 2, ms(10), &GenOptions::default()).unwrap();
        // Task 0 occupies an entire core.
        let segs = g.schedule.segments_of(TaskId(0));
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].1.len(), ms(10));
    }

    #[test]
    fn every_generated_schedule_is_verified() {
        // The verifier runs inside generate_schedule; a success here implies
        // exact per-window service for this moderately tricky set.
        let tasks = [
            imp(0, 3, 10),
            imp(1, 7, 20),
            imp(2, 4, 20),
            imp(3, 6, 10),
            imp(4, 9, 20),
        ];
        let g = generate_schedule(&tasks, 2, ms(20), &GenOptions::default()).unwrap();
        assert!(verify_schedule(&tasks, &g.schedule).is_empty());
    }

    #[test]
    fn high_density_sixteen_core_shape() {
        // The paper's evaluation shape: 4 VMs per core at 25% each.
        let tasks: Vec<_> = (0..64).map(|i| imp(i, 5, 20)).collect();
        let g = generate_schedule(&tasks, 16, ms(100), &GenOptions::default()).unwrap();
        assert_eq!(g.stage, Stage::Partitioned);
        // Every core hosts exactly 4 tasks' worth of demand.
        for core in &g.schedule.cores {
            assert_eq!(core.busy_time(), ms(100));
        }
    }

    #[test]
    fn kept_cores_are_left_to_the_caller() {
        // Three identical bins, the middle one kept: it is never simulated,
        // the other two are, and only their tasks are verified.
        let tasks: Vec<_> = (0..6).map(|i| imp(i, 2, 10)).collect();
        let mut asked = Vec::new();
        let out = generate_schedule_instrumented(
            &tasks,
            3,
            ms(10),
            &GenOptions::default(),
            |core, bin| {
                asked.push((core, bin.len()));
                core == 1
            },
        )
        .unwrap();
        assert_eq!(asked, [(0, 2), (1, 2), (2, 2)]);
        let full = generate_schedule(&tasks, 3, ms(10), &GenOptions::default()).unwrap();
        let cores = &out.generated.schedule.cores;
        assert!(cores[1].segments().is_empty());
        assert_eq!(cores[0], full.schedule.cores[0]);
        assert_eq!(cores[2], full.schedule.cores[2]);
        assert_eq!(out.core_bins.len(), 3);
        // Not asked when stage 1 does not pack.
        let heavy = [imp(0, 6, 10), imp(1, 6, 10), imp(2, 6, 10)];
        let opts = GenOptions::default();
        generate_schedule_instrumented(&heavy, 2, ms(10), &opts, |_, _| unreachable!()).unwrap();
    }

    /// `simulate_cores` with one memo over `calls` in turn (as stage
    /// attempts share one), held to `simulate_edf` of each core's own bin:
    /// a kept core is empty, and a miss names a task of its own core.
    fn assert_matches_per_bin(calls: &[(CoreBins, Vec<bool>)]) {
        let mut memo = SigMemo::new();
        for (bins, kept) in calls {
            let got = simulate_cores(bins, kept, bins.horizon, &mut memo);
            assert_eq!(got.len(), bins.cores.len());
            for (core, (got, bin)) in got.iter().zip(&bins.cores).enumerate() {
                if kept.get(core) == Some(&true) {
                    assert_eq!(got, &Ok(CoreSchedule::new()), "kept core {core}");
                    continue;
                }
                assert_eq!(
                    got,
                    &simulate_edf(bin, bins.horizon),
                    "core {core} of {bin:?}"
                );
                if let Err(miss) = got {
                    assert!(bin.iter().any(|t| t.id == miss.task), "core {core}");
                }
            }
        }
    }

    mod memo_property {
        use super::*;
        use proptest::prelude::*;

        /// Periods: the divisors of 1 200 µs from 100 µs up.
        const PERIODS_US: [u64; 9] = [100, 120, 150, 200, 240, 300, 400, 600, 1_200];

        /// A bin shape: `(period index, utilization %)` per task. Up to four
        /// tasks of up to 40 % each, so some shapes overload their core.
        fn arb_shape() -> impl Strategy<Value = Vec<(usize, u64)>> {
            proptest::collection::vec((0..PERIODS_US.len(), 5u64..=40), 1..=4)
        }

        /// Per core: `(pick, piece, kept, own shape)`. `pick` below the pool
        /// size reuses a pool shape (repeated shapes); otherwise the core
        /// gets its own (one-of-a-kind). `piece` turns the first task into
        /// a C=D piece with the same cost and period.
        type CoreDesc = (usize, bool, bool, Vec<(usize, u64)>);

        fn arb_cores(pool: usize) -> impl Strategy<Value = Vec<CoreDesc>> {
            let core = (0..pool + 2, 0u8..4, 0u8..5, arb_shape())
                .prop_map(|(pick, piece, kept, own)| (pick, piece == 0, kept == 0, own));
            proptest::collection::vec(core, 1..=10)
        }

        /// Two calls' worth of cores over one shape pool.
        type Case = (Vec<Vec<(usize, u64)>>, Vec<CoreDesc>, Vec<CoreDesc>);

        fn arb_case() -> impl Strategy<Value = Case> {
            proptest::collection::vec(arb_shape(), 1..=3).prop_flat_map(|pool| {
                let n = pool.len();
                (Just(pool), arb_cores(n), arb_cores(n))
            })
        }

        /// Builds one call's bins; ids are scattered and distinct across
        /// both calls (`next_id` carries on).
        fn build(
            pool: &[Vec<(usize, u64)>],
            cores: &[CoreDesc],
            next_id: &mut u32,
        ) -> (CoreBins, Vec<bool>) {
            let horizon = Nanos::from_micros(1_200);
            let mut bins = CoreBins::new(cores.len(), horizon);
            let mut kept = Vec::new();
            for (core, (pick, piece, keep, own)) in cores.iter().enumerate() {
                let shape = pool.get(*pick).unwrap_or(own);
                for (i, &(p, pct)) in shape.iter().enumerate() {
                    let period = Nanos::from_micros(PERIODS_US[p]);
                    let cost = Nanos(period.as_nanos() * pct / 100);
                    let id = TaskId(*next_id);
                    *next_id += 7;
                    bins.cores[core].push(if *piece && i == 0 {
                        PeriodicTask::with_window(id, cost, period, cost, Nanos::ZERO)
                    } else {
                        PeriodicTask::implicit(id, cost, period)
                    });
                }
                kept.push(*keep);
            }
            (bins, kept)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The memo is invisible: every core's result, errors included,
            /// is its own bin's `simulate_edf`.
            #[test]
            fn simulate_cores_equals_per_bin_simulate_edf((pool, first, second) in arb_case()) {
                let mut next_id = 3;
                let calls = [
                    build(&pool, &first, &mut next_id),
                    build(&pool, &second, &mut next_id),
                ];
                assert_matches_per_bin(&calls);
            }
        }
    }

    #[test]
    fn simulate_cores_matches_per_bin_simulation_at_figure_3_scale() {
        // Fig. 3's heaviest cell: 176 VMs at 25 % and a 1 ms goal on 44
        // cores, packed as the planner packs them: every bin one shape.
        let bound = Nanos(1_000_000 * 1_000_000 / (2 * 750_000));
        let candidates = crate::hyperperiod::PeriodCandidates::standard();
        let period = candidates.largest_at_most(bound).unwrap();
        let cost = Nanos(period.as_nanos() / 4);
        let tasks: Vec<_> = (0..176)
            .map(|i| PeriodicTask::implicit(TaskId(i), cost, period))
            .collect();
        let packed = worst_fit_decreasing(&tasks, 44, candidates.hyperperiod());
        assert!(packed.is_complete());
        assert!(packed.bins.cores.iter().all(|bin| bin.len() == 4));
        assert_matches_per_bin(&[(packed.bins, Vec::new())]);
    }
}
