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
//! **Memoized engine.** High-density hosts are homogeneous, so most bins are
//! the same task multiset modulo ids. The default [`GenEngine::Memoized`]
//! engine simulates each *distinct* bin signature once (positionally, see
//! [`crate::signature`]) and stamps the result onto every core sharing that
//! signature via an id-substitution map, recording the sharing in a
//! [`CoreSharing`] so verification, coalescing, and slice-table construction
//! downstream can reuse per-core work too. [`GenEngine::Direct`] keeps the
//! original per-core pipeline as a selectable reference engine; both produce
//! bit-identical schedules (property-checked in `tableau-core`'s
//! `prop_memoized_generator`).
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
use crate::signature::{all_implicit, BinSignature, CoreSharing, SigMemo, Stamp};
use crate::split::{semi_partition, SplitError};
use crate::task::{PeriodicTask, TaskId};
use crate::time::Nanos;
use crate::verify::{verify_schedule, verify_schedule_shared};

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

/// Which generation pipeline to run.
///
/// Both engines produce bit-identical results; `Direct` exists as the
/// reference to hold `Memoized` to (the heap-vs-wheel precedent from the
/// simulator's event engines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum GenEngine {
    /// Simulate once per distinct bin signature and stamp the schedule onto
    /// every core sharing it (the default).
    #[default]
    Memoized,
    /// Simulate every core from scratch (reference engine).
    Direct,
}

/// Tunables for schedule generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenOptions {
    /// Smallest allocation worth creating; pieces below this are never
    /// generated (they could not be enforced at runtime anyway).
    pub min_piece: Nanos,
    /// Skip straight to a later stage (used by ablation benchmarks).
    pub first_stage: Stage,
    /// Which pipeline to run; engines are result-equivalent.
    #[serde(default)]
    pub engine: GenEngine,
}

impl Default for GenOptions {
    fn default() -> GenOptions {
        GenOptions {
            min_piece: Nanos::from_micros(100),
            first_stage: Stage::Partitioned,
            engine: GenEngine::Memoized,
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

/// A [`Generated`] schedule plus the sharing record and timing breakdown.
///
/// Side-channel result of [`generate_schedule_instrumented`]; `Generated`
/// itself stays field-identical across engines so plans can be compared
/// structurally.
#[derive(Debug, Clone)]
pub struct GenOutcome {
    /// The verified schedule.
    pub generated: Generated,
    /// Which cores were stamped from which representatives.
    pub sharing: CoreSharing,
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

/// Like [`generate_schedule`], additionally returning the core-sharing
/// record and the per-stage timing breakdown, for a caller that may already
/// hold the schedules of some stage-1 bins.
///
/// Once plain partitioning packs every task, `keep(core, bin)` is asked for
/// each core in core order. A core it answers `true` for is the caller's:
/// it is left idle in the returned schedule, never simulated, verified or
/// used as a stamp representative, and only the tasks of the other cores
/// are verified. `keep` is not asked when stage 1 does not run or does not
/// pack, nor for an empty task set.
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
            sharing: CoreSharing::none(n_cores),
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
            let (schedule, sharing) = simulate_bins(
                &r.bins,
                &kept,
                horizon,
                opts.engine,
                &mut memo,
                &mut timings,
            )?;
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
                sharing,
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
                let (schedule, sharing) =
                    simulate_bins(&sp.bins, &[], horizon, opts.engine, &mut memo, &mut timings)?;
                return finish(
                    tasks,
                    schedule,
                    Stage::SemiPartitioned,
                    sp.split_tasks,
                    sharing,
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
    match clustered_schedule(tasks, n_cores, horizon, opts, &mut memo, &mut timings) {
        Ok((schedule, split, sharing)) => finish(
            tasks,
            schedule,
            Stage::Clustered,
            split,
            sharing,
            timings,
            Vec::new(),
        ),
        Err(e) => Err(GenError::Exhausted(format!(
            "{last_error}; clustering: {e}"
        ))),
    }
}

/// Simulates per-core EDF for a bin assignment, engine-dispatched. A core
/// marked in `kept` gets an empty schedule and takes no part in sharing.
///
/// Direct engine: every core simulated from scratch, in core order. Memoized
/// engine: each all-implicit bin signature that two or more cores share is
/// simulated once — at its lowest-index ("representative") core,
/// positionally — and relabeled onto every core sharing it; bins whose
/// signature is theirs alone, and non-sharable bins (any C=D piece
/// present), take the direct path. Returned results and errors are
/// identical across engines: the positional simulator differs from the
/// direct one only in output labels, and the relabeling restores those
/// exactly.
fn simulate_cores(
    bins: &CoreBins,
    kept: &[bool],
    horizon: Nanos,
    engine: GenEngine,
    memo: &mut SigMemo,
) -> (Vec<Result<CoreSchedule, DeadlineMiss>>, Vec<Option<Stamp>>) {
    let n = bins.cores.len();
    let mut stamps: Vec<Option<Stamp>> = vec![None; n];
    let is_kept = |core: usize| kept.get(core) == Some(&true);
    if engine == GenEngine::Direct {
        let results = (bins.cores.iter().enumerate())
            .map(|(core, bin)| {
                if is_kept(core) {
                    Ok(CoreSchedule::new())
                } else {
                    simulate_edf(bin, horizon)
                }
            })
            .collect();
        return (results, stamps);
    }

    let sigs: Vec<Option<BinSignature>> = (bins.cores.iter().enumerate())
        .map(|(core, b)| (!is_kept(core) && all_implicit(b)).then(|| BinSignature::of(b)))
        .collect();
    // Per signature: its lowest-index ("representative") core and how many
    // cores carry it.
    let mut rep_of: HashMap<&BinSignature, (usize, usize)> = HashMap::new();
    for (core, sig) in sigs.iter().enumerate() {
        if let Some(sig) = sig {
            rep_of.entry(sig).or_insert((core, 0)).1 += 1;
        }
    }
    // A signature nobody shares — every bin of an all-unique host — has
    // nothing to stamp: simulating it positionally, memoizing it and
    // relabeling the copy back would only add two passes over its segments.
    // It is simulated under its own ids instead: `shared` keeps only the
    // signatures that go through the memo.
    let shared: Vec<Option<&BinSignature>> = sigs
        .iter()
        .map(|sig| {
            let sig = sig.as_ref()?;
            (rep_of[sig].1 > 1 || memo.edf_get(sig).is_some()).then_some(sig)
        })
        .collect();
    let mut results = Vec::with_capacity(n);
    for core in 0..n {
        let bin = &bins.cores[core];
        if is_kept(core) {
            results.push(Ok(CoreSchedule::new()));
            continue;
        }
        // Unshared and non-sharable bins take the direct path.
        let Some(sig) = shared[core] else {
            results.push(simulate_edf(bin, horizon));
            continue;
        };
        // A *new* shared signature is simulated once, at its representative
        // (the lowest-index core carrying it, so the first to get here).
        if memo.edf_get(sig).is_none() {
            memo.edf_insert(sig.clone(), simulate_edf_positional(bin, horizon));
        }
        let rep = rep_of[sig].0;
        let result = match memo.edf_get(sig).expect("simulated above") {
            Ok(positional) => Ok(positional.relabel(|t| bin[t.0 as usize].id)),
            Err(miss) => Err(DeadlineMiss {
                task: bin[miss.task.0 as usize].id,
                ..*miss
            }),
        };
        if result.is_ok() && core != rep {
            stamps[core] = Some(Stamp {
                rep,
                map: bins.cores[rep]
                    .iter()
                    .zip(bin.iter())
                    .map(|(r, c)| (r.id, c.id))
                    .collect(),
            });
        }
        results.push(result);
    }
    (results, stamps)
}

/// Simulates per-core EDF for a complete bin assignment.
///
/// On failure the lowest-numbered failing core's diagnostic is returned —
/// exactly the error the sequential loop would have stopped at.
fn simulate_bins(
    bins: &CoreBins,
    kept: &[bool],
    horizon: Nanos,
    engine: GenEngine,
    memo: &mut SigMemo,
    timings: &mut GenTimings,
) -> Result<(MultiCoreSchedule, CoreSharing), GenError> {
    let t0 = Instant::now();
    let (results, stamps) = simulate_cores(bins, kept, horizon, engine, memo);
    let mut schedule = MultiCoreSchedule::idle(horizon, bins.cores.len());
    let mut sharing = CoreSharing::none(bins.cores.len());
    for (core, (result, stamp)) in results.into_iter().zip(stamps).enumerate() {
        match result {
            Ok(cs) => {
                schedule.cores[core] = cs;
                if let Some(s) = stamp {
                    sharing.set(core, s);
                }
            }
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
    Ok((schedule, sharing))
}

/// Runs the verifier, detects split tasks, and assembles the result.
#[allow(clippy::too_many_arguments)]
fn finish(
    tasks: &[PeriodicTask],
    schedule: MultiCoreSchedule,
    stage: Stage,
    mut split_tasks: Vec<TaskId>,
    sharing: CoreSharing,
    mut timings: GenTimings,
    core_bins: Vec<Vec<TaskId>>,
) -> Result<GenOutcome, GenError> {
    let t0 = Instant::now();
    let violations = if sharing.any_stamped() {
        verify_schedule_shared(tasks, &schedule, &sharing)
    } else {
        verify_schedule(tasks, &schedule)
    };
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
        sharing,
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
    opts: &GenOptions,
    memo: &mut SigMemo,
    timings: &mut GenTimings,
) -> Result<(MultiCoreSchedule, Vec<TaskId>, CoreSharing), String> {
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
        let attempt = try_clustered(tasks, n_cores, cluster_size, horizon, opts, memo, timings);
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
    opts: &GenOptions,
    memo: &mut SigMemo,
    timings: &mut GenTimings,
) -> Option<(MultiCoreSchedule, Vec<TaskId>, CoreSharing)> {
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
        opts.engine,
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
/// Direct engine: per-core EDF on each single. Memoized engine: singles
/// whose signature repeats across cores go through the signature memo (and
/// hit it again should a later attempt simulate them), one-of-a-kind
/// singles are simulated directly each time. Either way the cluster runs
/// DP-Fair directly, once: `clustered_schedule` tries each cluster size at
/// most once, so no later attempt could reuse it, and its cores are never
/// stamped — DP-Fair produces them jointly, not per-bin.
fn generate_cluster_and_singles(
    cluster_tasks: &[PeriodicTask],
    single_bins: &CoreBins,
    n_cores: usize,
    cluster_size: usize,
    horizon: Nanos,
    engine: GenEngine,
    memo: &mut SigMemo,
) -> Option<(MultiCoreSchedule, Vec<TaskId>, CoreSharing)> {
    let (single_results, single_stamps) = simulate_cores(single_bins, &[], horizon, engine, memo);
    let cluster_cores = dpfair_schedule(cluster_tasks, cluster_size, horizon).ok()?;
    let mut schedule = MultiCoreSchedule::idle(horizon, n_cores);
    let mut sharing = CoreSharing::none(n_cores);
    for (i, cs) in cluster_cores.into_iter().enumerate() {
        schedule.cores[i] = cs;
    }
    for (i, cs) in single_results.into_iter().enumerate() {
        schedule.cores[cluster_size + i] = cs.ok()?;
    }
    for (i, stamp) in single_stamps.into_iter().enumerate() {
        if let Some(mut s) = stamp {
            s.rep += cluster_size;
            sharing.set(cluster_size + i, s);
        }
    }
    let split: Vec<TaskId> = cluster_tasks.iter().map(|t| t.id).collect();
    Some((schedule, split, sharing))
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
    fn memoized_engine_stamps_equal_signature_bins() {
        // Eight identical tasks on two cores: both bins carry the same
        // signature, so the second core must be stamped from the first, and
        // the result must match the direct engine bit for bit.
        let tasks: Vec<_> = (0..8).map(|i| imp(i, 2, 10)).collect();
        let out =
            generate_schedule_instrumented(&tasks, 2, ms(10), &GenOptions::default(), |_, _| false)
                .unwrap();
        assert_eq!(out.generated.stage, Stage::Partitioned);
        assert_eq!(out.sharing.stamped_count(), 1);
        let stamp = out.sharing.stamp_of(1).expect("core 1 shares core 0's bin");
        assert_eq!(stamp.rep, 0);
        // The stamped core's ids are its own, not the representative's.
        for (rep_id, this_id) in &stamp.map {
            assert_ne!(rep_id, this_id);
        }
        let direct = GenOptions {
            engine: GenEngine::Direct,
            ..GenOptions::default()
        };
        let d = generate_schedule(&tasks, 2, ms(10), &direct).unwrap();
        assert_eq!(out.generated.schedule, d.schedule);
        assert_eq!(out.generated.split_tasks, d.split_tasks);
    }

    #[test]
    fn kept_cores_are_left_to_the_caller() {
        // Three identical bins, the middle one kept: it is never simulated
        // or stamped, the other two are (core 2 stamped from core 0), and
        // only their tasks are verified.
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
        assert_eq!(out.sharing.stamp_of(2).map(|s| s.rep), Some(0));
        assert_eq!(out.core_bins.len(), 3);
        // Not asked when stage 1 does not pack.
        let heavy = [imp(0, 6, 10), imp(1, 6, 10), imp(2, 6, 10)];
        let opts = GenOptions::default();
        generate_schedule_instrumented(&heavy, 2, ms(10), &opts, |_, _| unreachable!()).unwrap();
    }

    #[test]
    fn split_bins_opt_out_of_stamping() {
        // Semi-partitioning produces C=D pieces; any bin holding one takes
        // the direct path, and the engines still agree exactly.
        let tasks = [imp(0, 6, 10), imp(1, 6, 10), imp(2, 6, 10)];
        let out =
            generate_schedule_instrumented(&tasks, 2, ms(10), &GenOptions::default(), |_, _| false)
                .unwrap();
        assert_eq!(out.generated.stage, Stage::SemiPartitioned);
        assert_eq!(out.sharing.stamped_count(), 0);
        let direct = GenOptions {
            engine: GenEngine::Direct,
            ..GenOptions::default()
        };
        let d = generate_schedule(&tasks, 2, ms(10), &direct).unwrap();
        assert_eq!(out.generated.schedule, d.schedule);
        assert_eq!(out.generated.split_tasks, d.split_tasks);
    }

    #[test]
    fn engines_agree_on_infeasible_simulations() {
        // Force clustering on a single core so the stage falls through, and
        // check both engines produce the identical Exhausted diagnostic.
        let tasks = [imp(0, 6, 10), imp(1, 6, 10)];
        let memo_err = generate_schedule(&tasks, 1, ms(10), &GenOptions::default()).unwrap_err();
        let direct = GenOptions {
            engine: GenEngine::Direct,
            ..GenOptions::default()
        };
        let direct_err = generate_schedule(&tasks, 1, ms(10), &direct).unwrap_err();
        assert_eq!(memo_err, direct_err);
    }
}
