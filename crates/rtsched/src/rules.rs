//! Incremental rule-based schedule verification over a plan fact store.
//!
//! [`crate::verify::verify_schedule`] re-derives every violation from the
//! whole schedule — `O(segments + tasks · windows)` per call. That is the
//! right cost for a from-scratch plan, but the delta planner dirties one
//! bin out of dozens, and at fleet churn rates re-verification fires on
//! every splice, so the dominant fixed cost of the churn path became the
//! *clean* cores' re-checks.
//!
//! [`RuleEngine`] recasts the verifier's four invariants as rules over a
//! per-core fact store:
//!
//! * **slot facts** — the `(core, start, end, task)` segment tuples;
//! * **bin-membership facts** — which tasks are asserted on which core
//!   (the per-core locality of a partitioned plan).
//!
//! The rules are exactly the verifier's checks: (R1) per-core slot
//! geometry, (R2) exact window service, (R3) no parallel execution, (R4)
//! the cyclic blackout bound — implemented by the *same* helper functions
//! the single-pass verifier uses, so verdicts cannot drift. A delta
//! retracts one core's facts and re-asserts the rebuilt bin
//! ([`RuleEngine::apply_delta`]); only that core's derivations are
//! recomputed, so a verdict costs `O(delta)` instead of `O(host)`.
//!
//! **Decline, don't guess.** The per-core factoring is sound only when
//! every task lives on exactly one core and every slot references a task
//! asserted on its own core. Any fact that breaks that locality — a
//! duplicate task id, a slot naming a foreign or unknown task, a stamped
//! core-sharing record — is a [`RuleDecline`], not a verdict: the engine
//! poisons itself and [`verify_with_engine`] degrades to the full
//! single-pass verifier, mirroring how `verify_schedule_shared` treats a
//! stamp that fails validation. The fallback also fires whenever the
//! engine *does* find violations, so the returned list is always exactly
//! the full verifier's (same violations, same order).

use std::collections::HashMap;

use crate::index::TaskIndex;
use crate::schedule::{MultiCoreSchedule, Segment};
use crate::signature::CoreSharing;
use crate::task::{PeriodicTask, TaskId};
use crate::time::Nanos;
use crate::verify::{check_task, core_geometry, verify_schedule, TaskIntervals, Violation};

/// Why the rule engine refuses to stand behind an incremental verdict.
///
/// A decline is not a violation: it means the fact store's per-core
/// factoring assumptions do not hold, so the caller must degrade to the
/// full single-pass verifier for an authoritative answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleDecline {
    /// A task id was asserted on two cores (or twice on one core).
    DuplicateTask(TaskId),
    /// A slot fact references a task homed on a different core.
    CrossCore {
        /// The task the slot names.
        task: TaskId,
        /// The core the task's bin-membership fact points at.
        home: usize,
        /// The core whose slot facts reference it.
        seen: usize,
    },
    /// A slot fact references a task with no bin-membership fact at all.
    UnknownTask {
        /// The core whose slot facts reference it.
        core: usize,
        /// The unasserted task id.
        task: TaskId,
    },
    /// The plan carries stamped core-sharing records; mirrored cores are
    /// validated by `verify_schedule_shared`, not factored per core.
    Stamped,
    /// A core index outside the engine's configured width.
    CoreOutOfRange {
        /// The offending core index.
        core: usize,
        /// The engine's core count.
        n_cores: usize,
    },
}

impl std::fmt::Display for RuleDecline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuleDecline::DuplicateTask(t) => write!(f, "task {t} asserted on two cores"),
            RuleDecline::CrossCore { task, home, seen } => {
                write!(
                    f,
                    "task {task} homed on core {home} but slotted on core {seen}"
                )
            }
            RuleDecline::UnknownTask { core, task } => {
                write!(f, "core {core} slots unasserted task {task}")
            }
            RuleDecline::Stamped => write!(f, "plan carries stamped core-sharing records"),
            RuleDecline::CoreOutOfRange { core, n_cores } => {
                write!(f, "core {core} outside engine width {n_cores}")
            }
        }
    }
}

/// One core's slice of the fact store plus its cached derivations.
#[derive(Debug, Default, Clone)]
struct CoreFacts {
    /// Bin-membership facts, in bin order (the derivation order).
    tasks: Vec<PeriodicTask>,
    /// Slot facts, in table order.
    segments: Vec<Segment>,
    /// Whether the derivations below are stale.
    dirty: bool,
    /// Derived R1 findings (slot geometry).
    geometry: Vec<Violation>,
    /// Derived R2–R4 findings, in bin order.
    task_findings: Vec<Violation>,
}

/// The incremental invariant engine: a per-core fact store with memoized
/// rule derivations.
///
/// Typical lifecycle: prime every core once ([`RuleEngine::assert_bin`]),
/// then per churn event retract + re-assert the dirty cores
/// ([`RuleEngine::apply_delta`]) and ask for a fresh
/// [`RuleEngine::verdict`]. Clean cores keep their cached derivations, so
/// the verdict costs time proportional to the delta.
#[derive(Debug, Clone)]
pub struct RuleEngine {
    hyperperiod: Nanos,
    cores: Vec<CoreFacts>,
    /// Task id -> home core, for the injectivity guard across cores.
    /// Consulted once per asserted *task*; slots are matched against their
    /// own bin through a [`TaskIndex`] and reach this map only to word a
    /// decline.
    home: HashMap<u32, usize>,
    /// A sticky decline: once the fact store violates the factoring
    /// assumptions the engine refuses verdicts until reset.
    decline: Option<RuleDecline>,
}

impl RuleEngine {
    /// An empty engine for a table of `hyperperiod` length on `n_cores`.
    pub fn new(hyperperiod: Nanos, n_cores: usize) -> RuleEngine {
        RuleEngine {
            hyperperiod,
            cores: vec![CoreFacts::default(); n_cores],
            home: HashMap::new(),
            decline: None,
        }
    }

    /// Primes an engine from a full schedule whose tasks are partitioned
    /// per core (`bins[core]` lists the tasks homed there, in the order the
    /// full verifier would receive them).
    ///
    /// Returns the poisoned engine even on decline so callers can inspect
    /// [`RuleEngine::declined`]; the verdict path degrades regardless.
    pub fn from_bins(
        hyperperiod: Nanos,
        bins: &[Vec<PeriodicTask>],
        schedule: &MultiCoreSchedule,
    ) -> RuleEngine {
        let mut engine = RuleEngine::new(hyperperiod, schedule.cores.len());
        for (core, bin) in bins.iter().enumerate() {
            let segments = schedule.cores[core].segments().to_vec();
            if engine.assert_bin(core, bin.clone(), segments).is_err() {
                break;
            }
        }
        engine
    }

    /// The configured core count.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// The sticky decline, if the engine is poisoned.
    pub fn declined(&self) -> Option<&RuleDecline> {
        self.decline.as_ref()
    }

    /// Retracts every fact of `core` (bin membership and slots). The
    /// core's cached derivations are dropped; other cores are untouched.
    pub fn retract_core(&mut self, core: usize) {
        if core >= self.cores.len() {
            return;
        }
        for t in &self.cores[core].tasks {
            self.home.remove(&t.id.0);
        }
        self.cores[core] = CoreFacts {
            dirty: true,
            ..CoreFacts::default()
        };
    }

    /// Asserts one core's facts: its bin membership (`tasks`, in bin
    /// order) and slot tuples (`segments`, in table order).
    ///
    /// # Errors
    ///
    /// A [`RuleDecline`] when the facts break the per-core factoring: a
    /// task already asserted elsewhere, a slot referencing a task not in
    /// this bin, or an out-of-range core. On error no fact is installed
    /// and the engine is poisoned (see [`RuleEngine::declined`]).
    pub fn assert_bin(
        &mut self,
        core: usize,
        tasks: Vec<PeriodicTask>,
        segments: Vec<Segment>,
    ) -> Result<(), RuleDecline> {
        if core >= self.cores.len() {
            return Err(self.poison(RuleDecline::CoreOutOfRange {
                core,
                n_cores: self.cores.len(),
            }));
        }
        // Validate before installing anything: a failed assert must leave
        // the store unchanged (the caller falls back to the full verifier).
        if let Err(decline) = bin_is_local(&self.home, core, &tasks, &segments) {
            return Err(self.poison(decline));
        }
        for t in &tasks {
            self.home.insert(t.id.0, core);
        }
        self.cores[core] = CoreFacts {
            tasks,
            segments,
            dirty: true,
            geometry: Vec::new(),
            task_findings: Vec::new(),
        };
        Ok(())
    }

    /// Retract-and-reassert one core in a single step — the shape
    /// `plan_delta` emits for each dirty bin.
    ///
    /// # Errors
    ///
    /// Same as [`RuleEngine::assert_bin`]; the retraction always happens,
    /// so a failed re-assert leaves the core empty and the engine poisoned.
    pub fn apply_delta(
        &mut self,
        core: usize,
        tasks: Vec<PeriodicTask>,
        segments: Vec<Segment>,
    ) -> Result<(), RuleDecline> {
        self.retract_core(core);
        self.assert_bin(core, tasks, segments)
    }

    /// Declines verdicts when the plan carries stamped core-sharing
    /// records (mirrored cores are `verify_schedule_shared`'s business).
    /// A no-op for an unstamped record.
    pub fn observe_sharing(&mut self, sharing: &CoreSharing) {
        if sharing.any_stamped() {
            let _ = self.poison(RuleDecline::Stamped);
        }
    }

    fn poison(&mut self, decline: RuleDecline) -> RuleDecline {
        if self.decline.is_none() {
            self.decline = Some(decline.clone());
        }
        decline
    }

    /// Re-derives the rules for every dirty core and returns the full
    /// violation list: R1 geometry findings in core order, then R2–R4
    /// per-task findings in core-major bin order — exactly the order
    /// [`verify_schedule`] produces when handed the core-major task
    /// concatenation.
    ///
    /// # Errors
    ///
    /// The sticky [`RuleDecline`] when the engine is poisoned; callers
    /// degrade to the full verifier ([`verify_with_engine`] does).
    pub fn verdict(&mut self) -> Result<Vec<Violation>, RuleDecline> {
        if let Some(d) = &self.decline {
            return Err(d.clone());
        }
        let h = self.hyperperiod;
        for (core, cf) in self.cores.iter_mut().enumerate() {
            if cf.dirty {
                derive_core(core, cf, h);
            }
        }
        let mut out = Vec::new();
        for (core, cf) in self.cores.iter().enumerate() {
            debug_assert!(!cf.dirty, "core {core} derivation skipped");
            out.extend(cf.geometry.iter().cloned());
        }
        for cf in &self.cores {
            out.extend(cf.task_findings.iter().cloned());
        }
        Ok(out)
    }

    /// The tasks currently asserted, in core-major bin order — the task
    /// array a full-verifier fallback must be called with to reproduce the
    /// engine's verdict order.
    pub fn tasks_in_order(&self) -> Vec<PeriodicTask> {
        self.cores.iter().flat_map(|cf| cf.tasks.clone()).collect()
    }
}

/// The factoring guards for one bin about to be asserted on `core`, given
/// the tasks homed so far: no task already homed (here or elsewhere), no id
/// twice in the bin, and every slot naming a task of this bin. Reports the
/// first offender in input order.
fn bin_is_local(
    home: &HashMap<u32, usize>,
    core: usize,
    tasks: &[PeriodicTask],
    segments: &[Segment],
) -> Result<(), RuleDecline> {
    let bin = TaskIndex::new(tasks.iter().map(|t| t.id.0));
    for (pos, t) in tasks.iter().enumerate() {
        if home.contains_key(&t.id.0) || bin.first(pos) != pos {
            return Err(RuleDecline::DuplicateTask(t.id));
        }
    }
    match segments.iter().find(|seg| bin.get(seg.task.0).is_none()) {
        None => Ok(()),
        Some(seg) => Err(match home.get(&seg.task.0) {
            Some(&home) => RuleDecline::CrossCore {
                task: seg.task,
                home,
                seen: core,
            },
            None => RuleDecline::UnknownTask {
                core,
                task: seg.task,
            },
        }),
    }
}

/// Derives R1–R4 for one core from its facts, caching the findings.
fn derive_core(core: usize, cf: &mut CoreFacts, h: Nanos) {
    cf.geometry = core_geometry(core, &cf.segments, h);
    cf.task_findings = bin_task_findings(&cf.tasks, &cf.segments, h);
    cf.dirty = false;
}

/// R2–R4 for one bin, in bin order. The core's slots are bucketed by task
/// in slot order — the same intervals (and order) the full verifier would
/// hand each of these tasks, since the locality guard guarantees they
/// appear on no other core.
fn bin_task_findings(tasks: &[PeriodicTask], segments: &[Segment], h: Nanos) -> Vec<Violation> {
    let ivs = TaskIntervals::of_cores(tasks, std::iter::once(segments));
    let mut found = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        found.extend(check_task(t, ivs.of(i), h));
    }
    found
}

/// Certifies one freshly built bin in isolation: what a one-core
/// [`RuleEngine`] answers after asserting `tasks` and `segments` on its
/// core 0, computed on the borrowed slices — no engine, no copies. This is
/// the delta planner's per-dirty-bin check.
///
/// # Errors
///
/// The [`RuleDecline`] that engine's `assert_bin` would raise (an id twice
/// in the bin, a slot naming a task outside it); the caller degrades to
/// [`verify_schedule`] exactly as [`verify_with_engine`] does.
pub fn verify_bin(
    tasks: &[PeriodicTask],
    segments: &[Segment],
    hyperperiod: Nanos,
) -> Result<Vec<Violation>, RuleDecline> {
    bin_is_local(&HashMap::new(), 0, tasks, segments)?;
    let mut found = core_geometry(0, segments, hyperperiod);
    found.extend(bin_task_findings(tasks, segments, hyperperiod));
    Ok(found)
}

/// Verifies through the rule engine with the single-pass verifier as the
/// always-available fallback, mirroring `verify_schedule_shared`:
///
/// * engine verdict `Ok` and empty — the table is certified incrementally;
/// * engine declined, or any violation found — re-derive with
///   [`verify_schedule`] so the returned list is the full verifier's,
///   byte for byte.
///
/// `tasks` and `schedule` are the fallback inputs; `tasks` must be the
/// core-major concatenation of the asserted bins for the orders to agree
/// (use [`RuleEngine::tasks_in_order`] when in doubt).
pub fn verify_with_engine(
    engine: &mut RuleEngine,
    tasks: &[PeriodicTask],
    schedule: &MultiCoreSchedule,
) -> Vec<Violation> {
    match engine.verdict() {
        Ok(v) if v.is_empty() => v,
        _ => verify_schedule(tasks, schedule),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::CoreSchedule;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn imp(id: u32, c: u64, t: u64) -> PeriodicTask {
        PeriodicTask::implicit(TaskId(id), ms(c), ms(t))
    }

    fn seg(s: u64, e: u64, t: u32) -> Segment {
        Segment::new(ms(s), ms(e), TaskId(t))
    }

    fn sched(h: u64, cores: Vec<Vec<Segment>>) -> MultiCoreSchedule {
        MultiCoreSchedule {
            hyperperiod: ms(h),
            cores: cores
                .into_iter()
                .map(|v| CoreSchedule::from_segments(v).unwrap())
                .collect(),
        }
    }

    /// Two-core valid fixture: bins [(0,1)], [(2,3)].
    fn fixture() -> (Vec<Vec<PeriodicTask>>, MultiCoreSchedule) {
        let bins = vec![
            vec![imp(0, 2, 10), imp(1, 5, 10)],
            vec![imp(2, 2, 10), imp(3, 5, 10)],
        ];
        let s = sched(
            10,
            vec![
                vec![seg(0, 2, 0), seg(2, 7, 1)],
                vec![seg(0, 2, 2), seg(3, 8, 3)],
            ],
        );
        (bins, s)
    }

    #[test]
    fn verdict_matches_full_verifier_on_valid_schedule() {
        let (bins, s) = fixture();
        let mut engine = RuleEngine::from_bins(s.hyperperiod, &bins, &s);
        let tasks = engine.tasks_in_order();
        assert_eq!(engine.verdict().unwrap(), verify_schedule(&tasks, &s));
        assert!(engine.verdict().unwrap().is_empty());
    }

    #[test]
    fn verdict_matches_full_verifier_on_violations() {
        // Core 1 underserves task 2 and drops task 3 entirely.
        let bins = vec![
            vec![imp(0, 2, 10), imp(1, 5, 10)],
            vec![imp(2, 2, 10), imp(3, 5, 10)],
        ];
        let s = sched(
            10,
            vec![vec![seg(0, 2, 0), seg(2, 7, 1)], vec![seg(0, 1, 2)]],
        );
        let mut engine = RuleEngine::from_bins(s.hyperperiod, &bins, &s);
        let tasks = engine.tasks_in_order();
        let verdict = engine.verdict().unwrap();
        assert_eq!(verdict, verify_schedule(&tasks, &s));
        assert!(verdict
            .iter()
            .any(|v| matches!(v, Violation::WrongService { task, .. } if *task == TaskId(2))));
        assert!(verdict.contains(&Violation::MissingTask(TaskId(3))));
    }

    #[test]
    fn delta_reassertion_updates_only_the_dirty_core() {
        let (bins, s) = fixture();
        let mut engine = RuleEngine::from_bins(s.hyperperiod, &bins, &s);
        assert!(engine.verdict().unwrap().is_empty());

        // Shrink core 1's second slot: task 3 now underserved.
        engine
            .apply_delta(
                1,
                vec![imp(2, 2, 10), imp(3, 5, 10)],
                vec![seg(0, 2, 2), seg(3, 7, 3)],
            )
            .unwrap();
        let tasks = engine.tasks_in_order();
        let verdict = engine.verdict().unwrap();
        let full = verify_schedule(
            &tasks,
            &sched(
                10,
                vec![
                    vec![seg(0, 2, 0), seg(2, 7, 1)],
                    vec![seg(0, 2, 2), seg(3, 7, 3)],
                ],
            ),
        );
        assert_eq!(verdict, full);
        assert!(!verdict.is_empty());

        // Re-assert the valid bin: clean verdict again.
        engine
            .apply_delta(
                1,
                vec![imp(2, 2, 10), imp(3, 5, 10)],
                vec![seg(0, 2, 2), seg(3, 8, 3)],
            )
            .unwrap();
        assert!(engine.verdict().unwrap().is_empty());
    }

    #[test]
    fn duplicate_task_declines() {
        let (bins, s) = fixture();
        let mut engine = RuleEngine::from_bins(s.hyperperiod, &bins, &s);
        let err = engine
            .assert_bin(0, vec![imp(2, 2, 10)], vec![])
            .unwrap_err();
        assert_eq!(err, RuleDecline::DuplicateTask(TaskId(2)));
        assert!(engine.verdict().is_err());
    }

    #[test]
    fn foreign_slot_declines_and_fallback_still_verifies() {
        // Core 1's slots reference task 0, homed on core 0 — the factoring
        // breaks, the engine declines, and the wrapper degrades to the full
        // verifier (which flags the parallel execution).
        let bins = vec![vec![imp(0, 4, 10)], vec![imp(1, 5, 10)]];
        let s = sched(
            10,
            vec![vec![seg(0, 4, 0)], vec![seg(2, 6, 0), seg(6, 10, 1)]],
        );
        let mut engine = RuleEngine::new(s.hyperperiod, 2);
        engine
            .assert_bin(0, bins[0].clone(), s.cores[0].segments().to_vec())
            .unwrap();
        let err = engine
            .assert_bin(1, bins[1].clone(), s.cores[1].segments().to_vec())
            .unwrap_err();
        assert!(matches!(err, RuleDecline::CrossCore { task, .. } if task == TaskId(0)));

        let tasks: Vec<PeriodicTask> = bins.into_iter().flatten().collect();
        let out = verify_with_engine(&mut engine, &tasks, &s);
        assert_eq!(out, verify_schedule(&tasks, &s));
        assert!(
            !out.is_empty(),
            "fallback must catch what the engine cannot"
        );
    }

    #[test]
    fn stamped_sharing_declines() {
        let (bins, s) = fixture();
        let mut engine = RuleEngine::from_bins(s.hyperperiod, &bins, &s);
        let mut sharing = CoreSharing::none(2);
        sharing.set(
            1,
            crate::signature::Stamp {
                rep: 0,
                map: vec![(TaskId(0), TaskId(2)), (TaskId(1), TaskId(3))],
            },
        );
        engine.observe_sharing(&sharing);
        assert_eq!(engine.verdict().unwrap_err(), RuleDecline::Stamped);
    }

    #[test]
    fn verify_bin_answers_what_a_fresh_one_core_engine_would() {
        let h = ms(10);
        let bin = vec![imp(0, 2, 10), imp(1, 5, 10)];
        let cases: Vec<(Vec<PeriodicTask>, Vec<Segment>)> = vec![
            // Valid.
            (bin.clone(), vec![seg(0, 2, 0), seg(2, 7, 1)]),
            // Underserved, and a task with no slot at all.
            (bin.clone(), vec![seg(0, 1, 0)]),
            // Slots out of order, one running past the table end.
            (bin.clone(), vec![seg(2, 7, 1), seg(0, 12, 0), seg(8, 9, 0)]),
            // An id twice in the bin: declined, not judged.
            (vec![imp(0, 2, 10), imp(0, 2, 10)], vec![seg(0, 2, 0)]),
            // A slot naming a task outside the bin: declined.
            (bin.clone(), vec![seg(0, 2, 0), seg(2, 7, 9)]),
            // The empty bin of an idle core.
            (Vec::new(), Vec::new()),
        ];
        let mut verdicts = 0;
        for (tasks, segments) in cases {
            let mut engine = RuleEngine::new(h, 1);
            let want = engine
                .assert_bin(0, tasks.clone(), segments.clone())
                .and_then(|()| engine.verdict());
            assert_eq!(
                verify_bin(&tasks, &segments, h),
                want,
                "{tasks:?} {segments:?}"
            );
            verdicts += usize::from(want.is_ok());
        }
        assert_eq!(verdicts, 4, "four bins judged, two declined");
    }

    #[test]
    fn unknown_slot_task_declines() {
        let mut engine = RuleEngine::new(ms(10), 1);
        let err = engine
            .assert_bin(0, vec![imp(0, 2, 10)], vec![seg(0, 2, 9)])
            .unwrap_err();
        assert!(matches!(err, RuleDecline::UnknownTask { task, .. } if task == TaskId(9)));
    }
}
