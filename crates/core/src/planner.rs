//! The Tableau planner: from vCPU SLAs to a verified dispatch table
//! (Sec. 5 of the paper).
//!
//! The planner runs outside the dispatcher's hot path — in the paper it is
//! a userspace daemon in dom0, invoked only on VM creation, teardown, or
//! reconfiguration. Its pipeline:
//!
//! 1. **Dedicated cores** — vCPUs with `U = 1` each get a whole physical
//!    core and are excluded from packing.
//! 2. **SLA → periodic task** — each remaining vCPU `(U, L)` becomes a task
//!    `(C, T)`: the worst-case blackout of a periodic task is
//!    `2 * (1 - U) * T`, so the planner picks the **largest** hyperperiod
//!    divisor `T` with `2 * (1 - U) * T <= L` (maximizing the period
//!    minimizes preemptions), and `C = ceil(U * T)` (rounding in the
//!    tenant's favor).
//! 3. **Table generation** — the three-stage `rtsched` generator
//!    (partitioned EDF → C=D splitting → clustered DP-Fair).
//! 4. **Post-processing** — coalescing of un-enforceable slivers, then
//!    slice-table construction (inside [`Table::new`]).
//!
//! With the paper's running configuration — `U = 25%`, `L = 20 ms` — step 2
//! picks `T = H/8 = 12,837,825 ns` (~13 ms) and `C ≈ 3.21 ms`, matching the
//! parameters reported in Sec. 7.2.
//!
//! **Single-threaded.** Every stage is a plain loop over cores or vCPUs.
//! A warm plan costs tens of microseconds and a cold 176-VM plan a few
//! milliseconds, so sharding its per-core stages over threads cost more
//! than the stages themselves (DESIGN.md, "Why the planner and the fleet
//! step are single-threaded"); the [`Plan`] is a function of the request
//! alone.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use rtsched::generator::{generate_schedule_instrumented, GenError, GenOptions, Stage};
use rtsched::hyperperiod::PeriodCandidates;
use rtsched::signature::CoreSharing;
use rtsched::task::{PeriodicTask, TaskId};
use rtsched::time::Nanos;

use crate::postprocess::{coalesce_with, CoalesceReport, DEFAULT_THRESHOLD};
use crate::table::{Allocation, Table};
use crate::vcpu::{HostConfig, VcpuId, VcpuSpec};

/// Planner tunables.
#[derive(Debug, Clone)]
pub struct PlannerOptions {
    /// Candidate periods (divisors of the hyperperiod above the
    /// enforceability threshold).
    pub candidates: PeriodCandidates,
    /// Allocations shorter than this are coalesced away.
    pub coalesce_threshold: Nanos,
    /// Options forwarded to the schedule generator.
    pub gen: GenOptions,
    /// Run the verified peephole preemption-reduction pass after
    /// generation (the paper's Sec. 5 future-work optimization; off by
    /// default to match the paper's baseline planner).
    pub peephole: bool,
}

impl Default for PlannerOptions {
    fn default() -> PlannerOptions {
        PlannerOptions {
            candidates: PeriodCandidates::standard(),
            coalesce_threshold: DEFAULT_THRESHOLD,
            gen: GenOptions::default(),
            peephole: false,
        }
    }
}

/// The periodic-task parameters chosen for one vCPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VcpuParams {
    /// The vCPU.
    pub vcpu: VcpuId,
    /// Budget per period.
    pub cost: Nanos,
    /// Chosen period (a hyperperiod divisor), or the full table for a
    /// dedicated core.
    pub period: Nanos,
    /// `true` if the vCPU received a dedicated physical core.
    pub dedicated: bool,
    /// `true` if the vCPU is capped (no second-level participation).
    pub capped: bool,
}

/// A complete plan: the dispatch table plus everything the hypervisor-side
/// needs to enact it.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The generated dispatch table (one hyperperiod).
    pub table: Table,
    /// Which generation stage succeeded.
    pub stage: Stage,
    /// Per-vCPU task parameters in vCPU-id order.
    pub params: Vec<VcpuParams>,
    /// vCPUs with allocations on more than one core.
    pub split_vcpus: Vec<VcpuId>,
    /// What coalescing removed.
    pub coalesce: CoalesceReport,
    /// Observed worst-case service gap per vCPU in the final table
    /// (cyclic), for validation against each vCPU's latency goal.
    pub worst_blackout: Vec<(VcpuId, Nanos)>,
    /// Stage-1 packing record: the vCPUs of each *shared* core, in bin
    /// order. Populated only for plain-partitioned, peephole-free plans —
    /// the precondition for delta replanning ([`crate::delta`]); empty
    /// otherwise, which sends the next replan down the ladder instead.
    pub core_bins: Vec<Vec<VcpuId>>,
    /// Per-core coalescing reports (shared cores then dedicated cores, in
    /// table-core order), kept so a delta replan can reproduce the
    /// aggregate [`Plan::coalesce`] for untouched cores. Empty whenever
    /// `core_bins` is empty.
    pub coalesce_by_core: Vec<CoalesceReport>,
}

/// Wall-clock breakdown of one planning run, by pipeline stage.
///
/// Side channel of [`plan_timed`]: [`Plan`] itself stays field-identical
/// across engines and runs so plans can be compared structurally.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanTimings {
    /// Admission checks, SLA translation, partitioning, splitting, cluster
    /// packing.
    pub pack: Duration,
    /// EDF simulation and DP-Fair generation.
    pub simulate: Duration,
    /// Coalescing (including the optional peephole pass).
    pub coalesce: Duration,
    /// Schedule verification, split detection, and blackout validation.
    pub verify: Duration,
    /// Slice-table construction.
    pub slice_build: Duration,
    /// End-to-end planning time (≥ the sum of the buckets).
    pub total: Duration,
}

impl Plan {
    /// The chosen parameters for `vcpu`, if it exists in the plan.
    pub fn params_of(&self, vcpu: VcpuId) -> Option<&VcpuParams> {
        self.params.iter().find(|p| p.vcpu == vcpu)
    }

    /// The observed worst-case blackout of `vcpu` in the table.
    pub fn blackout_of(&self, vcpu: VcpuId) -> Option<Nanos> {
        self.worst_blackout
            .iter()
            .find(|(v, _)| *v == vcpu)
            .map(|&(_, b)| b)
    }
}

/// Why planning failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// More dedicated (`U = 1`) vCPUs than physical cores.
    TooManyDedicated {
        /// Number of vCPUs demanding a full core.
        dedicated: usize,
        /// Available physical cores.
        cores: usize,
    },
    /// Table generation failed (over-utilization or pathological input).
    Generation(GenError),
    /// Internal error constructing the table (generator and post-processing
    /// disagree); never expected, surfaced rather than panicking.
    Table(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::TooManyDedicated { dedicated, cores } => {
                write!(f, "{dedicated} dedicated vCPUs exceed {cores} cores")
            }
            PlanError::Generation(e) => write!(f, "table generation failed: {e}"),
            PlanError::Table(e) => write!(f, "table construction failed: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<GenError> for PlanError {
    fn from(e: GenError) -> PlanError {
        PlanError::Generation(e)
    }
}

/// Which rung of the replanning ladder produced a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanPath {
    /// Delta replanning: only the bins dirtied by the churn were
    /// re-simulated; everything else was spliced from the previous plan.
    Delta,
    /// Retired, never returned: the per-core incremental planner this rung
    /// named is deleted (DESIGN.md §5.12). The variant survives only because
    /// the end-to-end benchmark matches on this enum exhaustively; delete it
    /// with the benchmark-side follow-up (ROADMAP item 4).
    Incremental,
    /// Full from-scratch replan (no previous plan, or the delta rung
    /// declined).
    Full,
    /// Full replan under conservative default options after the requested
    /// options failed.
    FullConservative,
}

impl ReplanPath {
    /// Short label for diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            ReplanPath::Delta => "delta",
            ReplanPath::Incremental => "incremental",
            ReplanPath::Full => "full",
            ReplanPath::FullConservative => "full-conservative",
        }
    }
}

/// A successful replan, with provenance.
#[derive(Debug, Clone)]
pub struct ReplanOutcome {
    /// The plan to install.
    pub plan: Plan,
    /// Which ladder rung produced it.
    pub path: ReplanPath,
    /// The delta report, when the delta rung ran to completion.
    pub delta: Option<crate::delta::DeltaReport>,
    /// Errors from rungs that were tried and failed before this one.
    pub attempts: Vec<(ReplanPath, PlanError)>,
}

/// Every rung of the replanning ladder failed; the reconfiguration must be
/// rejected. Carries one error per attempted rung, newest last.
#[derive(Debug, Clone)]
pub struct ReplanError {
    /// `(rung, why it failed)`, in attempt order.
    pub attempts: Vec<(ReplanPath, PlanError)>,
}

impl std::fmt::Display for ReplanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replanning failed after {} attempt(s):",
            self.attempts.len()
        )?;
        for (path, err) in &self.attempts {
            write!(f, " [{}] {err};", path.label())?;
        }
        Ok(())
    }
}

impl std::error::Error for ReplanError {}

/// Plans `host` with graceful degradation: delta replanning first (patching
/// only the bins the churn dirtied — see [`crate::delta`]; only when a
/// previous plan is available), then a full replan under the requested
/// options, then — if the requested options were non-default — a full
/// replan under conservative defaults. Only when every rung fails is the
/// reconfiguration rejected, with the per-rung diagnostic trail.
///
/// Whichever rung answers, the plan equals [`plan`]`(host, opts)` (or
/// `plan(host, defaults)` on the conservative rung) field for field: a
/// table is a function of the request, never of the host's history, so
/// ladder output can be cached under the `(host, opts)` key.
///
/// A delta abort is *not* an error: the delta rung declines whenever the
/// previous plan used C=D splits or DP-Fair clusters, the host geometry
/// changed, or the bin metadata is missing — those are exactly the cases the
/// full rung exists for, so the abort falls through silently and does not
/// appear in `attempts`.
///
/// This is the planner's fault-tolerance ladder: a planner daemon facing a
/// pathological reconfiguration (or a table push that was rolled back
/// mid-switch) degrades to a slower but safer planning mode instead of
/// leaving the host on a stale table with no explanation.
///
/// # Errors
///
/// [`ReplanError`] with one [`PlanError`] per attempted rung; the host's
/// running table is untouched by any failed attempt.
pub fn plan_with_fallback(
    prev: Option<(&HostConfig, &Plan)>,
    host: &HostConfig,
    opts: &PlannerOptions,
) -> Result<ReplanOutcome, ReplanError> {
    let mut attempts: Vec<(ReplanPath, PlanError)> = Vec::new();

    if let Some((prev_host, prev_plan)) = prev {
        // Rung 0: delta. Inapplicability (split/clustered history, changed
        // geometry, missing bin metadata) is benign — fall through silently.
        if let Ok((plan, report)) = crate::delta::plan_delta(prev_host, prev_plan, host, opts) {
            return Ok(ReplanOutcome {
                plan,
                path: ReplanPath::Delta,
                delta: Some(report),
                attempts,
            });
        }
    }

    match plan(host, opts) {
        Ok(plan) => {
            return Ok(ReplanOutcome {
                plan,
                path: ReplanPath::Full,
                delta: None,
                attempts,
            })
        }
        Err(e) => attempts.push((ReplanPath::Full, e)),
    }

    // Conservative rescue: only meaningful when the requested options could
    // have caused the failure (aggressive coalescing inflates minimum
    // budgets; the peephole pass is optional by design).
    let defaults = PlannerOptions::default();
    let non_default = opts.peephole || opts.coalesce_threshold != defaults.coalesce_threshold;
    if non_default {
        match plan(host, &defaults) {
            Ok(plan) => {
                return Ok(ReplanOutcome {
                    plan,
                    path: ReplanPath::FullConservative,
                    delta: None,
                    attempts,
                })
            }
            Err(e) => attempts.push((ReplanPath::FullConservative, e)),
        }
    }

    Err(ReplanError { attempts })
}

/// Chooses a period for a vCPU SLA: the largest candidate `T` such that the
/// worst-case blackout `2 * (1 - U) * T` stays within the latency goal `L`.
///
/// If even the smallest candidate exceeds the goal (an extremely tight
/// latency goal), the smallest candidate is used best-effort — the bound is
/// then as small as the platform can enforce, consistent with the paper's
/// treatment of `L` as an upper bound the tenant may beat.
pub fn period_for(spec: &VcpuSpec, candidates: &PeriodCandidates) -> Nanos {
    let ppm = spec.utilization.ppm() as u128;
    debug_assert!(ppm < 1_000_000, "dedicated vCPUs have no period");
    // 2 * (1 - U) * T <= L  <=>  T <= L * 1e6 / (2 * (1e6 - ppm)).
    let bound = (spec.latency.as_nanos() as u128 * 1_000_000) / (2 * (1_000_000 - ppm));
    let bound = Nanos(bound.min(u64::MAX as u128) as u64);
    candidates
        .largest_at_most(bound)
        .unwrap_or_else(|| candidates.smallest())
}

/// Generates a plan for `host`.
///
/// # Errors
///
/// See [`PlanError`]; over-utilized configurations are rejected, matching
/// the paper's admission rule.
///
/// # Examples
///
/// ```
/// use rtsched::time::Nanos;
/// use tableau_core::planner::{plan, PlannerOptions};
/// use tableau_core::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};
///
/// // The paper's evaluation setup: 4 single-vCPU VMs per core, 25% each.
/// let mut host = HostConfig::new(4);
/// let spec = VcpuSpec::new(Utilization::from_percent(25), Nanos::from_millis(20));
/// for i in 0..16 {
///     host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
/// }
/// let plan = plan(&host, &PlannerOptions::default()).unwrap();
/// assert_eq!(plan.table.n_cores(), 4);
/// // Every vCPU's observed blackout respects its 20 ms latency goal.
/// for (_, blackout) in &plan.worst_blackout {
///     assert!(*blackout <= Nanos::from_millis(20));
/// }
/// ```
pub fn plan(host: &HostConfig, opts: &PlannerOptions) -> Result<Plan, PlanError> {
    plan_timed(host, opts).map(|(p, _)| p)
}

/// SLA-translation output (planner stages 0 and 1), shared between the full
/// pipeline and the delta planner so both derive tasks, preferences, and
/// parameters identically.
pub(crate) struct Translation {
    /// All vCPUs of the host, in id order.
    pub vcpus: Vec<(VcpuId, VcpuSpec)>,
    /// vCPUs that received dedicated cores, in id order.
    pub dedicated: Vec<VcpuId>,
    /// Cores available to the packing stages.
    pub shared_cores: usize,
    /// One implicit-deadline task per shared vCPU.
    pub tasks: Vec<PeriodicTask>,
    /// Soft NUMA preferences, aligned with `tasks` by position.
    pub prefs: Vec<Vec<usize>>,
    /// Chosen per-vCPU parameters, in vCPU-id order.
    pub params: Vec<VcpuParams>,
}

/// Planner stages 0 and 1: dedicated-core selection and SLA → `(C, T)`
/// translation.
pub(crate) fn translate(
    host: &HostConfig,
    opts: &PlannerOptions,
) -> Result<Translation, PlanError> {
    let hyperperiod = opts.candidates.hyperperiod();
    let vcpus = host.vcpus();

    // Stage 0: dedicated cores for U = 1 vCPUs, allocated from the highest
    // core ids downward so the generator can use a dense 0..k range.
    let dedicated: Vec<VcpuId> = vcpus
        .iter()
        .filter(|(_, s)| s.utilization.is_full_core())
        .map(|&(v, _)| v)
        .collect();
    if dedicated.len() > host.n_cores {
        return Err(PlanError::TooManyDedicated {
            dedicated: dedicated.len(),
            cores: host.n_cores,
        });
    }
    let shared_cores = host.n_cores - dedicated.len();

    // Stage 1: SLA -> periodic task. Budgets shorter than twice the
    // coalescing threshold are rounded up so the guarantee survives
    // post-processing (providers sell a minimum granularity anyway).
    let min_budget = opts.coalesce_threshold * 2;
    let mut tasks: Vec<PeriodicTask> = Vec::new();
    // Soft NUMA preferences, aligned with `tasks` by position: the cores of
    // the owning VM's node, restricted to the shared-core range.
    let mut prefs: Vec<Vec<usize>> = Vec::new();
    let mut params: Vec<VcpuParams> = Vec::new();
    for &(vcpu, spec) in &vcpus {
        if spec.utilization.is_full_core() {
            params.push(VcpuParams {
                vcpu,
                cost: hyperperiod,
                period: hyperperiod,
                dedicated: true,
                capped: spec.capped,
            });
            continue;
        }
        let period = period_for(&spec, &opts.candidates);
        // Rounding the (floor-rounded) budget up to twice the coalescing
        // threshold can over-commit only configurations that reserve less
        // than ~0.03% per vCPU — rejected as over-utilized, which is fine.
        let cost = spec
            .utilization
            .budget_in(period)
            .max(min_budget)
            .min(period);
        tasks.push(PeriodicTask::implicit(TaskId(vcpu.0), cost, period));
        prefs.push(
            host.vm_of(vcpu)
                .and_then(|vm| host.vms[vm].numa_node)
                .map(|node| {
                    host.cores_of_node(node)
                        .into_iter()
                        .filter(|&c| c < shared_cores)
                        .collect()
                })
                .unwrap_or_default(),
        );
        params.push(VcpuParams {
            vcpu,
            cost,
            period,
            dedicated: false,
            capped: spec.capped,
        });
    }
    Ok(Translation {
        vcpus,
        dedicated,
        shared_cores,
        tasks,
        prefs,
        params,
    })
}

/// Like [`plan`], additionally returning the per-stage wall-clock breakdown.
///
/// The timings are a pure side channel: the returned [`Plan`] is the one
/// [`plan`] would produce.
pub fn plan_timed(
    host: &HostConfig,
    opts: &PlannerOptions,
) -> Result<(Plan, PlanTimings), PlanError> {
    let t_total = Instant::now();
    let mut timings = PlanTimings::default();
    let t0 = Instant::now();
    let hyperperiod = opts.candidates.hyperperiod();
    let Translation {
        vcpus,
        dedicated,
        shared_cores,
        tasks,
        prefs,
        params,
    } = translate(host, opts)?;

    timings.pack += t0.elapsed();

    // Stage 2: three-stage table generation (admission happens inside).
    let outcome =
        generate_schedule_instrumented(&tasks, shared_cores, hyperperiod, &opts.gen, &prefs)?;
    let mut generated = outcome.generated;
    let mut sharing = outcome.sharing;
    let gen_core_bins = outcome.core_bins;
    timings.pack += outcome.timings.pack;
    timings.simulate += outcome.timings.simulate;
    timings.verify += outcome.timings.verify;

    let t0 = Instant::now();
    // Optional peephole pass: merge needlessly sliced allocations where the
    // verifier confirms every guarantee survives. It mutates schedules in
    // place, so any sharing record is stale afterwards and is dropped.
    if opts.peephole {
        rtsched::peephole::peephole(&tasks, &mut generated.schedule);
        sharing = CoreSharing::none(shared_cores);
    }

    // Stage 3: post-processing — translate segments to allocations and
    // coalesce per core. Split vCPUs must never be *extended* by a
    // donation: their pieces on other cores begin exactly where a piece
    // ends, and growing one would schedule the vCPU on two cores at once.
    // Coalescing is core-local; stamped cores (identical schedules modulo
    // vCPU ids) reuse their representative's result under the id
    // substitution — coalescing decisions depend only on interval geometry
    // and the may-extend predicate, both of which the stamp preserves
    // (stamped cores carry only whole, unsplit vCPUs).
    let split: Vec<VcpuId> = generated.split_tasks.iter().map(|t| VcpuId(t.0)).collect();
    let coalesce_core = |core: usize| -> (Vec<Allocation>, CoalesceReport) {
        let mut allocs: Vec<Allocation> = generated.schedule.cores[core]
            .segments()
            .iter()
            .map(|s| Allocation {
                start: s.start,
                end: s.end,
                vcpu: VcpuId(s.task.0),
            })
            .collect();
        let report = coalesce_with(&mut allocs, opts.coalesce_threshold, |v| {
            !split.contains(&v)
        });
        (allocs, report)
    };
    let mut coalesced: Vec<(Vec<Allocation>, CoalesceReport)> = Vec::with_capacity(shared_cores);
    // `table_stamps[core] = Some(rep)` once the remap checked out, so the
    // slice-table build below can reuse the representative's CpuTable too.
    let mut table_stamps: Vec<Option<usize>> = vec![None; host.n_cores];
    for (core, table_stamp) in table_stamps.iter_mut().enumerate().take(shared_cores) {
        let Some(stamp) = sharing.stamp_of(core) else {
            coalesced.push(coalesce_core(core));
            continue;
        };
        let remapped = (stamp.rep < core).then(|| &coalesced[stamp.rep]).and_then(
            |(rep_allocs, rep_report)| {
                // One pair per task of the bin — a handful: the id
                // substitution is a scan of the pairs, not a map.
                let subst = |v: VcpuId| {
                    let (_, to) = stamp.map.iter().find(|(rep_id, _)| rep_id.0 == v.0)?;
                    Some(VcpuId(to.0))
                };
                let allocs: Vec<Allocation> = rep_allocs
                    .iter()
                    .map(|a| {
                        Some(Allocation {
                            vcpu: subst(a.vcpu)?,
                            ..*a
                        })
                    })
                    .collect::<Option<_>>()?;
                let report = rep_report.relabel(subst)?;
                Some((allocs, report))
            },
        );
        match remapped {
            Some(done) => {
                *table_stamp = Some(stamp.rep);
                coalesced.push(done);
            }
            // Inconsistent stamp (never expected): coalesce directly.
            None => coalesced.push(coalesce_core(core)),
        }
    }
    let mut per_core: Vec<Vec<Allocation>> = Vec::with_capacity(host.n_cores);
    let mut coalesce_report = CoalesceReport::default();
    let mut coalesce_by_core: Vec<CoalesceReport> = Vec::with_capacity(host.n_cores);
    for (allocs, report) in coalesced {
        coalesce_report.absorb(report.clone());
        coalesce_by_core.push(report);
        per_core.push(allocs);
    }
    // Dedicated cores: one wall-to-wall allocation each.
    for &vcpu in &dedicated {
        per_core.push(vec![Allocation {
            start: Nanos::ZERO,
            end: hyperperiod,
            vcpu,
        }]);
        coalesce_by_core.push(CoalesceReport::default());
    }
    timings.coalesce += t0.elapsed();

    let t0 = Instant::now();
    let table =
        Table::new_with_stamps(hyperperiod, per_core, &table_stamps).map_err(PlanError::Table)?;
    timings.slice_build += t0.elapsed();

    let t0 = Instant::now();
    // Observed worst-case blackout per vCPU, for latency-goal validation:
    // one pass over each core's allocations answers every vCPU.
    let blackouts = table.max_blackouts(0..host.n_cores);
    let blackout_of = |v: VcpuId| blackouts.get(v.0 as usize).copied();
    let worst_blackout: Vec<(VcpuId, Nanos)> = vcpus
        .iter()
        .map(|&(vcpu, _)| (vcpu, blackout_of(vcpu).unwrap_or(hyperperiod)))
        .collect();
    timings.verify += t0.elapsed();
    timings.total = t_total.elapsed();

    // Delta-replanning metadata: the stage-1 packing record, translated to
    // vCPU ids, plus the per-core coalescing reports. Only plain-partitioned
    // peephole-free plans qualify (the peephole pass rewrites allocations
    // out from under the per-bin bookkeeping).
    let core_bins: Vec<Vec<VcpuId>> = if opts.peephole || generated.stage != Stage::Partitioned {
        Vec::new()
    } else {
        gen_core_bins
            .into_iter()
            .map(|bin| bin.into_iter().map(|t| VcpuId(t.0)).collect())
            .collect()
    };
    let coalesce_by_core = if core_bins.is_empty() {
        Vec::new()
    } else {
        coalesce_by_core
    };

    Ok((
        Plan {
            table,
            stage: generated.stage,
            params,
            split_vcpus: generated.split_tasks.iter().map(|t| VcpuId(t.0)).collect(),
            coalesce: coalesce_report,
            worst_blackout,
            core_bins,
            coalesce_by_core,
        },
        timings,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcpu::{Utilization, VmSpec};

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn paper_spec() -> VcpuSpec {
        VcpuSpec::new(Utilization::from_percent(25), ms(20))
    }

    fn dense_host(cores: usize, vms_per_core: usize, spec: VcpuSpec) -> HostConfig {
        let mut host = HostConfig::new(cores);
        for i in 0..cores * vms_per_core {
            host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
        }
        host
    }

    #[test]
    fn paper_parameters_reproduced() {
        // Sec. 7.2: U = 25%, L = 20 ms "results in the planner picking a
        // period of roughly 13 ms with a budget of about 3.2 ms".
        let period = period_for(&paper_spec(), &PeriodCandidates::standard());
        assert_eq!(period, Nanos(12_837_825)); // H / 8
        let cost = Utilization::from_percent(25).budget_in(period);
        assert_eq!(cost, Nanos(3_209_456)); // floor(T / 4)
    }

    #[test]
    fn blackout_respects_latency_goal() {
        let host = dense_host(4, 4, paper_spec());
        let p = plan(&host, &PlannerOptions::default()).unwrap();
        for (v, b) in &p.worst_blackout {
            assert!(*b <= ms(20), "vCPU {v} blackout {b} exceeds goal");
        }
    }

    #[test]
    fn tight_latency_goals_get_small_periods() {
        let spec = VcpuSpec::new(Utilization::from_percent(25), ms(1));
        let period = period_for(&spec, &PeriodCandidates::standard());
        // T <= 1 ms / 1.5 = 666 us.
        assert!(period <= Nanos::from_micros(667));
        assert!(period >= Nanos::from_micros(100));
    }

    #[test]
    fn impossible_latency_goal_falls_back_to_smallest_candidate() {
        let spec = VcpuSpec::new(Utilization::from_percent(25), Nanos::from_micros(10));
        let period = period_for(&spec, &PeriodCandidates::standard());
        assert_eq!(period, PeriodCandidates::standard().smallest());
    }

    #[test]
    fn dedicated_vcpus_get_whole_cores() {
        let mut host = HostConfig::new(2);
        host.add_vm(VmSpec::uniform(
            "dedicated",
            1,
            VcpuSpec::new(Utilization::FULL, ms(100)),
        ));
        host.add_vm(VmSpec::uniform("shared", 1, paper_spec()));
        let p = plan(&host, &PlannerOptions::default()).unwrap();
        let dp = p.params_of(VcpuId(0)).unwrap();
        assert!(dp.dedicated);
        // The dedicated vCPU has zero blackout.
        assert_eq!(p.blackout_of(VcpuId(0)), Some(Nanos::ZERO));
    }

    #[test]
    fn too_many_dedicated_rejected() {
        let mut host = HostConfig::new(1);
        let d = VcpuSpec::new(Utilization::FULL, ms(100));
        host.add_vm(VmSpec::uniform("a", 1, d));
        host.add_vm(VmSpec::uniform("b", 1, d));
        assert!(matches!(
            plan(&host, &PlannerOptions::default()),
            Err(PlanError::TooManyDedicated { .. })
        ));
    }

    #[test]
    fn over_utilization_rejected() {
        // 5 * 25% on one core.
        let host = dense_host(1, 5, paper_spec());
        assert!(matches!(
            plan(&host, &PlannerOptions::default()),
            Err(PlanError::Generation(GenError::OverUtilized { .. }))
        ));
    }

    #[test]
    fn sixteen_core_paper_setup_plans_quickly_and_correctly() {
        // 4 VMs per core on 12 guest cores (the Fig. 7 setup).
        let host = dense_host(12, 4, paper_spec());
        let p = plan(&host, &PlannerOptions::default()).unwrap();
        assert_eq!(p.stage, Stage::Partitioned);
        assert!(p.split_vcpus.is_empty());
        assert_eq!(p.table.n_cores(), 12);
        // Each vCPU is guaranteed its budget every period: check service
        // time in the table equals cost * (H / T).
        for params in &p.params {
            let placement = p.table.placement(params.vcpu).unwrap();
            let total: Nanos = placement.allocations().map(|(_, s, e)| e - s).sum();
            let periods = p.table.len() / params.period;
            assert_eq!(total, params.cost * periods);
        }
    }

    #[test]
    fn mixed_latency_goals_coexist() {
        let mut host = HostConfig::new(2);
        host.add_vm(VmSpec::uniform(
            "tight",
            1,
            VcpuSpec::new(Utilization::from_percent(25), ms(1)),
        ));
        host.add_vm(VmSpec::uniform(
            "loose",
            2,
            VcpuSpec::new(Utilization::from_percent(50), ms(100)),
        ));
        let p = plan(&host, &PlannerOptions::default()).unwrap();
        let tight = p.params_of(VcpuId(0)).unwrap();
        let loose = p.params_of(VcpuId(1)).unwrap();
        assert!(tight.period < loose.period);
        assert!(p.blackout_of(VcpuId(0)).unwrap() <= ms(1));
    }

    #[test]
    fn numa_pinning_places_vcpus_on_the_node() {
        // 4 cores on 2 nodes; two VMs pinned to node 1 must land on cores
        // {2, 3}.
        let mut host = HostConfig::with_numa(4, 2);
        for i in 0..2 {
            host.add_vm(VmSpec::uniform(format!("pinned{i}"), 1, paper_spec()).on_node(1));
        }
        host.add_vm(VmSpec::uniform("free", 1, paper_spec()));
        let p = plan(&host, &PlannerOptions::default()).unwrap();
        for v in 0..2u32 {
            let placement = p.table.placement(VcpuId(v)).unwrap();
            for (core, _, _) in placement.allocations() {
                assert!(
                    host.cores_of_node(1).contains(&core),
                    "{} landed off-node on core {core}",
                    VcpuId(v)
                );
            }
        }
    }

    #[test]
    fn numa_preference_is_soft_not_an_admission_constraint() {
        // Five 25% VMs all pinned to a one-core node: one must spill, and
        // the plan still succeeds with every guarantee intact.
        let mut host = HostConfig::with_numa(2, 2);
        for i in 0..5 {
            host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, paper_spec()).on_node(0));
        }
        let p = plan(&host, &PlannerOptions::default()).unwrap();
        for (v, b) in &p.worst_blackout {
            assert!(*b <= ms(20), "{v}: {b}");
        }
        // Node 0 (core 0) holds at most 4 of the 25% VMs.
        let on_core0 = (0..5u32)
            .filter(|&v| p.table.placement(VcpuId(v)).is_some_and(|pl| pl.only_on(0)))
            .count();
        assert_eq!(on_core0, 4);
    }

    #[test]
    fn capped_flag_propagates() {
        let mut host = HostConfig::new(1);
        host.add_vm(VmSpec::uniform(
            "c",
            1,
            VcpuSpec::capped(Utilization::from_percent(25), ms(20)),
        ));
        let p = plan(&host, &PlannerOptions::default()).unwrap();
        assert!(p.params_of(VcpuId(0)).unwrap().capped);
    }

    #[test]
    fn peephole_never_fragments_and_keeps_guarantees() {
        // A mixed-period host whose EDF tables contain sliced allocations.
        let mut host = HostConfig::new(2);
        host.add_vm(VmSpec::uniform(
            "fast",
            2,
            VcpuSpec::capped(Utilization::from_percent(20), ms(3)),
        ));
        host.add_vm(VmSpec::uniform(
            "slow",
            2,
            VcpuSpec::capped(Utilization::from_percent(55), ms(80)),
        ));
        let plain = plan(&host, &PlannerOptions::default()).unwrap();
        let opt = plan(
            &host,
            &PlannerOptions {
                peephole: true,
                ..PlannerOptions::default()
            },
        )
        .unwrap();
        let count = |p: &Plan| -> usize {
            (0..p.table.n_cores())
                .map(|c| p.table.cpu(c).n_allocations())
                .sum()
        };
        assert!(
            count(&opt) <= count(&plain),
            "peephole fragmented the table"
        );
        for (vcpu, spec) in host.vcpus() {
            assert!(opt.blackout_of(vcpu).unwrap() <= spec.latency);
        }
    }

    #[test]
    fn fallback_ladder_uses_delta_when_possible() {
        let opts = PlannerOptions::default();
        let mut prev_host = HostConfig::new(4);
        for i in 0..12 {
            prev_host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, paper_spec()));
        }
        let prev = plan(&prev_host, &opts).unwrap();
        let mut host = prev_host.clone();
        host.add_vm(VmSpec::uniform("newcomer", 1, paper_spec()));

        let out = plan_with_fallback(Some((&prev_host, &prev)), &host, &opts).unwrap();
        assert_eq!(out.path, ReplanPath::Delta);
        assert!(out.attempts.is_empty());
        assert!(!out.delta.as_ref().unwrap().clean_cores.is_empty());
        // The delta-produced plan is exactly what a full replan would build.
        assert_eq!(out.plan, plan(&host, &opts).unwrap());
    }

    #[test]
    fn fallback_ladder_plans_fully_when_delta_declines() {
        let opts = PlannerOptions::default();
        let mut prev_host = HostConfig::new(4);
        for i in 0..12 {
            prev_host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, paper_spec()));
        }
        let mut prev = plan(&prev_host, &opts).unwrap();
        // Strip the bin metadata: the delta rung must decline, silently,
        // and the full rung answer with bin metadata the next delta can use.
        prev.core_bins.clear();
        prev.coalesce_by_core.clear();
        let mut host = prev_host.clone();
        host.add_vm(VmSpec::uniform("newcomer", 1, paper_spec()));

        let out = plan_with_fallback(Some((&prev_host, &prev)), &host, &opts).unwrap();
        assert_eq!(out.path, ReplanPath::Full);
        assert!(out.attempts.is_empty() && out.delta.is_none());
        assert_eq!(out.plan, plan(&host, &opts).unwrap());
        assert!(!out.plan.core_bins.is_empty());
    }

    #[test]
    fn fallback_ladder_without_history_plans_fully() {
        let host = dense_host(2, 4, paper_spec());
        let out = plan_with_fallback(None, &host, &PlannerOptions::default()).unwrap();
        assert_eq!(out.path, ReplanPath::Full);
        assert!(out.delta.is_none());
    }

    #[test]
    fn fallback_ladder_rescues_bad_options_with_defaults() {
        // A 50 ms coalescing threshold inflates every budget to a full
        // period (over-utilized); the conservative rung with default options
        // must rescue the reconfiguration.
        let host = dense_host(2, 4, paper_spec());
        let aggressive = PlannerOptions {
            coalesce_threshold: ms(50),
            ..PlannerOptions::default()
        };
        let out = plan_with_fallback(None, &host, &aggressive).unwrap();
        assert_eq!(out.path, ReplanPath::FullConservative);
        assert_eq!(out.attempts.len(), 1);
        assert!(matches!(out.attempts[0].0, ReplanPath::Full));
        for (v, b) in &out.plan.worst_blackout {
            assert!(*b <= ms(20), "{v}: {b}");
        }
    }

    #[test]
    fn fallback_ladder_rejects_with_full_diagnostic_trail() {
        // Over-utilized no matter the options: every rung fails, and the
        // error carries one diagnostic per rung on a single line.
        let prev_ok = dense_host(1, 4, paper_spec());
        let prev = plan(&prev_ok, &PlannerOptions::default()).unwrap();
        let host = dense_host(1, 5, paper_spec());
        let aggressive = PlannerOptions {
            coalesce_threshold: ms(50),
            ..PlannerOptions::default()
        };
        let err = plan_with_fallback(Some((&prev_ok, &prev)), &host, &aggressive).unwrap_err();
        assert_eq!(err.attempts.len(), 2, "{err}");
        let msg = err.to_string();
        assert!(!msg.contains('\n'), "multi-line diagnostic: {msg:?}");
        assert!(msg.contains("[full]"), "{msg}");
        assert!(msg.contains("full-conservative"), "{msg}");
    }

    #[test]
    fn tiny_budgets_rounded_up_to_survivable_size() {
        let mut host = HostConfig::new(1);
        host.add_vm(VmSpec::uniform(
            "tiny",
            1,
            VcpuSpec::new(Utilization::from_ppm(100), ms(100)),
        ));
        let p = plan(&host, &PlannerOptions::default()).unwrap();
        let params = p.params_of(VcpuId(0)).unwrap();
        assert!(params.cost >= DEFAULT_THRESHOLD * 2);
        // And the vCPU still has allocations after coalescing.
        assert!(p.table.placement(VcpuId(0)).is_some());
    }
}
