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
//! On a reconfiguration the host's previous plan can be offered as a
//! *donor* ([`plan_with_fallback`]): every core whose bin the packing
//! reproduces is taken from it instead of being simulated, verified,
//! coalesced and compiled again, and the plan is the one the pipeline
//! builds without it.
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
use rtsched::hyperperiod::{PeriodCandidates, STANDARD_HYPERPERIOD};
use rtsched::signature::CoreSharing;
use rtsched::task::{PeriodicTask, TaskId};
use rtsched::time::Nanos;

use crate::postprocess::{coalesce_with, CoalesceReport, DEFAULT_THRESHOLD};
use crate::table::{Allocation, Table};
use crate::vcpu::{HostConfig, VcpuId, VcpuSpec};

/// Planner tunables.
///
/// The period menu and the coalescing threshold are not among them: as in
/// the paper, every period divides [`STANDARD_HYPERPERIOD`] (the menu is
/// [`PeriodCandidates::standard`]) and slivers shorter than
/// [`DEFAULT_THRESHOLD`] are coalesced away.
#[derive(Debug, Clone, Default)]
pub struct PlannerOptions {
    /// Options forwarded to the schedule generator.
    pub gen: GenOptions,
    /// Run the verified peephole preemption-reduction pass after
    /// generation (the paper's Sec. 5 future-work optimization; off by
    /// default to match the paper's baseline planner).
    pub peephole: bool,
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
    /// What a later replan needs to take this plan as its donor (see
    /// [`plan_with_fallback`]). Recorded only for plain-partitioned,
    /// peephole-free plans; `None` otherwise, and such a plan never
    /// donates.
    pub bins: Option<BinRecord>,
}

/// The record a plan keeps so that the next replan of its host can reuse
/// its unchanged cores instead of simulating them again.
#[derive(Debug, Clone, PartialEq)]
pub struct BinRecord {
    /// Stage-1 packing: the vCPUs of each *shared* core, in bin order.
    pub core_bins: Vec<Vec<VcpuId>>,
    /// Per-core coalescing reports (shared cores then dedicated cores, in
    /// table-core order), so a donated core contributes its share of
    /// [`Plan::coalesce`] without coalescing again. A donated core is
    /// reused when its bin's `(cost, period)` sequence is unchanged: its
    /// EDF schedule and its coalescing are functions of that sequence (the
    /// table length and the threshold are constants).
    pub coalesce_by_core: Vec<CoalesceReport>,
}

/// What a replan from a donor reused and what it rebuilt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaReport {
    /// Shared cores whose bins were unchanged, taken from the donor
    /// (allocations, coalescing, compiled table, blackouts).
    pub clean_cores: Vec<usize>,
    /// Shared cores whose bins changed and were simulated again.
    pub dirty_cores: Vec<usize>,
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
    /// Delta replanning: the previous plan donated its unchanged cores and
    /// only the bins dirtied by the churn were simulated again.
    Delta,
    /// Retired, never returned: the per-core incremental planner this rung
    /// named is deleted (DESIGN.md §5.12). The variant survives only because
    /// the end-to-end benchmark matches on this enum exhaustively; delete it
    /// with the benchmark-side follow-up (ROADMAP item 1).
    Incremental,
    /// Full from-scratch replan (no previous plan, or the planner declined
    /// it as a donor).
    Full,
    /// Retired, never returned: the full replan under default options that
    /// followed a failed request is deleted (DESIGN.md §5.5; with the
    /// coalescing threshold fixed, a plan under the defaults fails exactly
    /// as any request it served did). The variant survives only because
    /// the end-to-end benchmark matches on this enum exhaustively; delete it
    /// with the benchmark-side follow-up (ROADMAP item 1).
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
    /// What the donor gave, when the plan came from one.
    pub delta: Option<DeltaReport>,
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

/// Plans `host` for a reconfiguration, taking the previous plan, when there
/// is one, as its *donor*. A failure rejects the reconfiguration with its
/// diagnostic.
///
/// The donor is the host's previous plan, as the planner made it (`prev`
/// pairs it with the configuration it was planned for; the plan's own
/// record is all the planner reads). The planner takes from it every core
/// whose bin is unchanged and simulates only the rest (single-VM churn
/// dirties one bin), reporting [`ReplanPath::Delta`]; it declines a donor
/// that is not plainly partitioned, has another core count or shared-core
/// count, or is offered to a peephole run, and then plans in full
/// ([`ReplanPath::Full`]). A declined donor is not an error and leaves no
/// entry in `attempts`.
///
/// Whichever path answers, the plan equals [`plan`]`(host, opts)` field for
/// field: a table is a function of the request, never of the host's
/// history, so the output can be cached under the `(host, opts)` key.
/// There is no second rung under default options: the one it had served
/// only requests with the peephole pass or another coalescing threshold,
/// the threshold is a constant now, and the peephole pass runs after
/// generation and cannot make a plan fail.
///
/// # Errors
///
/// [`ReplanError`] with one [`ReplanPath::Full`] attempt; the host's
/// running table is untouched by a failed attempt.
pub fn plan_with_fallback(
    prev: Option<(&HostConfig, &Plan)>,
    host: &HostConfig,
    opts: &PlannerOptions,
) -> Result<ReplanOutcome, ReplanError> {
    match pipeline(host, opts, prev.map(|(_, plan)| plan)) {
        Ok((plan, _, delta)) => Ok(ReplanOutcome {
            plan,
            path: match delta {
                Some(_) => ReplanPath::Delta,
                None => ReplanPath::Full,
            },
            delta,
            attempts: Vec::new(),
        }),
        Err(e) => Err(ReplanError {
            attempts: vec![(ReplanPath::Full, e)],
        }),
    }
}

/// Chooses a period for a vCPU SLA: the largest standard candidate `T`
/// ([`PeriodCandidates::standard`]) such that the worst-case blackout
/// `2 * (1 - U) * T` stays within the latency goal `L`.
///
/// If even the smallest candidate exceeds the goal (an extremely tight
/// latency goal), the smallest candidate is used best-effort — the bound is
/// then as small as the platform can enforce, consistent with the paper's
/// treatment of `L` as an upper bound the tenant may beat.
pub fn period_for(spec: &VcpuSpec) -> Nanos {
    let candidates = PeriodCandidates::standard();
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

/// SLA-translation output (planner stages 0 and 1).
struct Translation {
    /// All vCPUs of the host, in id order.
    pub vcpus: Vec<(VcpuId, VcpuSpec)>,
    /// vCPUs that received dedicated cores, in id order.
    pub dedicated: Vec<VcpuId>,
    /// Cores available to the packing stages.
    pub shared_cores: usize,
    /// One implicit-deadline task per shared vCPU.
    pub tasks: Vec<PeriodicTask>,
    /// Chosen per-vCPU parameters, in vCPU-id order.
    pub params: Vec<VcpuParams>,
}

/// Planner stages 0 and 1: dedicated-core selection and SLA → `(C, T)`
/// translation.
fn translate(host: &HostConfig) -> Result<Translation, PlanError> {
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
    let min_budget = DEFAULT_THRESHOLD * 2;
    let mut tasks: Vec<PeriodicTask> = Vec::new();
    let mut params: Vec<VcpuParams> = Vec::new();
    for &(vcpu, spec) in &vcpus {
        if spec.utilization.is_full_core() {
            params.push(VcpuParams {
                vcpu,
                cost: STANDARD_HYPERPERIOD,
                period: STANDARD_HYPERPERIOD,
                dedicated: true,
                capped: spec.capped,
            });
            continue;
        }
        let period = period_for(&spec);
        // Rounding the (floor-rounded) budget up to twice the coalescing
        // threshold can over-commit only configurations that reserve less
        // than ~0.03% per vCPU — rejected as over-utilized, which is fine.
        let cost = spec
            .utilization
            .budget_in(period)
            .max(min_budget)
            .min(period);
        tasks.push(PeriodicTask::implicit(TaskId(vcpu.0), cost, period));
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
    pipeline(host, opts, None).map(|(plan, timings, _)| (plan, timings))
}

/// A previous plan accepted as a donor, with its per-vCPU parameters and
/// blackouts indexed by id (ids are dense and the lookups sit on the
/// per-allocation path).
struct Donor<'a> {
    plan: &'a Plan,
    record: &'a BinRecord,
    params: Vec<Option<(Nanos, Nanos)>>,
    blackouts: Vec<Option<Nanos>>,
}

/// One core taken from the donor.
struct Donated {
    /// The donor core's coalescing report under the new ids.
    report: CoalesceReport,
    /// The donor core's allocations under the new ids, or `None` when no
    /// id changed and the compiled core is kept by `Arc`.
    relabeled: Option<Vec<Allocation>>,
}

impl<'a> Donor<'a> {
    /// `prev` as a donor for a plan of `host` under `opts`, or `None` when
    /// the donor rules decline it (see [`plan_with_fallback`]).
    fn accept(
        prev: &'a Plan,
        host: &HostConfig,
        opts: &PlannerOptions,
        shared_cores: usize,
    ) -> Option<Donor<'a>> {
        let record = prev.bins.as_ref()?;
        let usable = !opts.peephole
            && prev.stage == Stage::Partitioned
            && prev.split_vcpus.is_empty()
            && prev.table.n_cores() == host.n_cores
            && record.core_bins.len() == shared_cores;
        if !usable {
            return None;
        }
        let id_cap = |ids: &mut dyn Iterator<Item = VcpuId>| ids.map(|v| v.0 as usize + 1).max();
        let mut params = vec![None; id_cap(&mut prev.params.iter().map(|p| p.vcpu)).unwrap_or(0)];
        for p in &prev.params {
            params[p.vcpu.0 as usize] = Some((p.cost, p.period));
        }
        let ids = &mut prev.worst_blackout.iter().map(|&(v, _)| v);
        let mut blackouts = vec![None; id_cap(ids).unwrap_or(0)];
        for &(v, b) in &prev.worst_blackout {
            blackouts[v.0 as usize] = Some(b);
        }
        Some(Donor {
            plan: prev,
            record,
            params,
            blackouts,
        })
    }

    /// Core `core` for its new `bin`, when the donor's core can stand in
    /// for it: the bin's `(cost, period)` sequence is positionally the
    /// donor's (EDF breaks ties by position, so the schedule is a function
    /// of that sequence) and the donor's record of the core is complete.
    /// The blackouts of the bin's vCPUs are then the donor's, written into
    /// `blackout` under the new ids.
    fn core(
        &self,
        core: usize,
        bin: &[PeriodicTask],
        blackout: &mut [Option<Nanos>],
    ) -> Option<Donated> {
        let prev_bin = &self.record.core_bins[core];
        let clean = bin.len() == prev_bin.len()
            && bin.iter().zip(prev_bin).all(|(t, v)| {
                self.params.get(v.0 as usize).copied().flatten() == Some((t.cost, t.period))
            });
        if !clean {
            return None;
        }
        // A bin holds a handful of vCPUs: the id substitution is a scan of
        // the pairs, not a map.
        let subst = |v: VcpuId| {
            let at = prev_bin.iter().position(|&pv| pv == v)?;
            Some(VcpuId(bin[at].id.0))
        };
        let report = self.record.coalesce_by_core.get(core)?.relabel(subst)?;
        let prev_blackout = |v: &VcpuId| self.blackouts.get(v.0 as usize).copied().flatten();
        if !prev_bin.iter().all(|v| prev_blackout(v).is_some()) {
            return None;
        }
        // Every clean bin of a join or a leave-of-last keeps its ids (ids
        // below the churned VM never shift); a leave in the middle of the
        // host moves every later id down.
        let relabeled = if bin.iter().zip(prev_bin).all(|(t, v)| t.id.0 == v.0) {
            None
        } else {
            let allocs = self.plan.table.cpu(core).allocations();
            let relabel = |a: Allocation| {
                Some(Allocation {
                    vcpu: subst(a.vcpu)?,
                    ..a
                })
            };
            Some(allocs.map(relabel).collect::<Option<_>>()?)
        };
        for (v, t) in prev_bin.iter().zip(bin) {
            blackout[t.id.0 as usize] = prev_blackout(v);
        }
        Some(Donated { report, relabeled })
    }
}

/// The planner: translate → admission → pack → each core's source → verify
/// → coalesce → table → blackouts, returning the plan, its timings and —
/// when `donor` was accepted and used — what it gave.
///
/// A core's source is one of: the donor's core (kept by `Arc`, or
/// relabelled), a stamp of a representative core with the same bin shape,
/// or a fresh simulation. Everything taken from the donor or a stamp is
/// what a fresh build would produce, so the plan is the same with or
/// without a donor; a donor only keeps the work O(dirty bins): clean cores
/// are neither simulated, verified, coalesced, compiled nor measured for
/// blackouts again.
fn pipeline(
    host: &HostConfig,
    opts: &PlannerOptions,
    donor: Option<&Plan>,
) -> Result<(Plan, PlanTimings, Option<DeltaReport>), PlanError> {
    let t_total = Instant::now();
    let mut timings = PlanTimings::default();
    let t0 = Instant::now();
    let Translation {
        vcpus,
        dedicated,
        shared_cores,
        tasks,
        params,
    } = translate(host)?;
    let donor = donor.and_then(|prev| Donor::accept(prev, host, opts, shared_cores));
    timings.pack += t0.elapsed();

    // Stage 2: three-stage table generation (admission happens inside). A
    // stage-1 core the donor can stand in for is left to it; `donated` is
    // filled only when stage 1 packed, i.e. when the donor is used. vCPU
    // ids are positional: `vcpus` holds every id below its length.
    let mut donated: Vec<Option<Donated>> = Vec::with_capacity(shared_cores);
    let mut donated_blackout: Vec<Option<Nanos>> = vec![None; vcpus.len()];
    let outcome = generate_schedule_instrumented(
        &tasks,
        shared_cores,
        STANDARD_HYPERPERIOD,
        &opts.gen,
        |core, bin| {
            let d = (donor.as_ref()).and_then(|d| d.core(core, bin, &mut donated_blackout));
            let kept = d.is_some();
            donated.push(d);
            kept
        },
    )?;
    let donor = donor.filter(|_| !donated.is_empty());
    let mut generated = outcome.generated;
    let mut sharing = outcome.sharing;
    timings.pack += outcome.timings.pack;
    timings.simulate += outcome.timings.simulate;
    timings.verify += outcome.timings.verify;

    let t0 = Instant::now();
    // Optional peephole pass: merge needlessly sliced allocations where the
    // verifier confirms every guarantee survives. It mutates schedules in
    // place, so any sharing record is stale afterwards and is dropped. It
    // never runs with a donor (the donor rules decline one).
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
    // (stamped cores carry only whole, unsplit vCPUs). A donated core
    // brings its report and, if its ids moved, its relabelled allocations;
    // `None` allocations mean the donor's compiled core is kept as is.
    let split: Vec<VcpuId> = generated.split_tasks.iter().map(|t| VcpuId(t.0)).collect();
    let coalesce_core = |core: usize| -> (Option<Vec<Allocation>>, CoalesceReport) {
        let mut allocs: Vec<Allocation> = generated.schedule.cores[core]
            .segments()
            .iter()
            .map(|s| Allocation {
                start: s.start,
                end: s.end,
                vcpu: VcpuId(s.task.0),
            })
            .collect();
        let report = coalesce_with(&mut allocs, DEFAULT_THRESHOLD, |v| !split.contains(&v));
        (Some(allocs), report)
    };
    let mut cores: Vec<(Option<Vec<Allocation>>, CoalesceReport)> =
        Vec::with_capacity(host.n_cores);
    let mut clean = vec![false; host.n_cores];
    // `table_stamps[core] = Some(rep)` once the remap checked out, so the
    // slice-table build below can reuse the representative's CpuTable too.
    let mut table_stamps: Vec<Option<usize>> = vec![None; host.n_cores];
    for core in 0..shared_cores {
        if let Some(d) = donated.get_mut(core).and_then(Option::take) {
            clean[core] = true;
            cores.push((d.relabeled, d.report));
            continue;
        }
        let Some(stamp) = sharing.stamp_of(core) else {
            cores.push(coalesce_core(core));
            continue;
        };
        let rep = (stamp.rep < core).then(|| &cores[stamp.rep]);
        let remapped = rep.and_then(|(rep_allocs, rep_report)| {
            // One pair per task of the bin — a handful: the id
            // substitution is a scan of the pairs, not a map.
            let subst = |v: VcpuId| {
                let (_, to) = stamp.map.iter().find(|(rep_id, _)| rep_id.0 == v.0)?;
                Some(VcpuId(to.0))
            };
            let allocs: Vec<Allocation> = (rep_allocs.as_ref()?.iter())
                .map(|a| {
                    Some(Allocation {
                        vcpu: subst(a.vcpu)?,
                        ..*a
                    })
                })
                .collect::<Option<_>>()?;
            let report = rep_report.relabel(subst)?;
            Some((Some(allocs), report))
        });
        match remapped {
            Some(done) => {
                table_stamps[core] = Some(stamp.rep);
                cores.push(done);
            }
            // Inconsistent stamp (never expected): coalesce directly.
            None => cores.push(coalesce_core(core)),
        }
    }
    // Dedicated cores: one wall-to-wall allocation each.
    for &vcpu in &dedicated {
        let wall = Allocation {
            start: Nanos::ZERO,
            end: STANDARD_HYPERPERIOD,
            vcpu,
        };
        cores.push((Some(vec![wall]), CoalesceReport::default()));
    }
    let mut coalesce = CoalesceReport::default();
    let mut per_core: Vec<Option<Vec<Allocation>>> = Vec::with_capacity(host.n_cores);
    let mut coalesce_by_core: Vec<CoalesceReport> = Vec::with_capacity(host.n_cores);
    for (allocs, report) in cores {
        coalesce.absorb(&report);
        coalesce_by_core.push(report);
        per_core.push(allocs);
    }
    timings.coalesce += t0.elapsed();

    // The donor's table is patched where this plan differs from it;
    // without a donor every core is compiled, stamps re-used.
    let t0 = Instant::now();
    let table = match &donor {
        Some(d) => {
            let updates = (per_core.into_iter().enumerate())
                .filter_map(|(core, allocs)| Some((core, allocs?)))
                .collect();
            Table::patched_from(&d.plan.table, updates)
        }
        None => {
            let per_core = per_core.into_iter().flatten().collect();
            Table::new_with_stamps(STANDARD_HYPERPERIOD, per_core, &table_stamps)
        }
    }
    .map_err(PlanError::Table)?;
    timings.slice_build += t0.elapsed();

    let t0 = Instant::now();
    // Observed worst-case blackout per vCPU, for latency-goal validation:
    // one pass over each core's allocations answers its vCPUs; a donated
    // core's vCPUs keep the donor's bound (their interval sets are the
    // donor's up to the relabelling).
    let blackouts = table.max_blackouts((0..host.n_cores).filter(|&c| !clean[c]));
    let blackout_of = |v: VcpuId| {
        let donated = donated_blackout.get(v.0 as usize).copied().flatten();
        donated.or_else(|| blackouts.get(v.0 as usize).copied())
    };
    let worst_blackout: Vec<(VcpuId, Nanos)> = vcpus
        .iter()
        .map(|&(vcpu, _)| (vcpu, blackout_of(vcpu).unwrap_or(STANDARD_HYPERPERIOD)))
        .collect();
    timings.verify += t0.elapsed();
    timings.total = t_total.elapsed();

    // The donor record: the stage-1 packing translated to vCPU ids, plus
    // the per-core coalescing reports. Only plain-partitioned
    // peephole-free plans qualify (the peephole pass rewrites allocations
    // out from under the per-bin bookkeeping).
    let bins = (!opts.peephole && generated.stage == Stage::Partitioned).then(|| BinRecord {
        core_bins: (outcome.core_bins.into_iter())
            .map(|bin| bin.into_iter().map(|t| VcpuId(t.0)).collect())
            .collect(),
        coalesce_by_core,
    });
    let delta = donor.map(|_| {
        let (clean_cores, dirty_cores) = (0..shared_cores).partition(|&c| clean[c]);
        DeltaReport {
            clean_cores,
            dirty_cores,
        }
    });

    Ok((
        Plan {
            table,
            stage: generated.stage,
            params,
            split_vcpus: split,
            coalesce,
            worst_blackout,
            bins,
        },
        timings,
        delta,
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
        let period = period_for(&paper_spec());
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
        let period = period_for(&spec);
        // T <= 1 ms / 1.5 = 666 us.
        assert!(period <= Nanos::from_micros(667));
        assert!(period >= Nanos::from_micros(100));
    }

    #[test]
    fn impossible_latency_goal_falls_back_to_smallest_candidate() {
        let spec = VcpuSpec::new(Utilization::from_percent(25), Nanos::from_micros(10));
        let period = period_for(&spec);
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
        // Strip the bin record: the donor must be declined, silently, and
        // the full plan carry a record the next replan can use.
        prev.bins = None;
        let mut host = prev_host.clone();
        host.add_vm(VmSpec::uniform("newcomer", 1, paper_spec()));

        let out = plan_with_fallback(Some((&prev_host, &prev)), &host, &opts).unwrap();
        assert_eq!(out.path, ReplanPath::Full);
        assert!(out.attempts.is_empty() && out.delta.is_none());
        assert_eq!(out.plan, plan(&host, &opts).unwrap());
        assert!(out.plan.bins.is_some());
    }

    #[test]
    fn fallback_ladder_without_history_plans_fully() {
        let host = dense_host(2, 4, paper_spec());
        let out = plan_with_fallback(None, &host, &PlannerOptions::default()).unwrap();
        assert_eq!(out.path, ReplanPath::Full);
        assert!(out.delta.is_none());
    }

    #[test]
    fn fallback_ladder_rejects_with_full_diagnostic_trail() {
        // Over-utilized: the one attempt fails, and the error carries its
        // diagnostic on a single line.
        let opts = PlannerOptions::default();
        let prev_ok = dense_host(1, 4, paper_spec());
        let prev = plan(&prev_ok, &opts).unwrap();
        let host = dense_host(1, 5, paper_spec());
        let err = plan_with_fallback(Some((&prev_ok, &prev)), &host, &opts).unwrap_err();
        assert_eq!(err.attempts.len(), 1, "{err}");
        let msg = err.to_string();
        assert!(!msg.contains('\n'), "multi-line diagnostic: {msg:?}");
        assert!(msg.contains("[full]"), "{msg}");
    }

    /// Replans `host` with `prev` as the donor under default options and
    /// checks the result is the full plan of `host`.
    fn replan_from(prev_host: &HostConfig, prev: &Plan, host: &HostConfig) -> ReplanOutcome {
        let opts = PlannerOptions::default();
        let out = plan_with_fallback(Some((prev_host, prev)), host, &opts).unwrap();
        assert_eq!(out.plan, plan(host, &opts).unwrap());
        out
    }

    /// The bench-snapshot shape: 44 cores, `vms` paper VMs under the
    /// punishing 1 ms goal.
    fn paper_host_1ms(vms: usize) -> HostConfig {
        let spec = VcpuSpec::capped(Utilization::from_percent(25), ms(1));
        let mut host = HostConfig::new(44);
        for i in 0..vms {
            host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
        }
        host
    }

    #[test]
    fn paper_scale_add_dirties_one_bin_and_matches_full_replan() {
        // A single join must dirty exactly one bin and keep the other 43
        // cores' ids, and the plan is still field-identical to the full
        // replan.
        let (prev_host, host) = (paper_host_1ms(175), paper_host_1ms(176));
        let prev = plan(&prev_host, &PlannerOptions::default()).unwrap();
        let out = replan_from(&prev_host, &prev, &host);
        assert_eq!(out.path, ReplanPath::Delta);
        let report = out.delta.unwrap();
        assert_eq!(report.dirty_cores.len(), 1, "{report:?}");
        assert_eq!(report.clean_cores.len(), 43, "{report:?}");
    }

    #[test]
    fn a_spliced_table_owns_only_its_dirty_cores() {
        // The same join: the new table points at the donor table's 43
        // clean cores and owns the one it rebuilt, so a chain of deltas
        // costs O(dirty cores) of memory per link, not a table.
        let (prev_host, host) = (paper_host_1ms(175), paper_host_1ms(176));
        let prev = plan(&prev_host, &PlannerOptions::default()).unwrap();
        let out = replan_from(&prev_host, &prev, &host);
        let (old, new) = (&prev.table, &out.plan.table);
        let shared = |c: &usize| std::ptr::eq(old.cpu(*c), new.cpu(*c));
        let rebuilt: Vec<usize> = (0..44).filter(|c| !shared(c)).collect();
        assert_eq!(rebuilt, out.delta.unwrap().dirty_cores);
        let held: usize = (0..44)
            .filter(shared)
            .map(|c| new.cpu(c).heap_bytes())
            .sum();
        let own = new.resident_bytes() - held;
        assert!(
            own * 10 <= new.resident_bytes(),
            "{own} B of {} B are the splice's own",
            new.resident_bytes()
        );
    }

    #[test]
    fn mid_host_remove_relabels_and_matches_full_replan() {
        // Tearing down a VM in the middle of the host shifts every later
        // vCPU id down by one. Here core 1 holds v2 and v3 (30 % each)
        // before and v1 and v2 after v1 (5 %, on core 0) leaves: it is
        // clean, relabelled rather than kept, and the plan is still the
        // full one.
        let build = |utils: &[u32]| {
            let mut host = HostConfig::new(2);
            for (i, &u) in utils.iter().enumerate() {
                let spec = VcpuSpec::new(Utilization::from_percent(u), ms(20));
                host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
            }
            host
        };
        let (prev_host, host) = (build(&[40, 5, 30, 30]), build(&[40, 30, 30]));
        let prev = plan(&prev_host, &PlannerOptions::default()).unwrap();
        let out = replan_from(&prev_host, &prev, &host);
        assert_eq!(out.path, ReplanPath::Delta);
        let report = out.delta.unwrap();
        assert_eq!((report.clean_cores, report.dirty_cores), (vec![1], vec![0]));
        assert!(!std::ptr::eq(prev.table.cpu(1), out.plan.table.cpu(1)));
    }

    #[test]
    fn single_vm_remove_is_field_identical_to_full_replan() {
        // Tearing down the last VM shifts no id: only its bin is rebuilt,
        // and every clean core is the donor's compiled core, by `Arc`.
        let prev_host = dense_host(4, 3, paper_spec());
        let prev = plan(&prev_host, &PlannerOptions::default()).unwrap();
        let mut host = prev_host.clone();
        host.vms.pop();
        let out = replan_from(&prev_host, &prev, &host);
        let report = out.delta.unwrap();
        assert_eq!(report.dirty_cores.len(), 1, "{report:?}");
        for &c in &report.clean_cores {
            assert!(std::ptr::eq(prev.table.cpu(c), out.plan.table.cpu(c)));
        }
    }

    #[test]
    fn deltas_chain_without_ladder_roundtrips() {
        // Joins from an empty host, then leaves of the last VM: every link
        // takes the previous link's plan as its donor.
        let mut host = HostConfig::new(4);
        let mut current = plan(&host, &PlannerOptions::default()).unwrap();
        let shapes = (1..=14).chain((10..14).rev());
        for n in shapes {
            let mut next = HostConfig::new(4);
            for i in 0..n {
                next.add_vm(VmSpec::uniform(format!("vm{i}"), 1, paper_spec()));
            }
            let out = replan_from(&host, &current, &next);
            assert_eq!(out.path, ReplanPath::Delta, "{n} VMs");
            (host, current) = (next, out.plan);
        }
    }

    #[test]
    fn single_vm_add_is_field_identical_to_full_replan() {
        // A join on a 4-core host: every core is either kept or rebuilt,
        // and some are kept.
        let prev_host = dense_host(4, 3, paper_spec());
        let prev = plan(&prev_host, &PlannerOptions::default()).unwrap();
        let mut host = prev_host.clone();
        host.add_vm(VmSpec::uniform("newcomer", 1, paper_spec()));
        let out = replan_from(&prev_host, &prev, &host);
        assert_eq!(out.path, ReplanPath::Delta);
        let report = out.delta.unwrap();
        assert!(!report.clean_cores.is_empty(), "{report:?}");
        let mut cores = [report.clean_cores, report.dirty_cores].concat();
        cores.sort_unstable();
        assert_eq!(cores, (0..4).collect::<Vec<_>>());
    }

    /// The donor host of the decline tests: 4 cores, 8 paper VMs.
    fn decline_donor() -> (HostConfig, Plan) {
        let prev_host = dense_host(4, 2, paper_spec());
        let prev = plan(&prev_host, &PlannerOptions::default()).unwrap();
        (prev_host, prev)
    }

    /// `prev_host` plus one paper VM.
    fn with_newcomer(prev_host: &HostConfig) -> HostConfig {
        let mut host = prev_host.clone();
        host.add_vm(VmSpec::uniform("newcomer", 1, paper_spec()));
        host
    }

    /// Replans `host` with `prev` as the donor and checks the donor was
    /// declined: the full rung answers, with the full plan of `host`.
    fn assert_declined(
        prev_host: &HostConfig,
        prev: &Plan,
        host: &HostConfig,
        opts: &PlannerOptions,
    ) {
        let out = plan_with_fallback(Some((prev_host, prev)), host, opts).unwrap();
        assert_eq!(out.path, ReplanPath::Full);
        assert!(out.delta.is_none() && out.attempts.is_empty());
        assert_eq!(out.plan, plan(host, opts).unwrap());
    }

    #[test]
    fn geometry_change_declines_the_donor() {
        let (prev_host, prev) = decline_donor();
        let host = dense_host(8, 2, paper_spec());
        assert_declined(&prev_host, &prev, &host, &PlannerOptions::default());
    }

    #[test]
    fn missing_bin_record_declines_the_donor() {
        let (prev_host, mut prev) = decline_donor();
        prev.bins = None;
        let host = with_newcomer(&prev_host);
        assert_declined(&prev_host, &prev, &host, &PlannerOptions::default());
    }

    #[test]
    fn peephole_options_decline_the_donor() {
        let (prev_host, prev) = decline_donor();
        let peephole = PlannerOptions {
            peephole: true,
            ..PlannerOptions::default()
        };
        assert_declined(&prev_host, &prev, &with_newcomer(&prev_host), &peephole);
    }

    #[test]
    fn another_shared_core_count_declines_the_donor() {
        // A dedicated vCPU arrives: the donor's bin record covers 4 shared
        // cores, the request has 3.
        let (prev_host, prev) = decline_donor();
        let mut host = with_newcomer(&prev_host);
        host.add_vm(VmSpec::uniform(
            "whole",
            1,
            VcpuSpec::new(Utilization::FULL, ms(20)),
        ));
        assert_declined(&prev_host, &prev, &host, &PlannerOptions::default());
    }

    #[test]
    fn over_utilized_request_with_a_donor_fails_cleanly() {
        // The donor is accepted, and the request fails admission exactly as
        // a plan without one does.
        let opts = PlannerOptions::default();
        let prev_host = dense_host(1, 4, paper_spec());
        let prev = plan(&prev_host, &opts).unwrap();
        let host = dense_host(1, 5, paper_spec());
        let err = plan_with_fallback(Some((&prev_host, &prev)), &host, &opts).unwrap_err();
        assert_eq!(err.attempts.len(), 1, "{err}");
        assert_eq!(err.attempts[0].0, ReplanPath::Full);
        assert_eq!(err.attempts[0].1, plan(&host, &opts).unwrap_err());
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
