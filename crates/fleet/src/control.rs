//! The fleet controller: placement, evacuation, backpressure, installs.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use rtsched::time::Nanos;
use tableau_core::audit::{corrupt_table, CorruptionKind, TableFacts};
use tableau_core::cache::SharedPlanCache;
use tableau_core::guardian::RetryPolicy;
use tableau_core::planner::{
    plan_with_fallback, Plan, PlanError, PlannerOptions, ReplanError, ReplanPath,
};
use tableau_core::table::Table;
use tableau_core::vcpu::HostConfig;
use workloads::churn::Flavor;
use workloads::Histogram;
use xensim::fault::{CorruptionEvent, FaultWindow, HostFaultConfig, HostFaultEngine};
use xensim::Machine;

use crate::host::{
    demand, host_config, probe_config, Boot, FleetHost, HostState, Tenant, PROBE_PPM,
};
use crate::images::ImageStore;
use crate::queue::VmQueue;
use crate::{AdmissionRejected, FleetError};

/// Fleet-wide configuration: the fleet's size and its plan cache. Every
/// other control-plane value is fixed (probes, goal, placement and retry
/// constants below).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of hosts.
    pub n_hosts: usize,
    /// Cores per host (all hosts are identically shaped — the premise of
    /// plan-cache sharing).
    pub cores_per_host: usize,
    /// Shared plan-cache capacity: the distinct host shapes held at once,
    /// least recently used evicted first.
    pub cache_capacity: usize,
}

/// Fraction of post-probe capacity the placement front-end will commit;
/// the rest is evacuation headroom.
const MAX_TENANT_UTILIZATION: f64 = 0.75;

/// Control-plane backlog (dirty hosts + evacuating + parked) above which
/// admission drops from best-fit to first-fit.
const BACKLOG_FIRST_FIT_THRESHOLD: usize = 8;

/// Hysteresis band of the backpressure ladder: once first-fit engages,
/// best-fit resumes only when the backlog falls back to
/// `BACKLOG_FIRST_FIT_THRESHOLD - BACKLOG_HYSTERESIS`, so a backlog
/// oscillating ±1 around the threshold cannot flap the placement policy.
const BACKLOG_HYSTERESIS: usize = 2;

/// Candidate hosts each placement rung tries before falling through.
const PLACEMENT_CANDIDATES: usize = 4;

/// Backoff between failed placements of an evacuating VM; once the budget
/// runs out the VM is parked.
const EVAC_RETRY: RetryPolicy = RetryPolicy {
    base: Nanos::from_millis(50),
    cap: Nanos::from_millis(800),
    budget: 5,
};

/// Retry cadence for parked VMs (slow background re-placement).
const PARKED_RETRY_INTERVAL: Nanos = Nanos::from_millis(1_600);

/// Backoff between interrupted installs; once the budget runs out the delay
/// pins at the cap.
const INSTALL_RETRY: RetryPolicy = RetryPolicy {
    base: Nanos::from_millis(50),
    cap: Nanos::from_millis(400),
    budget: 5,
};

impl FleetConfig {
    /// `n_hosts` hosts of `cores_per_host` cores, sharing a 256-plan cache.
    pub fn new(n_hosts: usize, cores_per_host: usize) -> FleetConfig {
        FleetConfig {
            n_hosts,
            cores_per_host,
            cache_capacity: 256,
        }
    }

    /// Tenant capacity one host offers the placement front-end, in ppm of
    /// one core: post-probe capacity scaled by the committable fraction.
    pub fn host_budget_ppm(&self) -> u64 {
        let total = self.cores_per_host as u64 * (1_000_000 - PROBE_PPM as u64);
        (total as f64 * MAX_TENANT_UTILIZATION) as u64
    }
}

/// Fleet control-plane counters (all monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetCounters {
    /// VMs admitted (any rung).
    pub admissions: u64,
    /// Admissions placed by the best-fit rung.
    pub admissions_best_fit: u64,
    /// Admissions placed by the first-fit rung (backpressure engaged).
    pub admissions_first_fit: u64,
    /// Admissions shed with a typed rejection.
    pub admissions_shed: u64,
    /// VMs torn down.
    pub teardowns: u64,
    /// In-place resizes applied.
    pub resizes: u64,
    /// Resizes rejected (replan infeasible; old flavor kept).
    pub resize_rejections: u64,
    /// Host crashes injected.
    pub crashes: u64,
    /// Host restarts completed.
    pub restarts: u64,
    /// Online→Degraded transitions.
    pub degradations: u64,
    /// VMs re-placed off a crashed host.
    pub evacuated_vms: u64,
    /// Evacuation placement attempts that failed and backed off.
    pub evacuation_retries: u64,
    /// Evacuating VMs parked after exhausting their retry budget.
    pub parked: u64,
    /// Parked VMs later re-placed.
    pub unparked: u64,
    /// Table installs committed across the fleet.
    pub installs: u64,
    /// Install attempts interrupted (storms) and retried with backoff.
    pub install_retries: u64,
    /// Hosts whose install retries exhausted the budget (backoff pinned
    /// at the cap; the host keeps retrying, nothing is lost).
    pub install_budget_exhaustions: u64,
    /// Installs rejected by the dispatcher with a typed error (table
    /// shape drift; the plan is dropped, the old table keeps running).
    pub installs_rejected: u64,
    /// Table corruptions injected into live hosts (chaos).
    #[serde(default)]
    pub corruptions_injected: u64,
    /// Injected corruptions the continuous audit flagged (each one is
    /// detected exactly once, the epoch it lands).
    #[serde(default)]
    pub corruptions_detected: u64,
    /// Injected corruptions still uncounted when their host crashed (the
    /// damaged copy died with the simulator). Every epoch
    /// `corruptions_injected == corruptions_detected +
    /// corruptions_lost_to_crash`, except that a corruption which restores
    /// an already flagged table to its audited content is counted only when
    /// the pending repair install commits.
    #[serde(default)]
    pub corruptions_lost_to_crash: u64,
    /// Audit violations on hosts with no outstanding corruption. Must
    /// stay zero: a nonzero value means the audit flagged a table the
    /// control plane installed itself.
    #[serde(default)]
    pub audit_false_positives: u64,
}

/// Which rung produced each committed replan (provenance; the PR 3
/// pattern extended with the cache rungs placement runs through first).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RungCounters {
    /// Served from the shared fingerprint cache.
    pub cache_hit: u64,
    /// Delta replan: the previous table was patched in place (single-VM
    /// churn), either directly by the control plane or by the fallback
    /// ladder's delta rung.
    #[serde(default)]
    pub delta: u64,
    /// Cache miss: the cache planned (full path) and memoized.
    pub cache_plan: u64,
    /// Retired, always zero: the ladder's incremental rung is deleted
    /// (DESIGN.md §5.12). The field survives for the serialized fleet
    /// artifacts and the end-to-end benchmark, which read it; delete it
    /// with the benchmark-side follow-up (ROADMAP item 1).
    pub incremental: u64,
    /// Fallback ladder: full replan.
    pub full: u64,
    /// Retired, always zero: the ladder's conservative rung is deleted
    /// (DESIGN.md §5.5). The field survives for the serialized fleet
    /// artifacts and the end-to-end benchmark, which read it; delete it
    /// with the benchmark-side follow-up (ROADMAP item 1).
    pub full_conservative: u64,
}

impl RungCounters {
    fn bump(&mut self, rung: Rung) {
        match rung {
            Rung::CacheHit => self.cache_hit += 1,
            Rung::Ladder(ReplanPath::Delta) => self.delta += 1,
            Rung::CachePlan => self.cache_plan += 1,
            Rung::Ladder(ReplanPath::Incremental) => self.incremental += 1,
            Rung::Ladder(ReplanPath::Full) => self.full += 1,
            Rung::Ladder(ReplanPath::FullConservative) => self.full_conservative += 1,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Rung {
    CacheHit,
    CachePlan,
    Ladder(ReplanPath),
}

/// Retired, always zero: the counters of the partitioned (per-socket PDES)
/// simulator engine, which lost its trial and was deleted (DESIGN.md
/// §5.14). This plain-data shell survives only as the return type of
/// [`Fleet::pdes_stats`], which the end-to-end benchmark reads field by
/// field; delete both with the benchmark-side follow-up (ROADMAP item 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PdesStats {
    pub partitioned_runs: u64,
    pub windows_advanced: u64,
    pub mailbox_events: u64,
    pub lookahead_stalls: u64,
    pub declined_single_socket: u64,
    pub declined_faults_armed: u64,
    pub declined_scheduler_opt_out: u64,
    pub declined_tables_unsettled: u64,
    pub declined_monitor_attached: u64,
    pub declined_cross_socket_placement: u64,
    pub declined_no_lookahead: u64,
}

impl PdesStats {
    /// Total declines, by any reason.
    pub fn declines(&self) -> u64 {
        self.declined_single_socket
            + self.declined_faults_armed
            + self.declined_scheduler_opt_out
            + self.declined_tables_unsettled
            + self.declined_monitor_attached
            + self.declined_cross_socket_placement
            + self.declined_no_lookahead
    }
}

/// Wall-clock ledger of [`Fleet::step`] and [`Fleet::settle`]: nanoseconds
/// accumulated per phase since boot, in phase order. The phase fields sum
/// to `total_ns` up to a few clock reads per call. Host time, not simulated
/// time: only `steps` is reproducible across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepPhases {
    /// `Fleet::step` calls accumulated.
    pub steps: u64,
    /// Whole steps, measured around all phases.
    pub total_ns: u64,
    /// Host crash / restart / degradation transitions.
    pub faults_ns: u64,
    /// Table-corruption injection.
    pub corruptions_ns: u64,
    /// Continuous table audit of every live host.
    pub audit_ns: u64,
    /// Evacuation queue.
    pub evacuate_ns: u64,
    /// Parked-VM retries.
    pub parked_ns: u64,
    /// Resolve each pending install's shared table image, stage and commit.
    pub installs_ns: u64,
    /// Catch-up: bringing a host's simulator up to the last step's time
    /// before the control plane acts on it (a corruption, an install) or
    /// an observer asks ([`Fleet::settle`]). Booked here wherever it runs;
    /// the enclosing phase excludes it.
    pub host_sims_ns: u64,
}

impl StepPhases {
    /// `(name, ns)` per phase, in the order [`Fleet::step`] runs them, the
    /// catch-ups (`host_sims`, wherever they ran) last.
    pub fn phases(&self) -> [(&'static str, u64); 7] {
        [
            ("faults", self.faults_ns),
            ("corruptions", self.corruptions_ns),
            ("audit", self.audit_ns),
            ("evacuate", self.evacuate_ns),
            ("parked", self.parked_ns),
            ("installs", self.installs_ns),
            ("host_sims", self.host_sims_ns),
        ]
    }
}

/// The phase clock of one step.
struct PhaseClock {
    mark: Instant,
    /// `host_sims_ns` at `mark`.
    booked: u64,
}

impl PhaseClock {
    /// Nanoseconds since the previous lap, less the catch-up time booked
    /// into `host_sims_ns` meanwhile; the mark advances to now.
    fn lap(&mut self, phases: &StepPhases) -> u64 {
        let now = Instant::now();
        let ns = (now - self.mark).as_nanos() as u64;
        self.mark = now;
        let caught_up =
            phases.host_sims_ns - std::mem::replace(&mut self.booked, phases.host_sims_ns);
        ns.saturating_sub(caught_up)
    }
}

/// Where a live VM currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmLocation {
    /// Placed on (and planned into) the given host.
    Placed(usize),
    /// In the crash-evacuation queue, awaiting re-placement.
    Evacuating,
    /// Retry budget exhausted; parked, retried at a slow cadence.
    Parked,
}

/// A VM displaced by a host crash.
#[derive(Debug, Clone, Copy)]
struct EvacVm {
    vm: u64,
    flavor: Flavor,
    /// Original admission time, when the VM was still awaiting its first
    /// committed install (latency attribution survives the crash).
    requested_at: Option<Nanos>,
    /// Failed placements; past `EVAC_RETRY.budget` the VM is parked.
    attempts: u32,
    next_try: Nanos,
}

/// One host's seeded fault schedule, each list in time order.
#[derive(Debug, Clone, Default)]
struct HostFaults {
    crashes: Vec<FaultWindow>,
    /// The first crash window not yet fired.
    next_crash: usize,
    degrades: Vec<FaultWindow>,
    corruptions: Vec<CorruptionEvent>,
    /// The first corruption event not yet fired.
    next_corruption: usize,
}

/// One transition of the backpressure hysteresis band: enter first-fit when
/// the backlog exceeds `threshold`; return to best-fit only once it falls
/// to `threshold - hysteresis` or below. Kept free of `Fleet` so the
/// no-flapping property is testable in isolation.
fn pressured_next(prev: bool, backlog: usize, threshold: usize, hysteresis: usize) -> bool {
    if prev {
        backlog > threshold.saturating_sub(hysteresis)
    } else {
        backlog > threshold
    }
}

/// The fleet control plane. See the crate docs for the architecture.
pub struct Fleet {
    hosts: Vec<FleetHost>,
    /// Tenant capacity of each host ([`FleetConfig::host_budget_ppm`]).
    budget_ppm: u64,
    /// Planner tunables (shared by every host and the cache key).
    planner: PlannerOptions,
    /// One table per request shape, shared by every host that asks for it.
    cache: SharedPlanCache,
    engine: Option<HostFaultEngine>,
    /// Per host, its fault schedule (empty until faults are armed).
    faults: Vec<HostFaults>,
    storm_windows: Vec<FaultWindow>,
    evacuating: VmQueue<EvacVm>,
    parked: VmQueue<EvacVm>,
    /// The ownership ledger: every admitted, not-torn-down VM, with its
    /// current location. The conservation invariant is stated against it.
    locations: BTreeMap<u64, VmLocation>,
    /// Backpressure state: whether the admission ladder is currently in
    /// first-fit mode (sticky across the hysteresis band).
    pressured: bool,
    counters: FleetCounters,
    rungs: RungCounters,
    phases: StepPhases,
    admit_to_install: Histogram,
    /// What boots and reboots give a host; the boot image is pinned here so
    /// a reboot never rebuilds it.
    boot: Boot,
    /// One masked table per distinct content; every dispatcher's table
    /// comes from here (see [`crate::images`]).
    images: ImageStore,
    /// The `now` of the last [`Fleet::step`]: the time every live host's
    /// simulator stands at once caught up ([`Fleet::sync`]).
    last_step: Option<Nanos>,
}

impl Fleet {
    /// Builds the fleet with every host booted (probe-only) and online.
    pub fn new(cfg: FleetConfig) -> Result<Fleet, PlanError> {
        let planner = PlannerOptions::default();
        let boot_cfg = probe_config(cfg.cores_per_host);
        let cache = SharedPlanCache::new(cfg.cache_capacity);
        let boot_plan = cache.get_or_plan(&boot_cfg, &planner)?;
        let mut images = ImageStore::new(cfg.cores_per_host as u32);
        let boot_image = images
            .intern(&boot_plan.table)
            .expect("masking preserves table shape, which Table::new accepts");
        let boot = Boot {
            machine: Machine::small(cfg.cores_per_host),
            cfg: boot_cfg,
            plan: boot_plan,
            image: boot_image,
        };
        let hosts = (0..cfg.n_hosts)
            .map(|i| FleetHost::boot(i, &boot, Nanos::ZERO))
            .collect();
        Ok(Fleet {
            faults: vec![HostFaults::default(); cfg.n_hosts],
            storm_windows: Vec::new(),
            budget_ppm: cfg.host_budget_ppm(),
            hosts,
            planner,
            cache,
            engine: None,
            evacuating: VmQueue::new(),
            parked: VmQueue::new(),
            locations: BTreeMap::new(),
            pressured: false,
            counters: FleetCounters::default(),
            rungs: RungCounters::default(),
            phases: StepPhases::default(),
            admit_to_install: Histogram::new(),
            boot,
            images,
            last_step: None,
        })
    }

    /// Arms host-level fault injection over `[0, horizon)`. A config with
    /// every class at rate zero installs no engine and pre-computes no
    /// windows — the zero-intensity replay contract.
    pub fn arm_faults(&mut self, cfg: HostFaultConfig, horizon: Nanos) {
        self.engine = HostFaultEngine::new(cfg);
        if let Some(e) = &self.engine {
            self.faults = (0..self.hosts.len())
                .map(|h| HostFaults {
                    crashes: e.crash_windows(h, horizon),
                    degrades: e.degrade_windows(h, horizon),
                    corruptions: e.corruption_events(h, horizon),
                    ..HostFaults::default()
                })
                .collect();
            self.storm_windows = e.storm_windows(horizon);
        }
    }

    // --- front-end -------------------------------------------------------

    /// Admits a VM through the backpressure ladder: best-fit (healthy),
    /// first-fit (backlogged), typed shed. Returns the placed host.
    pub fn admit(
        &mut self,
        now: Nanos,
        vm: u64,
        flavor: Flavor,
    ) -> Result<usize, AdmissionRejected> {
        debug_assert!(
            !self.locations.contains_key(&vm),
            "admitting an already-owned vm"
        );
        let demand = demand(flavor);
        // The backlog does not depend on who can host the VM, so the policy
        // this admission runs under is known before the candidates are; it
        // only takes effect if there are any.
        let pressured = pressured_next(
            self.pressured,
            self.backlog(),
            BACKLOG_FIRST_FIT_THRESHOLD,
            BACKLOG_HYSTERESIS,
        );
        // First pass in the chosen order; if best-fit candidates all fail
        // to plan, degrade to first-fit order over the untried remainder.
        let first_pass = self.candidates(demand, !pressured, &[]);
        if first_pass.is_empty() {
            self.counters.admissions_shed += 1;
            return Err(AdmissionRejected::NoCapacity { demand_ppm: demand });
        }
        self.pressured = pressured;

        let mut tried = 0;
        let mut first_fit = pressured;
        let mut placed = self.place(&first_pass, vm, flavor, Some(now), &mut tried);
        if placed.is_none() && !pressured {
            first_fit = true;
            let rest = self.candidates(demand, false, &first_pass);
            placed = self.place(&rest, vm, flavor, Some(now), &mut tried);
        }
        let Some(h) = placed else {
            self.counters.admissions_shed += 1;
            return Err(AdmissionRejected::NoFeasiblePlan {
                candidates_tried: tried,
            });
        };
        self.counters.admissions += 1;
        if first_fit {
            self.counters.admissions_first_fit += 1;
        } else {
            self.counters.admissions_best_fit += 1;
        }
        self.locations.insert(vm, VmLocation::Placed(h));
        Ok(h)
    }

    /// Tears a VM down wherever it currently is. The request time is
    /// taken for symmetry with [`Fleet::admit`]; a teardown takes effect
    /// at once whenever it is asked.
    pub fn teardown(&mut self, _now: Nanos, vm: u64) -> Result<(), FleetError> {
        match self
            .locations
            .remove(&vm)
            .ok_or(FleetError::UnknownVm(vm))?
        {
            VmLocation::Evacuating => drop(self.evacuating.remove(vm)),
            VmLocation::Parked => drop(self.parked.remove(vm)),
            VmLocation::Placed(h) => self.remove_tenant(h, vm),
        }
        self.counters.teardowns += 1;
        Ok(())
    }

    /// Resizes a VM in place. For a placed VM the host is replanned with
    /// the new flavor; an infeasible replan keeps the old flavor and
    /// returns a typed error. Queued VMs just update their request. The
    /// request time is taken as by [`Fleet::teardown`].
    pub fn resize(&mut self, _now: Nanos, vm: u64, flavor: Flavor) -> Result<(), FleetError> {
        let queued = match self.locations.get(&vm).ok_or(FleetError::UnknownVm(vm))? {
            &VmLocation::Placed(h) => return self.resize_in_place(h, vm, flavor),
            VmLocation::Evacuating => self.evacuating.get_mut(vm),
            VmLocation::Parked => self.parked.get_mut(vm),
        };
        if let Some(e) = queued {
            e.flavor = flavor;
        }
        self.counters.resizes += 1;
        Ok(())
    }

    /// Chaos hook: crashes `host` at `now`, restarting (empty) once `until`
    /// passes. The seeded fault engine drives the same path; tests and
    /// experiments use this for targeted interleavings. A no-op while the
    /// host is already down.
    pub fn inject_crash(&mut self, host: usize, now: Nanos, until: Nanos) {
        if !matches!(self.hosts[host].state, HostState::Down { .. }) {
            self.crash_host(host, now, until);
        }
    }

    // --- control loop ----------------------------------------------------

    /// One control epoch at absolute fleet time `now`: fire host fault
    /// transitions (including table corruptions), audit every live host's
    /// installed table, drive evacuations and parked retries, and push
    /// pending installs. Corruptions land before the audit and the audit
    /// before installs, so an injected corruption is detected — and its
    /// repair install issued — within the same epoch.
    ///
    /// **Lazy hosts.** A host's dispatcher is a function of the tables
    /// installed into it and of time, and nothing flows from a host back to
    /// the control plane between installs, so the step runs no host
    /// simulator of its own accord: a host's simulator is caught up to the
    /// previous step's `now` right before a corruption or an install acts
    /// on it, and [`Fleet::settle`] catches every host up for observers.
    /// One `run_until` over N epochs equals N calls, so the model is the
    /// one an every-epoch advance gives (DESIGN.md §5.10). The audit reads
    /// committed tables, which simulated time does not change, and still
    /// scans every live host.
    ///
    /// **Single-threaded.** Every phase is a plain loop in host order, and
    /// the audit derives facts once per distinct live table image
    /// (DESIGN.md, "Why the planner and the fleet step are
    /// single-threaded"), so a step is a function of the fleet's state and
    /// `now` alone.
    pub fn step(&mut self, now: Nanos) {
        let t0 = Instant::now();
        let mut clock = PhaseClock {
            mark: t0,
            booked: self.phases.host_sims_ns,
        };
        self.apply_host_faults(now);
        self.phases.faults_ns += clock.lap(&self.phases);
        self.inject_corruptions(now);
        self.phases.corruptions_ns += clock.lap(&self.phases);
        self.audit_tables();
        self.phases.audit_ns += clock.lap(&self.phases);
        self.retry_displaced(now, false);
        self.phases.evacuate_ns += clock.lap(&self.phases);
        self.retry_displaced(now, true);
        self.phases.parked_ns += clock.lap(&self.phases);
        self.process_installs(now);
        self.phases.installs_ns += clock.lap(&self.phases);
        self.last_step = Some(now);
        self.phases.steps += 1;
        self.phases.total_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Catches every live host's simulator up to the last step's `now`,
    /// where an every-epoch advance would have left it: call before reading
    /// simulator state ([`Fleet::batch_stats`], a host's dispatcher) or at
    /// the end of a run. It does not move the model; its time is booked to
    /// `host_sims_ns` and `total_ns` of [`Fleet::step_phases`].
    pub fn settle(&mut self) {
        let t0 = Instant::now();
        for i in 0..self.hosts.len() {
            self.sync(i);
        }
        self.phases.total_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Verifies the conservation invariant: the ledger and the physical
    /// state (host tenant lists + queues) describe exactly the same VM
    /// set, with no VM in two places.
    pub fn check_conservation(&self) -> Result<(), String> {
        // Runs every control epoch over every live VM. Each sighting is
        // listed as the `Copy` location it should have in the ledger, with
        // its scan position; sorted by VM, the list is merge-walked against
        // the ordered ledger, and only a failing check renders text. Of
        // several faults the one met first in scan order is reported: a
        // VM's first sighting disagreeing with the ledger, else its second
        // sighting (a duplicate); a lost VM only when the scan is clean.
        fn at(loc: VmLocation) -> String {
            match loc {
                VmLocation::Placed(host) => format!("host{host}"),
                VmLocation::Evacuating => "evacuating".into(),
                VmLocation::Parked => "parked".into(),
            }
        }
        let mut found: Vec<(u64, u32, VmLocation)> = Vec::with_capacity(self.locations.len());
        let mut sight = |vm: u64, loc: VmLocation| found.push((vm, found.len() as u32, loc));
        for h in &self.hosts {
            for t in &h.tenants {
                sight(t.vm, VmLocation::Placed(h.id));
            }
        }
        for e in self.evacuating.iter() {
            sight(e.vm, VmLocation::Evacuating);
        }
        for e in self.parked.iter() {
            sight(e.vm, VmLocation::Parked);
        }
        found.sort_unstable_by_key(|&(vm, scan, _)| (vm, scan));

        let mut first: Option<(u32, String)> = None;
        let mut lost = None;
        let mut ledger = self.locations.iter().peekable();
        for (i, &(vm, scan, loc)) in found.iter().enumerate() {
            if i > 0 && found[i - 1].0 == vm {
                continue;
            }
            while let Some((&missing, _)) = ledger.next_if(|&(&l, _)| l < vm) {
                lost.get_or_insert(missing);
            }
            let fault = match ledger.next_if(|&(&l, _)| l == vm) {
                Some((_, &l)) if l == loc => match found.get(i + 1) {
                    Some(&(twin, scan2, loc2)) if twin == vm => Some((
                        scan2,
                        format!("vm {vm} duplicated: {} and {}", at(loc), at(loc2)),
                    )),
                    _ => None,
                },
                Some((_, &l)) => Some((
                    scan,
                    format!("vm {vm} at {} but ledger says {l:?}", at(loc)),
                )),
                None => Some((
                    scan,
                    format!("vm {vm} at {} but not in the ledger", at(loc)),
                )),
            };
            if let Some(f) = fault.filter(|f| first.as_ref().is_none_or(|g| f.0 < g.0)) {
                first = Some(f);
            }
        }
        if let Some((_, msg)) = first {
            return Err(msg);
        }
        match lost.or_else(|| ledger.next().map(|(&vm, _)| vm)) {
            Some(vm) => Err(format!(
                "vm {vm} is in the ledger but placed nowhere (lost)"
            )),
            None => Ok(()),
        }
    }

    // --- accessors -------------------------------------------------------

    /// The probe-only config every host boots (and reboots) into; each
    /// host's config is it plus the host's tenants.
    pub fn boot_config(&self) -> &HostConfig {
        &self.boot.cfg
    }

    /// Control-plane counters.
    pub fn counters(&self) -> &FleetCounters {
        &self.counters
    }

    /// Replan-rung provenance counters.
    pub fn rungs(&self) -> &RungCounters {
        &self.rungs
    }

    /// The shared plan cache (hit/miss accounting).
    pub fn cache(&self) -> &SharedPlanCache {
        &self.cache
    }

    /// Wall-clock ledger of [`Fleet::step`], per phase, since boot.
    pub fn step_phases(&self) -> &StepPhases {
        &self.phases
    }

    /// Aggregate dense-batching counters across the live host simulators:
    /// the simulation done so far, so call [`Fleet::settle`] first for the
    /// counters of every host at the last step's time. They are accounting
    /// and depend on where the catch-ups fell: `batch_entries`,
    /// `batch_exits` and `fallback_horizon` count `run_until` calls, and a
    /// call that reaches a slice no window can certify (a corrupted table's)
    /// is declined whole, which moves `fallback_window` and
    /// `batched_events`. Counters die with a crashed host's simulator, so
    /// this reports the currently running fleet, not a lifetime total.
    pub fn batch_stats(&self) -> xensim::stats::BatchStats {
        let mut total = xensim::stats::BatchStats::default();
        for h in &self.hosts {
            if let Some(sim) = &h.sim {
                let b = sim.stats().batch;
                total.batched_events += b.batched_events;
                total.batch_entries += b.batch_entries;
                total.batch_exits += b.batch_exits;
                total.fallback_horizon += b.fallback_horizon;
                total.fallback_block += b.fallback_block;
                total.fallback_window += b.fallback_window;
            }
        }
        total
    }

    /// Retired, always zero: the partitioned simulator engine these
    /// counters described is gone (DESIGN.md §5.14). Kept only because the
    /// end-to-end benchmark reads it; delete with the benchmark-side
    /// follow-up (ROADMAP item 1).
    pub fn pdes_stats(&self) -> PdesStats {
        PdesStats::default()
    }

    /// Admission-to-committed-install latency distribution (fleet time).
    pub fn admit_to_install(&self) -> &Histogram {
        &self.admit_to_install
    }

    /// Current location of a live VM.
    pub fn location(&self, vm: u64) -> Option<VmLocation> {
        self.locations.get(&vm).copied()
    }

    /// Number of VMs the fleet currently owns.
    pub fn live_vms(&self) -> usize {
        self.locations.len()
    }

    /// Per-host control-plane states.
    pub fn states(&self) -> Vec<HostState> {
        self.hosts.iter().map(|h| h.state).collect()
    }

    /// Control-plane backlog: dirty hosts plus queued VMs. Drives the
    /// backpressure ladder and the experiment's convergence assertion.
    pub fn backlog(&self) -> usize {
        self.evacuating.len() + self.parked.len() + self.hosts.iter().filter(|h| h.dirty).count()
    }

    /// VMs awaiting re-placement (evacuating + parked).
    pub fn displaced(&self) -> usize {
        self.evacuating.len() + self.parked.len()
    }

    // --- internals -------------------------------------------------------

    /// Runs host `i`'s simulator to the last step's `now`, the time an
    /// every-epoch advance would have it at when this step's corruptions and
    /// installs act on it (that advance ran after them). Nothing to do
    /// before the first step, on a down host, or on a host rebooted in the
    /// current step (`epoch_base` past the last step): its simulator has
    /// not run yet either way.
    fn sync(&mut self, i: usize) {
        let Some(last) = self.last_step else {
            return;
        };
        let h = &mut self.hosts[i];
        let Some(sim) = h.sim.as_mut().filter(|_| last >= h.epoch_base) else {
            return;
        };
        let t0 = Instant::now();
        sim.run_until(last - h.epoch_base);
        self.phases.host_sims_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Plans `next` for a host: the shared cache first (identically shaped
    /// hosts resolve to one entry), then one run of the fallback ladder
    /// with the host's running plan as the donor (single-VM churn touches
    /// one bin). A delta is inserted into the cache under the *new* shape,
    /// so sibling hosts walking the same churn sequence hit it; a full
    /// plan is the cache's miss, and is stored. Returns the plan and the
    /// rung that produced it, or the planner's failure. Every rung returns
    /// `plan(next, opts)` field for field, so which one answers — and with
    /// it everything the cache's capacity and eviction order decide — moves
    /// only the rung counters.
    fn replan(
        cache: &SharedPlanCache,
        prev: Option<(&HostConfig, &Plan)>,
        next: &HostConfig,
        opts: &PlannerOptions,
    ) -> Result<(Arc<Plan>, Rung), ReplanError> {
        if let Some(p) = cache.lookup(next, opts) {
            return Ok((p, Rung::CacheHit));
        }
        let out = plan_with_fallback(prev, next, opts)
            .inspect_err(|_| cache.record_miss(next, opts, None))?;
        let plan = Arc::new(out.plan);
        let rung = match out.path {
            ReplanPath::Delta => {
                cache.insert(next, opts, Arc::clone(&plan));
                Rung::Ladder(ReplanPath::Delta)
            }
            ReplanPath::Full => {
                cache.record_miss(next, opts, Some(Arc::clone(&plan)));
                Rung::CachePlan
            }
            // `Incremental` and `FullConservative`: retired, never returned.
            path => {
                cache.record_miss(next, opts, None);
                Rung::Ladder(path)
            }
        };
        Ok((plan, rung))
    }

    /// The one way a host's tenants change (admission, re-placement,
    /// teardown, resize): plans the boot config plus `tenants`, in order,
    /// through [`Fleet::replan`] and, if that plan can reach the
    /// dispatcher, commits the tenants, their demand, the config, the plan
    /// and the rung together and marks the host for install. On failure
    /// nothing changes and the ladder's trail is returned.
    fn commit_tenants(&mut self, host: usize, tenants: Vec<Tenant>) -> Result<(), ReplanError> {
        let next = host_config(&self.boot.cfg, &tenants);
        let h = &self.hosts[host];
        let prev = Some((&h.host_cfg, &*h.plan));
        let (plan, rung) = Self::replan(&self.cache, prev, &next, &self.planner)?;
        // A plan whose hyperperiod or width drifted cannot reach the
        // dispatcher (the install protocol would reject it): treat it as
        // infeasible rather than wedging the host. No rung failed, so the
        // trail is empty.
        let boot = &self.boot.plan.table;
        if plan.table.len() != boot.len() || plan.table.n_cores() != boot.n_cores() {
            return Err(ReplanError {
                attempts: Vec::new(),
            });
        }
        let h = &mut self.hosts[host];
        h.committed_ppm = tenants.iter().map(|t| demand(t.flavor)).sum();
        h.tenants = tenants;
        h.host_cfg = next;
        h.plan = plan;
        h.dirty = true;
        self.rungs.bump(rung);
        Ok(())
    }

    /// Places `vm` on the first of `hosts` whose grown tenant list plans
    /// and stays installable, counting each host asked in `tried`.
    fn place(
        &mut self,
        hosts: &[usize],
        vm: u64,
        flavor: Flavor,
        requested_at: Option<Nanos>,
        tried: &mut usize,
    ) -> Option<usize> {
        for &h in hosts {
            *tried += 1;
            let mut tenants = self.hosts[h].tenants.clone();
            tenants.push(Tenant { vm, flavor });
            if self.commit_tenants(h, tenants).is_ok() {
                self.hosts[h].awaiting.extend(requested_at.map(|t| (vm, t)));
                return Some(h);
            }
        }
        None
    }

    /// Removes a tenant from a host and replans the shrunk config. A
    /// (practically impossible) failed shrink replan keeps the running
    /// plan and the config it came from, the delta rung's baseline: the
    /// departed VM's slots idle until the next successful replan.
    fn remove_tenant(&mut self, host: usize, vm: u64) {
        let h = &mut self.hosts[host];
        let Some(pos) = h.tenants.iter().position(|t| t.vm == vm) else {
            return;
        };
        h.awaiting.retain(|&(w, _)| w != vm);
        let mut tenants = h.tenants.clone();
        tenants.remove(pos);
        if self.commit_tenants(host, tenants).is_err() {
            let h = &mut self.hosts[host];
            let gone = h.tenants.remove(pos);
            h.committed_ppm -= demand(gone.flavor);
        }
    }

    fn resize_in_place(&mut self, host: usize, vm: u64, flavor: Flavor) -> Result<(), FleetError> {
        let mut tenants = self.hosts[host].tenants.clone();
        let Some(t) = tenants.iter_mut().find(|t| t.vm == vm) else {
            return Err(FleetError::UnknownVm(vm));
        };
        t.flavor = flavor;
        match self.commit_tenants(host, tenants) {
            Ok(()) => {
                self.counters.resizes += 1;
                Ok(())
            }
            Err(error) => {
                self.counters.resize_rejections += 1;
                Err(FleetError::ResizeInfeasible { vm, error })
            }
        }
    }

    fn apply_host_faults(&mut self, now: Nanos) {
        for i in 0..self.hosts.len() {
            // Restarts first: a host whose outage elapsed comes back empty.
            if let HostState::Down { until } = self.hosts[i].state {
                if now >= until {
                    self.hosts[i] = FleetHost::boot(i, &self.boot, now);
                    self.counters.restarts += 1;
                }
            }
            // Crashes: fire the next un-processed window that has started.
            let f = &mut self.faults[i];
            if let Some(&(from, until)) = f.crashes.get(f.next_crash) {
                if from <= now && self.hosts[i].state != (HostState::Down { until }) {
                    f.next_crash += 1;
                    if !matches!(self.hosts[i].state, HostState::Down { .. }) {
                        self.crash_host(i, now, until);
                    }
                }
            }
            // Degradation windows (only state-relevant while up).
            if !matches!(self.hosts[i].state, HostState::Down { .. }) {
                let degraded = self.faults[i]
                    .degrades
                    .iter()
                    .any(|&(from, until)| from <= now && now < until);
                let was = self.hosts[i].state;
                self.hosts[i].state = if degraded {
                    HostState::Degraded
                } else {
                    HostState::Online
                };
                if was == HostState::Online && degraded {
                    self.counters.degradations += 1;
                }
            }
        }
    }

    /// Fires every corruption event due at `now` on a live host: the
    /// host's installed table is overwritten in place with a seeded
    /// mutation, underneath the install protocol. Events due while a host
    /// is down are consumed without effect (the table they would have
    /// corrupted no longer exists).
    fn inject_corruptions(&mut self, now: Nanos) {
        for i in 0..self.hosts.len() {
            while let Some(&ev) = self.faults[i]
                .corruptions
                .get(self.faults[i].next_corruption)
            {
                if ev.at > now {
                    break;
                }
                self.faults[i].next_corruption += 1;
                if self.hosts[i].sim.is_none() {
                    continue;
                }
                self.sync(i);
                let kind = CorruptionKind::ALL[(ev.class % 3) as usize];
                let Some(live) = self.hosts[i]
                    .tableau()
                    .map(|tab| tab.dispatcher().newest_table())
                else {
                    continue;
                };
                // The event's salt seeds the mutation; salts that pick a
                // no-op (e.g. a swap of two identical probe ids) slide to
                // the next one.
                let corrupted =
                    (0..16u64).find_map(|k| corrupt_table(live, kind, ev.salt.wrapping_add(k)));
                let (Some(bad), Some(tab)) = (corrupted, self.hosts[i].tableau_mut()) else {
                    continue;
                };
                if tab.dispatcher_mut().corrupt_newest_table(bad).is_ok() {
                    self.counters.corruptions_injected += 1;
                    self.hosts[i].pending_corruptions += 1;
                }
            }
        }
    }

    /// Per host, whether the table its dispatcher points at right now
    /// violates the facts of the image installed there (`false` while the
    /// host is down).
    ///
    /// Every live host is audited every epoch against its own dispatcher's
    /// bytes. What is shared is the derivation: hosts whose dispatchers
    /// point at the same table get that table's facts derived once. Hosts
    /// are grouped by the live pointer — never by what they are believed to
    /// run — and the grouping dies with the pass; within one pass it is
    /// exact, because an `Arc<Table>` has no `&mut` path and nothing is
    /// installed, corrupted or freed while the pass runs.
    fn audit_verdicts(&self) -> Vec<bool> {
        // (live table, host), ordered by the table's address.
        let mut live: Vec<(&Table, usize)> = self
            .hosts
            .iter()
            .filter_map(|h| Some((h.tableau()?.dispatcher().newest_table(), h.id)))
            .collect();
        live.sort_unstable_by_key(|&(table, host)| (table as *const Table, host));
        let mut violated = vec![false; self.hosts.len()];
        for group in live.chunk_by(|a, b| std::ptr::eq(a.0, b.0)) {
            let live_facts = TableFacts::derive(group[0].0);
            for &(_, host) in group {
                violated[host] = self.hosts[host].installed.facts != live_facts;
            }
        }
        violated
    }

    /// Re-checks every live host's installed table against the facts of the
    /// image the control plane installed there. A violation on a host with
    /// outstanding corruptions counts them detected, marks the host dirty,
    /// and lets the ordinary install pipeline repair it (the target plan is
    /// still sound — only the installed copy was damaged). A violation with
    /// no outstanding corruption is an audit false positive and must never
    /// happen.
    fn audit_tables(&mut self) {
        for (i, violated) in self.audit_verdicts().into_iter().enumerate() {
            if !violated {
                continue;
            }
            let h = &mut self.hosts[i];
            // A corruption landing while the repair install is still
            // pending (backoff, degradation, or a storm is deferring it) is
            // seen here too, and the same install repairs it.
            self.counters.corruptions_detected += h.pending_corruptions;
            let fresh = std::mem::take(&mut h.pending_corruptions) > 0;
            if h.audit_flagged {
                continue;
            }
            if !fresh {
                self.counters.audit_false_positives += 1;
                continue;
            }
            h.audit_flagged = true;
            // Re-install the (sound) target plan over the damaged copy.
            h.dirty = true;
        }
    }

    /// Kills a host: it is left probe-only on the boot image without a
    /// simulator until it restarts; its tenants enter the evacuation queue
    /// (latency attribution preserved for VMs still awaiting their first
    /// install), and corruptions not yet counted died with its table.
    fn crash_host(&mut self, i: usize, now: Nanos, until: Nanos) {
        self.counters.crashes += 1;
        let down = HostState::Down {
            until: until.max(now + Nanos(1)),
        };
        let h = std::mem::replace(&mut self.hosts[i], FleetHost::empty(i, &self.boot, down));
        let awaiting: BTreeMap<u64, Nanos> = h.awaiting.into_iter().collect();
        for t in h.tenants {
            self.locations.insert(t.vm, VmLocation::Evacuating);
            self.evacuating.push(
                t.vm,
                EvacVm {
                    vm: t.vm,
                    flavor: t.flavor,
                    requested_at: awaiting.get(&t.vm).copied(),
                    attempts: 0,
                    next_try: now,
                },
            );
        }
        self.counters.corruptions_lost_to_crash += h.pending_corruptions;
    }

    /// Re-places a displaced VM through the same candidate ladder as
    /// admission (without touching the admission counters).
    fn place_displaced(&mut self, e: &EvacVm) -> Option<usize> {
        let hosts = self.candidates(demand(e.flavor), true, &[]);
        self.place(&hosts, e.vm, e.flavor, e.requested_at, &mut 0)
    }

    /// The one candidate ladder behind admission and re-placement: of the
    /// placeable hosts with `demand` ppm to spare (and not in `skip`), the
    /// first `placement_candidates` in best-fit order — tightest remaining
    /// headroom, ties to the lowest id — or, first-fit, in ascending id. One scan in id order keeping the
    /// running best few; no host list is built or sorted.
    fn candidates(&self, demand: u64, best_fit: bool, skip: &[usize]) -> Vec<usize> {
        let k = PLACEMENT_CANDIDATES;
        let budget = self.budget_ppm;
        let fits = self.hosts.iter().filter(|h| {
            h.placeable() && h.committed_ppm + demand <= budget && !skip.contains(&h.id)
        });
        if !best_fit {
            return fits.take(k).map(|h| h.id).collect();
        }
        let mut best: Vec<(u64, usize)> = Vec::with_capacity(k + 1);
        for h in fits {
            let headroom = budget - h.committed_ppm - demand;
            if best.len() == k && headroom >= best[k - 1].0 {
                continue;
            }
            // After every entry at most this tight: equal headroom keeps
            // the earlier (lower) id in front.
            let at = best.partition_point(|&(kept, _)| kept <= headroom);
            best.insert(at, (headroom, h.id));
            best.truncate(k);
        }
        best.into_iter().map(|(_, id)| id).collect()
    }

    /// One pass over the evacuating (or, with `parked`, the parked) queue:
    /// each VM whose retry time has come is re-placed or backs off. A VM
    /// past its evacuation budget is parked and retried at the slow parked
    /// cadence. Survivors keep FIFO order, and the drain resets the
    /// queue's tombstoned slots from this epoch's teardowns.
    fn retry_displaced(&mut self, now: Nanos, parked: bool) {
        let queue = if parked {
            &mut self.parked
        } else {
            &mut self.evacuating
        };
        for mut e in queue.drain() {
            if now >= e.next_try {
                if let Some(h) = self.place_displaced(&e) {
                    if parked {
                        self.counters.unparked += 1;
                    } else {
                        self.counters.evacuated_vms += 1;
                    }
                    self.locations.insert(e.vm, VmLocation::Placed(h));
                    continue;
                }
                e.attempts = e.attempts.saturating_add(1);
                self.counters.evacuation_retries += 1;
                e.next_try = now
                    + if e.attempts > EVAC_RETRY.budget {
                        PARKED_RETRY_INTERVAL
                    } else {
                        EVAC_RETRY.delay(e.attempts)
                    };
            }
            if e.attempts <= EVAC_RETRY.budget {
                self.evacuating.push(e.vm, e);
                continue;
            }
            if !parked {
                self.counters.parked += 1;
                self.locations.insert(e.vm, VmLocation::Parked);
            }
            self.parked.push(e.vm, e);
        }
    }

    fn process_installs(&mut self, now: Nanos) {
        let in_storm = self
            .storm_windows
            .iter()
            .any(|&(from, until)| from <= now && now < until);
        // Host order throughout, so the storm RNG draws one value per
        // *eligible* host in ascending id.
        for i in 0..self.hosts.len() {
            let h = &self.hosts[i];
            if h.state != HostState::Online
                || !h.dirty
                || now < h.next_install_try
                || h.sim.is_none()
            {
                continue;
            }
            // The shared image of this plan's masked table: a lookup by
            // content for all but the first host to install it.
            let Ok(image) = self.images.intern(&h.plan.table) else {
                // Cannot happen (filtering keeps allocations sorted and
                // in range), but never panic the control plane.
                self.counters.installs_rejected += 1;
                self.hosts[i].dirty = false;
                continue;
            };
            let interrupted = in_storm
                && self
                    .engine
                    .as_mut()
                    .is_some_and(|e| e.storm_interrupts_install());
            self.sync(i);
            let h = &mut self.hosts[i];
            let local = h.local(now);
            let epoch_base = h.epoch_base;
            let Some(tab) = h.tableau_mut() else {
                continue;
            };
            let d = tab.dispatcher_mut();
            // Epochs every core has left stop pinning their images.
            d.collect_garbage();
            match d.try_table_switch(image.table.clone(), local, interrupted) {
                Ok(Some(switch_local)) => {
                    let switch_at = switch_local + epoch_base;
                    let h = &mut self.hosts[i];
                    h.dirty = false;
                    h.install_attempts = 0;
                    h.next_install_try = Nanos::ZERO;
                    h.installed = image;
                    if std::mem::take(&mut h.audit_flagged) {
                        // Corruptions that left the flagged table audit-clean
                        // again (one undoing another) are repaired with it.
                        self.counters.corruptions_detected +=
                            std::mem::take(&mut h.pending_corruptions);
                    }
                    self.counters.installs += 1;
                    for (_, req) in h.awaiting.drain(..) {
                        self.admit_to_install.record(switch_at - req);
                    }
                }
                Ok(None) => {
                    let h = &mut self.hosts[i];
                    h.install_attempts += 1;
                    self.counters.install_retries += 1;
                    if h.install_attempts > INSTALL_RETRY.budget {
                        self.counters.install_budget_exhaustions += 1;
                        h.next_install_try = now + INSTALL_RETRY.cap;
                    } else {
                        h.next_install_try = now + INSTALL_RETRY.delay(h.install_attempts);
                    }
                }
                Err(_) => {
                    // Typed rejection (shape drift / staged race): drop the
                    // plan, keep the old table running. The VMs stay placed
                    // and the next successful replan re-dirties the host.
                    let h = &mut self.hosts[i];
                    self.counters.installs_rejected += 1;
                    h.dirty = false;
                    h.awaiting.clear();
                }
            }
        }
        self.images.reclaim();
    }
}

/// Test census of the image store: `(entries, distinct tables in use)`. In
/// use are the pinned boot image, every host's audit baseline, and every
/// table a live dispatcher holds for an uncollected epoch — a corrupted
/// host's private copy among them, which the store never sees.
#[cfg(test)]
fn image_census(fleet: &Fleet) -> (usize, usize) {
    let mut used = std::collections::BTreeSet::new();
    used.insert(Arc::as_ptr(&fleet.boot.image.table));
    for h in &fleet.hosts {
        used.insert(Arc::as_ptr(&h.installed.table));
        if let Some(tab) = h.tableau() {
            used.extend(tab.dispatcher().held_tables().iter().map(Arc::as_ptr));
        }
    }
    (fleet.images.len(), used.len())
}

#[cfg(test)]
mod prop_images;

#[cfg(test)]
mod tests {
    use super::*;

    fn flavor(vcpus: usize, ppm: u32) -> Flavor {
        Flavor {
            vcpus,
            utilization_ppm: ppm,
        }
    }

    fn small_fleet(n_hosts: usize) -> Fleet {
        Fleet::new(FleetConfig::new(n_hosts, 2)).expect("boot plan")
    }

    #[test]
    fn the_boot_table_salts_that_yield_a_corruption_are_pinned() {
        // `corrupt_newest_table` retries salts until `corrupt_table`
        // accepts one, so which salts the boot image accepts (bit `k` =
        // salt `k`) decides what every chaos replay damages. Read off the
        // parent of the change that made the segment arrays the table.
        let fleet = small_fleet(1);
        let accepted = CorruptionKind::ALL.map(|kind| {
            let hit = |&salt: &u64| corrupt_table(&fleet.boot.image.table, kind, salt).is_some();
            (0..64u64)
                .filter(hit)
                .fold(0u64, |mask, salt| mask | 1 << salt)
        });
        assert_eq!(
            accepted,
            [0xffbd_fefb_ebfe_edff, 0x0e00_0000_0040_1100, u64::MAX],
            "{accepted:#018x?}"
        );
    }

    fn epochs(fleet: &mut Fleet, from: Nanos, n: u64) -> Nanos {
        let epoch = Nanos::from_millis(50);
        let mut now = from;
        for _ in 0..n {
            now += epoch;
            fleet.step(now);
            fleet.check_conservation().expect("conservation");
        }
        now
    }

    #[test]
    fn admission_places_installs_and_records_latency() {
        let mut fleet = small_fleet(2);
        let t0 = Nanos::from_millis(1);
        let h = fleet.admit(t0, 1, flavor(1, 250_000)).expect("admits");
        assert_eq!(fleet.location(1), Some(VmLocation::Placed(h)));
        assert_eq!(fleet.counters().admissions, 1);
        epochs(&mut fleet, Nanos::ZERO, 4);
        assert_eq!(fleet.counters().installs, 1);
        assert_eq!(fleet.admit_to_install().count(), 1);
        assert!(fleet.admit_to_install().max() > Nanos::ZERO);
        let r = *fleet.rungs();
        assert!(r.cache_plan + r.cache_hit + r.delta >= 1);
    }

    #[test]
    fn conservation_failures_name_the_vm_and_where_it_was_found() {
        let mut fleet = small_fleet(2);
        let h = fleet
            .admit(Nanos::from_millis(1), 7, flavor(1, 250_000))
            .expect("admits");
        fleet.check_conservation().expect("sound fleet");

        fleet.locations.insert(7, VmLocation::Parked);
        assert_eq!(
            fleet.check_conservation().unwrap_err(),
            format!("vm 7 at host{h} but ledger says Parked")
        );
        fleet.locations.remove(&7);
        assert_eq!(
            fleet.check_conservation().unwrap_err(),
            format!("vm 7 at host{h} but not in the ledger")
        );
        fleet.locations.insert(7, VmLocation::Placed(h));
        fleet.locations.insert(9, VmLocation::Evacuating);
        assert_eq!(
            fleet.check_conservation().unwrap_err(),
            "vm 9 is in the ledger but placed nowhere (lost)"
        );
        fleet.locations.remove(&9);
        let twin = fleet.hosts[h].tenants[0];
        fleet.hosts[1 - h].tenants.push(twin);
        let (lo, hi) = (h.min(1 - h), h.max(1 - h));
        assert_eq!(
            fleet.check_conservation().unwrap_err(),
            format!("vm 7 duplicated: host{lo} and host{hi}")
        );
    }

    #[test]
    fn conservation_reports_the_fault_the_scan_meets_first() {
        // Host tenant lists are scanned before the queues, each list in
        // order; the report names the first fault in that order, not the
        // smallest faulty VM id.
        let mut fleet = small_fleet(1);
        for vm in [7, 3] {
            fleet
                .admit(Nanos::from_millis(1), vm, flavor(1, 250_000))
                .expect("admits");
        }
        fleet.check_conservation().expect("sound fleet");
        assert_eq!(
            fleet.hosts[0]
                .tenants
                .iter()
                .map(|t| t.vm)
                .collect::<Vec<_>>(),
            [7, 3]
        );
        fleet.locations.insert(1, VmLocation::Parked);
        fleet.locations.remove(&3);
        fleet.locations.insert(7, VmLocation::Evacuating);
        assert_eq!(
            fleet.check_conservation().unwrap_err(),
            "vm 7 at host0 but ledger says Evacuating"
        );
        fleet.locations.insert(7, VmLocation::Placed(0));
        assert_eq!(
            fleet.check_conservation().unwrap_err(),
            "vm 3 at host0 but not in the ledger"
        );
        fleet.locations.insert(3, VmLocation::Placed(0));
        let twin = fleet.hosts[0].tenants[1];
        fleet.hosts[0].tenants.push(twin);
        assert_eq!(
            fleet.check_conservation().unwrap_err(),
            "vm 3 duplicated: host0 and host0"
        );
        fleet.hosts[0].tenants.pop();
        assert_eq!(
            fleet.check_conservation().unwrap_err(),
            "vm 1 is in the ledger but placed nowhere (lost)"
        );
    }

    #[test]
    fn identically_shaped_hosts_share_the_plan_cache() {
        // Best-fit consolidates, so host 0 fills through four shapes
        // (probes+1 … probes+4 tenants), each produced by delta-patching
        // the previous plan and memoized under the new shape. Host 1 then
        // walks the *same* shape sequence: the second host's replans are
        // all cache hits, even though the tenant names differ.
        let mut fleet = small_fleet(2);
        for vm in 0..8u64 {
            fleet
                .admit(Nanos(1), vm, flavor(1, 250_000))
                .expect("admits");
        }
        let hosts: std::collections::BTreeSet<usize> = (0..8u64)
            .map(|vm| match fleet.location(vm) {
                Some(VmLocation::Placed(h)) => h,
                other => panic!("vm {vm} not placed: {other:?}"),
            })
            .collect();
        assert_eq!(hosts.len(), 2, "the budget forces a spill to host 1");
        assert_eq!(fleet.rungs().delta, 4);
        assert_eq!(fleet.rungs().cache_hit, 4);
        assert_eq!(fleet.rungs().cache_plan, 0, "delta pre-empts full plans");
    }

    #[test]
    fn a_repeated_resize_on_a_twin_host_is_a_cache_hit() {
        // Two identically shaped hosts take the same tenant shape, then the
        // same resize: the first resize plans (a delta on its donor) and is
        // memoized under the new shape, the second is served from the cache.
        let mut fleet = small_fleet(2);
        for (host, vm) in [(0, 1), (1, 2)] {
            let placed = fleet.place(&[host], vm, flavor(1, 125_000), None, &mut 0);
            assert_eq!(placed, Some(host));
            fleet.locations.insert(vm, VmLocation::Placed(host));
        }
        let before = *fleet.rungs();
        fleet
            .resize(Nanos(2), 1, flavor(1, 250_000))
            .expect("resizes");
        let first = *fleet.rungs();
        assert_eq!(first.delta, before.delta + 1, "{first:?}");
        fleet
            .resize(Nanos(3), 2, flavor(1, 250_000))
            .expect("resizes");
        let second = *fleet.rungs();
        assert_eq!(second.cache_hit, first.cache_hit + 1, "{second:?}");
        assert_eq!(second.delta, first.delta, "{second:?}");
        assert!(Arc::ptr_eq(&fleet.hosts[0].plan, &fleet.hosts[1].plan));
        assert_eq!(fleet.counters().resizes, 2);
    }

    /// Every host's books against its tenants: the committed demand is
    /// theirs, and the config is the boot config plus them, in order.
    fn assert_books(fleet: &Fleet, call: &str) {
        for h in &fleet.hosts {
            let demand: u64 = h.tenants.iter().map(|t| demand(t.flavor)).sum();
            assert_eq!(h.committed_ppm, demand, "host {} after {call}", h.id);
            assert_eq!(
                h.host_cfg,
                host_config(&fleet.boot.cfg, &h.tenants),
                "host {} after {call}",
                h.id
            );
        }
    }

    #[test]
    fn every_host_change_keeps_the_books_of_its_tenants() {
        // A seeded admit / teardown / resize / crash / step sequence over a
        // small fleet; the books are checked after every call.
        let mut fleet = small_fleet(4);
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let flavors = [flavor(1, 125_000), flavor(1, 250_000), flavor(2, 125_000)];
        let (mut now, mut next_vm, mut owned) = (Nanos::ZERO, 0u64, Vec::new());
        for _ in 0..400 {
            now += Nanos::from_millis(10);
            let call = match draw(10) {
                0..=3 => {
                    if fleet.admit(now, next_vm, flavors[draw(3) as usize]).is_ok() {
                        owned.push(next_vm);
                    }
                    next_vm += 1;
                    "admit"
                }
                4 | 5 if !owned.is_empty() => {
                    let vm = owned.swap_remove(draw(owned.len() as u64) as usize);
                    fleet.teardown(now, vm).expect("owned");
                    "teardown"
                }
                6 if !owned.is_empty() => {
                    let vm = owned[draw(owned.len() as u64) as usize];
                    let _ = fleet.resize(now, vm, flavors[draw(3) as usize]);
                    "resize"
                }
                7 => {
                    let until = now + Nanos::from_millis(50 * (1 + draw(8)));
                    fleet.inject_crash(draw(4) as usize, now, until);
                    "crash"
                }
                _ => {
                    fleet.step(now);
                    "step"
                }
            };
            assert_books(&fleet, call);
            fleet.check_conservation().expect("conservation");
        }
        let c = fleet.counters();
        assert!(c.teardowns > 0 && c.resizes > 0 && c.crashes > 0, "{c:?}");
        assert!(c.evacuated_vms > 0 && c.restarts > 0, "{c:?}");
    }

    #[test]
    fn backoff_is_bounded_at_extreme_retry_counts() {
        // The fleet's fixed curves on the shared RetryPolicy.
        for (retry, cap) in [
            (EVAC_RETRY, Nanos::from_millis(800)),
            (INSTALL_RETRY, Nanos::from_millis(400)),
        ] {
            let base = Nanos::from_millis(50);
            assert_eq!(retry.delay(0), base);
            assert_eq!(retry.delay(1), base);
            assert_eq!(retry.delay(2), Nanos::from_millis(100));
            // Past the cap the curve pins — including shift exponents that
            // would overflow a u64 without the clamp.
            for attempt in [6, 20, 21, 63, 64, 65, 1_000, u32::MAX] {
                assert_eq!(retry.delay(attempt), cap, "attempt {attempt}");
            }
            // A cap below the base still wins.
            let tiny = RetryPolicy {
                cap: Nanos(7),
                ..retry
            };
            assert_eq!(tiny.delay(u32::MAX), Nanos(7));
        }
    }

    #[test]
    fn backpressure_hysteresis_does_not_flap_around_the_threshold() {
        let (threshold, hysteresis) = (8, 2);
        // Climbing to the threshold never engages first-fit.
        let mut p = false;
        for backlog in [7, 8, 7, 8, 8] {
            p = pressured_next(p, backlog, threshold, hysteresis);
            assert!(!p, "backlog {backlog} must not engage first-fit");
        }
        // One excursion engages it; oscillating ±1 around the threshold
        // afterwards keeps the policy pinned (no alternation).
        p = pressured_next(p, 9, threshold, hysteresis);
        assert!(p);
        for backlog in [8, 9, 8, 7, 9, 8, 7] {
            p = pressured_next(p, backlog, threshold, hysteresis);
            assert!(p, "backlog {backlog} inside the band must stay pinned");
        }
        // Only falling through the band releases it...
        p = pressured_next(p, 6, threshold, hysteresis);
        assert!(!p);
        // ...and re-engaging needs a full threshold crossing again.
        p = pressured_next(p, 8, threshold, hysteresis);
        assert!(!p);
        // Zero hysteresis degenerates to the bare comparison.
        assert!(pressured_next(true, 9, 8, 0));
        assert!(!pressured_next(true, 8, 8, 0));
        // A band wider than the threshold saturates at zero backlog.
        assert!(pressured_next(true, 1, 3, 10));
        assert!(!pressured_next(true, 0, 3, 10));
    }

    #[test]
    fn teardown_returns_capacity() {
        let mut fleet = small_fleet(1);
        fleet
            .admit(Nanos(1), 7, flavor(2, 500_000))
            .expect("admits");
        assert!(matches!(
            fleet.teardown(Nanos(2), 99),
            Err(FleetError::UnknownVm(99))
        ));
        fleet.teardown(Nanos(2), 7).expect("tears down");
        assert_eq!(fleet.live_vms(), 0);
        fleet.check_conservation().expect("conservation");
        // The capacity is admittable again.
        fleet
            .admit(Nanos(3), 8, flavor(2, 500_000))
            .expect("re-admits");
    }

    #[test]
    fn overload_sheds_with_typed_rejection_and_loses_nothing() {
        let mut fleet = small_fleet(1);
        let mut placed = 0u64;
        let mut shed = 0u64;
        for vm in 0..64 {
            match fleet.admit(Nanos(1), vm, flavor(1, 250_000)) {
                Ok(_) => placed += 1,
                Err(AdmissionRejected::NoCapacity { .. }) => shed += 1,
                Err(e) => panic!("unexpected rejection kind: {e}"),
            }
        }
        assert!(placed > 0 && shed > 0, "{placed} placed, {shed} shed");
        assert_eq!(fleet.counters().admissions_shed, shed);
        assert_eq!(fleet.live_vms() as u64, placed);
        fleet.check_conservation().expect("conservation");
    }

    #[test]
    fn crash_evacuates_every_vm_and_converges() {
        let mut fleet = small_fleet(3);
        for vm in 0..6u64 {
            fleet
                .admit(Nanos(1), vm, flavor(1, 125_000))
                .expect("admits");
        }
        let now = epochs(&mut fleet, Nanos::ZERO, 4);
        // Crash host 0 by hand (windows injected directly).
        let until = now + Nanos::from_millis(500);
        fleet.faults[0].crashes = vec![(now, until)];
        let now = epochs(&mut fleet, now, 12);
        assert_eq!(fleet.counters().crashes, 1);
        assert_eq!(fleet.displaced(), 0, "evacuation must converge");
        assert_eq!(fleet.live_vms(), 6, "no VM lost across the crash");
        for vm in 0..6u64 {
            match fleet.location(vm) {
                Some(VmLocation::Placed(h)) => assert_ne!(
                    fleet.states()[h],
                    HostState::Down { until },
                    "vm {vm} on a dead host"
                ),
                other => panic!("vm {vm} not placed after evacuation: {other:?}"),
            }
        }
        // The crashed host restarts empty and serves again.
        let _ = epochs(&mut fleet, now, 12);
        assert_eq!(fleet.counters().restarts, 1);
        assert!(matches!(fleet.states()[0], HostState::Online));
    }

    #[test]
    fn evacuation_overflow_parks_instead_of_losing() {
        // Two hosts, both nearly full; crash one. The displaced VMs cannot
        // all fit and must end up parked — owned, not lost.
        let mut fleet = small_fleet(2);
        let mut vms = Vec::new();
        for vm in 0..64u64 {
            if fleet.admit(Nanos(1), vm, flavor(1, 250_000)).is_ok() {
                vms.push(vm);
            }
        }
        let now = epochs(&mut fleet, Nanos::ZERO, 4);
        fleet.faults[0].crashes = vec![(now, now + Nanos::from_secs(3600))];
        let _ = epochs(&mut fleet, now, 40);
        assert!(fleet.counters().parked > 0, "some VMs must park");
        assert_eq!(fleet.live_vms(), vms.len(), "every admitted VM still owned");
    }

    #[test]
    fn parked_vms_resume_when_capacity_returns() {
        let mut fleet = small_fleet(2);
        for vm in 0..64u64 {
            let _ = fleet.admit(Nanos(1), vm, flavor(1, 250_000));
        }
        let live = fleet.live_vms();
        let now = epochs(&mut fleet, Nanos::ZERO, 4);
        // A short outage: the host comes back while VMs are still parked.
        fleet.faults[0].crashes = vec![(now, now + Nanos::from_millis(400))];
        let _ = epochs(&mut fleet, now, 120);
        assert_eq!(fleet.live_vms(), live);
        assert_eq!(fleet.displaced(), 0, "parked VMs must eventually re-place");
        assert!(fleet.counters().unparked > 0 || fleet.counters().parked == 0);
        assert_eq!(fleet.counters().restarts, 1);
    }

    #[test]
    fn resize_in_place_replans_or_rejects_typed() {
        let mut fleet = small_fleet(1);
        fleet
            .admit(Nanos(1), 1, flavor(1, 125_000))
            .expect("admits");
        fleet
            .resize(Nanos(2), 1, flavor(1, 250_000))
            .expect("resizes up");
        assert_eq!(fleet.counters().resizes, 1);
        // An impossible resize (past total capacity) is rejected and the
        // old flavor survives.
        let err = fleet.resize(Nanos(3), 1, flavor(8, 900_000));
        assert!(matches!(
            err,
            Err(FleetError::ResizeInfeasible { vm: 1, .. })
        ));
        assert_eq!(fleet.counters().resize_rejections, 1);
        fleet.check_conservation().expect("conservation");
        epochs(&mut fleet, Nanos::ZERO, 4);
    }

    #[test]
    fn rejected_resize_reports_the_ladder_trail_and_touches_nothing() {
        let mut fleet = small_fleet(1);
        fleet
            .admit(Nanos(1), 1, flavor(1, 125_000))
            .expect("admits");
        fleet
            .admit(Nanos(1), 2, flavor(1, 250_000))
            .expect("admits");
        epochs(&mut fleet, Nanos::ZERO, 4);
        let flavors = |fleet: &Fleet| -> Vec<(u64, Flavor)> {
            let tenants = fleet.hosts[0].tenants.iter();
            tenants.map(|t| (t.vm, t.flavor)).collect()
        };
        let tenants = flavors(&fleet);
        let (committed, plan, dirty) = {
            let h = &fleet.hosts[0];
            (h.committed_ppm, h.plan.clone(), h.dirty)
        };
        assert!(!dirty, "installs settled");
        let (rungs, resizes) = (fleet.rungs, fleet.counters().resizes);

        // What the ladder itself says about the impossible shape.
        let huge = flavor(8, 900_000);
        let resized: Vec<Tenant> = tenants
            .iter()
            .map(|&(vm, flavor)| Tenant {
                vm,
                flavor: if vm == 2 { huge } else { flavor },
            })
            .collect();
        let next = host_config(&fleet.boot.cfg, &resized);
        let h = &fleet.hosts[0];
        let want = plan_with_fallback(Some((&h.host_cfg, &h.plan)), &next, &fleet.planner)
            .expect_err("over capacity on every rung");
        assert!(!want.attempts.is_empty());

        match fleet.resize(Nanos::from_millis(300), 2, huge) {
            Err(FleetError::ResizeInfeasible { vm: 2, error }) => {
                assert_eq!(error.attempts, want.attempts);
            }
            other => panic!("expected ResizeInfeasible for vm 2, got {other:?}"),
        }
        let h = &fleet.hosts[0];
        assert_eq!(flavors(&fleet), tenants, "the VM keeps its flavor");
        assert_eq!(h.committed_ppm, committed);
        assert!(Arc::ptr_eq(&h.plan, &plan), "the plan is the same plan");
        assert_eq!(h.dirty, dirty);
        assert_eq!(fleet.rungs, rungs, "a rejection bumps no rung");
        assert_eq!(fleet.counters().resizes, resizes);
        assert_eq!(fleet.counters().resize_rejections, 1);
        fleet.check_conservation().expect("conservation");
    }

    #[test]
    fn install_storms_retry_with_backoff_and_commit_eventually() {
        use xensim::fault::{HostFaultConfig, InstallStormFaults};
        let mut fleet = small_fleet(2);
        let horizon = Nanos::from_secs(30);
        fleet.arm_faults(
            HostFaultConfig {
                seed: 5,
                storm: InstallStormFaults {
                    interval: Nanos::from_millis(400),
                    duration: Nanos::from_millis(300),
                    interrupt_prob: 0.9,
                },
                ..HostFaultConfig::none()
            },
            horizon,
        );
        // Sustained churn: one admission per epoch, teardowns six epochs
        // behind, so installs keep landing inside storm windows.
        let epoch = Nanos::from_millis(50);
        let mut now = Nanos::ZERO;
        for k in 0..200u64 {
            now += epoch;
            let _ = fleet.admit(now, k, flavor(1, 125_000));
            if k >= 6 {
                let _ = fleet.teardown(now, k - 6);
            }
            fleet.step(now);
            fleet.check_conservation().expect("conservation");
        }
        let c = *fleet.counters();
        assert!(c.install_retries > 0, "storms must interrupt installs");
        assert!(c.installs > 0, "installs must still commit");
        assert!(
            fleet.admit_to_install().count() > 0,
            "admissions eventually measure a committed install"
        );
    }

    #[test]
    fn zero_rate_fault_config_arms_nothing() {
        let mut fleet = small_fleet(2);
        fleet.arm_faults(HostFaultConfig::chaos(9, 0.0), Nanos::from_secs(10));
        assert!(fleet.engine.is_none());
        assert!(fleet
            .faults
            .iter()
            .all(|f| f.crashes.is_empty() && f.degrades.is_empty() && f.corruptions.is_empty()));
        assert!(fleet.storm_windows.is_empty());
    }

    #[test]
    fn every_corruption_class_is_detected_and_repaired_within_an_epoch() {
        for class in 0..3u8 {
            let mut fleet = small_fleet(1);
            fleet
                .admit(Nanos(1), 1, flavor(1, 250_000))
                .expect("admits");
            let now = epochs(&mut fleet, Nanos::ZERO, 4);
            let installs_before = fleet.counters().installs;
            assert!(installs_before >= 1);
            // Inject one event of this class by hand (the seeded engine
            // drives the same path).
            fleet.faults[0].corruptions = vec![CorruptionEvent {
                at: now + Nanos(1),
                class,
                salt: 7,
            }];
            // Epoch 1: inject -> audit flags -> repair install commits.
            let now = epochs(&mut fleet, now, 1);
            let c = *fleet.counters();
            assert_eq!(c.corruptions_injected, 1, "class {class} injected");
            assert_eq!(c.corruptions_detected, 1, "class {class} detected");
            assert_eq!(
                c.installs,
                installs_before + 1,
                "class {class} repaired through the install pipeline"
            );
            // Later epochs: the repaired table audits clean.
            let _ = epochs(&mut fleet, now, 4);
            let c = *fleet.counters();
            assert_eq!(c.corruptions_detected, 1, "detected exactly once");
            assert_eq!(c.audit_false_positives, 0);
            assert!(!fleet.hosts[0].audit_flagged);
        }
    }

    /// A fleet of one host whose installs a storm interrupts for the next
    /// 300 ms (the retry backoff then lands the repair at +400 ms), with
    /// `events` scheduled `(epochs from now, class, salt)`.
    fn storm_deferred_corruptions(events: &[(u64, u8, u64)]) -> (Fleet, Nanos) {
        use xensim::fault::InstallStormFaults;
        let mut fleet = small_fleet(1);
        fleet
            .admit(Nanos(1), 1, flavor(1, 250_000))
            .expect("admits");
        let now = epochs(&mut fleet, Nanos::ZERO, 4);
        fleet.arm_faults(
            HostFaultConfig {
                seed: 5,
                storm: InstallStormFaults {
                    interval: Nanos::from_secs(1),
                    duration: Nanos::from_millis(1),
                    interrupt_prob: 1.0,
                },
                ..HostFaultConfig::none()
            },
            Nanos::from_secs(10),
        );
        fleet.storm_windows = vec![(now, now + Nanos::from_millis(300))];
        fleet.faults[0].corruptions = events
            .iter()
            .map(|&(k, class, salt)| CorruptionEvent {
                at: now + Nanos(k * 50_000_000 + 1),
                class,
                salt,
            })
            .collect();
        (fleet, now)
    }

    fn corruption_ledger(fleet: &Fleet) -> (u64, u64, u64) {
        let c = fleet.counters();
        (
            c.corruptions_injected,
            c.corruptions_detected,
            c.corruptions_lost_to_crash,
        )
    }

    #[test]
    fn corruption_on_an_already_flagged_host_is_counted() {
        // Corruption -> storm-deferred repair -> second corruption ->
        // commit: the second one used to stay in `pending_corruptions`.
        let (mut fleet, mut now) = storm_deferred_corruptions(&[(0, 0, 7), (2, 2, 3)]);
        let installs_before = fleet.counters().installs;
        for k in 1..=10u64 {
            now = epochs(&mut fleet, now, 1);
            let (injected, detected, lost) = corruption_ledger(&fleet);
            assert_eq!(injected, detected + lost, "epoch {k}");
            if k == 3 {
                assert_eq!(injected, 2, "both corruptions landed");
                assert!(fleet.hosts[0].audit_flagged, "the storm defers the repair");
                assert_eq!(fleet.counters().installs, installs_before);
            }
        }
        assert_eq!(corruption_ledger(&fleet), (2, 2, 0));
        assert_eq!(fleet.counters().installs, installs_before + 1);
        assert!(fleet.counters().install_retries > 0);
        assert_eq!(fleet.counters().audit_false_positives, 0);
        assert!(!fleet.hosts[0].audit_flagged);
    }

    #[test]
    fn corruption_undoing_another_is_counted_at_the_repair_or_the_crash() {
        // The same bit flipped twice restores the audited table: the audit
        // cannot see the second flip, so the repair install (or the crash
        // that discards the table) accounts for it.
        for crash in [false, true] {
            let (mut fleet, now) = storm_deferred_corruptions(&[(0, 0, 7), (2, 0, 7)]);
            let now = epochs(&mut fleet, now, 3);
            assert_eq!(corruption_ledger(&fleet), (2, 1, 0));
            assert_eq!(fleet.hosts[0].pending_corruptions, 1);
            if crash {
                fleet.inject_crash(0, now, now + Nanos::from_millis(200));
            }
            let _ = epochs(&mut fleet, now, 10);
            assert_eq!(
                corruption_ledger(&fleet),
                (2, 1 + u64::from(!crash), crash as u64)
            );
            assert_eq!(fleet.counters().audit_false_positives, 0);
        }
    }

    /// The table `host`'s dispatcher points at, by address.
    fn live_ptr(fleet: &Fleet, host: usize) -> *const Table {
        let tab = fleet.hosts[host].tableau().expect("host is up");
        tab.dispatcher().newest_table()
    }

    #[test]
    fn a_corrupted_host_among_sharers_is_the_only_one_flagged_and_repaired() {
        use crate::images::mask_table;
        // Six hosts on one image (the boot image); host 2's copy is damaged.
        let mut fleet = small_fleet(6);
        let now = epochs(&mut fleet, Nanos::ZERO, 2);
        let shared = Arc::as_ptr(&fleet.boot.image.table);
        assert!((0..6).all(|h| live_ptr(&fleet, h) == shared));
        assert_eq!(image_census(&fleet), (1, 1));
        let clean = mask_table(&fleet.boot.plan.table, 2).expect("masks");

        let now = now + Nanos::from_millis(50);
        fleet.faults[2].corruptions = vec![CorruptionEvent {
            at: now,
            class: 1,
            salt: 3,
        }];
        // The step's phases by hand, to look between audit and repair.
        fleet.inject_corruptions(now);
        assert_eq!(fleet.counters().corruptions_injected, 1);
        let damaged = live_ptr(&fleet, 2);
        assert_ne!(damaged, shared, "corruption is copy-on-corrupt");
        for h in [0, 1, 3, 4, 5] {
            assert_eq!(live_ptr(&fleet, h), shared, "host {h} keeps its pointer");
        }
        assert_eq!(*fleet.boot.image.table, clean, "and the shared bytes");
        let oracle: Vec<bool> = (0..6)
            .map(|h| {
                let tab = fleet.hosts[h].tableau().expect("host is up");
                let live = tab.dispatcher().newest_table();
                TableFacts::derive(&clean) != TableFacts::derive(live)
            })
            .collect();
        assert_eq!(oracle, [false, false, true, false, false, false]);
        assert_eq!(fleet.audit_verdicts(), oracle);

        fleet.audit_tables();
        let flagged: Vec<bool> = fleet.hosts.iter().map(|h| h.audit_flagged).collect();
        assert_eq!(flagged, oracle, "only the damaged host is flagged");
        let dirty: Vec<bool> = fleet.hosts.iter().map(|h| h.dirty).collect();
        assert_eq!(dirty, oracle, "and only it is queued for repair");
        assert_eq!(fleet.counters().corruptions_detected, 1);
        assert_eq!(fleet.counters().audit_false_positives, 0);

        fleet.process_installs(now);
        assert_eq!(fleet.counters().installs, 1, "one repair install");
        assert!((0..6).all(|h| live_ptr(&fleet, h) == shared));
        assert!(fleet.hosts.iter().all(|h| !h.audit_flagged && !h.dirty));
        // The damaged copy is still the old epoch of host 2's dispatcher
        // until its cores switch; it never enters the store.
        assert_eq!(image_census(&fleet), (1, 2));
        assert_eq!(fleet.audit_verdicts(), [false; 6]);
    }

    #[test]
    fn a_rebooted_host_shares_the_boot_image_with_a_never_crashed_one() {
        let mut fleet = small_fleet(3);
        fleet
            .admit(Nanos(1), 1, flavor(1, 250_000))
            .expect("admits");
        let now = epochs(&mut fleet, Nanos::ZERO, 6);
        let Some(VmLocation::Placed(busy)) = fleet.location(1) else {
            panic!("vm 1 is placed");
        };
        let boot = Arc::as_ptr(&fleet.boot.image.table);
        assert_ne!(live_ptr(&fleet, busy), boot, "the tenant host moved on");

        fleet.inject_crash(busy, now, now + Nanos::from_millis(200));
        assert!(Arc::ptr_eq(&fleet.hosts[busy].installed, &fleet.boot.image));
        let _ = epochs(&mut fleet, now, 8);
        assert_eq!(fleet.counters().restarts, 1);
        let Some(VmLocation::Placed(refuge)) = fleet.location(1) else {
            panic!("vm 1 is re-placed");
        };
        let probe_only = 3 - busy - refuge;
        assert_eq!(live_ptr(&fleet, busy), boot, "reboot builds no table");
        assert_eq!(live_ptr(&fleet, busy), live_ptr(&fleet, probe_only));
        assert!(Arc::ptr_eq(&fleet.hosts[busy].installed, &fleet.boot.image));
    }

    #[test]
    fn the_image_store_holds_what_live_dispatchers_hold_and_nothing_else() {
        // 1 000 epochs of churn over a few hosts: thousands of installs,
        // a handful of distinct masked contents. After every epoch the
        // store holds exactly the tables something still points at.
        let mut fleet = small_fleet(4);
        let epoch = Nanos::from_millis(50);
        let mut now = Nanos::ZERO;
        let flavors = [flavor(1, 125_000), flavor(1, 250_000), flavor(2, 125_000)];
        let mut peak = 0;
        for k in 0..1_000u64 {
            now += epoch;
            let _ = fleet.admit(now, k, flavors[(k % 3) as usize]);
            if k >= 7 {
                let _ = fleet.teardown(now, k - 7);
            }
            fleet.step(now);
            let (stored, used) = image_census(&fleet);
            assert_eq!(stored, used, "epoch {k}");
            peak = peak.max(stored);
        }
        let installs = fleet.counters().installs;
        assert!(installs > 500, "{installs} installs");
        assert!(peak > 1, "churn must leave the boot image");
        assert!(peak < 32, "{peak} images for {installs} installs");
        // Every host back on the boot image: the churned images go once
        // the cores have switched and the epochs behind them are collected.
        for k in 993..1_000u64 {
            let _ = fleet.teardown(now, k);
        }
        let now = epochs(&mut fleet, now, 8);
        fleet.settle();
        for h in 0..4 {
            fleet.hosts[h]
                .tableau_mut()
                .expect("host is up")
                .dispatcher_mut()
                .collect_garbage();
        }
        fleet.step(now + epoch);
        assert_eq!(image_census(&fleet), (1, 1));
    }

    #[test]
    fn fleet_hosts_run_the_sequential_engine() {
        // Hosts run the default hybrid engine, and dense batching engages.
        let mut fleet = small_fleet(3);
        for vm in 0..6u64 {
            fleet
                .admit(Nanos(1), vm, flavor(1, 125_000))
                .expect("admits");
        }
        epochs(&mut fleet, Nanos::ZERO, 8);
        fleet.settle();
        assert!(fleet.batch_stats().batched_events > 0, "dense batching off");
        assert_eq!(fleet.step_phases().steps, 8);
    }

    /// One host's simulated run: stats with the batching accounting
    /// zeroed, events handled, every vCPU's pick counts and every core's
    /// table epoch.
    type HostModel = (
        xensim::SimStats,
        u64,
        Vec<schedulers::tableau::PickCounts>,
        Vec<usize>,
    );

    /// Every fleet-level observable but the batching accounting, the image
    /// store's census, and each host's simulated run. Read off a settled
    /// fleet.
    #[derive(Debug, PartialEq)]
    struct FleetModel {
        counters: FleetCounters,
        rungs: RungCounters,
        admit_to_install: serde::Value,
        cache: tableau_core::cache::CacheStats,
        steps: u64,
        locations: BTreeMap<u64, VmLocation>,
        states: Vec<HostState>,
        backlog: usize,
        census: (usize, usize),
        /// Per host, `None` while it is down.
        hosts: Vec<Option<HostModel>>,
    }

    fn model(fleet: &Fleet) -> FleetModel {
        let hosts = fleet
            .hosts
            .iter()
            .map(|h| {
                let sim = h.sim.as_ref()?;
                let mut stats = sim.stats().clone();
                stats.batch = Default::default();
                let tab = h.tableau().expect("host is up");
                let picks = (0..stats.vcpus.len() as u32)
                    .map(|v| tab.pick_counts(xensim::VcpuId(v)))
                    .collect();
                let d = tab.dispatcher();
                let epochs = (0..d.n_cores()).map(|c| d.core_epoch(c)).collect();
                Some((stats, sim.events_processed(), picks, epochs))
            })
            .collect();
        FleetModel {
            counters: *fleet.counters(),
            rungs: *fleet.rungs(),
            admit_to_install: serde::Serialize::to_value(fleet.admit_to_install()),
            cache: fleet.cache().stats(),
            steps: fleet.step_phases().steps,
            locations: fleet.locations.clone(),
            states: fleet.states(),
            backlog: fleet.backlog(),
            census: image_census(fleet),
            hosts,
        }
    }

    /// The model of a churn, install-storm and corruption replay on the
    /// given host engine (the default one with `None`), and the events its
    /// hosts advanced in dense windows.
    fn storm_and_corruption_replay(engine: Option<xensim::EngineKind>) -> (FleetModel, u64) {
        use xensim::fault::{InstallStormFaults, TableCorruptionFaults};
        let mut fleet = small_fleet(6);
        if let Some(kind) = engine {
            // Legal: no host simulator has started yet.
            for h in &mut fleet.hosts {
                h.sim.as_mut().expect("booted").set_engine(kind);
            }
        }
        fleet.arm_faults(
            HostFaultConfig {
                seed: 13,
                storm: InstallStormFaults {
                    interval: Nanos::from_millis(700),
                    duration: Nanos::from_millis(250),
                    interrupt_prob: 0.7,
                },
                corruption: TableCorruptionFaults {
                    interval: Nanos::from_millis(900),
                    prob: 0.6,
                },
                ..HostFaultConfig::none()
            },
            Nanos::from_secs(8),
        );
        let epoch = Nanos::from_millis(50);
        let mut now = Nanos::ZERO;
        for k in 0..160u64 {
            now += epoch;
            let size = if k % 3 == 0 { 125_000 } else { 250_000 };
            let _ = fleet.admit(now, k, flavor(1 + (k % 2) as usize, size));
            if k >= 8 {
                let _ = fleet.teardown(now, k - 8);
            }
            if k % 7 == 0 && k >= 4 {
                let _ = fleet.resize(now, k - 4, flavor(1, 125_000));
            }
            fleet.step(now);
            fleet.check_conservation().expect("conservation");
        }
        fleet.settle();
        (model(&fleet), fleet.batch_stats().batched_events)
    }

    #[test]
    fn unbatched_host_simulators_cannot_move_the_fleet_model() {
        // A first slice of the naive-fleet oracle: the same replay with
        // every host on the `Unbatched` engine — the production queue and
        // registers, never a dense window — must reach the production
        // fleet's model bit for bit. Crashes are left out: a reboot builds
        // a fresh production simulator.
        let (batched, in_windows) = storm_and_corruption_replay(None);
        let c = &batched.counters;
        assert!(c.installs > 0 && c.install_retries > 0, "{c:?}");
        assert!(c.corruptions_detected > 0 && c.crashes == 0, "{c:?}");
        let (unbatched, none) = storm_and_corruption_replay(Some(xensim::EngineKind::Unbatched));
        assert!(
            in_windows > 0 && none == 0,
            "{in_windows} / {none} events batched"
        );
        assert_eq!(batched, unbatched, "dense windows moved the fleet model");
    }

    /// Drives `script` (called before each of `epochs` steps with the
    /// epoch's index and `now`) over a fresh fleet twice: lazily, settled
    /// once at the end, and as the eager oracle — `step` then `settle`
    /// every epoch, so every live host is advanced every epoch. `probe`
    /// sees the lazy fleet after each step. Asserts that a settled host
    /// stands at the last step's time and that the two models are equal,
    /// and returns the model.
    fn lazy_equals_eager(
        n_hosts: usize,
        faults: Option<HostFaultConfig>,
        epochs: u64,
        script: impl Fn(&mut Fleet, u64, Nanos),
        mut probe: impl FnMut(&Fleet, u64, Nanos),
    ) -> FleetModel {
        let run = |eager: bool, probe: &mut dyn FnMut(&Fleet, u64, Nanos)| {
            let mut fleet = small_fleet(n_hosts);
            if let Some(cfg) = faults.clone() {
                fleet.arm_faults(cfg, Nanos::from_millis(50 * epochs));
            }
            let mut now = Nanos::ZERO;
            for k in 0..epochs {
                now += Nanos::from_millis(50);
                script(&mut fleet, k, now);
                fleet.step(now);
                if eager {
                    fleet.settle();
                }
                fleet.check_conservation().expect("conservation");
                probe(&fleet, k, now);
            }
            fleet.settle();
            for h in &fleet.hosts {
                let at = h.sim.as_ref().map(|sim| sim.now());
                assert!(
                    at.is_none_or(|t| t == h.local(now)),
                    "host {} at {at:?}",
                    h.id
                );
            }
            model(&fleet)
        };
        let lazy = run(false, &mut probe);
        let eager = run(true, &mut |_: &Fleet, _, _| ());
        assert_eq!(lazy, eager, "lazy hosts moved the fleet model");
        lazy
    }

    /// Host `i`'s simulator: events handled so far, `None` while down.
    fn events(fleet: &Fleet, i: usize) -> Option<u64> {
        fleet.hosts[i]
            .sim
            .as_ref()
            .map(|sim| sim.events_processed())
    }

    #[test]
    fn lazy_hosts_reach_the_eager_model_under_churn_storms_corruption_and_crashes() {
        use xensim::fault::{
            HostCrashFaults, HostDegradeFaults, InstallStormFaults, TableCorruptionFaults,
        };
        // Seeded crashes, degradations, install storms and corruptions over
        // eight hosts, sustained churn on top, and two scripted outages.
        let faults = HostFaultConfig {
            seed: 42,
            crash: HostCrashFaults {
                interval: Nanos::from_secs(8),
                outage: Nanos::from_millis(900),
            },
            degrade: HostDegradeFaults {
                interval: Nanos::from_secs(5),
                duration: Nanos::from_millis(600),
            },
            storm: InstallStormFaults {
                interval: Nanos::from_millis(1_500),
                duration: Nanos::from_millis(400),
                interrupt_prob: 0.6,
            },
            corruption: TableCorruptionFaults {
                interval: Nanos::from_millis(1_500),
                prob: 0.6,
            },
        };
        let mut idle_epochs = 0u64;
        let m = lazy_equals_eager(
            8,
            Some(faults),
            240,
            |fleet, k, now| {
                for vm in [2 * k, 2 * k + 1] {
                    let f = if vm % 3 == 0 {
                        flavor(2, 125_000)
                    } else {
                        flavor(1, 250_000)
                    };
                    let _ = fleet.admit(now, vm, f);
                }
                if k >= 6 {
                    for vm in [2 * k - 12, 2 * k - 11] {
                        let _ = fleet.teardown(now, vm);
                    }
                }
                if k % 5 == 0 && k >= 4 {
                    let _ = fleet.resize(now, 2 * k - 7, flavor(1, 125_000));
                }
                if k == 40 {
                    fleet.inject_crash(0, now, now + Nanos::from_millis(800));
                }
                if k == 90 {
                    fleet.inject_crash(3, now, now + Nanos::from_millis(400));
                }
            },
            |fleet, _, now| {
                // Hosts the step left behind its own time.
                idle_epochs += fleet
                    .hosts
                    .iter()
                    .filter(|h| h.sim.as_ref().is_some_and(|sim| sim.now() < h.local(now)))
                    .count() as u64;
            },
        );
        let c = &m.counters;
        assert!(
            c.crashes >= 2 && c.restarts > 0 && c.evacuated_vms > 0,
            "{c:?}"
        );
        assert!(c.install_retries > 0 && c.corruptions_detected > 0, "{c:?}");
        assert!(c.degradations > 0 && c.installs > 100, "{c:?}");
        assert!(idle_epochs > 0, "every host was advanced every epoch");
    }

    #[test]
    fn lazy_equals_eager_on_a_host_rebooted_and_installed_in_one_epoch() {
        // Host 1 restarts in epoch 7 as host 0 crashes under its two
        // tenants; both re-place onto host 1, whose install commits in the
        // same epoch on a simulator that has never run (its first catch-up
        // target, the previous step's time, predates its boot).
        let mut pinned = false;
        lazy_equals_eager(
            2,
            None,
            20,
            |fleet, k, now| match k {
                0 => {
                    for vm in [1, 2] {
                        assert_eq!(fleet.admit(now, vm, flavor(1, 125_000)), Ok(0));
                    }
                }
                2 => fleet.inject_crash(1, now, now + Nanos::from_millis(250)),
                7 => fleet.inject_crash(0, now, now + Nanos::from_secs(60)),
                _ => {}
            },
            |fleet, k, now| {
                if k == 7 {
                    let h = &fleet.hosts[1];
                    assert_eq!((h.state, h.epoch_base), (HostState::Online, now));
                    assert_eq!(fleet.location(1), Some(VmLocation::Placed(1)));
                    assert!(!h.dirty, "the evacuees' install committed");
                    assert_eq!(fleet.counters().installs, 2);
                    assert_eq!(events(fleet, 1), Some(0), "on a simulator never run");
                    pinned = true;
                }
            },
        );
        assert!(pinned);
    }

    #[test]
    fn lazy_equals_eager_on_a_host_corrupted_and_installed_in_one_epoch() {
        // Epoch 10 corrupts the host's table and, the same epoch, admits a
        // second tenant: the corruption and the install each catch the
        // host up, the second time to the time it is already at.
        let mut pinned = false;
        lazy_equals_eager(
            1,
            None,
            20,
            |fleet, k, now| match k {
                0 => drop(fleet.admit(now, 1, flavor(1, 250_000))),
                10 => {
                    fleet.faults[0].corruptions = vec![CorruptionEvent {
                        at: now,
                        class: 0,
                        salt: 7,
                    }];
                    fleet.admit(now, 2, flavor(1, 125_000)).expect("admits");
                }
                _ => {}
            },
            |fleet, k, now| {
                if k == 10 {
                    let c = fleet.counters();
                    assert_eq!((c.corruptions_injected, c.corruptions_detected), (1, 1));
                    assert_eq!(c.installs, 2, "one install repairs and places");
                    let sim = fleet.hosts[0].sim.as_ref().expect("up");
                    assert_eq!(sim.now(), now - Nanos::from_millis(50));
                    pinned = true;
                }
            },
        );
        assert!(pinned);
    }

    #[test]
    fn lazy_equals_eager_across_a_hundred_idle_epochs() {
        // The host installs in epoch 0 and next in epoch 120 (a teardown);
        // between them nothing acts on it, so its simulator does not run
        // until one catch-up covers the 119 epochs.
        let mut idle = 0;
        lazy_equals_eager(
            2,
            None,
            140,
            |fleet, k, now| match k {
                0 => drop(fleet.admit(now, 1, flavor(1, 250_000))),
                120 => fleet.teardown(now, 1).expect("owned"),
                _ => {}
            },
            |fleet, k, _| {
                if (1..120).contains(&k) && events(fleet, 0) == Some(0) {
                    idle += 1;
                }
                if k == 120 {
                    assert_eq!(fleet.counters().installs, 2);
                    assert!(events(fleet, 0) > Some(0), "caught up before the install");
                }
            },
        );
        assert_eq!(idle, 119, "the host idled between its two installs");
    }

    #[test]
    fn corruption_on_a_down_host_is_consumed_without_effect() {
        let mut fleet = small_fleet(1);
        fleet
            .admit(Nanos(1), 1, flavor(1, 250_000))
            .expect("admits");
        let now = epochs(&mut fleet, Nanos::ZERO, 4);
        fleet.faults[0].crashes = vec![(now, now + Nanos::from_secs(3600))];
        fleet.faults[0].corruptions = vec![CorruptionEvent {
            at: now + Nanos::from_millis(100),
            class: 0,
            salt: 1,
        }];
        let _ = epochs(&mut fleet, now, 8);
        let c = *fleet.counters();
        assert_eq!(c.crashes, 1);
        assert_eq!(c.corruptions_injected, 0, "no table to corrupt");
        assert_eq!(c.corruptions_detected, 0);
        assert_eq!(c.audit_false_positives, 0);
        assert_eq!(
            fleet.faults[0].next_corruption, 1,
            "the event is consumed, not replayed after the restart"
        );
    }

    #[test]
    fn queued_vms_teardown_and_resize_by_index() {
        // Regression for the O(n)-scan queues: teardown and resize must
        // find evacuating/parked VMs through the vm-id index, keep the
        // survivors' FIFO order, and preserve conservation.
        let mut fleet = small_fleet(2);
        let mut vms = Vec::new();
        for vm in 0..64u64 {
            if fleet.admit(Nanos(1), vm, flavor(1, 250_000)).is_ok() {
                vms.push(vm);
            }
        }
        let now = epochs(&mut fleet, Nanos::ZERO, 4);
        // An outage with the fleet nearly full: the displaced VMs cannot
        // re-place while the host is down, so the queues stay populated
        // for several epochs.
        fleet.faults[0].crashes = vec![(now, now + Nanos::from_millis(900))];
        let now = epochs(&mut fleet, now, 8);
        let queued: Vec<u64> = vms
            .iter()
            .copied()
            .filter(|&vm| {
                matches!(
                    fleet.location(vm),
                    Some(VmLocation::Evacuating | VmLocation::Parked)
                )
            })
            .collect();
        assert!(queued.len() >= 2, "outage must leave VMs queued");

        // Tear one down mid-queue and resize another in place.
        fleet.teardown(now, queued[0]).expect("queued teardown");
        assert_eq!(fleet.location(queued[0]), None);
        fleet
            .resize(now, queued[1], flavor(1, 125_000))
            .expect("queued resize");
        fleet.check_conservation().expect("conservation");
        assert_eq!(fleet.live_vms(), vms.len() - 1);
        assert_eq!(fleet.counters().teardowns, 1);
        assert_eq!(fleet.counters().resizes, 1);

        // The resized (smaller) flavor re-places once the host restarts...
        let _ = epochs(&mut fleet, now, 100);
        assert_eq!(fleet.displaced(), 0, "queues must drain after recovery");
        assert!(matches!(
            fleet.location(queued[1]),
            Some(VmLocation::Placed(_))
        ));
        // ...and the torn-down VM never re-appears.
        assert_eq!(fleet.location(queued[0]), None);
    }

    #[test]
    fn continuous_audit_is_silent_under_churn_without_corruption() {
        let mut fleet = small_fleet(2);
        let epoch = Nanos::from_millis(50);
        let mut now = Nanos::ZERO;
        for k in 0..40u64 {
            now += epoch;
            let _ = fleet.admit(now, k, flavor(1, 125_000));
            if k >= 4 {
                let _ = fleet.teardown(now, k - 4);
            }
            fleet.step(now);
        }
        let c = *fleet.counters();
        assert!(c.installs > 0);
        assert_eq!(c.audit_false_positives, 0, "installs re-baseline the audit");
        assert_eq!(c.corruptions_detected, 0);
    }
}
