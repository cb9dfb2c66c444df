//! One fleet host: the single-host Tableau stack plus control-plane state.

use std::sync::Arc;

use rtsched::time::Nanos;
use schedulers::Tableau;
use tableau_core::planner::Plan;
use tableau_core::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};
use workloads::churn::Flavor;
use xensim::sched::BusyLoop;
use xensim::{Machine, Sim};

use crate::images::TableImage;

/// Per-core probe reservation, in ppm of one core.
pub(crate) const PROBE_PPM: u32 = 200_000;

/// The one latency goal of probes and tenants. One goal keeps every plan's
/// hyperperiod identical, which the install protocol requires.
const LATENCY_GOAL: Nanos = Nanos::from_millis(20);

/// Control-plane view of one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostState {
    /// Serving traffic; a placement target.
    Online,
    /// In a degradation window: up (its simulator keeps running) but not a
    /// placement target, and its table installs are deferred.
    Degraded,
    /// Crashed; restarts empty at `until`.
    Down {
        /// Absolute fleet time of the restart.
        until: Nanos,
    },
}

/// One tenant VM placed on a host (control-plane bookkeeping).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tenant {
    pub vm: u64,
    pub flavor: Flavor,
}

/// Tenant demand of one VM, in ppm of one core (vcpus × per-vCPU ppm).
pub(crate) fn demand(flavor: Flavor) -> u64 {
    flavor.vcpus as u64 * flavor.utilization_ppm as u64
}

/// Per-host state: the simulated stack plus the install pipeline.
pub(crate) struct FleetHost {
    pub id: usize,
    pub state: HostState,
    pub tenants: Vec<Tenant>,
    /// Sum of tenant demand in ppm of one core.
    pub committed_ppm: u64,
    /// The config `plan` was computed from (the delta rung's baseline).
    pub host_cfg: HostConfig,
    /// Current target plan (probes + tenants). The installed table lags it
    /// while an install is pending.
    pub plan: Arc<Plan>,
    /// The simulator; `None` while the host is down.
    pub sim: Option<Sim>,
    /// Fleet time at which the current simulator was born (restarted hosts
    /// run their simulator in local time `now - epoch_base`).
    pub epoch_base: Nanos,
    /// Whether `plan` still needs to be installed into the dispatcher.
    pub dirty: bool,
    /// Admissions waiting for their first committed install on this host
    /// (`(vm, requested_at)`), for admission-to-install latency.
    pub awaiting: Vec<(u64, Nanos)>,
    /// Consecutive failed install attempts for the current dirty plan.
    pub install_attempts: u32,
    /// Earliest fleet time of the next install attempt (backoff).
    pub next_install_try: Nanos,
    /// The image the control plane believes is installed. Its facts are the
    /// host's audit baseline: every epoch the audit re-derives the facts of
    /// the table the dispatcher actually points at and compares.
    pub installed: Arc<TableImage>,
    /// Corruptions injected and not yet accounted for: drained into the
    /// detection counter when the audit next sees a violation (normally
    /// the epoch they land) or the flagged host's repair install commits,
    /// and into `corruptions_lost_to_crash` if the host crashes first.
    pub pending_corruptions: u64,
    /// Whether the audit has flagged the live table and a repair install
    /// is in flight; repeat violations of the same corruption are expected
    /// and not re-counted.
    pub audit_flagged: bool,
}

/// What every host boots into: the fleet's machine shape, the probe-only
/// config, its plan, and the plan's shared masked image.
pub(crate) struct Boot {
    pub machine: Machine,
    pub cfg: HostConfig,
    pub plan: Arc<Plan>,
    pub image: Arc<TableImage>,
}

/// The per-core probe reservation every host carries (a stand-in for
/// dom0/agents): one capped single-vCPU VM per core. Probes come *first*
/// in every host config, so their vCPU ids are stably `0..n_cores` across
/// arbitrary tenant churn — the property the sim-table masking relies on.
pub(crate) fn probe_config(n_cores: usize) -> HostConfig {
    let probe = VcpuSpec::capped(Utilization::from_ppm(PROBE_PPM), LATENCY_GOAL);
    let mut cfg = HostConfig::new(n_cores);
    for i in 0..n_cores {
        cfg.add_vm(VmSpec::uniform(format!("probe{i}"), 1, probe));
    }
    cfg
}

/// A host config: `boot` (the probes) followed by one VM per tenant, in
/// order.
pub(crate) fn host_config(boot: &HostConfig, tenants: &[Tenant]) -> HostConfig {
    let mut cfg = boot.clone();
    for t in tenants {
        let util = Utilization::from_ppm(t.flavor.utilization_ppm);
        let spec = VcpuSpec::capped(util, LATENCY_GOAL);
        cfg.add_vm(VmSpec::uniform(format!("vm{}", t.vm), t.flavor.vcpus, spec));
    }
    cfg
}

impl FleetHost {
    /// A probe-only host in `state` with no simulator: the state a crash
    /// leaves behind, and what [`FleetHost::boot`] starts from.
    pub fn empty(id: usize, boot: &Boot, state: HostState) -> FleetHost {
        FleetHost {
            id,
            state,
            tenants: Vec::new(),
            committed_ppm: 0,
            host_cfg: boot.cfg.clone(),
            plan: boot.plan.clone(),
            sim: None,
            epoch_base: Nanos::ZERO,
            dirty: false,
            awaiting: Vec::new(),
            install_attempts: 0,
            next_install_try: Nanos::ZERO,
            installed: boot.image.clone(),
            pending_corruptions: 0,
            audit_flagged: false,
        }
    }

    /// Builds a freshly booted (probe-only) host, online at `now`, its
    /// dispatcher pointing at the boot image: a boot builds no table and
    /// shares the image with every other host still on it.
    pub fn boot(id: usize, boot: &Boot, now: Nanos) -> FleetHost {
        // The scheduler boots on the masked probe table; every later table
        // reaches it through the two-phase install protocol.
        let tableau = Tableau::from_shared_table(boot.image.table.clone(), &boot.plan.params);
        // The default hybrid (dense-batching) engine.
        let mut sim = Sim::new(boot.machine, Box::new(tableau));
        for core in 0..boot.machine.n_cores() {
            sim.add_vcpu(Box::new(BusyLoop), core, true);
        }
        FleetHost {
            sim: Some(sim),
            epoch_base: now,
            ..FleetHost::empty(id, boot, HostState::Online)
        }
    }

    /// The host's simulator-local time for an absolute fleet time.
    pub fn local(&self, now: Nanos) -> Nanos {
        now - self.epoch_base
    }

    /// Whether the host accepts new placements.
    pub fn placeable(&self) -> bool {
        self.state == HostState::Online
    }

    /// The Tableau scheduler inside the simulator (`None` while down).
    pub fn tableau(&self) -> Option<&Tableau> {
        let sched: &dyn std::any::Any = self.sim.as_ref()?.scheduler();
        sched.downcast_ref::<Tableau>()
    }

    /// Mutable access to the Tableau scheduler inside the simulator.
    pub fn tableau_mut(&mut self) -> Option<&mut Tableau> {
        self.sim
            .as_mut()?
            .scheduler_mut()
            .as_any()
            .downcast_mut::<Tableau>()
    }
}
