//! Fleet control plane over simulated Tableau hosts.
//!
//! A [`Fleet`] owns N simulated hosts. Each host is the full single-host
//! stack grown in earlier PRs — a [`xensim::Sim`] running per-core probe
//! vCPUs under a `schedulers::Tableau` dispatcher. [`FleetConfig`] sets
//! only the fleet's size and its cache; every other control-plane value
//! (probe share, latency goal, placement and retry constants) is fixed.
//!
//! **One host-change path.** Admission, re-placement, teardown and resize
//! all change a host the same way: the host's new tenant list is planned
//! (the boot config plus the tenants, in order) through one
//! [`tableau_core::cache::SharedPlanCache`], an LRU of
//! `FleetConfig::cache_capacity` plans, and on a miss through the
//! `plan_with_fallback` ladder with the host's running plan as the donor;
//! only an installable plan commits, and it commits the tenants, their
//! demand, the config and the plan together. Identically shaped hosts (and
//! with SAP-shaped churn, shapes recur constantly) resolve to one entry,
//! for a resize as for an admission. The cache only memoizes — every
//! replan rung returns `plan(host, opts)` — so its capacity moves the rung
//! counters and nothing else.
//!
//! The front-end admits VM create/teardown/resize requests and the
//! robustness engine absorbs host-level failures:
//!
//! * **Placement backpressure ladder** — best-fit while the control plane
//!   is healthy, first-fit once the install/evacuation backlog passes a
//!   threshold, and finally a *typed* [`AdmissionRejected`] shed. Never a
//!   panic, never a silently dropped VM.
//! * **Crash-triggered evacuation** — a crashed host's VMs re-place
//!   through the admission path with the guardian's bounded exponential
//!   backoff (`tableau_core::RetryPolicy`) and a per-VM retry budget;
//!   budget exhaustion *parks* the VM (still owned, retried at a slower
//!   cadence) instead of losing it. One drain serves both queues.
//! * **Install pipeline** — tables reach each host's dispatcher through
//!   the two-phase install protocol; install-failure storms (see
//!   [`xensim::fault::InstallStormFaults`]) abort pushes mid-protocol and
//!   the per-host retry loop re-drives them with bounded backoff.
//!
//! The conservation invariant — every admitted, not-torn-down VM is in
//! exactly one of *placed on a live host*, *evacuating*, or *parked*, and
//! on at most one host — is checked by [`Fleet::check_conservation`] and
//! holds across any seeded fault sequence (see the property tests and the
//! `fleet` chaos soak experiment).
//!
//! **Model reduction.** Tenant vCPUs are control-plane objects: they
//! occupy planner capacity and table slots, but the per-host simulator
//! executes only the permanent probe vCPUs (tenant slots are masked to
//! idle in the installed table). This keeps hundreds of hosts cheap while
//! still exercising the real planner, the real two-phase installs against
//! real dispatchers, and real probe dispatch under every table the control
//! plane pushes.
//!
//! **Lazy hosts.** A host's dispatcher is a function of the tables
//! installed into it and of time, so [`Fleet::step`] runs no host simulator
//! of its own accord: a host's simulator is caught up to the previous
//! step's time only right before a corruption or an install acts on it,
//! and [`Fleet::settle`] catches every host up for observers (the batching
//! counters, the end of a run). One catch-up over many epochs equals one
//! advance per epoch, so the model does not depend on when a host runs;
//! the continuous audit reads committed tables and still scans every live
//! host every epoch.
//!
//! **Shared table images.** A table is read-only to its dispatcher, and a
//! small flavour catalogue over identically shaped hosts makes the same few
//! masked contents recur across the fleet, so each distinct content exists
//! once: boot, installs and audit repairs hand the dispatcher an
//! `Arc<Table>` from a content-addressed store (the `images` module), and
//! the per-epoch audit derives its facts once per table some dispatcher
//! points at. A corrupted host gets a private copy; its siblings cannot
//! see it.

mod control;
mod host;
mod images;
pub mod queue;

pub use control::{Fleet, FleetConfig, FleetCounters, RungCounters, StepPhases, VmLocation};
pub use host::HostState;

use tableau_core::planner::ReplanError;

/// Typed admission shed: the last rung of the backpressure ladder. The VM
/// was never admitted — rejecting is how the fleet degrades instead of
/// panicking or losing work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionRejected {
    /// No online host has the spare utilization the flavor demands.
    NoCapacity {
        /// The rejected demand, in ppm of one core.
        demand_ppm: u64,
    },
    /// Hosts had nominal capacity but every candidate's replan failed
    /// (fragmentation: the ladder ran out of rungs on each).
    NoFeasiblePlan {
        /// How many candidate hosts were tried before shedding.
        candidates_tried: usize,
    },
}

impl std::fmt::Display for AdmissionRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionRejected::NoCapacity { demand_ppm } => {
                write!(f, "no online host has {demand_ppm} ppm spare")
            }
            AdmissionRejected::NoFeasiblePlan { candidates_tried } => {
                write!(f, "no feasible plan on {candidates_tried} candidate hosts")
            }
        }
    }
}

impl std::error::Error for AdmissionRejected {}

/// Errors of the non-admission front-end paths.
#[derive(Debug)]
pub enum FleetError {
    /// The VM id is not currently owned by the fleet.
    UnknownVm(u64),
    /// A resize could not be replanned in place; the VM keeps its old
    /// flavor (the request is rejected, the VM is not lost).
    ResizeInfeasible {
        /// The VM whose resize was rejected.
        vm: u64,
        /// The ladder's per-rung failures.
        error: ReplanError,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownVm(vm) => write!(f, "vm {vm} is not owned by the fleet"),
            FleetError::ResizeInfeasible { vm, error } => {
                write!(f, "resize of vm {vm} infeasible: {error}")
            }
        }
    }
}

impl std::error::Error for FleetError {}
