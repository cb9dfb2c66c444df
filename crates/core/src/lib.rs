//! Tableau: a table-driven, high-throughput, predictable VM scheduler.
//!
//! This crate is a from-scratch Rust reproduction of the system described in
//! *Tableau: A High-Throughput and Predictable VM Scheduler for High-Density
//! Workloads* (Vanga, Gujarati & Brandenburg, EuroSys 2018). Tableau
//! guarantees every vCPU a minimum processor share `U` and a hard bound `L`
//! on its scheduling latency, by splitting scheduling into:
//!
//! * a **planner** ([`planner`]) that runs off the hot path (on VM
//!   creation/teardown/reconfiguration) and compiles all SLAs into a cyclic
//!   scheduling table using hard real-time scheduling theory (the `rtsched`
//!   crate);
//! * a **dispatcher** ([`dispatch`]) whose hot path is an O(1) table lookup
//!   ([`table`]), backed by a core-local second-level fair-share scheduler
//!   ([`level2`]) for work conservation, a lock-free time-synchronized
//!   table-switch protocol ([`switch`]), and a core-ownership hand-off for
//!   migrating vCPUs;
//! * a compact **binary table format** ([`binary`]) — the hypercall payload
//!   in the Xen implementation, and the metric of the paper's Fig. 4.
//!
//! # Quick start
//!
//! ```
//! use rtsched::time::Nanos;
//! use tableau_core::planner::{plan, PlannerOptions};
//! use tableau_core::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};
//!
//! // Two cores, four VMs with 25% reservations and a 20 ms latency bound.
//! let mut host = HostConfig::new(2);
//! let spec = VcpuSpec::new(Utilization::from_percent(25), Nanos::from_millis(20));
//! for i in 0..8 {
//!     host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
//! }
//! let plan = plan(&host, &PlannerOptions::default()).unwrap();
//!
//! // The table answers "who runs on core 0 at t = 1 ms?" in O(1).
//! let slot = plan.table.lookup(0, Nanos::from_millis(1));
//! assert!(slot.vcpu().is_some() || slot.until() > Nanos::ZERO);
//! ```

pub mod audit;
pub mod binary;
pub mod cache;
pub mod dispatch;
pub mod guardian;
pub mod level2;
pub mod planner;
pub mod postprocess;
pub mod switch;
pub mod table;
pub mod vcpu;
pub mod viz;

pub use audit::{corrupt_table, corrupt_table_any, AuditViolation, CorruptionKind, TableFacts};
pub use dispatch::{Decision, Dispatcher};
pub use guardian::{
    CoreEvent, Guardian, GuardianCounters, RecoveryAction, RecoveryRecord, RetryPolicy, SlaMonitor,
    SlaViolation,
};
pub use planner::{
    plan, plan_timed, plan_with_fallback, DeltaReport, Plan, PlanError, PlanTimings,
    PlannerOptions, ReplanError, ReplanOutcome, ReplanPath,
};
pub use switch::{InstallError, StagedInstall, TableManager};
pub use table::{Allocation, Slot, Table};
pub use vcpu::{HostConfig, Utilization, VcpuId, VcpuSpec, VmSpec};
