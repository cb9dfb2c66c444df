//! A deterministic discrete-event hypervisor/multicore simulator.
//!
//! This crate is the reproduction's stand-in for the Xen 4.9 testbed of the
//! Tableau paper (EuroSys 2018): a 16-core two-socket and a 48-core
//! four-socket Intel Xeon. It simulates exactly the couplings the paper's
//! evaluation measures:
//!
//! * **Scheduling** — a pluggable [`sched::VmScheduler`] decides what each
//!   core runs; every operation's CPU cost is charged to the core and
//!   recorded ([`stats`]), regenerating Tables 1–2.
//! * **Guests** — [`sched::GuestWorkload`]s progress only while dispatched;
//!   blocking, guest timers, and external events (packets, requests) drive
//!   the wake-up paths whose latency the paper measures (Figs. 5–6).
//! * **Hardware** — context-switch/migration/IPI costs ([`machine`]), a
//!   contended-lock model for global scheduler locks ([`lock`], the cause
//!   of RTDS's Table 2 blow-up), and a rate-limited NIC transmit ring
//!   ([`net`], the cause of the Fig. 7 1 MiB capped anomaly).
//!
//! Determinism: events are processed in `(time, insertion order)`, so every
//! experiment replays identically.

mod dense;
pub mod fault;
pub mod lock;
pub mod machine;
pub mod net;
mod queue;
pub mod sched;
pub mod sim;
pub mod stats;
mod timers;
pub mod trace;
#[cfg(test)]
#[path = "queue_order_tests.rs"]
mod wheel;

pub use fault::{
    CoreFaults, FaultConfig, FaultEngine, FaultWindow, HostCrashFaults, HostDegradeFaults,
    HostFaultConfig, HostFaultEngine, InstallStormFaults, IpiFate,
};
pub use lock::SimLock;
pub use machine::Machine;
pub use net::TxRing;
pub use sched::{
    GuestAction, GuestWorkload, SchedDecision, VcpuId, VcpuView, VmScheduler, WakeupPlan,
};
pub use sim::{EngineKind, Sim};
pub use stats::{OpKind, OpStats, SimStats};
pub use trace::{TraceBuffer, TraceClass, TraceEvent, TraceSummary};
