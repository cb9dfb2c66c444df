//! Real-time multiprocessor scheduling theory for table generation.
//!
//! This crate is the reproduction's stand-in for SchedCAT, the toolkit the
//! Tableau paper's planner builds on (Vanga, Gujarati & Brandenburg,
//! *Tableau: A High-Throughput and Predictable VM Scheduler for High-Density
//! Workloads*, EuroSys 2018). It provides, from the ground up:
//!
//! * the periodic task model with constrained deadlines and release offsets
//!   ([`task`]);
//! * hyperperiod-bounded period selection — divisors of 102,702,600 ns
//!   ([`hyperperiod`]);
//! * exact EDF schedulability analysis via the processor-demand criterion
//!   ([`analysis`]);
//! * per-core EDF schedule simulation ([`edf`]; the deadline-monotonic
//!   fixed-priority alternative it is compared with lives in the
//!   `prop_generation` test suite);
//! * worst-fit-decreasing partitioning ([`partition`]);
//! * C=D semi-partitioning ([`split`]);
//! * DP-Fair optimal cluster scheduling ([`dpfair`]);
//! * the three-stage generator combining them ([`generator`]);
//! * a verified peephole preemption-reduction pass ([`peephole`]);
//! * an independent schedule verifier ([`verify`]).
//!
//! The Tableau planner (crate `tableau-core`) maps vCPU SLAs onto periodic
//! tasks and feeds them to [`generator::generate_schedule`]; every schedule
//! is verified before use.
//!
//! # Examples
//!
//! ```
//! use rtsched::generator::{generate_schedule, GenOptions};
//! use rtsched::task::{PeriodicTask, TaskId};
//! use rtsched::time::Nanos;
//!
//! // Four 25%-utilization vCPUs per core on two cores.
//! let ms = Nanos::from_millis;
//! let tasks: Vec<_> = (0..8)
//!     .map(|i| PeriodicTask::implicit(TaskId(i), ms(5), ms(20)))
//!     .collect();
//! let generated = generate_schedule(&tasks, 2, ms(20), &GenOptions::default()).unwrap();
//! assert_eq!(generated.schedule.n_cores(), 2);
//! ```

pub mod analysis;
pub mod dpfair;
pub mod edf;
pub mod generator;
pub mod hyperperiod;
mod index;
pub mod partition;
pub mod peephole;
pub mod schedule;
pub mod signature;
pub mod split;
pub mod task;
pub mod time;
pub mod verify;

pub use generator::{
    generate_schedule, generate_schedule_instrumented, GenError, GenOptions, GenOutcome,
    GenTimings, Generated, Stage,
};
pub use hyperperiod::{PeriodCandidates, STANDARD_HYPERPERIOD};
pub use schedule::{CoreSchedule, MultiCoreSchedule, Segment};
pub use signature::{BinSignature, SigMemo};
pub use task::{PeriodicTask, TaskId, TaskSet};
pub use time::Nanos;
