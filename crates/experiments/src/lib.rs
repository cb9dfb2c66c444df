//! Experiment harness regenerating every table and figure of the Tableau
//! paper's evaluation (Sec. 7).
//!
//! | Module | Regenerates |
//! |---|---|
//! | [`planner_scale`] | Fig. 3 (table-generation time), Fig. 4 (table size) |
//! | [`overheads`] | Table 1 (16-core overheads), Table 2 (48-core) |
//! | [`intrinsic_delay`] | Fig. 5 (max scheduling delay, redis-cli probe) |
//! | [`ping_latency`] | Fig. 6 (avg/max ping latency) |
//! | [`nginx`] | Fig. 7 (latency vs. throughput, IO BG), Fig. 8 (CPU BG) |
//!
//! [`ablations`] additionally isolates individual design choices (Credit's
//! boost, the second-level scheduler and its epoch, the peephole pass).
//! [`robustness`] goes beyond the paper: it sweeps an injected-fault
//! intensity (timer jitter, IPI loss, stolen time, overruns) and reports
//! each scheduler's SLA-violation rate and latency inflation.
//! [`soak`] closes the loop: a runtime SLA guardian polls a long chaos
//! run (core flaps, theft, overruns, interrupted installs), evacuates
//! lost cores and repairs violations, with invariants asserted every
//! control epoch.
//! [`fleet`] scales the robustness story out: SAP-shaped churn replayed
//! over hundreds of simulated hosts under seeded host crashes, slow-host
//! degradation and install storms, asserting VM conservation and
//! evacuation convergence every control epoch.
//! [`bench_snapshot`] times the planner/cache/dispatcher hot paths and
//! writes the committed `BENCH_*.json` perf trajectory (`bench snapshot`).
//! [`audit`] is the mutation-kill harness: every table-corruption class is
//! injected into a planned host and must be flagged by the install-time
//! audit facts (`TableFacts`); the full verifier's flags are reported
//! beside them.
//!
//! Run via the `experiments` binary: `cargo run --release -p experiments --
//! all` (or a specific id, with `--quick` for a fast smoke pass). Each
//! experiment prints the paper's rows/series and writes a JSON artifact to
//! `results/`.

pub mod ablations;
pub mod audit;
pub mod bench_snapshot;
pub mod config;
pub mod fleet;
pub mod intrinsic_delay;
pub mod latency_sweep;
pub mod nginx;
pub mod overheads;
pub mod ping_latency;
pub mod planner_scale;
pub mod report;
pub mod robustness;
pub mod scaling;
pub mod soak;
