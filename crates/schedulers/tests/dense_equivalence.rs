//! The determinism gate for dense-phase batching under Tableau.
//!
//! The hybrid engine may advance slice boundaries through precomputed
//! dense windows ([`xensim::sched::VmScheduler::dense_window`]) instead of
//! the generic event loop. The contract is observational equivalence: the
//! handled-event stream, statistics, and trace must be bit-for-bit
//! identical to both reference engines — modulo the `SimStats::batch`
//! counters and the `TraceClass::BATCH` markers, which exist only to
//! observe the batching itself — and so must the scheduler state the
//! batch's commits reconstruct (per-vCPU pick counts, per-core table
//! epochs), sampled at every `run_until` boundary. These tests drive the
//! Tableau scheduler (the only dense-capable one) through scenarios that
//! enter, exit, resume, and decline batches: pure busy loops
//! (whole-horizon windows), compute/block cyclers (mid-window bails),
//! external wake-ups (batching suppressed while foreign events are
//! pending), runs cut into slices (timers left armed in their registers by
//! one `run_until`, picked up by the next call's batch or by its generic
//! loop), and table installs between slices (windows bounded at the switch,
//! staged installs declining). A certified window is carried from one
//! `run_until` call to the next; the checkpoints read the scheduler through
//! `Sim::scheduler`, which leaves it in place, while every step that
//! changes the scheduler goes through `Sim::scheduler_mut`, which drops it.
//! The fleet's host shape — one probe per core on a table whose tenant
//! slots are idle gaps — gets its own sliced property, and a counting
//! wrapper pins that a settled host asks for one window per table. A
//! periodic window is advanced by replaying its recorded lap: a property
//! cuts runs where a replay starts and stops (up to ten thousand laps in
//! one call) with bursts that end mid-lap and would end mid-replay, and a
//! scenario drops the window at every slice boundary, where the window
//! certified next keeps the ledger.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;

use rtsched::time::Nanos;
use schedulers::tableau::{PickCounts, Tableau};
use tableau_core::audit::{corrupt_table_any, CorruptionKind};
use tableau_core::planner::{plan, Plan, PlannerOptions};
use tableau_core::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};
use tableau_core::Table;
use xensim::sched::{
    BusyLoop, DensePicks, DenseSlice, DenseWindow, DeschedulePlan, GuestAction, GuestWorkload,
    SchedDecision, VcpuId, VcpuView, VmScheduler, WakeupPlan,
};
use xensim::trace::{TraceClass, TraceRecord};
use xensim::{EngineKind, Machine, Sim, SimStats};

/// Paper-style host: `vms_per_core` single-vCPU capped VMs per core with
/// uniform reservations and a 20 ms latency goal — the dense steady state.
fn paper_plan(cores: usize, vms_per_core: usize) -> Plan {
    let mut host = HostConfig::new(cores);
    let u = Utilization::from_percent((100 / vms_per_core) as u32);
    let spec = VcpuSpec::capped(u, Nanos::from_millis(20));
    for i in 0..cores * vms_per_core {
        host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
    }
    plan(&host, &PlannerOptions::default()).unwrap()
}

/// Compute/block cycler: breaks dense windows with guest blocks. With
/// `wait_us == 0` it never blocks: it computes bursts of `burst_us` back to
/// back, and each burst's end is an event inside a slice.
struct Cycler {
    burst_us: u64,
    wait_us: u64,
    compute_next: bool,
}

impl GuestWorkload for Cycler {
    fn next(&mut self, _now: Nanos) -> GuestAction {
        self.compute_next = !self.compute_next;
        if !self.compute_next || self.wait_us == 0 {
            GuestAction::Compute(Nanos::from_micros(self.burst_us))
        } else {
            GuestAction::BlockFor(Nanos::from_micros(self.wait_us))
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A table of `p`'s shape that schedules differently: on every core the
/// reservations keep their place and rotate their owners by `k`. `k == 0`
/// is the planned table itself.
fn variant(p: &Plan, k: usize) -> Table {
    let t = &p.table;
    let per_core = (0..t.n_cores())
        .map(|c| {
            let allocs: Vec<_> = t.cpu(c).allocations().collect();
            (0..allocs.len())
                .map(|i| tableau_core::Allocation {
                    vcpu: allocs[(i + k) % allocs.len()].vcpu,
                    ..allocs[i]
                })
                .collect()
        })
        .collect();
    Table::new(t.len(), per_core).unwrap()
}

/// The fleet's host shape: one capped 20 % probe per core, planned with
/// `tenants` capped 15 % tenants (probes first, so their ids are
/// `0..cores`), then masked to the probes' allocations — the tenants' slots
/// become idle gaps, as in the fleet's table images.
fn probe_table(cores: usize, tenants: usize) -> (Plan, Table) {
    let goal = Nanos::from_millis(20);
    let mut host = HostConfig::new(cores);
    for i in 0..cores {
        let spec = VcpuSpec::capped(Utilization::from_percent(20), goal);
        host.add_vm(VmSpec::uniform(format!("probe{i}"), 1, spec));
    }
    for i in 0..tenants {
        let spec = VcpuSpec::capped(Utilization::from_percent(15), goal);
        host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
    }
    let p = plan(&host, &PlannerOptions::default()).unwrap();
    let probes = (0..cores)
        .map(|c| {
            let allocs = p.table.cpu(c).allocations();
            allocs.filter(|a| (a.vcpu.0 as usize) < cores).collect()
        })
        .collect();
    let masked = Table::new(p.table.len(), probes).unwrap();
    (p, masked)
}

/// `t` with every allocation moved `shift` later (into the idle gap after
/// it) and, with `swap`, the two cores' schedules exchanged — a probe
/// host's table after an install that really changes it.
fn moved(t: &Table, shift: Nanos, swap: bool) -> Table {
    let per_core = (0..t.n_cores())
        .map(|c| {
            let from = if swap { t.n_cores() - 1 - c } else { c };
            let allocs = t.cpu(from).allocations();
            allocs
                .map(|a| tableau_core::Allocation {
                    start: a.start + shift,
                    end: a.end + shift,
                    ..a
                })
                .collect()
        })
        .collect();
    Table::new(t.len(), per_core).unwrap()
}

/// A table of `t`'s length in which every probe migrates back to back:
/// core `c` runs probe `c` for the first fifth of a round and then probe
/// `c + 1`, which core `c + 1` hands over at that very instant. The owner
/// protocol decides who runs there, so no window may be carried into it.
fn migrating(t: &Table) -> Table {
    let n = t.n_cores();
    let fifth = t.len() / 5;
    let slot = |start: Nanos, vcpu: usize| tableau_core::Allocation {
        start,
        end: start + fifth,
        vcpu: tableau_core::vcpu::VcpuId(vcpu as u32),
    };
    let per_core = (0..n)
        .map(|c| vec![slot(Nanos::ZERO, c), slot(fifth, (c + 1) % n)])
        .collect();
    Table::new(t.len(), per_core).unwrap()
}

/// What a scenario's host runs.
#[derive(Debug, Clone, Copy)]
enum Host {
    /// `paper_plan(cores, n)`: `n` VMs per core, every vCPU reserved;
    /// table `k` is [`variant`]`(plan, k)`.
    Paper(usize),
    /// The fleet's host: [`probe_table`]`(cores, 3)`, one probe vCPU per
    /// core. Table 1 moves every probe slot 3 ms later, table 2 swaps the
    /// probes between the cores (see [`moved`]), table 3 is the boot table
    /// with two slots' owners swapped, as the fleet's `swap_placement`
    /// corruption does, and table 4 is [`migrating`]. In the last two every
    /// probe runs on both cores, so a window is certified only up to the
    /// first probe slot.
    Probe,
}

impl Host {
    /// The plan whose parameters the scheduler takes, and the tables it
    /// may run: the boot table first.
    fn tables(self, cores: usize) -> (Plan, Vec<Table>) {
        match self {
            Host::Paper(n) => {
                let p = paper_plan(cores, n);
                let tables = (0..3).map(|k| variant(&p, k)).collect();
                (p, tables)
            }
            Host::Probe => {
                let (p, boot) = probe_table(cores, 3);
                let later = moved(&boot, Nanos::from_millis(3), false);
                let swapped = moved(&boot, Nanos::ZERO, true);
                let (_, split) = corrupt_table_any(&boot, CorruptionKind::SwapPlacement, 64)
                    .expect("two probes to swap");
                let migrating = migrating(&boot);
                (p, vec![boot, later, swapped, split, migrating])
            }
        }
    }

    fn vcpus(self, cores: usize) -> usize {
        match self {
            Host::Paper(n) => cores * n,
            Host::Probe => cores,
        }
    }
}

/// What the harness does between two `run_until` slices.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Nothing: `run_until` returns and is entered again.
    Pause,
    /// `push_external` for `vcpu`, due `delay` after the boundary.
    Wake { vcpu: u32, delay: Nanos },
    /// Commits the host's table `table` (see [`Host`]), stamped `ahead` of
    /// the boundary (a control plane that runs ahead of its simulator, as
    /// the fleet's does).
    Install { table: usize, ahead: Nanos },
    /// Stages the host's table `table` without committing it.
    Stage { table: usize },
    /// Rolls a staged install back (a no-op with nothing staged).
    Abort,
    /// Stages the host's table `table` and rolls it back at once.
    StageAbort { table: usize },
}

/// The scheduler state a batch's commits reconstruct, at one `run_until`
/// boundary: the clock, the events handled, every vCPU's pick counts and
/// every core's table epoch.
type Checkpoint = (Nanos, u64, Vec<PickCounts>, Vec<usize>);

/// Everything an engine can influence, with the batch-only observability
/// stripped: `SimStats::batch` zeroed and `TraceClass::BATCH` records never
/// traced (they are the *only* permitted difference between engines).
type Observation = (
    Vec<(Nanos, u64, String)>,
    SimStats,
    Vec<TraceRecord>,
    Vec<Checkpoint>,
);

struct Scenario<'a> {
    cores: usize,
    host: Host,
    /// Per-vCPU `(burst_us, wait_us)`: `(0, 0)` is a pure busy loop (1 s
    /// bursts), `(burst_us, 0)` a [`Cycler`] that never blocks. Cycled over
    /// the vCPU population.
    mix: &'a [(u64, u64)],
    /// External wake-ups `(at_us, vcpu)`, queued before the run starts.
    events: &'a [(u64, u32)],
    /// The run is cut at each of these times, in order (a time already
    /// passed cuts nothing), and the step is taken there.
    script: &'a [(Nanos, Step)],
    horizon: Nanos,
}

/// Read through `Sim::scheduler`: a checkpoint must not drop the window
/// the next `run_until` would carry on with.
fn checkpoint(sim: &Sim, n_vcpus: usize, cores: usize) -> Checkpoint {
    let (now, events) = (sim.now(), sim.events_processed());
    let t = tableau_ref(sim);
    (
        now,
        events,
        (0..n_vcpus as u32)
            .map(|v| t.pick_counts(VcpuId(v)))
            .collect(),
        (0..cores).map(|c| t.dispatcher().core_epoch(c)).collect(),
    )
}

fn tableau(sim: &mut Sim) -> &mut Tableau {
    sim.scheduler_mut()
        .as_any()
        .downcast_mut::<Tableau>()
        .unwrap()
}

fn tableau_ref(sim: &Sim) -> &Tableau {
    let sched: &dyn std::any::Any = sim.scheduler();
    sched.downcast_ref::<Tableau>().unwrap()
}

/// Builds, drives, and drains one run of `s` under `kind`, returning the
/// normalized observation plus the raw batch counters.
fn run(kind: EngineKind, s: &Scenario<'_>) -> (Observation, xensim::stats::BatchStats) {
    let (p, tables) = s.host.tables(s.cores);
    let table = |k: usize| Arc::new(tables[k % tables.len()].clone());
    let tableau_on_boot = Tableau::from_shared_table(table(0), &p.params);
    let mut sim = Sim::new(Machine::small(s.cores), Box::new(tableau_on_boot));
    sim.set_engine(kind);
    sim.enable_tracing();
    // `BATCH` markers are the hybrid engine's alone. Kept out of the ring,
    // a run long enough to overflow it drops the same records under every
    // engine (`SimStats::trace_dropped`).
    let classes = TraceClass::SCHED | TraceClass::VCPU | TraceClass::IPI | TraceClass::FAULT;
    sim.trace_mut().set_filter(classes);
    sim.enable_event_log();
    let n_vcpus = s.host.vcpus(s.cores);
    for i in 0..n_vcpus {
        let (burst, wait) = s.mix[i % s.mix.len()];
        let workload: Box<dyn GuestWorkload> = if (burst, wait) == (0, 0) {
            Box::new(BusyLoop)
        } else {
            Box::new(Cycler {
                burst_us: burst.max(1),
                wait_us: wait,
                compute_next: false,
            })
        };
        sim.add_vcpu(workload, i % s.cores, true);
    }
    for &(at_us, v) in s.events {
        sim.push_external(Nanos::from_micros(at_us), VcpuId(v % n_vcpus as u32), 0);
    }
    let mut checkpoints = Vec::new();
    for &(at, step) in s.script {
        sim.run_until(at);
        checkpoints.push(checkpoint(&sim, n_vcpus, s.cores));
        match step {
            Step::Pause => {}
            Step::Wake { vcpu, delay } => {
                sim.push_external(sim.now() + delay, VcpuId(vcpu % n_vcpus as u32), 0)
            }
            // Installs racing a staged one are rejected with a typed error,
            // identically under every engine.
            Step::Install { table: k, ahead } => {
                let at = sim.now() + ahead;
                let _ = tableau(&mut sim).install_table(table(k), at);
            }
            Step::Stage { table: k } => {
                let at = sim.now();
                let _ = tableau(&mut sim)
                    .dispatcher_mut()
                    .begin_table_switch(table(k), at);
            }
            Step::Abort => tableau(&mut sim).dispatcher_mut().abort_table_switch(),
            Step::StageAbort { table: k } => {
                let at = sim.now();
                let d = tableau(&mut sim).dispatcher_mut();
                if d.begin_table_switch(table(k), at).is_ok() {
                    d.abort_table_switch();
                }
            }
        }
    }
    sim.run_until(s.horizon);
    checkpoints.push(checkpoint(&sim, n_vcpus, s.cores));
    let log = sim.take_event_log();
    let trace: Vec<TraceRecord> = sim.trace().iter().copied().collect();
    let batch = sim.stats().batch;
    let mut stats = sim.stats().clone();
    stats.batch = Default::default();
    ((log, stats, trace, checkpoints), batch)
}

fn observe(kind: EngineKind, s: &Scenario<'_>) -> Observation {
    run(kind, s).0
}

/// Asserts two streams equal, naming the first difference: the full
/// streams of a long run are far too large to print.
fn same_stream<T: PartialEq + std::fmt::Debug>(a: &[T], b: &[T], what: &str) {
    if let Some(i) = a.iter().zip(b).position(|(x, y)| x != y) {
        panic!("{what} diverged at {i}: {:?} vs {:?}", a[i], b[i]);
    }
    assert_eq!(a.len(), b.len(), "{what} diverged in length");
}

/// Asserts two observations equal.
fn same_observation(a: &Observation, b: &Observation, engines: &str) {
    same_stream(&a.0, &b.0, &format!("{engines} event streams"));
    assert_eq!(a.1, b.1, "{engines} stats diverged");
    same_stream(&a.2, &b.2, &format!("{engines} traces"));
    assert_eq!(a.3, b.3, "{engines} scheduler state diverged");
}

/// Runs all three engines and asserts pairwise equality, returning the
/// hybrid run's observation and batch counters for scenario-specific
/// assertions.
fn assert_three_way(s: &Scenario<'_>) -> (Observation, xensim::stats::BatchStats) {
    let heap = observe(EngineKind::Heap, s);
    let wheel = observe(EngineKind::Wheel, s);
    same_observation(&heap, &wheel, "heap/wheel");
    drop(wheel);
    let (hybrid, batch) = run(EngineKind::Hybrid, s);
    same_observation(&heap, &hybrid, "heap/hybrid");
    (hybrid, batch)
}

/// Every core's table epoch at the end of an observed run.
fn final_epochs(obs: &Observation) -> &[usize] {
    &obs.3.last().expect("the horizon checkpoint").3
}

#[test]
fn pure_dense_phase_batches_nearly_everything() {
    let s = Scenario {
        cores: 2,
        host: Host::Paper(4),
        mix: &[(0, 0)],
        events: &[],
        script: &[],
        horizon: Nanos::from_secs(1),
    };
    let (_, batch) = assert_three_way(&s);
    assert!(batch.batch_entries > 0, "batching never engaged: {batch:?}");
    assert_eq!(
        batch.fallback_block, 0,
        "busy loops cannot block: {batch:?}"
    );
    assert!(
        batch.batched_events > 500,
        "a 1 s dense phase should batch hundreds of boundaries: {batch:?}"
    );
}

#[test]
fn guest_blocks_bail_and_reenter() {
    let s = Scenario {
        cores: 2,
        host: Host::Paper(4),
        // Half busy loops, half cyclers that block mid-slot.
        mix: &[(0, 0), (1_300, 900)],
        events: &[],
        script: &[],
        horizon: Nanos::from_millis(400),
    };
    let (_, batch) = assert_three_way(&s);
    assert!(
        batch.fallback_block > 0,
        "cyclers should break batches: {batch:?}"
    );
}

#[test]
fn external_wakeups_suppress_then_release_batching() {
    let s = Scenario {
        cores: 1,
        host: Host::Paper(4),
        mix: &[(0, 0), (700, 1_100)],
        events: &[(1_000, 0), (7_500, 2), (90_000, 1), (250_000, 3)],
        script: &[],
        horizon: Nanos::from_millis(400),
    };
    let (_, batch) = assert_three_way(&s);
    assert!(batch.batch_entries > 0, "batching never engaged: {batch:?}");
}

fn ms(v: u64) -> Nanos {
    Nanos::from_millis(v)
}

/// The pure dense host of the install scenarios: two cores, four busy
/// loops each, half a second.
fn install_scenario<'a>(script: &'a [(Nanos, Step)]) -> Scenario<'a> {
    Scenario {
        cores: 2,
        host: Host::Paper(4),
        mix: &[(0, 0)],
        events: &[],
        script,
        horizon: ms(500),
    }
}

#[test]
fn mid_run_table_install_stays_dense_across_the_switch() {
    let script = [(
        ms(137),
        Step::Install {
            table: 0,
            ahead: Nanos::ZERO,
        },
    )];
    let s = install_scenario(&script);
    let (obs, batch) = assert_three_way(&s);
    assert_eq!(
        batch.fallback_window, 0,
        "a committed install must bound windows, not decline them: {batch:?}"
    );
    // Declining until every core had adopted the new table left 194 events
    // of this run batched; bounded windows take all but the first decisions.
    assert!(batch.batched_events > 194, "{batch:?}");
    assert_eq!(
        batch.batched_events + 2,
        obs.3.last().unwrap().1,
        "only the two boot re-schedules go through the queue: {batch:?}"
    );
    assert_eq!(final_epochs(&obs), [1, 1]);
}

#[test]
fn a_different_table_switches_in_mid_batch() {
    let p = paper_plan(2, 4);
    assert_ne!(variant(&p, 1), variant(&p, 0));
    assert_eq!(variant(&p, 1).len(), p.table.len());
    let script = [(
        ms(137),
        Step::Install {
            table: 1,
            ahead: Nanos::ZERO,
        },
    )];
    let s = install_scenario(&script);
    let (obs, batch) = assert_three_way(&s);
    assert_eq!(batch.fallback_window, 0, "{batch:?}");
    assert_eq!(final_epochs(&obs), [1, 1]);
    // The switch is real: the same run without it dispatches differently.
    let stay = install_scenario(&[]);
    assert_ne!(obs.2, observe(EngineKind::Hybrid, &stay).2);
}

#[test]
fn two_installs_inside_one_round_adopt_the_newer_at_one_boundary() {
    let len = paper_plan(2, 4).table.len();
    let round = len * (ms(137) / len);
    let script = [
        (
            round + len / 4,
            Step::Install {
                table: 1,
                ahead: Nanos::ZERO,
            },
        ),
        (
            round + len / 2,
            Step::Install {
                table: 2,
                ahead: Nanos::ZERO,
            },
        ),
    ];
    let s = install_scenario(&script);
    let (obs, batch) = assert_three_way(&s);
    assert_eq!(batch.fallback_window, 0, "{batch:?}");
    assert_eq!(final_epochs(&obs), [2, 2]);
}

#[test]
fn install_within_a_microsecond_of_a_wrap_switches_one_round_later() {
    let len = paper_plan(2, 4).table.len();
    let wrap = len * (ms(137) / len + 1);
    let script = [
        (
            wrap - Nanos(700),
            Step::Install {
                table: 1,
                ahead: Nanos::ZERO,
            },
        ),
        // The wrap 700 ns later adopts nothing (the pointer is armed half a
        // round past it); the next one is the switch. A cut one nanosecond
        // before it and one on it: the window that ends there and the one
        // that opens there.
        (wrap + len - Nanos(1), Step::Pause),
        (wrap + len, Step::Pause),
    ];
    let s = install_scenario(&script);
    let (obs, batch) = assert_three_way(&s);
    assert_eq!(batch.fallback_window, 0, "{batch:?}");
    assert_eq!(obs.3[1].3, [0, 0], "adopted before the switch time");
    assert_eq!(final_epochs(&obs), [1, 1]);
}

#[test]
fn staged_install_declines_until_aborted_and_leaves_no_trace() {
    let script = [
        (ms(137), Step::Stage { table: 1 }),
        (ms(212), Step::Abort),
        (ms(262), Step::Pause),
    ];
    let s = install_scenario(&script);
    let (obs, batch) = assert_three_way(&s);
    assert!(
        batch.fallback_window > 0,
        "a staged install must decline windows: {batch:?}"
    );
    assert_eq!(final_epochs(&obs), [0, 0]);
    // Staged and rolled back, the run is the run that never staged.
    let plain = [
        (ms(137), Step::Pause),
        (ms(212), Step::Pause),
        (ms(262), Step::Pause),
    ];
    let plain = install_scenario(&plain);
    let b = observe(EngineKind::Hybrid, &plain);
    assert_eq!((obs.0, obs.1, obs.2, obs.3), (b.0, b.1, b.2, b.3));
}

#[test]
fn sliced_runs_resume_from_the_armed_timers() {
    // 50 ms control epochs over a dense host, a wake-up landing between
    // two of them, a cut in the past, and a control plane installing one
    // epoch ahead of the simulator.
    let script = [
        (ms(50), Step::Pause),
        (
            ms(100),
            Step::Wake {
                vcpu: 3,
                delay: Nanos::from_micros(1_300),
            },
        ),
        (ms(150), Step::Pause),
        (ms(60), Step::Pause),
        // A wake-up due before the next cut, which itself comes before any
        // armed timer: that slice is the queue's alone, the registers wait.
        (
            ms(170),
            Step::Wake {
                vcpu: 6,
                delay: Nanos(200),
            },
        ),
        (ms(170) + Nanos(400), Step::Pause),
        (
            ms(200),
            Step::Install {
                table: 1,
                ahead: ms(50),
            },
        ),
        (ms(250), Step::Pause),
        (ms(300), Step::Pause),
        (ms(350), Step::Pause),
        (ms(400), Step::Pause),
        (ms(450), Step::Pause),
    ];
    let s = install_scenario(&script);
    let (obs, batch) = assert_three_way(&s);
    assert_eq!(batch.fallback_window, 0, "{batch:?}");
    assert_eq!(final_epochs(&obs), [1, 1]);
    assert_eq!(obs.3[3].0, ms(150), "a past horizon rewound the clock");
}

#[test]
fn the_fleet_host_shape_stays_dense_across_epochs_and_installs() {
    // Idle gaps where the tenants' slots were; 50 ms control epochs; an
    // install that moves the probe slots, and a staged-then-aborted one.
    let mut script: Vec<(Nanos, Step)> = (1..=20).map(|k| (ms(50 * k), Step::Pause)).collect();
    script[4].1 = Step::Install {
        table: 1,
        ahead: Nanos::ZERO,
    };
    script[11].1 = Step::StageAbort { table: 2 };
    let s = Scenario {
        cores: 2,
        host: Host::Probe,
        mix: &[(0, 0)],
        events: &[],
        script: &script,
        horizon: ms(1_100),
    };
    let (obs, batch) = assert_three_way(&s);
    assert_eq!(batch.fallback_window, 0, "{batch:?}");
    assert_eq!(
        batch.batched_events + 2,
        obs.3.last().unwrap().1,
        "only the two boot re-schedules go through the queue: {batch:?}"
    );
    assert_eq!(final_epochs(&obs), [1, 1]);
}

#[test]
fn split_reservations_decline_the_calls_that_reach_them() {
    // Once a table with split probes is in force every probe slot is
    // uncertified: a window certified in an idle gap must not be carried
    // into one. The calls are shorter than a slot, so most of them stop
    // inside a gap. The corrupted table is the fleet's case; in the
    // migrating one a window carried into a hand-over would dispatch a
    // probe the other core still holds.
    for table in [4, 3] {
        split_reservation_scenario(table);
    }
}

#[test]
fn a_kept_ledger_resumes_at_every_slice_boundary() {
    // Three laps to record and check one, then a staged-and-aborted
    // install at every slice end of twenty laps: each drops the window,
    // and the window certified next decides what the old one did, so the
    // replayed lap is kept. The probes' bursts end every few laps, so some
    // of those certifications find the ledger out of laps, with a core
    // whose decision ends exactly where the new window's lap opens.
    let (_, tables) = Host::Probe.tables(2);
    let boot = &tables[0];
    let mut ends: Vec<Nanos> = (0..2)
        .flat_map(|c| {
            let cpu = boot.cpu(c);
            (0..cpu.n_segments()).map(move |i| cpu.segment_slot(i).until())
        })
        .collect();
    ends.sort();
    ends.dedup();
    let len = boot.len();
    let script: Vec<(Nanos, Step)> = (3..=22u64)
        .flat_map(|lap| ends.iter().map(move |&end| len * lap + end))
        .map(|at| (at, Step::StageAbort { table: 0 }))
        .collect();
    let s = Scenario {
        cores: 2,
        host: Host::Probe,
        mix: &[(90_000, 0), (400_000, 0)],
        events: &[],
        script: &script,
        horizon: len * 24,
    };
    assert_three_way(&s);
}

fn split_reservation_scenario(table: usize) {
    let mut script = vec![(
        ms(1),
        Step::Install {
            table,
            ahead: Nanos::ZERO,
        },
    )];
    script.extend((1..=400).map(|k| (ms(300) + Nanos::from_micros(500 * k), Step::Pause)));
    let s = Scenario {
        cores: 2,
        host: Host::Probe,
        mix: &[(0, 0)],
        events: &[],
        script: &script,
        horizon: ms(600),
    };
    let (_, batch) = assert_three_way(&s);
    assert!(batch.fallback_window > 0, "{batch:?}");
}

/// Folds a third of the waits to zero so guests that never block (dense
/// phases) are common, not a measure-zero draw: half of those pure busy
/// loops, half finite bursts back to back.
fn fold_mix(mix: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    mix.into_iter()
        .map(|(b, w)| match (w % 3, b % 2) {
            (0, 0) => (0, 0),
            (0, _) => (b, 0),
            _ => (b, w),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized dense/sparse mixes stay three-way bit-for-bit equivalent
    /// across batch boundaries, bails, and re-entries.
    #[test]
    fn dense_batching_is_observationally_equivalent(
        cores in 1usize..=4,
        vms_per_core in 2usize..=5,
        mix in proptest::collection::vec((1u64..3_000, 0u64..2_000), 1..6),
        events in proptest::collection::vec((0u64..400_000, any::<u32>()), 0..12),
        horizon_ms in 50u64..300,
    ) {
        let mix = fold_mix(mix);
        let s = Scenario {
            cores,
            host: Host::Paper(vms_per_core),
            mix: &mix,
            events: &events,
            script: &[],
            horizon: Nanos::from_millis(horizon_ms),
        };
        assert_three_way(&s);
    }

    /// The same contract with the run cut into random slices (a quarter of
    /// them the fleet's 50 ms epoch, a quarter under 80 us) and a random
    /// step between slices:
    /// nothing, a wake-up, an install of a different or the same table
    /// stamped now or an epoch ahead, a staged install, an abort.
    #[test]
    fn sliced_runs_with_installs_are_observationally_equivalent(
        cores in 1usize..=3,
        vms_per_core in 2usize..=4,
        mix in proptest::collection::vec((1u64..3_000, 0u64..2_000), 1..4),
        events in proptest::collection::vec((0u64..400_000, any::<u32>()), 0..4),
        steps in proptest::collection::vec((0u64..80_000, 0u8..9, any::<u32>()), 1..12),
        tail_ms in 1u64..120,
    ) {
        let mix = fold_mix(mix);
        let mut at = Nanos::ZERO;
        let script: Vec<(Nanos, Step)> = steps
            .into_iter()
            .map(|(slice_us, pick, arg)| {
                at += match slice_us % 4 {
                    0 => ms(50),
                    1 => Nanos(slice_us),
                    _ => Nanos::from_micros(slice_us),
                };
                let table = arg as usize % 3;
                let step = match pick {
                    0..=2 => Step::Pause,
                    3 => Step::Wake {
                        vcpu: arg,
                        delay: Nanos::from_micros(arg as u64 % 3_000),
                    },
                    4 => Step::Wake {
                        vcpu: arg,
                        delay: Nanos(arg as u64 % 2_000),
                    },
                    5 => Step::Install { table, ahead: Nanos::ZERO },
                    6 => Step::Install { table, ahead: ms(50) },
                    7 => Step::Stage { table },
                    _ => Step::Abort,
                };
                (at, step)
            })
            .collect();
        let s = Scenario {
            cores,
            host: Host::Paper(vms_per_core),
            mix: &mix,
            events: &events,
            script: &script,
            horizon: at + Nanos::from_millis(tail_ms),
        };
        assert_three_way(&s);
    }

    /// The fleet's host shape, cut at the instants a carried window must
    /// survive: no time at all, one nanosecond, inside a slice, exactly on
    /// a slice boundary, exactly on a round boundary, several laps. Between
    /// cuts: nothing, a committed install or a staged-then-aborted install
    /// of any of the host's tables, the split one included (both through
    /// `scheduler_mut`), or a queued wake-up.
    #[test]
    fn carried_windows_on_the_fleet_host_shape_are_observationally_equivalent(
        cuts in proptest::collection::vec((0u8..6, any::<u32>(), 0u8..6), 1..24),
        cycler in any::<bool>(),
        tail_ms in 1u64..120,
    ) {
        let cores = 2;
        let (_, tables) = Host::Probe.tables(cores);
        let boot = &tables[0];
        let len = boot.len();
        // Every slice end of the boot table within a round, and the
        // shortest slice.
        let mut ends: Vec<Nanos> = (0..cores)
            .flat_map(|c| {
                let cpu = boot.cpu(c);
                (0..cpu.n_segments()).map(move |i| cpu.segment_slot(i).until())
            })
            .collect();
        ends.sort();
        ends.dedup();
        let shortest = (0..cores)
            .flat_map(|c| {
                let cpu = boot.cpu(c);
                (0..cpu.n_segments())
                    .map(move |i| cpu.segment_slot(i).until() - cpu.segment_start(i))
            })
            .min()
            .unwrap();
        let mut at = Nanos::ZERO;
        let script: Vec<(Nanos, Step)> = cuts
            .into_iter()
            .map(|(cut, arg, step)| {
                let round = at - at % len;
                at = match cut {
                    0 => at,
                    1 => at + Nanos(1),
                    2 => at + Nanos(1 + arg as u64 % (shortest.as_nanos() - 1)),
                    3 => {
                        let next = ends.iter().find(|&&e| round + e > at);
                        round + next.copied().unwrap_or(len + ends[0])
                    }
                    4 => round + len,
                    _ => at + len * (2 + arg as u64 % 3) + Nanos(arg as u64 % len.as_nanos()),
                };
                let table = arg as usize % 5;
                let step = match step {
                    0..=2 => Step::Pause,
                    3 => Step::Install { table, ahead: Nanos::ZERO },
                    4 => Step::StageAbort { table },
                    _ => Step::Wake {
                        vcpu: arg,
                        delay: Nanos::from_micros(arg as u64 % 3_000),
                    },
                };
                (at, step)
            })
            .collect();
        let mix: &[(u64, u64)] = if cycler { &[(0, 0), (1_300, 900)] } else { &[(0, 0)] };
        let s = Scenario {
            cores,
            host: Host::Probe,
            mix,
            events: &[],
            script: &script,
            horizon: at + Nanos::from_millis(tail_ms),
        };
        assert_three_way(&s);
    }
}

/// Burst lengths (µs) for [`replayed_laps_are_observationally_equivalent`]:
/// 0 is a busy loop; the rest are guests that never block, with bursts
/// from one ending inside every slice to one lasting several table laps of
/// service. A burst's end is an event inside a slice, so no lap holding
/// one repeats: replay must stop at the lap before it, and resume after.
const BURSTS_US: [u64; 6] = [0, 50, 3_000, 25_000, 90_000, 400_000];

/// Laps a "many laps" cut of
/// [`replayed_laps_are_observationally_equivalent`] advances.
const MANY_LAPS: [u64; 5] = [2, 10, 100, 1_000, 10_000];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A periodic window is advanced by replaying its recorded lap: whole
    /// laps at once, the rest event by event. The cuts are where a replay
    /// starts or stops: no time at all, one nanosecond, inside a slice, on
    /// a slice boundary, half a lap, one lap less a nanosecond, one lap,
    /// and up to ten thousand laps in one call. Between cuts: nothing, an
    /// install (now or an epoch ahead), a staged-and-aborted install, or a
    /// queued wake-up, each of which drops the ledger with the window. The
    /// guests' bursts end mid-lap and, without the lap cap, mid-replay.
    #[test]
    fn replayed_laps_are_observationally_equivalent(
        probe in any::<bool>(),
        bursts in proptest::collection::vec(0usize..BURSTS_US.len(), 1..4),
        cuts in proptest::collection::vec((0u8..8, any::<u32>(), 0u8..8), 1..8),
        tail_ms in 1u64..120,
    ) {
        let cores = 2;
        let host = if probe { Host::Probe } else { Host::Paper(3) };
        let (_, tables) = host.tables(cores);
        let boot = &tables[0];
        let len = boot.len();
        let mut ends: Vec<Nanos> = (0..cores)
            .flat_map(|c| {
                let cpu = boot.cpu(c);
                (0..cpu.n_segments()).map(move |i| cpu.segment_slot(i).until())
            })
            .collect();
        ends.sort();
        ends.dedup();
        let mut at = Nanos::ZERO;
        let script: Vec<(Nanos, Step)> = cuts
            .into_iter()
            .map(|(cut, arg, step)| {
                let round = at - at % len;
                at = match cut {
                    0 => at,
                    1 => at + Nanos(1),
                    2 => at + Nanos(1 + arg as u64 % 400_000),
                    3 => {
                        let next = ends.iter().find(|&&e| round + e > at);
                        round + next.copied().unwrap_or(len + ends[0])
                    }
                    4 => at + len / 2,
                    5 => at + len - Nanos(1),
                    6 => at + len,
                    _ => at + len * MANY_LAPS[arg as usize % MANY_LAPS.len()],
                };
                let table = arg as usize % tables.len();
                let step = match step {
                    0..=3 => Step::Pause,
                    4 => Step::Install { table, ahead: Nanos::ZERO },
                    5 => Step::Install { table, ahead: ms(50) },
                    6 => Step::StageAbort { table },
                    _ => Step::Wake {
                        vcpu: arg,
                        delay: Nanos::from_micros(arg as u64 % 3_000),
                    },
                };
                (at, step)
            })
            .collect();
        let mix: Vec<(u64, u64)> = bursts.iter().map(|&b| (BURSTS_US[b], 0)).collect();
        let s = Scenario {
            cores,
            host,
            mix: &mix,
            events: &[],
            script: &script,
            horizon: at + Nanos::from_millis(tail_ms),
        };
        assert_three_way(&s);
    }
}

/// [`Tableau`], forwarding every call and counting the dense windows it
/// certifies.
struct Counted {
    inner: Tableau,
    windows: Rc<Cell<u64>>,
}

impl VmScheduler for Counted {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(&mut self, core: usize, now: Nanos, view: VcpuView<'_>) -> (SchedDecision, Nanos) {
        self.inner.schedule(core, now, view)
    }

    fn on_wakeup(&mut self, vcpu: VcpuId, now: Nanos, view: VcpuView<'_>) -> WakeupPlan {
        self.inner.on_wakeup(vcpu, now, view)
    }

    fn on_block(&mut self, vcpu: VcpuId, core: usize, now: Nanos) {
        self.inner.on_block(vcpu, core, now)
    }

    fn on_descheduled(
        &mut self,
        vcpu: VcpuId,
        core: usize,
        ran: Nanos,
        now: Nanos,
    ) -> DeschedulePlan {
        self.inner.on_descheduled(vcpu, core, ran, now)
    }

    fn dense_capable(&self) -> bool {
        self.inner.dense_capable()
    }

    fn dense_window(
        &mut self,
        core: usize,
        from: Nanos,
        view: VcpuView<'_>,
        out: &mut Vec<DenseSlice>,
    ) -> Option<DenseWindow> {
        self.windows.set(self.windows.get() + 1);
        self.inner.dense_window(core, from, view, out)
    }

    fn dense_commit(&mut self, core: usize, lap: &[DenseSlice], picks: DensePicks, running: bool) {
        self.inner.dense_commit(core, lap, picks, running)
    }

    fn register_vcpu(&mut self, vcpu: VcpuId, home: usize) {
        self.inner.register_vcpu(vcpu, home)
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The fleet's probe host on its boot plan (one 20 % probe per core, no
/// tenant), driven in 560 control epochs of 50 ms with a table installed
/// before each call in `installs`: the number of dense windows certified,
/// and the run's stats next to a `Wheel` run of the same host.
fn probe_host_epochs(installs: &[usize]) -> (u64, SimStats, SimStats) {
    let (p, _) = probe_table(2, 0);
    let other = moved(&p.table, Nanos::from_millis(3), false);
    let windows = Rc::new(Cell::new(0));
    let run = |kind: EngineKind| {
        let inner = Tableau::from_plan(&p);
        let counted = Counted {
            inner,
            windows: windows.clone(),
        };
        let mut sim = Sim::new(Machine::small(2), Box::new(counted));
        sim.set_engine(kind);
        for core in 0..2 {
            sim.add_vcpu(Box::new(BusyLoop), core, true);
        }
        let mut now = Nanos::ZERO;
        for call in 0..560 {
            if installs.contains(&call) {
                let sched = sim.scheduler_mut().as_any();
                let counted = sched.downcast_mut::<Counted>().unwrap();
                let table = if call % 2 == 0 { &other } else { &p.table };
                counted.inner.install_table(table.clone(), now).unwrap();
            }
            now += Nanos::from_millis(50);
            sim.run_until(now);
        }
        let mut stats = sim.stats().clone();
        stats.batch = Default::default();
        (stats, sim.stats().batch)
    };
    let (unbatched, _) = run(EngineKind::Wheel);
    assert_eq!(windows.get(), 0, "the oracle asked for a window");
    let (batched, batch) = run(EngineKind::Hybrid);
    assert!(
        batch.batched_events > 0 && batch.fallback_window == 0,
        "{batch:?}"
    );
    (windows.get(), batched, unbatched)
}

#[test]
fn a_settled_host_certifies_one_window_per_table() {
    // Two cores: one window each, where certifying per call made 1 120.
    let (windows, batched, unbatched) = probe_host_epochs(&[]);
    assert_eq!(windows, 2);
    assert_eq!(batched, unbatched);
    // An install is a `scheduler_mut` borrow, which drops the window (one
    // certification per core at the next call), and a table switch, which
    // bounds it (one more per core at the switch).
    let installs = [100, 301, 450];
    let (windows, batched, unbatched) = probe_host_epochs(&installs);
    assert_eq!(windows, 2 + 2 * 2 * installs.len() as u64);
    assert_eq!(batched, unbatched);
}
