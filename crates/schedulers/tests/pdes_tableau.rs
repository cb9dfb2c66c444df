//! The partitioned (per-socket PDES) engine under Tableau.
//!
//! Tableau's `pdes_split` declares `socket_local_ipis`: with single-socket
//! placements, wake-up targets come from the table, hand-off IPIs connect
//! cores sharing a placement, and the second level is core-local — so the
//! lanes never interact and a whole `run_until` is one lookahead window.
//! These tests check (a) the partitioned run is bit-for-bit the
//! sequential engines on paper-style two-socket hosts, at 1/2/4 workers,
//! with dense batching composing *inside* the lanes; and (b) the decline
//! ladder: an attached SLA monitor, an unsettled table install, a
//! cross-socket home, and a cross-socket placement all fall back to the
//! sequential loop with the reason counted.

use proptest::prelude::*;

use rtsched::time::Nanos;
use schedulers::tableau::Tableau;
use tableau_core::guardian::SlaMonitor;
use tableau_core::planner::{plan, Plan, PlannerOptions};
use tableau_core::table::{Allocation, Table};
use tableau_core::vcpu::{HostConfig, Utilization, VcpuId as CoreVcpuId, VcpuSpec, VmSpec};
use xensim::sched::{BusyLoop, GuestAction, GuestWorkload, VcpuId};
use xensim::trace::{TraceClass, TraceRecord};
use xensim::{EngineKind, Machine, Sim, SimStats};

/// Paper-style host: `vms_per_core` single-vCPU capped VMs per core with
/// uniform reservations and a 20 ms latency goal.
fn paper_plan(cores: usize, vms_per_core: usize) -> Plan {
    let mut host = HostConfig::new(cores);
    let u = Utilization::from_percent((100 / vms_per_core) as u32);
    let spec = VcpuSpec::capped(u, Nanos::from_millis(20));
    for i in 0..cores * vms_per_core {
        host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
    }
    plan(&host, &PlannerOptions::default()).unwrap()
}

/// A two-socket machine covering the plan's cores, with a distinct
/// cross-socket IPI latency.
fn two_socket(cores_per_socket: usize) -> Machine {
    let mut m = Machine::small(cores_per_socket * 2);
    m.n_sockets = 2;
    m.cores_per_socket = cores_per_socket;
    m.with_cross_ipi_latency(Nanos::from_micros(3))
}

/// Compute/block cycler: breaks dense windows with guest blocks.
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

struct Scenario<'a> {
    cores_per_socket: usize,
    vms_per_core: usize,
    /// Per-vCPU `(burst_us, wait_us)`; `wait_us == 0` is a busy loop.
    mix: &'a [(u64, u64)],
    /// External wake-ups `(at_us, vcpu)`.
    events: &'a [(u64, u32)],
    horizon: Nanos,
}

/// Builds one simulation of `s`, homing every vCPU on its *table* core
/// (the partitioned engine routes a vCPU's events by its home, which must
/// sit on the placement's socket).
fn build(kind: EngineKind, s: &Scenario<'_>) -> (Sim, Plan) {
    let cores = s.cores_per_socket * 2;
    let p = paper_plan(cores, s.vms_per_core);
    let mut sim = Sim::new(
        two_socket(s.cores_per_socket),
        Box::new(Tableau::from_plan(&p)),
    );
    sim.set_engine(kind);
    sim.enable_tracing();
    sim.enable_event_log();
    let n_vcpus = cores * s.vms_per_core;
    for i in 0..n_vcpus {
        let home = p
            .table
            .placement(CoreVcpuId(i as u32))
            .map(|pl| pl.home_core)
            .unwrap_or(i % cores);
        let (burst, wait) = s.mix[i % s.mix.len()];
        let workload: Box<dyn GuestWorkload> = if wait == 0 {
            Box::new(BusyLoop)
        } else {
            Box::new(Cycler {
                burst_us: burst.max(1),
                wait_us: wait,
                compute_next: false,
            })
        };
        sim.add_vcpu(workload, home, true);
    }
    for &(at_us, v) in s.events {
        sim.push_external(Nanos::from_micros(at_us), VcpuId(v % n_vcpus as u32), 0);
    }
    (sim, p)
}

type Observation = (Vec<(Nanos, u64, String)>, SimStats, Vec<TraceRecord>, u64);

/// Drains a finished run, stripping the batch/pdes bookkeeping (the only
/// permitted engine difference) from the comparison.
fn drain(mut sim: Sim) -> (Observation, xensim::stats::PdesStats) {
    let log = sim.take_event_log();
    let trace: Vec<TraceRecord> = sim
        .trace()
        .iter()
        .filter(|r| !r.event.class().intersects(TraceClass::BATCH))
        .copied()
        .collect();
    let pdes = sim.stats().pdes;
    let mut stats = sim.stats().clone();
    stats.batch = Default::default();
    stats.pdes = Default::default();
    ((log, stats, trace, sim.events_processed()), pdes)
}

fn observe(kind: EngineKind, s: &Scenario<'_>) -> Observation {
    let (mut sim, _) = build(kind, s);
    sim.run_until(s.horizon);
    drain(sim).0
}

/// Partitioned run under `workers` threads; asserts the engine engaged.
fn observe_partitioned(s: &Scenario<'_>, workers: usize) -> Observation {
    rayon::with_threads(workers, || {
        let (mut sim, _) = build(EngineKind::Partitioned, s);
        sim.run_until(s.horizon);
        let (obs, pdes) = drain(sim);
        assert!(pdes.partitioned_runs > 0, "declined: {pdes:?}");
        // Tableau declares socket-local IPIs: one window per run, no
        // mailbox traffic, by construction.
        assert_eq!(pdes.mailbox_events, 0, "{pdes:?}");
        obs
    })
}

fn assert_partitioned_equivalent(s: &Scenario<'_>) {
    let wheel = observe(EngineKind::Wheel, s);
    for workers in [1usize, 2, 4] {
        let part = observe_partitioned(s, workers);
        assert_eq!(
            wheel.0, part.0,
            "event streams diverged at {workers} workers"
        );
        assert_eq!(wheel.1, part.1, "stats diverged at {workers} workers");
        assert_eq!(wheel.2, part.2, "traces diverged at {workers} workers");
        assert_eq!(
            wheel.3, part.3,
            "event counts diverged at {workers} workers"
        );
    }
}

/// The dense steady state: busy loops only. Dense batching must compose
/// inside the lanes (each lane batches its own socket's dense phase).
#[test]
fn dense_steady_state_partitions_and_batches() {
    let s = Scenario {
        cores_per_socket: 2,
        vms_per_core: 4,
        mix: &[(0, 0)],
        events: &[],
        horizon: Nanos::from_millis(300),
    };
    assert_partitioned_equivalent(&s);
    let (mut sim, _) = build(EngineKind::Partitioned, &s);
    sim.run_until(s.horizon);
    let stats = sim.stats();
    assert_eq!(stats.pdes.partitioned_runs, 1, "{:?}", stats.pdes);
    assert!(
        stats.batch.batched_events > 0,
        "lanes should batch their dense phases: {:?}",
        stats.batch
    );
}

/// The same run cut into slices, fleet-style 50 ms epochs and odd cuts
/// alike: each `run_until` splits the armed timer registers into the lanes,
/// the lanes' dense batches leave them armed when they stop, and the finish
/// hands them back — the sliced partitioned run is the unsliced wheel run.
#[test]
fn sliced_partitioned_runs_carry_the_timer_registers_across_calls() {
    let s = Scenario {
        cores_per_socket: 2,
        vms_per_core: 4,
        mix: &[(0, 0), (1_300, 900), (0, 0)],
        events: &[(61_000, 5)],
        horizon: Nanos::from_millis(300),
    };
    let wheel = observe(EngineKind::Wheel, &s);
    for workers in [1usize, 2] {
        let part = rayon::with_threads(workers, || {
            let (mut sim, _) = build(EngineKind::Partitioned, &s);
            for cut_us in [50_000, 50_001, 77_777, 100_000, 150_000, 150_400, 250_000] {
                sim.run_until(Nanos::from_micros(cut_us));
            }
            sim.run_until(s.horizon);
            let (obs, pdes) = drain(sim);
            assert_eq!(pdes.partitioned_runs, 8, "{pdes:?}");
            obs
        });
        assert_eq!(wheel, part, "sliced run diverged at {workers} workers");
    }
}

/// Blocking guests and external wake-ups: lanes enter and leave dense
/// batches, vCPUs block and wake through the table's wake-up targets.
#[test]
fn mixed_workload_partitions_bit_for_bit() {
    let s = Scenario {
        cores_per_socket: 2,
        vms_per_core: 3,
        mix: &[(0, 0), (700, 900), (1_300, 400)],
        events: &[(1_000, 0), (7_500, 5), (90_000, 2), (150_000, 9)],
        horizon: Nanos::from_millis(300),
    };
    assert_partitioned_equivalent(&s);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized paper-style scenarios on a two-socket host stay
    /// bit-for-bit across the partitioned engine at 2 workers.
    #[test]
    fn tableau_partitioned_is_observationally_equivalent(
        cores_per_socket in 1usize..=2,
        vms_per_core in 2usize..=4,
        mix in proptest::collection::vec((1u64..3_000, 0u64..2_000), 1..5),
        events in proptest::collection::vec((0u64..200_000, any::<u32>()), 0..10),
        horizon_ms in 40u64..200,
    ) {
        let mix: Vec<(u64, u64)> = mix
            .into_iter()
            .map(|(b, w)| (b, if w % 3 == 0 { 0 } else { w }))
            .collect();
        let s = Scenario {
            cores_per_socket,
            vms_per_core,
            mix: &mix,
            events: &events,
            horizon: Nanos::from_millis(horizon_ms),
        };
        let wheel = observe(EngineKind::Wheel, &s);
        let part = observe_partitioned(&s, 2);
        prop_assert_eq!(&wheel.0, &part.0, "event streams diverged");
        prop_assert_eq!(&wheel.1, &part.1, "stats diverged");
        prop_assert_eq!(&wheel.2, &part.2, "traces diverged");
        prop_assert_eq!(wheel.3, part.3, "event counts diverged");
    }
}

/// An attached SLA monitor needs the global observation order: the run
/// declines (and still completes, sequentially).
#[test]
fn sla_monitor_declines_partitioning() {
    let s = Scenario {
        cores_per_socket: 2,
        vms_per_core: 2,
        mix: &[(0, 0)],
        events: &[],
        horizon: Nanos::from_millis(50),
    };
    let (mut sim, _) = build(EngineKind::Partitioned, &s);
    let t = sim
        .scheduler_mut()
        .as_any()
        .downcast_mut::<Tableau>()
        .unwrap();
    t.dispatcher_mut().attach_sla_monitor(SlaMonitor::new(vec![(
        CoreVcpuId(0),
        Nanos::from_millis(2),
    )]));
    sim.run_until(s.horizon);
    let pdes = &sim.stats().pdes;
    assert!(pdes.declined_monitor_attached > 0, "{pdes:?}");
    assert_eq!(pdes.partitioned_runs, 0, "{pdes:?}");
}

/// A staged table install declines until every core adopts the new
/// table, then partitioning resumes — and the whole staged sequence is
/// still bit-for-bit the sequential engine's. (The plan's table is
/// ~103 ms long; an install at 137 ms switches at the ~205 ms round
/// boundary and every core has confirmed it by the following wrap, so
/// the 450 ms step runs partitioned again.)
#[test]
fn unsettled_install_declines_then_resumes() {
    let s = Scenario {
        cores_per_socket: 2,
        vms_per_core: 4,
        mix: &[(0, 0)],
        events: &[],
        horizon: Nanos::from_millis(500),
    };
    let run = |kind: EngineKind| {
        let (mut sim, p) = build(kind, &s);
        sim.run_until(Nanos::from_millis(137));
        let t = sim
            .scheduler_mut()
            .as_any()
            .downcast_mut::<Tableau>()
            .unwrap();
        t.install_table(p.table.clone(), Nanos::from_millis(137))
            .unwrap();
        // The install is adopted core by core as the table wraps; the
        // post-install windows decline until then, later ones re-engage.
        sim.run_until(Nanos::from_millis(200));
        sim.run_until(Nanos::from_millis(450));
        sim.run_until(s.horizon);
        let pdes = sim.stats().pdes;
        (drain(sim).0, pdes)
    };
    let (wheel, _) = run(EngineKind::Wheel);
    let (part, pdes) = run(EngineKind::Partitioned);
    assert_eq!(wheel.0, part.0, "event streams diverged");
    assert_eq!(wheel.1, part.1, "stats diverged");
    assert_eq!(wheel.2, part.2, "traces diverged");
    assert_eq!(wheel.3, part.3, "event counts diverged");
    assert!(pdes.declined_tables_unsettled > 0, "{pdes:?}");
    assert!(
        pdes.partitioned_runs >= 2,
        "partitioning never resumed after the install settled: {pdes:?}"
    );
}

/// A vCPU homed on the wrong socket (its table placement lives on the
/// other one) would route its events to the wrong lane: declined.
#[test]
fn cross_socket_home_declines() {
    let cores = 4;
    let p = paper_plan(cores, 2);
    let mut sim = Sim::new(two_socket(2), Box::new(Tableau::from_plan(&p)));
    sim.set_engine(EngineKind::Partitioned);
    for i in 0..cores * 2 {
        let table_home = p
            .table
            .placement(CoreVcpuId(i as u32))
            .map(|pl| pl.home_core)
            .unwrap_or(0);
        // Home vCPU 0 on the opposite socket from its placement.
        let home = if i == 0 {
            (table_home + 2) % 4
        } else {
            table_home
        };
        sim.add_vcpu(Box::new(BusyLoop), home, true);
    }
    sim.run_until(Nanos::from_millis(20));
    let pdes = &sim.stats().pdes;
    assert!(pdes.declined_cross_socket_placement > 0, "{pdes:?}");
    assert_eq!(pdes.partitioned_runs, 0, "{pdes:?}");
}

/// A table placement spanning sockets (a C=D split vCPU straddling the
/// boundary) is not partitionable: declined once the table settles.
#[test]
fn cross_socket_placement_declines() {
    let s = Scenario {
        cores_per_socket: 2,
        vms_per_core: 2,
        mix: &[(0, 0)],
        events: &[],
        horizon: Nanos::from_millis(500),
    };
    let (mut sim, p) = build(EngineKind::Partitioned, &s);
    sim.run_until(Nanos::from_millis(30));
    assert!(sim.stats().pdes.partitioned_runs > 0);

    // Hand-build a same-geometry table where vCPU 0 runs on core 0 for
    // the first half and core 2 (the other socket) for the second half.
    let len = p.table.len();
    let half = Nanos(len.0 / 2);
    let crafted = Table::new(
        len,
        vec![
            vec![Allocation {
                start: Nanos::ZERO,
                end: half,
                vcpu: CoreVcpuId(0),
            }],
            vec![Allocation {
                start: Nanos::ZERO,
                end: len,
                vcpu: CoreVcpuId(1),
            }],
            vec![Allocation {
                start: half,
                end: len,
                vcpu: CoreVcpuId(0),
            }],
            vec![Allocation {
                start: Nanos::ZERO,
                end: len,
                vcpu: CoreVcpuId(2),
            }],
        ],
    )
    .unwrap();
    let t = sim
        .scheduler_mut()
        .as_any()
        .downcast_mut::<Tableau>()
        .unwrap();
    t.install_table(crafted, Nanos::from_millis(30)).unwrap();
    // Step past the ~205 ms switch boundary and the confirming wrap so
    // the decline reason moves from "unsettled" to the placement itself.
    sim.run_until(Nanos::from_millis(450));
    sim.run_until(s.horizon);
    let pdes = &sim.stats().pdes;
    assert!(pdes.declined_cross_socket_placement > 0, "{pdes:?}");
}
