//! The determinism gate for the partitioned (per-socket PDES) engine.
//!
//! The partitioned engine splits the event queue into per-socket lanes
//! that advance in conservative lookahead windows and exchange
//! cross-socket events through mailboxes drained at window boundaries.
//! Its contract is the same as the wheel's was against the heap: the
//! handled-event stream, statistics, and trace must be *bit-for-bit*
//! identical to the sequential engines — at any `rayon` worker count —
//! modulo only the `stats.pdes`/`stats.batch` bookkeeping counters and
//! `BATCH` trace markers, which describe *how* events were processed.
//!
//! The scheduler here partitions adversarially: every de-schedule may
//! fire a cross-socket IPI, so the lanes interact constantly and the
//! merge logic (provisional sequence renumbering, log/trace splicing,
//! mailbox delivery) is exercised on every window.

use proptest::prelude::*;

use rtsched::time::Nanos;
use xensim::fault::FaultConfig;
use xensim::sched::{
    DeschedulePlan, GuestAction, GuestWorkload, IpiTargets, PdesSplit, SchedDecision, VcpuId,
    VcpuView, VmScheduler,
};
use xensim::trace::TraceRecord;
use xensim::{EngineKind, Machine, Sim, SimStats, TraceClass, WakeupPlan};

/// A partition-capable scheduler built to stress the PDES merge path.
///
/// All mutable state is a per-core LCG seed, so the state partitions
/// cleanly by socket: `schedule`/`on_descheduled` step the seed of the
/// core they run on, `on_wakeup` the seed of the vCPU's home core — all
/// lane-local callbacks in a partitioned run. Each vCPU is strictly
/// homed (only its home core ever dispatches it), but IPIs deliberately
/// cross sockets: wake-ups may add a far target and de-schedules draw
/// one from the LCG, so cross-socket mailbox traffic is heavy.
#[derive(Clone)]
struct XSched {
    n_cores: usize,
    quantum_us: u64,
    /// Emit LCG-drawn (possibly cross-socket) IPIs from hooks.
    chatter: bool,
    /// Per-core LCG state — the only mutable state.
    seeds: Vec<u64>,
    /// Home core per vCPU, filled by `register_vcpu`.
    homes: Vec<usize>,
}

impl XSched {
    fn new(seed: u64, n_cores: usize, quantum_us: u64, chatter: bool) -> XSched {
        XSched {
            n_cores,
            quantum_us,
            chatter,
            seeds: (0..n_cores as u64)
                .map(|c| seed.wrapping_add(c).wrapping_mul(0x9e3779b97f4a7c15) | 1)
                .collect(),
            homes: Vec::new(),
        }
    }

    fn draw(&mut self, core: usize) -> u64 {
        let s = &mut self.seeds[core];
        *s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *s >> 17
    }
}

impl VmScheduler for XSched {
    fn name(&self) -> &'static str {
        "xsched"
    }

    fn schedule(&mut self, core: usize, now: Nanos, view: VcpuView<'_>) -> (SchedDecision, Nanos) {
        let r = self.draw(core);
        let quantum = Nanos::from_micros(1 + r % self.quantum_us.max(1));
        let until = now + quantum;
        // Rotate over the vCPUs homed on this core; never dispatch a
        // foreign one (strict homing is what makes partitioning legal).
        let local: Vec<VcpuId> = (0..self.homes.len())
            .filter(|&v| self.homes[v] == core)
            .map(|v| VcpuId(v as u32))
            .collect();
        if !local.is_empty() {
            let start = (r >> 24) as usize % local.len();
            for k in 0..local.len() {
                let v = local[(start + k) % local.len()];
                if view.is_runnable(v) {
                    return (SchedDecision::run(v, until), Nanos(300));
                }
            }
        }
        (SchedDecision::idle(until), Nanos(300))
    }

    fn on_wakeup(&mut self, vcpu: VcpuId, _now: Nanos, _view: VcpuView<'_>) -> WakeupPlan {
        let home = self.homes[vcpu.0 as usize];
        let r = self.draw(home);
        // First target (the cost target) must stay on the waker's home
        // socket — the home core itself always is. Extra targets may
        // land anywhere, including across the socket boundary.
        let mut ipi_cores = IpiTargets::one(home);
        if self.chatter && r.is_multiple_of(3) {
            ipi_cores.push((r >> 8) as usize % self.n_cores);
        }
        WakeupPlan {
            ipi_cores,
            cost: Nanos(200),
        }
    }

    fn on_block(&mut self, _vcpu: VcpuId, _core: usize, _now: Nanos) {}

    fn on_descheduled(
        &mut self,
        _vcpu: VcpuId,
        core: usize,
        _ran: Nanos,
        _now: Nanos,
    ) -> DeschedulePlan {
        let r = self.draw(core);
        let ipi_cores = if self.chatter && r.is_multiple_of(2) {
            // Half of all de-schedules IPI an arbitrary core: with two
            // sockets roughly a quarter of all IPIs cross the boundary.
            IpiTargets::one((r >> 8) as usize % self.n_cores)
        } else {
            IpiTargets::NONE
        };
        DeschedulePlan {
            ipi_cores,
            cost: Nanos(100),
        }
    }

    fn pdes_split(&self, machine: &Machine) -> Result<PdesSplit, xensim::sched::PdesDecline> {
        let parts = (0..machine.n_sockets)
            .map(|_| Box::new(self.clone()) as Box<dyn VmScheduler>)
            .collect();
        Ok(PdesSplit {
            parts,
            vcpu_sockets: self
                .homes
                .iter()
                .map(|&h| Some(machine.socket_of(h)))
                .collect(),
            socket_local_ipis: false,
        })
    }

    fn pdes_merge(&mut self, machine: &Machine, mut parts: Vec<Box<dyn VmScheduler>>) {
        for (li, part) in parts.iter_mut().enumerate() {
            let part = part
                .as_any()
                .downcast_mut::<XSched>()
                .expect("merge with a foreign partition");
            for core in 0..self.n_cores {
                if machine.socket_of(core) == li {
                    self.seeds[core] = part.seeds[core];
                }
            }
        }
    }

    fn register_vcpu(&mut self, vcpu: VcpuId, home: usize) {
        let v = vcpu.0 as usize;
        if self.homes.len() <= v {
            self.homes.resize(v + 1, 0);
        }
        self.homes[v] = home;
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Compute/block cycler (as in the engine-equivalence suite).
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

/// A 2-socket machine with a distinct cross-socket IPI latency (the
/// PDES lookahead bound).
fn two_socket(cores_per_socket: usize, cross_us: u64) -> Machine {
    let mut m = Machine::small(cores_per_socket * 2);
    m.n_sockets = 2;
    m.cores_per_socket = cores_per_socket;
    m.with_cross_ipi_latency(Nanos::from_micros(cross_us.max(1)))
}

fn build(
    engine: EngineKind,
    machine: Machine,
    seed: u64,
    vcpus: &[(u64, u64)],
    events: &[(u64, u32)],
    quantum_us: u64,
    chatter: bool,
) -> Sim {
    let n_cores = machine.n_cores();
    let mut sim = Sim::new(
        machine,
        Box::new(XSched::new(seed, n_cores, quantum_us, chatter)),
    );
    sim.set_engine(engine);
    sim.enable_tracing();
    sim.enable_event_log();
    for (i, &(burst, wait)) in vcpus.iter().enumerate() {
        sim.add_vcpu(
            Box::new(Cycler {
                burst_us: burst.max(1),
                wait_us: wait,
                compute_next: false,
            }),
            i % n_cores,
            i % 2 == 0,
        );
    }
    for &(at_us, v) in events {
        let target = VcpuId(v % vcpus.len() as u32);
        sim.push_external(Nanos::from_micros(at_us % 20_000), target, 0);
    }
    sim
}

type Observation = (Vec<(Nanos, u64, String)>, SimStats, Vec<TraceRecord>, u64);

/// Runs to the horizon and normalizes away the only allowed differences:
/// the `pdes`/`batch` bookkeeping counters and `BATCH` trace markers.
fn observe(mut sim: Sim, horizon: Nanos) -> Observation {
    sim.run_until(horizon);
    let log = sim.take_event_log();
    let trace: Vec<TraceRecord> = sim
        .trace()
        .iter()
        .filter(|r| !r.event.class().intersects(TraceClass::BATCH))
        .copied()
        .collect();
    let mut stats = sim.stats().clone();
    stats.pdes = Default::default();
    stats.batch = Default::default();
    (log, stats, trace, sim.events_processed())
}

/// Runs partitioned under `workers` rayon threads, asserting the
/// partitioned path actually engaged (no silent decline).
fn observe_partitioned(sim: Sim, horizon: Nanos, workers: usize) -> Observation {
    rayon::with_threads(workers, || {
        let mut sim = sim;
        sim.run_until(horizon);
        assert!(
            sim.stats().pdes.partitioned_runs > 0,
            "partitioned run declined: {:?}",
            sim.stats().pdes
        );
        let log = sim.take_event_log();
        let trace: Vec<TraceRecord> = sim
            .trace()
            .iter()
            .filter(|r| !r.event.class().intersects(TraceClass::BATCH))
            .copied()
            .collect();
        let mut stats = sim.stats().clone();
        stats.pdes = Default::default();
        stats.batch = Default::default();
        (log, stats, trace, sim.events_processed())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Partitioned at 1, 2, and 4 workers reproduces the sequential
    /// wheel byte-for-byte over randomized scenarios heavy in
    /// cross-socket IPIs and irregular quanta.
    #[test]
    fn partitioned_is_bit_for_bit_sequential(
        seed in any::<u64>(),
        cores_per_socket in 1usize..=3,
        cross_us in 1u64..=40,
        vcpus in proptest::collection::vec((1u64..400, 0u64..400), 1..10),
        events in proptest::collection::vec((0u64..20_000, any::<u32>()), 0..24),
        quantum in 1u64..1_500,
        chatter in any::<bool>(),
    ) {
        let machine = two_socket(cores_per_socket, cross_us);
        let horizon = Nanos::from_millis(10);
        let wheel = observe(
            build(EngineKind::Wheel, machine, seed, &vcpus, &events, quantum, chatter),
            horizon,
        );
        for workers in [1usize, 2, 4] {
            let part = observe_partitioned(
                build(EngineKind::Partitioned, machine, seed, &vcpus, &events, quantum, chatter),
                horizon,
                workers,
            );
            prop_assert_eq!(&wheel.0, &part.0, "event streams diverged at {} workers", workers);
            prop_assert_eq!(&wheel.1, &part.1, "stats diverged at {} workers", workers);
            prop_assert_eq!(&wheel.2, &part.2, "traces diverged at {} workers", workers);
            prop_assert_eq!(wheel.3, part.3, "event counts diverged at {} workers", workers);
        }
    }
}

/// Cross-socket events landing *exactly* on the lookahead boundary: with
/// every cost, quantum, and external a multiple of the 5 µs cross-socket
/// latency, mailbox deliveries repeatedly arrive at `window_end + L`
/// (the first instant the conservative window cannot cover) and at
/// `window_end + L - 1` (the last instant it can). Both sides of the
/// off-by-one must agree with the sequential engine.
#[test]
fn exact_lookahead_boundary_arrivals() {
    let run = |engine: EngineKind| {
        let mut m = Machine::small(4);
        m.n_sockets = 2;
        m.cores_per_socket = 2;
        m.ipi_latency = Nanos::from_micros(5);
        let machine = m.with_cross_ipi_latency(Nanos::from_micros(5));
        // Quantum cap 5 us and bursts in multiples of 5 us keep most
        // event times on the lattice of the lookahead bound.
        let vcpus = [(5, 5), (10, 5), (5, 10), (10, 10)];
        let mut sim = build(engine, machine, 42, &vcpus, &[], 5, true);
        for k in 0u64..20 {
            // Externals at exact multiples of L, alternating sockets.
            sim.push_external(Nanos::from_micros(5 * (k + 1)), VcpuId((k % 4) as u32), k);
        }
        sim
    };
    let horizon = Nanos::from_millis(3);
    let wheel = observe(run(EngineKind::Wheel), horizon);
    let part = observe_partitioned(run(EngineKind::Partitioned), horizon, 2);
    assert_eq!(wheel.0, part.0, "event streams diverged");
    assert_eq!(wheel.1, part.1, "stats diverged");
    assert_eq!(wheel.2, part.2, "traces diverged");
    assert_eq!(wheel.3, part.3, "event counts diverged");
}

/// `run_until` cut into 37 us slices under quanta of up to 400 us: nearly
/// every cut falls between some core timer's arming and its firing. The
/// armed register is keyed provisionally inside its lane, so it has to come
/// through the boundary merge (re-keyed), the finish (copied back to the
/// master) and the next call's split (copied into a lane again) carrying
/// exactly the `seq` the sequential engine gave it — the logs compare it.
#[test]
fn armed_timers_survive_split_window_merge_and_finish() {
    let machine = two_socket(2, 5);
    let vcpus = [(50, 30), (80, 20), (40, 60), (70, 10), (300, 0), (20, 45)];
    let events = [(900, 1), (2_500, 3), (2_537, 0), (7_000, 5)];
    let slice = Nanos::from_micros(37);
    let horizon = slice * 271;
    let sliced = |engine: EngineKind, workers: usize| {
        let mut sim = build(engine, machine, 11, &vcpus, &events, 400, true);
        rayon::with_threads(workers, || (1..=271).for_each(|k| sim.run_until(slice * k)));
        sim
    };
    // The reference is the sequential wheel run in one piece.
    let wheel = observe(sliced(EngineKind::Wheel, 1), horizon);
    let whole = build(EngineKind::Wheel, machine, 11, &vcpus, &events, 400, true);
    assert_eq!(
        wheel,
        observe(whole, horizon),
        "slicing changed the wheel run"
    );
    for workers in [1usize, 2] {
        let sim = sliced(EngineKind::Partitioned, workers);
        assert!(sim.stats().pdes.partitioned_runs > 200);
        let part = observe_partitioned(sim, horizon, workers);
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

/// The partitioned engine generates real cross-socket mailbox traffic in
/// the chatter scenario (the equivalence above is not vacuous), and the
/// window counters move.
#[test]
fn partitioned_counters_move() {
    let machine = two_socket(2, 5);
    let vcpus = [(50, 30), (80, 20), (40, 60), (70, 10)];
    let mut sim = build(EngineKind::Partitioned, machine, 7, &vcpus, &[], 100, true);
    sim.run_until(Nanos::from_millis(10));
    let pdes = &sim.stats().pdes;
    assert_eq!(pdes.partitioned_runs, 1, "{pdes:?}");
    assert!(pdes.windows_advanced > 0, "{pdes:?}");
    assert!(pdes.mailbox_events > 0, "{pdes:?}");
    assert_eq!(pdes.declines(), 0, "{pdes:?}");
}

/// The generic decline ladder: single socket, armed faults, a scheduler
/// without `pdes_split`, and a zero-lookahead machine all fall through
/// to the sequential loop (still bit-for-bit) with the reason counted.
#[test]
fn decline_ladder_falls_through() {
    let vcpus = [(30, 40), (60, 20)];
    // Single socket.
    let mut sim = build(
        EngineKind::Partitioned,
        Machine::small(2),
        1,
        &vcpus,
        &[],
        200,
        false,
    );
    sim.run_until(Nanos::from_millis(2));
    assert!(sim.stats().pdes.declined_single_socket > 0);
    assert_eq!(sim.stats().pdes.partitioned_runs, 0);

    // Faults armed on a two-socket machine.
    let mut sim = build(
        EngineKind::Partitioned,
        two_socket(2, 5),
        2,
        &vcpus,
        &[],
        200,
        false,
    );
    sim.set_fault_config(FaultConfig::with_intensity(3, 0.5));
    sim.run_until(Nanos::from_millis(2));
    assert!(sim.stats().pdes.declined_faults_armed > 0);
    assert_eq!(sim.stats().pdes.partitioned_runs, 0);

    // Zero lookahead: a degenerate machine with free IPIs everywhere.
    let mut m = Machine::small(4);
    m.n_sockets = 2;
    m.cores_per_socket = 2;
    m.ipi_latency = Nanos::ZERO;
    let mut sim = build(EngineKind::Partitioned, m, 4, &vcpus, &[], 200, false);
    sim.run_until(Nanos::from_millis(2));
    assert!(sim.stats().pdes.declined_no_lookahead > 0);
    assert_eq!(sim.stats().pdes.partitioned_runs, 0);

    // A scheduler that never implemented pdes_split.
    struct Opaque;
    impl VmScheduler for Opaque {
        fn name(&self) -> &'static str {
            "opaque"
        }
        fn schedule(
            &mut self,
            _core: usize,
            now: Nanos,
            _view: VcpuView<'_>,
        ) -> (SchedDecision, Nanos) {
            (
                SchedDecision::idle(now + Nanos::from_micros(100)),
                Nanos(100),
            )
        }
        fn on_wakeup(&mut self, _vcpu: VcpuId, _now: Nanos, _view: VcpuView<'_>) -> WakeupPlan {
            WakeupPlan::default()
        }
        fn on_block(&mut self, _vcpu: VcpuId, _core: usize, _now: Nanos) {}
        fn on_descheduled(
            &mut self,
            _vcpu: VcpuId,
            _core: usize,
            _ran: Nanos,
            _now: Nanos,
        ) -> DeschedulePlan {
            DeschedulePlan::default()
        }
        fn register_vcpu(&mut self, _vcpu: VcpuId, _home: usize) {}
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }
    let mut sim = Sim::new(two_socket(2, 5), Box::new(Opaque));
    sim.set_engine(EngineKind::Partitioned);
    sim.run_until(Nanos::from_millis(1));
    assert!(sim.stats().pdes.declined_scheduler_opt_out > 0);
    assert_eq!(sim.stats().pdes.partitioned_runs, 0);
}
