//! The determinism gate for the production event queue.
//!
//! The production engines keep their pending events in a near and a far
//! binary heap split at a moving horizon, and their core timers in per-core
//! registers. Every committed artifact in this repo was produced under the
//! reference heap's `(time, seq)` total order, so the production engines
//! must be *observationally identical* to it: same handled-event stream,
//! same statistics, same trace — bit for bit — across randomized scenarios
//! with fault injection active. If these properties hold, every
//! `results/*.json` regenerates byte-identically under the production
//! engine.
//!
//! The heap is also the oracle for the per-core timer registers: it keeps
//! every event, core timers included, in one queue and discards a
//! superseded timer when it surfaces, where the register-backed engines
//! overwrite it in its core's register. The slotted arm below makes
//! superseded timers the dominant traffic and holds all three engines to
//! the same stream.

use proptest::prelude::*;

use rtsched::time::Nanos;
use xensim::fault::FaultConfig;
use xensim::sched::{
    DeschedulePlan, GuestAction, GuestWorkload, IpiTargets, SchedDecision, VcpuId, VcpuView,
    VmScheduler,
};
use xensim::trace::TraceRecord;
use xensim::{EngineKind, Machine, Sim, SimStats, TraceClass, WakeupPlan};

/// A scheduler whose picks rotate by a seed — arbitrary on purpose, to
/// generate irregular event traffic rather than a sensible policy.
struct Chaotic {
    seed: u64,
    n_cores: usize,
    quantum_us: u64,
}

impl VmScheduler for Chaotic {
    fn name(&self) -> &'static str {
        "chaotic"
    }

    fn schedule(&mut self, core: usize, now: Nanos, view: VcpuView<'_>) -> (SchedDecision, Nanos) {
        self.seed = self
            .seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(core as u64);
        let n = view.runnable.len();
        let until = now + Nanos::from_micros(1 + self.quantum_us);
        if n == 0 {
            return (SchedDecision::idle(until), Nanos(300));
        }
        let start = (self.seed >> 33) as usize % n;
        for k in 0..n {
            let v = VcpuId(((start + k) % n) as u32);
            if v.0 as usize % self.n_cores == core && view.is_runnable(v) {
                return (SchedDecision::run(v, until), Nanos(300));
            }
        }
        (SchedDecision::idle(until), Nanos(300))
    }

    fn on_wakeup(&mut self, vcpu: VcpuId, _now: Nanos, _view: VcpuView<'_>) -> WakeupPlan {
        WakeupPlan {
            ipi_cores: IpiTargets::one(vcpu.0 as usize % self.n_cores),
            cost: Nanos(200),
        }
    }

    fn on_block(&mut self, _vcpu: VcpuId, _core: usize, _now: Nanos) {}

    fn on_descheduled(
        &mut self,
        _vcpu: VcpuId,
        _core: usize,
        _ran: Nanos,
        _now: Nanos,
    ) -> DeschedulePlan {
        DeschedulePlan {
            ipi_cores: IpiTargets::NONE,
            cost: Nanos(100),
        }
    }

    fn register_vcpu(&mut self, _vcpu: VcpuId, _home: usize) {}

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Compute/block cycler (the `sim_invariants` workload).
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

#[derive(Debug, Clone, Copy)]
enum FaultPreset {
    None,
    /// `FaultConfig::with_intensity`: timer jitter, IPI loss, stolen time,
    /// overruns.
    Robustness,
    /// `FaultConfig::chaos`: the above plus core flaps.
    Chaos,
}

#[allow(clippy::too_many_arguments)]
fn build(
    engine: EngineKind,
    seed: u64,
    cores: usize,
    vcpus: &[(u64, u64)],
    events: &[(u64, u32)],
    quantum_us: u64,
    preset: FaultPreset,
    intensity: f64,
) -> Sim {
    let mut sim = Sim::new(
        Machine::small(cores),
        Box::new(Chaotic {
            seed,
            n_cores: cores,
            quantum_us,
        }),
    );
    sim.set_engine(engine);
    match preset {
        FaultPreset::None => {}
        FaultPreset::Robustness => {
            sim.set_fault_config(FaultConfig::with_intensity(seed, intensity));
        }
        FaultPreset::Chaos => sim.set_fault_config(FaultConfig::chaos(seed, intensity)),
    }
    sim.enable_tracing();
    sim.enable_event_log();
    for (i, &(burst, wait)) in vcpus.iter().enumerate() {
        sim.add_vcpu(
            Box::new(Cycler {
                burst_us: burst.max(1),
                wait_us: wait,
                compute_next: false,
            }),
            i % cores,
            i % 2 == 0,
        );
    }
    for &(at_us, v) in events {
        let target = VcpuId(v % vcpus.len() as u32);
        sim.push_external(Nanos::from_micros(at_us % 50_000), target, 0);
    }
    sim
}

/// Everything an engine can influence: the handled-event stream, the full
/// statistics block, the trace, and the throughput counter.
type Observation = (Vec<(Nanos, u64, String)>, SimStats, Vec<TraceRecord>, u64);

fn observe(mut sim: Sim, horizon: Nanos) -> Observation {
    sim.run_until(horizon);
    let log = sim.take_event_log();
    let trace: Vec<TraceRecord> = sim.trace().iter().copied().collect();
    (log, sim.stats().clone(), trace, sim.events_processed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Heap, unbatched, and hybrid engines are indistinguishable over
    /// randomized fault-injected scenarios. (The hybrid engine must keep
    /// its batching preconditions honest: with faults armed or foreign
    /// events pending it must behave exactly like the unbatched engine. Batching
    /// *engagement* equivalence is covered by the dense-capable Tableau
    /// suite in the `schedulers` crate.)
    #[test]
    fn engines_are_bit_for_bit_equivalent(
        seed in any::<u64>(),
        cores in 1usize..=4,
        vcpus in proptest::collection::vec((1u64..500, 0u64..500), 1..8),
        events in proptest::collection::vec((0u64..50_000, any::<u32>()), 0..32),
        quantum in 1u64..2_000,
        preset_pick in 0u8..3,
        intensity in 0.0f64..1.0,
    ) {
        let preset = match preset_pick {
            0 => FaultPreset::None,
            1 => FaultPreset::Robustness,
            _ => FaultPreset::Chaos,
        };
        let horizon = Nanos::from_millis(30);
        let heap = observe(
            build(EngineKind::Heap, seed, cores, &vcpus, &events, quantum, preset, intensity),
            horizon,
        );
        let unbatched = observe(
            build(EngineKind::Unbatched, seed, cores, &vcpus, &events, quantum, preset, intensity),
            horizon,
        );
        let hybrid = observe(
            build(EngineKind::Hybrid, seed, cores, &vcpus, &events, quantum, preset, intensity),
            horizon,
        );
        prop_assert_eq!(&heap.0, &unbatched.0, "event streams diverged");
        prop_assert_eq!(&heap.1, &unbatched.1, "stats diverged");
        prop_assert_eq!(&heap.2, &unbatched.2, "traces diverged");
        prop_assert_eq!(heap.3, unbatched.3, "event counts diverged");
        prop_assert_eq!(&heap.0, &hybrid.0, "hybrid event stream diverged");
        prop_assert_eq!(&heap.1, &hybrid.1, "hybrid stats diverged");
        prop_assert_eq!(&heap.2, &hybrid.2, "hybrid trace diverged");
        prop_assert_eq!(heap.3, hybrid.3, "hybrid event count diverged");
    }
}

/// A table-like scheduler: time is cut into slots of `slot` ns, slot `k` on
/// a core belongs to the `k`-th (mod n) vCPU homed there, and every
/// decision — an idle one included — expires at the slot end. A guest that
/// blocks mid-slot leaves an idle-until-slot-end timer behind; its wake-up
/// re-schedules the core and supersedes that timer, so an I/O guest piles
/// one superseded timer per wake-up onto the slot-end instant.
struct Slotted {
    slot: Nanos,
    homes: Vec<usize>,
}

impl VmScheduler for Slotted {
    fn name(&self) -> &'static str {
        "slotted"
    }

    fn schedule(&mut self, core: usize, now: Nanos, view: VcpuView<'_>) -> (SchedDecision, Nanos) {
        let k = now / self.slot;
        let until = self.slot * (k + 1);
        let local: Vec<u32> = (0..self.homes.len() as u32)
            .filter(|&v| self.homes[v as usize] == core)
            .collect();
        let owner = local
            .get(k as usize % local.len().max(1))
            .map(|&v| VcpuId(v));
        match owner.filter(|&v| view.is_runnable(v)) {
            Some(v) => (SchedDecision::run(v, until), Nanos(300)),
            None => (SchedDecision::idle(until), Nanos(300)),
        }
    }

    fn on_wakeup(&mut self, vcpu: VcpuId, _now: Nanos, _view: VcpuView<'_>) -> WakeupPlan {
        WakeupPlan {
            ipi_cores: IpiTargets::one(self.homes[vcpu.0 as usize]),
            cost: Nanos(200),
        }
    }

    fn on_block(&mut self, _vcpu: VcpuId, _core: usize, _now: Nanos) {}

    fn on_descheduled(
        &mut self,
        _vcpu: VcpuId,
        _core: usize,
        _ran: Nanos,
        _now: Nanos,
    ) -> DeschedulePlan {
        DeschedulePlan {
            ipi_cores: IpiTargets::NONE,
            cost: Nanos(100),
        }
    }

    fn register_vcpu(&mut self, vcpu: VcpuId, home: usize) {
        debug_assert_eq!(vcpu.0 as usize, self.homes.len());
        self.homes.push(home);
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// One run of the slotted I/O scenario on a two-socket machine: every vCPU
/// an `IoStress`-style cycler (`burst` us of compute, `wait` us asleep),
/// all runnable at boot. Batch bookkeeping — *how* events were processed —
/// is normalized away.
fn observe_slotted(
    engine: EngineKind,
    cores_per_socket: usize,
    slot_us: u64,
    vcpus: &[(u64, u64)],
    events: &[(u64, u32)],
    horizon: Nanos,
) -> Observation {
    let mut machine = Machine::small(cores_per_socket * 2);
    machine.n_sockets = 2;
    machine.cores_per_socket = cores_per_socket;
    let sched = Slotted {
        slot: Nanos::from_micros(slot_us),
        homes: Vec::new(),
    };
    let mut sim = Sim::new(machine, Box::new(sched));
    sim.set_engine(engine);
    sim.enable_tracing();
    sim.enable_event_log();
    for (i, &(burst, wait)) in vcpus.iter().enumerate() {
        let cycler = Cycler {
            burst_us: burst,
            wait_us: wait,
            compute_next: false,
        };
        sim.add_vcpu(Box::new(cycler), i % machine.n_cores(), true);
    }
    for &(at_us, v) in events {
        let target = VcpuId(v % vcpus.len() as u32);
        sim.push_external(Nanos::from_micros(at_us), target, 0);
    }
    let (log, mut stats, mut trace, handled) = observe(sim, horizon);
    trace.retain(|r| !r.event.class().intersects(TraceClass::BATCH));
    stats.batch = Default::default();
    (log, stats, trace, handled)
}

/// Asserts that no line of `log` is a superseded timer: a core's decision
/// generation only grows, so a `CoreTimer` carrying an older generation
/// than one already handled on its core was overtaken before it fired.
/// Returns how many generations were skipped outright — each a decision
/// whose timer was armed and overtaken, so a lower bound on the timers
/// superseded in the run.
fn superseded_generations(log: &[(Nanos, u64, String)]) -> u64 {
    let mut newest: Vec<u64> = Vec::new();
    let mut skipped = 0;
    for (at, seq, line) in log {
        let Some(fields) = line.strip_prefix("CoreTimer { core: ") else {
            continue;
        };
        let (core, gen) = fields
            .trim_end_matches(" }")
            .split_once(", gen: ")
            .expect("CoreTimer debug format");
        let (core, gen): (usize, u64) = (core.parse().unwrap(), gen.parse().unwrap());
        if newest.len() <= core {
            newest.resize(core + 1, 0);
        }
        assert!(
            gen >= newest[core],
            "superseded timer handled at {at:?} #{seq}: {line} after gen {}",
            newest[core]
        );
        skipped += (gen - newest[core]).saturating_sub(1);
        newest[core] = gen;
    }
    skipped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Heap, unbatched and hybrid engines agree line for line —
    /// and on `events_processed` — when most armed timers are superseded,
    /// dozens of them due at the same slot-end instant.
    #[test]
    fn superseded_timers_surface_on_no_engine(
        cores_per_socket in 1usize..=2,
        slot_us in 400u64..3_000,
        vcpus in proptest::collection::vec((5u64..20, 20u64..50), 2..10),
        events in proptest::collection::vec((0u64..12_000, any::<u32>()), 0..16),
    ) {
        let horizon = Nanos::from_millis(12);
        let run = |engine| observe_slotted(engine, cores_per_socket, slot_us, &vcpus, &events, horizon);
        let heap = run(EngineKind::Heap);
        for engine in [EngineKind::Unbatched, EngineKind::Hybrid] {
            let other = run(engine);
            prop_assert_eq!(&heap.0, &other.0, "{:?}: event stream diverged", engine);
            prop_assert_eq!(&heap.1, &other.1, "{:?}: stats diverged", engine);
            prop_assert_eq!(&heap.2, &other.2, "{:?}: trace diverged", engine);
            prop_assert_eq!(heap.3, other.3, "{:?}: event count diverged", engine);
        }
        let superseded = superseded_generations(&heap.0);
        prop_assert!(superseded >= 48, "only {} timers were superseded", superseded);
    }
}

/// The handled-event stream of a run driven in chunks: compute-only guests
/// (their only events are core timers, so externals and the wake-up IPIs
/// they cause are all the queue ever holds), each chunk pushing externals
/// at `offset` µs past the chunk's start and then running `len` µs. An
/// external inside its chunk is handled before the chunk's end, so most
/// calls leave the queue empty; one at or beyond its chunk's end stays
/// pending across the call. Offsets of up to ~1 s put the next chunk's
/// pushes on both sides of the near/far horizon.
fn observe_chunked(
    engine: EngineKind,
    seed: u64,
    cores: usize,
    chunks: &[(u64, Vec<(u64, u32)>)],
) -> Observation {
    let vcpus = [(300, 0), (700, 0), (150, 0), (1_000, 0)];
    let mut sim = build(
        engine,
        seed,
        cores,
        &vcpus,
        &[],
        400,
        FaultPreset::None,
        0.0,
    );
    let mut start = Nanos::ZERO;
    for (len, externals) in chunks {
        for &(offset, v) in externals {
            let vcpu = VcpuId(v % vcpus.len() as u32);
            sim.push_external(start + Nanos::from_micros(offset), vcpu, offset);
        }
        start += Nanos::from_micros(*len);
        sim.run_until(start);
    }
    observe(sim, start + Nanos::from_millis(2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A queue that empties between calls and refills for the next one,
    /// its horizon left where the last refill put it, orders exactly like
    /// the heap.
    #[test]
    fn chunked_runs_that_empty_the_queue_stay_equivalent(
        seed in any::<u64>(),
        cores in 1usize..=3,
        chunks in proptest::collection::vec(
            (
                1u64..40_000,
                proptest::collection::vec((0u64..1_000_000, any::<u32>()), 0..4),
            ),
            1..24,
        ),
    ) {
        let chunks: Vec<(u64, Vec<(u64, u32)>)> = chunks
            .into_iter()
            .map(|(len, externals)| {
                // Most externals land inside their chunk; one in four may
                // reach up to a second past its start.
                let inside = externals
                    .into_iter()
                    .map(|(offset, v)| if v % 4 == 0 { (offset, v) } else { (offset % len, v) })
                    .collect();
                (len, inside)
            })
            .collect();
        let heap = observe_chunked(EngineKind::Heap, seed, cores, &chunks);
        for engine in [EngineKind::Unbatched, EngineKind::Hybrid] {
            let other = observe_chunked(engine, seed, cores, &chunks);
            prop_assert_eq!(&heap.0, &other.0, "{:?}: event stream diverged", engine);
            prop_assert_eq!(&heap.1, &other.1, "{:?}: stats diverged", engine);
            prop_assert_eq!(&heap.2, &other.2, "{:?}: trace diverged", engine);
            prop_assert_eq!(heap.3, other.3, "{:?}: event count diverged", engine);
        }
    }
}

/// Events seconds beyond the near horizon wait in the far heap and reach
/// the near heap through refills; the engines must still agree.
#[test]
fn far_horizon_events_stay_equivalent() {
    let run = |engine: EngineKind| {
        let mut sim = build(
            engine,
            7,
            2,
            &[(200, 300), (150, 0)],
            &[],
            500,
            FaultPreset::Robustness,
            0.4,
        );
        // Push wake-ups at 2 s, 5 s, and 30 s: all deep in far-heap
        // territory, each the head of a refill when it falls due.
        sim.push_external(Nanos::from_millis(2_000), VcpuId(1), 1);
        sim.push_external(Nanos::from_millis(5_000), VcpuId(1), 2);
        sim.push_external(Nanos::from_millis(30_000), VcpuId(1), 3);
        observe(sim, Nanos::from_millis(31_000))
    };
    let heap = run(EngineKind::Heap);
    let unbatched = run(EngineKind::Unbatched);
    assert_eq!(heap.0.len(), unbatched.0.len());
    assert_eq!(heap.0, unbatched.0, "event streams diverged");
    assert_eq!(heap.1, unbatched.1, "stats diverged");
    assert_eq!(heap.2, unbatched.2, "traces diverged");
}

/// `set_engine` carries queued events (and their `(time, seq)` keys) over,
/// and refuses to run after the simulation started.
#[test]
fn engine_swap_preserves_queued_events() {
    let run = |swap: bool| {
        let mut sim = build(
            EngineKind::Unbatched,
            3,
            1,
            &[(100, 200)],
            &[],
            300,
            FaultPreset::None,
            0.0,
        );
        sim.push_external(Nanos::from_micros(10), VcpuId(0), 9);
        if swap {
            // Unbatched -> heap -> unbatched: queued externals survive
            // both hops.
            sim.set_engine(EngineKind::Heap);
            sim.set_engine(EngineKind::Unbatched);
        }
        observe(sim, Nanos::from_millis(5))
    };
    assert_eq!(run(false), run(true));
}

#[test]
#[should_panic(expected = "before the first run")]
fn engine_swap_after_start_panics() {
    let mut sim = Sim::new(
        Machine::small(1),
        Box::new(Chaotic {
            seed: 1,
            n_cores: 1,
            quantum_us: 100,
        }),
    );
    sim.run_until(Nanos::from_millis(1));
    sim.set_engine(EngineKind::Heap);
}
