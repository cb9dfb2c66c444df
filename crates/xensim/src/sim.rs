//! The discrete-event simulation driver.
//!
//! [`Sim`] multiplexes guest workloads over a [`Machine`] under a pluggable
//! [`VmScheduler`], in deterministic global time order. The coupling it
//! models is the one the paper measures:
//!
//! * guests progress only while dispatched;
//! * every scheduler operation (decision, wake-up, de-schedule work) costs
//!   CPU time on the core it runs on, delaying guest progress;
//! * wake-ups travel via IPIs with a delivery latency;
//! * context switches and cross-core migrations have hardware costs.
//!
//! Event ties are broken by insertion order, so a given configuration
//! replays identically — all experiment figures are reproducible bit for
//! bit.
//!
//! This module holds the machine state ([`Sim`]), the queue-driven event
//! loop (`run_until` / `run_events`) and the event handlers. The pending
//! events live in `queue`, the per-core decision timers in `timers`, and
//! the second way of advancing time — table-driven dense windows — in
//! `dense`, a second `impl Sim` block over the same state.

use rtsched::time::Nanos;

use crate::dense::{CoreWindow, Ledger};
use crate::fault::{FaultConfig, FaultEngine, IpiFate};
use crate::machine::Machine;
use crate::queue::{Event, EventQueue};
use crate::sched::{GuestAction, GuestWorkload, VcpuId, VcpuView, VmScheduler};
use crate::stats::{OpKind, SimStats};
use crate::timers::CoreTimers;
use crate::trace::{TraceBuffer, TraceClass, TraceEvent};

/// Guest-visible vCPU states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VState {
    /// Waiting for an event; not schedulable.
    Blocked,
    /// Schedulable but not on a core.
    Runnable,
    /// Executing on a core.
    Running,
}

pub(crate) struct VcpuSlot {
    pub(crate) state: VState,
    /// Remaining compute of the current burst; `None` means the workload
    /// must be asked for its next action at the next dispatch.
    pub(crate) remaining: Option<Nanos>,
    pub(crate) runnable_since: Option<Nanos>,
    pub(crate) last_core: Option<usize>,
    wake_gen: u64,
    workload: Box<dyn GuestWorkload>,
}

#[derive(Clone)]
pub(crate) struct CoreState {
    pub(crate) running: Option<VcpuId>,
    /// When the current vCPU began making guest progress (dispatch time
    /// plus overheads and context-switch cost).
    pub(crate) run_started: Nanos,
    /// Wall time charged to the vCPU since dispatch: guest progress plus
    /// the overheads and context-switch costs spent getting it running.
    /// This is what schedulers burn budgets/credits from — Xen's
    /// `burn_budget`-style accounting uses wall-clock deltas, which is
    /// precisely how scheduler overhead taxes a reservation.
    pub(crate) ran_since_dispatch: Nanos,
    pub(crate) decision_until: Nanos,
    /// Decision generation; stale core-timer events are ignored.
    pub(crate) gen: u64,
    /// Overhead charged to this core (wake-up processing, de-schedule
    /// work), consumed at the next dispatch.
    pub(crate) pending_overhead: Nanos,
    pub(crate) last_ran: Option<VcpuId>,
}

/// Selects how a [`Sim`] keeps and advances its pending events: the
/// production engine and its two oracles.
///
/// [`EngineKind::Hybrid`] is what every experiment, example and fleet host
/// runs. [`EngineKind::Unbatched`] (the same queue, never batching) and
/// [`EngineKind::Heap`] (one binary heap holding everything) exist to be
/// diffed against: all three handle events in identical `(time, seq)`
/// order, and the `engine_equivalence` / `dense_equivalence` suites hold
/// them to bit-for-bit equal streams, [`Sim::events_processed`] included.
/// There is no partitioned (per-socket parallel) engine; DESIGN.md §5.14
/// records the measurements that retired it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Reference engine: one binary min-heap of `(time, seq, event)` holding
    /// *every* event, core timers included. A timer superseded by a later
    /// decision on its core is discarded when it surfaces, before it is
    /// counted or logged — the all-in-one-queue oracle for the per-core
    /// timer registers of the other engines.
    Heap,
    /// The production queue and timer registers, never batching: a near
    /// and a far binary heap (split at a moving horizon, see `queue`) for
    /// wake-ups, IPIs, externals, ticks and fault events, plus one timer
    /// register per core for decision expiries and burst completions:
    /// re-arming a core overwrites the timer it supersedes, which therefore
    /// never exists.
    Unbatched,
    /// The unbatched engine plus dense-phase batching: when nothing is queued
    /// (only core timers are pending), no faults are armed, and the
    /// scheduler can pre-compute its decision sequence
    /// ([`VmScheduler::dense_window`]), slice boundaries are advanced in a
    /// branch-predictable inner loop without a virtual `schedule` call per
    /// decision. Bit-for-bit identical to the reference engines (modulo
    /// [`SimStats::batch`] counters and [`TraceClass::BATCH`] markers).
    #[default]
    Hybrid,
}

impl EngineKind {
    /// The queue representation backing this engine (hybrid batching
    /// happens above the queue, which is the same as unbatched).
    pub(crate) fn repr(self) -> EngineKind {
        match self {
            EngineKind::Heap => EngineKind::Heap,
            EngineKind::Unbatched | EngineKind::Hybrid => EngineKind::Unbatched,
        }
    }
}

/// What the per-event paths branch on, read once per [`Sim::run_until`]
/// call and passed down: tracing, the event log and the fault engine are
/// configured between calls, never during one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hot {
    /// The trace ring is recording (its class filter still applies).
    pub(crate) trace: bool,
    /// The event log is recording.
    pub(crate) log: bool,
    /// A fault engine is installed.
    pub(crate) faults: bool,
}

/// A deterministic discrete-event hypervisor simulation.
pub struct Sim {
    machine: Machine,
    pub(crate) now: Nanos,
    pub(crate) seq: u64,
    /// The selected engine; [`EngineKind::Hybrid`] additionally enables
    /// dense-phase batching above the queue.
    kind: EngineKind,
    /// Wake-ups, IPIs, externals, ticks and fault events (and, under
    /// [`EngineKind::Heap`] only, core timers too). Dense batching engages
    /// only while it is empty: with nothing but timers pending, the next
    /// stretch of events is fully determined by the slice tables.
    events: EventQueue,
    /// One timer register per core ([`crate::timers`]): the only home a
    /// decision-expiry or burst-completion timer has outside the reference
    /// heap. Arming a core overwrites the timer it supersedes, so a stale
    /// timer is never stored, popped, or counted. The next event is the
    /// `(time, seq)` minimum of the queue head and the earliest register;
    /// `seq` comes from the same counter on both sides, so the order is
    /// exactly the one a single queue holding everything would produce.
    pub(crate) timers: CoreTimers,
    /// Batching is re-attempted only once `events_processed` passes this
    /// mark (set on every fallback, so a workload that keeps breaking
    /// batches does not pay the window-construction cost per event).
    pub(crate) batch_cooldown: u64,
    /// Consecutive unproductive batch attempts; the fallback cooldown
    /// doubles per bail (capped), so churny workloads that momentarily
    /// look dense pay the window-construction cost ever more rarely.
    pub(crate) batch_bails: u32,
    /// The dense window's lap buffers, one per core (see [`CoreWindow`]):
    /// refilled by every certification, kept between batches only to be
    /// reused.
    pub(crate) dense: Vec<CoreWindow>,
    /// The recorded lap of a periodic window (see [`Ledger`]): kept by a
    /// certification that decides what the window that recorded it did,
    /// cleared by any other.
    pub(crate) ledger: Ledger,
    /// [`VmScheduler::dense_capable`], asked once: it is a static gate.
    dense_capable: bool,
    pub(crate) cores: Vec<CoreState>,
    pub(crate) vcpus: Vec<VcpuSlot>,
    /// Runnable flags mirroring vCPU states, for cheap scheduler views.
    pub(crate) flags: Vec<bool>,
    pub(crate) sched: Box<dyn VmScheduler>,
    pub(crate) stats: SimStats,
    pub(crate) trace: TraceBuffer,
    /// Fault-injection engine; `None` when every fault class is inactive,
    /// so fault-free runs take exactly the pre-fault code paths (bit-for-bit
    /// replay compatibility).
    faults: Option<FaultEngine>,
    /// Per-core end of the latest stolen-time interval; dispatches on a
    /// core cannot make guest progress before this.
    stolen_until: Vec<Nanos>,
    /// Per-core service flag; core-fault injection can take cores out of
    /// service. An offline core runs nothing and absorbs re-schedules
    /// (they are re-issued when it returns).
    core_online: Vec<bool>,
    /// Events handled since construction (the simulator's throughput
    /// denominator: simulated work per wall second is events/sec).
    /// Superseded core timers are not events (see
    /// [`Sim::events_processed`]).
    pub(crate) events_processed: u64,
    /// When present, every handled event is appended as
    /// `(time, seq, debug string)` — the engine-equivalence tests compare
    /// these streams across engines. `None` (the default) costs one branch
    /// per event.
    pub(crate) event_log: Option<Vec<(Nanos, u64, String)>>,
    started: bool,
}

impl Sim {
    /// Creates a simulation of `machine` under `sched`.
    pub fn new(machine: Machine, sched: Box<dyn VmScheduler>) -> Sim {
        let n = machine.n_cores();
        Sim {
            machine,
            now: Nanos::ZERO,
            seq: 0,
            kind: EngineKind::default(),
            events: EventQueue::new(EngineKind::default()),
            timers: CoreTimers::new(n),
            batch_cooldown: 0,
            batch_bails: 0,
            dense: (0..n).map(|_| CoreWindow::default()).collect(),
            ledger: Ledger::default(),
            dense_capable: sched.dense_capable(),
            cores: (0..n)
                .map(|_| CoreState {
                    running: None,
                    run_started: Nanos::ZERO,
                    ran_since_dispatch: Nanos::ZERO,
                    decision_until: Nanos::ZERO,
                    gen: 0,
                    pending_overhead: Nanos::ZERO,
                    last_ran: None,
                })
                .collect(),
            vcpus: Vec::new(),
            flags: Vec::new(),
            sched,
            stats: SimStats::new(n),
            trace: TraceBuffer::new(1 << 20),
            faults: None,
            stolen_until: vec![Nanos::ZERO; n],
            core_online: vec![true; n],
            events_processed: 0,
            event_log: None,
            started: false,
        }
    }

    /// Selects the event-queue engine (default [`EngineKind::Hybrid`]).
    /// Events already queued (e.g. via [`Sim::push_external`]) are carried
    /// over with their original `(time, seq)` keys.
    ///
    /// # Panics
    ///
    /// Panics if called after the simulation started.
    pub fn set_engine(&mut self, kind: EngineKind) {
        assert!(
            !self.started,
            "the engine must be selected before the first run"
        );
        self.kind = kind;
        if kind.repr() == self.events.kind() {
            return;
        }
        let mut next = EventQueue::new(kind);
        while let Some((at, seq, event)) = self.events.pop() {
            next.push(at, seq, event);
        }
        self.events = next;
    }

    /// Starts recording every handled event as `(time, seq, debug string)`
    /// (engine-equivalence testing; unbounded, so not for long runs).
    pub fn enable_event_log(&mut self) {
        self.event_log = Some(Vec::new());
    }

    /// Takes the recorded event log (empty if logging was never enabled).
    pub fn take_event_log(&mut self) -> Vec<(Nanos, u64, String)> {
        self.event_log.take().unwrap_or_default()
    }

    /// Installs a fault-injection configuration (see [`crate::fault`]).
    ///
    /// A configuration with every class inactive installs no engine at all,
    /// so the run replays bit-for-bit identically to one that never called
    /// this method.
    ///
    /// # Panics
    ///
    /// Panics if called after the simulation started.
    pub fn set_fault_config(&mut self, cfg: FaultConfig) {
        assert!(
            !self.started,
            "faults must be configured before the first run"
        );
        self.faults = cfg.any_active().then(|| FaultEngine::new(cfg));
    }

    /// The active fault configuration, if an engine is installed.
    pub fn fault_config(&self) -> Option<&FaultConfig> {
        self.faults.as_ref().map(|f| f.config())
    }

    /// Draws whether the next table switch is interrupted mid-protocol
    /// (`false` without an engine). Harnesses that push tables into a
    /// running scheduler consult this and drive the two-phase
    /// begin/commit/abort install accordingly.
    pub fn fault_switch_interrupted(&mut self) -> bool {
        self.faults
            .as_mut()
            .map(|f| f.switch_interrupted())
            .unwrap_or(false)
    }

    /// Replaces the trace ring buffer with one of the given capacity,
    /// preserving the enabled flag. Existing records are discarded.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        let enabled = self.trace.is_enabled();
        let filter = self.trace.filter();
        self.trace = TraceBuffer::new(capacity);
        self.trace.set_enabled(enabled);
        self.trace.set_filter(filter);
    }

    /// Turns on event tracing (a xentrace-style ring buffer; see
    /// [`crate::trace`]). Cheap enough to enable for whole experiments.
    pub fn enable_tracing(&mut self) {
        self.trace.set_enabled(true);
    }

    /// The trace buffer (read access for analyses).
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Mutable trace access (clearing between measurement windows).
    pub fn trace_mut(&mut self) -> &mut TraceBuffer {
        &mut self.trace
    }

    /// Adds a vCPU running `workload`, registered with the scheduler with
    /// placement hint `home`. Returns its id.
    ///
    /// # Panics
    ///
    /// Panics if called after the simulation started.
    pub fn add_vcpu(
        &mut self,
        workload: Box<dyn GuestWorkload>,
        home: usize,
        runnable: bool,
    ) -> VcpuId {
        assert!(!self.started, "vCPUs must be added before the first run");
        let id = VcpuId(self.vcpus.len() as u32);
        self.vcpus.push(VcpuSlot {
            state: if runnable {
                VState::Runnable
            } else {
                VState::Blocked
            },
            remaining: None,
            runnable_since: runnable.then_some(Nanos::ZERO),
            last_core: None,
            wake_gen: 0,
            workload,
        });
        self.flags.push(runnable);
        self.stats.add_vcpu();
        self.sched.register_vcpu(id, home);
        id
    }

    /// Schedules an external event for `vcpu` at absolute time `at`. A
    /// queued event is handled by the queue-driven loop: no batch starts
    /// while it is pending.
    pub fn push_external(&mut self, at: Nanos, vcpu: VcpuId, tag: u64) {
        self.push(at, Event::External { vcpu, tag });
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Simulation statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The machine being simulated.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to a vCPU's workload (to extract measurements).
    pub fn workload_mut(&mut self, vcpu: VcpuId) -> &mut dyn GuestWorkload {
        &mut *self.vcpus[vcpu.0 as usize].workload
    }

    /// Shared access to the scheduler under test (read-only inspection,
    /// e.g. auditing the table a dispatcher is running).
    pub fn scheduler(&self) -> &dyn VmScheduler {
        &*self.sched
    }

    /// Mutable access to the scheduler under test (install or abort a
    /// table, attach a monitor, corrupt a table). Every batch certifies
    /// its window afresh, so the next one sees whatever the caller did.
    pub fn scheduler_mut(&mut self) -> &mut dyn VmScheduler {
        &mut *self.sched
    }

    /// Whether `core` is currently in service (core-fault injection can
    /// take cores offline for bounded outages).
    pub fn core_online(&self, core: usize) -> bool {
        self.core_online[core]
    }

    /// Total events handled so far (throughput accounting; see the
    /// `sim/events_per_sec` bench entry). A core timer superseded by a
    /// later decision on its core is not an event: the register engines
    /// never hold one and [`EngineKind::Heap`] discards it uncounted, so
    /// the count is the same under every engine.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The per-call flags (see [`Hot`]).
    pub(crate) fn hot(&self) -> Hot {
        Hot {
            trace: self.trace.is_enabled(),
            log: self.event_log.is_some(),
            faults: self.faults.is_some(),
        }
    }

    /// Queues anything but a core timer (those go through
    /// [`Sim::arm_timer`]).
    fn push(&mut self, at: Nanos, event: Event) {
        debug_assert!(!matches!(event, Event::CoreTimer { .. }));
        // Timer faults perturb hypervisor timers (decision expiry, burst
        // completion, ticks) only; external events, IPIs, and guest-internal
        // timers are delivered precisely. Adjustment only ever delays.
        let at = match (&mut self.faults, event) {
            (Some(f), Event::Tick { .. }) => f.adjust_timer(at),
            _ => at,
        };
        self.seq += 1;
        self.events.push(at, self.seq, event);
    }

    /// Arms `core`'s timer for its current decision generation at `at`
    /// (decision expiry or burst completion): straight into its register,
    /// or into the reference heap, with the `seq` a queued event would
    /// have taken.
    #[inline(always)]
    pub(crate) fn arm_timer(&mut self, core: usize, at: Nanos, hot: Hot) {
        let at = match &mut self.faults {
            Some(f) if hot.faults => f.adjust_timer(at),
            _ => at,
        };
        self.seq += 1;
        let gen = self.cores[core].gen;
        match &mut self.events {
            EventQueue::NearFar(_) => self.timers.arm(core, (at, self.seq, gen)),
            heap => heap.push(at, self.seq, Event::CoreTimer { core, gen }),
        }
    }

    /// Runs the simulation up to (and including) absolute time `end`.
    pub fn run_until(&mut self, end: Nanos) {
        if !self.started {
            self.started = true;
            // Initial decisions on every core, plus periodic ticks.
            for core in 0..self.cores.len() {
                self.push(Nanos::ZERO, Event::Resched { core });
            }
            if let Some(interval) = self.sched.tick_interval() {
                for core in 0..self.cores.len() {
                    self.push(interval, Event::Tick { core });
                }
            }
            // Seed the stolen-time schedule on each affected core. Indexed
            // loops, not clones of the core lists: the borrow of the fault
            // engine ends before each push, and the RNG draw order (one gap
            // per in-machine core, in list order) is exactly the old one.
            let machine = self.machine;
            if self
                .faults
                .as_ref()
                .is_some_and(|f| f.config().stolen.is_active())
            {
                let n = self
                    .faults
                    .as_ref()
                    .expect("checked")
                    .config()
                    .stolen
                    .cores
                    .len();
                for i in 0..n {
                    let f = self.faults.as_mut().expect("checked");
                    let core = f.config().stolen.cores[i];
                    if !machine.has_core(core) {
                        continue;
                    }
                    let at = self.now + f.theft_gap();
                    self.push(at, Event::Stolen { core });
                }
            }
            // Seed the core-flap schedule on each affected core.
            if self
                .faults
                .as_ref()
                .is_some_and(|f| f.config().core.is_active())
            {
                let n = self
                    .faults
                    .as_ref()
                    .expect("checked")
                    .config()
                    .core
                    .cores
                    .len();
                for i in 0..n {
                    let f = self.faults.as_mut().expect("checked");
                    let core = f.config().core.cores[i];
                    if !machine.has_core(core) {
                        continue;
                    }
                    let at = self.now + f.outage_gap();
                    self.push(at, Event::CoreOffline { core });
                }
            }
        }

        self.run_events(end);
        // An `end` in the past handles nothing and must not rewind the
        // clock either: armed timers and queued events are all `>= now`.
        self.now = self.now.max(end);
        self.stats.trace_dropped = self.trace.dropped();
    }

    /// The queue-driven event loop: pops and handles every event due at or
    /// before `limit`, handing pure-timer stretches to the table-driven
    /// window loop ([`crate::dense`]) when the engine batches.
    fn run_events(&mut self, limit: Nanos) {
        let hot = self.hot();
        let batching = self.kind == EngineKind::Hybrid && !hot.faults && self.dense_capable;
        loop {
            if batching && self.events.is_empty() && self.batch_cooldown <= self.events_processed {
                // The batch advances as far as it can; wherever it stops,
                // the loop below carries on from the same registers.
                self.dense_batch(limit, hot);
            }
            // The next event is the `(time, seq)` minimum of the queue head
            // and the earliest timer register: the queue yields its head
            // only if it orders before that timer (or the horizon).
            let timer = self.timers.earliest().filter(|t| t.0 <= limit);
            let bound = timer.map_or((limit, u64::MAX), |(at, seq, _)| (at, seq));
            let (at, seq, event) = if let Some(queued) = self.events.pop_if_at_most(bound) {
                if let (_, _, Event::CoreTimer { core, gen }) = queued {
                    // Only the reference heap queues timers; it drops a
                    // superseded one here, where the registers never had it.
                    if self.cores[core].gen != gen {
                        continue;
                    }
                }
                queued
            } else if let Some((at, seq, core)) = timer {
                let (_, _, gen) = self.timers.take(core).expect("armed register");
                (at, seq, Event::CoreTimer { core, gen })
            } else {
                break;
            };
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.events_processed += 1;
            if hot.log {
                if let Some(log) = &mut self.event_log {
                    log.push((at, seq, format!("{event:?}")));
                }
            }
            self.handle(event, hot);
        }
    }

    fn handle(&mut self, event: Event, hot: Hot) {
        match event {
            Event::CoreTimer { core, gen } => {
                debug_assert_eq!(self.cores[core].gen, gen, "superseded timer handled");
                if !(self.cores[core].running.is_some()
                    && self.now < self.cores[core].decision_until)
                {
                    self.resched(core, hot);
                } else if let Some((vcpu, action)) = self.burst_complete(core, hot) {
                    self.block_running(core, vcpu, action, hot);
                    // Blocking invokes the scheduler, exactly as in Xen.
                    self.resched(core, hot);
                }
            }
            Event::Resched { core } => self.resched(core, hot),
            Event::External { vcpu, tag } => self.deliver_external(vcpu, tag, hot),
            Event::SelfWake { vcpu, gen } => {
                let slot = &self.vcpus[vcpu.0 as usize];
                if slot.wake_gen == gen && slot.state == VState::Blocked {
                    self.wake(vcpu, hot);
                }
            }
            Event::Tick { core } => {
                let interval = self
                    .sched
                    .tick_interval()
                    .expect("tick event without tick interval");
                if !self.core_online[core] {
                    // Keep the periodic chain alive, but an offline core
                    // does no scheduler work.
                    self.push(self.now + interval, Event::Tick { core });
                    return;
                }
                let view = VcpuView {
                    runnable: &self.flags,
                };
                let needs_resched = self.sched.on_tick(core, self.now, view);
                self.push(self.now + interval, Event::Tick { core });
                if needs_resched {
                    self.resched(core, hot);
                }
            }
            Event::Stolen { core } => self.steal(core),
            Event::CoreOffline { core } => self.core_goes_offline(core, hot),
            Event::CoreOnline { core } => self.core_comes_online(core, hot),
        }
    }

    /// A stolen-time interval begins on `core`: wall time passes without
    /// guest progress, the loss is charged to whoever holds the core (so a
    /// reservation absorbs its own interference rather than leaking it into
    /// other slots), and the next theft is scheduled.
    fn steal(&mut self, core: usize) {
        let (duration, gap) = {
            let f = self
                .faults
                .as_mut()
                .expect("stolen event without a fault engine");
            (f.theft_duration(), f.theft_gap())
        };
        self.push(self.now + gap, Event::Stolen { core });
        self.stats.stolen_time[core] += duration;
        self.trace
            .emit(self.now, TraceClass::FAULT, || TraceEvent::Stolen {
                core,
                duration,
            });

        let victim = self.cores[core].running;
        if victim.is_some() {
            // Account progress up to the theft, then shift the progress
            // clock past it: the interval contributes to wall-clock charging
            // (`ran_since_dispatch`) but not to guest service.
            self.apply_progress(core);
            let c = &mut self.cores[core];
            c.run_started = c.run_started.max(self.now) + duration;
            c.ran_since_dispatch += duration;
        }
        // Dispatches during the theft cannot start guest progress early.
        self.stolen_until[core] = (self.now + duration).max(self.stolen_until[core]);
        self.sched.on_stolen(core, victim, duration, self.now);
    }

    /// `core` drops out of service: the incumbent is preempted (it becomes
    /// runnable and waits for the control plane to evacuate it — the sim
    /// never re-homes vCPUs by itself), the outstanding decision is
    /// cancelled, and both the return-to-service and the next outage are
    /// scheduled.
    fn core_goes_offline(&mut self, core: usize, hot: Hot) {
        let (duration, gap) = {
            let f = self
                .faults
                .as_mut()
                .expect("core-offline event without a fault engine");
            (f.outage_duration(), f.outage_gap())
        };
        self.stop_current(core, hot);
        // Invalidate the decision timer; nothing runs until the core
        // returns.
        self.cores[core].gen += 1;
        self.timers.take(core);
        self.core_online[core] = false;
        self.stats.core_offline_events += 1;
        self.stats.core_offline_time[core] += duration;
        self.trace
            .emit(self.now, TraceClass::FAULT, || TraceEvent::CoreOffline {
                core,
                duration,
            });
        self.sched.on_core_offline(core, self.now);
        self.push(self.now + duration, Event::CoreOnline { core });
        self.push(self.now + duration + gap, Event::CoreOffline { core });
    }

    /// An offline `core` returns to service and immediately re-schedules
    /// (the hardware's online path ends in a scheduler invocation, exactly
    /// like an IPI arrival).
    fn core_comes_online(&mut self, core: usize, hot: Hot) {
        self.core_online[core] = true;
        self.trace
            .emit(self.now, TraceClass::FAULT, || TraceEvent::CoreOnline {
                core,
            });
        self.sched.on_core_online(core, self.now);
        self.resched(core, hot);
    }

    /// Applies guest progress made on `core` since `run_started`.
    ///
    /// `#[inline]` because the dense window loop calls it per decision from
    /// another module: without the hint it stays a call across codegen
    /// units there (measured 4 % on `sim/run_until_dense_batched`).
    #[inline]
    pub(crate) fn apply_progress(&mut self, core: usize) {
        let c = &mut self.cores[core];
        let Some(vcpu) = c.running else {
            return;
        };
        let ran = self.now.saturating_sub(c.run_started);
        // `run_started` can sit in the future after a theft shifted it;
        // never pull it backwards (that would resurrect the stolen time as
        // guest progress).
        c.run_started = self.now.max(c.run_started);
        c.ran_since_dispatch += ran;
        let slot = &mut self.vcpus[vcpu.0 as usize];
        if let Some(rem) = &mut slot.remaining {
            *rem = rem.saturating_sub(ran);
        }
        self.stats.core_busy[core] += ran;
        self.stats.vcpus[vcpu.0 as usize].service += ran;
    }

    /// The running vCPU's burst finished before the decision expired: asks
    /// its workload for the next action and, for more compute, re-arms the
    /// core timer. A guest that blocks instead is returned with its action
    /// *before* anything hears of the block — the caller follows up with
    /// [`Sim::block_running`] and a re-schedule.
    #[inline(always)]
    pub(crate) fn burst_complete(
        &mut self,
        core: usize,
        hot: Hot,
    ) -> Option<(VcpuId, GuestAction)> {
        self.apply_progress(core);
        let vcpu = self.cores[core].running.expect("burst on idle core");
        let remaining = self.vcpus[vcpu.0 as usize]
            .remaining
            .expect("burst event without a burst");
        if remaining > Nanos::ZERO {
            // Stolen time shifted the progress clock after this timer was
            // armed, so the burst is not actually done; re-arm for the rest.
            debug_assert!(hot.faults, "burst event fired early");
            let c = &self.cores[core];
            let fire = (c.run_started.max(self.now) + remaining).min(c.decision_until);
            self.arm_timer(core, fire, hot);
            return None;
        }
        self.vcpus[vcpu.0 as usize].remaining = None;
        let action = self.vcpus[vcpu.0 as usize].workload.next(self.now);
        let GuestAction::Compute(amount) = action else {
            return Some((vcpu, action));
        };
        let amount = self.burst_demand(vcpu, amount, hot);
        self.vcpus[vcpu.0 as usize].remaining = Some(amount);
        let c = &mut self.cores[core];
        c.run_started = self.now;
        let fire = (self.now + amount).min(c.decision_until);
        self.arm_timer(core, fire, hot);
        None
    }

    /// Transitions the running `vcpu` on `core` to blocked for `action` (a
    /// [`GuestAction::BlockFor`] arms its wake-up first), with scheduler
    /// notification and de-schedule bookkeeping.
    pub(crate) fn block_running(
        &mut self,
        core: usize,
        vcpu: VcpuId,
        action: GuestAction,
        hot: Hot,
    ) {
        if let GuestAction::BlockFor(delay) = action {
            let slot = &mut self.vcpus[vcpu.0 as usize];
            slot.wake_gen += 1;
            let gen = slot.wake_gen;
            self.push(self.now + delay, Event::SelfWake { vcpu, gen });
        }
        let slot = &mut self.vcpus[vcpu.0 as usize];
        slot.state = VState::Blocked;
        slot.runnable_since = None;
        slot.last_core = Some(core);
        self.flags[vcpu.0 as usize] = false;
        self.sched.on_block(vcpu, core, self.now);
        let ran = std::mem::replace(&mut self.cores[core].ran_since_dispatch, Nanos::ZERO);
        if hot.trace {
            self.trace
                .emit(self.now, TraceClass::VCPU, || TraceEvent::Block { vcpu });
            self.trace
                .emit(self.now, TraceClass::SCHED, || TraceEvent::Deschedule {
                    core,
                    vcpu,
                    ran,
                });
        }
        let plan = self.sched.on_descheduled(vcpu, core, ran, self.now);
        self.stats.ops.record(OpKind::Deschedule, plan.cost);
        self.cores[core].pending_overhead += plan.cost;
        self.send_ipis(&plan.ipi_cores, hot);
        self.cores[core].running = None;
    }

    /// Sends a re-schedule IPI to every target, charging the machine's IPI
    /// latency per hop.
    fn send_ipis(&mut self, targets: &[usize], hot: Hot) {
        for &t in targets {
            let mut latency = self.machine.ipi_latency;
            if let Some(f) = self.faults.as_mut().filter(|_| hot.faults) {
                match f.ipi_fate() {
                    IpiFate::Deliver => {}
                    IpiFate::Late(extra) => latency += extra,
                    IpiFate::Lost { redeliver_after } => {
                        // The interrupt is dropped; the target still
                        // re-schedules when the fallback poll notices.
                        self.stats.ipis_lost += 1;
                        self.trace
                            .emit(self.now, TraceClass::FAULT, || TraceEvent::IpiLost {
                                core: t,
                            });
                        self.push(self.now + redeliver_after, Event::Resched { core: t });
                        continue;
                    }
                }
            }
            self.stats.ipis += 1;
            if hot.trace {
                self.trace
                    .emit(self.now, TraceClass::IPI, || TraceEvent::Ipi { core: t });
            }
            self.push(self.now + latency, Event::Resched { core: t });
        }
    }

    /// The effective demand of a compute burst: the declared amount, plus
    /// any injected overrun.
    #[inline]
    fn burst_demand(&mut self, vcpu: VcpuId, amount: Nanos, hot: Hot) -> Nanos {
        let amount = amount.max(Nanos(1));
        if !hot.faults {
            return amount;
        }
        let Some(extra) = self.faults.as_mut().and_then(|f| f.overrun_extra(amount)) else {
            return amount;
        };
        self.stats.overruns += 1;
        self.stats.overrun_time += extra;
        self.stats.vcpus[vcpu.0 as usize].overruns += 1;
        self.trace
            .emit(self.now, TraceClass::FAULT, || TraceEvent::Overrun {
                vcpu,
                extra,
            });
        amount + extra
    }

    /// Stops the vCPU currently on `core` (preemption path) and notifies
    /// the scheduler.
    fn stop_current(&mut self, core: usize, hot: Hot) {
        self.apply_progress(core);
        let Some(vcpu) = self.cores[core].running.take() else {
            return;
        };
        let slot = &mut self.vcpus[vcpu.0 as usize];
        slot.state = VState::Runnable;
        slot.runnable_since = Some(self.now);
        slot.last_core = Some(core);
        let ran = std::mem::replace(&mut self.cores[core].ran_since_dispatch, Nanos::ZERO);
        if hot.trace {
            self.trace
                .emit(self.now, TraceClass::SCHED, || TraceEvent::Deschedule {
                    core,
                    vcpu,
                    ran,
                });
        }
        let plan = self.sched.on_descheduled(vcpu, core, ran, self.now);
        self.stats.ops.record(OpKind::Deschedule, plan.cost);
        self.cores[core].pending_overhead += plan.cost;
        self.send_ipis(&plan.ipi_cores, hot);
    }

    /// Full scheduling pass on `core`: stop the incumbent, ask the
    /// scheduler, dispatch.
    pub(crate) fn resched(&mut self, core: usize, hot: Hot) {
        if !self.core_online[core] {
            // Re-schedules aimed at an offline core are absorbed; the
            // online path re-issues one when the core returns.
            return;
        }
        self.stop_current(core, hot);
        self.cores[core].gen += 1;
        self.resched_pick(core, hot);
    }

    /// The pick-and-dispatch half of a scheduling pass: the incumbent is
    /// already stopped and the decision generation bumped. Split out so the
    /// dense-batch path can resume a pass generically after a mid-pick
    /// bail.
    pub(crate) fn resched_pick(&mut self, core: usize, hot: Hot) {
        // A scheduler may hand back a vCPU that blocks instantly on
        // dispatch; loop a bounded number of times (each iteration blocks
        // one more vCPU, so it terminates).
        for _ in 0..=self.vcpus.len() {
            let view = VcpuView {
                runnable: &self.flags,
            };
            let (decision, cost) = self.sched.schedule(core, self.now, view);
            self.stats.ops.record(OpKind::Schedule, cost);
            let overhead = cost + std::mem::take(&mut self.cores[core].pending_overhead);
            let until = decision.until.max(self.now + Nanos(1));
            let Some((vcpu, action)) = self.dispatch(core, decision.vcpu, overhead, until, hot)
            else {
                return;
            };
            self.block_running(core, vcpu, action, hot); // and pick someone else
        }
        unreachable!("resched loop failed to terminate");
    }

    /// Acts on a decision taken for `core` now — run `vcpu` (or idle) until
    /// `until`, guest progress starting after `overhead` — and arms the
    /// core timer for the burst's end or the decision's expiry, whichever
    /// comes first. Shared by the generic pick and the dense batch. A guest
    /// that blocks straight off the dispatch is returned with its action
    /// *before* anything hears of the block: the caller follows up with
    /// [`Sim::block_running`] and picks again.
    ///
    /// Forced inline (as is [`Sim::burst_complete`]): with two call sites
    /// the compiler keeps it out of line, which measured ~5 % on the
    /// queue-driven path (two scheduling passes per guest I/O cycle).
    #[inline(always)]
    pub(crate) fn dispatch(
        &mut self,
        core: usize,
        vcpu: Option<VcpuId>,
        overhead: Nanos,
        until: Nanos,
        hot: Hot,
    ) -> Option<(VcpuId, GuestAction)> {
        self.cores[core].decision_until = until;

        let Some(vcpu) = vcpu else {
            if hot.trace {
                self.trace
                    .emit(self.now, TraceClass::SCHED, || TraceEvent::Idle { core });
            }
            self.arm_timer(core, until, hot);
            return None;
        };
        let v = vcpu.0 as usize;
        debug_assert!(self.flags[v], "dispatched blocked {vcpu}");

        if hot.trace {
            self.trace
                .emit(self.now, TraceClass::SCHED, || TraceEvent::Dispatch {
                    core,
                    vcpu,
                });
        }

        // Dispatch latency sample.
        if let Some(since) = self.vcpus[v].runnable_since.take() {
            self.stats.sample_delay(v, self.now - since);
        }
        self.stats.vcpus[v].dispatches += 1;

        // Context-switch and migration costs.
        let mut cs = Nanos::ZERO;
        if self.cores[core].last_ran != Some(vcpu) {
            cs += self.machine.context_switch;
            self.stats.context_switches += 1;
            let slot = &self.vcpus[v];
            if slot.last_core.is_some() && slot.last_core != Some(core) {
                cs += self.machine.migration_penalty;
            }
        }

        // Guest progress starts after overheads and context switch, and
        // never inside a stolen-time interval on this core (there is none
        // without a fault engine).
        let mut start = self.now + overhead + cs;
        if hot.faults {
            start = start.max(self.stolen_until[core]);
        }
        self.vcpus[v].state = VState::Running;
        let c = &mut self.cores[core];
        c.running = Some(vcpu);
        c.run_started = start;
        // Wall-time accounting: the dispatch overhead, context switch, and
        // any stolen-time stall are charged to the incoming vCPU (see field
        // docs).
        c.ran_since_dispatch = start - self.now;
        c.last_ran = Some(vcpu);

        // If the workload has no burst in progress, ask it now.
        let remaining = match self.vcpus[v].remaining {
            Some(remaining) => remaining,
            None => {
                let action = self.vcpus[v].workload.next(self.now);
                let GuestAction::Compute(amount) = action else {
                    return Some((vcpu, action));
                };
                let amount = self.burst_demand(vcpu, amount, hot);
                self.vcpus[v].remaining = Some(amount);
                amount
            }
        };
        let fire = (start + remaining).min(until);
        self.arm_timer(core, fire.max(self.now), hot);
        None
    }

    /// Delivers an external event to `vcpu`.
    fn deliver_external(&mut self, vcpu: VcpuId, tag: u64, hot: Hot) {
        let slot = &mut self.vcpus[vcpu.0 as usize];
        let wants_wake = slot.workload.on_event(tag, self.now);
        if slot.state == VState::Blocked && wants_wake {
            self.wake(vcpu, hot);
        }
    }

    /// Wakes a blocked vCPU and routes the wake-up through the scheduler.
    fn wake(&mut self, vcpu: VcpuId, hot: Hot) {
        let slot = &mut self.vcpus[vcpu.0 as usize];
        debug_assert_eq!(slot.state, VState::Blocked);
        slot.state = VState::Runnable;
        slot.runnable_since = Some(self.now);
        slot.remaining = None;
        self.flags[vcpu.0 as usize] = true;
        self.stats.vcpus[vcpu.0 as usize].wakeups += 1;
        if hot.trace {
            self.trace
                .emit(self.now, TraceClass::VCPU, || TraceEvent::Wake { vcpu });
        }

        let view = VcpuView {
            runnable: &self.flags,
        };
        let plan = self.sched.on_wakeup(vcpu, self.now, view);
        self.stats.ops.record(OpKind::Wakeup, plan.cost);
        // Wake-up processing time lands on the first IPI target (the core
        // that will act on it); with no target the cost is charged nowhere
        // — the wake-up was absorbed by state alone.
        if let Some(&first) = plan.ipi_cores.first() {
            self.cores[first].pending_overhead += plan.cost;
        }
        self.send_ipis(&plan.ipi_cores, hot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{BusyLoop, DeschedulePlan, IpiTargets, SchedDecision, WakeupPlan};

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    /// A trivial round-robin scheduler for driver tests: runs the lowest
    /// runnable vCPU id for a 1 ms quantum, on core (id % n_cores).
    struct ToyScheduler {
        n_cores: usize,
        vcpus: Vec<VcpuId>,
        rr_next: usize,
        /// Decisions still to come that expire at once (the simulator
        /// clamps them to `now + 1 ns`).
        impatient: u32,
    }

    impl ToyScheduler {
        fn new(n_cores: usize) -> ToyScheduler {
            ToyScheduler {
                n_cores,
                vcpus: Vec::new(),
                rr_next: 0,
                impatient: 0,
            }
        }
    }

    impl VmScheduler for ToyScheduler {
        fn name(&self) -> &'static str {
            "toy"
        }

        fn schedule(
            &mut self,
            core: usize,
            now: Nanos,
            view: VcpuView<'_>,
        ) -> (SchedDecision, Nanos) {
            let cost = Nanos::from_micros(1);
            if self.impatient > 0 {
                self.impatient -= 1;
                return (SchedDecision::idle(now), cost);
            }
            // Round-robin over runnable vCPUs homed on this core.
            let mine: Vec<VcpuId> = self
                .vcpus
                .iter()
                .copied()
                .filter(|v| v.0 as usize % self.n_cores == core && view.is_runnable(*v))
                .collect();
            if mine.is_empty() {
                return (SchedDecision::idle(now + ms(10)), cost);
            }
            let pick = mine[self.rr_next % mine.len()];
            self.rr_next += 1;
            (SchedDecision::run(pick, now + ms(1)), cost)
        }

        fn on_wakeup(&mut self, vcpu: VcpuId, _now: Nanos, _view: VcpuView<'_>) -> WakeupPlan {
            WakeupPlan {
                ipi_cores: IpiTargets::one(vcpu.0 as usize % self.n_cores),
                cost: Nanos::from_micros(1),
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

        fn register_vcpu(&mut self, vcpu: VcpuId, _home: usize) {
            self.vcpus.push(vcpu);
        }

        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn busy_vcpu_accumulates_service() {
        let mut sim = Sim::new(Machine::small(1), Box::new(ToyScheduler::new(1)));
        let v = sim.add_vcpu(Box::new(BusyLoop), 0, true);
        sim.run_until(ms(100));
        let s = sim.stats().vcpu(v);
        // Overheads and context switches eat a little; the guest should
        // still get the vast majority of 100 ms.
        assert!(s.service > ms(95), "service only {}", s.service);
        assert!(s.dispatches > 50);
    }

    #[test]
    fn two_busy_vcpus_share_a_core_evenly() {
        let mut sim = Sim::new(Machine::small(1), Box::new(ToyScheduler::new(1)));
        let a = sim.add_vcpu(Box::new(BusyLoop), 0, true);
        let b = sim.add_vcpu(Box::new(BusyLoop), 0, true);
        sim.run_until(ms(100));
        let (sa, sb) = (sim.stats().vcpu(a).service, sim.stats().vcpu(b).service);
        let ratio = sa.as_nanos() as f64 / sb.as_nanos() as f64;
        assert!((0.9..1.1).contains(&ratio), "unfair split {sa} vs {sb}");
    }

    #[test]
    fn blocked_vcpu_consumes_nothing_until_woken() {
        struct OneShot {
            served: bool,
        }
        impl GuestWorkload for OneShot {
            fn next(&mut self, _now: Nanos) -> GuestAction {
                if self.served {
                    GuestAction::Block
                } else {
                    self.served = true;
                    GuestAction::Compute(Nanos::from_micros(500))
                }
            }
            fn as_any(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }

        let mut sim = Sim::new(Machine::small(1), Box::new(ToyScheduler::new(1)));
        let v = sim.add_vcpu(Box::new(OneShot { served: false }), 0, false);
        sim.push_external(ms(50), v, 0);
        sim.run_until(ms(40));
        assert_eq!(sim.stats().vcpu(v).service, Nanos::ZERO);
        sim.run_until(ms(100));
        let s = sim.stats().vcpu(v);
        assert_eq!(s.service, Nanos::from_micros(500));
        assert_eq!(s.wakeups, 1);
    }

    #[test]
    fn self_wake_timers_fire() {
        /// Runs 100 us, sleeps 900 us, repeats.
        struct Periodic;
        impl GuestWorkload for Periodic {
            fn next(&mut self, _now: Nanos) -> GuestAction {
                GuestAction::Compute(Nanos::from_micros(100))
            }
            fn as_any(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        // Workload alternates compute/sleep via a wrapper.
        struct Alternating {
            compute_next: bool,
        }
        impl GuestWorkload for Alternating {
            fn next(&mut self, _now: Nanos) -> GuestAction {
                self.compute_next = !self.compute_next;
                if self.compute_next {
                    GuestAction::BlockFor(Nanos::from_micros(900))
                } else {
                    GuestAction::Compute(Nanos::from_micros(100))
                }
            }
            fn as_any(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut sim = Sim::new(Machine::small(1), Box::new(ToyScheduler::new(1)));
        let v = sim.add_vcpu(Box::new(Alternating { compute_next: true }), 0, true);
        sim.run_until(ms(10));
        let s = sim.stats().vcpu(v);
        // ~10 cycles of 100 us compute.
        assert!(
            s.service >= Nanos::from_micros(900),
            "service {}",
            s.service
        );
        assert!(s.service <= Nanos::from_micros(1100));
        assert!(s.wakeups >= 8);
        let _ = Periodic; // silence unused struct in this test body
    }

    #[test]
    fn overheads_are_recorded() {
        let mut sim = Sim::new(Machine::small(1), Box::new(ToyScheduler::new(1)));
        sim.add_vcpu(Box::new(BusyLoop), 0, true);
        sim.run_until(ms(10));
        let ops = &sim.stats().ops;
        assert!(ops.get(OpKind::Schedule).count >= 9);
        // Toy scheduler charges exactly 1 us per decision.
        assert!((ops.get(OpKind::Schedule).mean_us() - 1.0).abs() < 1e-9);
        assert!(ops.get(OpKind::Deschedule).count > 0);
    }

    #[test]
    fn scheduling_delay_is_tracked() {
        // Two busy vCPUs on one core with 1 ms quanta: each waits ~1 ms
        // while the other runs.
        let mut sim = Sim::new(Machine::small(1), Box::new(ToyScheduler::new(1)));
        let a = sim.add_vcpu(Box::new(BusyLoop), 0, true);
        sim.add_vcpu(Box::new(BusyLoop), 0, true);
        sim.run_until(ms(100));
        let s = sim.stats().vcpu(a);
        assert!(s.delay_max >= ms(1), "max delay {}", s.delay_max);
        assert!(s.delay_max <= ms(2), "max delay {}", s.delay_max);
    }

    #[test]
    fn multicore_independence() {
        let mut sim = Sim::new(Machine::small(2), Box::new(ToyScheduler::new(2)));
        let a = sim.add_vcpu(Box::new(BusyLoop), 0, true); // core 0
        let b = sim.add_vcpu(Box::new(BusyLoop), 1, true); // core 1
        sim.run_until(ms(50));
        // Both make near-full progress: no false sharing of cores.
        assert!(sim.stats().vcpu(a).service > ms(47));
        assert!(sim.stats().vcpu(b).service > ms(47));
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut sim = Sim::new(Machine::small(2), Box::new(ToyScheduler::new(2)));
            let a = sim.add_vcpu(Box::new(BusyLoop), 0, true);
            let b = sim.add_vcpu(Box::new(BusyLoop), 0, true);
            sim.push_external(ms(3), a, 7);
            sim.run_until(ms(20));
            (
                sim.stats().vcpu(a).service,
                sim.stats().vcpu(b).service,
                sim.stats().ops.get(OpKind::Schedule).count,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_a_past_time_is_a_no_op() {
        let run = |rewind: bool| {
            let mut sim = Sim::new(Machine::small(1), Box::new(ToyScheduler::new(1)));
            let a = sim.add_vcpu(Box::new(BusyLoop), 0, true);
            sim.run_until(ms(20));
            if rewind {
                let events = sim.events_processed();
                sim.run_until(ms(5));
                assert_eq!(sim.now(), ms(20), "the clock was rewound");
                assert_eq!(sim.events_processed(), events);
            }
            sim.run_until(ms(40));
            (sim.stats().vcpu(a).service, sim.events_processed())
        };
        assert_eq!(run(true), run(false));
    }

    /// The event log and event count of `drive` under `kind`, on one core
    /// with a busy vCPU 0 and a blocked vCPU 1 that computes 500 us per
    /// wake-up.
    fn logged(kind: EngineKind, impatient: u32, drive: fn(&mut Sim)) -> (Vec<String>, u64) {
        struct Server(bool);
        impl GuestWorkload for Server {
            fn next(&mut self, _now: Nanos) -> GuestAction {
                self.0 = !self.0;
                if self.0 {
                    GuestAction::Compute(Nanos::from_micros(500))
                } else {
                    GuestAction::Block
                }
            }
            fn as_any(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut sched = ToyScheduler::new(1);
        sched.impatient = impatient;
        let mut sim = Sim::new(Machine::small(1), Box::new(sched));
        sim.set_engine(kind);
        sim.enable_event_log();
        sim.add_vcpu(Box::new(BusyLoop), 0, true);
        sim.add_vcpu(Box::new(Server(false)), 0, false);
        drive(&mut sim);
        let log = sim.take_event_log();
        let lines = log.iter().map(|(at, seq, e)| format!("{at:?} #{seq} {e}"));
        (lines.collect(), sim.events_processed())
    }

    /// Runs `drive` on the register engines and returns the (common) log,
    /// having compared it line for line with the reference heap's.
    fn same_as_heap(impatient: u32, drive: fn(&mut Sim)) -> Vec<String> {
        let heap = logged(EngineKind::Heap, impatient, drive);
        for kind in [EngineKind::Unbatched, EngineKind::Hybrid] {
            let got = logged(kind, impatient, drive);
            for (i, (h, g)) in heap.0.iter().zip(&got.0).enumerate() {
                assert_eq!(h, g, "{kind:?}: line {i} differs from the heap's");
            }
            assert_eq!((heap.0.len(), heap.1), (got.0.len(), got.1), "{kind:?}");
        }
        heap.0
    }

    /// Positions of the first `CoreTimer` and the first `External` line
    /// at `at`.
    fn timer_and_external_at(log: &[String], at: Nanos) -> (usize, usize) {
        let first = |what: &str| {
            log.iter()
                .position(|l| l.starts_with(&format!("{at:?} ")) && l.contains(what))
                .unwrap_or_else(|| panic!("no {what} at {at:?} in {log:#?}"))
        };
        (first("CoreTimer"), first("External"))
    }

    #[test]
    fn a_queued_event_armed_before_a_same_instant_timer_goes_first() {
        // The external is queued before the run: its seq is smaller than
        // that of the decision timer armed at 2 ms for 3 ms.
        let log = same_as_heap(0, |sim| {
            sim.push_external(ms(3), VcpuId(1), 0);
            sim.run_until(ms(6));
        });
        let (timer, external) = timer_and_external_at(&log, ms(3));
        assert!(external < timer, "{log:#?}");
    }

    #[test]
    fn a_timer_armed_before_a_same_instant_queued_event_goes_first() {
        // Queued between two slices, after the timer for 3 ms was armed.
        let log = same_as_heap(0, |sim| {
            sim.run_until(ms(2) + Nanos::from_micros(500));
            sim.push_external(ms(3), VcpuId(1), 0);
            sim.run_until(ms(6));
        });
        let (timer, external) = timer_and_external_at(&log, ms(3));
        assert!(timer < external, "{log:#?}");
    }

    #[test]
    fn a_timer_rearmed_as_it_fires_keeps_its_place_among_queued_events() {
        // Six decisions expire at once: the timer fires at 1, 2, 3, ... ns
        // and each firing re-arms the register for the next nanosecond,
        // where a queued event already waits (smaller seq, at 2 ns) or
        // arrives later (larger seq, at 4 ns).
        let log = same_as_heap(6, |sim| {
            sim.push_external(Nanos(2), VcpuId(1), 0);
            sim.run_until(Nanos(3));
            sim.push_external(Nanos(4), VcpuId(1), 1);
            sim.run_until(ms(3));
        });
        let (timer, external) = timer_and_external_at(&log, Nanos(2));
        assert!(external < timer, "{log:#?}");
        let (timer, external) = timer_and_external_at(&log, Nanos(4));
        assert!(timer < external, "{log:#?}");
    }

    #[test]
    fn a_never_traced_sim_holds_no_ring() {
        let mut sim = Sim::new(Machine::small(1), Box::new(ToyScheduler::new(1)));
        sim.add_vcpu(Box::new(BusyLoop), 0, true);
        sim.run_until(ms(5));
        assert_eq!(sim.trace().reserved(), 0);
        sim.enable_tracing();
        assert!(sim.trace().reserved() >= 1 << 20);
    }

    /// Fingerprint of a run for byte-level replay comparisons.
    fn fingerprint(sim: &Sim) -> (Vec<Nanos>, Vec<Nanos>, u64, u64, u64, Vec<Nanos>) {
        let s = sim.stats();
        (
            s.vcpus.iter().map(|v| v.service).collect(),
            s.vcpus.iter().map(|v| v.delay_max).collect(),
            s.ops.get(OpKind::Schedule).count,
            s.ipis,
            s.context_switches,
            s.core_busy.clone(),
        )
    }

    #[test]
    fn zero_intensity_faults_replay_bit_for_bit() {
        let run = |faults: bool| {
            let mut sim = Sim::new(Machine::small(2), Box::new(ToyScheduler::new(2)));
            if faults {
                sim.set_fault_config(crate::fault::FaultConfig::with_intensity(99, 0.0));
            }
            let a = sim.add_vcpu(Box::new(BusyLoop), 0, true);
            sim.add_vcpu(Box::new(BusyLoop), 0, true);
            sim.add_vcpu(Box::new(BusyLoop), 1, true);
            sim.push_external(ms(3), a, 7);
            sim.run_until(ms(50));
            fingerprint(&sim)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn zero_intensity_installs_no_engine() {
        let mut sim = Sim::new(Machine::small(1), Box::new(ToyScheduler::new(1)));
        sim.set_fault_config(crate::fault::FaultConfig::with_intensity(1, 0.0));
        assert!(sim.fault_config().is_none());
        assert!(!sim.fault_switch_interrupted());
    }

    #[test]
    fn stolen_time_is_counted_and_slows_the_victim() {
        use crate::fault::{FaultConfig, StolenFaults};
        let run = |stolen: bool| {
            let mut sim = Sim::new(Machine::small(1), Box::new(ToyScheduler::new(1)));
            if stolen {
                sim.set_fault_config(FaultConfig {
                    stolen: StolenFaults {
                        cores: vec![0],
                        interval: ms(2),
                        duration: Nanos::from_micros(400),
                    },
                    ..FaultConfig::none()
                });
            }
            let v = sim.add_vcpu(Box::new(BusyLoop), 0, true);
            sim.run_until(ms(100));
            (sim.stats().vcpu(v).service, sim.stats().stolen_time[0])
        };
        let (clean_service, clean_stolen) = run(false);
        let (service, stolen) = run(true);
        assert_eq!(clean_stolen, Nanos::ZERO);
        assert!(stolen > ms(5), "stolen only {stolen}");
        // Service lost matches the theft, within overhead noise.
        assert!(
            service <= clean_service - stolen + ms(1),
            "service {service} vs clean {clean_service} - stolen {stolen}"
        );
        assert!(service >= clean_service - stolen - ms(5));
    }

    #[test]
    fn stolen_time_on_an_idle_core_reaches_the_scheduler() {
        use crate::fault::{FaultConfig, StolenFaults};
        let mut sim = Sim::new(Machine::small(1), Box::new(ToyScheduler::new(1)));
        sim.set_fault_config(FaultConfig {
            stolen: StolenFaults {
                cores: vec![0],
                interval: ms(1),
                duration: Nanos::from_micros(100),
            },
            ..FaultConfig::none()
        });
        // No vCPUs at all: thefts hit an idle core and must not crash or
        // charge service anywhere.
        sim.run_until(ms(20));
        assert!(sim.stats().stolen_time[0] > Nanos::ZERO);
        assert_eq!(sim.stats().core_busy[0], Nanos::ZERO);
    }

    #[test]
    fn lost_ipis_are_redelivered() {
        use crate::fault::{FaultConfig, IpiFaults};
        struct OneShot {
            served: bool,
        }
        impl GuestWorkload for OneShot {
            fn next(&mut self, _now: Nanos) -> GuestAction {
                if self.served {
                    GuestAction::Block
                } else {
                    self.served = true;
                    GuestAction::Compute(Nanos::from_micros(500))
                }
            }
            fn as_any(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut sim = Sim::new(Machine::small(1), Box::new(ToyScheduler::new(1)));
        sim.set_fault_config(FaultConfig {
            ipi: IpiFaults {
                loss_prob: 1.0,
                extra_delay: Nanos::ZERO,
                redeliver_after: Nanos::from_micros(200),
            },
            ..FaultConfig::none()
        });
        let v = sim.add_vcpu(Box::new(OneShot { served: false }), 0, false);
        sim.push_external(ms(50), v, 0);
        sim.run_until(ms(100));
        // Every wake-up IPI was lost, yet the fallback re-delivery still got
        // the guest running.
        assert!(sim.stats().ipis_lost > 0);
        assert_eq!(sim.stats().vcpu(v).service, Nanos::from_micros(500));
    }

    #[test]
    fn overruns_are_counted_and_extend_service() {
        use crate::fault::{FaultConfig, OverrunFaults};
        /// 100 us of declared compute, then sleep 900 us, forever.
        struct Periodic {
            compute_next: bool,
        }
        impl GuestWorkload for Periodic {
            fn next(&mut self, _now: Nanos) -> GuestAction {
                self.compute_next = !self.compute_next;
                if self.compute_next {
                    GuestAction::BlockFor(Nanos::from_micros(900))
                } else {
                    GuestAction::Compute(Nanos::from_micros(100))
                }
            }
            fn as_any(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut sim = Sim::new(Machine::small(1), Box::new(ToyScheduler::new(1)));
        sim.set_fault_config(FaultConfig {
            overrun: OverrunFaults {
                prob: 1.0,
                max_extra: Nanos::from_micros(50),
            },
            ..FaultConfig::none()
        });
        let v = sim.add_vcpu(Box::new(Periodic { compute_next: true }), 0, true);
        sim.run_until(ms(10));
        let s = sim.stats();
        assert!(s.overruns > 0);
        assert!(s.overrun_time > Nanos::ZERO);
        // The guest consumed its declared demand plus the injected extra.
        assert!(s.vcpu(v).service > Nanos::from_micros(900));
    }

    #[test]
    fn timer_faults_only_delay_and_stay_deterministic() {
        use crate::fault::{FaultConfig, TimerFaults};
        let run = || {
            let mut sim = Sim::new(Machine::small(1), Box::new(ToyScheduler::new(1)));
            sim.set_fault_config(FaultConfig {
                timer: TimerFaults {
                    jitter: Nanos::from_micros(30),
                    coarsen: Nanos::from_micros(100),
                },
                ..FaultConfig::none()
            });
            let a = sim.add_vcpu(Box::new(BusyLoop), 0, true);
            let b = sim.add_vcpu(Box::new(BusyLoop), 0, true);
            sim.run_until(ms(50));
            (sim.stats().vcpu(a).service, sim.stats().vcpu(b).service)
        };
        let (sa, sb) = run();
        assert_eq!(run(), (sa, sb));
        // Jittered quanta still share the core roughly evenly.
        let ratio = sa.as_nanos() as f64 / sb.as_nanos() as f64;
        assert!((0.8..1.25).contains(&ratio), "{sa} vs {sb}");
    }

    #[test]
    fn core_flaps_preempt_the_victim_and_service_resumes() {
        use crate::fault::{CoreFaults, FaultConfig};
        let run = |flaps: bool| {
            let mut sim = Sim::new(Machine::small(1), Box::new(ToyScheduler::new(1)));
            if flaps {
                sim.set_fault_config(FaultConfig {
                    core: CoreFaults {
                        cores: vec![0],
                        interval: ms(10),
                        outage: ms(4),
                    },
                    ..FaultConfig::none()
                });
            }
            let v = sim.add_vcpu(Box::new(BusyLoop), 0, true);
            sim.run_until(ms(100));
            (
                sim.stats().vcpu(v).service,
                sim.stats().core_offline_events,
                sim.stats().core_offline_time[0],
            )
        };
        let (clean, zero_events, zero_time) = run(false);
        assert_eq!(zero_events, 0);
        assert_eq!(zero_time, Nanos::ZERO);
        let (service, events, offline) = run(true);
        assert!(events > 3, "only {events} outages");
        assert!(offline > ms(5), "offline only {offline}");
        // Service lost tracks the outage time, within overhead noise.
        assert!(
            service <= clean - offline + ms(1),
            "service {service} vs clean {clean} - offline {offline}"
        );
        assert!(service >= clean - offline - ms(5));
    }

    #[test]
    fn offline_core_runs_nothing_and_reports_state() {
        use crate::fault::{CoreFaults, FaultConfig};
        let mut sim = Sim::new(Machine::small(2), Box::new(ToyScheduler::new(2)));
        sim.set_fault_config(FaultConfig {
            core: CoreFaults {
                cores: vec![0],
                interval: ms(1),
                // Outages far longer than the gap: core 0 is almost always
                // offline.
                outage: ms(200),
            },
            ..FaultConfig::none()
        });
        let a = sim.add_vcpu(Box::new(BusyLoop), 0, true); // core 0
        let b = sim.add_vcpu(Box::new(BusyLoop), 1, true); // core 1
        sim.run_until(ms(50));
        assert!(!sim.core_online(0));
        assert!(sim.core_online(1));
        // The victim made almost no progress; the other core is untouched.
        assert!(sim.stats().vcpu(a).service < ms(5));
        assert!(sim.stats().vcpu(b).service > ms(47));
    }

    #[test]
    fn core_flaps_replay_deterministically() {
        use crate::fault::{CoreFaults, FaultConfig};
        let run = || {
            let mut sim = Sim::new(Machine::small(2), Box::new(ToyScheduler::new(2)));
            sim.set_fault_config(FaultConfig {
                seed: 11,
                core: CoreFaults {
                    cores: vec![0, 1],
                    interval: ms(7),
                    outage: ms(2),
                },
                ..FaultConfig::none()
            });
            sim.add_vcpu(Box::new(BusyLoop), 0, true);
            sim.add_vcpu(Box::new(BusyLoop), 1, true);
            sim.run_until(ms(80));
            (fingerprint(&sim), sim.stats().core_offline_events)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trace_capacity_is_bounded_and_drops_are_reported() {
        let mut sim = Sim::new(Machine::small(1), Box::new(ToyScheduler::new(1)));
        sim.set_trace_capacity(8);
        sim.enable_tracing();
        sim.add_vcpu(Box::new(BusyLoop), 0, true);
        sim.add_vcpu(Box::new(BusyLoop), 0, true);
        sim.run_until(ms(50));
        assert_eq!(sim.trace().len(), 8);
        assert!(sim.trace().dropped() > 0);
        assert_eq!(sim.stats().trace_dropped, sim.trace().dropped());
    }
}
