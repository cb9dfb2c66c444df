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

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rtsched::time::Nanos;

use crate::fault::{FaultConfig, FaultEngine, IpiFate};
use crate::machine::Machine;
use crate::sched::{
    DenseCosts, DenseSlice, GuestAction, GuestWorkload, IdleGuest, PdesDecline, VcpuId, VcpuView,
    VmScheduler,
};
use crate::stats::{OpKind, SimStats};
use crate::timers::CoreTimers;
use crate::trace::{TraceBuffer, TraceClass, TraceEvent};
use crate::wheel::TimingWheel;

/// Guest-visible vCPU states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VState {
    /// Waiting for an event; not schedulable.
    Blocked,
    /// Schedulable but not on a core.
    Runnable,
    /// Executing on a core.
    Running,
}

struct VcpuSlot {
    state: VState,
    /// Remaining compute of the current burst; `None` means the workload
    /// must be asked for its next action at the next dispatch.
    remaining: Option<Nanos>,
    runnable_since: Option<Nanos>,
    last_core: Option<usize>,
    wake_gen: u64,
    /// Placement hint given at registration; the partitioned engine routes
    /// this vCPU's events to `socket_of(home)`, and wake-up IPI distances
    /// are measured from it.
    home: usize,
    workload: Box<dyn GuestWorkload>,
}

#[derive(Clone)]
struct CoreState {
    running: Option<VcpuId>,
    /// When the current vCPU began making guest progress (dispatch time
    /// plus overheads and context-switch cost).
    run_started: Nanos,
    /// Wall time charged to the vCPU since dispatch: guest progress plus
    /// the overheads and context-switch costs spent getting it running.
    /// This is what schedulers burn budgets/credits from — Xen's
    /// `burn_budget`-style accounting uses wall-clock deltas, which is
    /// precisely how scheduler overhead taxes a reservation.
    ran_since_dispatch: Nanos,
    decision_until: Nanos,
    /// Decision generation; stale core-timer events are ignored.
    gen: u64,
    /// Overhead charged to this core (wake-up processing, de-schedule
    /// work), consumed at the next dispatch.
    pending_overhead: Nanos,
    last_ran: Option<VcpuId>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Decision expiry or burst completion on a core.
    CoreTimer { core: usize, gen: u64 },
    /// Unconditional re-schedule (IPI arrival).
    Resched { core: usize },
    /// External event for a vCPU (packet, request, ping).
    External { vcpu: VcpuId, tag: u64 },
    /// Guest-internal timer expiry (from [`GuestAction::BlockFor`]).
    SelfWake { vcpu: VcpuId, gen: u64 },
    /// Scheduler periodic tick on a core.
    Tick { core: usize },
    /// Start of a stolen-time interval on a core (fault injection).
    Stolen { core: usize },
    /// A core drops out of service (fault injection).
    CoreOffline { core: usize },
    /// An offline core returns to service (fault injection).
    CoreOnline { core: usize },
}

/// Selects the pending-event structure backing a [`Sim`].
///
/// All engines handle events in identical `(time, seq)` order — the
/// `engine_equivalence` tests hold them to bit-for-bit equal streams,
/// [`Sim::events_processed`] included. The hybrid is the default; the heap
/// is the reference representation the others are proven against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Reference engine: one binary min-heap of `(time, seq, event)` holding
    /// *every* event, core timers included. A timer superseded by a later
    /// decision on its core is discarded when it surfaces, before it is
    /// counted or logged — the all-in-one-queue oracle for the per-core
    /// timer registers of the other engines.
    Heap,
    /// Hierarchical timing wheel ([`crate::wheel`]) for wake-ups, IPIs,
    /// externals, ticks and fault events — O(1) amortized insert/pop,
    /// allocation-free at steady state — plus one timer register per core
    /// for decision expiries and burst completions: re-arming a core
    /// overwrites the timer it supersedes, which therefore never exists.
    Wheel,
    /// The wheel engine plus dense-phase batching: when nothing is queued
    /// (only core timers are pending), no faults are armed, and the
    /// scheduler can pre-compute its decision sequence
    /// ([`VmScheduler::dense_window`]), slice boundaries are advanced in a
    /// branch-predictable inner loop without a virtual `schedule` call per
    /// decision. Bit-for-bit identical to the reference engines (modulo
    /// [`SimStats::batch`] counters and [`TraceClass::BATCH`] markers).
    #[default]
    Hybrid,
    /// Conservative per-socket PDES: each socket's cores advance on their
    /// own timing wheel up to a lookahead horizon bounded by the minimum
    /// cross-socket IPI latency, exchanging cross-socket events through
    /// ordered mailboxes drained at window boundaries. Runs the partitions
    /// on the `par` worker pool with index-ordered reassembly, so any
    /// worker count reproduces the sequential wheel run byte for byte
    /// (modulo [`SimStats::pdes`]/[`SimStats::batch`] counters and
    /// [`TraceClass::BATCH`] markers). Dense-phase batching composes
    /// inside each partition's window. Non-partitionable runs (single
    /// socket, armed faults, schedulers that do not opt in via
    /// [`VmScheduler::pdes_split`], ...) decline per `run_until` call to
    /// the sequential hybrid path, recording the reason in
    /// [`SimStats::pdes`].
    Partitioned,
}

impl EngineKind {
    /// The queue representation backing this engine (hybrid batching and
    /// PDES partitioning happen above the queue, which stays a wheel).
    fn repr(self) -> EngineKind {
        match self {
            EngineKind::Heap => EngineKind::Heap,
            EngineKind::Wheel | EngineKind::Hybrid | EngineKind::Partitioned => EngineKind::Wheel,
        }
    }
}

/// The pending-event set, behind the engine selection.
enum EventQueue {
    Heap(BinaryHeap<Reverse<(Nanos, u64, Event)>>),
    Wheel(Box<TimingWheel<Event>>),
}

impl EventQueue {
    fn new(repr: EngineKind) -> EventQueue {
        match repr.repr() {
            EngineKind::Heap => EventQueue::Heap(BinaryHeap::new()),
            _ => EventQueue::Wheel(Box::default()),
        }
    }

    fn kind(&self) -> EngineKind {
        match self {
            EventQueue::Heap(_) => EngineKind::Heap,
            EventQueue::Wheel(_) => EngineKind::Wheel,
        }
    }

    #[inline]
    fn push(&mut self, at: Nanos, seq: u64, event: Event) {
        match self {
            EventQueue::Heap(h) => h.push(Reverse((at, seq, event))),
            EventQueue::Wheel(w) => w.push(at, seq, event),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            EventQueue::Heap(h) => h.is_empty(),
            EventQueue::Wheel(w) => w.is_empty(),
        }
    }

    /// Removes the earliest event if its `(time, seq)` key is `<= bound`
    /// (the per-event operation of the simulation loop, fused so each
    /// engine does one ordering pass).
    #[inline]
    fn pop_if_at_most(&mut self, bound: (Nanos, u64)) -> Option<(Nanos, u64, Event)> {
        match self {
            EventQueue::Heap(h) => match h.peek() {
                Some(&Reverse((at, seq, _))) if (at, seq) <= bound => {
                    let Reverse(e) = h.pop().expect("peeked");
                    Some(e)
                }
                _ => None,
            },
            EventQueue::Wheel(w) => w.pop_if_key_at_most(bound.0, bound.1),
        }
    }

    fn pop(&mut self) -> Option<(Nanos, u64, Event)> {
        match self {
            EventQueue::Heap(h) => h.pop().map(|Reverse(e)| e),
            EventQueue::Wheel(w) => w.pop(),
        }
    }

    /// The time of the earliest pending event, without removing it (the
    /// partitioned engine's window-start probe).
    fn peek_at(&mut self) -> Option<Nanos> {
        match self {
            EventQueue::Heap(h) => h.peek().map(|Reverse((at, _, _))| *at),
            EventQueue::Wheel(w) => w.peek().map(|&(at, _, _)| at),
        }
    }
}

/// First provisional sequence number. While a partition runs a lookahead
/// window it cannot know which global `seq` values its pushes will get (the
/// global order interleaves all partitions), so it allocates from this
/// high half-space; the window-boundary merge re-enacts the global handling
/// order and rewrites every provisional key to the sequence number the
/// sequential engine would have allocated. At equal times provisional keys
/// compare after all pre-window (real) keys — exactly the order the
/// sequential engine gives current-window pushes — so intra-window pops are
/// correctly ordered before resolution.
const PROV_BASE: u64 = 1 << 63;

/// One handled event in a partition's window, recorded in handling order.
/// `pushes`/`traces` count the provisional seqs the event's handler
/// allocated and the trace records it spooled, so the boundary merge can
/// attribute both to the event that made them. When the run is
/// unobserved (no event log, tracing off), events that allocate nothing
/// are not recorded at all: they occupy a position in the global handling
/// order but assign no sequence numbers, so skipping them cannot change
/// what any other record resolves to — this keeps the record stream (and
/// the boundary re-enactment pass over it) proportional to the *pushing*
/// events only.
#[derive(Clone, Copy)]
struct Rec {
    at: Nanos,
    /// The popped queue key: a real (pre-window) seq or a provisional one.
    key: u64,
    /// Provisional seqs allocated by this event's handler.
    pushes: u32,
    /// Trace records spooled by this event's handler.
    traces: u32,
}

/// Partition-local state hung off a [`Sim`] acting as one PDES partition.
struct PartCtx {
    /// Owned core range: `[core_lo, core_hi)`.
    core_lo: usize,
    core_hi: usize,
    /// Per-target-socket ordered mailboxes of cross-partition events
    /// (provisional keys), drained at the window boundary.
    outboxes: Vec<Vec<(Nanos, u64, Event)>>,
    /// Events handled this window, in handling order.
    records: Vec<Rec>,
    /// The event being handled (finalized into `records` when the next
    /// event is noted, so its snapshots cover the whole handler).
    staged: Option<(Nanos, u64)>,
    /// Provisional-seq counter at the last finalized record (the baseline
    /// `pushes` deltas are taken against).
    last_seq: u64,
    /// Trace-spool length at the last finalized record.
    last_spool: usize,
    /// True when an event log or tracing observes this lane — every
    /// handled event must then be recorded. Cached here (constant for the
    /// whole run) so the per-event fast path tests one flag on a line it
    /// already owns.
    observed: bool,
}

/// A placeholder vCPU slot standing in for a vCPU owned elsewhere (the
/// master while a lane holds the real slot, and lanes for every foreign
/// vCPU). Only `home` is meaningful — it keeps event routing working.
fn placeholder_slot(home: usize) -> VcpuSlot {
    VcpuSlot {
        state: VState::Blocked,
        remaining: None,
        runnable_since: None,
        last_core: None,
        wake_gen: 0,
        home,
        workload: Box::new(IdleGuest),
    }
}

/// One core's share of a dense window: the scheduler's precomputed
/// decision sequence and the batch's progress through it. Pooled in
/// [`Sim`] and reset per window, so a batch allocates nothing at steady
/// state.
#[derive(Default)]
struct CoreWindow {
    slices: Vec<DenseSlice>,
    costs: DenseCosts,
    /// The next slice to consider.
    next_idx: usize,
    /// First picked slice not yet committed (`usize::MAX`: none).
    commit_from: usize,
    /// One past the last picked slice.
    picked_to: usize,
    /// Time of the latest pick (what the scheduler sees as its decision
    /// time on commit).
    last_decided: Nanos,
}

/// A deterministic discrete-event hypervisor simulation.
pub struct Sim {
    machine: Machine,
    now: Nanos,
    seq: u64,
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
    timers: CoreTimers,
    /// Batching is re-attempted only once `events_processed` passes this
    /// mark (set on every fallback, so a workload that keeps breaking
    /// batches does not pay the window-construction cost per event).
    batch_cooldown: u64,
    /// Consecutive unproductive batch attempts; the fallback cooldown
    /// doubles per bail (capped), so churny workloads that momentarily
    /// look dense pay the window-construction cost ever more rarely.
    batch_bails: u32,
    /// Per-core dense-window scratch (see [`CoreWindow`]).
    dense: Vec<CoreWindow>,
    cores: Vec<CoreState>,
    vcpus: Vec<VcpuSlot>,
    /// Runnable flags mirroring vCPU states, for cheap scheduler views.
    flags: Vec<bool>,
    sched: Box<dyn VmScheduler>,
    stats: SimStats,
    trace: TraceBuffer,
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
    events_processed: u64,
    /// When present, every handled event is appended as
    /// `(time, seq, debug string)` — the engine-equivalence tests compare
    /// these streams across engines. `None` (the default) costs one branch
    /// per event.
    event_log: Option<Vec<(Nanos, u64, String)>>,
    started: bool,
    /// Present while this `Sim` is acting as one PDES partition (a
    /// per-socket lane of a [`EngineKind::Partitioned`] parent run).
    /// Switches `push` into lane mode (provisional seqs, cross-socket
    /// routing into mailboxes) and arms per-event record keeping; handler
    /// bodies are untouched.
    part: Option<Box<PartCtx>>,
    /// Retired per-lane record buffers, reused across partitioned runs so
    /// the (events-proportional) record streams stop paying `Vec` growth
    /// after the first run.
    rec_pool: Vec<Vec<Rec>>,
    /// Retired master-seq maps (`gseq`), reused across window boundaries
    /// for the same reason.
    gseq_pool: Vec<Vec<u64>>,
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
            dense: Vec::new(),
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
            part: None,
            rec_pool: Vec::new(),
            gseq_pool: Vec::new(),
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

    /// The event-queue engine in use.
    pub fn engine_kind(&self) -> EngineKind {
        self.kind
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
            home,
            workload,
        });
        self.flags.push(runnable);
        self.sched.register_vcpu(id, home);
        id
    }

    /// Schedules an external event for `vcpu` at absolute time `at`.
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

    /// Mutable statistics access, for control loops that report recovery
    /// accounting (see [`crate::stats::RecoveryStats`]) into the run
    /// record.
    pub fn stats_mut(&mut self) -> &mut SimStats {
        &mut self.stats
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

    /// Mutable access to the scheduler under test.
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

    /// The core an event belongs to: core events by their core, vCPU
    /// events by the vCPU's home core (partitioned runs require every
    /// vCPU's placement to stay on its home socket; schedulers assert
    /// this in [`VmScheduler::pdes_split`]).
    fn event_core(&self, event: &Event) -> usize {
        match *event {
            Event::CoreTimer { core, .. }
            | Event::Resched { core }
            | Event::Tick { core }
            | Event::Stolen { core }
            | Event::CoreOffline { core }
            | Event::CoreOnline { core } => core,
            Event::External { vcpu, .. } | Event::SelfWake { vcpu, .. } => {
                self.vcpus[vcpu.0 as usize].home
            }
        }
    }

    /// The socket an event belongs to (see [`Sim::event_core`]).
    fn event_socket(&self, event: &Event) -> usize {
        self.machine.socket_of(self.event_core(event))
    }

    fn push(&mut self, at: Nanos, event: Event) {
        // Timer faults perturb hypervisor timers (decision expiry, burst
        // completion, ticks) only; external events, IPIs, and guest-internal
        // timers are delivered precisely. Adjustment only ever delays.
        let at = match (&mut self.faults, event) {
            (Some(f), Event::CoreTimer { .. } | Event::Tick { .. }) => f.adjust_timer(at),
            _ => at,
        };
        self.seq += 1;
        if let (Event::CoreTimer { core, gen }, EventQueue::Wheel(_)) = (event, &self.events) {
            self.timers.arm(core, (at, self.seq, gen));
            return;
        }
        // Lane mode: the seq just allocated is provisional (rewritten to
        // the global order at the window boundary); cross-socket events
        // route into the target's mailbox instead of the local wheel. The
        // ownership test is a range compare on the lane's core span —
        // cheaper than a socket division on this per-push hot path.
        let lane_core = self.part.is_some().then(|| self.event_core(&event));
        if let (Some(core), Some(part)) = (lane_core, self.part.as_mut()) {
            if core < part.core_lo || core >= part.core_hi {
                let target = self.machine.socket_of(core);
                part.outboxes[target].push((at, self.seq, event));
                return;
            }
        }
        self.events.push(at, self.seq, event);
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

        if !(self.kind == EngineKind::Partitioned && self.try_run_partitioned(end)) {
            self.run_events(end);
        }
        // An `end` in the past handles nothing and must not rewind the
        // clock either: armed timers and queued events are all `>= now`.
        self.now = self.now.max(end);
        self.stats.trace_dropped = self.trace.dropped();
    }

    /// The generic event loop: pops and handles every event due at or
    /// before `limit`. Shared between the sequential engines (where `limit`
    /// is the `run_until` horizon) and a partition's lookahead windows.
    fn run_events(&mut self, limit: Nanos) {
        loop {
            if self.events.is_empty()
                && matches!(self.kind, EngineKind::Hybrid | EngineKind::Partitioned)
                && self.faults.is_none()
                && self.batch_cooldown <= self.events_processed
                && self.sched.dense_capable()
            {
                // The batch advances as far as it can; wherever it stops,
                // the loop below carries on from the same registers.
                self.dense_batch(limit);
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
            if self.part.is_some() {
                self.note_handled(at, seq);
            }
            if let Some(log) = &mut self.event_log {
                log.push((at, seq, format!("{event:?}")));
            }
            self.handle(event);
        }
    }

    /// The time of the next pending event — queue head or earliest timer
    /// register — without handling it (the partitioned engine's
    /// window-start probe).
    fn next_at(&mut self) -> Option<Nanos> {
        let timer = self.timers.earliest().map(|t| t.0);
        self.events.peek_at().into_iter().chain(timer).min()
    }

    /// Records (in lane mode) that the event keyed `(at, key)` is about to
    /// be handled: finalizes the previous staged record with the current
    /// seq/trace snapshots (its handler is done) and stages this one.
    #[inline]
    fn note_handled(&mut self, at: Nanos, key: u64) {
        let seq = self.seq;
        {
            let part = self.part.as_mut().expect("lane mode");
            if !part.observed {
                // Unobserved fast path: traces cannot grow, and
                // zero-allocation events are droppable (see [`Rec`]), so the
                // record stream tracks pushing events only.
                if let Some((prev_at, prev_key)) = part.staged {
                    if seq != part.last_seq {
                        part.records.push(Rec {
                            at: prev_at,
                            key: prev_key,
                            pushes: (seq - part.last_seq) as u32,
                            traces: 0,
                        });
                        part.last_seq = seq;
                    }
                }
                part.staged = Some((at, key));
                return;
            }
        }
        let spool = self.trace.len();
        let part = self.part.as_mut().expect("lane mode");
        if let Some((prev_at, prev_key)) = part.staged.take() {
            part.records.push(Rec {
                at: prev_at,
                key: prev_key,
                pushes: (seq - part.last_seq) as u32,
                traces: (spool - part.last_spool) as u32,
            });
            part.last_seq = seq;
            part.last_spool = spool;
        }
        part.staged = Some((at, key));
    }

    /// Finalizes the last staged record at the end of a lookahead window.
    /// Always recorded (even when droppable) so "handled anything this
    /// window" stays readable off `records` for the stall counter.
    fn finalize_window(&mut self) {
        let seq = self.seq;
        let spool = self.trace.len();
        let part = self.part.as_mut().expect("lane mode");
        if let Some((at, key)) = part.staged.take() {
            part.records.push(Rec {
                at,
                key,
                pushes: (seq - part.last_seq) as u32,
                traces: (spool - part.last_spool) as u32,
            });
            part.last_seq = seq;
            part.last_spool = spool;
        }
    }

    /// One partition window: handle everything due at or before `limit`,
    /// then close out the record stream.
    fn run_window(&mut self, limit: Nanos) {
        self.run_events(limit);
        self.finalize_window();
    }

    /// Attempts to run `[now, end]` with the per-socket partitioned (PDES)
    /// engine. Returns `false` — recording the decline reason — when any
    /// precondition fails, in which case the caller falls through to the
    /// sequential loop; the two paths are bit-for-bit identical (modulo
    /// `stats.pdes`/`stats.batch` counters and `BATCH` trace markers).
    ///
    /// Scheme: each socket becomes a lane — a private `Sim` owning that
    /// socket's cores (timer registers included), vCPUs, and a wheel seeded
    /// with the socket's share of the pending queue. Lanes advance in
    /// conservative lookahead windows of the minimum cross-socket
    /// event-insertion latency (the cross-socket IPI hop), in parallel on
    /// `rayon` workers; cross-socket events land in per-pair mailboxes. At
    /// each barrier the master re-enacts the global handling order from the
    /// lanes' per-event records, assigns the exact sequence numbers the
    /// sequential engine would have, splices logs and traces, renumbers
    /// still-pending events (queued or in a timer register), and delivers
    /// the mailboxes — so any worker count reproduces the sequential run
    /// byte-for-byte.
    fn try_run_partitioned(&mut self, end: Nanos) -> bool {
        debug_assert!(self.part.is_none(), "nested partitioned run");
        let n_sockets = self.machine.n_sockets;
        if n_sockets < 2 {
            self.stats.pdes.declined_single_socket += 1;
            return false;
        }
        if self.faults.is_some() {
            self.stats.pdes.declined_faults_armed += 1;
            return false;
        }
        let split = match self.sched.pdes_split(&self.machine) {
            Ok(split) => split,
            Err(reason) => {
                let pdes = &mut self.stats.pdes;
                match reason {
                    PdesDecline::SingleSocket => pdes.declined_single_socket += 1,
                    PdesDecline::FaultsArmed => pdes.declined_faults_armed += 1,
                    PdesDecline::SchedulerOptOut => pdes.declined_scheduler_opt_out += 1,
                    PdesDecline::TablesUnsettled => pdes.declined_tables_unsettled += 1,
                    PdesDecline::MonitorAttached => pdes.declined_monitor_attached += 1,
                    PdesDecline::CrossSocketPlacement => pdes.declined_cross_socket_placement += 1,
                    PdesDecline::NoLookahead => pdes.declined_no_lookahead += 1,
                }
                return false;
            }
        };
        if split.parts.len() != n_sockets {
            debug_assert!(
                false,
                "pdes_split returned {} partitions for {n_sockets} sockets",
                split.parts.len()
            );
            self.stats.pdes.declined_scheduler_opt_out += 1;
            return false;
        }
        // Every vCPU the scheduler places must sit on its home socket —
        // events for a vCPU route by home, so a cross-socket placement
        // would put its dispatches in the wrong lane.
        for (v, slot) in self.vcpus.iter().enumerate() {
            let home_socket = self.machine.socket_of(slot.home);
            if let Some(s) = split.vcpu_sockets.get(v).copied().flatten() {
                if s != home_socket {
                    self.stats.pdes.declined_cross_socket_placement += 1;
                    return false;
                }
            }
        }
        let lookahead = self.machine.cross_ipi_latency();
        if lookahead == Nanos::ZERO && !split.socket_local_ipis {
            self.stats.pdes.declined_no_lookahead += 1;
            return false;
        }

        // ---- Split: route the master queue and state into lanes.
        let per = self.machine.cores_per_socket;
        let mut seeds: Vec<Vec<(Nanos, u64, Event)>> = (0..n_sockets).map(|_| Vec::new()).collect();
        while let Some((at, seq, event)) = self.events.pop() {
            let s = self.event_socket(&event);
            seeds[s].push((at, seq, event));
        }

        let mut lanes: Vec<Sim> = Vec::with_capacity(n_sockets);
        for (li, sched) in split.parts.into_iter().enumerate() {
            let core_lo = li * per;
            let core_hi = core_lo + per;
            let mut vcpus: Vec<VcpuSlot> = Vec::with_capacity(self.vcpus.len());
            for slot in self.vcpus.iter_mut() {
                let home = slot.home;
                if self.machine.socket_of(home) == li {
                    // Owned: move the real slot into the lane (the master
                    // keeps a placeholder until reassembly).
                    vcpus.push(std::mem::replace(slot, placeholder_slot(home)));
                } else {
                    vcpus.push(placeholder_slot(home));
                }
            }
            let mut lane = Sim {
                machine: self.machine,
                now: self.now,
                seq: PROV_BASE,
                kind: EngineKind::Partitioned,
                events: EventQueue::new(EngineKind::Wheel),
                timers: self.timers.only(core_lo..core_hi),
                batch_cooldown: 0,
                batch_bails: 0,
                dense: Vec::new(),
                cores: self.cores.clone(),
                vcpus,
                flags: self.flags.clone(),
                sched,
                stats: SimStats::new(self.machine.n_cores()),
                trace: TraceBuffer::spool_like(&self.trace),
                faults: None,
                stolen_until: self.stolen_until.clone(),
                core_online: self.core_online.clone(),
                events_processed: 0,
                event_log: self.event_log.is_some().then(Vec::new),
                started: true,
                part: Some(Box::new(PartCtx {
                    core_lo,
                    core_hi,
                    outboxes: (0..n_sockets).map(|_| Vec::new()).collect(),
                    records: self.rec_pool.pop().unwrap_or_default(),
                    staged: None,
                    last_seq: PROV_BASE,
                    last_spool: 0,
                    observed: self.event_log.is_some() || self.trace.is_enabled(),
                })),
                rec_pool: Vec::new(),
                gseq_pool: Vec::new(),
            };
            for (at, seq, event) in seeds[li].drain(..) {
                lane.events.push(at, seq, event);
            }
            lanes.push(lane);
        }

        // ---- Conservative window loop.
        let socket_local = split.socket_local_ipis;
        loop {
            let w = lanes.iter_mut().filter_map(|l| l.next_at()).min();
            let Some(w) = w.filter(|&w| w <= end) else {
                break;
            };
            // Socket-local IPIs mean lanes cannot affect each other at all
            // inside this run: one window covers the whole horizon.
            let limit = if socket_local {
                end
            } else {
                end.min(w + lookahead - Nanos(1))
            };
            rayon::par_map_mut(&mut lanes, |_i, lane| lane.run_window(limit));
            self.stats.pdes.windows_advanced += 1;
            for lane in &lanes {
                let part = lane.part.as_ref().expect("lane");
                if part.records.is_empty() {
                    self.stats.pdes.lookahead_stalls += 1;
                }
                assert!(
                    !socket_local || part.outboxes.iter().all(|o| o.is_empty()),
                    "scheduler declared socket-local IPIs but emitted a cross-socket event"
                );
            }
            self.merge_boundary(&mut lanes);
        }

        // ---- Finish: reassemble the master from the lanes.
        let mut parts: Vec<Box<dyn VmScheduler>> = Vec::with_capacity(n_sockets);
        for (li, mut lane) in lanes.into_iter().enumerate() {
            let mut part = lane.part.take().expect("lane");
            debug_assert!(part.records.is_empty() && part.staged.is_none());
            self.rec_pool.push(std::mem::take(&mut part.records));
            while let Some((at, key, event)) = lane.events.pop() {
                debug_assert!(key < PROV_BASE, "unresolved key survived the last boundary");
                self.events.push(at, key, event);
            }
            debug_assert!(lane.timers.max_seq() < PROV_BASE, "unresolved timer key");
            self.timers.adopt(&lane.timers, part.core_lo..part.core_hi);
            for core in part.core_lo..part.core_hi {
                self.cores[core] = lane.cores[core].clone();
                self.stolen_until[core] = lane.stolen_until[core];
                self.core_online[core] = lane.core_online[core];
            }
            for v in 0..self.vcpus.len() {
                if self.machine.socket_of(self.vcpus[v].home) == li {
                    std::mem::swap(&mut self.vcpus[v], &mut lane.vcpus[v]);
                    self.flags[v] = lane.flags[v];
                }
            }
            self.stats.absorb(&lane.stats);
            self.events_processed += lane.events_processed;
            parts.push(lane.sched);
        }
        self.sched.pdes_merge(&self.machine, parts);
        self.stats.pdes.partitioned_runs += 1;
        true
    }

    /// Window-boundary barrier: re-enacts the global handling order from
    /// the lanes' per-event records, assigning master sequence numbers to
    /// every push made this window (exactly the numbers the sequential
    /// engine would have allocated), splicing event-log lines and trace
    /// records in that order, then renumbering still-pending lane events
    /// (queued ones and armed timer registers alike) and delivering the
    /// cross-socket mailboxes.
    fn merge_boundary(&mut self, lanes: &mut [Sim]) {
        let n_lanes = lanes.len();
        let log_on = self.event_log.is_some();
        // Pull each lane's record and log streams out up front: the merge
        // loop then walks plain local slices instead of re-borrowing
        // through every lane's `part` box per iteration. The record
        // vectors go back (cleared, capacity kept) in the renumber pass.
        let mut recs: Vec<Vec<Rec>> = lanes
            .iter_mut()
            .map(|l| std::mem::take(&mut l.part.as_mut().expect("lane").records))
            .collect();
        let mut logs: Vec<std::vec::IntoIter<(Nanos, u64, String)>> = lanes
            .iter_mut()
            .map(|l| {
                let fresh = l.event_log.is_some().then(Vec::new);
                std::mem::replace(&mut l.event_log, fresh)
                    .unwrap_or_default()
                    .into_iter()
            })
            .collect();
        // Each lane's allocation count is exact (`seq - PROV_BASE`), so the
        // maps reserve once; retired maps come back from the pool.
        let mut gseq: Vec<Vec<u64>> = Vec::with_capacity(n_lanes);
        for lane in lanes.iter() {
            let mut g = self.gseq_pool.pop().unwrap_or_default();
            g.reserve((lane.seq - PROV_BASE) as usize);
            gseq.push(g);
        }
        fn resolve(key: u64, gseq: &[u64]) -> u64 {
            if key < PROV_BASE {
                key
            } else {
                gseq[(key - PROV_BASE - 1) as usize]
            }
        }

        // Merge cursors with *cached* resolved heads. A lane's head key
        // always resolves against its own lane's `gseq`: the pusher's
        // record sits strictly earlier in the same stream, so by the time
        // a record becomes the head, every allocation it can reference is
        // already numbered — recomputing the cache only after consuming
        // from that lane is sound.
        let mut idx = vec![0usize; n_lanes];
        let mut spool = vec![0usize; n_lanes];
        let mut head: Vec<Option<(Nanos, u64)>> = recs
            .iter()
            .map(|r| r.first().map(|rec| (rec.at, resolve(rec.key, &[]))))
            .collect();
        loop {
            // Head record with the globally smallest (time, resolved seq).
            let mut best: Option<(Nanos, u64, usize)> = None;
            for (li, h) in head.iter().enumerate() {
                if let Some((at, rk)) = *h {
                    if best.is_none_or(|(bat, bk, _)| (at, rk) < (bat, bk)) {
                        best = Some((at, rk, li));
                    }
                }
            }
            let Some((at, rk, li)) = best else {
                break;
            };
            let rec = recs[li][idx[li]];
            idx[li] += 1;
            // Master seqs for this record's pushes, in allocation order —
            // exactly when the sequential engine would have allocated them.
            let base = self.seq;
            gseq[li].extend(base + 1..=base + rec.pushes as u64);
            self.seq = base + rec.pushes as u64;
            if log_on {
                if let Some(line) = logs[li].next() {
                    debug_assert_eq!(line.0, at);
                    if let Some(log) = &mut self.event_log {
                        log.push((at, rk, line.2));
                    }
                }
            }
            if rec.traces > 0 {
                let end = spool[li] + rec.traces as usize;
                for i in spool[li]..end {
                    let r = lanes[li].trace.spooled()[i];
                    self.trace.absorb_record(r);
                }
                spool[li] = end;
            }
            head[li] = recs[li]
                .get(idx[li])
                .map(|r| (r.at, resolve(r.key, &gseq[li])));
        }

        // Renumber still-pending lane events, queued or in a timer register
        // (provisional keys get their assigned master seqs), and resolve
        // the outboxes.
        let mut deliveries: Vec<(usize, Nanos, u64, Event)> = Vec::new();
        for (li, lane) in lanes.iter_mut().enumerate() {
            debug_assert_eq!((lane.seq - PROV_BASE) as usize, gseq[li].len());
            if lane.seq != PROV_BASE {
                let mut held: Vec<(Nanos, u64, Event)> = Vec::new();
                while let Some(e) = lane.events.pop() {
                    held.push(e);
                }
                for (at, key, event) in held {
                    lane.events.push(at, resolve(key, &gseq[li]), event);
                }
                lane.timers.rekey(|key| resolve(key, &gseq[li]));
            }
            lane.seq = PROV_BASE;
            let part = lane.part.as_mut().expect("lane");
            let mut records = std::mem::take(&mut recs[li]);
            records.clear();
            part.records = records;
            part.last_seq = PROV_BASE;
            part.last_spool = 0;
            for target in 0..n_lanes {
                for (at, key, event) in part.outboxes[target].drain(..) {
                    deliveries.push((target, at, resolve(key, &gseq[li]), event));
                }
            }
            lane.trace.clear();
        }
        for (target, at, key, event) in deliveries {
            lanes[target].events.push(at, key, event);
            self.stats.pdes.mailbox_events += 1;
        }
        for mut g in gseq {
            g.clear();
            self.gseq_pool.push(g);
        }
    }

    /// Advances a dense phase in a batched inner loop.
    ///
    /// Preconditions (checked by the caller): the queue is empty — every
    /// pending event is a core timer — no fault engine is installed, and
    /// the scheduler is dense-capable. The scheduler pre-computes each
    /// core's decision sequence over a capped window
    /// ([`VmScheduler::dense_window`]; a dense phase longer than the cap
    /// rolls window-to-window inside the batch); slice boundaries are then
    /// processed straight from the timer registers — no per-decision
    /// virtual calls — with byte-identical `seq` allocation, event-log
    /// lines, traces, and stats to the generic loop. The scheduler's own
    /// state is synced at each window boundary via
    /// [`VmScheduler::dense_commit`].
    ///
    /// The moment anything the window cannot express happens (a guest
    /// blocks, the window under-runs), the batch commits, finishes the
    /// in-flight operation through the generic helpers, and returns. The
    /// registers are the batch's pending list and the generic loop's alike,
    /// so however a batch ends there is nothing to hand back: the caller's
    /// event loop, or the next batch, continues from them as they stand.
    fn dense_batch(&mut self, end: Nanos) {
        let mut win = std::mem::take(&mut self.dense);
        win.resize_with(self.cores.len(), CoreWindow::default);
        self.dense_windows(end, &mut win);
        self.dense = win;
    }

    /// The window loop of [`Sim::dense_batch`].
    fn dense_windows(&mut self, end: Nanos, win: &mut [CoreWindow]) {
        // One window's construction cost is bounded by capping how much
        // simulated time it may cover (one second ≈ a few thousand slices
        // per core, so even a `run_until` spanning hours cannot make a
        // single attempt allocate unboundedly); a dense phase longer than
        // the cap rolls into the next window *inside* the batch — no
        // event-queue round-trip, no generic event in between.
        const WINDOW_CAP: Nanos = Nanos(1_000_000_000);

        // The earliest armed timer, if it is due before the horizon.
        let due = |sim: &mut Sim| sim.timers.earliest().map(|t| t.0).filter(|&at| at <= end);
        // Nothing due: nothing to batch, and no verdict on the bail streak.
        let Some(mut first) = due(self) else {
            return;
        };
        loop {
            // Each window starts at the earliest untaken timer, not at the
            // clock: after a window that stopped short of a table switch
            // the clock is still before the switch and the timers are at or
            // past it, so the next window opens on the new table.
            let from = first.max(self.now);
            let mut cap = end.min(from + WINDOW_CAP);

            // Ask the scheduler for every owned core's decision window up
            // front (all cores sequentially; the partition's range in lane
            // mode); any core declining aborts the attempt before any
            // state changes. A window is cut where its earliest validity
            // bound falls (the roll below continues from there).
            let (lo, hi) = self
                .part
                .as_ref()
                .map_or((0, win.len()), |p| (p.core_lo, p.core_hi));
            let mut valid_before = Nanos::MAX;
            for (core, w) in win.iter_mut().enumerate().take(hi).skip(lo) {
                w.slices.clear();
                let view = VcpuView {
                    runnable: &self.flags,
                };
                match self
                    .sched
                    .dense_window(core, from, cap, view, &mut w.slices)
                {
                    Some(certified) => {
                        w.costs = certified.costs;
                        valid_before = valid_before.min(certified.valid_before);
                    }
                    None => {
                        self.stats.batch.fallback_window += 1;
                        self.batch_cooldown = self.events_processed + self.bail_cooldown(0);
                        return;
                    }
                }
                w.next_idx = 0;
                w.commit_from = usize::MAX;
                w.picked_to = 0;
                w.last_decided = Nanos::ZERO;
            }
            cap = cap.min(valid_before - Nanos(1));
            let mut batched: u64 = 0;

            self.stats.batch.batch_entries += 1;
            self.trace
                .emit(self.now, TraceClass::BATCH, || TraceEvent::BatchEnter {
                    pending: self.timers.armed(),
                });

            while let Some((at, seq, core)) = self.timers.earliest().filter(|t| t.0 <= cap) {
                let (_, _, gen) = self.timers.take(core).expect("armed register");
                debug_assert_eq!(self.cores[core].gen, gen, "a superseded timer was armed");
                debug_assert!(at >= self.now, "time went backwards");
                self.now = at;
                self.events_processed += 1;
                batched += 1;
                if self.part.is_some() {
                    self.note_handled(at, seq);
                }
                if let Some(log) = &mut self.event_log {
                    log.push((at, seq, format!("{:?}", Event::CoreTimer { core, gen })));
                }

                if self.cores[core].running.is_some() && self.now < self.cores[core].decision_until
                {
                    // Burst completion inside the decision window. A guest
                    // that blocks ends the batch: sync the scheduler before
                    // it hears of the block, then finish generically.
                    if let Some((vcpu, action)) = self.burst_complete(core) {
                        self.dense_commit_all(win);
                        self.block_running(core, vcpu, action);
                        self.resched(core);
                        self.dense_bailed(batched);
                        self.stats.batch.fallback_block += 1;
                        return;
                    }
                    continue;
                }

                // Decision expiry: de-schedule the incumbent (`stop_current`
                // under the dense contract — flat cost, no IPIs) and take the
                // next slice from the precomputed window.
                self.apply_progress(core);
                let costs = win[core].costs;
                if let Some(vcpu) = self.cores[core].running.take() {
                    let slot = &mut self.vcpus[vcpu.0 as usize];
                    slot.state = VState::Runnable;
                    slot.runnable_since = Some(self.now);
                    slot.last_core = Some(core);
                    let ran =
                        std::mem::replace(&mut self.cores[core].ran_since_dispatch, Nanos::ZERO);
                    self.trace
                        .emit(self.now, TraceClass::SCHED, || TraceEvent::Deschedule {
                            core,
                            vcpu,
                            ran,
                        });
                    self.stats.ops.record(OpKind::Deschedule, costs.deschedule);
                    self.cores[core].pending_overhead += costs.deschedule;
                }
                self.cores[core].gen += 1;

                let w = &mut win[core];
                let mut i = w.next_idx;
                while i < w.slices.len() && w.slices[i].until <= self.now {
                    i += 1;
                }
                if i >= w.slices.len() {
                    // The window under-ran the horizon (contract violation —
                    // windows must extend past it); bail into the generic pick.
                    debug_assert!(false, "dense window exhausted before the horizon");
                    self.dense_commit_all(win);
                    self.resched_pick(core);
                    self.dense_bailed(batched);
                    self.stats.batch.fallback_window += 1;
                    return;
                }
                let slice = w.slices[i];
                if w.commit_from == usize::MAX {
                    w.commit_from = i;
                }
                w.next_idx = i + 1;
                w.picked_to = i + 1;
                w.last_decided = self.now;
                self.stats.ops.record(OpKind::Schedule, costs.schedule);
                let overhead =
                    costs.schedule + std::mem::take(&mut self.cores[core].pending_overhead);
                let until = slice.until.max(self.now + Nanos(1));
                if let Some((vcpu, action)) = self.dispatch(core, slice.vcpu, overhead, until) {
                    // Blocks straight off the dispatch: sync, then resume
                    // the pick loop generically (where the generic path
                    // `continue`s inside `resched_pick`).
                    self.dense_commit_all(win);
                    self.block_running(core, vcpu, action);
                    self.resched_pick(core);
                    self.dense_bailed(batched);
                    self.stats.batch.fallback_block += 1;
                    return;
                }
            }

            // Window end reached: sync the scheduler, then either roll into
            // the next window or stop (horizon reached, or nothing further
            // due before it). No cooldown either way, and a finished batch
            // resets the bail streak: the attempt paid for itself.
            self.dense_commit_all(win);
            self.stats.batch.batched_events += batched;
            self.stats.batch.batch_exits += 1;
            self.stats.batch.fallback_horizon += 1;
            self.trace
                .emit(self.now, TraceClass::BATCH, || TraceEvent::BatchExit {
                    batched,
                });
            match due(self) {
                Some(next) if cap < end => first = next,
                _ => {
                    self.batch_bails = 0;
                    return;
                }
            }
        }
    }

    /// Closes out a batch that bailed mid-window after `batched` events:
    /// exit accounting and the re-attempt cooldown (the per-cause fallback
    /// counter is the caller's).
    fn dense_bailed(&mut self, batched: u64) {
        self.stats.batch.batched_events += batched;
        self.stats.batch.batch_exits += 1;
        self.trace
            .emit(self.now, TraceClass::BATCH, || TraceEvent::BatchExit {
                batched,
            });
        self.batch_cooldown = self.events_processed + self.bail_cooldown(batched);
    }

    /// Registers a bailed batch attempt and returns how many events the
    /// generic loop must process before the next one. The base cooldown
    /// doubles per consecutive unproductive bail (capped at `32 << 8` =
    /// 8192 events), so workloads that momentarily look dense but always
    /// break the batch pay the window-construction cost ever more rarely;
    /// a bail that still batched a sizeable run of events — or any batch
    /// that reaches its horizon — resets the streak.
    fn bail_cooldown(&mut self, batched: u64) -> u64 {
        /// Events to process generically after a fallback before batching
        /// is attempted again.
        const COOLDOWN: u64 = 32;
        if batched >= 256 {
            self.batch_bails = 0;
        } else {
            self.batch_bails = (self.batch_bails + 1).min(8);
        }
        COOLDOWN << self.batch_bails
    }

    /// Replays the cumulative effect of a window's picks on the scheduler
    /// (see [`VmScheduler::dense_commit`]), in core order.
    fn dense_commit_all(&mut self, win: &mut [CoreWindow]) {
        for (core, w) in win.iter_mut().enumerate() {
            if w.commit_from == usize::MAX || w.commit_from >= w.picked_to {
                continue;
            }
            let consumed = &w.slices[w.commit_from..w.picked_to];
            let running = self.cores[core].running.is_some();
            self.sched
                .dense_commit(core, w.last_decided, consumed, running);
            w.commit_from = usize::MAX;
        }
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::CoreTimer { core, gen } => {
                debug_assert_eq!(self.cores[core].gen, gen, "superseded timer handled");
                if !(self.cores[core].running.is_some()
                    && self.now < self.cores[core].decision_until)
                {
                    self.resched(core);
                } else if let Some((vcpu, action)) = self.burst_complete(core) {
                    self.block_running(core, vcpu, action);
                    // Blocking invokes the scheduler, exactly as in Xen.
                    self.resched(core);
                }
            }
            Event::Resched { core } => self.resched(core),
            Event::External { vcpu, tag } => self.deliver_external(vcpu, tag),
            Event::SelfWake { vcpu, gen } => {
                let slot = &self.vcpus[vcpu.0 as usize];
                if slot.wake_gen == gen && slot.state == VState::Blocked {
                    self.wake(vcpu);
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
                    self.resched(core);
                }
            }
            Event::Stolen { core } => self.steal(core),
            Event::CoreOffline { core } => self.core_goes_offline(core),
            Event::CoreOnline { core } => self.core_comes_online(core),
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
    fn core_goes_offline(&mut self, core: usize) {
        let (duration, gap) = {
            let f = self
                .faults
                .as_mut()
                .expect("core-offline event without a fault engine");
            (f.outage_duration(), f.outage_gap())
        };
        self.stop_current(core);
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
    fn core_comes_online(&mut self, core: usize) {
        self.core_online[core] = true;
        self.trace
            .emit(self.now, TraceClass::FAULT, || TraceEvent::CoreOnline {
                core,
            });
        self.sched.on_core_online(core, self.now);
        self.resched(core);
    }

    /// Applies guest progress made on `core` since `run_started`.
    fn apply_progress(&mut self, core: usize) -> Nanos {
        let c = &mut self.cores[core];
        let Some(vcpu) = c.running else {
            return Nanos::ZERO;
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
        self.stats.vcpu_mut(vcpu).service += ran;
        ran
    }

    /// The running vCPU's burst finished before the decision expired: asks
    /// its workload for the next action and, for more compute, re-arms the
    /// core timer. A guest that blocks instead is returned with its action
    /// *before* anything hears of the block — the caller follows up with
    /// [`Sim::block_running`] and a re-schedule.
    #[inline(always)]
    fn burst_complete(&mut self, core: usize) -> Option<(VcpuId, GuestAction)> {
        self.apply_progress(core);
        let vcpu = self.cores[core].running.expect("burst on idle core");
        let remaining = self.vcpus[vcpu.0 as usize]
            .remaining
            .expect("burst event without a burst");
        if remaining > Nanos::ZERO {
            // Stolen time shifted the progress clock after this timer was
            // armed, so the burst is not actually done; re-arm for the rest.
            debug_assert!(self.faults.is_some(), "burst event fired early");
            let c = &self.cores[core];
            let fire = (c.run_started.max(self.now) + remaining).min(c.decision_until);
            let gen = c.gen;
            self.push(fire, Event::CoreTimer { core, gen });
            return None;
        }
        self.vcpus[vcpu.0 as usize].remaining = None;
        let action = self.vcpus[vcpu.0 as usize].workload.next(self.now);
        let GuestAction::Compute(amount) = action else {
            return Some((vcpu, action));
        };
        let amount = self.burst_demand(vcpu, amount);
        self.vcpus[vcpu.0 as usize].remaining = Some(amount);
        let c = &mut self.cores[core];
        c.run_started = self.now;
        let fire = (self.now + amount).min(c.decision_until);
        let gen = c.gen;
        self.push(fire, Event::CoreTimer { core, gen });
        None
    }

    /// Transitions the running `vcpu` on `core` to blocked for `action` (a
    /// [`GuestAction::BlockFor`] arms its wake-up first), with scheduler
    /// notification and de-schedule bookkeeping.
    fn block_running(&mut self, core: usize, vcpu: VcpuId, action: GuestAction) {
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
        self.trace
            .emit(self.now, TraceClass::VCPU, || TraceEvent::Block { vcpu });
        let ran = std::mem::replace(&mut self.cores[core].ran_since_dispatch, Nanos::ZERO);
        self.trace
            .emit(self.now, TraceClass::SCHED, || TraceEvent::Deschedule {
                core,
                vcpu,
                ran,
            });
        let plan = self.sched.on_descheduled(vcpu, core, ran, self.now);
        self.stats.ops.record(OpKind::Deschedule, plan.cost);
        self.cores[core].pending_overhead += plan.cost;
        self.send_ipis(core, &plan.ipi_cores);
        self.cores[core].running = None;
    }

    /// Sends re-schedule IPIs from `src` to every target, charging the
    /// intra- or cross-socket latency per hop (see
    /// [`Machine::ipi_latency_between`]).
    fn send_ipis(&mut self, src: usize, targets: &[usize]) {
        for &t in targets {
            let mut latency = self.machine.ipi_latency_between(src, t);
            if let Some(f) = &mut self.faults {
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
            self.trace
                .emit(self.now, TraceClass::IPI, || TraceEvent::Ipi { core: t });
            self.push(self.now + latency, Event::Resched { core: t });
        }
    }

    /// The effective demand of a compute burst: the declared amount, plus
    /// any injected overrun.
    fn burst_demand(&mut self, vcpu: VcpuId, amount: Nanos) -> Nanos {
        let amount = amount.max(Nanos(1));
        let Some(extra) = self.faults.as_mut().and_then(|f| f.overrun_extra(amount)) else {
            return amount;
        };
        self.stats.overruns += 1;
        self.stats.overrun_time += extra;
        self.stats.vcpu_mut(vcpu).overruns += 1;
        self.trace
            .emit(self.now, TraceClass::FAULT, || TraceEvent::Overrun {
                vcpu,
                extra,
            });
        amount + extra
    }

    /// Stops the vCPU currently on `core` (preemption path) and notifies
    /// the scheduler.
    fn stop_current(&mut self, core: usize) {
        self.apply_progress(core);
        let Some(vcpu) = self.cores[core].running.take() else {
            return;
        };
        let slot = &mut self.vcpus[vcpu.0 as usize];
        slot.state = VState::Runnable;
        slot.runnable_since = Some(self.now);
        slot.last_core = Some(core);
        let ran = std::mem::replace(&mut self.cores[core].ran_since_dispatch, Nanos::ZERO);
        self.trace
            .emit(self.now, TraceClass::SCHED, || TraceEvent::Deschedule {
                core,
                vcpu,
                ran,
            });
        let plan = self.sched.on_descheduled(vcpu, core, ran, self.now);
        self.stats.ops.record(OpKind::Deschedule, plan.cost);
        self.cores[core].pending_overhead += plan.cost;
        self.send_ipis(core, &plan.ipi_cores);
    }

    /// Full scheduling pass on `core`: stop the incumbent, ask the
    /// scheduler, dispatch.
    fn resched(&mut self, core: usize) {
        if !self.core_online[core] {
            // Re-schedules aimed at an offline core are absorbed; the
            // online path re-issues one when the core returns.
            return;
        }
        self.stop_current(core);
        self.cores[core].gen += 1;
        self.resched_pick(core);
    }

    /// The pick-and-dispatch half of a scheduling pass: the incumbent is
    /// already stopped and the decision generation bumped. Split out so the
    /// dense-batch path can resume a pass generically after a mid-pick
    /// bail.
    fn resched_pick(&mut self, core: usize) {
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
            let Some((vcpu, action)) = self.dispatch(core, decision.vcpu, overhead, until) else {
                return;
            };
            self.block_running(core, vcpu, action); // and pick someone else
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
    fn dispatch(
        &mut self,
        core: usize,
        vcpu: Option<VcpuId>,
        overhead: Nanos,
        until: Nanos,
    ) -> Option<(VcpuId, GuestAction)> {
        self.cores[core].decision_until = until;
        let gen = self.cores[core].gen;

        let Some(vcpu) = vcpu else {
            self.trace
                .emit(self.now, TraceClass::SCHED, || TraceEvent::Idle { core });
            self.push(until, Event::CoreTimer { core, gen });
            return None;
        };
        debug_assert!(self.flags[vcpu.0 as usize], "dispatched blocked {vcpu}");

        self.trace
            .emit(self.now, TraceClass::SCHED, || TraceEvent::Dispatch {
                core,
                vcpu,
            });

        // Dispatch latency sample.
        let slot = &mut self.vcpus[vcpu.0 as usize];
        if let Some(since) = slot.runnable_since.take() {
            let delay = self.now - since;
            self.stats.record_delay(vcpu, delay);
        }
        self.stats.vcpu_mut(vcpu).dispatches += 1;

        // Context-switch and migration costs.
        let mut cs = Nanos::ZERO;
        if self.cores[core].last_ran != Some(vcpu) {
            cs += self.machine.context_switch;
            self.stats.context_switches += 1;
            let slot = &self.vcpus[vcpu.0 as usize];
            if slot.last_core.is_some() && slot.last_core != Some(core) {
                cs += self.machine.migration_penalty;
            }
        }

        // Guest progress starts after overheads and context switch, and
        // never inside a stolen-time interval on this core.
        let start = (self.now + overhead + cs).max(self.stolen_until[core]);
        let slot = &mut self.vcpus[vcpu.0 as usize];
        slot.state = VState::Running;
        let c = &mut self.cores[core];
        c.running = Some(vcpu);
        c.run_started = start;
        // Wall-time accounting: the dispatch overhead, context switch, and
        // any stolen-time stall are charged to the incoming vCPU (see field
        // docs).
        c.ran_since_dispatch = start - self.now;
        c.last_ran = Some(vcpu);

        // If the workload has no burst in progress, ask it now.
        if self.vcpus[vcpu.0 as usize].remaining.is_none() {
            let action = self.vcpus[vcpu.0 as usize].workload.next(self.now);
            let GuestAction::Compute(amount) = action else {
                return Some((vcpu, action));
            };
            let amount = self.burst_demand(vcpu, amount);
            self.vcpus[vcpu.0 as usize].remaining = Some(amount);
        }

        let remaining = self.vcpus[vcpu.0 as usize]
            .remaining
            .expect("dispatched vCPU without a burst");
        let fire = (start + remaining).min(until);
        self.push(fire.max(self.now), Event::CoreTimer { core, gen });
        None
    }

    /// Delivers an external event to `vcpu`.
    fn deliver_external(&mut self, vcpu: VcpuId, tag: u64) {
        let slot = &mut self.vcpus[vcpu.0 as usize];
        let wants_wake = slot.workload.on_event(tag, self.now);
        if slot.state == VState::Blocked && wants_wake {
            self.wake(vcpu);
        }
    }

    /// Wakes a blocked vCPU and routes the wake-up through the scheduler.
    fn wake(&mut self, vcpu: VcpuId) {
        let slot = &mut self.vcpus[vcpu.0 as usize];
        debug_assert_eq!(slot.state, VState::Blocked);
        slot.state = VState::Runnable;
        slot.runnable_since = Some(self.now);
        slot.remaining = None;
        self.flags[vcpu.0 as usize] = true;
        self.stats.vcpu_mut(vcpu).wakeups += 1;
        self.trace
            .emit(self.now, TraceClass::VCPU, || TraceEvent::Wake { vcpu });

        let view = VcpuView {
            runnable: &self.flags,
        };
        let plan = self.sched.on_wakeup(vcpu, self.now, view);
        self.stats.ops.record(OpKind::Wakeup, plan.cost);
        // Wake-up processing time lands on the first IPI target (the core
        // that will act on it); with no target the cost is charged nowhere
        // — the wake-up was absorbed by state alone.
        if let Some(&first) = plan.ipi_cores.first() {
            // In lane mode the cost must land on an owned core — wake
            // events route to the home socket, and partition-capable
            // schedulers keep wake IPI targets on the waker's socket.
            debug_assert!(
                self.part
                    .as_ref()
                    .is_none_or(|p| (p.core_lo..p.core_hi).contains(&first)),
                "wake IPI cost target {first} outside the partition"
            );
            self.cores[first].pending_overhead += plan.cost;
        }
        let home = self.vcpus[vcpu.0 as usize].home;
        self.send_ipis(home, &plan.ipi_cores);
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
        for kind in [EngineKind::Wheel, EngineKind::Hybrid] {
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
