//! The table-driven advance strategy: dense-phase batching.
//!
//! A [`Sim`] advances time in one of two ways. The queue-driven loop
//! (`Sim::run_events` in [`crate::sim`]) pops the `(time, seq)` minimum of
//! the event queue and the per-core timer registers and handles it. When
//! the queue is empty — every pending event is a core timer — no fault
//! engine is installed and the scheduler can certify its decision sequence
//! ([`VmScheduler::dense_window`](crate::sched::VmScheduler::dense_window)),
//! the next stretch of events is fully determined by the slice tables, and
//! this module's window loop advances it straight from the registers
//! without a virtual `schedule` call per decision. Both strategies work on
//! the same machine state and the same registers, so a batch hands nothing
//! back: wherever it stops, the queue-driven loop carries on. Only
//! [`EngineKind::Hybrid`](crate::EngineKind::Hybrid) batches; the `Wheel`
//! and `Heap` oracles never enter this module, and `engine_equivalence` /
//! `dense_equivalence` hold the three to bit-for-bit equal streams.
//!
//! A certified window is one table lap per core, and it is kept: a host
//! that nothing touched between two `run_until` calls continues reading
//! the lap where the previous call left it, without asking the scheduler
//! again (`Sim::dense_until` says how long the window stays exact, and
//! everything that could change it clears that).
//!
//! A window whose machine state comes back to itself after one period is
//! periodic, and then the window loop need not run at all: the loop
//! records one lap of what its events changed (a [`Ledger`]), checks that
//! the lap ended where it began, shifted by one period, and from then on
//! the window advances by replaying the ledger — whole laps at once, with
//! every additive statistic multiplied, and the rest entry by entry, a few
//! adds each (DESIGN.md §5.13, "Periodic replay").

use rtsched::time::Nanos;

use crate::queue::Event;
use crate::sched::{DenseCosts, DensePicks, DenseSlice, VcpuId, VcpuView};
use crate::sim::{CoreState, Hot, Sim, VState, VcpuSlot};
use crate::stats::{OpKind, SimStats};
use crate::timers::Timer;
use crate::trace::{TraceClass, TraceEvent};

/// One core's share of the certified dense window: one lap of the
/// scheduler's decisions, the cursor into it, and the picks taken since
/// the last commit. Allocated once per core and refilled per
/// certification, so a batch allocates nothing at steady state.
#[derive(Default)]
pub(crate) struct CoreWindow {
    lap: Vec<DenseSlice>,
    /// The lap's period: slice `i` of lap `j` ends at
    /// `lap[i].until + j * period`.
    period: Nanos,
    costs: DenseCosts,
    /// Lap index of the next slice to consider.
    next: usize,
    /// Added to the ends of the lap the cursor is in (`j * period`).
    offset: Nanos,
    /// Decisions taken since the last commit (`count == 0`: none).
    picks: DensePicks,
    /// De-schedules since the last commit. Like the picks, they are
    /// charged to the operation statistics at the window's flat cost when
    /// the window commits: all an event changes is the count.
    deschedules: u64,
    /// Events of this core in the replay under way (see [`Ledger`]).
    replayed: u64,
    /// Ledger position `(lap, entry)` of the last of them.
    last: (u64, usize),
    /// Where the ledger's lap index `i` of this core's slices sits in
    /// `lap`: at `(i + rotate) % lap.len()` (a window certified afresh
    /// on the same slices opens its lap elsewhere).
    rotate: usize,
}

/// How far the certified window reaches, over all cores.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DenseReach {
    /// The last instant the window is exact for: one nanosecond before the
    /// earliest [`DenseWindow::valid_before`](crate::sched::DenseWindow).
    last: Nanos,
    /// The earliest
    /// [`DenseWindow::uncertified_from`](crate::sched::DenseWindow): a
    /// call whose horizon reaches it is not batched.
    uncertified_from: Nanos,
}

impl CoreWindow {
    /// Takes the next decision at `now`: the first slice ending after it.
    /// Returns the slice's vCPU and absolute end.
    #[inline(always)]
    fn pick(&mut self, now: Nanos) -> (Option<VcpuId>, Nanos) {
        loop {
            let i = self.next;
            let slice = self.lap[i];
            let until = slice.until + self.offset;
            self.next += 1;
            if self.next == self.lap.len() {
                self.next = 0;
                self.offset += self.period;
            }
            if until <= now {
                // Only before a window's first pick on this core: the lap
                // opens on the slice containing the certification time,
                // the core's pending decision may end later. After that,
                // every decision expires exactly where its slice ends
                // (checked within a call; `picks` restarts at a commit).
                debug_assert_eq!(self.picks.count, 0, "a certified slice was skipped");
                continue;
            }
            if self.picks.count == 0 {
                self.picks.first = i;
            }
            self.picks.last = i;
            self.picks.count += 1;
            self.picks.at = now;
            self.picks.until = until;
            return (slice.vcpu, until);
        }
    }

    /// The index in `lap` of the ledger's lap index `slice`.
    fn lap_index(&self, slice: u16) -> usize {
        let i = usize::from(slice) + self.rotate;
        if i < self.lap.len() {
            i
        } else {
            i - self.lap.len()
        }
    }

    /// Puts the cursor where [`CoreWindow::pick`] leaves it after taking
    /// slice `i` ending at `until`. That slice may be the lap's last one a
    /// period early: the one ending where a window certified since opens
    /// its lap.
    fn seek_past(&mut self, i: usize, until: Nanos) {
        let end = self.lap[i].until;
        self.next = i + 1;
        self.offset = if self.next < self.lap.len() {
            until - end
        } else {
            self.next = 0;
            match until.checked_sub(end) {
                Some(later) => later + self.period,
                None => self.period - (end - until),
            }
        };
    }
}

/// [`LapEntry::flags`]: a vCPU was de-scheduled (`out`, `ran`, `charged`).
const OUT: u8 = 1;
/// A vCPU was dispatched (`vcpu`, `lead`); without it the core idles on.
const RUN: u8 = 2;
/// The dispatch took a delay sample (`delay`).
const SAMPLED: u8 = 4;
/// The dispatch counted a context switch.
const SWITCH: u8 = 8;
/// No vCPU in [`LapEntry::vcpu`] or [`LapEntry::out`].
const NO_VCPU: u16 = u16::MAX;

/// One event of a recorded lap: what the window loop's handling of a
/// decision expiry changed, read off the machine state and the statistics
/// the loop wrote — the part every replay of the event reads (20 bytes;
/// [`LapTail`] holds the rest). Times are offsets from the lap's opening
/// instant ([`Ledger::base`]), durations are nanoseconds.
#[derive(Debug, Clone, Copy)]
struct LapEntry {
    /// When the event happened.
    at: u32,
    /// Guest progress the de-scheduled vCPU made up to the event (its
    /// service and the core's busy time).
    ran: u32,
    /// The dispatch's delay sample.
    delay: u32,
    /// The de-scheduled vCPU.
    out: u16,
    /// The dispatched vCPU or, when the core idles on, its `last_ran`
    /// ([`NO_VCPU`] for none).
    vcpu: u16,
    /// Lap index of the slice picked.
    slice: u16,
    core: u8,
    flags: u8,
}

/// The rest of a lap event: read for a core's last replayed event, which
/// leaves the core's state behind, and for traced replays.
#[derive(Debug, Clone, Copy)]
struct LapTail {
    /// The end of the slice picked: the core's `decision_until` and its
    /// re-armed timer.
    until: u32,
    /// The dispatched vCPU's `ran_since_dispatch` after the event, which is
    /// also its `run_started` less the event time.
    lead: u32,
    /// The de-scheduled vCPU's wall-clock charge (its `Deschedule` record).
    charged: u32,
}

/// Where the ledger stands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Phase {
    /// No lap is being recorded; the next event the loop retires opens one
    /// once every core's pending decision is a window slice ([`settled`]).
    Idle,
    /// As `Idle`, but not before the core's decision a burst ended inside
    /// has expired: until then the core's progress clock restarts at the
    /// burst's end, where a lap later it restarts at a dispatch.
    Held(usize),
    /// A lap is being recorded from [`Ledger::base`] on.
    Recording,
    /// The recorded lap passed the periodic check; the window advances by
    /// replaying it. The window's cursors are left where replay found
    /// them until the loop needs them again ([`Sim::resync_cursors`]).
    Ready,
    /// The ledger ran out of replayable laps (the next one ends a burst):
    /// the window loop handles that lap, and at its end the machine is
    /// checked against the ledger again ([`Sim::recheck`]).
    Recheck,
    /// The window cannot be replayed: there is none, its cores' laps have
    /// different periods, or a period, a lap or the machine is too large
    /// for the ledger's compact fields.
    #[default]
    Never,
}

/// The machine state at the opening of a recorded lap: what the periodic
/// check compares the lap's end with.
#[derive(Default)]
struct LapOpen {
    cores: Vec<CoreOpen>,
    vcpus: Vec<VcpuOpen>,
}

/// A core's state at the opening of a recorded lap, and its events in it.
#[derive(Clone)]
struct CoreOpen {
    state: CoreState,
    timer: Option<Timer>,
    next: usize,
    offset: Nanos,
    /// Events of the core in the recorded lap.
    events: u64,
}

/// What a vCPU's state was at the opening of a recorded lap.
#[derive(Clone, Copy)]
struct VcpuOpen {
    state: VState,
    remaining: Option<Nanos>,
    runnable_since: Option<Nanos>,
    last_core: Option<usize>,
}

/// What one lap of a ledger gives a vCPU.
#[derive(Debug, Clone, Copy, Default)]
struct LapTotal {
    /// Guest progress.
    served: Nanos,
    /// The sum of its delay samples.
    delays: Nanos,
    /// The progress of the slice it runs across the lap's opening, which
    /// the lap's first event of it de-schedules: a lap that ends by
    /// dispatching it again needs that much of its burst left.
    carry: Nanos,
}

/// The statistics and counters the window loop reads before an event it
/// records, to tell what the event added.
#[derive(Clone, Copy)]
struct Probe {
    busy: Nanos,
    switches: u64,
    delays: u64,
    delay_total: Nanos,
}

/// One recorded lap of a periodic window and the replay position in it.
///
/// The ledger belongs to the carried window: a window is only ever
/// replaced through [`Sim::certify`], which clears the ledger unless the
/// new window decides exactly what the old one did and no event was
/// handled in between. So everything that drops the window — a
/// `scheduler_mut` borrow, a handled queue event, a bail, reaching
/// `valid_before` or a declined call — drops the ledger with it, or finds
/// it still exact. It holds at most one lap of events (about 35 on a fleet
/// host, 32 bytes each), allocated at the lap's exact size and reused.
#[derive(Default)]
pub(crate) struct Ledger {
    phase: Phase,
    /// The lap's events, in the global `(time, seq)` order the loop
    /// handled them.
    entries: Vec<LapEntry>,
    /// The rest of each event, index for index.
    tails: Vec<LapTail>,
    /// The common period of every core's lap.
    period: Nanos,
    /// The recorded lap's opening instant: the time of its first event.
    base: Nanos,
    /// `Sim::seq` at the opening: event `i` of lap `j` arms its core's
    /// timer with `seq + j * entries.len() + i + 1`.
    seq: u64,
    /// Replay position: lap (the recorded one is lap 0) and entry of the
    /// next event.
    lap: u64,
    pos: usize,
    /// The last lap the ledger may replay: the next one ends a burst, or
    /// would write a time or counter past its type.
    last_lap: u64,
    /// Per vCPU, what one lap gives it.
    totals: Vec<LapTotal>,
    /// The latest offset from `base` a lap writes (a slice end or a
    /// progress clock).
    reach: u64,
    /// Per vCPU, [`Sim::recheck`]'s scratch.
    seen: Vec<bool>,
    /// `Sim::events_processed` when a batch last left the machine where
    /// the ledger's position says: a window certified afresh keeps the
    /// ledger only if no event was handled since.
    synced: u64,
    /// The opening state of the lap being recorded; dropped once the lap
    /// is checked, so that only hosts recording a lap hold one.
    open: Option<Box<LapOpen>>,
}

/// `x` as a ledger offset, if it fits.
fn offset(x: Nanos) -> Option<u32> {
    u32::try_from(x.as_nanos()).ok()
}

/// `n` times the ledger duration `x`. Replays are capped so that this and
/// every sum it feeds fit ([`Sim::close_lap`]).
fn times(x: u32, n: u64) -> Nanos {
    Nanos(
        u64::from(x)
            .checked_mul(n)
            .expect("replays are capped to fit"),
    )
}

/// A vCPU id as a ledger field.
/// A vCPU id as a ledger field, if it fits one.
fn vcpu_field(v: Option<VcpuId>) -> Option<u16> {
    match v {
        None => Some(NO_VCPU),
        Some(v) => u16::try_from(v.0).ok().filter(|&v| v != NO_VCPU),
    }
}

impl Sim {
    /// Advances a dense phase in a batched inner loop, up to `end`.
    ///
    /// Preconditions (checked by the caller): the queue is empty — every
    /// pending event is a core timer — no fault engine is installed, and
    /// the scheduler is dense-capable. The window is the one carried from
    /// an earlier call if it is still exact at the earliest timer, else
    /// the scheduler certifies a fresh lap per core
    /// ([`crate::sched::VmScheduler::dense_window`]). Slice boundaries are
    /// then processed straight from the timer registers — no per-decision
    /// virtual calls — with byte-identical `seq` allocation, event-log
    /// lines, traces, and stats to the generic loop: the loop retires the
    /// earliest register, as the generic loop would, so the global
    /// `(time, seq)` order is kept. Once the window has shown itself
    /// periodic, the loop replays its recorded lap instead (see
    /// [`Ledger`]). The scheduler's own state is synced at the end of the
    /// call, and at a table switch, via
    /// [`crate::sched::VmScheduler::dense_commit`].
    ///
    /// The moment anything the window cannot express happens (a guest
    /// blocks), the batch commits, drops the window, finishes the
    /// in-flight operation through the generic helpers, and returns. The
    /// registers are the batch's pending list and the generic loop's alike,
    /// so however a batch ends there is nothing to hand back: the caller's
    /// event loop, or the next batch, continues from them as they stand.
    pub(crate) fn dense_batch(&mut self, end: Nanos, hot: Hot) {
        // The earliest armed timer, if it is due before the horizon.
        let due = |sim: &mut Sim| sim.timers.earliest().map(|t| t.0).filter(|&at| at <= end);
        // Nothing due: nothing to batch, and no verdict on the bail streak.
        let Some(mut first) = due(self) else {
            return;
        };
        loop {
            let reach = match self.dense_until {
                Some(reach) if first <= reach.last => Some(reach),
                // No window, or the carried one ends before the earliest
                // timer: certify a fresh one there, not at the clock. After
                // a window that stopped short of a table switch the clock
                // is still before the switch and the timers are at or past
                // it, so the fresh window opens on the new table.
                _ => self.certify(first.max(self.now)),
            };
            // A call that would reach an uncertified decision runs
            // generically from its start, as one whose window is declined
            // outright does (the bail cooldown applies to both).
            let Some(reach) = reach.filter(|r| r.uncertified_from > end) else {
                self.dense_until = None;
                self.stats.batch.fallback_window += 1;
                self.batch_cooldown = self.events_processed + self.bail_cooldown(0);
                return;
            };
            let cap = end.min(reach.last);
            let mut batched: u64 = 0;

            self.stats.batch.batch_entries += 1;
            if hot.trace {
                self.trace
                    .emit(self.now, TraceClass::BATCH, || TraceEvent::BatchEnter {
                        pending: self.timers.armed(),
                    });
            }

            while let Some((at, seq, core)) = self.timers.earliest().filter(|t| t.0 <= cap) {
                if self.ledger.phase != Phase::Never {
                    let replayed = self.ledger_turn(at, cap, hot);
                    if replayed > 0 {
                        batched += replayed;
                        continue;
                    }
                }
                let recording = self.ledger.phase == Phase::Recording;
                let (_, _, gen) = self.timers.take(core).expect("armed register");
                debug_assert_eq!(self.cores[core].gen, gen, "a superseded timer was armed");
                debug_assert!(at >= self.now, "time went backwards");
                self.now = at;
                batched += 1;
                if hot.log {
                    if let Some(log) = &mut self.event_log {
                        log.push((at, seq, format!("{:?}", Event::CoreTimer { core, gen })));
                    }
                }

                if self.cores[core].running.is_some() && self.now < self.cores[core].decision_until
                {
                    // A burst ends inside its slice: no lap that holds this
                    // event repeats, so the one being recorded is dropped,
                    // and none is opened before the slice ends (a ledger
                    // being re-checked expects it).
                    if !matches!(self.ledger.phase, Phase::Never | Phase::Recheck) {
                        self.ledger.phase = Phase::Held(core);
                    }
                    // Burst completion inside the decision window. A guest
                    // that blocks ends the batch: sync the scheduler before
                    // it hears of the block, then finish generically.
                    if let Some((vcpu, action)) = self.burst_complete(core, hot) {
                        self.dense_commit_all();
                        self.block_running(core, vcpu, action, hot);
                        self.resched(core, hot);
                        self.dense_bailed(batched, hot);
                        return;
                    }
                    continue;
                }

                // Decision expiry: de-schedule the incumbent (`stop_current`
                // under the dense contract — flat cost, no IPIs) and take the
                // next slice from the window.
                let busy = recording.then(|| self.stats.core_busy[core]);
                self.apply_progress(core);
                let w = &mut self.dense[core];
                let costs = w.costs;
                let mut out = None;
                if let Some(vcpu) = self.cores[core].running.take() {
                    w.deschedules += 1;
                    let slot = &mut self.vcpus[vcpu.0 as usize];
                    slot.state = VState::Runnable;
                    slot.runnable_since = Some(self.now);
                    slot.last_core = Some(core);
                    let ran =
                        std::mem::replace(&mut self.cores[core].ran_since_dispatch, Nanos::ZERO);
                    if hot.trace {
                        self.trace
                            .emit(self.now, TraceClass::SCHED, || TraceEvent::Deschedule {
                                core,
                                vcpu,
                                ran,
                            });
                    }
                    self.cores[core].pending_overhead += costs.deschedule;
                    out = Some((vcpu, ran));
                }
                self.cores[core].gen += 1;

                let (vcpu, until) = self.dense[core].pick(self.now);
                let probe = busy.map(|busy| self.probe(busy, vcpu));
                let overhead =
                    costs.schedule + std::mem::take(&mut self.cores[core].pending_overhead);
                if let Some((vcpu, action)) = self.dispatch(core, vcpu, overhead, until, hot) {
                    // Blocks straight off the dispatch: sync, then resume
                    // the pick loop generically (where the generic path
                    // `continue`s inside `resched_pick`).
                    self.dense_commit_all();
                    self.block_running(core, vcpu, action, hot);
                    self.resched_pick(core, hot);
                    self.dense_bailed(batched, hot);
                    return;
                }
                if let Some(probe) = probe {
                    self.record(core, out, probe);
                } else if self.ledger.phase == Phase::Held(core) {
                    self.ledger.phase = Phase::Idle;
                }
            }

            // Window end reached: sync the scheduler. At the horizon the
            // window is carried to the next call; at its validity bound it
            // is dropped, and the batch rolls into a freshly certified one
            // if anything is still due. No cooldown either way, and a
            // finished batch resets the bail streak: the attempt paid for
            // itself.
            self.dense_commit_all();
            self.events_processed += batched;
            self.ledger.synced = self.events_processed;
            self.stats.batch.batched_events += batched;
            self.stats.batch.batch_exits += 1;
            self.stats.batch.fallback_horizon += 1;
            if hot.trace {
                self.trace
                    .emit(self.now, TraceClass::BATCH, || TraceEvent::BatchExit {
                        batched,
                    });
            }
            if cap < end {
                self.dense_until = None;
                if let Some(next) = due(self) {
                    first = next;
                    continue;
                }
            }
            self.batch_bails = 0;
            return;
        }
    }

    /// Asks the scheduler for one lap per core from `from` on; any core
    /// declining leaves no window. Returns how far the window reaches,
    /// which `dense_until` now carries.
    ///
    /// The ledger of the window this one replaces is cleared — unless it
    /// holds a checked lap, no event was handled since it was last in step
    /// with the machine, and the new window decides exactly what the old
    /// one did: on every core the same slices (each slice's vCPU, and its
    /// end modulo the period), the same period and the same flat costs. A
    /// `scheduler_mut` borrow that staged a table switch for later, or an
    /// install of a table whose slices on this host are the ones in force,
    /// then leaves the ledger where it was, and replay goes on.
    fn certify(&mut self, from: Nanos) -> Option<DenseReach> {
        self.dense_until = None;
        let l = &mut self.ledger;
        let mut keep =
            matches!(l.phase, Phase::Ready | Phase::Recheck) && l.synced == self.events_processed;
        let kept = std::mem::replace(&mut l.phase, Phase::Never);
        l.open = None;
        let mut valid_before = Nanos::MAX;
        let mut uncertified_from = Nanos::MAX;
        for (core, w) in self.dense.iter_mut().enumerate() {
            w.lap.clear();
            let view = VcpuView {
                runnable: &self.flags,
            };
            let certified = self.sched.dense_window(core, from, view, &mut w.lap)?;
            if keep {
                let same = certified.costs == w.costs && certified.period == self.ledger.period;
                match same
                    .then(|| lap_rotation(&self.ledger, core, &w.lap))
                    .flatten()
                {
                    Some(rotate) => w.rotate = rotate,
                    None => keep = false,
                }
            }
            debug_assert!(
                !w.lap.is_empty() && certified.period > Nanos::ZERO,
                "core {core}: an empty lap"
            );
            debug_assert!(
                w.lap.windows(2).all(|s| s[0].until < s[1].until)
                    && w.lap[w.lap.len() - 1].until - certified.period < w.lap[0].until
                    && w.lap[0].until > from,
                "core {core}: not one lap from {from:?}"
            );
            w.costs = certified.costs;
            w.period = certified.period;
            w.next = 0;
            w.offset = Nanos::ZERO;
            debug_assert_eq!(w.picks.count, 0, "uncommitted picks");
            valid_before = valid_before.min(certified.valid_before);
            uncertified_from = uncertified_from.min(certified.uncertified_from);
        }
        // A lap's slice ends lie less than two periods past its opening
        // event, so every offset a ledger holds fits 32 bits if twice the
        // period does; slices, cores and vCPUs are numbered in 16, 8 and
        // 16 bits. A window whose laps no ledger can hold records none
        // (`record` would drop every one).
        let period = self.dense[0].period;
        if self
            .dense
            .iter()
            .all(|w| w.period == period && w.lap.len() <= 1 << 16)
            && offset(period + period).is_some_and(|p| p < u32::MAX)
            && self.cores.len() <= 1 << 8
            && self.vcpus.len() < usize::from(NO_VCPU)
        {
            self.ledger.phase = if keep { kept } else { Phase::Idle };
            self.ledger.period = period;
        }
        let reach = DenseReach {
            last: valid_before - Nanos(1),
            uncertified_from,
        };
        self.dense_until = Some(reach);
        Some(reach)
    }

    /// Closes out a batch that bailed mid-window after `batched` events:
    /// drops the window, counts the events and the exit, arms the
    /// re-attempt cooldown.
    fn dense_bailed(&mut self, batched: u64, hot: Hot) {
        self.dense_until = None;
        self.events_processed += batched;
        self.stats.batch.batched_events += batched;
        self.stats.batch.batch_exits += 1;
        self.stats.batch.fallback_block += 1;
        if hot.trace {
            self.trace
                .emit(self.now, TraceClass::BATCH, || TraceEvent::BatchExit {
                    batched,
                });
        }
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

    /// Charges the decisions since the last commit to the operation
    /// statistics and replays their cumulative effect on the scheduler (see
    /// [`crate::sched::VmScheduler::dense_commit`]), in core order.
    fn dense_commit_all(&mut self) {
        for (core, w) in self.dense.iter_mut().enumerate() {
            if w.picks.count == 0 {
                continue;
            }
            let ops = &mut self.stats.ops;
            ops.record_n(OpKind::Schedule, w.costs.schedule, w.picks.count);
            ops.record_n(OpKind::Deschedule, w.costs.deschedule, w.deschedules);
            w.deschedules = 0;
            let running = self.cores[core].running.is_some();
            self.sched.dense_commit(core, &w.lap, w.picks, running);
            w.picks.count = 0;
        }
    }

    /// The ledger's part of the window loop, before the loop retires the
    /// event at `at`: closes a recorded lap that has run its period,
    /// replays a checked one up to `cap` and returns the events replayed,
    /// or opens a lap to record at this event. Returns 0 when the loop is
    /// to handle the event itself.
    fn ledger_turn(&mut self, at: Nanos, cap: Nanos, hot: Hot) -> u64 {
        let l = &self.ledger;
        let ends = |laps: u64| {
            let end = l.period.as_nanos().checked_mul(laps);
            end.and_then(|end| l.base.checked_add(Nanos(end)))
                .is_some_and(|end| at >= end)
        };
        match l.phase {
            Phase::Recording if ends(1) => self.close_lap(),
            Phase::Recheck if ends(l.lap + 1) => self.recheck(),
            _ => {}
        }
        if self.ledger.phase == Phase::Ready {
            let replayed = self.replay(cap, hot);
            if replayed > 0 {
                return replayed;
            }
            // Out of checked laps: the next one ends a burst, which the
            // loop handles; the ledger is checked again at its end.
            self.resync_cursors();
            self.ledger.phase = Phase::Recheck;
        }
        // A lap is worth recording only in a window that lasts for one
        // more at least (one bounded by a table switch often does not).
        let p = self.ledger.period;
        let lasts = |r: DenseReach| at.checked_add(p + p).is_some_and(|t| t <= r.last);
        if self.ledger.phase == Phase::Idle
            && self.dense_until.is_some_and(lasts)
            && self.dense.iter().zip(&self.cores).all(settled)
        {
            self.open_lap(at);
        }
        0
    }

    /// Starts recording a lap at the event at `at`, taking the machine
    /// state the periodic check compares the lap's end against.
    fn open_lap(&mut self, at: Nanos) {
        let l = &mut self.ledger;
        l.phase = Phase::Recording;
        l.base = at;
        l.seq = self.seq;
        for w in &mut self.dense {
            w.rotate = 0;
        }
        // Exactly one lap of decisions per core, unless a burst ends in
        // it (then the lap is dropped before it fills).
        let events: usize = self.dense.iter().map(|w| w.lap.len()).sum();
        l.entries.clear();
        l.entries.reserve_exact(events);
        l.tails.clear();
        l.tails.reserve_exact(events);
        let open = l.open.get_or_insert_with(Box::default);
        open.cores.clear();
        for (core, state) in self.cores.iter().enumerate() {
            let w = &self.dense[core];
            open.cores.push(CoreOpen {
                state: state.clone(),
                timer: self.timers.get(core),
                next: w.next,
                offset: w.offset,
                events: 0,
            });
        }
        open.vcpus.clear();
        open.vcpus.extend(self.vcpus.iter().map(|s| VcpuOpen {
            state: s.state,
            remaining: s.remaining,
            runnable_since: s.runnable_since,
            last_core: s.last_core,
        }));
    }

    /// What the statistics read before a recorded event's dispatch of
    /// `vcpu`; `busy` is its core's busy time before the event.
    fn probe(&self, busy: Nanos, vcpu: Option<VcpuId>) -> Probe {
        let delays = vcpu.map_or(Default::default(), |v| self.stats.vcpus[v.0 as usize]);
        Probe {
            busy,
            switches: self.stats.context_switches,
            delays: delays.delay_count,
            delay_total: delays.delay_total,
        }
    }

    /// Appends the decision expiry the loop just handled on `core` to the
    /// lap being recorded, as the differences between the state and
    /// statistics before it (`probe`, `out`: the de-scheduled vCPU and its
    /// charge) and after it. An event a ledger cannot hold drops the lap:
    /// one whose timer fires before its slice ends (a burst ends there),
    /// or whose offsets do not fit.
    fn record(&mut self, core: usize, out: Option<(VcpuId, Nanos)>, probe: Probe) {
        let l = &mut self.ledger;
        let c = &self.cores[core];
        let (at, until) = (self.now, c.decision_until);
        let armed = (until, l.seq + l.entries.len() as u64 + 1, c.gen);
        let mut flags = 0;
        let mut delay = Nanos::ZERO;
        let mut lead = Nanos::ZERO;
        if let Some(v) = c.running {
            flags |= RUN;
            let stats = &self.stats.vcpus[v.0 as usize];
            if stats.delay_count > probe.delays {
                flags |= SAMPLED;
                delay = stats.delay_total - probe.delay_total;
            }
            if self.stats.context_switches > probe.switches {
                flags |= SWITCH;
            }
            lead = c.ran_since_dispatch;
            debug_assert_eq!(c.run_started, at + lead);
        }
        let charged = out.map_or(Nanos::ZERO, |(_, charged)| charged);
        if out.is_some() {
            flags |= OUT;
        }
        let fits = (|| {
            let entry = LapEntry {
                at: offset(at - l.base)?,
                ran: offset(self.stats.core_busy[core] - probe.busy)?,
                delay: offset(delay)?,
                out: vcpu_field(out.map(|(v, _)| v))?,
                vcpu: vcpu_field(c.running.or(c.last_ran))?,
                slice: u16::try_from(self.dense[core].picks.last).ok()?,
                core: u8::try_from(core).ok()?,
                flags,
            };
            let tail = LapTail {
                until: offset(until - l.base)?,
                lead: offset(lead)?,
                charged: offset(charged)?,
            };
            Some((entry, tail))
        })();
        match fits {
            Some((entry, tail))
                if self.timers.get(core) == Some(armed) && c.pending_overhead == Nanos::ZERO =>
            {
                l.entries.push(entry);
                l.tails.push(tail);
                l.open.as_mut().expect("a lap is open").cores[core].events += 1;
            }
            _ => l.phase = Phase::Idle,
        }
    }

    /// The periodic check, at the end of a recorded lap: the machine state
    /// must be the lap's opening state with every time one period later,
    /// `seq` the lap's event count further on and each core's `gen` its own
    /// event count further on, and each vCPU's burst `remaining` short by
    /// the service the lap gave it. Only then is the ledger replayed, and
    /// only for as many laps as every burst lasts and every time and
    /// counter a replay writes fits its type ([`Ledger::last_lap`]).
    /// Otherwise the lap is dropped and another one recorded.
    fn close_lap(&mut self) {
        let l = &mut self.ledger;
        l.phase = Phase::Idle;
        let n = l.entries.len() as u64;
        let p = l.period;
        let Some(open) = l.open.take() else {
            return;
        };
        if n == 0 || self.seq != l.seq + n {
            return;
        }
        let later = |t: Nanos| t.checked_add(p);
        for (core, o) in open.cores.iter().enumerate() {
            let (s, w) = (&self.cores[core], &self.dense[core]);
            // A core's timer one period on (armed for the core's `gen`);
            // its `seq` is the one its last event in the lap armed
            // (`record` checks that), and below only the order of the
            // `seq`s counts.
            let timer = match (o.timer, self.timers.get(core)) {
                (Some((t0, ..)), Some((t1, ..))) => later(t0) == Some(t1),
                _ => false,
            };
            let progress = s.running.is_none()
                || (Some(s.run_started) == later(o.state.run_started)
                    && s.ran_since_dispatch == o.state.ran_since_dispatch);
            if !timer
                || Some(s.gen) != o.state.gen.checked_add(o.events)
                || s.running != o.state.running
                || s.last_ran != o.state.last_ran
                || s.pending_overhead != o.state.pending_overhead
                || Some(s.decision_until) != later(o.state.decision_until)
                || !progress
                || w.next != o.next
                || Some(w.offset) != later(o.offset)
            {
                return;
            }
        }
        // Timers due at one instant on different cores are taken in `seq`
        // order. Those the lap opened with were armed before it; a lap
        // later they are the ones its last events armed. They must come in
        // the same order, or the next lap handles the instant's events in
        // another order than the recorded one.
        for (a, oa) in open.cores.iter().enumerate() {
            for (b, ob) in open.cores.iter().enumerate().skip(a + 1) {
                let (Some((ta, sa, _)), Some((tb, sb, _))) = (oa.timer, ob.timer) else {
                    continue;
                };
                let now = |c| self.timers.get(c).map_or(0, |t: Timer| t.1);
                if ta == tb && (sa < sb) != (now(a) < now(b)) {
                    return;
                }
            }
        }
        l.totals.clear();
        l.totals.resize(self.vcpus.len(), LapTotal::default());
        l.seen.clear();
        l.seen.resize(self.vcpus.len(), false);
        l.reach = 0;
        for (e, t) in l.entries.iter().zip(&l.tails) {
            if e.flags & OUT != 0 {
                let v = usize::from(e.out);
                let ran = Nanos(e.ran.into());
                l.totals[v].served += ran;
                if !std::mem::replace(&mut l.seen[v], true) {
                    l.totals[v].carry = ran;
                }
            }
            if e.flags & RUN != 0 {
                let v = usize::from(e.vcpu);
                l.seen[v] = true;
                if e.flags & SAMPLED != 0 {
                    l.totals[v].delays += Nanos(e.delay.into());
                }
            }
            let run = if e.flags & RUN != 0 {
                u64::from(e.at) + u64::from(t.lead)
            } else {
                0
            };
            l.reach = l.reach.max(u64::from(t.until)).max(run);
        }
        for (v, (o, s)) in open.vcpus.iter().zip(&self.vcpus).enumerate() {
            let served = l.totals[v].served;
            let since = match (o.runnable_since, s.runnable_since) {
                (None, None) => true,
                (Some(a), Some(b)) => later(a) == Some(b),
                _ => false,
            };
            // The lap's service comes off the burst ([`Sim::resume_at`]
            // counts the laps the burst lasts).
            let burst = match (o.remaining, s.remaining) {
                (Some(a), Some(b)) => a.checked_sub(served) == Some(b),
                (None, None) => served == Nanos::ZERO,
                _ => false,
            };
            if !burst || s.state != o.state || s.last_core != o.last_core || !since {
                return;
            }
        }
        self.resume_at(1);
    }

    /// Makes the ledger replayable from lap `lap` on, the machine standing
    /// at that lap's opening: for as many laps as every burst lasts — the
    /// lap's service comes off each burst, and the lap a burst would end in
    /// is the window loop's — and as every time and counter a replay
    /// writes fits its type.
    fn resume_at(&mut self, lap: u64) {
        let l = &mut self.ledger;
        l.phase = Phase::Idle;
        let n = l.entries.len() as u64;
        // Lap `j` writes times up to `base + j * period + reach` and `seq`s
        // up to `seq + (j + 1) * n`. Each core's `gen` and every event
        // count grow no faster than `seq` (each event arms a timer), so
        // they fit if it does.
        let room = (u64::MAX - l.base.as_nanos()).checked_sub(l.reach);
        let mut last = room.map_or(0, |r| r / l.period.as_nanos());
        last = last.min(((u64::MAX - l.seq) / n).saturating_sub(1));
        for (v, t) in l.totals.iter().enumerate() {
            if t.served > Nanos::ZERO {
                // Lap `j`'s events are the ledger's as long as each of its
                // dispatches of the vCPU finds the slice it starts covered
                // by what is left of the burst; the last one's slice ends
                // in the next lap, with `carry` of progress. So lap `j`
                // replays while `left - (j - lap + 1) * served >= carry`.
                let left = self.vcpus[v].remaining.and_then(|r| r.checked_sub(t.carry));
                let Some(left) = left else {
                    return;
                };
                last = last.min(lap - 1 + left / t.served);
            }
            let room = u64::MAX - self.stats.vcpus[v].delay_total.as_nanos();
            if let Some(laps) = room.checked_div(t.delays.as_nanos()) {
                last = last.min(lap - 1 + laps);
            }
        }
        if last >= lap {
            l.phase = Phase::Ready;
            l.lap = lap;
            l.pos = 0;
            l.last_lap = last;
        }
    }

    /// The check after the window loop handled the lap the ledger could
    /// not replay, at that lap's end: every core must stand where its last
    /// event in the ledger leaves it, a lap on (timer, slice end,
    /// incumbent, progress clock, `last_ran`, cursor), every vCPU the
    /// ledger touches as its last event there leaves it, and timers due at
    /// one instant must come in the ledger's order. The burst that ended
    /// in the lap armed one timer more than the ledger's lap does, so the
    /// ledger's `seq` is re-based on the machine's. Then replay resumes
    /// without a lap being recorded again.
    fn recheck(&mut self) {
        let l = &mut self.ledger;
        l.phase = Phase::Idle;
        let n = l.entries.len();
        let lap = l.lap + 1;
        let shift = l.base + l.period * l.lap;
        // Each core's last event in the ledger's lap.
        for (core, w) in self.dense.iter_mut().enumerate() {
            let Some(i) = l.entries.iter().rposition(|e| usize::from(e.core) == core) else {
                return;
            };
            w.last = (l.lap, i);
        }
        for (core, (w, c)) in self.dense.iter().zip(&self.cores).enumerate() {
            let i = w.last.1;
            let (e, t) = (&l.entries[i], &l.tails[i]);
            let until = shift + Nanos(t.until.into());
            let vcpu = (e.vcpu != NO_VCPU).then_some(VcpuId(e.vcpu.into()));
            let running = if e.flags & RUN != 0 { vcpu } else { None };
            let lead = Nanos(t.lead.into());
            let progress = running.is_none()
                || (c.run_started == shift + Nanos(e.at.into()) + lead
                    && c.ran_since_dispatch == lead);
            let timer = self.timers.get(core);
            if timer.map(|t| (t.0, t.2)) != Some((until, c.gen))
                || c.decision_until != until
                || c.running != running
                || c.last_ran != vcpu
                || c.pending_overhead != Nanos::ZERO
                || !progress
                || !settled((w, c))
            {
                return;
            }
        }
        // Same-instant timers in the order of the events that armed them.
        for (a, wa) in self.dense.iter().enumerate() {
            for (b, wb) in self.dense.iter().enumerate().skip(a + 1) {
                let (Some(ta), Some(tb)) = (self.timers.get(a), self.timers.get(b)) else {
                    return;
                };
                if ta.0 == tb.0 && (ta.1 < tb.1) != (wa.last.1 < wb.last.1) {
                    return;
                }
            }
        }
        // Every vCPU the ledger touches, as its last event there left it.
        l.seen.clear();
        l.seen.resize(self.vcpus.len(), false);
        for e in l.entries.iter().rev() {
            let core = Some(usize::from(e.core));
            for (flag, v) in [(RUN, e.vcpu), (OUT, e.out)] {
                let v = usize::from(v);
                if e.flags & flag == 0 || std::mem::replace(&mut l.seen[v], true) {
                    continue;
                }
                let s = &self.vcpus[v];
                let (state, since) = if flag == RUN {
                    (VState::Running, None)
                } else {
                    (VState::Runnable, Some(shift + Nanos(e.at.into())))
                };
                if s.state != state || s.runnable_since != since || s.last_core != core {
                    return;
                }
            }
        }
        let Some(seq) = self.seq.checked_sub(lap * n as u64) else {
            return;
        };
        l.seq = seq;
        self.resume_at(lap);
    }

    /// Replays the ledger from its position up to `cap` (or its last lap),
    /// leaving the machine state, statistics, event log and trace exactly
    /// as the window loop would have left them; returns the events
    /// replayed. Event `i` of lap `j` happens `j` periods after its
    /// recorded self, takes `seq` `j` laps of events later and bumps its
    /// core's `gen` once; each core's timer register, `seq`, `gen` and
    /// state are then set from the last event replayed.
    ///
    /// Up to two laps of events are replayed one by one, a few adds each.
    /// Beyond that the first and the last lap's worth are, and every event
    /// in between is applied once per lap it recurs in, its additive
    /// statistics multiplied.
    fn replay(&mut self, cap: Nanos, hot: Hot) -> u64 {
        let l = &self.ledger;
        let n = l.entries.len();
        let p = l.period;
        let (lap, pos) = (l.lap, l.pos);
        // The position after the last event due by `cap`: found by a scan
        // over the entries about to be replayed anyway, not by a binary
        // search, whose every probe would be a cold read.
        let rel = cap - l.base;
        let (mut lap_end, mut q) = (rel / p, 0);
        if lap_end > l.last_lap {
            lap_end = l.last_lap + 1;
        } else {
            let (r, from) = (rel % p, if lap_end == lap { pos } else { 0 });
            let due = l.entries[from..]
                .iter()
                .take_while(|e| Nanos(e.at.into()) <= r);
            q = from + due.count();
            if q == n {
                (lap_end, q) = (lap_end + 1, 0);
            }
        }
        if (lap_end, q) <= (lap, pos) {
            return 0;
        }
        let (laps, lap_len) = (lap_end - lap, n as u64);
        let count = laps * lap_len + q as u64 - pos as u64;
        debug_assert_eq!(
            self.timers.earliest().map(|t| t.0),
            Some(l.base + Nanos(l.entries[pos].at.into()) + p * lap),
            "the ledger's position is not the machine's"
        );
        if hot.log || hot.trace {
            self.replay_log(count, hot);
        }
        if count <= 2 * lap_len {
            self.replay_events((lap, pos), count);
        } else {
            self.replay_events((lap, pos), lap_len);
            let Sim {
                ledger,
                stats,
                vcpus,
                dense,
                ..
            } = self;
            for (i, e) in ledger.entries.iter().enumerate() {
                let m = laps - 2 + u64::from(i < q) - u64::from(i < pos);
                replay_stats(stats, vcpus, dense, e, m);
                dense[usize::from(e.core)].replayed += m;
            }
            self.replay_events((lap_end - 1, q), lap_len);
        }
        // Each core as its last event left it.
        let l = &mut self.ledger;
        for (core, w) in self.dense.iter_mut().enumerate() {
            if w.replayed == 0 {
                continue;
            }
            let (j, i) = w.last;
            let (e, t) = (&l.entries[i], &l.tails[i]);
            let shift = l.base + p * j;
            let (at, until) = (shift + Nanos(e.at.into()), shift + Nanos(t.until.into()));
            let lead = Nanos(t.lead.into());
            let c = &mut self.cores[core];
            c.decision_until = until;
            c.pending_overhead = Nanos::ZERO;
            c.gen += w.replayed;
            let vcpu = (e.vcpu != NO_VCPU).then_some(VcpuId(e.vcpu.into()));
            if e.flags & RUN != 0 {
                c.running = vcpu;
                c.run_started = at + lead;
                c.ran_since_dispatch = lead;
            } else {
                c.running = None;
                if e.flags & OUT != 0 {
                    c.ran_since_dispatch = Nanos::ZERO;
                }
            }
            c.last_ran = vcpu;
            let seq = l.seq + j * lap_len + i as u64 + 1;
            self.timers.arm(core, (until, seq, c.gen));
            w.picks.count += w.replayed;
            w.picks.last = w.lap_index(e.slice);
            w.picks.at = at;
            w.picks.until = until;
            w.replayed = 0;
        }
        // The machine as the last event left it.
        let (j, i) = if q == 0 {
            (lap_end - 1, n - 1)
        } else {
            (lap_end, q - 1)
        };
        self.seq = l.seq + j * lap_len + i as u64 + 1;
        self.now = l.base + p * j + Nanos(l.entries[i].at.into());
        l.lap = lap_end;
        l.pos = q;
        count
    }

    /// Replays `count` events from ledger position `from` one by one: their
    /// statistics, the vCPU states they leave, and per core the events
    /// replayed, the first pick (when none is uncommitted) and the last
    /// event.
    fn replay_events(&mut self, from: (u64, usize), count: u64) {
        let Sim {
            ledger: l,
            stats,
            vcpus,
            dense,
            ..
        } = self;
        let n = l.entries.len();
        let (mut j, mut i) = from;
        let mut shift = Nanos::ZERO;
        for k in 0..count {
            if k == 0 || i == 0 {
                shift = l.base + l.period * j;
            }
            let e = &l.entries[i];
            replay_stats(stats, vcpus, dense, e, 1);
            let at = shift + Nanos(e.at.into());
            if e.flags & OUT != 0 {
                let slot = &mut vcpus[usize::from(e.out)];
                slot.state = VState::Runnable;
                slot.runnable_since = Some(at);
                slot.last_core = Some(e.core.into());
            }
            if e.flags & RUN != 0 {
                let slot = &mut vcpus[usize::from(e.vcpu)];
                slot.state = VState::Running;
                slot.runnable_since = None;
            }
            let w = &mut dense[usize::from(e.core)];
            if w.replayed == 0 && w.picks.count == 0 {
                w.picks.first = w.lap_index(e.slice);
            }
            w.replayed += 1;
            w.last = (j, i);
            i += 1;
            if i == n {
                (j, i) = (j + 1, 0);
            }
        }
    }

    /// The event-log lines and non-`BATCH` trace records of the next
    /// `count` events of the ledger, each a function of its entry and its
    /// replayed `(time, seq, gen)`: the timer an event retires is the one
    /// its core's previous event armed, or the one in the register.
    fn replay_log(&mut self, count: u64, hot: Hot) {
        let l = &self.ledger;
        let (n, p) = (l.entries.len(), l.period);
        let mut armed: Vec<Option<Timer>> =
            (0..self.cores.len()).map(|c| self.timers.get(c)).collect();
        let (mut j, mut i) = (l.lap, l.pos);
        for _ in 0..count {
            let (e, t) = (&l.entries[i], &l.tails[i]);
            let core = usize::from(e.core);
            let shift = l.base + p * j;
            let at = shift + Nanos(e.at.into());
            let (fires, seq, gen) = armed[core].expect("a replayed core's timer is armed");
            debug_assert_eq!(fires, at, "a replayed event is not its core's timer");
            if hot.log {
                if let Some(log) = &mut self.event_log {
                    log.push((at, seq, format!("{:?}", Event::CoreTimer { core, gen })));
                }
            }
            if hot.trace {
                if e.flags & OUT != 0 {
                    self.trace
                        .emit(at, TraceClass::SCHED, || TraceEvent::Deschedule {
                            core,
                            vcpu: VcpuId(e.out.into()),
                            ran: Nanos(t.charged.into()),
                        });
                }
                if e.flags & RUN != 0 {
                    self.trace
                        .emit(at, TraceClass::SCHED, || TraceEvent::Dispatch {
                            core,
                            vcpu: VcpuId(e.vcpu.into()),
                        });
                } else {
                    self.trace
                        .emit(at, TraceClass::SCHED, || TraceEvent::Idle { core });
                }
            }
            let until = shift + Nanos(t.until.into());
            armed[core] = Some((until, l.seq + j * n as u64 + i as u64 + 1, gen + 1));
            i += 1;
            if i == n {
                (j, i) = (j + 1, 0);
            }
        }
    }

    /// Puts every core's window cursor where the window loop would have
    /// left it, after a replay that ran out of checked laps: past the pick
    /// of the core's last event in the last lap replayed.
    fn resync_cursors(&mut self) {
        let l = &self.ledger;
        let shift = l.base + l.period * (l.lap - 1);
        for (core, w) in self.dense.iter_mut().enumerate() {
            let mut last = l.entries.iter().zip(&l.tails).rev();
            if let Some((e, t)) = last.find(|(e, _)| usize::from(e.core) == core) {
                w.seek_past(w.lap_index(e.slice), shift + Nanos(t.until.into()));
            }
        }
    }
}

/// How the ledger's lap indices of `core`'s slices map onto `lap` (see
/// [`CoreWindow::rotate`]), if `lap` holds exactly the slices the ledger
/// recorded on that core: one event per slice, each slice's vCPU the one
/// the event dispatched (or none) and its end the event's slice end,
/// modulo the period. `None` if the two differ anywhere.
fn lap_rotation(l: &Ledger, core: usize, lap: &[DenseSlice]) -> Option<usize> {
    let p = l.period;
    let mut events = l
        .entries
        .iter()
        .zip(&l.tails)
        .filter(|(e, _)| usize::from(e.core) == core);
    let end = |t: &LapTail| (l.base + Nanos(t.until.into())) % p;
    let (e, t) = events.next()?;
    let m = lap.iter().position(|s| s.until % p == end(t))?;
    let rotate = (m + lap.len() - usize::from(e.slice) % lap.len()) % lap.len();
    let mut n = 0;
    for (e, t) in std::iter::once((e, t)).chain(events) {
        let s = lap.get((usize::from(e.slice) + rotate) % lap.len())?;
        let vcpu = (e.flags & RUN != 0).then_some(VcpuId(e.vcpu.into()));
        if s.vcpu != vcpu || s.until % p != end(t) {
            return None;
        }
        n += 1;
    }
    (n == lap.len()).then_some(rotate)
}

/// Whether a core's pending decision is the window's slice before its
/// cursor. Until a core's first pick in a fresh window it need not be (the
/// lap opens on the slice containing the certification time, and that
/// pick skips the slices ending before the core's pending decision does),
/// and a lap recorded across such a pick never passes the periodic check.
fn settled((w, c): (&CoreWindow, &CoreState)) -> bool {
    let i = w.next.checked_sub(1).unwrap_or(w.lap.len() - 1);
    let end = w.lap[i].until + w.offset;
    let end = if w.next == 0 { end - w.period } else { end };
    end == c.decision_until
}

/// The statistics (and burst progress) `m` replays of the event `e` add.
#[inline]
fn replay_stats(
    stats: &mut SimStats,
    vcpus: &mut [VcpuSlot],
    dense: &mut [CoreWindow],
    e: &LapEntry,
    m: u64,
) {
    if m == 0 {
        return;
    }
    let core = usize::from(e.core);
    if e.flags & OUT != 0 {
        let v = usize::from(e.out);
        let ran = times(e.ran, m);
        stats.core_busy[core] += ran;
        stats.vcpus[v].service += ran;
        if let Some(rem) = &mut vcpus[v].remaining {
            *rem = rem.checked_sub(ran).expect("a replayed lap ends no burst");
        }
        dense[core].deschedules += m;
    }
    if e.flags & RUN != 0 {
        let v = usize::from(e.vcpu);
        stats.vcpus[v].dispatches += m;
        if e.flags & SAMPLED != 0 {
            stats.sample_delay_n(v, Nanos(e.delay.into()), m);
        }
        if e.flags & SWITCH != 0 {
            stats.context_switches += m;
        }
    }
}
