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

use rtsched::time::Nanos;

use crate::queue::Event;
use crate::sched::{DenseCosts, DensePicks, DenseSlice, VcpuId, VcpuView};
use crate::sim::{Hot, Sim, VState};
use crate::stats::OpKind;
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
    /// `(time, seq)` order is kept. The scheduler's own state is synced at
    /// the end of the call, and at a table switch, via
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
                self.apply_progress(core);
                let w = &mut self.dense[core];
                let costs = w.costs;
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
                }
                self.cores[core].gen += 1;

                let (vcpu, until) = self.dense[core].pick(self.now);
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
            }

            // Window end reached: sync the scheduler. At the horizon the
            // window is carried to the next call; at its validity bound it
            // is dropped, and the batch rolls into a freshly certified one
            // if anything is still due. No cooldown either way, and a
            // finished batch resets the bail streak: the attempt paid for
            // itself.
            self.dense_commit_all();
            self.events_processed += batched;
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
    fn certify(&mut self, from: Nanos) -> Option<DenseReach> {
        self.dense_until = None;
        let mut valid_before = Nanos::MAX;
        let mut uncertified_from = Nanos::MAX;
        for (core, w) in self.dense.iter_mut().enumerate() {
            w.lap.clear();
            let view = VcpuView {
                runnable: &self.flags,
            };
            let certified = self.sched.dense_window(core, from, view, &mut w.lap)?;
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
}
