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

use rtsched::time::Nanos;

use crate::queue::Event;
use crate::sched::{DenseCosts, DenseSlice, VcpuView};
use crate::sim::{Sim, VState};
use crate::stats::OpKind;
use crate::trace::{TraceClass, TraceEvent};

/// One core's share of a dense window: the scheduler's precomputed
/// decision sequence and the batch's progress through it. Pooled in
/// [`Sim`] and reset per window, so a batch allocates nothing at steady
/// state.
#[derive(Default)]
pub(crate) struct CoreWindow {
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

impl Sim {
    /// Advances a dense phase in a batched inner loop.
    ///
    /// Preconditions (checked by the caller): the queue is empty — every
    /// pending event is a core timer — no fault engine is installed, and
    /// the scheduler is dense-capable. The scheduler pre-computes each
    /// core's decision sequence over a capped window
    /// ([`crate::sched::VmScheduler::dense_window`]; a dense phase longer
    /// than the cap rolls window-to-window inside the batch); slice
    /// boundaries are then
    /// processed straight from the timer registers — no per-decision
    /// virtual calls — with byte-identical `seq` allocation, event-log
    /// lines, traces, and stats to the generic loop. The scheduler's own
    /// state is synced at each window boundary via
    /// [`crate::sched::VmScheduler::dense_commit`].
    ///
    /// The moment anything the window cannot express happens (a guest
    /// blocks, the window under-runs), the batch commits, finishes the
    /// in-flight operation through the generic helpers, and returns. The
    /// registers are the batch's pending list and the generic loop's alike,
    /// so however a batch ends there is nothing to hand back: the caller's
    /// event loop, or the next batch, continues from them as they stand.
    pub(crate) fn dense_batch(&mut self, end: Nanos) {
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

            // Ask the scheduler for every core's decision window up front;
            // any core declining aborts the attempt before any state
            // changes. A window is cut where its earliest validity bound
            // falls (the roll below continues from there).
            let mut valid_before = Nanos::MAX;
            for (core, w) in win.iter_mut().enumerate() {
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
    /// (see [`crate::sched::VmScheduler::dense_commit`]), in core order.
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
}
