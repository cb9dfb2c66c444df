//! The hypervisor scheduler interface and guest workload model.
//!
//! [`VmScheduler`] is the simulator's equivalent of Xen's `struct scheduler`
//! hook table: the simulator calls into it whenever a scheduling decision is
//! needed, a vCPU wakes or blocks, a vCPU is de-scheduled, or a periodic
//! tick fires. Each callback returns the *cost* of the operation — the
//! simulated CPU time the hypervisor spends in the scheduler — which the
//! simulator charges to the core (delaying guest progress) and records into
//! the per-operation statistics that regenerate Tables 1–2 of the paper.
//!
//! [`GuestWorkload`] models what runs *inside* a vCPU: a sequence of compute
//! bursts and blocking waits, reacting to external events (packets,
//! timers). Workloads only progress while their vCPU is dispatched, which
//! is exactly the coupling the paper's experiments measure.

use rtsched::time::Nanos;

/// Identifies a vCPU within a simulation.
///
/// Kept distinct from `tableau_core::vcpu::VcpuId` so the simulator does not
/// depend on the scheduler under test; the Tableau adapter converts (both
/// are dense `u32` indices).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct VcpuId(pub u32);

impl std::fmt::Display for VcpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// What a scheduler decided for one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedDecision {
    /// The vCPU to run, or `None` to idle.
    pub vcpu: Option<VcpuId>,
    /// Absolute time at which the simulator re-invokes the scheduler (it
    /// may be re-invoked earlier: on block, wake-up IPI, or tick).
    pub until: Nanos,
}

impl SchedDecision {
    /// Convenience constructor for "run `vcpu` until `until`".
    pub fn run(vcpu: VcpuId, until: Nanos) -> SchedDecision {
        SchedDecision {
            vcpu: Some(vcpu),
            until,
        }
    }

    /// Convenience constructor for "idle until `until`".
    pub fn idle(until: Nanos) -> SchedDecision {
        SchedDecision { vcpu: None, until }
    }
}

/// Read-only vCPU state exposed to schedulers.
#[derive(Debug, Clone, Copy)]
pub struct VcpuView<'a> {
    /// `runnable[v]` is `true` if vCPU `v` can execute (not blocked). A
    /// running vCPU is also runnable.
    pub runnable: &'a [bool],
}

impl VcpuView<'_> {
    /// Whether `vcpu` is runnable.
    pub fn is_runnable(&self, vcpu: VcpuId) -> bool {
        self.runnable.get(vcpu.0 as usize).copied().unwrap_or(false)
    }
}

/// A small inline set of IPI target cores.
///
/// Wake-up and de-schedule plans are built on the simulator's per-event hot
/// path, and every scheduler targets zero or one core per notification (a
/// wake-up IPI or a migration hand-off). An inline fixed-capacity array
/// keeps those plans heap-free; the capacity is an assertion about
/// scheduler behavior, not a silent truncation point — overflow panics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IpiTargets {
    cores: [usize; IpiTargets::CAPACITY],
    len: u8,
}

impl IpiTargets {
    /// Maximum targets one plan can carry.
    pub const CAPACITY: usize = 4;

    /// No IPIs.
    pub const NONE: IpiTargets = IpiTargets {
        cores: [0; IpiTargets::CAPACITY],
        len: 0,
    };

    /// A single-target set (the common case).
    pub fn one(core: usize) -> IpiTargets {
        let mut t = IpiTargets::NONE;
        t.push(core);
        t
    }

    /// Appends a target.
    ///
    /// # Panics
    ///
    /// Panics when the plan already holds [`IpiTargets::CAPACITY`] targets.
    pub fn push(&mut self, core: usize) {
        self.cores[self.len as usize] = core;
        self.len += 1;
    }
}

impl std::ops::Deref for IpiTargets {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.cores[..self.len as usize]
    }
}

impl From<Option<usize>> for IpiTargets {
    fn from(core: Option<usize>) -> IpiTargets {
        core.map_or(IpiTargets::NONE, IpiTargets::one)
    }
}

impl FromIterator<usize> for IpiTargets {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> IpiTargets {
        let mut t = IpiTargets::NONE;
        for core in iter {
            t.push(core);
        }
        t
    }
}

/// Outcome of a wake-up notification: which cores to interrupt, and what
/// the wake-up processing cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct WakeupPlan {
    /// Cores to send a re-schedule IPI to (usually zero or one).
    pub ipi_cores: IpiTargets,
    /// CPU time spent processing the wake-up.
    pub cost: Nanos,
}

/// Outcome of a de-schedule hook (post-"context saved" work).
#[derive(Debug, Clone, Copy, Default)]
pub struct DeschedulePlan {
    /// Cores to send a re-schedule IPI to (e.g. migration hand-off).
    pub ipi_cores: IpiTargets,
    /// CPU time spent (the paper's "Migrate" overhead column).
    pub cost: Nanos,
}

/// One contiguous decision in a dense window: run `vcpu` (or idle) until
/// the absolute time `until`. See [`VmScheduler::dense_window`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseSlice {
    /// The vCPU the scheduler would dispatch, or `None` for idle.
    pub vcpu: Option<VcpuId>,
    /// Absolute end of the decision (the next slice starts here).
    pub until: Nanos,
}

/// Flat per-operation costs the scheduler guarantees for every decision in
/// a dense window (the batched fast path charges these without calling the
/// scheduler).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DenseCosts {
    /// Cost of each scheduling decision in the window.
    pub schedule: Nanos,
    /// Cost of each de-schedule in the window (no hand-off IPIs allowed).
    pub deschedule: Nanos,
}

/// What a scheduler certifies about one core's dense window (see
/// [`VmScheduler::dense_window`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseWindow {
    /// The flat per-decision costs over the window.
    pub costs: DenseCosts,
    /// The period the emitted lap repeats with: slice `i` of lap `j` ends
    /// at `lap[i].until + j * period`.
    pub period: Nanos,
    /// The window is exact only for decisions strictly before this time
    /// ([`Nanos::MAX`]: no such bound). A scheduler that knows its
    /// decision sequence changes at a future instant — a timed table switch
    /// — bounds the window there instead of declining it; the simulator
    /// asks for a fresh window once it gets that far.
    pub valid_before: Nanos,
    /// The window is not exact from this time on either: the first
    /// decision in it the scheduler cannot certify is taken then
    /// ([`Nanos::MAX`]: none). Unlike `valid_before`, nothing fresh starts
    /// there, so the simulator batches no `run_until` call whose horizon
    /// reaches it, as if the window had been declined.
    pub uncertified_from: Nanos,
}

/// The decisions the simulator took from one core's dense window since
/// its last commit (see [`VmScheduler::dense_commit`]): `count`
/// consecutive slices of the lap, the first at lap index `first`, wrapping
/// from the lap's last slice to its first as often as needed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DensePicks {
    /// Lap index of the first pick.
    pub first: usize,
    /// Lap index of the last pick.
    pub last: usize,
    /// Number of picks (may exceed the lap's length).
    pub count: u64,
    /// Time of the last pick: what the scheduler sees as its decision time.
    pub at: Nanos,
    /// Absolute end of the last pick's slice.
    pub until: Nanos,
}

impl DensePicks {
    /// `(lap index, times picked)` for every slice picked at least once,
    /// for a lap of `lap_len` slices, in pick order.
    #[inline]
    pub fn per_slice(&self, lap_len: usize) -> impl Iterator<Item = (usize, u64)> {
        // Every slice is picked once per full lap; the first `rem` slices
        // from `first` on once more. A commit usually covers less than a
        // lap: no division then.
        let n = lap_len as u64;
        let (laps, rem) = if self.count < n {
            (0, self.count as usize)
        } else {
            (self.count / n, (self.count % n) as usize)
        };
        let picked = if laps == 0 { rem } else { lap_len };
        let first = self.first;
        (0..picked).map(move |k| {
            let i = first + k;
            let i = if i < lap_len { i } else { i - lap_len };
            (i, laps + u64::from(k < rem))
        })
    }
}

/// A hypervisor VM scheduler under test.
///
/// Implementations live in the `schedulers` crate (Credit, Credit2, RTDS,
/// and the Tableau adapter). All callbacks are invoked in global simulated
/// time order; implementations keep their own run queues in sync using the
/// wake/block/deschedule notifications.
///
/// `Any` so a harness holding only `&dyn VmScheduler` (see
/// [`crate::Sim::scheduler`]) can upcast and `downcast_ref` to the concrete
/// scheduler without a mutable borrow.
pub trait VmScheduler: std::any::Any {
    /// Short name for reports ("credit", "rtds", "tableau", ...).
    fn name(&self) -> &'static str;

    /// Picks what `core` runs next. Returns the decision and the CPU cost
    /// of making it.
    fn schedule(&mut self, core: usize, now: Nanos, view: VcpuView<'_>) -> (SchedDecision, Nanos);

    /// `vcpu` became runnable (I/O completion, timer, IPI from a peer VM).
    fn on_wakeup(&mut self, vcpu: VcpuId, now: Nanos, view: VcpuView<'_>) -> WakeupPlan;

    /// `vcpu` blocked voluntarily while running on `core`.
    fn on_block(&mut self, vcpu: VcpuId, core: usize, now: Nanos);

    /// `vcpu` was de-scheduled from `core` (context fully saved) after
    /// having run for `ran`; the scheduler performs budget/credit
    /// accounting and any post-schedule work here.
    fn on_descheduled(
        &mut self,
        vcpu: VcpuId,
        core: usize,
        ran: Nanos,
        now: Nanos,
    ) -> DeschedulePlan;

    /// The scheduler's periodic tick interval, if it uses one (Credit burns
    /// credits on 10 ms ticks). Ticks fire per core.
    fn tick_interval(&self) -> Option<Nanos> {
        None
    }

    /// A periodic tick on `core`; returns `true` if the core should
    /// re-schedule (e.g. priority changed).
    fn on_tick(&mut self, core: usize, now: Nanos, view: VcpuView<'_>) -> bool {
        let _ = (core, now, view);
        false
    }

    /// `duration` of wall time was stolen from `core` at `now` (SMI, host
    /// kernel work, a co-located tenant) while `victim` was dispatched
    /// (`None` if the core was idle). The simulator has already charged the
    /// theft to the core's wall-clock accounting; schedulers that keep their
    /// own fine-grained budgets (e.g. Tableau's second level) use this hook
    /// to charge the interference to the offending slot immediately rather
    /// than discovering it at the next de-schedule.
    fn on_stolen(&mut self, core: usize, victim: Option<VcpuId>, duration: Nanos, now: Nanos) {
        let _ = (core, victim, duration, now);
    }

    /// `core` dropped out of service at `now` (core-fault injection). Any
    /// incumbent was already de-scheduled via [`Self::on_descheduled`];
    /// the core makes no scheduling decisions until it returns. Schedulers
    /// that expose core-loss events to a recovery loop record them here.
    fn on_core_offline(&mut self, core: usize, now: Nanos) {
        let _ = (core, now);
    }

    /// An offline `core` returned to service at `now`; a re-schedule on it
    /// follows immediately.
    fn on_core_online(&mut self, core: usize, now: Nanos) {
        let _ = (core, now);
    }

    /// Whether this scheduler can ever produce dense windows (see
    /// [`VmScheduler::dense_window`]). A cheap static gate the simulator
    /// checks before attempting a batch; `false` (the default) keeps the
    /// simulator on the event-at-a-time path.
    fn dense_capable(&self) -> bool {
        false
    }

    /// Emits into `out` (empty on entry) one lap of the decisions this
    /// scheduler would make for `core` at every decision boundary from
    /// `from` on, assuming the runnable set in `view` does not change, and
    /// returns the flat per-decision costs, the lap's period and the
    /// window's validity bounds. The lap starts with the slice containing
    /// `from`; its slices are contiguous, strictly increasing in `until`,
    /// and the last ends exactly one period after the first begins, so the
    /// lap repeats: slice `i` of lap `j` ends at `out[i].until + j * period`.
    /// The window is exact for every decision strictly before both
    /// [`DenseWindow::valid_before`] and [`DenseWindow::uncertified_from`],
    /// however many laps that is.
    ///
    /// The simulator asks for a window at the start of every batch and
    /// reads it only within that batch, which ends at the call's horizon,
    /// at `valid_before` (the next window is certified there) or at the
    /// first event the window cannot express (a guest block). Nothing but
    /// the window loop touches the scheduler in between, so its decisions
    /// must change only through the simulator's callbacks or a
    /// [`crate::Sim::scheduler_mut`] borrow — no interior mutability.
    ///
    /// Returning `None` (the default) means "cannot guarantee exactness
    /// right now" — the simulator falls back to calling
    /// [`VmScheduler::schedule`] per decision. A scheduler returning
    /// `Some` promises that, over the window, `schedule` would be
    /// side-effect-free apart from the bookkeeping reconstructed by
    /// [`VmScheduler::dense_commit`], would send no IPIs, and would charge
    /// exactly the returned flat costs.
    fn dense_window(
        &mut self,
        core: usize,
        from: Nanos,
        view: VcpuView<'_>,
        out: &mut Vec<DenseSlice>,
    ) -> Option<DenseWindow> {
        let _ = (core, from, view, out);
        None
    }

    /// Replays the scheduler-internal bookkeeping for the `picks` the
    /// simulator took from `core`'s certified `lap` without calling
    /// [`VmScheduler::schedule`]. `running` is whether the last pick's vCPU
    /// is still dispatched (its de-schedule has not happened yet). After
    /// this call the scheduler's state must be byte-identical to having
    /// served every pick through the generic callbacks. The simulator
    /// commits at the end of every `run_until` call that advanced through
    /// the window, and before anything outside the window happens.
    ///
    /// A commit may span many laps: a window the simulator found periodic
    /// is advanced by replaying its recorded lap, whole laps at once, so a
    /// single call can take millions of picks (`picks.count`, counted per
    /// slice by [`DensePicks::per_slice`]) and end far from where it began
    /// (`picks.until`). The cost of a commit must not grow with the count.
    fn dense_commit(&mut self, core: usize, lap: &[DenseSlice], picks: DensePicks, running: bool) {
        let _ = (core, lap, picks, running);
    }

    /// Registers a vCPU before the simulation starts. `home` is a placement
    /// hint (round-robin by default in the harness).
    fn register_vcpu(&mut self, vcpu: VcpuId, home: usize);

    /// Downcast support so harnesses can reconfigure a concrete scheduler
    /// (set caps, install new tables) after it is boxed into the simulator.
    fn as_any(&mut self) -> &mut dyn std::any::Any;
}

/// What a guest does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestAction {
    /// Execute for this much CPU time, then ask again.
    Compute(Nanos),
    /// Block until an external event wakes the vCPU.
    Block,
    /// Block, but wake autonomously after `Nanos` (a guest-internal timer).
    BlockFor(Nanos),
}

/// The software running inside a vCPU.
///
/// The simulator calls [`GuestWorkload::next`] whenever the previous action
/// completes (including at first dispatch), and
/// [`GuestWorkload::on_event`] whenever an external event tagged by the
/// harness is delivered.
pub trait GuestWorkload {
    /// The next action, decided at absolute guest-visible time `now`.
    fn next(&mut self, now: Nanos) -> GuestAction;

    /// An external event arrived. Returns `true` if a blocked vCPU should
    /// wake (delivering an interrupt); the return value is ignored when the
    /// vCPU is already awake.
    fn on_event(&mut self, tag: u64, now: Nanos) -> bool {
        let _ = (tag, now);
        true
    }

    /// Downcast support so harnesses can retrieve workload-local
    /// measurements after a run.
    fn as_any(&mut self) -> &mut dyn std::any::Any;
}

/// A workload that computes forever (cache-thrash / `stress --cpu`).
#[derive(Debug, Default)]
pub struct BusyLoop;

impl GuestWorkload for BusyLoop {
    fn next(&mut self, _now: Nanos) -> GuestAction {
        // One-second bursts: long enough that scheduler events dominate.
        GuestAction::Compute(Nanos::from_secs(1))
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A workload that never runs (pure idle VM).
#[derive(Debug, Default)]
pub struct IdleGuest;

impl GuestWorkload for IdleGuest {
    fn next(&mut self, _now: Nanos) -> GuestAction {
        GuestAction::Block
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_constructors() {
        let d = SchedDecision::run(VcpuId(3), Nanos::from_millis(5));
        assert_eq!(d.vcpu, Some(VcpuId(3)));
        let i = SchedDecision::idle(Nanos::from_millis(5));
        assert_eq!(i.vcpu, None);
        assert_eq!(i.until, Nanos::from_millis(5));
    }

    #[test]
    fn view_bounds() {
        let flags = [true, false];
        let view = VcpuView { runnable: &flags };
        assert!(view.is_runnable(VcpuId(0)));
        assert!(!view.is_runnable(VcpuId(1)));
        assert!(!view.is_runnable(VcpuId(9)));
    }

    #[test]
    fn dense_picks_count_every_lap_they_wrap() {
        // Seven picks over a three-slice lap from index 2: slices 2, 0, 1,
        // 2, 0, 1, 2.
        let p = DensePicks {
            first: 2,
            count: 7,
            ..DensePicks::default()
        };
        let mut seen: Vec<_> = p.per_slice(3).collect();
        seen.sort();
        assert_eq!(seen, [(0, 2), (1, 2), (2, 3)]);
        let short = DensePicks { count: 2, ..p };
        assert_eq!(short.per_slice(3).collect::<Vec<_>>(), [(2, 1), (0, 1)]);
        let lap = DensePicks { count: 3, ..p };
        assert_eq!(
            lap.per_slice(3).collect::<Vec<_>>(),
            [(2, 1), (0, 1), (1, 1)]
        );
    }

    #[test]
    fn builtin_workloads() {
        let mut b = BusyLoop;
        assert!(matches!(b.next(Nanos::ZERO), GuestAction::Compute(_)));
        assert!(b.on_event(0, Nanos::ZERO));
        let mut i = IdleGuest;
        assert_eq!(i.next(Nanos::ZERO), GuestAction::Block);
    }
}
