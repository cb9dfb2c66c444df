//! The Tableau dispatcher: the hypervisor-side hot path (Secs. 4 and 6).
//!
//! A scheduling decision under Tableau is little more than a table lookup:
//!
//! 1. find the slot covering "now" in the current table (O(1) via the slice
//!    table);
//! 2. if the slot is reserved and its vCPU is runnable (and not still
//!    running on another core — see below), dispatch it until the slot ends;
//! 3. otherwise invoke the second-level scheduler for a core-local,
//!    uncapped, runnable vCPU;
//! 4. otherwise idle until the slot expires.
//!
//! **Cross-core migrations.** A vCPU split across cores may have one
//! allocation end on core A a few cycles before (or after — timer skew) the
//! next begins on core B. Core B must not run the vCPU until A has fully
//! de-scheduled it, or the vCPU's stack would be corrupted. Tableau tracks a
//! per-vCPU *owner* core; a core that finds the designated vCPU still owned
//! elsewhere records an IPI request and falls through to the second level.
//! When the owner de-schedules the vCPU, the pending request is turned into
//! an IPI to the waiting core. In the real implementation these are atomic
//! fields in the vCPU control block (no locks, no globally shared cache
//! lines); this crate models the protocol for a single-threaded simulator,
//! so plain fields suffice — the *logic* is what the reproduction preserves.

use std::sync::Arc;

use rtsched::time::Nanos;

use crate::guardian::SlaMonitor;
use crate::level2::Level2;
use crate::switch::{InstallError, StagedInstall, TableManager};
use crate::table::{Slot, Table};
use crate::vcpu::VcpuId;

/// A scheduling decision for one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Run `vcpu` until the absolute time `until` (then re-invoke).
    Run {
        /// The vCPU to dispatch.
        vcpu: VcpuId,
        /// Absolute expiry of the decision.
        until: Nanos,
        /// `true` if the pick came from the second-level scheduler.
        level2: bool,
    },
    /// Nothing to run; re-invoke at `until` (or earlier on a wake-up IPI).
    Idle {
        /// Absolute expiry of the decision.
        until: Nanos,
    },
}

impl Decision {
    /// Absolute time at which this decision expires.
    pub fn until(&self) -> Nanos {
        match *self {
            Decision::Run { until, .. } | Decision::Idle { until } => until,
        }
    }

    /// The vCPU to run, if any.
    pub fn vcpu(&self) -> Option<VcpuId> {
        match *self {
            Decision::Run { vcpu, .. } => Some(vcpu),
            Decision::Idle { .. } => None,
        }
    }
}

/// What [`Dispatcher::dense_plan`] certifies about the lap it emitted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DenseLap {
    /// The lap is exact for decisions strictly before this round boundary
    /// (the core's next table adoption; [`Nanos::MAX`] when settled).
    pub valid_before: Nanos,
    /// When the lap's first decision that cannot be certified is taken:
    /// the start of the first slice before `valid_before` whose runnable
    /// owner is not single-homed on the core (`from` if that is the
    /// lap's first slice; [`Nanos::MAX`] when every slice is certified).
    /// The lap is exact only before it.
    pub uncertified_from: Nanos,
    /// The table length: the lap repeats with this period.
    pub period: Nanos,
    /// The segment of the lap's first decision (the one containing
    /// `from`).
    pub first_seg: usize,
    /// The start of the table round that segment is in: decision `i` is
    /// in this round while `first_seg + i < n_segments`, in the next one
    /// after.
    pub round_base: Nanos,
}

/// Tableau's per-host dispatcher state.
///
/// One instance serves all cores; every method takes the acting core as a
/// parameter. State is partitioned per core (second level) or per vCPU
/// (ownership), mirroring the core-local design of the Xen implementation.
/// Per-core memo of the last dispatch lookup: which table round and segment
/// the core was in. Per-core time moves forward, so the next lookup resumes
/// from here — the steady state is a few compares and one forward step over
/// the flattened segment array, with no division and no re-scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotCursor {
    /// Epoch index the cursor was built against (`usize::MAX` = invalid).
    epoch: usize,
    /// Absolute start of the table round the cursor is in.
    round_base: Nanos,
    /// Segment index within the core's flattened table.
    seg: usize,
}

impl SlotCursor {
    const INVALID: SlotCursor = SlotCursor {
        epoch: usize::MAX,
        round_base: Nanos::ZERO,
        seg: 0,
    };
}

#[derive(Debug)]
pub struct Dispatcher {
    tables: TableManager,
    /// Per-core dispatch-lookup cursor (the "next boundary" hint).
    cursor: Vec<SlotCursor>,
    /// Per-core second-level scheduler.
    level2: Vec<Level2>,
    /// Epoch each core's second level was built against (refreshed lazily
    /// when the core adopts a new table).
    level2_epoch: Vec<usize>,
    /// Per-vCPU capped flag (capped vCPUs never run at the second level).
    capped: Vec<bool>,
    /// Which core currently has each vCPU context-loaded, if any.
    owner: Vec<Option<usize>>,
    /// Pending "tell me when this vCPU is de-scheduled" IPI requests.
    ipi_request: Vec<Option<usize>>,
    /// Per-vCPU quarantine flags (source of truth; demotions are re-applied
    /// to each core's second level on its next lazy rebuild).
    quarantined: Vec<bool>,
    /// Optional SLA monitor fed from the dispatch path.
    monitor: Option<SlaMonitor>,
}

impl Dispatcher {
    /// Creates a dispatcher from an initial table.
    ///
    /// `capped` is indexed by vCPU id; vCPUs not covered default to capped
    /// (the conservative choice: they never consume spare cycles).
    pub fn new(table: impl Into<Arc<Table>>, capped: Vec<bool>, l2_epoch_len: Nanos) -> Dispatcher {
        let table = table.into();
        let n_cores = table.n_cores();
        let mut d = Dispatcher {
            tables: TableManager::new(table),
            cursor: vec![SlotCursor::INVALID; n_cores],
            level2: Vec::with_capacity(n_cores),
            level2_epoch: vec![0; n_cores],
            capped,
            owner: Vec::new(),
            ipi_request: Vec::new(),
            quarantined: Vec::new(),
            monitor: None,
        };
        for core in 0..n_cores {
            let eligible = d.level2_eligible(d.tables.epoch_table(0), core);
            d.level2.push(Level2::new(l2_epoch_len, &eligible));
        }
        d
    }

    fn level2_eligible(&self, table: &Table, core: usize) -> Vec<VcpuId> {
        table
            .vcpus_homed_on(core)
            .iter()
            .copied()
            .filter(|v| !self.is_capped(*v))
            .collect()
    }

    /// Whether `vcpu` is capped (defaults to `true` when unknown).
    pub fn is_capped(&self, vcpu: VcpuId) -> bool {
        self.capped.get(vcpu.0 as usize).copied().unwrap_or(true)
    }

    /// Number of cores the dispatcher serves.
    pub fn n_cores(&self) -> usize {
        self.level2.len()
    }

    /// The core currently owning (running) `vcpu`, if any.
    pub fn owner_of(&self, vcpu: VcpuId) -> Option<usize> {
        self.owner.get(vcpu.0 as usize).copied().flatten()
    }

    fn ensure_vcpu_slots(&mut self, vcpu: VcpuId) {
        let need = vcpu.0 as usize + 1;
        if self.owner.len() < need {
            self.owner.resize(need, None);
            self.ipi_request.resize(need, None);
        }
    }

    /// Rebuilds `core`'s second level against `epoch` if it was built
    /// against another one (the core adopted a new table, or `set_capped` /
    /// `set_quarantined` invalidated it): the lazy refresh every decision
    /// starts with.
    fn refresh_level2(&mut self, core: usize, epoch: usize) {
        if epoch == self.level2_epoch[core] {
            return;
        }
        let eligible = self.level2_eligible(self.tables.epoch_table(epoch), core);
        self.level2[core].set_eligible(&eligible);
        if self.quarantined.iter().any(|&q| q) {
            let demoted: Vec<VcpuId> = eligible
                .iter()
                .copied()
                .filter(|&v| self.is_quarantined(v))
                .collect();
            if !demoted.is_empty() {
                self.level2[core].set_demoted(&demoted);
            }
        }
        self.level2_epoch[core] = epoch;
    }

    /// Makes a scheduling decision for `core` at absolute time `now`.
    ///
    /// `is_runnable` reports guest state (runnable vs. blocked); the
    /// dispatcher handles ownership itself. The returned decision holds
    /// until `until`, a wake-up IPI, or the guest blocking — whichever
    /// comes first; the caller re-invokes on each of those events.
    pub fn decide(
        &mut self,
        core: usize,
        now: Nanos,
        mut is_runnable: impl FnMut(VcpuId) -> bool,
    ) -> Decision {
        let epoch = self.tables.confirm(core, now);
        self.refresh_level2(core, epoch);

        // Slot lookup via the per-core cursor: resume from the last
        // segment; division only on a table wrap or an epoch change.
        let (slot, until) = {
            let table = self.tables.epoch_table(epoch);
            let len = table.len();
            let cpu = table.cpu(core);
            let cur = &mut self.cursor[core];
            if cur.epoch != epoch || now < cur.round_base || now - cur.round_base >= len {
                cur.epoch = epoch;
                cur.round_base = now - now % len;
                cur.seg = 0;
            }
            let t = now - cur.round_base;
            cur.seg = cpu.seek_segment(cur.seg, t);
            let slot = cpu.segment_slot(cur.seg);
            (slot, cur.round_base + slot.until())
        };

        // First level: the reserved vCPU, if it can actually run here.
        if let Slot::Reserved { vcpu, .. } = slot {
            self.ensure_vcpu_slots(vcpu);
            if is_runnable(vcpu) {
                match self.owner[vcpu.0 as usize] {
                    Some(other) if other != core => {
                        // Still context-loaded elsewhere: request an IPI on
                        // de-schedule and fall through to the second level.
                        self.ipi_request[vcpu.0 as usize] = Some(core);
                    }
                    _ => {
                        self.owner[vcpu.0 as usize] = Some(core);
                        if let Some(m) = &mut self.monitor {
                            m.note_dispatched(vcpu, now);
                        }
                        return Decision::Run {
                            vcpu,
                            until,
                            level2: false,
                        };
                    }
                }
            }
        }

        // Second level: core-local, uncapped, runnable, not owned elsewhere.
        let owner = &self.owner;
        let pick = self.level2[core].pick(|v| {
            is_runnable(v)
                && owner
                    .get(v.0 as usize)
                    .copied()
                    .flatten()
                    .map(|o| o == core)
                    .unwrap_or(true)
        });
        if let Some(vcpu) = pick {
            self.ensure_vcpu_slots(vcpu);
            self.owner[vcpu.0 as usize] = Some(core);
            if let Some(m) = &mut self.monitor {
                m.note_dispatched(vcpu, now);
            }
            return Decision::Run {
                vcpu,
                until,
                level2: true,
            };
        }

        Decision::Idle { until }
    }

    /// Records that `core` de-scheduled `vcpu` (context fully saved).
    ///
    /// Returns the core to IPI, if one was waiting for this vCPU (the
    /// cross-core migration hand-off of Sec. 6).
    pub fn on_descheduled(&mut self, vcpu: VcpuId, core: usize) -> Option<usize> {
        self.ensure_vcpu_slots(vcpu);
        if self.owner[vcpu.0 as usize] == Some(core) {
            self.owner[vcpu.0 as usize] = None;
        }
        self.ipi_request[vcpu.0 as usize].take()
    }

    /// Charges second-level execution time (the caller knows how long the
    /// level-2 pick actually ran).
    pub fn charge_level2(&mut self, core: usize, vcpu: VcpuId, amount: Nanos) {
        self.level2[core].charge(vcpu, amount);
    }

    /// Precomputes one lap of `core`'s dispatch decisions from `from` on —
    /// the read-only half of the dense-phase fast path.
    ///
    /// Fills `out` with one `(vcpu, absolute until)` pair per table
    /// segment, starting with the segment containing `from` and ending one
    /// table length later, on the segment before it in the next round. The
    /// table repeats, so the lap does: decision `i` of lap `j` ends at
    /// `out[i].1 + j * len` and is segment
    /// `(first_seg + i) % n_segments`. The lap is exact strictly before
    /// [`DenseLap::valid_before`], the round boundary at which `core` next
    /// adopts a newer table ([`TableManager::next_adoption`];
    /// [`Nanos::MAX`] when settled); the caller plans a fresh lap at or
    /// after it. It is also exact only before
    /// [`DenseLap::uncertified_from`], the first slice whose runnable
    /// owner is not single-homed on `core` (the owner protocol could defer
    /// that dispatch). Returns `None` — mutating nothing but `out`, whose
    /// contents are then meaningless — unless the lap is provably
    /// equivalent to calling [`Dispatcher::decide`] at every slice
    /// boundary before those bounds:
    ///
    /// * nothing is staged (a commit would publish mid-window);
    /// * `core`'s second level is empty under the epoch in force at `from`,
    ///   so every level-2 pick is a side-effect-free `None` and every
    ///   level-2 charge a no-op; if it was built against another epoch
    ///   (the window opens on a table switch, or `set_capped` /
    ///   `set_quarantined` invalidated it), the set it still holds must be
    ///   empty too and nothing may be quarantined — then the lazy refresh
    ///   `decide` would run first replaces an empty set by an empty set,
    ///   and [`Dispatcher::dense_commit`] runs it;
    /// * no SLA monitor is attached (dispatches would feed it);
    /// * no IPI request is pending anywhere (a de-schedule would consume
    ///   one and trigger a hand-off IPI).
    ///
    /// Runnability is sampled once per slot at build time; the caller
    /// guarantees guest state cannot change inside the window (the
    /// simulator abandons a window on any block or wake).
    pub fn dense_plan(
        &self,
        core: usize,
        from: Nanos,
        mut is_runnable: impl FnMut(VcpuId) -> bool,
        out: &mut Vec<(Option<VcpuId>, Nanos)>,
    ) -> Option<DenseLap> {
        out.clear();
        if self.monitor.is_some() || self.tables.has_staged() {
            return None;
        }
        let epoch = self.tables.peek_epoch(core, from);
        if self.level2_epoch[core] != epoch
            && (self.level2[core].eligible().next().is_some()
                || self.quarantined.iter().any(|&q| q))
        {
            return None;
        }
        let table = self.tables.epoch_table(epoch);
        if !table
            .vcpus_homed_on(core)
            .iter()
            .all(|&v| self.is_capped(v))
        {
            return None;
        }
        if self.ipi_request.iter().any(|r| r.is_some()) {
            return None;
        }
        let len = table.len();
        let cpu = table.cpu(core);
        let n_segs = cpu.n_segments();
        let lap_base = from - from % len;
        let mut round_base = lap_base;
        let first_seg = cpu.segment_at(from - round_base);
        let valid_before = self.tables.next_adoption(core, from);
        let mut uncertified_from = Nanos::MAX;
        let mut seg = first_seg;
        // When the slice being emitted is taken (its start; `from` for the
        // first one).
        let mut start = from;
        for _ in 0..n_segs {
            let slot = cpu.segment_slot(seg);
            let vcpu = slot.vcpu().filter(|&v| is_runnable(v));
            if let Some(v) = vcpu {
                if uncertified_from == Nanos::MAX
                    && start < valid_before
                    && !table.placement(v).is_some_and(|p| p.only_on(core))
                {
                    uncertified_from = start;
                }
            }
            let until = round_base + slot.until();
            out.push((vcpu, until));
            start = until;
            seg += 1;
            if seg == n_segs {
                seg = 0;
                round_base += len;
            }
        }
        Some(DenseLap {
            valid_before,
            uncertified_from,
            period: len,
            first_seg,
            round_base: lap_base,
        })
    }

    /// Applies the net state effect of executing dense decisions on `core`
    /// — the mutating half of the dense-phase fast path.
    ///
    /// `at` is the time of the last decision taken since the previous
    /// commit, `seg` its segment and `round_base` the start of its table
    /// round (the window knows both, so no lookup or division is needed),
    /// and `running` the vCPU that decision left dispatched (if any). Under
    /// the [`Dispatcher::dense_plan`] guards the generic boundary callbacks
    /// would have: cleared `core`'s ownership at every de-schedule and
    /// re-asserted it at every dispatch (net: only the final dispatch
    /// survives), advanced the table view once per decision (net: the last
    /// decision's confirm — a window never spans an adoption boundary, so
    /// every decision in it confirmed the same epoch), run the lazy level-2
    /// refresh at the first decision if the second level was built against
    /// another epoch (net: an empty set replaced by an empty set and the
    /// epoch stamp, which is all `dense_plan` admits), and rebuilt the slot
    /// cursor (net: the cursor of the last decision).
    pub fn dense_commit(
        &mut self,
        core: usize,
        at: Nanos,
        seg: usize,
        round_base: Nanos,
        running: Option<VcpuId>,
    ) {
        debug_assert!(
            at >= round_base && at - round_base < self.tables.newest_table().len(),
            "{at:?} is not in the round at {round_base:?}"
        );
        let epoch = self.tables.confirm_round(core, round_base);
        debug_assert_eq!(
            self.tables
                .epoch_table(epoch)
                .cpu(core)
                .segment_at(at - round_base),
            seg,
            "{at:?} is not in segment {seg}"
        );
        self.refresh_level2(core, epoch);
        for o in &mut self.owner {
            if *o == Some(core) {
                *o = None;
            }
        }
        if let Some(vcpu) = running {
            self.ensure_vcpu_slots(vcpu);
            self.owner[vcpu.0 as usize] = Some(core);
        }
        self.cursor[core] = SlotCursor {
            epoch,
            round_base,
            seg,
        };
    }

    /// The core to IPI when `vcpu` wakes at `now` (Sec. 6, "Efficient
    /// wake-ups"): the core of its current-or-next allocation; capped vCPUs
    /// with no current allocation can safely be left for their next slot.
    ///
    /// Returns `None` when no IPI is needed.
    pub fn wakeup_target(&mut self, vcpu: VcpuId, now: Nanos) -> Option<usize> {
        // Core 0's view only nominates a candidate. Mid-switch, per-core
        // epoch views diverge (a core that looked at its pointer more
        // recently holds a newer epoch), so whether the vCPU's slot is
        // active must be judged by the table the *target* core is actually
        // running — else a capped vCPU's needed IPI can be suppressed (or a
        // useless one sent) based on a table that core isn't executing.
        let epoch0 = self.tables.confirm(0, now);
        let mut route = self.tables.epoch_table(epoch0).wakeup_route(vcpu, now)?;
        let epoch = self.tables.confirm(route.0, now);
        if epoch != epoch0 {
            route = self.tables.epoch_table(epoch).wakeup_route(vcpu, now)?;
        }
        // A capped vCPU is only worth interrupting for if its slot is
        // active now.
        let (target, active) = route;
        (active || !self.is_capped(vcpu)).then_some(target)
    }

    /// Installs a table pushed by the planner; returns the absolute time at
    /// which every core will have switched (see [`TableManager::install`]).
    ///
    /// Accepts an owned [`Table`] or a shared `Arc<Table>`; the latter is
    /// allocation-free — the planner-built slice index is shared as-is.
    ///
    /// # Errors
    ///
    /// The typed install errors of [`TableManager::begin_install`]; a
    /// rejected push leaves the running table untouched.
    pub fn install_table(
        &mut self,
        table: impl Into<Arc<Table>>,
        now: Nanos,
    ) -> Result<Nanos, InstallError> {
        self.tables.install(table, now)
    }

    /// Phase one of a two-phase table install: validates and stages the
    /// table without exposing it to any core (see
    /// [`TableManager::begin_install`]).
    pub fn begin_table_switch(
        &mut self,
        table: impl Into<Arc<Table>>,
        now: Nanos,
    ) -> Result<StagedInstall, InstallError> {
        self.tables.begin_install(table, now)
    }

    /// Phase two: atomically publishes the staged table; returns the time
    /// all cores will have switched.
    ///
    /// # Errors
    ///
    /// [`InstallError::NothingStaged`] when nothing is staged (commit
    /// without begin, double commit, or commit after abort); the running
    /// table is untouched.
    pub fn commit_table_switch(&mut self, staged: StagedInstall) -> Result<Nanos, InstallError> {
        self.tables.commit_install(staged)
    }

    /// Rolls back a staged table install (the push was interrupted); the
    /// dispatcher keeps running the old table as if nothing happened.
    pub fn abort_table_switch(&mut self) {
        self.tables.abort_install();
    }

    /// One two-phase install attempt: stages `table`, then rolls it back if
    /// the push was `interrupted`, else commits it. Returns
    /// `Ok(Some(switch_at))` on commit and `Ok(None)` when the push was
    /// rolled back (the old table keeps running, untouched).
    ///
    /// # Errors
    ///
    /// The typed errors of [`Dispatcher::begin_table_switch`] and
    /// [`Dispatcher::commit_table_switch`]; the running table is untouched.
    pub fn try_table_switch(
        &mut self,
        table: impl Into<Arc<Table>>,
        now: Nanos,
        interrupted: bool,
    ) -> Result<Option<Nanos>, InstallError> {
        let staged = self.begin_table_switch(table, now)?;
        if interrupted {
            self.abort_table_switch();
            return Ok(None);
        }
        self.commit_table_switch(staged).map(Some)
    }

    /// Whether a table install is currently staged.
    pub fn has_staged_table(&self) -> bool {
        self.tables.has_staged()
    }

    /// The most recently committed table (see
    /// [`TableManager::newest_table`]) — what the continuous audit
    /// compares with the facts of the table it installed.
    pub fn newest_table(&self) -> &Table {
        self.tables.newest_table()
    }

    /// Every table the dispatcher keeps alive, one per uncollected epoch
    /// (see [`TableManager::held_tables`]; diagnostics/tests).
    pub fn held_tables(&self) -> &[Arc<Table>] {
        self.tables.held_tables()
    }

    /// Fault-injection hook: see [`TableManager::corrupt_newest_table`].
    pub fn corrupt_newest_table(&mut self, table: Table) -> Result<(), String> {
        self.tables.corrupt_newest_table(table)
    }

    /// Replaces the capped flags (on VM reconfiguration).
    pub fn set_capped(&mut self, capped: Vec<bool>) {
        self.capped = capped;
        // Eligibility is refreshed lazily per core on the next decision.
        for e in &mut self.level2_epoch {
            *e = usize::MAX;
        }
    }

    /// Runs table garbage collection; returns the number of epochs freed.
    pub fn collect_garbage(&mut self) -> usize {
        self.tables.collect_garbage()
    }

    /// Quarantines `vcpu` (demotes it at the second level so it only
    /// scavenges otherwise-idle time) or lifts the quarantine.
    ///
    /// Takes effect on each core's next decision via the lazy second-level
    /// rebuild; the table reservation of the vCPU is untouched.
    pub fn set_quarantined(&mut self, vcpu: VcpuId, quarantined: bool) {
        let need = vcpu.0 as usize + 1;
        if self.quarantined.len() < need {
            self.quarantined.resize(need, false);
        }
        if self.quarantined[vcpu.0 as usize] == quarantined {
            return;
        }
        self.quarantined[vcpu.0 as usize] = quarantined;
        // Demotions are re-applied lazily per core on the next decision.
        for e in &mut self.level2_epoch {
            *e = usize::MAX;
        }
    }

    /// Whether `vcpu` is currently quarantined.
    pub fn is_quarantined(&self, vcpu: VcpuId) -> bool {
        self.quarantined
            .get(vcpu.0 as usize)
            .copied()
            .unwrap_or(false)
    }

    /// The epoch index `core`'s table view currently holds (see
    /// [`TableManager::core_epoch`]; diagnostics/tests).
    pub fn core_epoch(&self, core: usize) -> usize {
        self.tables.core_epoch(core)
    }

    /// Attaches an SLA monitor; subsequent dispatches feed it. Replaces any
    /// previously attached monitor.
    pub fn attach_sla_monitor(&mut self, monitor: SlaMonitor) {
        self.monitor = Some(monitor);
    }

    /// Mutable access to the attached SLA monitor, if any.
    pub fn sla_monitor_mut(&mut self) -> Option<&mut SlaMonitor> {
        self.monitor.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Allocation;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn alloc(s: u64, e: u64, v: u32) -> Allocation {
        Allocation {
            start: ms(s),
            end: ms(e),
            vcpu: VcpuId(v),
        }
    }

    /// Two cores; vCPU 0 on core 0 [0,3), vCPU 1 on core 0 [5,8),
    /// vCPU 2 on core 1 [0,10). Table length 10 ms.
    fn two_core_dispatcher(capped: Vec<bool>) -> Dispatcher {
        let table = Table::new(
            ms(10),
            vec![vec![alloc(0, 3, 0), alloc(5, 8, 1)], vec![alloc(0, 10, 2)]],
        )
        .unwrap();
        Dispatcher::new(table, capped, ms(10))
    }

    #[test]
    fn first_level_dispatch() {
        let mut d = two_core_dispatcher(vec![false; 3]);
        let dec = d.decide(0, ms(1), |_| true);
        assert_eq!(
            dec,
            Decision::Run {
                vcpu: VcpuId(0),
                until: ms(3),
                level2: false
            }
        );
    }

    #[test]
    fn blocked_reserved_vcpu_falls_to_level2() {
        let mut d = two_core_dispatcher(vec![false; 3]);
        // vCPU 0 blocked; vCPU 1 (homed on core 0, uncapped) takes over.
        let dec = d.decide(0, ms(1), |v| v != VcpuId(0));
        assert_eq!(dec.vcpu(), Some(VcpuId(1)));
        assert!(matches!(dec, Decision::Run { level2: true, .. }));
    }

    #[test]
    fn idle_gap_used_by_level2() {
        let mut d = two_core_dispatcher(vec![false; 3]);
        // [3, 5) is idle in the table; level 2 picks a core-local vCPU.
        let dec = d.decide(0, ms(3), |_| true);
        assert!(matches!(dec, Decision::Run { level2: true, .. }));
        assert_eq!(dec.until(), ms(5));
    }

    #[test]
    fn capped_vcpus_never_run_level2() {
        let mut d = two_core_dispatcher(vec![true; 3]);
        let dec = d.decide(0, ms(3), |_| true);
        assert_eq!(dec, Decision::Idle { until: ms(5) });
    }

    #[test]
    fn level2_is_core_local() {
        let mut d = two_core_dispatcher(vec![false; 3]);
        // Core 1's reserved vCPU 2 blocked; vCPUs 0/1 are homed on core 0,
        // so core 1 idles.
        let dec = d.decide(1, ms(1), |v| v != VcpuId(2));
        assert_eq!(dec, Decision::Idle { until: ms(10) });
    }

    #[test]
    fn migration_handoff_protocol() {
        // vCPU 0 split: core 0 [0,3), core 1 [3,6).
        let table = Table::new(ms(10), vec![vec![alloc(0, 3, 0)], vec![alloc(3, 6, 0)]]).unwrap();
        let mut d = Dispatcher::new(table, vec![true], ms(10));
        // Core 0 runs it.
        let dec = d.decide(0, ms(0), |_| true);
        assert_eq!(dec.vcpu(), Some(VcpuId(0)));
        // Core 1's slot begins but core 0 has not de-scheduled yet (timer
        // skew): core 1 must NOT run the vCPU.
        let dec = d.decide(1, ms(3), |_| true);
        assert_eq!(dec.vcpu(), None);
        // When core 0 de-schedules, the hand-off IPI targets core 1.
        assert_eq!(d.on_descheduled(VcpuId(0), 0), Some(1));
        // Now core 1 can claim it.
        let dec = d.decide(1, ms(3), |_| true);
        assert_eq!(dec.vcpu(), Some(VcpuId(0)));
        assert_eq!(d.owner_of(VcpuId(0)), Some(1));
    }

    #[test]
    fn wakeup_routing() {
        let mut d = two_core_dispatcher(vec![false, false, false]);
        // vCPU 2 has a current allocation on core 1.
        assert_eq!(d.wakeup_target(VcpuId(2), ms(4)), Some(1));
        // vCPU 1's next allocation is on core 0.
        assert_eq!(d.wakeup_target(VcpuId(1), ms(1)), Some(0));
    }

    #[test]
    fn capped_wakeup_outside_slot_needs_no_ipi() {
        let mut d = two_core_dispatcher(vec![true, true, true]);
        // vCPU 1 capped, current time outside its [5, 8) slot.
        assert_eq!(d.wakeup_target(VcpuId(1), ms(1)), None);
        // Inside its slot the IPI goes to core 0.
        assert_eq!(d.wakeup_target(VcpuId(1), ms(6)), Some(0));
    }

    #[test]
    fn capped_wakeup_mid_switch_routes_by_target_cores_view() {
        // Table A: capped vCPU 1 on core 1 at [5,10). Table B (installed
        // at t=5ms, pointer armed mid-round at 15ms) moves that slot to
        // [0,3).
        let a = Table::new(ms(10), vec![vec![alloc(0, 3, 0)], vec![alloc(5, 10, 1)]]).unwrap();
        let b = Table::new(ms(10), vec![vec![alloc(0, 3, 0)], vec![alloc(0, 3, 1)]]).unwrap();
        let mut d = Dispatcher::new(a, vec![true, true], ms(10));
        d.install_table(b, ms(5)).expect("installs");
        // Core 0 decides just past the 20ms wrap and adopts B ...
        let _ = d.decide(0, ms(21), |_| true);
        // ... but a wakeup for vCPU 1 carries a pre-wrap timestamp (timer
        // skew): core 1 is still executing A, whose [5,10) slot is active
        // at t=19ms. Judged by core 0's post-wrap view (B, where [0,3) is
        // inactive) the IPI would be suppressed and the capped vCPU would
        // silently lose the rest of its slot.
        assert_eq!(d.wakeup_target(VcpuId(1), ms(19)), Some(1));
        // Post-wrap wakeups agree with B: slot [0,3) inactive at t=24ms.
        assert_eq!(d.wakeup_target(VcpuId(1), ms(24)), None);
        assert_eq!(d.wakeup_target(VcpuId(1), ms(22)), Some(1));
    }

    #[test]
    fn table_switch_refreshes_level2() {
        let mut d = two_core_dispatcher(vec![false; 3]);
        // New table moves vCPU 1 to core 1.
        let new = Table::new(
            ms(10),
            vec![vec![alloc(0, 3, 0)], vec![alloc(0, 5, 2), alloc(5, 8, 1)]],
        )
        .unwrap();
        let switch_at = d.install_table(new, ms(1)).expect("installs");
        // After the switch, core 1's level 2 includes vCPU 1: during core
        // 1's idle tail [8, 10) it can pick vCPU 1 or 2.
        let dec = d.decide(1, switch_at + ms(8), |v| v == VcpuId(1));
        assert_eq!(dec.vcpu(), Some(VcpuId(1)));
        // And core 0 no longer second-levels vCPU 1.
        let dec = d.decide(0, switch_at + ms(4), |v| v == VcpuId(1));
        assert_eq!(dec.vcpu(), None);
    }

    #[test]
    fn level2_budgets_rotate_fairly() {
        let mut d = two_core_dispatcher(vec![false; 3]);
        // During the idle gap, repeatedly pick and charge: both uncapped
        // core-0 vCPUs get turns.
        let mut seen = Vec::new();
        for _ in 0..4 {
            if let Decision::Run { vcpu, .. } = d.decide(0, ms(3), |_| true) {
                d.charge_level2(0, vcpu, ms(2));
                d.on_descheduled(vcpu, 0);
                seen.push(vcpu);
            }
        }
        assert!(seen.contains(&VcpuId(0)));
        assert!(seen.contains(&VcpuId(1)));
    }

    #[test]
    fn quarantined_vcpu_yields_level2_to_good_standing() {
        let mut d = two_core_dispatcher(vec![false; 3]);
        d.set_quarantined(VcpuId(0), true);
        // In the idle gap [3, 5) both vCPU 0 and 1 are ready; quarantine
        // makes vCPU 1 win every time.
        for _ in 0..3 {
            let dec = d.decide(0, ms(3), |_| true);
            assert_eq!(dec.vcpu(), Some(VcpuId(1)));
            d.charge_level2(0, VcpuId(1), ms(2));
            d.on_descheduled(VcpuId(1), 0);
        }
        // The quarantined vCPU still scavenges when nothing else is ready.
        let dec = d.decide(0, ms(3), |v| v == VcpuId(0));
        assert_eq!(dec.vcpu(), Some(VcpuId(0)));
        d.on_descheduled(VcpuId(0), 0);
        // Lifting the quarantine restores fair rotation.
        d.set_quarantined(VcpuId(0), false);
        assert!(!d.is_quarantined(VcpuId(0)));
        let mut seen = Vec::new();
        for _ in 0..4 {
            if let Decision::Run { vcpu, .. } = d.decide(0, ms(3), |_| true) {
                d.charge_level2(0, vcpu, ms(2));
                d.on_descheduled(vcpu, 0);
                seen.push(vcpu);
            }
        }
        assert!(seen.contains(&VcpuId(0)));
        assert!(seen.contains(&VcpuId(1)));
    }

    #[test]
    fn quarantine_survives_table_switch() {
        let mut d = two_core_dispatcher(vec![false; 3]);
        d.set_quarantined(VcpuId(0), true);
        let _ = d.decide(0, ms(3), |_| true);
        // Reinstall the same layout: the switch rebuilds level 2, which
        // must re-apply the demotion.
        let new = Table::new(
            ms(10),
            vec![vec![alloc(0, 3, 0), alloc(5, 8, 1)], vec![alloc(0, 10, 2)]],
        )
        .unwrap();
        let switch_at = d.install_table(new, ms(1)).expect("installs");
        let dec = d.decide(0, switch_at + ms(3), |_| true);
        assert_eq!(dec.vcpu(), Some(VcpuId(1)));
    }

    #[test]
    fn attached_monitor_sees_dispatches() {
        use crate::guardian::SlaMonitor;
        let mut d = two_core_dispatcher(vec![false; 3]);
        let mut m = SlaMonitor::new(vec![(VcpuId(0), ms(2))]);
        m.note_runnable(VcpuId(0), ms(0));
        d.attach_sla_monitor(m);
        // Dispatched at 1 ms after becoming runnable at 0: within bound.
        let _ = d.decide(0, ms(1), |_| true);
        assert!(d.sla_monitor_mut().unwrap().drain_violations().is_empty());
        d.on_descheduled(VcpuId(0), 0);
        // Runnable again at 3 ms but only dispatched at 10 ms (its next
        // table slot round): 7 ms delay blows the 2 ms bound.
        d.sla_monitor_mut().unwrap().note_runnable(VcpuId(0), ms(3));
        let _ = d.decide(0, ms(10), |_| true);
        let violations = d.sla_monitor_mut().unwrap().drain_violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].vcpu, VcpuId(0));
        assert_eq!(violations[0].observed, ms(7));
        assert_eq!(violations[0].bound, ms(2));
    }

    /// Everything the dense fast path must leave exactly as the generic
    /// callbacks would: cursors, owners, per-core table views, and each
    /// core's second level (epoch stamp, budgets, demotions).
    type DispatchState = (
        Vec<SlotCursor>,
        Vec<Option<usize>>,
        Vec<usize>,
        Vec<usize>,
        Vec<(Vec<(VcpuId, Nanos)>, Vec<VcpuId>)>,
    );

    fn dispatch_state(d: &Dispatcher) -> DispatchState {
        (
            d.cursor.clone(),
            d.owner.clone(),
            (0..d.n_cores()).map(|c| d.core_epoch(c)).collect(),
            d.level2_epoch.clone(),
            d.level2
                .iter()
                .map(|l| {
                    (
                        l.eligible().map(|v| (v, l.budget(v))).collect(),
                        l.demoted().to_vec(),
                    )
                })
                .collect(),
        )
    }

    /// Table A (two_core_dispatcher's) and a different table B of the same
    /// length; all vCPUs capped, every reservation single-homed.
    fn table_b() -> Table {
        Table::new(
            ms(10),
            vec![vec![alloc(0, 4, 1), alloc(6, 9, 0)], vec![alloc(2, 7, 2)]],
        )
        .unwrap()
    }

    /// One `(core, time, vcpu, until)` per decision.
    type Decisions = Vec<(usize, Nanos, Option<VcpuId>, Nanos)>;

    /// The generic path: `decide` at every slice boundary of every core up
    /// to `end`, in global time order, de-scheduling the incumbent first.
    fn drive_generic(d: &mut Dispatcher, end: Nanos) -> Decisions {
        let n = d.n_cores();
        let mut next = vec![Nanos::ZERO; n];
        let mut incumbent: Vec<Option<VcpuId>> = vec![None; n];
        let mut log = Vec::new();
        loop {
            let core = (0..n).min_by_key(|&c| (next[c], c)).unwrap();
            let now = next[core];
            if now > end {
                return log;
            }
            if let Some(v) = incumbent[core].take() {
                assert_eq!(d.on_descheduled(v, core), None);
            }
            let dec = d.decide(core, now, |_| true);
            incumbent[core] = dec.vcpu();
            log.push((core, now, dec.vcpu(), dec.until()));
            next[core] = dec.until();
        }
    }

    /// The dense path, driven the way the simulator drives it: calls of
    /// `span` each; in every call, a lap per core planned at the earliest
    /// pending boundary; decisions read off the laps (wrapping them) up to
    /// the call's end or one nanosecond before the validity bound,
    /// whichever comes first, and laps planned afresh there; one commit per
    /// core per stretch, naming the last decision's segment.
    fn drive_dense(d: &mut Dispatcher, end: Nanos, span: Nanos) -> Decisions {
        struct Lap {
            slices: Vec<(Option<VcpuId>, Nanos)>,
            period: Nanos,
            first_seg: usize,
            round_base: Nanos,
            next: usize,
            offset: Nanos,
        }
        let n = d.n_cores();
        let mut next = vec![Nanos::ZERO; n];
        let mut log = Vec::new();
        let mut call_end = Nanos::ZERO;
        while call_end < end {
            call_end = end.min(call_end + span);
            loop {
                let from = *next.iter().min().unwrap();
                if from > call_end {
                    break;
                }
                let mut laps = Vec::with_capacity(n);
                let mut bound = Nanos::MAX;
                for core in 0..n {
                    let mut out = Vec::new();
                    let lap = d
                        .dense_plan(core, from, |_| true, &mut out)
                        .expect("capped single-homed tables stay dense");
                    assert!(lap.valid_before > from);
                    assert_eq!(lap.uncertified_from, Nanos::MAX);
                    // One lap: the last slice ends one period after the
                    // first begins (at or before `from`).
                    assert!(out.windows(2).all(|s| s[0].1 < s[1].1));
                    assert!(out.last().unwrap().1 - lap.period <= from);
                    assert!(out[0].1 > from);
                    bound = bound.min(lap.valid_before);
                    laps.push(Lap {
                        slices: out,
                        period: lap.period,
                        first_seg: lap.first_seg,
                        round_base: lap.round_base,
                        next: 0,
                        offset: Nanos::ZERO,
                    });
                }
                let cap = call_end.min(bound - Nanos(1));
                for (core, lap) in laps.iter_mut().enumerate() {
                    let mut picked = None;
                    while next[core] <= cap {
                        let i = lap.next;
                        let (vcpu, until) = lap.slices[i];
                        let until = until + lap.offset;
                        lap.next = (i + 1) % lap.slices.len();
                        if lap.next == 0 {
                            lap.offset += lap.period;
                        }
                        if until <= next[core] {
                            continue;
                        }
                        log.push((core, next[core], vcpu, until));
                        picked = Some((next[core], i, until, vcpu));
                        next[core] = until;
                    }
                    if let Some((at, i, until, running)) = picked {
                        let n = lap.slices.len();
                        let wrapped = lap.first_seg + i >= n;
                        let seg = (lap.first_seg + i) % n;
                        let lap_offset = until - lap.slices[i].1;
                        let round_base = lap.round_base
                            + lap_offset
                            + if wrapped { lap.period } else { Nanos::ZERO };
                        d.dense_commit(core, at, seg, round_base, running);
                    }
                }
                if cap == call_end {
                    break;
                }
            }
        }
        log
    }

    #[test]
    fn dense_windows_across_a_switch_match_decide_at_every_boundary() {
        // Two pending switches: to table B at 20 ms, back to A's layout at
        // 40 ms. Some spans end a call exactly on a boundary, some end many
        // calls inside one table's laps, the widest is cut by both
        // switches.
        let end = Nanos::from_micros(57_300);
        let install = |d: &mut Dispatcher| {
            let a = d.newest_table().clone();
            assert_eq!(d.install_table(table_b(), ms(3)), Ok(ms(20)));
            assert_eq!(d.install_table(a, ms(27)), Ok(ms(40)));
        };
        let mut generic = two_core_dispatcher(vec![true; 3]);
        install(&mut generic);
        let mut want = drive_generic(&mut generic, end);
        want.sort();
        for span_us in [700, 5_000, 10_000, 13_000, 100_000] {
            let mut dense = two_core_dispatcher(vec![true; 3]);
            install(&mut dense);
            let mut got = drive_dense(&mut dense, end, Nanos::from_micros(span_us));
            got.sort();
            assert_eq!(got, want, "decisions diverged at span {span_us} us");
            assert_eq!(
                dispatch_state(&dense),
                dispatch_state(&generic),
                "state diverged at span {span_us} us"
            );
            assert_eq!(dense.core_epoch(0), 2);
        }
    }

    #[test]
    fn dense_plan_is_cut_at_the_adoption_boundary_and_rolls_past_it() {
        let mut d = two_core_dispatcher(vec![true; 3]);
        let mut out = Vec::new();
        let lap = |valid_before, first_seg, round_base| DenseLap {
            valid_before,
            uncertified_from: Nanos::MAX,
            period: ms(10),
            first_seg,
            round_base,
        };
        // One lap from the segment containing 1 ms: [0,3) v0, [3,5) idle,
        // [5,8) v1, [8,10) idle, then [0,3) of the next round.
        assert_eq!(
            d.dense_plan(0, ms(1), |_| true, &mut out),
            Some(lap(Nanos::MAX, 0, ms(0)))
        );
        assert_eq!(
            out,
            [
                (Some(VcpuId(0)), ms(3)),
                (None, ms(5)),
                (Some(VcpuId(1)), ms(8)),
                (None, ms(10))
            ]
        );
        assert_eq!(
            d.dense_plan(0, ms(6), |v| v != VcpuId(0), &mut out),
            Some(lap(Nanos::MAX, 2, ms(0)))
        );
        assert_eq!(
            out,
            [
                (Some(VcpuId(1)), ms(8)),
                (None, ms(10)),
                (None, ms(13)),
                (None, ms(15))
            ]
        );

        let switch_at = d.install_table(table_b(), ms(3)).expect("installs");
        assert_eq!(
            d.dense_plan(0, ms(3), |_| true, &mut out),
            Some(lap(switch_at, 1, ms(0)))
        );
        // Table A's lap, valid only until the boundary.
        assert_eq!(out.first(), Some(&(None, ms(5))));
        assert_eq!(out.last(), Some(&(Some(VcpuId(0)), ms(13))));
        // A window opened on the boundary runs table B and is unbounded; the
        // second level's stale epoch stamp does not decline it (its set is
        // empty under both tables) and the commit brings it in sync.
        assert_eq!(
            d.dense_plan(0, switch_at, |_| true, &mut out),
            Some(lap(Nanos::MAX, 0, switch_at))
        );
        assert_eq!(out.first(), Some(&(Some(VcpuId(1)), switch_at + ms(4))));
        assert_eq!(d.level2_epoch[0], 0);
        d.dense_commit(0, switch_at, 0, switch_at, Some(VcpuId(1)));
        assert_eq!((d.core_epoch(0), d.level2_epoch[0]), (1, 1));
        // A staged, uncommitted install still declines.
        let staged = d.begin_table_switch(table_b(), switch_at).unwrap();
        assert_eq!(d.dense_plan(0, switch_at, |_| true, &mut out), None);
        d.commit_table_switch(staged).unwrap();
        assert!(d.dense_plan(0, switch_at, |_| true, &mut out).is_some());
    }

    #[test]
    fn dense_plan_marks_the_first_slice_of_a_split_vcpu_before_the_boundary() {
        // vCPU 0 runs on both cores: [0,3) on core 0 and [6,8) on core 1.
        let split = Table::new(
            ms(10),
            vec![
                vec![alloc(0, 3, 0), alloc(5, 8, 1)],
                vec![alloc(3, 5, 2), alloc(6, 8, 0)],
            ],
        )
        .unwrap();
        let mut d = Dispatcher::new(split, vec![true; 3], ms(10));
        let mut out = Vec::new();
        let mut uncertified = |d: &Dispatcher, core, from| {
            d.dense_plan(core, from, |_| true, &mut out)
                .map(|lap| lap.uncertified_from)
        };
        // From 4 ms core 0 reaches vCPU 0's slot at 10 ms, core 1 at 6 ms;
        // from inside that slot, the lap's first decision is uncertified.
        assert_eq!(uncertified(&d, 0, ms(4)), Some(ms(10)));
        assert_eq!(uncertified(&d, 1, ms(4)), Some(ms(6)));
        assert_eq!(uncertified(&d, 1, ms(7)), Some(ms(7)));
        // A blocked vCPU 0 certifies the whole lap.
        assert_eq!(
            d.dense_plan(1, ms(4), |v| v != VcpuId(0), &mut Vec::new())
                .map(|lap| lap.uncertified_from),
            Some(Nanos::MAX)
        );
        // Slices from the adoption boundary on are the next table's to
        // certify: core 0's lap from 14 ms reaches vCPU 0 at 20 ms, which
        // is where a switch cuts it.
        assert_eq!(uncertified(&d, 0, ms(14)), Some(ms(20)));
        let switch_at = d.install_table(table_b(), ms(4)).expect("installs");
        assert_eq!(switch_at, ms(20));
        assert_eq!(uncertified(&d, 0, ms(14)), Some(Nanos::MAX));
        assert_eq!(uncertified(&d, 1, ms(14)), Some(ms(16)));
    }

    #[test]
    fn dense_plan_declines_once_the_new_epoch_homes_an_uncapped_vcpu() {
        // vCPU 3 is uncapped and appears on core 1 only in the new table.
        let mut d = two_core_dispatcher(vec![true, true, true, false]);
        let b = Table::new(
            ms(10),
            vec![
                vec![alloc(0, 3, 0), alloc(5, 8, 1)],
                vec![alloc(0, 5, 2), alloc(5, 9, 3)],
            ],
        )
        .unwrap();
        let switch_at = d.install_table(b, ms(3)).expect("installs");
        let mut out = Vec::new();
        let mut bound = |core, from| {
            d.dense_plan(core, from, |_| true, &mut out)
                .map(|lap| lap.valid_before)
        };
        // Up to the switch core 1 stays dense, bounded at the boundary ...
        assert_eq!(bound(1, ms(3)), Some(switch_at));
        // ... from the boundary on its second level is live: decline.
        assert_eq!(bound(1, switch_at), None);
        // Core 0 homes only capped vCPUs under both tables.
        assert_eq!(bound(0, switch_at), Some(Nanos::MAX));
        // A stale, non-empty second level declines too: once core 1 ran
        // table B generically, switching back to an all-capped table must
        // go through `decide`'s refresh, not the commit's.
        let _ = d.decide(1, switch_at, |_| true);
        let back = d
            .install_table(
                two_core_dispatcher(vec![]).newest_table().clone(),
                switch_at,
            )
            .expect("installs");
        assert_eq!(d.dense_plan(1, back, |_| true, &mut out), None);
    }

    #[test]
    fn decision_accessors() {
        let r = Decision::Run {
            vcpu: VcpuId(1),
            until: ms(5),
            level2: false,
        };
        assert_eq!(r.until(), ms(5));
        assert_eq!(r.vcpu(), Some(VcpuId(1)));
        let i = Decision::Idle { until: ms(2) };
        assert_eq!(i.vcpu(), None);
    }
}
