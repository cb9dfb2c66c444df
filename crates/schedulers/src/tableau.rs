//! The Tableau scheduler, adapted to the simulator's scheduler interface.
//!
//! All scheduling logic lives in `tableau-core` (the paper's contribution);
//! this adapter is the thin "hypervisor glue": it converts simulator events
//! into dispatcher calls, charges the (flat, core-local) operation costs,
//! feeds actual run times back into the second-level scheduler's budgets,
//! and forwards hand-off IPIs from the cross-core migration protocol.

use std::sync::Arc;

use rtsched::time::Nanos;
use tableau_core::dispatch::{Decision, DenseLap, Dispatcher};
use tableau_core::guardian::CoreEvent;
use tableau_core::planner::{Plan, VcpuParams};
use tableau_core::vcpu::VcpuId as TcVcpu;
use tableau_core::Table;
use xensim::sched::{
    DenseCosts, DensePicks, DenseSlice, DenseWindow, DeschedulePlan, SchedDecision, VcpuId,
    VcpuView, VmScheduler, WakeupPlan,
};

use crate::costs::TableauCosts;

/// Per-vCPU dispatch attribution: which level picked it (Sec. 7.4 traces
/// this to show the second-level scheduler's contribution — "over 85% of
/// the scheduling decisions resulting in the vantage VM's execution were
/// made by the level-2 round-robin scheduler").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PickCounts {
    /// Dispatches from the first-level (table) scheduler.
    pub level1: u64,
    /// Dispatches from the second-level (fair-share) scheduler.
    pub level2: u64,
}

impl PickCounts {
    /// Fraction of dispatches made by the second level.
    pub fn level2_fraction(&self) -> f64 {
        let total = self.level1 + self.level2;
        if total == 0 {
            0.0
        } else {
            self.level2 as f64 / total as f64
        }
    }
}

/// What the adapter keeps per core, side by side: a dense commit touches
/// all of it.
#[derive(Debug, Clone, Copy, Default)]
struct CoreSlot {
    /// The last decision: `(vcpu, was_level2)` for budget charging.
    last_pick: Option<(VcpuId, bool)>,
    /// Stolen time already charged to the current pick (via
    /// [`VmScheduler::on_stolen`]); subtracted from the wall-clock charge at
    /// de-schedule so interference is never double-billed.
    stolen_in_pick: Nanos,
    /// The lap the simulator holds (where it starts, its period): a commit
    /// names its last pick by lap index, the dispatcher wants the segment
    /// and its round.
    lap: DenseLap,
}

/// The Tableau scheduler (adapter around [`tableau_core::Dispatcher`]).
pub struct Tableau {
    dispatcher: Dispatcher,
    costs: TableauCosts,
    /// Per-core pick state.
    cores: Vec<CoreSlot>,
    /// Per-vCPU dispatch attribution (grown on demand).
    picks: Vec<PickCounts>,
    /// Per-vCPU blocked flags (grown on demand): a de-schedule of a vCPU
    /// that did *not* block is a preemption, which starts a new waiting
    /// spell for the attached SLA monitor.
    blocked: Vec<bool>,
    /// Core offline/online notifications awaiting a guardian to drain them.
    core_events: Vec<CoreEvent>,
    /// The dispatcher's side of the last dense window (reused buffer; the
    /// simulator's slices are converted from it).
    dense_scratch: Vec<(Option<TcVcpu>, Nanos)>,
}

fn tc(v: VcpuId) -> TcVcpu {
    TcVcpu(v.0)
}

impl Tableau {
    /// Builds the scheduler from a planner output.
    pub fn from_plan(plan: &Plan) -> Tableau {
        Tableau::from_plan_with_costs(plan, TableauCosts::default())
    }

    /// Builds the scheduler with an explicit second-level epoch length
    /// (the fairness/overhead tunable of Sec. 4; ablation knob).
    pub fn from_plan_with_epoch(plan: &Plan, l2_epoch: rtsched::time::Nanos) -> Tableau {
        let table = Arc::new(plan.table.clone());
        Tableau::build(table, &plan.params, TableauCosts::default(), l2_epoch)
    }

    /// Builds the scheduler with an explicit cost model.
    pub fn from_plan_with_costs(plan: &Plan, costs: TableauCosts) -> Tableau {
        let table = Arc::new(plan.table.clone());
        Tableau::build(
            table,
            &plan.params,
            costs,
            tableau_core::level2::DEFAULT_EPOCH,
        )
    }

    /// Builds the scheduler around an already shared table image: the
    /// dispatcher boots on `table` itself, not on a copy, so every host of a
    /// fleet that boots the same plan reads the same bytes. `params` are
    /// the plan's ([`Plan::params`]); only the capped flags are taken.
    pub fn from_shared_table(table: Arc<Table>, params: &[VcpuParams]) -> Tableau {
        Tableau::build(
            table,
            params,
            TableauCosts::default(),
            tableau_core::level2::DEFAULT_EPOCH,
        )
    }

    fn build(
        table: Arc<Table>,
        params: &[VcpuParams],
        costs: TableauCosts,
        l2_epoch: Nanos,
    ) -> Tableau {
        let max_vcpu = params
            .iter()
            .map(|p| p.vcpu.0 as usize)
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        let mut capped = vec![true; max_vcpu];
        for p in params {
            capped[p.vcpu.0 as usize] = p.capped;
        }
        let n_cores = table.n_cores();
        let dispatcher = Dispatcher::new(table, capped, l2_epoch);
        Tableau {
            dispatcher,
            costs,
            cores: vec![CoreSlot::default(); n_cores],
            picks: Vec::new(),
            blocked: Vec::new(),
            core_events: Vec::new(),
            dense_scratch: Vec::new(),
        }
    }

    fn set_blocked(&mut self, vcpu: VcpuId, blocked: bool) {
        let i = vcpu.0 as usize;
        if self.blocked.len() <= i {
            self.blocked.resize(i + 1, false);
        }
        self.blocked[i] = blocked;
    }

    fn is_blocked(&self, vcpu: VcpuId) -> bool {
        self.blocked.get(vcpu.0 as usize).copied().unwrap_or(false)
    }

    /// Dispatch attribution for `vcpu` (zeroes if it never ran).
    pub fn pick_counts(&self, vcpu: VcpuId) -> PickCounts {
        self.picks.get(vcpu.0 as usize).copied().unwrap_or_default()
    }

    /// Installs a replacement table (planner push); returns the switch time.
    ///
    /// # Errors
    ///
    /// The typed install errors of the two-phase protocol (length or core
    /// count drifted, or another install is already staged); the running
    /// table is untouched on rejection.
    pub fn install_table(
        &mut self,
        table: impl Into<Arc<Table>>,
        now: Nanos,
    ) -> Result<Nanos, tableau_core::InstallError> {
        self.dispatcher.install_table(table, now)
    }

    /// Access to the underlying dispatcher (diagnostics/tests).
    pub fn dispatcher(&self) -> &Dispatcher {
        &self.dispatcher
    }

    /// Mutable access to the underlying dispatcher (control loops: attach
    /// an SLA monitor, drive table installs and quarantine).
    pub fn dispatcher_mut(&mut self) -> &mut Dispatcher {
        &mut self.dispatcher
    }

    /// Takes the core offline/online events recorded since the last drain
    /// (for a guardian control loop).
    pub fn drain_core_events(&mut self) -> Vec<CoreEvent> {
        std::mem::take(&mut self.core_events)
    }
}

impl VmScheduler for Tableau {
    fn name(&self) -> &'static str {
        "tableau"
    }

    fn register_vcpu(&mut self, _vcpu: VcpuId, _home: usize) {
        // Placement is entirely table-driven; nothing to do.
    }

    fn schedule(&mut self, core: usize, now: Nanos, view: VcpuView<'_>) -> (SchedDecision, Nanos) {
        let decision = self
            .dispatcher
            .decide(core, now, |v| view.is_runnable(VcpuId(v.0)));
        let cost = self.costs.schedule_base;
        match decision {
            Decision::Run {
                vcpu,
                until,
                level2,
            } => {
                let v = VcpuId(vcpu.0);
                self.cores[core].last_pick = Some((v, level2));
                self.cores[core].stolen_in_pick = Nanos::ZERO;
                let idx = v.0 as usize;
                if self.picks.len() <= idx {
                    self.picks.resize_with(idx + 1, PickCounts::default);
                }
                if level2 {
                    self.picks[idx].level2 += 1;
                } else {
                    self.picks[idx].level1 += 1;
                }
                (SchedDecision::run(v, until), cost)
            }
            Decision::Idle { until } => {
                self.cores[core].last_pick = None;
                self.cores[core].stolen_in_pick = Nanos::ZERO;
                (SchedDecision::idle(until), cost)
            }
        }
    }

    fn on_wakeup(&mut self, vcpu: VcpuId, now: Nanos, _view: VcpuView<'_>) -> WakeupPlan {
        self.set_blocked(vcpu, false);
        if let Some(m) = self.dispatcher.sla_monitor_mut() {
            m.note_runnable(tc(vcpu), now);
        }
        let target = self.dispatcher.wakeup_target(tc(vcpu), now);
        WakeupPlan {
            ipi_cores: target.into(),
            cost: self.costs.wakeup_base,
        }
    }

    fn on_block(&mut self, vcpu: VcpuId, _core: usize, now: Nanos) {
        self.set_blocked(vcpu, true);
        if let Some(m) = self.dispatcher.sla_monitor_mut() {
            m.note_blocked(tc(vcpu), now);
        }
    }

    fn on_stolen(&mut self, core: usize, victim: Option<VcpuId>, duration: Nanos, _now: Nanos) {
        // Graceful degradation under platform interference: theft during a
        // second-level pick is charged to that pick's budget *immediately*,
        // so the fair-share rotation reacts within the same epoch instead of
        // at the next de-schedule, and the interference stays billed to the
        // slot that suffered it. Theft during a first-level (table) pick or
        // an idle core needs no action here: the table's reservations are
        // per-slot by construction, so the loss is already confined to the
        // slot's owner via the wall-clock accounting.
        let Some((picked, level2)) = self.cores[core].last_pick else {
            return;
        };
        if victim == Some(picked) && level2 {
            self.dispatcher.charge_level2(core, tc(picked), duration);
            self.cores[core].stolen_in_pick += duration;
        }
    }

    fn on_descheduled(
        &mut self,
        vcpu: VcpuId,
        core: usize,
        ran: Nanos,
        now: Nanos,
    ) -> DeschedulePlan {
        // Charge second-level budgets for time consumed at level 2. Stolen
        // time was already charged eagerly by `on_stolen`; subtract it so
        // the wall-clock `ran` (which includes it) is not billed twice.
        if let Some((v, level2)) = self.cores[core].last_pick {
            if v == vcpu && level2 {
                let already = self.cores[core].stolen_in_pick;
                self.dispatcher
                    .charge_level2(core, tc(vcpu), ran.saturating_sub(already));
            }
        }
        self.cores[core].last_pick = None;
        self.cores[core].stolen_in_pick = Nanos::ZERO;
        // A de-schedule without a preceding block is a preemption: the vCPU
        // is runnable again and its wait for the next dispatch starts now.
        if !self.is_blocked(vcpu) {
            if let Some(m) = self.dispatcher.sla_monitor_mut() {
                m.note_runnable(tc(vcpu), now);
            }
        }
        let handoff = self.dispatcher.on_descheduled(tc(vcpu), core);
        let mut cost = self.costs.deschedule_base;
        if handoff.is_some() {
            cost += self.costs.handoff_ipi;
        }
        DeschedulePlan {
            ipi_cores: handoff.into(),
            cost,
        }
    }

    fn dense_capable(&self) -> bool {
        true
    }

    fn dense_window(
        &mut self,
        core: usize,
        from: Nanos,
        view: VcpuView<'_>,
        out: &mut Vec<DenseSlice>,
    ) -> Option<DenseWindow> {
        // The dispatcher enforces the equivalence guards (nothing staged,
        // empty second level, no monitor, no pending hand-offs) and bounds
        // the window at the next table switch and at the first slot of a
        // reservation that is not single-homed. No
        // adapter-side guard is needed on top: with an empty second level a
        // stale `last_pick` level-2 charge at the first in-batch de-schedule
        // would be a no-op anyway.
        let lap = self.dispatcher.dense_plan(
            core,
            from,
            |v| view.is_runnable(VcpuId(v.0)),
            &mut self.dense_scratch,
        )?;
        self.cores[core].lap = lap;
        out.extend(self.dense_scratch.iter().map(|&(vcpu, until)| DenseSlice {
            vcpu: vcpu.map(|v| VcpuId(v.0)),
            until,
        }));
        Some(DenseWindow {
            costs: DenseCosts {
                schedule: self.costs.schedule_base,
                deschedule: self.costs.deschedule_base,
            },
            period: lap.period,
            valid_before: lap.valid_before,
            uncertified_from: lap.uncertified_from,
        })
    }

    fn dense_commit(&mut self, core: usize, lap: &[DenseSlice], picks: DensePicks, running: bool) {
        // Every pick with a vCPU was a first-level (table) pick; idle
        // slices charge nothing. The final pick (if still dispatched)
        // becomes the live `last_pick`, exactly as the last generic
        // `schedule` call would have left it.
        for (i, times) in picks.per_slice(lap.len()) {
            let Some(v) = lap[i].vcpu else { continue };
            let idx = v.0 as usize;
            if self.picks.len() <= idx {
                self.picks.resize_with(idx + 1, PickCounts::default);
            }
            self.picks[idx].level1 += times;
        }
        let last = if running { lap[picks.last].vcpu } else { None };
        debug_assert!(
            !running || last.is_some(),
            "running window must end in a pick"
        );
        let slot = &mut self.cores[core];
        slot.last_pick = last.map(|v| (v, false));
        slot.stolen_in_pick = Nanos::ZERO;
        // The last pick's slice is some whole laps after its first-lap self,
        // whose round is the lap's first or, past the table's last segment,
        // the next.
        let start = slot.lap;
        let seg = start.first_seg + picks.last;
        let (seg, round) = if seg < lap.len() {
            (seg, start.round_base)
        } else {
            (seg - lap.len(), start.round_base + start.period)
        };
        let round_base = round + (picks.until - lap[picks.last].until);
        self.dispatcher
            .dense_commit(core, picks.at, seg, round_base, last.map(tc));
    }

    fn on_core_offline(&mut self, core: usize, now: Nanos) {
        self.core_events.push(CoreEvent::Offline { core, at: now });
    }

    fn on_core_online(&mut self, core: usize, now: Nanos) {
        self.core_events.push(CoreEvent::Online { core, at: now });
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsched::time::Nanos;
    use tableau_core::planner::{plan, PlannerOptions};
    use tableau_core::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};
    use xensim::sched::BusyLoop;
    use xensim::{Machine, Sim};

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    /// Paper-style host: `vms_per_core` single-vCPU VMs per core with 25%
    /// reservations and a 20 ms latency goal.
    fn paper_plan(cores: usize, vms_per_core: usize, capped: bool) -> Plan {
        let mut host = HostConfig::new(cores);
        let u = Utilization::from_percent((100 / vms_per_core) as u32);
        let spec = if capped {
            VcpuSpec::capped(u, ms(20))
        } else {
            VcpuSpec::new(u, ms(20))
        };
        for i in 0..cores * vms_per_core {
            host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
        }
        plan(&host, &PlannerOptions::default()).unwrap()
    }

    #[test]
    fn capped_vcpus_get_exactly_their_reservation() {
        let p = paper_plan(1, 4, true);
        let machine = Machine::small(1);
        let mut sim = Sim::new(machine, Box::new(Tableau::from_plan(&p)));
        let vs: Vec<_> = (0..4)
            .map(|_| sim.add_vcpu(Box::new(BusyLoop), 0, true))
            .collect();
        sim.run_until(Nanos::from_secs(1));
        for &v in &vs {
            let s = sim.stats().vcpu(v).service;
            // 25% +- overheads/rounding.
            assert!(s > Nanos::from_millis(235), "vCPU {v} got {s}");
            assert!(s < Nanos::from_millis(255), "vCPU {v} got {s}");
        }
    }

    #[test]
    fn scheduling_delay_stays_within_latency_goal() {
        let p = paper_plan(1, 4, true);
        let machine = Machine::small(1);
        let mut sim = Sim::new(machine, Box::new(Tableau::from_plan(&p)));
        let vs: Vec<_> = (0..4)
            .map(|_| sim.add_vcpu(Box::new(BusyLoop), 0, true))
            .collect();
        sim.run_until(Nanos::from_secs(2));
        for &v in &vs {
            let d = sim.stats().vcpu(v).delay_max;
            assert!(d <= ms(20), "vCPU {v} delay {d} exceeds the 20 ms goal");
        }
    }

    #[test]
    fn uncapped_vcpu_consumes_idle_cycles_via_level2() {
        // One uncapped busy vCPU among three idle ones: the table gives it
        // 25%, the second level hands it the rest of the core.
        let p = paper_plan(1, 4, false);
        let machine = Machine::small(1);
        let mut sim = Sim::new(machine, Box::new(Tableau::from_plan(&p)));
        let a = sim.add_vcpu(Box::new(BusyLoop), 0, true);
        for _ in 0..3 {
            sim.add_vcpu(Box::new(xensim::sched::IdleGuest), 0, false);
        }
        sim.run_until(Nanos::from_secs(1));
        let s = sim.stats().vcpu(a).service;
        assert!(s > Nanos::from_millis(900), "level 2 unused: {s}");
    }

    #[test]
    fn work_conservation_shares_idle_time_round_robin() {
        // Two uncapped busy vCPUs + two idle: each busy one gets its 25%
        // plus half the remaining 50%.
        let p = paper_plan(1, 4, false);
        let machine = Machine::small(1);
        let mut sim = Sim::new(machine, Box::new(Tableau::from_plan(&p)));
        let a = sim.add_vcpu(Box::new(BusyLoop), 0, true);
        let b = sim.add_vcpu(Box::new(BusyLoop), 0, true);
        for _ in 0..2 {
            sim.add_vcpu(Box::new(xensim::sched::IdleGuest), 0, false);
        }
        sim.run_until(Nanos::from_secs(1));
        let (sa, sb) = (sim.stats().vcpu(a).service, sim.stats().vcpu(b).service);
        assert!(sa + sb > Nanos::from_millis(930), "{sa} + {sb}");
        let ratio = sa.as_nanos() as f64 / sb.as_nanos() as f64;
        assert!((0.8..1.25).contains(&ratio), "uneven: {sa} vs {sb}");
    }

    #[test]
    fn level2_dominates_vantage_dispatches_when_uncapped_and_hungry() {
        // Sec. 7.4: at rates above the table reservation, "over 85% of the
        // scheduling decisions resulting in the vantage VM's execution were
        // made by the level-2 round-robin scheduler". A hungry uncapped VM
        // among idle peers reproduces the extreme of that effect: its own
        // slot yields a handful of L1 picks per round, while every blocked
        // peer's slot and idle gap yields an L2 pick.
        let p = paper_plan(1, 4, false);
        let machine = Machine::small(1);
        let mut sim = Sim::new(machine, Box::new(Tableau::from_plan(&p)));
        let a = sim.add_vcpu(Box::new(BusyLoop), 0, true);
        for _ in 0..3 {
            sim.add_vcpu(Box::new(xensim::sched::IdleGuest), 0, false);
        }
        sim.run_until(Nanos::from_secs(1));
        let t = sim
            .scheduler_mut()
            .as_any()
            .downcast_mut::<Tableau>()
            .unwrap();
        let counts = t.pick_counts(a);
        assert!(counts.level1 > 0 && counts.level2 > 0, "{counts:?}");
        assert!(
            counts.level2_fraction() > 0.5,
            "level 2 should dominate: {counts:?}"
        );
    }

    #[test]
    fn capped_vcpus_are_never_picked_by_level2() {
        let p = paper_plan(1, 4, true);
        let machine = Machine::small(1);
        let mut sim = Sim::new(machine, Box::new(Tableau::from_plan(&p)));
        let a = sim.add_vcpu(Box::new(BusyLoop), 0, true);
        for _ in 0..3 {
            sim.add_vcpu(Box::new(xensim::sched::IdleGuest), 0, false);
        }
        sim.run_until(Nanos::from_secs(1));
        let t = sim
            .scheduler_mut()
            .as_any()
            .downcast_mut::<Tableau>()
            .unwrap();
        let counts = t.pick_counts(a);
        assert_eq!(counts.level2, 0, "{counts:?}");
        assert!(counts.level1 > 50);
    }

    #[test]
    fn stolen_time_on_one_core_does_not_leak_to_other_cores() {
        // Nonzero stolen time on core 0 must cost vCPUs homed on core 1
        // nothing: no extra scheduling delay, no SLA violations. This is the
        // tentpole isolation property — interference is charged to the
        // offending slot, not spread across the host.
        use xensim::fault::{FaultConfig, StolenFaults};
        let p = paper_plan(2, 4, true);
        let core1_vcpus: Vec<u32> = (0..8u32)
            .filter(|&v| {
                p.table
                    .placement(tableau_core::vcpu::VcpuId(v))
                    .is_some_and(|pl| pl.only_on(1))
            })
            .collect();
        assert!(!core1_vcpus.is_empty(), "no vCPU fully homed on core 1");

        let run = |faulty: bool| {
            let mut sim = Sim::new(Machine::small(2), Box::new(Tableau::from_plan(&p)));
            if faulty {
                sim.set_fault_config(FaultConfig {
                    stolen: StolenFaults {
                        cores: vec![0],
                        interval: ms(5),
                        duration: Nanos::from_micros(500),
                    },
                    ..FaultConfig::none()
                });
            }
            for _ in 0..8 {
                sim.add_vcpu(Box::new(BusyLoop), 0, true);
            }
            sim.run_until(Nanos::from_secs(2));
            sim
        };
        let clean = run(false);
        let faulty = run(true);
        assert!(faulty.stats().stolen_time[0] > ms(50));
        assert_eq!(faulty.stats().stolen_time[1], Nanos::ZERO);
        for &v in &core1_vcpus {
            let v = VcpuId(v);
            assert_eq!(
                faulty.stats().vcpu(v).delay_max,
                clean.stats().vcpu(v).delay_max,
                "theft on core 0 changed {v}'s delay on core 1"
            );
            assert!(faulty.stats().vcpu(v).delay_max <= ms(20));
            assert_eq!(
                faulty.stats().vcpu(v).service,
                clean.stats().vcpu(v).service
            );
        }
    }

    #[test]
    fn stolen_time_is_billed_to_the_victim_slot_only() {
        // One core, four capped 25% VMs: theft on the core reduces the
        // victims' service, but every vCPU still meets its latency goal —
        // the table structure confines the loss to the slot in progress.
        use xensim::fault::{FaultConfig, StolenFaults};
        let p = paper_plan(1, 4, true);
        let mut sim = Sim::new(Machine::small(1), Box::new(Tableau::from_plan(&p)));
        sim.set_fault_config(FaultConfig {
            stolen: StolenFaults {
                cores: vec![0],
                interval: ms(10),
                duration: Nanos::from_micros(300),
            },
            ..FaultConfig::none()
        });
        let vs: Vec<_> = (0..4)
            .map(|_| sim.add_vcpu(Box::new(BusyLoop), 0, true))
            .collect();
        sim.run_until(Nanos::from_secs(2));
        assert!(sim.stats().stolen_time[0] > Nanos::ZERO);
        for &v in &vs {
            let st = sim.stats().vcpu(v);
            // ~500 ms fair share, minus a bounded interference share.
            assert!(st.service > Nanos::from_millis(440), "{v}: {}", st.service);
            assert!(st.delay_max <= ms(21), "{v}: {}", st.delay_max);
        }
    }

    #[test]
    fn level2_stays_fair_under_theft() {
        // Two uncapped busy vCPUs sharing idle cycles while the core suffers
        // theft: the eager level-2 charging keeps the split fair.
        use xensim::fault::{FaultConfig, StolenFaults};
        let p = paper_plan(1, 4, false);
        let mut sim = Sim::new(Machine::small(1), Box::new(Tableau::from_plan(&p)));
        sim.set_fault_config(FaultConfig {
            stolen: StolenFaults {
                cores: vec![0],
                interval: ms(3),
                duration: Nanos::from_micros(400),
            },
            ..FaultConfig::none()
        });
        let a = sim.add_vcpu(Box::new(BusyLoop), 0, true);
        let b = sim.add_vcpu(Box::new(BusyLoop), 0, true);
        for _ in 0..2 {
            sim.add_vcpu(Box::new(xensim::sched::IdleGuest), 0, false);
        }
        sim.run_until(Nanos::from_secs(1));
        let (sa, sb) = (sim.stats().vcpu(a).service, sim.stats().vcpu(b).service);
        let ratio = sa.as_nanos() as f64 / sb.as_nanos() as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "uneven under theft: {sa} vs {sb}"
        );
    }

    #[test]
    fn interrupted_table_switch_rolls_back() {
        let p = paper_plan(1, 4, true);
        let mut t = Tableau::from_plan(&p);
        let replacement = p.table.clone();
        // Interrupted push: rolled back, old table untouched.
        let d = t.dispatcher_mut();
        let out = d
            .try_table_switch(replacement.clone(), ms(1), true)
            .unwrap();
        assert_eq!(out, None);
        assert!(!d.has_staged_table());
        // Clean push afterwards commits normally.
        let out = d.try_table_switch(replacement, ms(2), false).unwrap();
        assert!(out.is_some());
    }

    #[test]
    fn delta_spliced_table_installs_and_serves_the_new_vcpu() {
        // Churn hot path, end to end: plan a host, grow it by one VM with
        // the first plan as the donor, push the spliced table through the
        // two-phase install, and check the new vCPU starts drawing its
        // reservation after the switch while the incumbent vCPUs keep
        // theirs throughout.
        let opts = PlannerOptions::default();
        let spec = VcpuSpec::capped(Utilization::from_percent(25), ms(20));
        let mut prev_host = HostConfig::new(2);
        for i in 0..6 {
            prev_host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
        }
        let prev = plan(&prev_host, &opts).unwrap();
        let mut host = prev_host.clone();
        host.add_vm(VmSpec::uniform("vm6", 1, spec));
        let out = tableau_core::plan_with_fallback(Some((&prev_host, &prev)), &host, &opts)
            .expect("one more 25 % VM fits");
        let (delta, report) = (out.plan, out.delta.expect("the first plan donates"));
        assert_eq!(report.dirty_cores.len(), 1, "{report:?}");
        assert_eq!(report.clean_cores.len(), 1, "{report:?}");

        let new_home = delta
            .table
            .placement(TcVcpu(6))
            .expect("new vCPU has slots in the delta table")
            .home_core;
        let machine = Machine::small(2);
        let mut sim = Sim::new(machine, Box::new(Tableau::from_plan(&prev)));
        let mut vs = Vec::new();
        for i in 0..6 {
            let home = prev.table.placement(TcVcpu(i)).unwrap().home_core;
            vs.push(sim.add_vcpu(Box::new(BusyLoop), home, true));
        }
        // The newcomer is runnable from t=0 but has no slots in the old
        // table (and defaults to capped), so it idles until the switch.
        let newcomer = sim.add_vcpu(Box::new(BusyLoop), new_home, true);
        let switch_at = sim
            .scheduler_mut()
            .as_any()
            .downcast_mut::<Tableau>()
            .unwrap()
            .dispatcher_mut()
            .try_table_switch(delta.table.clone(), ms(1), false)
            .unwrap()
            .expect("clean push commits");
        sim.run_until(Nanos::from_secs(1));

        // Incumbents: 25% of the full second, same as without the switch.
        for &v in &vs {
            let s = sim.stats().vcpu(v).service;
            assert!(s > Nanos::from_millis(235), "vCPU {v} got {s}");
            assert!(s < Nanos::from_millis(255), "vCPU {v} got {s}");
        }
        // Newcomer: ~25% of the post-switch window only.
        let window = Nanos::from_secs(1).as_nanos() - switch_at.as_nanos();
        let s = sim.stats().vcpu(newcomer).service.as_nanos();
        assert!(
            s * 5 > window,
            "newcomer got {s} ns of a {window} ns post-switch window"
        );
        assert!(
            s < window / 4 + Nanos::from_millis(10).as_nanos(),
            "newcomer over-served: {s} ns of {window} ns"
        );
    }

    #[test]
    fn multicore_paper_shape() {
        // 2 cores, 4 capped VMs each: every vCPU gets 25% of its core and
        // stays within its latency goal.
        let p = paper_plan(2, 4, true);
        let machine = Machine::small(2);
        let mut sim = Sim::new(machine, Box::new(Tableau::from_plan(&p)));
        let vs: Vec<_> = (0..8)
            .map(|i| sim.add_vcpu(Box::new(BusyLoop), i % 2, true))
            .collect();
        sim.run_until(Nanos::from_secs(1));
        for &v in &vs {
            let st = sim.stats().vcpu(v);
            assert!(st.service > Nanos::from_millis(235), "{v}: {}", st.service);
            assert!(st.delay_max <= ms(20), "{v}: {}", st.delay_max);
        }
    }
}
