//! The runtime SLA guardian: online violation detection and self-healing.
//!
//! Tableau's contract is *static*: the planner proves every capped vCPU a
//! worst-case scheduling blackout of `2·(1−U)·T ≤ L` and the dispatcher is
//! too simple to break it. The guardian closes the loop at *runtime*, for
//! the faults the proof does not cover — a core dropping out of service, a
//! table push that keeps getting interrupted, a guest that persistently
//! overruns its declared demand:
//!
//! * [`SlaMonitor`] rides the dispatch path and measures each vCPU's
//!   observed scheduling latency against its declared bound `L`, raising
//!   typed [`SlaViolation`] events (including for vCPUs still waiting —
//!   a vCPU stranded on an offline core must not need a dispatch to be
//!   noticed).
//! * [`Guardian`] consumes violations, core-loss events and overrun
//!   counters and drives recovery: it **evacuates** vCPUs from offline
//!   cores by replanning onto the surviving cores (down the
//!   [`plan_with_fallback`] ladder), installs the new table with the
//!   two-phase protocol and **bounded exponential backoff** on interrupted
//!   pushes ([`RetryPolicy`], the one backoff the fleet uses too),
//!   **audits** the installed table against the facts taken at install,
//!   and **quarantines** persistent overrunners by demoting them in the
//!   level-2 fair-share scheduler.
//!
//! Every action is recorded as a [`RecoveryRecord`] with provenance (which
//! ladder rung produced the installed plan, how many install attempts it
//! took), so experiment artifacts can distinguish degraded runs.

use rtsched::time::Nanos;
use serde::{Deserialize, Serialize};

use crate::audit::{AuditViolation, TableFacts};
use crate::dispatch::Dispatcher;
use crate::planner::{plan_with_fallback, Plan, PlannerOptions, ReplanPath};
use crate::table::Table;
use crate::vcpu::{HostConfig, VcpuId};

/// A capped vCPU's observed scheduling latency exceeded its declared bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlaViolation {
    /// The affected vCPU.
    pub vcpu: VcpuId,
    /// The observed runnable-to-dispatch latency.
    pub observed: Nanos,
    /// The vCPU's declared latency bound `L`.
    pub bound: Nanos,
    /// When the violation was detected.
    pub at: Nanos,
}

/// Per-vCPU blackout monitor on the dispatch path.
///
/// Fed by the scheduler adapter (`note_runnable` / `note_blocked`) and the
/// dispatcher (`note_dispatched`); a control loop calls
/// [`SlaMonitor::scan_overdue`] periodically so that a vCPU *stuck* waiting
/// (e.g. homed on an offline core) is reported without ever being
/// dispatched. Each waiting spell reports at most one violation.
#[derive(Debug, Clone, Default)]
pub struct SlaMonitor {
    /// Declared latency bound per vCPU id (`None` = unmonitored).
    bounds: Vec<Option<Nanos>>,
    /// When each vCPU last became runnable without being dispatched yet.
    runnable_since: Vec<Option<Nanos>>,
    /// Whether the current waiting spell already reported a violation.
    flagged: Vec<bool>,
    /// Worst observed runnable-to-dispatch latency per vCPU.
    worst: Vec<Nanos>,
    pending: Vec<SlaViolation>,
    seen: u64,
}

impl SlaMonitor {
    /// Creates a monitor for the given `(vcpu, latency bound)` pairs.
    pub fn new(bounds: Vec<(VcpuId, Nanos)>) -> SlaMonitor {
        let mut m = SlaMonitor::default();
        for (v, b) in bounds {
            let i = m.slot(v);
            m.bounds[i] = Some(b);
        }
        m
    }

    /// Creates a monitor covering every vCPU of `host`, bounded by its
    /// declared latency goal.
    pub fn from_host(host: &HostConfig) -> SlaMonitor {
        SlaMonitor::new(
            host.vcpus()
                .into_iter()
                .map(|(v, spec)| (v, spec.latency))
                .collect(),
        )
    }

    fn slot(&mut self, vcpu: VcpuId) -> usize {
        let i = vcpu.0 as usize;
        if self.bounds.len() <= i {
            self.bounds.resize(i + 1, None);
            self.runnable_since.resize(i + 1, None);
            self.flagged.resize(i + 1, false);
            self.worst.resize(i + 1, Nanos::ZERO);
        }
        i
    }

    /// Worst observed runnable-to-dispatch latency of `vcpu` so far.
    pub fn worst_of(&self, vcpu: VcpuId) -> Nanos {
        self.worst
            .get(vcpu.0 as usize)
            .copied()
            .unwrap_or(Nanos::ZERO)
    }

    /// Total violations raised since creation.
    pub fn violations_seen(&self) -> u64 {
        self.seen
    }

    /// `vcpu` became runnable at `now` (wake-up or preemption). Idempotent
    /// within one waiting spell: the earliest timestamp wins.
    pub fn note_runnable(&mut self, vcpu: VcpuId, now: Nanos) {
        let i = self.slot(vcpu);
        if self.runnable_since[i].is_none() {
            self.runnable_since[i] = Some(now);
            self.flagged[i] = false;
        }
    }

    /// `vcpu` blocked voluntarily; the waiting spell (if any) is abandoned.
    pub fn note_blocked(&mut self, vcpu: VcpuId, now: Nanos) {
        let _ = now;
        let i = self.slot(vcpu);
        self.runnable_since[i] = None;
        self.flagged[i] = false;
    }

    /// `vcpu` was dispatched at `now`; closes the waiting spell and raises
    /// a violation if the delay exceeded the bound (unless
    /// [`SlaMonitor::scan_overdue`] already reported this spell).
    pub fn note_dispatched(&mut self, vcpu: VcpuId, now: Nanos) {
        let i = self.slot(vcpu);
        if let Some(since) = self.runnable_since[i].take() {
            let delay = now.saturating_sub(since);
            if delay > self.worst[i] {
                self.worst[i] = delay;
            }
            if !self.flagged[i] {
                if let Some(bound) = self.bounds[i] {
                    if delay > bound {
                        self.seen += 1;
                        self.pending.push(SlaViolation {
                            vcpu,
                            observed: delay,
                            bound,
                            at: now,
                        });
                    }
                }
            }
            self.flagged[i] = false;
        }
    }

    /// Reports vCPUs that have been waiting past their bound without being
    /// dispatched (at most once per waiting spell).
    pub fn scan_overdue(&mut self, now: Nanos) {
        for i in 0..self.runnable_since.len() {
            let (Some(since), Some(bound), false) =
                (self.runnable_since[i], self.bounds[i], self.flagged[i])
            else {
                continue;
            };
            let waited = now.saturating_sub(since);
            if waited > bound {
                self.flagged[i] = true;
                if waited > self.worst[i] {
                    self.worst[i] = waited;
                }
                self.seen += 1;
                self.pending.push(SlaViolation {
                    vcpu: VcpuId(i as u32),
                    observed: waited,
                    bound,
                    at: now,
                });
            }
        }
    }

    /// Takes all violations raised since the last drain.
    pub fn drain_violations(&mut self) -> Vec<SlaViolation> {
        std::mem::take(&mut self.pending)
    }
}

/// A core dropped out of, or returned to, service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreEvent {
    /// `core` stopped executing at `at`.
    Offline {
        /// The lost core.
        core: usize,
        /// When it was lost.
        at: Nanos,
    },
    /// `core` resumed executing at `at`.
    Online {
        /// The recovered core.
        core: usize,
        /// When it returned.
        at: Nanos,
    },
}

/// Bounded exponential retry: retry `attempt` waits `base · 2^(attempt−1)`,
/// never more than `cap`, and `budget` retries are allowed before the
/// caller's own exhaustion action (the guardian re-arms its install, the
/// fleet pins installs at the cap and parks evacuations).
///
/// # Examples
///
/// ```
/// use rtsched::time::Nanos;
/// use tableau_core::RetryPolicy;
///
/// let ms = Nanos::from_millis;
/// let retry = RetryPolicy { base: ms(1), cap: ms(100), budget: 5 };
/// assert_eq!(retry.delay(3), ms(4));
/// assert_eq!(retry.delay(u32::MAX), ms(100));
/// // Doubling never stops short of the cap: 1 ms doubled 29 times is
/// // past an hour.
/// let hour = Nanos::from_secs(3600);
/// assert_eq!(RetryPolicy { cap: hour, ..retry }.delay(30), hour);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First retry delay; doubles per attempt.
    pub base: Nanos,
    /// Retry delay ceiling.
    pub cap: Nanos,
    /// Retries allowed before the budget is exhausted.
    pub budget: u32,
}

impl RetryPolicy {
    /// The delay before retry `attempt` (1-based; 0 counts as 1):
    /// `min(cap, base · 2^(attempt−1))`, exact for every `u32` attempt.
    pub fn delay(&self, attempt: u32) -> Nanos {
        // A 64-bit shift already lifts any nonzero base past every cap, so
        // the exponent saturates there and the product is exact in u128.
        let doubled = u128::from(self.base.0) << attempt.saturating_sub(1).min(64);
        Nanos(doubled.min(u128::from(self.cap.0)) as u64)
    }
}

/// Backoff between interrupted install attempts. Once the budget runs out
/// the same install is re-armed with a fresh budget.
const INSTALL_RETRY: RetryPolicy = RetryPolicy {
    base: Nanos::from_millis(1),
    cap: Nanos::from_millis(100),
    budget: 5,
};

/// Quarantine an uncapped guest once its cumulative overrun count reaches
/// this threshold.
const QUARANTINE_OVERRUNS: u64 = 50;

/// Continuous-audit cadence: the whole live table is compared with the
/// install-time facts at most once per this much time. Low by design — the
/// audit guards against corruption of an *installed* table, which has no
/// deadline, so it must never compete with the dispatch path.
const AUDIT_INTERVAL: Nanos = Nanos::from_millis(100);

/// One recovery action taken by the guardian, for provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RecoveryAction {
    /// The monitor reported a blackout past a vCPU's bound.
    ViolationObserved {
        /// The affected vCPU.
        vcpu: VcpuId,
        /// Observed latency.
        observed: Nanos,
        /// Declared bound.
        bound: Nanos,
    },
    /// A core dropped out of service.
    CoreLost {
        /// The lost core.
        core: usize,
    },
    /// An offline core returned to service.
    CoreRestored {
        /// The recovered core.
        core: usize,
    },
    /// The planning ladder produced an evacuation/restore plan.
    Replanned {
        /// Ladder rung that produced the plan ([`ReplanPath::label`]).
        path: String,
        /// Cores the plan targets.
        online_cores: usize,
        /// Rungs that failed before this one.
        fallback_attempts: usize,
    },
    /// Every rung of the planning ladder failed; retried on the next
    /// core-set change.
    ReplanFailed {
        /// The per-rung diagnostic trail.
        error: String,
    },
    /// A two-phase install was interrupted and rolled back; the dispatcher
    /// stays on the old table until the retry.
    InstallRetried {
        /// 1-based attempt number.
        attempt: u32,
        /// Earliest time of the next attempt (exponential backoff).
        next_try: Nanos,
    },
    /// The retry budget ran out; the same install is re-armed with a fresh
    /// budget and retried at the next step (the ladder would only rebuild
    /// the plan it carries).
    InstallRetriesExhausted {
        /// Attempts made.
        attempts: u32,
    },
    /// The install was rejected outright (e.g. hyperperiod mismatch).
    InstallFailed {
        /// Why.
        error: String,
    },
    /// The staged table was committed; recovery for the triggering event
    /// is complete once every core switches.
    Installed {
        /// Ladder rung of the installed plan.
        path: String,
        /// When every core will have switched.
        switch_at: Nanos,
        /// Interrupted attempts before this one succeeded.
        attempts: u32,
    },
    /// The continuous audit found the installed table diverged from the
    /// facts recorded when it was installed; recovery replans and
    /// reinstalls through the ordinary ladder.
    AuditViolation {
        /// What diverged.
        violation: AuditViolation,
    },
    /// A persistently overrunning guest was demoted at the second level.
    Quarantined {
        /// The demoted vCPU.
        vcpu: VcpuId,
        /// Its cumulative overrun count at demotion time.
        overruns: u64,
    },
}

/// A timestamped [`RecoveryAction`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryRecord {
    /// When the action was taken.
    pub at: Nanos,
    /// What was done.
    pub action: RecoveryAction,
}

/// Aggregate recovery counters of one guardian.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuardianCounters {
    /// SLA violations consumed from the monitor.
    pub violations_seen: u64,
    /// Evacuation/restore replans that produced an installable plan.
    pub evacuations: u64,
    /// Interrupted installs that were rolled back and retried.
    pub install_retries: u64,
    /// Guests demoted at the second level.
    pub quarantines: u64,
    /// Audits of the installed table (one per `audit_interval`).
    #[serde(default)]
    pub audit_checks: u64,
    /// Audit discrepancies detected (each triggers a replan).
    #[serde(default)]
    pub audit_violations: u64,
}

/// An evacuation/restore plan awaiting a successful two-phase install.
#[derive(Debug, Clone)]
struct PendingInstall {
    host: HostConfig,
    plan: Plan,
    /// The plan's table remapped to the full core width (empty lanes for
    /// offline cores) so it matches the dispatcher's core count.
    table: Table,
    path: ReplanPath,
    attempts: u32,
    next_try: Nanos,
}

/// The self-healing control loop.
///
/// Owns the recovery policy, not the mechanism: the dispatcher keeps making
/// decisions on whatever table is installed; the guardian only ever changes
/// state through the dispatcher's public install/quarantine interfaces. Call
/// [`Guardian::step`] periodically (each control epoch).
#[derive(Debug)]
pub struct Guardian {
    /// The full-width host the deployment was admitted with.
    base_host: HostConfig,
    /// Per-vCPU capped flags of the base host (capped guests are never
    /// quarantined: the table already clamps them).
    capped: Vec<bool>,
    /// The host/plan pair behind the currently installed table (previous
    /// plan for the delta rung of the next replan).
    installed: (HostConfig, Plan),
    offline: Vec<bool>,
    replan_needed: bool,
    pending: Option<PendingInstall>,
    /// Latest cumulative overrun count per vCPU id.
    overruns_seen: Vec<u64>,
    /// Facts of the installed table, the continuous audit's baseline.
    baseline: TableFacts,
    /// Earliest time of the next audit.
    next_audit: Nanos,
    counters: GuardianCounters,
    log: Vec<RecoveryRecord>,
}

impl Guardian {
    /// Creates a guardian for a deployment admitted as `base_host` with
    /// `initial` installed.
    pub fn new(base_host: HostConfig, initial: Plan) -> Guardian {
        let capped = base_host
            .vcpus()
            .into_iter()
            .map(|(_, spec)| spec.capped)
            .collect();
        let baseline = TableFacts::derive(&initial.table);
        Guardian {
            capped,
            installed: (base_host.clone(), initial),
            offline: vec![false; base_host.n_cores],
            base_host,
            replan_needed: false,
            pending: None,
            overruns_seen: Vec::new(),
            baseline,
            next_audit: Nanos::ZERO,
            counters: GuardianCounters::default(),
            log: Vec::new(),
        }
    }

    /// A monitor covering every vCPU of the guarded host.
    pub fn monitor(&self) -> SlaMonitor {
        SlaMonitor::from_host(&self.base_host)
    }

    /// Feeds a core offline/online event. Out-of-range cores are ignored.
    pub fn on_core_event(&mut self, event: CoreEvent) {
        let (core, at, offline) = match event {
            CoreEvent::Offline { core, at } => (core, at, true),
            CoreEvent::Online { core, at } => (core, at, false),
        };
        let Some(flag) = self.offline.get_mut(core) else {
            return;
        };
        if *flag == offline {
            return;
        }
        *flag = offline;
        self.replan_needed = true;
        // A plan built for the previous core set is stale; rebuild.
        self.pending = None;
        self.log.push(RecoveryRecord {
            at,
            action: if offline {
                RecoveryAction::CoreLost { core }
            } else {
                RecoveryAction::CoreRestored { core }
            },
        });
    }

    /// Records `vcpu`'s cumulative overrun count (monotone; from the
    /// hypervisor's per-vCPU statistics). Quarantine is decided at the next
    /// [`Guardian::step`].
    pub fn observe_overruns(&mut self, vcpu: VcpuId, total: u64) {
        let i = vcpu.0 as usize;
        if self.overruns_seen.len() <= i {
            self.overruns_seen.resize(i + 1, 0);
        }
        self.overruns_seen[i] = total;
    }

    /// Runs one control epoch at `now`: drains the monitor, quarantines
    /// persistent overrunners, replans after core-set changes, and drives
    /// any pending install (`install_interrupted` reports whether a push
    /// attempted *this* epoch would be interrupted — in a live system this
    /// is the outcome of the push itself).
    ///
    /// Returns the recovery records produced by this step.
    pub fn step(
        &mut self,
        dispatcher: &mut Dispatcher,
        now: Nanos,
        install_interrupted: bool,
    ) -> Vec<RecoveryRecord> {
        let mark = self.log.len();

        if let Some(m) = dispatcher.sla_monitor_mut() {
            m.scan_overdue(now);
            for v in m.drain_violations() {
                self.counters.violations_seen += 1;
                self.log.push(RecoveryRecord {
                    at: v.at,
                    action: RecoveryAction::ViolationObserved {
                        vcpu: v.vcpu,
                        observed: v.observed,
                        bound: v.bound,
                    },
                });
            }
        }

        // Continuous audit: once per cadence interval, the whole live
        // table's facts against the install-time baseline. Silent when
        // clean; a discrepancy is typed into the log and routed through the
        // ordinary replan ladder (the corrupted copy is replaced by a
        // freshly planned, freshly verified install).
        if now >= self.next_audit {
            self.next_audit = now + AUDIT_INTERVAL;
            self.counters.audit_checks += 1;
            let found = self
                .baseline
                .violations(&TableFacts::derive(dispatcher.newest_table()));
            if !found.is_empty() {
                self.counters.audit_violations += found.len() as u64;
                for violation in found {
                    self.log.push(RecoveryRecord {
                        at: now,
                        action: RecoveryAction::AuditViolation { violation },
                    });
                }
                self.replan_needed = true;
                // The pending install (if any) predates the discrepancy.
                self.pending = None;
            }
        }

        for i in 0..self.overruns_seen.len() {
            let vcpu = VcpuId(i as u32);
            if self.overruns_seen[i] >= QUARANTINE_OVERRUNS
                && !self.capped.get(i).copied().unwrap_or(true)
                && !dispatcher.is_quarantined(vcpu)
            {
                dispatcher.set_quarantined(vcpu, true);
                self.counters.quarantines += 1;
                self.log.push(RecoveryRecord {
                    at: now,
                    action: RecoveryAction::Quarantined {
                        vcpu,
                        overruns: self.overruns_seen[i],
                    },
                });
            }
        }

        if self.replan_needed && self.pending.is_none() {
            self.replan(now);
        }

        if self.pending.as_ref().is_some_and(|p| now >= p.next_try) {
            self.try_install(dispatcher, now, install_interrupted);
        }

        self.log[mark..].to_vec()
    }

    fn replan(&mut self, now: Nanos) {
        self.replan_needed = false;
        let online: Vec<usize> = (0..self.base_host.n_cores)
            .filter(|&c| !self.offline[c])
            .collect();
        if online.is_empty() {
            self.log.push(RecoveryRecord {
                at: now,
                action: RecoveryAction::ReplanFailed {
                    error: "no cores online".to_string(),
                },
            });
            return;
        }
        // Evacuation target: the same guests on the surviving cores. vCPU
        // ids stay dense and identical (same VMs in the same order), so the
        // compact plan's lanes can be remapped onto the full core width.
        let target = HostConfig {
            n_cores: online.len(),
            vms: self.base_host.vms.clone(),
        };
        match plan_with_fallback(
            Some((&self.installed.0, &self.installed.1)),
            &target,
            &PlannerOptions::default(),
        ) {
            Ok(outcome) => {
                match remap_to_width(&outcome.plan.table, &online, self.base_host.n_cores) {
                    Ok(full) => {
                        self.counters.evacuations += 1;
                        self.log.push(RecoveryRecord {
                            at: now,
                            action: RecoveryAction::Replanned {
                                path: outcome.path.label().to_string(),
                                online_cores: online.len(),
                                fallback_attempts: outcome.attempts.len(),
                            },
                        });
                        self.pending = Some(PendingInstall {
                            host: target,
                            plan: outcome.plan,
                            table: full,
                            path: outcome.path,
                            attempts: 0,
                            next_try: now,
                        });
                    }
                    Err(error) => self.log.push(RecoveryRecord {
                        at: now,
                        action: RecoveryAction::ReplanFailed { error },
                    }),
                }
            }
            Err(e) => self.log.push(RecoveryRecord {
                at: now,
                action: RecoveryAction::ReplanFailed {
                    error: e.to_string(),
                },
            }),
        }
    }

    fn try_install(&mut self, dispatcher: &mut Dispatcher, now: Nanos, interrupted: bool) {
        let Some(mut p) = self.pending.take() else {
            return;
        };
        if dispatcher.has_staged_table() {
            // Defensive: never stack on a foreign staged install.
            dispatcher.abort_table_switch();
        }
        match dispatcher.try_table_switch(p.table.clone(), now, interrupted) {
            Ok(Some(switch_at)) => {
                self.log.push(RecoveryRecord {
                    at: now,
                    action: RecoveryAction::Installed {
                        path: p.path.label().to_string(),
                        switch_at,
                        attempts: p.attempts,
                    },
                });
                // Rebase the audit on the table just committed (the
                // full-width remap, which is what the dispatcher now runs).
                self.baseline = TableFacts::derive(&p.table);
                self.installed = (p.host, p.plan);
            }
            Ok(None) => {
                // Torn push: rolled back, the old table keeps running.
                self.counters.install_retries += 1;
                p.attempts += 1;
                if p.attempts > INSTALL_RETRY.budget {
                    self.log.push(RecoveryRecord {
                        at: now,
                        action: RecoveryAction::InstallRetriesExhausted {
                            attempts: p.attempts,
                        },
                    });
                    // Neither the target nor the installed plan changed, so
                    // the ladder would rebuild this very plan: re-arm it.
                    p.attempts = 0;
                    p.next_try = now;
                } else {
                    p.next_try = now + INSTALL_RETRY.delay(p.attempts);
                    self.log.push(RecoveryRecord {
                        at: now,
                        action: RecoveryAction::InstallRetried {
                            attempt: p.attempts,
                            next_try: p.next_try,
                        },
                    });
                }
                self.pending = Some(p);
            }
            Err(e) => {
                self.log.push(RecoveryRecord {
                    at: now,
                    action: RecoveryAction::InstallFailed {
                        error: e.to_string(),
                    },
                });
                self.replan_needed = true;
            }
        }
    }

    /// Aggregate recovery counters.
    pub fn counters(&self) -> GuardianCounters {
        self.counters
    }

    /// Every recovery record since creation, in order.
    pub fn log(&self) -> &[RecoveryRecord] {
        &self.log
    }

    /// The plan behind the currently installed table.
    pub fn installed_plan(&self) -> &Plan {
        &self.installed.1
    }

    /// Cores currently believed online.
    pub fn online_cores(&self) -> usize {
        self.offline.iter().filter(|&&off| !off).count()
    }

    /// Whether an evacuation/restore install is still pending.
    pub fn recovery_pending(&self) -> bool {
        self.pending.is_some() || self.replan_needed
    }
}

/// Remaps a compact `table` (one lane per online core) onto `width` cores,
/// leaving offline cores' lanes empty (a whole-table idle slice).
fn remap_to_width(table: &Table, online: &[usize], width: usize) -> Result<Table, String> {
    let mut per_core = vec![Vec::new(); width];
    for (compact, &full) in online.iter().enumerate() {
        per_core[full] = table.cpu(compact).allocations().collect();
    }
    Table::new(table.len(), per_core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::Decision;
    use crate::level2::DEFAULT_EPOCH;
    use crate::planner::plan;
    use crate::vcpu::{Utilization, VcpuSpec, VmSpec};
    use proptest::prelude::*;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    /// Two cores, four single-vCPU VMs at 25% each: two capped (20 ms
    /// latency goal), two uncapped. One core's worth of load fits on the
    /// survivor when the other core dies.
    fn host() -> HostConfig {
        let mut h = HostConfig::new(2);
        let capped = VcpuSpec::capped(Utilization::from_percent(25), ms(20));
        let uncapped = VcpuSpec::new(Utilization::from_percent(25), ms(20));
        h.add_vm(VmSpec::uniform("c0", 1, capped));
        h.add_vm(VmSpec::uniform("c1", 1, capped));
        h.add_vm(VmSpec::uniform("u0", 1, uncapped));
        h.add_vm(VmSpec::uniform("u1", 1, uncapped));
        h
    }

    fn setup() -> (Guardian, Dispatcher) {
        let h = host();
        let p = plan(&h, &PlannerOptions::default()).unwrap();
        let capped: Vec<bool> = h.vcpus().into_iter().map(|(_, s)| s.capped).collect();
        let mut d = Dispatcher::new(p.table.clone(), capped, DEFAULT_EPOCH);
        let g = Guardian::new(h, p);
        d.attach_sla_monitor(g.monitor());
        (g, d)
    }

    fn find(
        records: &[RecoveryRecord],
        pred: impl Fn(&RecoveryAction) -> bool,
    ) -> Option<&RecoveryRecord> {
        records.iter().find(|r| pred(&r.action))
    }

    #[test]
    fn monitor_reports_once_per_waiting_spell() {
        let mut m = SlaMonitor::new(vec![(VcpuId(0), ms(2))]);
        m.note_runnable(VcpuId(0), ms(0));
        m.scan_overdue(ms(5)); // overdue: flags the spell
        m.scan_overdue(ms(6)); // same spell: no second report
        m.note_dispatched(VcpuId(0), ms(7)); // already flagged: no report
        let v = m.drain_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].observed, ms(5));
        assert_eq!(m.worst_of(VcpuId(0)), ms(7));
        assert_eq!(m.violations_seen(), 1);
        // A fresh spell within bound reports nothing.
        m.note_runnable(VcpuId(0), ms(10));
        m.note_dispatched(VcpuId(0), ms(11));
        assert!(m.drain_violations().is_empty());
    }

    #[test]
    fn monitor_ignores_unbounded_and_blocked_vcpus() {
        let mut m = SlaMonitor::new(vec![(VcpuId(0), ms(2))]);
        // vCPU 9 has no declared bound: tracked for worst-case only.
        m.note_runnable(VcpuId(9), ms(0));
        m.note_dispatched(VcpuId(9), ms(50));
        assert_eq!(m.worst_of(VcpuId(9)), ms(50));
        // Blocking abandons the spell.
        m.note_runnable(VcpuId(0), ms(0));
        m.note_blocked(VcpuId(0), ms(1));
        m.scan_overdue(ms(100));
        assert!(m.drain_violations().is_empty());
    }

    #[test]
    fn core_loss_evacuates_onto_survivor() {
        let (mut g, mut d) = setup();
        g.on_core_event(CoreEvent::Offline { core: 1, at: ms(1) });
        assert_eq!(g.online_cores(), 1);
        assert!(find(g.log(), |a| matches!(
            a,
            RecoveryAction::CoreLost { core: 1 }
        ))
        .is_some());
        let records = g.step(&mut d, ms(1), false);
        let installed = find(&records, |a| matches!(a, RecoveryAction::Installed { .. }))
            .expect("evacuation plan installed");
        let RecoveryAction::Installed { switch_at, .. } = installed.action else {
            unreachable!()
        };
        assert_eq!(g.counters().evacuations, 1);
        assert!(!g.recovery_pending());
        // After the switch the lost core's lane is empty: it idles for the
        // whole table round while the survivor serves all four vCPUs.
        let dec = d.decide(1, switch_at, |_| true);
        assert!(matches!(dec, Decision::Idle { .. }));
        let len = g.installed_plan().table.len();
        let mut served = std::collections::BTreeSet::new();
        let mut t = switch_at;
        while t < switch_at + len {
            let dec = d.decide(0, t, |_| true);
            if let Some(v) = dec.vcpu() {
                served.insert(v);
                d.on_descheduled(v, 0);
            }
            t = dec.until();
        }
        for v in 0..2 {
            assert!(served.contains(&VcpuId(v)), "capped v{v} lost service");
        }
    }

    #[test]
    fn restore_returns_to_full_width() {
        let (mut g, mut d) = setup();
        g.on_core_event(CoreEvent::Offline { core: 1, at: ms(1) });
        g.step(&mut d, ms(1), false);
        g.on_core_event(CoreEvent::Online {
            core: 1,
            at: ms(30),
        });
        assert!(find(g.log(), |a| matches!(
            a,
            RecoveryAction::CoreRestored { core: 1 }
        ))
        .is_some());
        let records = g.step(&mut d, ms(30), false);
        let installed = find(&records, |a| matches!(a, RecoveryAction::Installed { .. }))
            .expect("restore plan installed");
        let RecoveryAction::Installed { switch_at, .. } = installed.action else {
            unreachable!()
        };
        // Core 1 serves again after the restore switch.
        let len = g.installed_plan().table.len();
        let mut t = switch_at;
        let mut served_any = false;
        while t < switch_at + len {
            let dec = d.decide(1, t, |_| true);
            if let Some(v) = dec.vcpu() {
                served_any = true;
                d.on_descheduled(v, 1);
            }
            t = dec.until();
        }
        assert!(served_any, "restored core never served a vCPU");
        assert_eq!(g.counters().evacuations, 2);
    }

    #[test]
    fn interrupted_installs_back_off_and_eventually_commit() {
        let (mut g, mut d) = setup();
        g.on_core_event(CoreEvent::Offline { core: 1, at: ms(0) });
        // Two interrupted pushes: rolled back, old table intact.
        let r1 = g.step(&mut d, ms(0), true);
        let retry1 = find(&r1, |a| matches!(a, RecoveryAction::InstallRetried { .. }))
            .expect("first retry recorded");
        let RecoveryAction::InstallRetried { next_try, .. } = retry1.action else {
            unreachable!()
        };
        assert!(!d.has_staged_table());
        assert_eq!(next_try, ms(0) + ms(1));
        // Before the backoff expires nothing is attempted.
        let quiet = g.step(&mut d, Nanos::from_micros(500), true);
        assert!(find(&quiet, |a| matches!(
            a,
            RecoveryAction::InstallRetried { .. }
        ))
        .is_none());
        let r2 = g.step(&mut d, ms(1), true);
        let retry2 = find(&r2, |a| matches!(a, RecoveryAction::InstallRetried { .. })).unwrap();
        let RecoveryAction::InstallRetried { next_try, attempt } = retry2.action else {
            unreachable!()
        };
        assert_eq!(attempt, 2);
        assert_eq!(next_try, ms(1) + ms(2)); // doubled
        assert_eq!(g.counters().install_retries, 2);
        assert!(g.recovery_pending());
        // A clean push commits exactly once.
        let r3 = g.step(&mut d, ms(3), false);
        let installed =
            find(&r3, |a| matches!(a, RecoveryAction::Installed { .. })).expect("committed");
        let RecoveryAction::Installed { attempts, .. } = &installed.action else {
            unreachable!()
        };
        assert_eq!(*attempts, 2);
        assert!(!g.recovery_pending());
    }

    #[test]
    fn exhausted_retries_re_arm_the_same_plan() {
        let (mut g, mut d) = setup();
        let budget = INSTALL_RETRY.budget;
        g.on_core_event(CoreEvent::Offline { core: 1, at: ms(0) });
        // Attempts 1..=budget: each interrupted push schedules a retry.
        let mut now = ms(0);
        for _ in 0..budget {
            g.step(&mut d, now, true);
            now += INSTALL_RETRY.cap;
        }
        assert_eq!(g.counters().evacuations, 1);
        let r = g.step(&mut d, now, true); // attempt budget + 1: exhausted
        assert!(find(&r, |a| matches!(
            a,
            RecoveryAction::InstallRetriesExhausted { attempts } if *attempts == budget + 1
        ))
        .is_some());
        assert!(g.recovery_pending());
        // The next clean step installs the plan it kept, with a fresh
        // attempt count, and replans nothing.
        let r = g.step(&mut d, now + ms(5), false);
        assert!(find(&r, |a| matches!(a, RecoveryAction::Replanned { .. })).is_none());
        assert!(find(&r, |a| matches!(
            a,
            RecoveryAction::Installed { attempts: 0, .. }
        ))
        .is_some());
        assert_eq!(g.counters().evacuations, 1);
        let mut survivor = HostConfig::new(1);
        for vm in &host().vms {
            survivor.add_vm(vm.clone());
        }
        let evacuated = plan(&survivor, &PlannerOptions::default()).unwrap();
        assert_eq!(*g.installed_plan(), evacuated);
        assert!(!g.recovery_pending());
    }

    #[test]
    fn persistent_overrunner_is_quarantined_once() {
        let (mut g, mut d) = setup();
        // vCPU 2 is uncapped ("u0"); vCPU 0 is capped.
        g.observe_overruns(VcpuId(2), 49);
        g.step(&mut d, ms(1), false);
        assert!(!d.is_quarantined(VcpuId(2)));
        g.observe_overruns(VcpuId(2), 50);
        let r = g.step(&mut d, ms(2), false);
        assert!(find(&r, |a| matches!(a, RecoveryAction::Quarantined { .. })).is_some());
        assert!(d.is_quarantined(VcpuId(2)));
        assert_eq!(g.counters().quarantines, 1);
        // Idempotent: no second quarantine of the same guest.
        let r = g.step(&mut d, ms(3), false);
        assert!(find(&r, |a| matches!(a, RecoveryAction::Quarantined { .. })).is_none());
        assert_eq!(g.counters().quarantines, 1);
        // Capped guests are never quarantined, however much they overrun.
        g.observe_overruns(VcpuId(0), 1_000);
        g.step(&mut d, ms(4), false);
        assert!(!d.is_quarantined(VcpuId(0)));
    }

    #[test]
    fn violations_flow_from_monitor_to_log() {
        let (mut g, mut d) = setup();
        d.sla_monitor_mut().unwrap().note_runnable(VcpuId(0), ms(0));
        // 25 ms without a dispatch blows the 20 ms bound.
        let r = g.step(&mut d, ms(25), false);
        let v = find(&r, |a| {
            matches!(a, RecoveryAction::ViolationObserved { .. })
        })
        .expect("violation logged");
        let RecoveryAction::ViolationObserved { vcpu, observed, .. } = v.action else {
            unreachable!()
        };
        assert_eq!(vcpu, VcpuId(0));
        assert_eq!(observed, ms(25));
        assert_eq!(g.counters().violations_seen, 1);
    }

    #[test]
    fn continuous_audit_is_silent_on_a_clean_table() {
        let (mut g, mut d) = setup();
        for i in 0..6 {
            let r = g.step(&mut d, ms(100 * i), false);
            assert!(r.is_empty(), "clean audit must not log: {r:?}");
        }
        // One audit per cadence interval, none mid-interval.
        assert_eq!(g.counters().audit_checks, 6);
        let quiet = g.step(&mut d, ms(500) + Nanos::from_micros(1), false);
        assert!(quiet.is_empty());
        assert_eq!(g.counters().audit_checks, 6);
        assert_eq!(g.counters().audit_violations, 0);
    }

    #[test]
    fn audit_detects_corruption_and_repairs_through_the_ladder() {
        use crate::audit::{corrupt_table_any, CorruptionKind};
        let h = host();
        let p = plan(&h, &PlannerOptions::default()).unwrap();
        // The dispatcher boots on a corrupted copy of the approved table —
        // the in-memory fault the continuous audit exists to catch.
        let (_, bad) = corrupt_table_any(&p.table, CorruptionKind::SwapPlacement, 64).unwrap();
        let capped: Vec<bool> = h.vcpus().into_iter().map(|(_, s)| s.capped).collect();
        let mut d = Dispatcher::new(bad, capped, DEFAULT_EPOCH);
        let mut g = Guardian::new(h, p);
        d.attach_sla_monitor(g.monitor());

        let r = g.step(&mut d, ms(0), false);
        assert!(
            find(&r, |a| matches!(a, RecoveryAction::AuditViolation { .. })).is_some(),
            "corruption not flagged: {r:?}"
        );
        // The same step replans and installs a repaired table.
        assert!(find(&r, |a| matches!(a, RecoveryAction::Installed { .. })).is_some());
        assert!(g.counters().audit_violations >= 1);
        let seen = g.counters().audit_violations;

        // Later audits of the repaired table stay silent.
        for i in 1..=4 {
            let r = g.step(&mut d, ms(100 * i), false);
            assert!(
                find(&r, |a| matches!(a, RecoveryAction::AuditViolation { .. })).is_none(),
                "repaired table re-flagged: {r:?}"
            );
        }
        assert_eq!(g.counters().audit_violations, seen);
    }

    #[test]
    fn the_next_audit_sees_a_corruption_on_any_core() {
        // Four cores, and the corruption lands on a core the previous
        // audit already passed: the next audit must still see it.
        let mut h = HostConfig::new(4);
        let capped = VcpuSpec::capped(Utilization::from_percent(25), ms(20));
        for i in 0..8 {
            h.add_vm(VmSpec::uniform(format!("c{i}"), 1, capped));
        }
        let p = plan(&h, &PlannerOptions::default()).unwrap();
        let mut d = Dispatcher::new(p.table.clone(), vec![true; 8], DEFAULT_EPOCH);
        let mut g = Guardian::new(h, p.clone());
        assert!(g.step(&mut d, ms(0), false).is_empty(), "clean audit");

        let mut per_core: Vec<Vec<_>> = (0..4)
            .map(|c| p.table.cpu(c).allocations().collect())
            .collect();
        let slot = &mut per_core[0][0];
        slot.end = slot.start + (slot.end - slot.start) / 2;
        d.corrupt_newest_table(Table::new(p.table.len(), per_core).unwrap())
            .unwrap();

        let r = g.step(&mut d, ms(100), false);
        assert!(
            find(&r, |a| matches!(
                a,
                RecoveryAction::AuditViolation {
                    violation: AuditViolation::SlotMismatch { core: 0 }
                }
            ))
            .is_some(),
            "corruption on core 0 not flagged by the next audit: {r:?}"
        );
        assert_eq!(g.counters().audit_checks, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn backoff_is_bounded(
            (base, base_shift) in (any::<u64>(), 0u32..64),
            (cap, cap_shift) in (any::<u64>(), 0u32..64),
            (small, wide, pick_wide) in (0u32..130, any::<u32>(), any::<bool>()),
        ) {
            let retry = RetryPolicy {
                base: Nanos(base >> base_shift),
                cap: Nanos(cap >> cap_shift),
                budget: 5,
            };
            let attempt = if pick_wide { wide } else { small };
            // Reference in u128: base · 2^(attempt−1), saturating, clamped.
            let exact = u128::from(retry.base.0)
                .saturating_mul(2u128.saturating_pow(attempt.max(1) - 1));
            let want = exact.min(u128::from(retry.cap.0)) as u64;
            prop_assert_eq!(retry.delay(attempt), Nanos(want));
        }
    }
}
