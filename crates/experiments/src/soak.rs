//! Chaos soak: long randomized fault schedules driven against the runtime
//! SLA guardian, with invariants asserted every control epoch.
//!
//! The other robustness experiment ([`crate::robustness`]) measures how
//! much latency injected faults cost a *passive* scheduler. This one closes
//! the loop: a [`tableau_core::Guardian`] polls the simulation every
//! [`CONTROL_EPOCH`], consumes SLA violations from the dispatch-path
//! monitor and core offline/online events from the scheduler, and repairs
//! the damage — evacuating vCPUs off lost cores through the
//! `plan_with_fallback` ladder, retrying interrupted two-phase installs
//! with bounded exponential backoff, and quarantining persistently
//! overrunning guests at the second level.
//!
//! Each cell of the (seed × intensity) matrix runs the
//! [`FaultConfig::chaos`] preset — core flaps, stolen time, burst overruns
//! and table-switch interruptions — and asserts two invariants at every
//! epoch:
//!
//! 1. **Attribution** — every SLA violation the monitor reports is
//!    explained by the fault schedule: it falls inside a core-outage
//!    window (plus a bounded recovery tail), inside a table-switch
//!    transition window after a guardian install, or is a marginal
//!    overshoot no larger than the theft the preset injects. A capped
//!    vCPU whose core is online and undisturbed never misses its bound.
//! 2. **Convergence** — the guardian never stays in a recovering state
//!    (replan owed or install pending) for more than
//!    [`CONVERGENCE_EPOCHS`] epochs after the last core-set change, even
//!    with half of all installs interrupted at full intensity.
//!
//! The artifact (`results/soak.json`) records every recovery action with
//! its planning-ladder rung for provenance, alongside the per-cell damage
//! and repair counters.

use serde::Serialize;

use rtsched::time::Nanos;
use schedulers::Tableau;
use tableau_core::planner::{plan, PlannerOptions};
use tableau_core::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};
use tableau_core::{CoreEvent, Guardian, RecoveryAction, RecoveryRecord};
use workloads::IoStress;
use xensim::fault::FaultConfig;
use xensim::sched::BusyLoop;
use xensim::{Machine, Sim};

use crate::config::LATENCY_GOAL;
use crate::report::{git_rev, print_table, write_json};

/// Default fault-stream seed (kept fixed so artifacts are reproducible).
pub const DEFAULT_SEED: u64 = 42;

/// How often the guardian polls the simulation (drains events, steps the
/// recovery state machine, checks invariants).
pub const CONTROL_EPOCH: Nanos = Nanos(50_000_000);

/// The guardian must leave its recovering state within this many epochs of
/// the last core-set change. The bound is deliberately loose enough to
/// survive the chaos preset's 50% install-interruption rate (each retry
/// burns one epoch) yet tight enough that a wedged replan loop fails the
/// soak instead of idling through it.
pub const CONVERGENCE_EPOCHS: u64 = 12;

/// The swept fault intensities of a full run.
pub const INTENSITIES: [f64; 3] = [0.0, 0.5, 1.0];

/// The intensities of a `--quick` smoke run.
pub const QUICK_INTENSITIES: [f64; 2] = [0.0, 1.0];

/// Violations overshooting the bound by no more than this are attributed
/// to stolen time: the chaos preset steals at most 300 µs per theft, and a
/// theft only delays a dispatch it overlaps, so marginal overshoots are
/// expected even with every core online.
const THEFT_MARGIN: Nanos = Nanos(1_000_000);

/// Provenance of a soak artifact.
#[derive(Debug, Clone, Serialize)]
pub struct SoakMeta {
    /// True for the `--quick` smoke configuration.
    pub quick: bool,
    /// Physical cores on the simulated machine.
    pub machine_cores: usize,
    /// Simulated duration per cell (ms).
    pub duration_ms: f64,
    /// Guardian polling period (ms).
    pub control_epoch_ms: f64,
    /// The asserted convergence bound (epochs).
    pub convergence_epochs: u64,
    /// The fault-stream seed matrix.
    pub seeds: Vec<u64>,
    /// The swept intensities.
    pub intensities: Vec<f64>,
    /// Short git revision of the tree that produced the artifact.
    pub git_rev: String,
}

/// The soak artifact written to `results/soak.json`.
#[derive(Debug, Clone, Serialize)]
pub struct SoakReport {
    /// Run provenance (machine, duration, seed matrix, git revision).
    pub meta: SoakMeta,
    /// One entry per (seed, intensity) cell.
    pub points: Vec<SoakPoint>,
}

/// One cell of the soak matrix: the damage the fault schedule inflicted
/// and the repairs the guardian made, with the full recovery log.
#[derive(Debug, Clone, Serialize)]
pub struct SoakPoint {
    /// Fault-stream seed.
    pub seed: u64,
    /// Fault intensity in `[0, 1]` (0 = pristine platform).
    pub intensity: f64,
    /// Guardian control epochs executed.
    pub epochs: u64,
    /// Core outages injected.
    pub core_offline_events: u64,
    /// Total core-hours lost, as wall milliseconds out of service.
    pub core_offline_ms: f64,
    /// SLA violations the monitor reported.
    pub violations_seen: u64,
    /// Evacuation/restore replans that produced an installable plan.
    pub evacuations: u64,
    /// Interrupted installs rolled back and retried.
    pub install_retries: u64,
    /// Guests demoted for persistent overruns.
    pub quarantines: u64,
    /// Audits the guardian ran over installed tables (one per interval).
    pub audit_checks: u64,
    /// Audit discrepancies detected (zero unless tables are corrupted
    /// out from under the dispatcher).
    pub audit_violations: u64,
    /// Longest recovering streak observed (epochs; must stay within
    /// [`CONVERGENCE_EPOCHS`]).
    pub max_recovery_epochs: u64,
    /// Worst dispatch delay among the capped probe vCPUs (ms).
    pub capped_max_delay_ms: f64,
    /// Worst dispatch delay over all vCPUs (ms).
    pub max_delay_ms: f64,
    /// Context switches (part of the determinism fingerprint).
    pub context_switches: u64,
    /// IPIs sent (part of the determinism fingerprint).
    pub ipis: u64,
    /// Dense-phase batching counters for the cell's simulator (how often
    /// the hybrid engine entered its batched fast path, how many events it
    /// retired there, and why it fell back).
    pub batch: xensim::stats::BatchStats,
    /// Per-vCPU service received (ms).
    pub service_ms: Vec<f64>,
    /// Every recovery action taken, timestamped, with the planning-ladder
    /// rung of each replan/install for provenance.
    pub recovery_log: Vec<RecoveryRecord>,
}

/// The soak scenario: per physical core, one capped 25% probe VM (a busy
/// loop whose dispatch delays sample the latency bound continuously) and
/// one uncapped 25% I/O cycler (frequent short bursts that exercise the
/// wakeup path and draw overrun faults). Half the machine is reserved, so
/// evacuating one core always leaves a feasible plan.
fn soak_host(n_cores: usize) -> HostConfig {
    let mut host = HostConfig::new(n_cores);
    let capped = VcpuSpec::capped(Utilization::from_percent(25), LATENCY_GOAL);
    let uncapped = VcpuSpec::new(Utilization::from_percent(25), LATENCY_GOAL);
    for i in 0..n_cores {
        host.add_vm(VmSpec::uniform(format!("cap{i}"), 1, capped));
    }
    for i in 0..n_cores {
        host.add_vm(VmSpec::uniform(format!("unc{i}"), 1, uncapped));
    }
    host
}

/// Whether a violation at `at` is explained by the fault schedule: a core
/// outage (open or within `tail` of closing), a table-switch transition
/// within `tail` of a guardian install, or a marginal theft overshoot.
fn attributable(
    at: Nanos,
    observed: Nanos,
    bound: Nanos,
    intensity: f64,
    outages: &[(Nanos, Option<Nanos>)],
    commits: &[Nanos],
    tail: Nanos,
) -> bool {
    if intensity > 0.0 && observed.0 <= bound.0 + THEFT_MARGIN.0 {
        return true;
    }
    outages
        .iter()
        .any(|&(start, end)| at >= start && end.is_none_or(|e| at.0 <= e.0 + tail.0))
        || commits.iter().any(|&c| at >= c && at.0 <= c.0 + tail.0)
}

/// Measures one soak cell with the chaos preset armed.
pub fn measure(machine: Machine, seed: u64, intensity: f64, duration: Nanos) -> SoakPoint {
    run_cell(machine, seed, intensity, duration, true)
}

/// Measures one soak cell with **no fault configuration at all** — the
/// baseline a zero-intensity cell must reproduce byte-for-byte.
pub fn measure_faultless(machine: Machine, seed: u64, duration: Nanos) -> SoakPoint {
    run_cell(machine, seed, 0.0, duration, false)
}

fn run_cell(
    machine: Machine,
    seed: u64,
    intensity: f64,
    duration: Nanos,
    configure: bool,
) -> SoakPoint {
    let n_cores = machine.n_cores();
    let host = soak_host(n_cores);
    let initial = plan(&host, &PlannerOptions::default()).expect("soak host plans");
    let hyperperiod = initial.table.len();
    // A violation may surface up to two rounds after its cause (the
    // dispatch that ends the waiting spell), plus the polling quantum.
    let tail = Nanos(2 * hyperperiod.0 + 2 * CONTROL_EPOCH.0);

    let mut tab = Tableau::from_plan(&initial);
    let mut guardian = Guardian::new(host, initial);
    tab.dispatcher_mut().attach_sla_monitor(guardian.monitor());

    let mut sim = Sim::new(machine, Box::new(tab));
    if configure {
        sim.set_fault_config(FaultConfig::chaos(seed, intensity));
    }
    for i in 0..n_cores {
        sim.add_vcpu(Box::new(BusyLoop), i, true);
    }
    for i in 0..n_cores {
        let cycler = IoStress::cycler(Nanos::from_micros(500), Nanos::from_millis(2));
        sim.add_vcpu(Box::new(cycler), i, true);
    }

    // Outage windows (offline time, online time if seen) and install
    // commit times, for the attribution invariant.
    let mut outages: Vec<(Nanos, Option<Nanos>)> = Vec::new();
    let mut commits: Vec<Nanos> = Vec::new();
    let mut epochs = 0u64;
    let mut pending_streak = 0u64;
    let mut max_recovery_epochs = 0u64;

    let mut now = Nanos::ZERO;
    while now < duration {
        now = Nanos((now.0 + CONTROL_EPOCH.0).min(duration.0));
        sim.run_until(now);
        epochs += 1;

        // Drawn unconditionally every epoch so the interruption stream
        // depends only on (seed, intensity), not on guardian state.
        let interrupted = sim.fault_switch_interrupted();
        let overruns: Vec<u64> = sim.stats().vcpus.iter().map(|v| v.overruns).collect();

        let tab = sim
            .scheduler_mut()
            .as_any()
            .downcast_mut::<Tableau>()
            .expect("soak drives the Tableau adapter");
        let new_events = tab.drain_core_events();
        for &ev in &new_events {
            match ev {
                CoreEvent::Offline { at, .. } => outages.push((at, None)),
                CoreEvent::Online { at, .. } => {
                    if let Some(open) = outages.iter_mut().rev().find(|o| o.1.is_none()) {
                        open.1 = Some(at);
                    }
                }
            }
            guardian.on_core_event(ev);
        }
        for (i, &total) in overruns.iter().enumerate() {
            guardian.observe_overruns(tableau_core::VcpuId(i as u32), total);
        }

        let records = guardian.step(tab.dispatcher_mut(), now, interrupted);
        for r in &records {
            match &r.action {
                RecoveryAction::Installed { .. } => commits.push(r.at),
                RecoveryAction::ViolationObserved {
                    vcpu,
                    observed,
                    bound,
                } => {
                    // Invariant 1: every violation is explained by the
                    // fault schedule. In particular a capped vCPU whose
                    // core is online and undisturbed never misses its
                    // bound.
                    assert!(
                        attributable(r.at, *observed, *bound, intensity, &outages, &commits, tail),
                        "unattributable SLA violation: {:?} waited {} (bound {}) at {} \
                         with no covering outage or switch transition \
                         (seed {seed}, intensity {intensity})",
                        vcpu,
                        observed,
                        bound,
                        r.at,
                    );
                }
                _ => {}
            }
        }

        // Invariant 2: recovery converges. The streak restarts whenever a
        // new core event re-disturbs the system.
        if guardian.recovery_pending() {
            pending_streak = if new_events.is_empty() {
                pending_streak + 1
            } else {
                1
            };
            max_recovery_epochs = max_recovery_epochs.max(pending_streak);
            assert!(
                pending_streak <= CONVERGENCE_EPOCHS,
                "guardian stuck recovering for {pending_streak} epochs at t={now} \
                 (seed {seed}, intensity {intensity})",
            );
        } else {
            pending_streak = 0;
        }
    }

    let c = guardian.counters();
    let stats = sim.stats();
    let mut max_delay = Nanos::ZERO;
    let mut capped_max = Nanos::ZERO;
    for (i, v) in stats.vcpus.iter().enumerate() {
        max_delay = max_delay.max(v.delay_max);
        if i < n_cores {
            capped_max = capped_max.max(v.delay_max);
        }
    }
    if intensity == 0.0 {
        assert_eq!(
            c.violations_seen, 0,
            "SLA violations on a pristine platform (seed {seed})"
        );
        assert!(
            capped_max <= LATENCY_GOAL,
            "capped probe exceeded its bound on a pristine platform: {capped_max}"
        );
        assert_eq!(
            c.audit_violations, 0,
            "continuous audit flagged a pristine table (seed {seed})"
        );
    }
    assert!(
        c.audit_checks > 0,
        "continuous audit never ran (seed {seed}, intensity {intensity})"
    );
    let offline_total = stats
        .core_offline_time
        .iter()
        .fold(Nanos::ZERO, |acc, &t| acc + t);
    SoakPoint {
        seed,
        intensity,
        epochs,
        core_offline_events: stats.core_offline_events,
        core_offline_ms: offline_total.as_millis_f64(),
        violations_seen: c.violations_seen,
        evacuations: c.evacuations,
        install_retries: c.install_retries,
        quarantines: c.quarantines,
        audit_checks: c.audit_checks,
        audit_violations: c.audit_violations,
        max_recovery_epochs,
        capped_max_delay_ms: capped_max.as_millis_f64(),
        max_delay_ms: max_delay.as_millis_f64(),
        context_switches: stats.context_switches,
        ipis: stats.ipis,
        batch: stats.batch,
        service_ms: stats
            .vcpus
            .iter()
            .map(|v| v.service.as_millis_f64())
            .collect(),
        recovery_log: guardian.log().to_vec(),
    }
}

/// Runs the soak matrix and measures every cell, with no I/O side effects.
///
/// Tests exercise this directly; only [`run_with_seed`] (the CLI path)
/// writes the `results/soak.json` artifact, so `cargo test` can never
/// clobber the checked-in full-run data with quick-mode output.
pub fn sweep(quick: bool, seed: u64) -> SoakReport {
    let (machine, duration) = if quick {
        (Machine::small(3), Nanos::from_secs(1))
    } else {
        (Machine::small(4), Nanos::from_secs(5))
    };
    let seeds: Vec<u64> = if quick {
        vec![seed]
    } else {
        vec![seed.wrapping_sub(1), seed, seed.wrapping_add(1)]
    };
    let intensities: &[f64] = if quick {
        &QUICK_INTENSITIES
    } else {
        &INTENSITIES
    };
    let mut cells = Vec::new();
    for &s in &seeds {
        for &i in intensities {
            cells.push((s, i));
        }
    }
    // Each cell is an independent simulation fully determined by
    // (seed, intensity); measuring concurrently and reassembling in grid
    // order reproduces the sequential sweep byte-for-byte.
    let points = rayon::par_map_indices(cells.len(), |k| {
        let (s, i) = cells[k];
        measure(machine, s, i, duration)
    });
    SoakReport {
        meta: SoakMeta {
            quick,
            machine_cores: machine.n_cores(),
            duration_ms: duration.as_millis_f64(),
            control_epoch_ms: CONTROL_EPOCH.as_millis_f64(),
            convergence_epochs: CONVERGENCE_EPOCHS,
            seeds,
            intensities: intensities.to_vec(),
            git_rev: git_rev(),
        },
        points,
    }
}

/// Runs the chaos soak with the default seed.
pub fn run(quick: bool) -> Vec<SoakPoint> {
    run_with_seed(quick, DEFAULT_SEED)
}

/// Runs the chaos soak, prints the table and writes the artifact.
pub fn run_with_seed(quick: bool, seed: u64) -> Vec<SoakPoint> {
    let report = sweep(quick, seed);
    let rows: Vec<Vec<String>> = report
        .points
        .iter()
        .map(|p| {
            vec![
                p.seed.to_string(),
                format!("{:.2}", p.intensity),
                p.epochs.to_string(),
                p.core_offline_events.to_string(),
                format!("{:.1}", p.core_offline_ms),
                p.violations_seen.to_string(),
                p.evacuations.to_string(),
                p.install_retries.to_string(),
                p.quarantines.to_string(),
                p.max_recovery_epochs.to_string(),
                format!("{:.2}", p.capped_max_delay_ms),
            ]
        })
        .collect();
    print_table(
        "Chaos soak: guardian recovery under core flaps, theft and overruns",
        &[
            "seed",
            "intensity",
            "epochs",
            "flaps",
            "offline (ms)",
            "violations",
            "evacuations",
            "retries",
            "quarantines",
            "max rec. epochs",
            "capped max (ms)",
        ],
        &rows,
    );
    write_json("soak", &report);
    report.points
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUR: Nanos = Nanos(600_000_000);

    #[test]
    fn zero_intensity_soak_is_byte_identical_to_faultless() {
        // `chaos(seed, 0.0)` installs no engine; the whole epoch-driven
        // guardian loop on top must replay the pristine run bit-for-bit.
        let zeroed = measure(Machine::small(3), DEFAULT_SEED, 0.0, DUR);
        let clean = measure_faultless(Machine::small(3), DEFAULT_SEED, DUR);
        assert_eq!(
            serde_json::to_string_pretty(&zeroed).unwrap(),
            serde_json::to_string_pretty(&clean).unwrap(),
            "zero-intensity soak diverged from the faultless baseline"
        );
        assert_eq!(zeroed.violations_seen, 0);
        assert_eq!(zeroed.core_offline_events, 0);
        assert!(zeroed.recovery_log.is_empty());
    }

    #[test]
    fn full_intensity_cell_is_deterministic_per_seed() {
        let a = measure(Machine::small(3), 7, 1.0, DUR);
        let b = measure(Machine::small(3), 7, 1.0, DUR);
        assert_eq!(
            serde_json::to_string_pretty(&a).unwrap(),
            serde_json::to_string_pretty(&b).unwrap(),
            "soak cell is not deterministic per (seed, intensity)"
        );
    }

    #[test]
    fn chaos_cell_flaps_cores_and_the_guardian_recovers() {
        // One second with the chaos preset at full intensity: the first
        // outage lands within ~600 ms, so at least one flap, at least one
        // violation during the blackout, and at least one evacuation
        // replan are guaranteed; the in-loop invariants assert the
        // recovery converges and every violation is attributable.
        let p = measure(Machine::small(3), DEFAULT_SEED, 1.0, Nanos::from_secs(1));
        assert!(p.core_offline_events > 0, "no core flap injected");
        assert!(p.violations_seen > 0, "blackout raised no violations");
        assert!(p.evacuations > 0, "guardian never replanned");
        assert!(p.max_recovery_epochs >= 1);
        assert!(p.max_recovery_epochs <= CONVERGENCE_EPOCHS);
        assert!(
            p.recovery_log
                .iter()
                .any(|r| matches!(r.action, RecoveryAction::CoreLost { .. })),
            "core loss not recorded in the recovery log"
        );
        assert!(
            p.recovery_log
                .iter()
                .any(|r| matches!(r.action, RecoveryAction::Installed { .. })),
            "no recovery plan was ever installed"
        );
    }

    #[test]
    fn quick_sweep_covers_the_grid() {
        let report = sweep(true, DEFAULT_SEED);
        assert!(report.meta.quick);
        assert_eq!(report.meta.machine_cores, 3);
        assert_eq!(report.meta.seeds, vec![DEFAULT_SEED]);
        assert_eq!(report.points.len(), QUICK_INTENSITIES.len());
        for p in &report.points {
            assert_eq!(p.seed, DEFAULT_SEED);
            if p.intensity == 0.0 {
                assert_eq!(p.violations_seen, 0);
                assert!(p.recovery_log.is_empty());
            } else {
                assert!(p.core_offline_events > 0);
            }
        }
    }
}
