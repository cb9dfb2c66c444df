//! Robustness: SLA-violation rate and latency inflation under injected
//! platform faults.
//!
//! The paper evaluates Tableau on well-behaved hardware; this experiment
//! asks what happens when the platform misbehaves. [`xensim::fault`]
//! injects timer jitter/coarsening, IPI delay and loss, per-core stolen
//! time, guest burst overruns and table-switch interruptions, all scaled by
//! a single `intensity` knob in `[0, 1]`. For each scheduler we sweep the
//! intensity and report:
//!
//! * the fraction of dispatch delays exceeding the 20 ms latency goal
//!   (SLA-violation rate), aggregate and worst single vCPU;
//! * maximum and mean dispatch delay, and the mean-delay inflation
//!   relative to the same scheduler at intensity 0;
//! * fault-accounting totals (stolen time, lost IPIs, overruns).
//!
//! The headline claim: Tableau's table structure *localizes* interference.
//! Stolen time on one core is charged to the slots that were running there
//! — vCPUs homed on other cores keep their latency bound (see
//! `stolen_time_on_one_core_does_not_leak_across_cores_under_tableau`).

use serde::Serialize;

use rtsched::time::Nanos;
use workloads::IntrinsicLatency;
use xensim::fault::FaultConfig;
use xensim::{Machine, Sim};

use crate::config::{
    build_scenario, Background, SchedKind, CAPPED_SCHEDULERS, LATENCY_GOAL, UNCAPPED_SCHEDULERS,
};
use crate::report::{print_table, write_json};

/// Default fault-stream seed (kept fixed so artifacts are reproducible).
pub const DEFAULT_SEED: u64 = 42;

/// The swept fault intensities.
pub const INTENSITIES: [f64; 4] = [0.0, 0.25, 0.5, 1.0];

/// Provenance of a sweep artifact: distinguishes a full run (16-core
/// machine, seconds of simulated time) from a `--quick` smoke run so the
/// two can never be mistaken for each other in `results/`.
#[derive(Debug, Clone, Serialize)]
pub struct RobustnessMeta {
    /// True for the `--quick` smoke configuration.
    pub quick: bool,
    /// Physical cores on the simulated machine.
    pub machine_cores: usize,
    /// Simulated duration per cell (ms).
    pub duration_ms: f64,
    /// Fault-stream seed.
    pub seed: u64,
}

/// The sweep artifact written to `results/robustness.json`.
#[derive(Debug, Clone, Serialize)]
pub struct RobustnessReport {
    /// Run provenance (machine, duration, seed, quick flag).
    pub meta: RobustnessMeta,
    /// One entry per (scheduler, cap, intensity) cell.
    pub points: Vec<RobustnessPoint>,
}

/// One cell of the robustness sweep.
#[derive(Debug, Clone, Serialize)]
pub struct RobustnessPoint {
    /// Scheduler label.
    pub scheduler: String,
    /// Capped or uncapped scenario.
    pub capped: bool,
    /// Fault intensity in `[0, 1]` (0 = pristine platform).
    pub intensity: f64,
    /// Fraction of dispatch delays exceeding the 20 ms goal, all vCPUs.
    pub sla_violation_rate: f64,
    /// The worst single vCPU's violation fraction.
    pub worst_vcpu_violation_rate: f64,
    /// Maximum dispatch delay over all vCPUs (ms).
    pub max_delay_ms: f64,
    /// Mean dispatch delay over all vCPUs (ms).
    pub mean_delay_ms: f64,
    /// `mean_delay / mean_delay(intensity 0)` for the same scheduler/cap.
    pub latency_inflation: f64,
    /// Total stolen time across all cores (ms).
    pub stolen_ms: f64,
    /// IPIs lost (and later re-delivered via the poll fallback).
    pub ipis_lost: u64,
    /// Guest burst overruns injected.
    pub overruns: u64,
}

/// Measures one cell (latency inflation is filled in by [`run`], relative
/// to the intensity-0 cell; here it defaults to 1).
pub fn measure(
    machine: Machine,
    kind: SchedKind,
    capped: bool,
    intensity: f64,
    seed: u64,
    duration: Nanos,
) -> RobustnessPoint {
    let (mut sim, vantage) = build_scenario(
        machine,
        4,
        kind,
        capped,
        Box::new(IntrinsicLatency::new()),
        Background::Io,
    );
    sim.set_fault_config(FaultConfig::with_intensity(seed, intensity));
    // The probe starts blocked; kick it off immediately.
    sim.push_external(Nanos(1), vantage, 0);
    sim.run_until(duration);
    summarize(&sim, kind, capped, intensity)
}

fn summarize(sim: &Sim, kind: SchedKind, capped: bool, intensity: f64) -> RobustnessPoint {
    let stats = sim.stats();
    let mut violations = 0u64;
    let mut total = 0u64;
    let mut worst = 0.0f64;
    let mut max_delay = Nanos::ZERO;
    let mut delay_sum = Nanos::ZERO;
    for (i, v) in stats.vcpus.iter().enumerate() {
        let hist = &stats.delay_hists[i];
        let viol = hist.count_at_least(LATENCY_GOAL);
        violations += viol;
        total += v.delay_count;
        if v.delay_count > 0 {
            worst = worst.max(viol as f64 / v.delay_count as f64);
        }
        max_delay = max_delay.max(v.delay_max);
        delay_sum += v.delay_total;
    }
    let mean_delay = delay_sum
        .as_nanos()
        .checked_div(total)
        .map_or(Nanos::ZERO, Nanos);
    let stolen: Nanos = stats
        .stolen_time
        .iter()
        .fold(Nanos::ZERO, |acc, &s| acc + s);
    RobustnessPoint {
        scheduler: kind.label().to_string(),
        capped,
        intensity,
        sla_violation_rate: if total > 0 {
            violations as f64 / total as f64
        } else {
            0.0
        },
        worst_vcpu_violation_rate: worst,
        max_delay_ms: max_delay.as_millis_f64(),
        mean_delay_ms: mean_delay.as_millis_f64(),
        latency_inflation: 1.0,
        stolen_ms: stolen.as_millis_f64(),
        ipis_lost: stats.ipis_lost,
        overruns: stats.overruns,
    }
}

/// Runs the sweep and measures every cell, with no I/O side effects.
///
/// Tests exercise this directly; only [`run_with_seed`] (the CLI path)
/// writes the `results/robustness.json` artifact, so `cargo test` can
/// never clobber the checked-in full-run data with quick-mode output.
pub fn sweep(quick: bool, seed: u64) -> RobustnessReport {
    let (machine, duration) = if quick {
        (Machine::small(2), Nanos::from_millis(200))
    } else {
        (crate::config::guest_machine_16core(), Nanos::from_secs(5))
    };
    // The grid in sequential order: intensity-major, capped before
    // uncapped schedulers.
    let mut cells = Vec::new();
    for intensity in INTENSITIES {
        for kind in CAPPED_SCHEDULERS {
            cells.push((kind, true, intensity));
        }
        for kind in UNCAPPED_SCHEDULERS {
            cells.push((kind, false, intensity));
        }
    }
    // Every cell is an independent simulation whose fault stream is fully
    // determined by (seed, intensity); measuring the cells concurrently
    // and reassembling in grid order reproduces the sequential sweep
    // byte-for-byte (see `tests/sweep_determinism.rs`).
    let mut points = rayon::par_map_indices(cells.len(), |i| {
        let (kind, capped, intensity) = cells[i];
        measure(machine, kind, capped, intensity, seed, duration)
    });

    // Latency inflation is relative to the same scheduler/cap at zero
    // intensity.
    let baselines: Vec<(String, bool, f64)> = points
        .iter()
        .filter(|p| p.intensity == 0.0)
        .map(|p| (p.scheduler.clone(), p.capped, p.mean_delay_ms))
        .collect();
    for p in &mut points {
        if let Some((_, _, base)) = baselines
            .iter()
            .find(|(s, c, _)| *s == p.scheduler && *c == p.capped)
        {
            if *base > 0.0 {
                p.latency_inflation = p.mean_delay_ms / base;
            }
        }
    }

    RobustnessReport {
        meta: RobustnessMeta {
            quick,
            machine_cores: machine.n_cores(),
            duration_ms: duration.as_millis_f64(),
            seed,
        },
        points,
    }
}

/// Runs the robustness sweep with the default seed.
pub fn run(quick: bool) -> Vec<RobustnessPoint> {
    run_with_seed(quick, DEFAULT_SEED)
}

/// Runs the robustness sweep, prints the table and writes the artifact.
pub fn run_with_seed(quick: bool, seed: u64) -> Vec<RobustnessPoint> {
    let report = sweep(quick, seed);
    let rows: Vec<Vec<String>> = report
        .points
        .iter()
        .map(|p| {
            vec![
                if p.capped { "capped" } else { "uncapped" }.to_string(),
                p.scheduler.clone(),
                format!("{:.2}", p.intensity),
                format!("{:.4}", p.sla_violation_rate),
                format!("{:.4}", p.worst_vcpu_violation_rate),
                format!("{:.2}", p.max_delay_ms),
                format!("{:.2}x", p.latency_inflation),
                format!("{:.1}", p.stolen_ms),
                p.ipis_lost.to_string(),
                p.overruns.to_string(),
            ]
        })
        .collect();
    print_table(
        "Robustness: SLA violations and latency inflation under injected faults",
        &[
            "scenario",
            "scheduler",
            "intensity",
            "SLA viol.",
            "worst vCPU",
            "max delay (ms)",
            "inflation",
            "stolen (ms)",
            "IPIs lost",
            "overruns",
        ],
        &rows,
    );
    write_json("robustness", &report);
    report.points
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedulers::Tableau;
    use tableau_core::planner::{plan, PlannerOptions};
    use tableau_core::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};
    use workloads::CacheThrash;
    use xensim::fault::StolenFaults;
    use xensim::VcpuId;

    const DUR: Nanos = Nanos(500_000_000);

    fn fingerprint(sim: &Sim) -> (u64, u64, Vec<(Nanos, Nanos, u64)>) {
        let s = sim.stats();
        (
            s.ipis,
            s.context_switches,
            s.vcpus
                .iter()
                .map(|v| (v.service, v.delay_max, v.delay_count))
                .collect(),
        )
    }

    #[test]
    fn zero_intensity_is_bitwise_identical_to_no_faults() {
        // `with_intensity(seed, 0.0)` must install no engine at all: the
        // run replays the pristine simulator event-for-event.
        let build = || {
            build_scenario(
                Machine::small(2),
                4,
                SchedKind::Tableau,
                true,
                Box::new(IntrinsicLatency::new()),
                Background::Io,
            )
        };
        let (mut clean, v0) = build();
        clean.push_external(Nanos(1), v0, 0);
        clean.run_until(DUR);

        let (mut zeroed, v1) = build();
        zeroed.set_fault_config(FaultConfig::with_intensity(DEFAULT_SEED, 0.0));
        assert!(
            zeroed.fault_config().is_none(),
            "zero intensity armed faults"
        );
        zeroed.push_external(Nanos(1), v1, 0);
        zeroed.run_until(DUR);

        assert_eq!(fingerprint(&clean), fingerprint(&zeroed));
        assert_eq!(clean.stats().stolen_time, zeroed.stats().stolen_time);
        assert_eq!(clean.stats().ipis_lost, 0);
        assert_eq!(zeroed.stats().overruns, 0);
    }

    #[test]
    fn stolen_time_on_one_core_does_not_leak_across_cores_under_tableau() {
        // Acceptance criterion: nonzero stolen time on core 0 adds zero SLA
        // violations for vCPUs homed entirely on core 1.
        let mut host = HostConfig::new(2);
        let spec = VcpuSpec::capped(Utilization::from_percent(25), LATENCY_GOAL);
        for i in 0..8 {
            host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
        }
        let p = plan(&host, &PlannerOptions::default()).expect("paper shape");
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
                        interval: Nanos::from_millis(5),
                        duration: Nanos::from_micros(500),
                    },
                    ..FaultConfig::none()
                });
            }
            for _ in 0..8 {
                sim.add_vcpu(Box::new(CacheThrash), 0, true);
            }
            sim.run_until(Nanos::from_secs(2));
            sim
        };
        let clean = run(false);
        let faulty = run(true);
        assert!(faulty.stats().stolen_time[0] > Nanos::ZERO);
        for &v in &core1_vcpus {
            let v = VcpuId(v);
            assert_eq!(
                faulty.stats().delay_hist(v).count_at_least(LATENCY_GOAL),
                0,
                "{v} on core 1 violated its SLA under theft on core 0"
            );
            assert_eq!(
                faulty.stats().vcpu(v).delay_max,
                clean.stats().vcpu(v).delay_max,
                "{v} on core 1 saw different delays under theft on core 0"
            );
        }
    }

    #[test]
    fn faults_increase_delay_but_tableau_keeps_remote_cores_clean() {
        // At full intensity the aggregate picture degrades for everyone;
        // the sweep itself must remain deterministic per seed.
        let a = measure(
            Machine::small(2),
            SchedKind::Tableau,
            true,
            1.0,
            7,
            Nanos::from_millis(300),
        );
        let b = measure(
            Machine::small(2),
            SchedKind::Tableau,
            true,
            1.0,
            7,
            Nanos::from_millis(300),
        );
        assert_eq!(a.max_delay_ms, b.max_delay_ms);
        assert_eq!(a.ipis_lost, b.ipis_lost);
        assert_eq!(a.overruns, b.overruns);
        assert!(a.stolen_ms > 0.0);
    }

    #[test]
    fn quick_sweep_covers_the_grid_and_fills_inflation() {
        // `sweep`, not `run`: the test must never write (and thereby
        // clobber) the tracked results/robustness.json artifact.
        let report = sweep(true, DEFAULT_SEED);
        assert!(report.meta.quick);
        assert_eq!(report.meta.machine_cores, 2);
        assert_eq!(report.meta.seed, DEFAULT_SEED);
        let points = report.points;
        assert_eq!(points.len(), INTENSITIES.len() * 6);
        for p in &points {
            if p.intensity == 0.0 {
                assert_eq!(p.latency_inflation, 1.0, "{}", p.scheduler);
            }
            assert!(p.sla_violation_rate <= 1.0);
            assert!(
                p.worst_vcpu_violation_rate >= p.sla_violation_rate
                    || p.worst_vcpu_violation_rate == 0.0
            );
        }
        assert!(points.iter().any(|p| p.scheduler == "Tableau"));
    }
}
