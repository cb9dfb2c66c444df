//! Fleet chaos soak: SAP-shaped churn replayed over hundreds of simulated
//! hosts while seeded host-level failures tear at the control plane.
//!
//! Where [`crate::soak`] closes the loop on a *single* host (a guardian
//! repairing core flaps), this experiment runs the [`fleet::Fleet`] control
//! plane: a placement front-end with a backpressure ladder (best-fit →
//! first-fit → typed shed), crash-triggered evacuation through the
//! `plan_with_fallback` ladder with bounded backoff and per-VM retry
//! budgets, and a two-phase install pipeline battered by fleet-wide
//! install storms.
//!
//! Each cell of the (seed × crash-intensity) matrix replays the same
//! deterministic churn trace ([`workloads::churn::sap_trace`]) against the
//! fleet chaos preset and asserts two invariants:
//!
//! 1. **Conservation** — at every control epoch, the set of VMs the fleet
//!    owns (placed ∪ evacuating ∪ parked, pairwise disjoint) equals
//!    exactly admissions minus teardowns. No VM is ever lost or
//!    duplicated, under any interleaving of crashes and churn.
//! 2. **Convergence** — once the fault horizon passes, every outstanding
//!    evacuation re-places and every downed host restarts within
//!    [`CONVERGENCE_EPOCHS`] control epochs (the bound covers a worst-case
//!    late crash: the full outage, the evacuation backoff ladder, and one
//!    parked retry interval).
//!
//! The artifact (`results/fleet.json`) records per-cell admission/
//! evacuation/install counters, replan-rung provenance (shared-cache hits
//! vs fallback-ladder rungs), and the admission-to-table-install latency
//! distribution (simulated time, deterministic: `admit_p99_ns` per cell).
//! `BENCH_fleet.json` holds wall-clock rows only — the replay throughput
//! and three `Fleet::step` phase rows — and `--quick` gates them against
//! the committed snapshot via [`crate::bench_snapshot::gate_against`].

use std::time::Instant;

use serde::Serialize;

// Leading `::` paths: `fleet` is both this module's name and the
// control-plane crate; the explicit root keeps the imports unambiguous.
use ::fleet::{Fleet, FleetConfig, FleetCounters, HostState, RungCounters, StepPhases};
use rtsched::time::Nanos;
use workloads::churn::{sap_trace, ChurnConfig, ChurnOp};
use xensim::fault::HostFaultConfig;

use crate::bench_snapshot::{BenchEntry, BenchSnapshot};
use crate::report::{git_rev, print_table, write_json, write_json_to};

/// Default seed (kept fixed so artifacts are reproducible).
pub const DEFAULT_SEED: u64 = 42;

/// Control epoch: how often the fleet control loop runs.
pub const CONTROL_EPOCH: Nanos = Nanos(50_000_000);

/// Post-horizon convergence bound, in control epochs. Derivation for the
/// worst case — a crash firing on the last pre-horizon epoch at full
/// intensity: the outage itself (≤ 1.2 s = 24 epochs), the evacuation
/// backoff ladder to a parked VM (≤ ~2 s = 40 epochs including one parked
/// retry interval of 1.6 s), plus slack for install storms trailing past
/// the horizon.
pub const CONVERGENCE_EPOCHS: u64 = 120;

/// The swept crash intensities of a full run.
pub const INTENSITIES: [f64; 3] = [0.0, 0.5, 1.0];

/// The intensities of a `--quick` smoke run.
pub const QUICK_INTENSITIES: [f64; 2] = [0.0, 1.0];

/// The fleet chaos preset. [`HostFaultConfig::chaos`] is tuned for
/// minutes-long single-host runs (60 s crash intervals); a fleet cell
/// replays seconds of churn over hundreds of hosts, so the per-host
/// schedule is compressed: at full intensity each host crashes roughly
/// every 3 s for up to 1.2 s, degrades every ~4 s for up to 1.5 s,
/// fleet-wide install storms of up to 700 ms arrive every ~2 s
/// interrupting 60% of installs attempted inside them, and each host's
/// installed table is corrupted with probability 75% roughly every 2.5 s.
pub fn fleet_chaos(seed: u64, intensity: f64) -> HostFaultConfig {
    let i = intensity.clamp(0.0, 1.0);
    let scale = |ns: u64| Nanos((ns as f64 * i) as u64);
    HostFaultConfig {
        seed,
        crash: xensim::fault::HostCrashFaults {
            interval: Nanos::from_secs(3),
            outage: scale(1_200_000_000),
        },
        degrade: xensim::fault::HostDegradeFaults {
            interval: Nanos::from_secs(4),
            duration: scale(1_500_000_000),
        },
        storm: xensim::fault::InstallStormFaults {
            interval: Nanos::from_secs(2),
            duration: scale(700_000_000),
            interrupt_prob: 0.6 * i,
        },
        corruption: xensim::fault::TableCorruptionFaults {
            interval: Nanos::from_millis(2_500),
            prob: 0.75 * i,
        },
    }
}

/// Provenance of a fleet artifact.
#[derive(Debug, Clone, Serialize)]
pub struct FleetMeta {
    /// True for the `--quick` smoke configuration.
    pub quick: bool,
    /// Hosts per cell.
    pub hosts: usize,
    /// Cores per host.
    pub cores_per_host: usize,
    /// Simulated churn horizon per cell (ms).
    pub duration_ms: f64,
    /// Control epoch (ms).
    pub control_epoch_ms: f64,
    /// The asserted post-horizon convergence bound (epochs).
    pub convergence_epochs: u64,
    /// Mean churn arrival rate (VM creates per simulated second).
    pub arrivals_per_sec: f64,
    /// The seed matrix.
    pub seeds: Vec<u64>,
    /// The swept crash intensities.
    pub intensities: Vec<f64>,
    /// Short git revision of the tree that produced the artifact.
    pub git_rev: String,
}

/// The fleet artifact written to `results/fleet.json`.
#[derive(Debug, Clone, Serialize)]
pub struct FleetReport {
    /// Run provenance.
    pub meta: FleetMeta,
    /// One entry per (seed, intensity) cell.
    pub points: Vec<FleetPoint>,
}

/// One cell of the matrix.
#[derive(Debug, Clone, Serialize)]
pub struct FleetPoint {
    /// Fault/churn seed (independent streams derive from it).
    pub seed: u64,
    /// Crash intensity in `[0, 1]` (0 = no failures at all).
    pub intensity: f64,
    /// Control epochs executed over the churn horizon.
    pub epochs: u64,
    /// Control-plane counters (admissions, evacuations, installs, …).
    pub counters: FleetCounters,
    /// Replan-rung provenance: shared-cache hits/plans vs the
    /// `plan_with_fallback` ladder rungs.
    pub rungs: RungCounters,
    /// Shared plan-cache hits across all hosts.
    pub cache_hits: u64,
    /// Shared plan-cache misses.
    pub cache_misses: u64,
    /// Dense-phase batching counters aggregated across every host
    /// simulator (entries/exits, events retired inside batches, and the
    /// per-cause fallback breakdown).
    pub batch: xensim::stats::BatchStats,
    /// Where the wall-clock of `Fleet::step` and of the closing
    /// `Fleet::settle` went, per phase.
    pub step_phases: StepLedger,
    /// VMs still owned when the replay ended.
    pub live_vms_final: usize,
    /// Epochs past the horizon until every evacuation re-placed and every
    /// host was back up (must stay within [`CONVERGENCE_EPOCHS`]).
    pub convergence_epochs: u64,
    /// Admission-to-committed-install latency samples.
    pub admit_samples: u64,
    /// Median admission-to-install latency (simulated ms); `None` when no
    /// admission ever reached a committed install in this cell.
    pub admit_p50_ms: Option<f64>,
    /// p99 admission-to-install latency (simulated ms); `None` when the
    /// histogram is empty — never a fabricated 0 ns tail.
    pub admit_p99_ms: Option<f64>,
    /// p99 admission-to-install latency (simulated ns, exact); `None` when
    /// the histogram is empty.
    pub admit_p99_ns: Option<u64>,
    /// Worst admission-to-install latency (simulated ms).
    pub admit_max_ms: f64,
}

/// The `Fleet::step` phase ledger of one cell. Host time: the only block
/// of a cell that differs between two runs of the same seed.
#[derive(Debug, Clone, Serialize)]
pub struct StepLedger {
    /// Always `"wall"` — never comparable with the simulated-time fields.
    pub clock: &'static str,
    /// `Fleet::step` calls (churn horizon plus convergence drain).
    pub steps: u64,
    /// Wall-clock of all steps and the closing settle (ns), measured
    /// around the phases.
    pub total_ns: u64,
    /// One row per phase, in execution order.
    pub phases: Vec<PhaseShare>,
}

/// One phase of the [`StepLedger`].
#[derive(Debug, Clone, Serialize)]
pub struct PhaseShare {
    /// Phase name (`faults`, `corruptions`, `audit`, `evacuate`, `parked`,
    /// `installs`, `host_sims`: the host simulators' catch-up wherever it
    /// ran).
    pub phase: &'static str,
    /// Wall-clock spent in the phase (ns).
    pub ns: u64,
    /// `ns / total_ns`.
    pub share: f64,
}

impl StepLedger {
    fn new(p: &StepPhases) -> StepLedger {
        let total = p.total_ns.max(1) as f64;
        StepLedger {
            clock: "wall",
            steps: p.steps,
            total_ns: p.total_ns,
            phases: p
                .phases()
                .into_iter()
                .map(|(phase, ns)| PhaseShare {
                    phase,
                    ns,
                    share: ns as f64 / total,
                })
                .collect(),
        }
    }
}

impl FleetPoint {
    /// The cell with the wall-clock ledger's times zeroed (its step count
    /// stays): everything two runs of one seed must agree on byte for byte.
    pub fn model_only(mut self) -> FleetPoint {
        self.step_phases.total_ns = 0;
        for ph in &mut self.step_phases.phases {
            ph.ns = 0;
            ph.share = 0.0;
        }
        self
    }
}

/// Scale knobs per mode: (hosts, churn horizon, drains derive from
/// [`CONVERGENCE_EPOCHS`]).
fn cell_shape(quick: bool) -> (usize, Nanos) {
    if quick {
        (12, Nanos::from_secs(3))
    } else {
        (160, Nanos::from_secs(8))
    }
}

/// Churn arrival rate for a fleet size: enough concurrent churn to keep
/// every host replanning without pinning the whole fleet at its admission
/// ceiling (mean lifetime is 2 s, so steady state is ~1.5 VMs per host).
fn arrival_rate(n_hosts: usize) -> f64 {
    n_hosts as f64 * 0.75
}

/// Measures one cell with the fleet chaos preset armed.
pub fn measure(n_hosts: usize, seed: u64, intensity: f64, duration: Nanos) -> FleetPoint {
    run_cell(n_hosts, seed, intensity, duration, true)
}

/// Measures one cell with **no fault configuration at all** — the baseline
/// a zero-intensity cell must reproduce byte-for-byte.
pub fn measure_faultless(n_hosts: usize, seed: u64, duration: Nanos) -> FleetPoint {
    run_cell(n_hosts, seed, 0.0, duration, false)
}

fn run_cell(
    n_hosts: usize,
    seed: u64,
    intensity: f64,
    duration: Nanos,
    configure: bool,
) -> FleetPoint {
    let cfg = FleetConfig::new(n_hosts, 2);
    let mut fleet = Fleet::new(cfg).expect("probe-only boot config plans");
    if configure {
        fleet.arm_faults(fleet_chaos(seed, intensity), duration);
    }
    let trace = sap_trace(&ChurnConfig::sap(seed, arrival_rate(n_hosts), duration));
    assert!(!trace.is_empty(), "churn trace is empty");

    let mut idx = 0usize;
    let mut epochs = 0u64;
    let mut now = Nanos::ZERO;
    while now < duration {
        now = Nanos((now.0 + CONTROL_EPOCH.0).min(duration.0));
        while idx < trace.len() && trace[idx].at <= now {
            let e = &trace[idx];
            idx += 1;
            match e.op {
                // Admission requests carry their own arrival time so the
                // latency histogram measures request-to-install, not
                // epoch-to-install. Sheds and unknown-VM teardowns (the
                // trace does not know which creates were shed) are typed
                // rejections, counted inside the fleet.
                ChurnOp::Create(f) => {
                    let _ = fleet.admit(e.at, e.vm, f);
                }
                ChurnOp::Teardown => {
                    let _ = fleet.teardown(e.at, e.vm);
                }
                ChurnOp::Resize(f) => {
                    let _ = fleet.resize(e.at, e.vm, f);
                }
            }
        }
        fleet.step(now);
        epochs += 1;
        // Invariant 1: conservation, every epoch, under live chaos.
        if let Err(err) = fleet.check_conservation() {
            panic!("conservation violated at {now} (seed {seed}, intensity {intensity}): {err}");
        }
    }

    // Invariant 2: past the horizon the fleet converges — every pending
    // crash window fires, every outage ends, every displaced VM re-places.
    let mut convergence_epochs = 0u64;
    loop {
        let settled = fleet.displaced() == 0
            && fleet
                .states()
                .iter()
                .all(|s| !matches!(s, HostState::Down { .. }));
        if settled {
            break;
        }
        assert!(
            convergence_epochs < CONVERGENCE_EPOCHS,
            "fleet failed to converge within {CONVERGENCE_EPOCHS} epochs past the horizon \
             (seed {seed}, intensity {intensity}): {} displaced, states {:?}",
            fleet.displaced(),
            fleet.states(),
        );
        now += CONTROL_EPOCH;
        convergence_epochs += 1;
        fleet.step(now);
        if let Err(err) = fleet.check_conservation() {
            panic!(
                "conservation violated during drain at {now} \
                 (seed {seed}, intensity {intensity}): {err}"
            );
        }
    }

    // Host simulators run only when the control plane acts on them: catch
    // every host up to the last epoch before reading the batching counters
    // (the ledger books the catch-up under `host_sims`).
    fleet.settle();
    let counters = *fleet.counters();
    if intensity == 0.0 {
        assert_eq!(counters.crashes, 0, "crashes on a pristine fleet");
        assert_eq!(counters.evacuated_vms, 0, "evacuations on a pristine fleet");
        assert_eq!(
            counters.install_retries, 0,
            "storm retries on a pristine fleet"
        );
        assert_eq!(
            counters.corruptions_injected, 0,
            "corruptions on a pristine fleet"
        );
        assert!(counters.admissions > 0, "churn admitted nothing");
        assert!(counters.installs > 0, "no table ever installed");
    } else {
        // Invariant 3: every corruption the chaos schedule lands on a live
        // host is flagged by the continuous audit — none survive
        // undetected (a crash may discard one before it is counted), and
        // the audit never cries wolf.
        assert!(
            counters.corruptions_injected > 0,
            "chaos preset injected no corruptions (seed {seed}, intensity {intensity})"
        );
        assert_eq!(
            counters.corruptions_detected + counters.corruptions_lost_to_crash,
            counters.corruptions_injected,
            "undetected table corruption (seed {seed}, intensity {intensity})"
        );
    }
    assert_eq!(
        counters.audit_false_positives, 0,
        "audit false positive (seed {seed}, intensity {intensity})"
    );

    let hist = fleet.admit_to_install();
    let stats = fleet.cache().stats();
    FleetPoint {
        seed,
        intensity,
        epochs,
        counters,
        rungs: *fleet.rungs(),
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        batch: fleet.batch_stats(),
        step_phases: StepLedger::new(fleet.step_phases()),
        live_vms_final: fleet.live_vms(),
        convergence_epochs,
        admit_samples: hist.count(),
        admit_p50_ms: hist.quantile(0.5).map(|v| v.as_millis_f64()),
        admit_p99_ms: hist.p99().map(|v| v.as_millis_f64()),
        admit_p99_ns: hist.p99().map(|v| v.as_nanos()),
        admit_max_ms: hist.max().as_millis_f64(),
    }
}

/// Runs the fleet matrix and measures every cell, with no I/O side
/// effects. Tests exercise this directly; only [`run_with_seed`] writes
/// the artifacts.
pub fn sweep(quick: bool, seed: u64) -> FleetReport {
    sweep_timed(quick, seed).0
}

/// [`sweep`] plus the wall-clock of replaying the cells — and only that:
/// stamping the provenance spawns `git`, whose cost is not the fleet's.
fn sweep_timed(quick: bool, seed: u64) -> (FleetReport, std::time::Duration) {
    let (n_hosts, duration) = cell_shape(quick);
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
    // One cell at a time: each carries wall-clock columns (`step_phases`)
    // and their sum is `fleet/wall_per_admission`, which two cells sharing
    // the box would halve with no work saved.
    let t0 = Instant::now();
    let mut points = Vec::new();
    for &s in &seeds {
        for &i in intensities {
            points.push(measure(n_hosts, s, i, duration));
        }
    }
    let wall = t0.elapsed();
    let report = FleetReport {
        meta: FleetMeta {
            quick,
            hosts: n_hosts,
            cores_per_host: 2,
            duration_ms: duration.as_millis_f64(),
            control_epoch_ms: CONTROL_EPOCH.as_millis_f64(),
            convergence_epochs: CONVERGENCE_EPOCHS,
            arrivals_per_sec: arrival_rate(n_hosts),
            seeds,
            intensities: intensities.to_vec(),
            git_rev: git_rev(),
        },
        points,
    };
    (report, wall)
}

/// Builds the `BENCH_fleet.json` snapshot from a finished sweep
/// ([`micro_entries`] adds the per-phase rows). Every row is wall clock;
/// the simulated admission-to-install latencies stay in
/// `results/fleet.json`.
///
/// * `fleet/wall_per_admission` — ns of the whole replay divided by
///   admissions; admissions/sec = 1e9 / mean_ns.
fn bench(quick: bool, seed: u64, report: &FleetReport, wall_ns: u64) -> BenchSnapshot {
    let admissions: u64 = report
        .points
        .iter()
        .map(|p| p.counters.admissions)
        .sum::<u64>()
        .max(1);
    BenchSnapshot {
        meta: crate::bench_snapshot::meta(quick, seed),
        entries: vec![BenchEntry {
            name: "fleet/wall_per_admission".to_string(),
            iters: admissions,
            total_ns: wall_ns,
            mean_ns: wall_ns as f64 / admissions as f64,
        }],
    }
}

/// The `Fleet::step` phase rows of `BENCH_fleet.json` (wall clock, read off
/// the [`StepPhases`] ledger or timed around the public calls):
/// * `fleet/audit_shared_320` — one audit pass over 320 hosts whose
///   dispatchers all point at one table image (the boot image): per host a
///   pointer read and a compare, the facts derived once.
/// * `fleet/audit_distinct_320` — the same pass with every host on a table
///   of its own: each host's installed copy is corrupted (a private copy by
///   construction) under an install storm that interrupts every repair, so
///   the facts are derived 320 times — the sharing's worst case, and what
///   a per-host audit of private copies costs.
/// * `fleet/reboot` — crash plus restart of the one host of a one-host
///   fleet, timed around the crash and the step that restarts it: a reboot
///   takes the boot image from the store and builds no table, and the new
///   simulator does not run in that step (nothing acts on it).
fn micro_entries(quick: bool) -> Vec<BenchEntry> {
    let steps: u64 = if quick { 40 } else { 400 };
    let entry = |name: &str, iters: u64, total_ns: u64| BenchEntry {
        name: name.to_string(),
        iters,
        total_ns,
        mean_ns: total_ns as f64 / iters as f64,
    };
    let audit = |name: &str, distinct: bool| {
        let mut fleet = Fleet::new(FleetConfig::new(320, 2)).expect("probe-only boot plan");
        if distinct {
            // One storm from the first nanosecond on, every install inside
            // it interrupted; every host corrupted within 150 ms and
            // roughly every 100 ms after.
            let faults = HostFaultConfig {
                seed: DEFAULT_SEED,
                storm: xensim::fault::InstallStormFaults {
                    interval: Nanos(2),
                    duration: Nanos::from_secs(7_200),
                    interrupt_prob: 1.0,
                },
                corruption: xensim::fault::TableCorruptionFaults {
                    interval: Nanos::from_millis(100),
                    prob: 1.0,
                },
                ..HostFaultConfig::none()
            };
            fleet.arm_faults(faults, Nanos::from_secs(3_600));
        }
        let mut now = Nanos::ZERO;
        let mut run = |fleet: &mut Fleet, n: u64| {
            for _ in 0..n {
                now += CONTROL_EPOCH;
                fleet.step(now);
            }
        };
        run(&mut fleet, 8);
        let before = fleet.step_phases().audit_ns;
        run(&mut fleet, steps);
        let c = fleet.counters();
        assert_eq!(c.audit_false_positives, 0);
        assert_eq!(c.corruptions_detected, c.corruptions_injected);
        if distinct {
            assert!(c.corruptions_injected >= 320 && c.installs == 0);
        }
        entry(name, steps, fleet.step_phases().audit_ns - before)
    };
    let reboot = {
        let mut fleet = Fleet::new(FleetConfig::new(1, 2)).expect("probe-only boot plan");
        let mut now = Nanos::ZERO;
        let t0 = Instant::now();
        for _ in 0..steps {
            fleet.inject_crash(0, now, now + Nanos(1));
            now += CONTROL_EPOCH;
            fleet.step(now);
        }
        let total = t0.elapsed().as_nanos() as u64;
        assert_eq!(fleet.counters().restarts, steps);
        entry("fleet/reboot", steps, total)
    };
    vec![
        audit("fleet/audit_shared_320", false),
        audit("fleet/audit_distinct_320", true),
        reboot,
    ]
}

/// Prints where `Fleet::step`'s wall-clock went, summed over all cells.
fn print_step_phases(report: &FleetReport) {
    let ledgers = || report.points.iter().map(|p| &p.step_phases);
    let total: u64 = ledgers().map(|l| l.total_ns).sum();
    let steps: u64 = ledgers().map(|l| l.steps).sum();
    let mut by_phase: Vec<(&str, u64)> = Vec::new();
    for ledger in ledgers() {
        for (k, ph) in ledger.phases.iter().enumerate() {
            if k == by_phase.len() {
                by_phase.push((ph.phase, 0));
            }
            by_phase[k].1 += ph.ns;
        }
    }
    let rows: Vec<Vec<String>> = by_phase
        .iter()
        .map(|&(phase, ns)| {
            vec![
                phase.to_string(),
                format!("{:.1}", ns as f64 / 1e6),
                format!("{:.1}", 100.0 * ns as f64 / total.max(1) as f64),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Fleet::step phases (wall clock): {steps} steps, {:.0} us/step",
            total as f64 / 1e3 / steps.max(1) as f64
        ),
        &["phase", "wall (ms)", "share (%)"],
        &rows,
    );
}

/// Runs the fleet chaos soak with the default seed.
pub fn run(quick: bool) -> bool {
    run_with_seed(quick, DEFAULT_SEED)
}

/// Runs the soak, prints the table, writes `results/fleet.json`, and
/// refreshes (`full`) or gates (`--quick`) `BENCH_fleet.json`. Returns
/// `false` when the quick regression gate tripped.
pub fn run_with_seed(quick: bool, seed: u64) -> bool {
    let (report, wall) = sweep_timed(quick, seed);

    let rows: Vec<Vec<String>> = report
        .points
        .iter()
        .map(|p| {
            vec![
                p.seed.to_string(),
                format!("{:.2}", p.intensity),
                p.counters.admissions.to_string(),
                p.counters.admissions_shed.to_string(),
                p.counters.crashes.to_string(),
                p.counters.evacuated_vms.to_string(),
                p.counters.parked.to_string(),
                p.counters.installs.to_string(),
                p.counters.install_retries.to_string(),
                p.convergence_epochs.to_string(),
                p.admit_p99_ms
                    .map_or_else(|| "-".to_string(), |v| format!("{v:.2}")),
            ]
        })
        .collect();
    print_table(
        "Fleet chaos soak: SAP churn over simulated hosts with crash/storm injection",
        &[
            "seed",
            "intensity",
            "admitted",
            "shed",
            "crashes",
            "evacuated",
            "parked",
            "installs",
            "retries",
            "conv. epochs",
            "p99 (ms)",
        ],
        &rows,
    );
    print_step_phases(&report);
    write_json("fleet", &report);

    let mut snap = bench(quick, seed, &report, wall.as_nanos() as u64);
    let micro = micro_entries(quick);
    for e in &micro {
        println!("[fleet] {}: {:.2} us", e.name, e.mean_ns / 1e3);
    }
    snap.entries.extend(micro);
    let wall_entry = snap
        .entries
        .iter()
        .find(|e| e.name == "fleet/wall_per_admission")
        .expect("the wall-clock entry is always emitted");
    let zero = report
        .points
        .iter()
        .find(|p| p.intensity == 0.0 && p.seed == seed)
        .expect("the sweep always includes a zero-intensity primary-seed cell");
    println!(
        "[fleet] {:.0} admissions/sec wall, p99 admit-to-install {} simulated",
        1e9 / wall_entry.mean_ns,
        zero.admit_p99_ns.map_or_else(
            || "unmeasured".to_string(),
            |ns| format!("{:.2} ms", ns as f64 / 1e6)
        ),
    );
    if quick {
        let dir = std::env::temp_dir().join("tableau-bench-quick");
        write_json_to(&dir, "BENCH_fleet", &snap);
        let committed = crate::bench_snapshot::bench_dir().join("BENCH_fleet.json");
        crate::bench_snapshot::gate_against(&snap, &committed).report(&committed)
    } else {
        write_json_to(&crate::bench_snapshot::bench_dir(), "BENCH_fleet", &snap);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_json(p: FleetPoint) -> String {
        serde_json::to_string_pretty(&p.model_only()).unwrap()
    }

    #[test]
    fn zero_intensity_cell_is_byte_identical_to_faultless() {
        // `fleet_chaos(seed, 0.0)` installs no engine; the epoch-driven
        // control loop on top must replay the pristine run bit-for-bit.
        let zeroed = measure(6, DEFAULT_SEED, 0.0, Nanos::from_secs(1));
        let clean = measure_faultless(6, DEFAULT_SEED, Nanos::from_secs(1));
        assert_eq!(zeroed.counters.crashes, 0);
        assert_eq!(zeroed.convergence_epochs, 0);
        assert!(zeroed.admit_samples > 0);
        assert_eq!(
            model_json(zeroed),
            model_json(clean),
            "zero-intensity fleet cell diverged from the faultless baseline"
        );
    }

    #[test]
    fn full_intensity_cell_is_deterministic_per_seed() {
        let a = measure(8, 7, 1.0, Nanos::from_secs(3));
        let b = measure(8, 7, 1.0, Nanos::from_secs(3));
        assert_eq!(
            model_json(a),
            model_json(b),
            "fleet cell is not deterministic per (seed, intensity)"
        );
    }

    #[test]
    fn chaos_cell_crashes_evacuates_and_converges() {
        let p = measure(8, DEFAULT_SEED, 1.0, Nanos::from_secs(4));
        assert!(p.counters.crashes > 0, "no host crash injected");
        assert!(p.counters.evacuated_vms > 0, "no VM ever evacuated");
        assert!(p.counters.restarts > 0, "no host ever restarted");
        assert!(p.counters.installs > 0, "no table ever installed");
        assert!(
            p.convergence_epochs <= CONVERGENCE_EPOCHS,
            "convergence took {} epochs",
            p.convergence_epochs
        );
        // Rung provenance is populated: placement planned through the
        // shared cache and the delta patcher (and possibly the ladder).
        assert!(p.rungs.cache_hit + p.rungs.cache_plan + p.rungs.delta > 0);
    }

    #[test]
    fn quick_sweep_covers_the_grid() {
        let report = sweep(true, DEFAULT_SEED);
        assert!(report.meta.quick);
        assert_eq!(report.meta.seeds, vec![DEFAULT_SEED]);
        assert_eq!(report.points.len(), QUICK_INTENSITIES.len());
        for p in &report.points {
            assert_eq!(p.seed, DEFAULT_SEED);
            assert!(p.counters.admissions > 0);
            if p.intensity == 0.0 {
                assert_eq!(p.counters.crashes, 0);
            } else {
                assert!(p.counters.crashes > 0, "full-intensity cell saw no crash");
            }
            // The phase ledger closes: one entry per step, and the phases
            // account for the measured step wall-clock.
            let ledger = &p.step_phases;
            assert_eq!(ledger.steps, p.epochs + p.convergence_epochs);
            let attributed: u64 = ledger.phases.iter().map(|ph| ph.ns).sum();
            assert!(
                attributed <= ledger.total_ns && attributed * 100 >= ledger.total_ns * 95,
                "phases sum to {attributed} ns of {} ns measured",
                ledger.total_ns
            );
        }
        let snap = bench(true, DEFAULT_SEED, &report, 1_000_000);
        assert_eq!(snap.entries.len(), 1);
        assert!(snap.entries.iter().all(|e| e.iters > 0 && e.mean_ns > 0.0));
    }

    #[test]
    fn fleet_bench_rows_are_wall_clock_only() {
        // Simulated latencies are model output, not host time: they stay
        // in the artifact, whether or not a cell measured any, and the
        // wall-clock snapshot carries none of them.
        let measured = measure(2, DEFAULT_SEED, 0.0, Nanos::from_secs(1));
        assert!(measured.admit_p99_ns.is_some());
        let mut p = measured.clone();
        p.admit_samples = 0;
        p.admit_p50_ms = None;
        p.admit_p99_ms = None;
        p.admit_p99_ns = None;
        let report = FleetReport {
            meta: FleetMeta {
                quick: true,
                hosts: 2,
                cores_per_host: 2,
                duration_ms: 1_000.0,
                control_epoch_ms: CONTROL_EPOCH.as_millis_f64(),
                convergence_epochs: CONVERGENCE_EPOCHS,
                arrivals_per_sec: 0.0,
                seeds: vec![DEFAULT_SEED],
                intensities: vec![0.0],
                git_rev: String::new(),
            },
            points: vec![measured, p],
        };
        let snap = bench(true, DEFAULT_SEED, &report, 1_000_000);
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["fleet/wall_per_admission"]);
    }
}
