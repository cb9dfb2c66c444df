//! Mutation-kill harness for the verification stack (`experiments audit`).
//!
//! Plans a realistic host, then injects every [`CorruptionKind`] into the
//! resulting table — many seeded mutants per class — and scores the two
//! defense layers:
//!
//! * **audit**: the [`TableFacts`] of the clean table must differ from
//!   those of *every* mutant (100% detection; the fingerprints cover the
//!   exact bytes, so any surviving mutant is a bug in the facts);
//! * **verifier**: how many mutants the full verifier rejects as
//!   schedules. A corrupted table can legitimately still *be* a valid
//!   schedule (e.g. swapping two identical vCPUs), so this layer is not
//!   required to flag every mutant.
//!
//! `--quick` injects each class once (the CI smoke gate); full mode runs
//! [`TRIALS`] mutants per class on a paper-scale host and writes the
//! `results/audit.json` artifact.

use serde::Serialize;

use rtsched::schedule::{CoreSchedule, MultiCoreSchedule, Segment};
use rtsched::task::{PeriodicTask, TaskId};
use rtsched::verify::verify_schedule;
use tableau_core::audit::{corrupt_table, CorruptionKind, TableFacts};
use tableau_core::planner::{plan, Plan, PlannerOptions};
use tableau_core::table::Table;
use tableau_core::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};

use crate::report::{git_rev, print_table, write_json};

/// Mutants injected per corruption class in full mode.
pub const TRIALS: u64 = 32;

/// Salt attempts allowed per accepted mutant before the harness gives up
/// (some salts are no-ops — e.g. a swap that picks one vCPU twice).
const SALT_TRIES_PER_MUTANT: u64 = 64;

/// Run provenance for `results/audit.json`.
#[derive(Debug, Clone, Serialize)]
pub struct AuditMeta {
    /// True for the reduced `--quick` smoke configuration.
    pub quick: bool,
    /// Base salt offset for the mutant streams.
    pub seed: u64,
    /// Cores / VMs of the planned host the mutants corrupt.
    pub host_cores: usize,
    /// Number of tenant VMs on the host.
    pub host_vms: usize,
    /// `git rev-parse --short HEAD`, or `"unknown"`.
    pub git_rev: String,
}

/// Kill statistics for one corruption class.
#[derive(Debug, Clone, Serialize)]
pub struct AuditClassRow {
    /// The corruption class (`bit_flip_slot` / `swap_placement` /
    /// `stale_stamp`).
    pub class: String,
    /// Mutants injected.
    pub injected: u64,
    /// Mutants the table audit flagged (must equal `injected`).
    pub audit_kills: u64,
    /// Mutants the full verifier rejected as schedules (informational:
    /// a mutant can remain a valid schedule).
    pub verifier_flags: u64,
}

/// The `results/audit.json` artifact.
#[derive(Debug, Clone, Serialize)]
pub struct AuditReport {
    /// Run provenance.
    pub meta: AuditMeta,
    /// One row per corruption class.
    pub rows: Vec<AuditClassRow>,
    /// Fraction of mutants killed by the audit layer (must be 1.0).
    pub detection_rate: f64,
}

impl AuditReport {
    /// Whether every mutant was audited out.
    pub fn all_killed(&self) -> bool {
        self.rows.iter().all(|r| r.audit_kills == r.injected)
    }
}

/// The host whose table the mutants corrupt: paper-scale in full mode, a
/// small host for the smoke gate.
fn harness_host(quick: bool) -> (HostConfig, usize, usize) {
    let (cores, vms) = if quick { (8, 32) } else { (44, 176) };
    let mut h = HostConfig::new(cores);
    let spec = VcpuSpec::capped(
        Utilization::from_percent(25),
        rtsched::time::Nanos::from_millis(20),
    );
    for i in 0..vms {
        h.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
    }
    (h, cores, vms)
}

/// Converts a dispatch table back into the rtsched schedule the verifier
/// reasons about: one segment per allocation, vCPU ids as task ids.
fn table_schedule(table: &Table) -> MultiCoreSchedule {
    MultiCoreSchedule {
        hyperperiod: table.len(),
        cores: (0..table.n_cores())
            .map(|c| {
                let segs = table
                    .cpu(c)
                    .allocations()
                    .map(|a| Segment::new(a.start, a.end, TaskId(a.vcpu.0)))
                    .collect();
                CoreSchedule::from_segments(segs)
                    .expect("table allocations are sorted and disjoint")
            })
            .collect(),
    }
}

/// The *clean* plan's vCPUs as rtsched tasks, core by core in home order.
fn table_tasks(p: &Plan, table: &Table) -> Vec<PeriodicTask> {
    (0..table.n_cores())
        .flat_map(|c| table.vcpus_homed_on(c))
        .map(|&v| {
            let params = p.params_of(v).expect("homed vcpu was planned");
            PeriodicTask::implicit(TaskId(v.0), params.cost, params.period)
        })
        .collect()
}

/// Runs the harness and builds the report (no printing, no artifact).
pub fn evaluate(quick: bool, seed: u64) -> AuditReport {
    let (host, host_cores, host_vms) = harness_host(quick);
    let p = plan(&host, &PlannerOptions::default()).expect("harness host plans");
    let clean = p.table.clone();
    let tasks = table_tasks(&p, &clean);
    let baseline = TableFacts::derive(&clean);

    // The clean table must re-verify before any mutant is scored, or every
    // flag below would be meaningless.
    assert!(
        verify_schedule(&tasks, &table_schedule(&clean)).is_empty(),
        "clean table re-verifies"
    );

    let trials = if quick { 1 } else { TRIALS };
    let rows = CorruptionKind::ALL
        .map(|kind| {
            let mut row = AuditClassRow {
                class: kind.to_string(),
                injected: 0,
                audit_kills: 0,
                verifier_flags: 0,
            };
            let mut salt = seed;
            for _ in 0..trials {
                let bad = (0..SALT_TRIES_PER_MUTANT)
                    .find_map(|_| {
                        let t = corrupt_table(&clean, kind, salt);
                        salt = salt.wrapping_add(1);
                        t
                    })
                    .expect("a non-empty table always yields a mutant");
                row.injected += 1;
                row.audit_kills += u64::from(baseline != TableFacts::derive(&bad));
                row.verifier_flags +=
                    u64::from(!verify_schedule(&tasks, &table_schedule(&bad)).is_empty());
            }
            row
        })
        .to_vec();

    let injected: u64 = rows.iter().map(|r| r.injected).sum();
    let killed: u64 = rows.iter().map(|r| r.audit_kills).sum();
    AuditReport {
        meta: AuditMeta {
            quick,
            seed,
            host_cores,
            host_vms,
            git_rev: git_rev(),
        },
        rows,
        detection_rate: killed as f64 / injected.max(1) as f64,
    }
}

/// Prints the kill table, writes `results/audit.json` (full mode only),
/// and returns whether every mutant was killed — the CI gate.
pub fn run_with_seed(quick: bool, seed: u64) -> bool {
    let report = evaluate(quick, seed);
    let rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.class.clone(),
                r.injected.to_string(),
                r.audit_kills.to_string(),
                r.verifier_flags.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "mutation kill: table audit + verifier ({}x{} host, detection {:.0}%)",
            report.meta.host_cores,
            report.meta.host_vms,
            report.detection_rate * 100.0
        ),
        &["class", "injected", "audit_kills", "verifier_flags"],
        &rows,
    );
    if !quick {
        write_json("audit", &report);
    }
    let ok = report.all_killed();
    if !ok {
        eprintln!("error: a corruption mutant survived (see table above)");
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_harness_kills_every_mutant() {
        let report = evaluate(true, 42);
        assert!(report.all_killed(), "{:?}", report.rows);
        assert_eq!(report.detection_rate, 1.0);
        assert_eq!(report.rows.len(), 3);
        for row in &report.rows {
            assert_eq!(row.injected, 1, "{}", row.class);
        }
    }

    #[test]
    fn kills_are_seed_independent() {
        // Several disjoint salt streams: detection may never depend on
        // which slots the mutant happened to hit.
        for seed in [0, 7, 1_000_003] {
            let report = evaluate(true, seed);
            assert!(report.all_killed(), "seed {seed}: {:?}", report.rows);
        }
    }

    #[test]
    fn report_serializes() {
        let report = evaluate(true, 1);
        let text = serde_json::to_string_pretty(&report).unwrap();
        assert!(text.contains("bit_flip_slot"));
        assert!(text.contains("detection_rate"));
    }
}
