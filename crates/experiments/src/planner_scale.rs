//! Figs. 3 & 4: table-generation time and table size vs. number of VMs.
//!
//! The paper stresses the planner on the 48-core machine: 44 guest cores,
//! up to four VMs per core (176 VMs), with every VM assigned one of four
//! latency goals (1 ms, 30 ms, 60 ms, 100 ms). Fig. 3 reports generation
//! time (their Python planner: up to ~2 s); Fig. 4 reports the compiled
//! table size (up to ~1.2 MiB, dominated by the 1 ms goal, whose short
//! periods produce many allocations and fine slices).
//!
//! Absolute times differ (this planner is compiled Rust, the paper's is
//! Python on SchedCAT); the *shapes* to reproduce are: time grows with VM
//! count, the 1 ms goal is by far the most expensive, and table size is
//! dominated by the 1 ms goal while the others nearly coincide.
//!
//! Since v2 the artifact also records a per-stage wall-clock breakdown
//! (pack / simulate / coalesce / verify / slice-build) from
//! [`plan_timed`], plus provenance metadata. The generator's simulate-once
//! memo is what keeps the 1 ms column cheap: every bin of these hosts has
//! the same few shapes, so EDF runs once per shape, not once per core.

use serde::Serialize;

use rtsched::time::Nanos;
use tableau_core::binary::encoded_size;
use tableau_core::planner::{plan_timed, PlannerOptions};
use tableau_core::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};

use crate::report::{git_rev, print_table, write_json};

/// One measurement point for Figs. 3–4.
#[derive(Debug, Clone, Serialize)]
pub struct PlannerPoint {
    /// Number of single-vCPU VMs planned for.
    pub n_vms: usize,
    /// The latency goal shared by all VMs, in milliseconds.
    pub latency_goal_ms: u64,
    /// Mean wall-clock table-generation time in milliseconds.
    pub gen_time_ms: f64,
    /// Mean time in SLA translation + bin packing (and C=D splitting).
    pub pack_ms: f64,
    /// Mean time simulating EDF / DP-Fair into per-core schedules.
    pub simulate_ms: f64,
    /// Mean time coalescing sliver allocations.
    pub coalesce_ms: f64,
    /// Mean time verifying the generated schedule and scanning blackouts.
    pub verify_ms: f64,
    /// Mean time compiling per-core slice lookup tables.
    pub slice_build_ms: f64,
    /// Compiled (binary) table size in bytes.
    pub table_bytes: usize,
    /// Which generation stage succeeded.
    pub stage: String,
}

/// Provenance for the planner-scale artifact.
#[derive(Debug, Clone, Serialize)]
pub struct PlannerScaleMeta {
    /// Artifact schema tag.
    pub schema: String,
    /// Whether this was a `--quick` run (reduced grid, one rep).
    pub quick: bool,
    /// Repetitions averaged per cell.
    pub reps: usize,
    /// Cores visible to the process.
    pub machine_cores: usize,
    /// Worker threads the timed cells ran on: always 1, the cells run one
    /// at a time on the calling thread.
    pub threads: usize,
    /// Git revision the numbers were produced at.
    pub git_rev: String,
}

/// The artifact written to `results/fig3_fig4_planner_scale.json`.
#[derive(Debug, Clone, Serialize)]
pub struct PlannerScaleArtifact {
    /// Provenance metadata.
    pub meta: PlannerScaleMeta,
    /// The sweep, goal-major then VM count.
    pub points: Vec<PlannerPoint>,
}

/// The paper's latency goals.
pub const GOALS_MS: [u64; 4] = [1, 30, 60, 100];

/// Artifact schema tag (v2 added per-stage timings + meta).
pub const SCHEMA: &str = "tableau-planner-scale-v2";

/// Builds the Fig. 3/4 host: `n_vms` single-vCPU VMs at 25% on 44 cores.
fn host(n_vms: usize, goal: Nanos) -> HostConfig {
    let mut h = HostConfig::new(44);
    let spec = VcpuSpec::capped(Utilization::from_percent(25), goal);
    for i in 0..n_vms {
        h.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
    }
    h
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Measures every cell of the planner-scalability sweep, with no I/O side
/// effects (tests call this; only [`run`] writes the artifact, so `cargo
/// test` never overwrites the tracked `results/` JSON with quick-mode
/// timings).
pub fn sweep(quick: bool) -> Vec<PlannerPoint> {
    let counts: Vec<usize> = if quick {
        vec![44, 176]
    } else {
        vec![22, 44, 66, 88, 110, 132, 154, 176]
    };
    let reps = if quick { 1 } else { 5 };
    let opts = PlannerOptions::default();

    // One cell at a time: `gen_time_ms` and the stage breakdown are
    // wall-clock (the paper's Fig. 3/4), and a cell timed while another
    // runs on the next core measures the contention, not the planner.
    let measure = |goal_ms: u64, n: usize| {
        let h = host(n, Nanos::from_millis(goal_ms));
        let mut total = std::time::Duration::ZERO;
        let mut stages = [std::time::Duration::ZERO; 5];
        let mut last = None;
        for _ in 0..reps {
            let t0 = std::time::Instant::now();
            let (p, t) = plan_timed(&h, &opts).expect("paper shape must plan");
            total += t0.elapsed();
            for (acc, d) in
                stages
                    .iter_mut()
                    .zip([t.pack, t.simulate, t.coalesce, t.verify, t.slice_build])
            {
                *acc += d;
            }
            last = Some(p);
        }
        let p = last.expect("at least one rep");
        let r = reps as f64;
        PlannerPoint {
            n_vms: n,
            latency_goal_ms: goal_ms,
            gen_time_ms: ms(total) / r,
            pack_ms: ms(stages[0]) / r,
            simulate_ms: ms(stages[1]) / r,
            coalesce_ms: ms(stages[2]) / r,
            verify_ms: ms(stages[3]) / r,
            slice_build_ms: ms(stages[4]) / r,
            table_bytes: encoded_size(&p.table),
            stage: format!("{:?}", p.stage),
        }
    };
    // Goal-major, then VM count.
    let mut points = Vec::new();
    for &goal_ms in &GOALS_MS {
        for &n in &counts {
            points.push(measure(goal_ms, n));
        }
    }
    points
}

/// Runs the planner-scalability experiment: sweep, table, JSON artifact
/// with provenance meta.
pub fn run(quick: bool) -> Vec<PlannerPoint> {
    let points = sweep(quick);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.n_vms.to_string(),
                p.latency_goal_ms.to_string(),
                format!("{:.3}", p.gen_time_ms),
                format!("{:.3}", p.pack_ms),
                format!("{:.3}", p.simulate_ms),
                format!("{:.3}", p.coalesce_ms),
                format!("{:.3}", p.verify_ms),
                format!("{:.3}", p.slice_build_ms),
                format!("{:.3}", p.table_bytes as f64 / (1024.0 * 1024.0)),
                p.stage.clone(),
            ]
        })
        .collect();
    print_table(
        "Fig. 3 & 4: table-generation time and size (44 guest cores)",
        &[
            "VMs",
            "goal(ms)",
            "gen(ms)",
            "pack",
            "simulate",
            "coalesce",
            "verify",
            "slices",
            "size(MiB)",
            "stage",
        ],
        &rows,
    );
    let artifact = PlannerScaleArtifact {
        meta: PlannerScaleMeta {
            schema: SCHEMA.to_string(),
            quick,
            reps: if quick { 1 } else { 5 },
            machine_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: 1,
            git_rev: git_rev(),
        },
        points,
    };
    write_json("fig3_fig4_planner_scale", &artifact);
    artifact.points
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableau_core::planner::plan;

    #[test]
    fn quick_run_has_expected_shape() {
        // `sweep`, not `run`: no artifact write from under `cargo test`.
        let pts = sweep(true);
        assert_eq!(pts.len(), GOALS_MS.len() * 2);
        // Time grows with VM count for the 1 ms goal (the expensive one).
        let t44 = pts
            .iter()
            .find(|p| p.latency_goal_ms == 1 && p.n_vms == 44)
            .unwrap();
        let t176 = pts
            .iter()
            .find(|p| p.latency_goal_ms == 1 && p.n_vms == 176)
            .unwrap();
        assert!(t176.gen_time_ms > t44.gen_time_ms * 1.5);
        // The 1 ms table dwarfs the 100 ms table.
        let s1 = pts
            .iter()
            .find(|p| p.latency_goal_ms == 1 && p.n_vms == 176)
            .unwrap()
            .table_bytes;
        let s100 = pts
            .iter()
            .find(|p| p.latency_goal_ms == 100 && p.n_vms == 176)
            .unwrap()
            .table_bytes;
        assert!(s1 > 5 * s100, "1 ms: {s1} B vs 100 ms: {s100} B");
        // The per-stage breakdown is populated and nests inside the total.
        for p in &pts {
            let parts = p.pack_ms + p.simulate_ms + p.coalesce_ms + p.verify_ms + p.slice_build_ms;
            assert!(parts > 0.0, "no stage time recorded for {p:?}");
            assert!(
                parts <= p.gen_time_ms * 1.01 + 0.1,
                "stage times ({parts:.3} ms) exceed the total ({:.3} ms)",
                p.gen_time_ms
            );
        }
    }

    #[test]
    fn relaxed_goals_all_have_near_zero_size_on_the_figure_axis() {
        // Fig. 4: "All but the 1 ms curve overlap" — on a MiB-scale axis
        // the 30/60/100 ms tables are all indistinguishable from zero while
        // the 1 ms table is orders of magnitude larger.
        let opts = PlannerOptions::default();
        let size = |g: u64| {
            let p = plan(&host(88, Nanos::from_millis(g)), &opts).unwrap();
            encoded_size(&p.table)
        };
        let tight = size(1);
        for g in [30u64, 60, 100] {
            let s = size(g);
            assert!(
                s * 5 < tight,
                "goal {g} ms table ({s} B) not dwarfed by 1 ms table ({tight} B)"
            );
        }
    }
}
