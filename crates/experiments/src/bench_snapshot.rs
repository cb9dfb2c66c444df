//! `bench snapshot`: the tracked perf trajectory.
//!
//! This module times the three planner stages through the full [`plan`]
//! entry point, the [`SharedPlanCache`] hit and miss paths, and the
//! dispatcher's [`Dispatcher::decide`]/wake-up/table-switch hot paths —
//! each row on the calling thread, one at a time — then writes
//! `BENCH_planner.json` and `BENCH_dispatch.json` at the repo root.
//!
//! Those files are committed: each PR that lands a perf-relevant change
//! reruns `experiments bench snapshot` and commits the refreshed numbers,
//! so the trajectory is readable from git history alone. The `meta` block
//! (schema tag, seed, machine cores, worker threads, git rev) makes any
//! two snapshots comparable — or flags them as apples-to-oranges when the
//! machines differ. `--quick` runs a reduced iteration count, validates
//! the schema round-trip against a scratch directory without touching the
//! tracked files, and gates every entry against the committed snapshot:
//! a mean more than [`REGRESSION_FACTOR`]x the committed one fails the
//! run (the CI smoke path).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use rtsched::edf::simulate_edf;
use rtsched::generator::Stage;
use rtsched::hyperperiod::STANDARD_HYPERPERIOD;
use rtsched::schedule::{CoreSchedule, MultiCoreSchedule, Segment};
use rtsched::task::{PeriodicTask, TaskId};
use rtsched::time::Nanos;
use rtsched::verify::verify_schedule;
use schedulers::tableau::Tableau;
use tableau_core::cache::SharedPlanCache;
use tableau_core::dispatch::Dispatcher;
use tableau_core::planner::{
    period_for, plan, plan_with_fallback, DeltaReport, Plan, PlannerOptions,
};
use tableau_core::table::{Allocation, Table};
use tableau_core::vcpu::VcpuId;
use tableau_core::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};
use workloads::{IntrinsicLatency, IoStress};
use xensim::sched::BusyLoop;
use xensim::{EngineKind, Machine, Sim};

use crate::config::{build_scenario, Background, SchedKind};
use crate::report::{print_table, write_json_to};

/// Schema tag; bump when the snapshot format changes incompatibly.
pub const SCHEMA: &str = "tableau-bench-v1";

/// Provenance of a snapshot: everything needed to judge whether two
/// snapshots are comparable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchMeta {
    /// Format version ([`SCHEMA`]).
    pub schema: String,
    /// True for the reduced `--quick` configuration (never committed).
    pub quick: bool,
    /// Recorded sweep seed (the bench inputs themselves are fixed).
    pub seed: u64,
    /// Physical cores on the measuring host.
    pub machine_cores: usize,
    /// Worker threads the timed rows ran on: always 1 — nothing beneath
    /// the sim-only experiment sweeps spawns a thread.
    pub threads: usize,
    /// `git rev-parse --short HEAD`, or `"unknown"` outside a checkout.
    pub git_rev: String,
}

/// One timed hot path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Stable entry name (`area/path`), the join key across snapshots.
    pub name: String,
    /// Timed iterations (after one untimed warm-up).
    pub iters: u64,
    /// Total wall-clock for all iterations (ns).
    pub total_ns: u64,
    /// Mean per-iteration wall-clock (ns).
    pub mean_ns: f64,
}

/// A full snapshot artifact (`BENCH_planner.json` / `BENCH_dispatch.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchSnapshot {
    /// Run provenance.
    pub meta: BenchMeta,
    /// Timed entries, in a fixed order.
    pub entries: Vec<BenchEntry>,
}

fn time_entry<R>(name: &str, iters: u64, mut f: impl FnMut() -> R) -> BenchEntry {
    std::hint::black_box(f()); // warm-up: page in code and data
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let total = t0.elapsed();
    BenchEntry {
        name: name.to_string(),
        iters,
        total_ns: total.as_nanos() as u64,
        mean_ns: total.as_nanos() as f64 / iters as f64,
    }
}

/// `n_vms` single-vCPU VMs at `pct`% utilization with a 20 ms goal.
fn bench_host(n_cores: usize, n_vms: usize, pct: u32) -> HostConfig {
    bench_host_with_goal(n_cores, n_vms, pct, Nanos::from_millis(20))
}

/// `n_vms` single-vCPU VMs at `pct`% utilization with an explicit goal —
/// the paper-scale entries use the punishing 1 ms goal.
fn bench_host_with_goal(n_cores: usize, n_vms: usize, pct: u32, goal: Nanos) -> HostConfig {
    let mut h = HostConfig::new(n_cores);
    let spec = VcpuSpec::capped(Utilization::from_percent(pct), goal);
    for i in 0..n_vms {
        h.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
    }
    h
}

/// How many same-sized shapes the crowded cache rows keep in the index —
/// the length of the delta chain `e2ebench`'s `plan-ladder` replays.
const CROWD: u32 = 1_600;

/// One shape of the crowd: 31 identical resident VMs and a last VM only
/// `salt` tells apart, as consecutive shapes of a delta chain are. Equal
/// scalars, so before the content fingerprint all of them shared one bucket
/// and each probe compared its way through the 31 equal VMs of every
/// candidate.
fn crowd_host(salt: u32) -> HostConfig {
    let mut h = bench_host(16, 31, 25);
    let spec = VcpuSpec::capped(Utilization::from_ppm(50_000 + salt), Nanos::from_millis(20));
    h.add_vm(VmSpec::uniform("churned", 1, spec));
    h
}

/// Times a hit and an insert on a [`SharedPlanCache`] that has seen
/// [`CROWD`] same-sized shapes (the last 32 resident, the rest evicted).
fn crowded_cache_entries(iters: u64, opts: &PlannerOptions) -> [BenchEntry; 2] {
    // The plans' content is irrelevant to the index: one small plan stands
    // in for all of them.
    let stand_in = Arc::new(plan(&bench_host(2, 4, 25), opts).expect("stand-in plans"));
    let crowded = || {
        let c = SharedPlanCache::new(32);
        for salt in 0..CROWD {
            c.insert(&crowd_host(salt), opts, stand_in.clone());
        }
        c
    };
    let hit = {
        let c = crowded();
        let newest = crowd_host(CROWD - 1);
        time_entry("cache/hit_crowded", iters.max(100), move || {
            c.lookup(&newest, opts)
                .expect("the newest shape is resident")
        })
    };
    let insert = {
        let c = crowded();
        // A never-seen shape per call (warm-up included), built outside
        // the timed region.
        let n = iters.max(100);
        let fresh: Vec<HostConfig> = (CROWD..).map(crowd_host).take(n as usize + 1).collect();
        let mut next = 0;
        let stand_in = stand_in.clone();
        time_entry("cache/insert_crowded", n, move || {
            c.insert(&fresh[next], opts, stand_in.clone());
            next += 1;
        })
    };
    [hit, insert]
}

/// The `plan-ladder` cold shape: 44 cores, 176 single-vCPU VMs at the 1 ms
/// goal, every VM its own utilization (5–20 % of a core, `salt` shifts the
/// lot), so no two bins share a signature and no stamp ever applies.
fn unique_host_176(salt: u32) -> HostConfig {
    let mut host = HostConfig::new(44);
    for i in 0..176u32 {
        let spec = VcpuSpec::capped(
            Utilization::from_ppm(50_000 + (i * 7_919 + salt) % 150_000),
            Nanos::from_millis(1),
        );
        host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
    }
    host
}

/// Times [`simulate_edf`] on one bin of the paper's shape — four 25 % tasks
/// at the 1 ms goal over the standard hyperperiod: 156 periods, 624 jobs.
fn edf_bin_entry(iters: u64) -> BenchEntry {
    let spec = VcpuSpec::capped(Utilization::from_percent(25), Nanos::from_millis(1));
    let period = period_for(&spec);
    let cost = spec.utilization.budget_in(period);
    let bin: Vec<PeriodicTask> = (0..4)
        .map(|i| PeriodicTask::implicit(TaskId(i), cost, period))
        .collect();
    let horizon = STANDARD_HYPERPERIOD;
    time_entry("edf/bin_4x1ms", iters.max(100), || {
        simulate_edf(&bin, horizon).expect("a full bin is feasible")
    })
}

/// Replans `host` with `prev`, planned for `prev_host`, as the donor: the
/// plan and what the donor gave.
fn replan_from(
    prev_host: &HostConfig,
    prev: &Plan,
    host: &HostConfig,
    opts: &PlannerOptions,
) -> (Plan, DeltaReport) {
    let out = plan_with_fallback(Some((prev_host, prev)), host, opts).expect("the request plans");
    (out.plan, out.delta.expect("the previous plan donates"))
}

/// Times a delta replan between two all-unique 176-VM hosts: no bin of the
/// new host matches the old one's, so all 44 are re-simulated and spliced
/// — the delta rung's worst case, to be read against `plan/unique_176_1ms`
/// (a full plan of the same host, which the result is checked to equal).
fn delta_all_dirty_entry(iters: u64, opts: &PlannerOptions) -> BenchEntry {
    let (prev_host, host) = (unique_host_176(0), unique_host_176(4_001));
    let prev = plan(&prev_host, opts).expect("all-unique paper-scale host plans");
    let delta = || replan_from(&prev_host, &prev, &host, opts);
    let full = plan(&host, opts).expect("all-unique paper-scale host plans");
    assert!(delta().0 == full, "a delta result is the full plan");
    time_entry("plan/delta_all_dirty_176", iters, || {
        let (p, report) = delta();
        assert_eq!(report.dirty_cores.len(), 44, "every bin dirtied");
        p
    })
}

/// Times [`Table::new`] on the allocation lists of a 44-core plan whose 176
/// VMs all differ (1 ms goal): no stamped core, every slice index built.
/// The per-iteration clone of the input lists is inside the timed call
/// (the constructor takes them by value).
fn table_compile_entry(iters: u64, opts: &PlannerOptions) -> BenchEntry {
    let host = unique_host_176(0);
    let p = plan(&host, opts).expect("all-unique paper-scale host plans");
    let len = p.table.len();
    let per_core: Vec<Vec<Allocation>> = (0..p.table.n_cores())
        .map(|c| p.table.cpu(c).allocations().collect())
        .collect();
    time_entry("table/compile_176", iters, move || {
        Table::new(len, per_core.clone()).expect("planned lists compile")
    })
}

/// Times one full single-pass verify of a paper-scale schedule: 44 cores,
/// 4 tasks per core, 0.5 ms each over a 2 ms hyperperiod.
fn verify_full_entry(iters: u64) -> BenchEntry {
    let h = Nanos::from_millis(2);
    let q = h / 4;
    let tasks: Vec<PeriodicTask> = (0..176u32)
        .map(|id| PeriodicTask::implicit(TaskId(id), q, h))
        .collect();
    let sched = MultiCoreSchedule {
        hyperperiod: h,
        cores: (0..44u64)
            .map(|c| {
                let slots = (0..4u64)
                    .map(|i| Segment::new(q * i, q * (i + 1), TaskId((c * 4 + i) as u32)))
                    .collect();
                CoreSchedule::from_segments(slots).expect("valid core")
            })
            .collect(),
    };
    time_entry("verify/full_176", iters.max(100), || {
        let v = verify_schedule(&tasks, &sched);
        assert!(v.is_empty(), "bench schedule must be valid");
        v
    })
}

pub(crate) fn meta(quick: bool, seed: u64) -> BenchMeta {
    BenchMeta {
        schema: SCHEMA.to_string(),
        quick,
        seed,
        machine_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        threads: 1,
        git_rev: crate::report::git_rev(),
    }
}

/// Times the planner hot paths: the three generation stages (each through
/// the full `plan()` entry point) and the cache hit/miss paths.
pub fn planner_snapshot(quick: bool, seed: u64) -> BenchSnapshot {
    let iters: u64 = if quick { 2 } else { 20 };
    // An easily partitionable 4-per-core set, and a 60%-utilization set
    // that forces C=D splitting.
    let easy = bench_host(8, 32, 25);
    let split = bench_host(8, 13, 60);
    let paper = bench_host_with_goal(44, 176, 25, Nanos::from_millis(1));
    let paper_iters: u64 = if quick { 1 } else { 5 };
    let defaults = PlannerOptions::default();
    let mut clustered = PlannerOptions::default();
    clustered.gen.first_stage = Stage::Clustered;

    let verify_full = verify_full_entry(iters);
    let mut entries = vec![
        time_entry("plan/partitioned", iters, || {
            let p = plan(&easy, &defaults).expect("easy set plans");
            assert_eq!(p.stage, Stage::Partitioned);
            p
        }),
        time_entry("plan/semi_partitioned", iters, || {
            let p = plan(&split, &defaults).expect("split set plans");
            assert_eq!(p.stage, Stage::SemiPartitioned);
            p
        }),
        time_entry("plan/clustered", iters, || {
            plan(&split, &clustered).expect("clustered set plans")
        }),
        // The Fig. 3 stress cell: 176 VMs on 44 cores at the 1 ms goal —
        // the shape the memoized generator exists for (every bin shares one
        // signature). Few iterations: each run is milliseconds, not micro.
        time_entry("plan/partitioned_176", paper_iters, || {
            let p = plan(&paper, &defaults).expect("paper-scale set plans");
            assert_eq!(p.stage, Stage::Partitioned);
            p
        }),
        time_entry("plan/clustered_176", paper_iters, || {
            plan(&paper, &clustered).expect("paper-scale clustered set plans")
        }),
        // The same scale with nothing to memoize: every bin simulated,
        // verified, coalesced and compiled on its own.
        {
            let unique = unique_host_176(0);
            time_entry("plan/unique_176_1ms", paper_iters, || {
                let p = plan(&unique, &defaults).expect("all-unique paper-scale host plans");
                assert_eq!(p.stage, Stage::Partitioned);
                p
            })
        },
        // Single-VM churn on the same paper-scale host: the 175-VM plan is
        // delta-patched to the 176-VM shape. One bin is dirtied (WFD ties
        // break by index, so prior assignments are stable); 43 cores reuse
        // their compiled schedules, so the mean must sit far below the
        // full plan/partitioned_176 replan.
        {
            let paper_prev = bench_host_with_goal(44, 175, 25, Nanos::from_millis(1));
            let prev_plan = plan(&paper_prev, &defaults).expect("175-VM host plans");
            time_entry("plan/delta_single_vm", iters, || {
                let (p, report) = replan_from(&paper_prev, &prev_plan, &paper, &defaults);
                assert_eq!(report.dirty_cores.len(), 1, "one bin dirtied");
                p
            })
        },
        delta_all_dirty_entry(paper_iters, &defaults),
        edf_bin_entry(iters),
        verify_full,
        time_entry("cache/miss", iters, || {
            // A fresh cache per iteration: the full miss path (key build,
            // plan, insert).
            let c = SharedPlanCache::new(4);
            c.get_or_plan(&easy, &defaults).expect("plans")
        }),
        {
            let c = SharedPlanCache::new(4);
            c.get_or_plan(&easy, &defaults).expect("plans");
            let (easy, defaults) = (&easy, &defaults);
            time_entry("cache/hit", iters.max(100), move || {
                c.get_or_plan(easy, defaults).expect("plans")
            })
        },
    ];
    entries.extend(crowded_cache_entries(iters, &defaults));
    entries.push(table_compile_entry(paper_iters, &defaults));
    BenchSnapshot {
        meta: meta(quick, seed),
        entries,
    }
}

/// Times the dispatcher hot paths: first/second-level `decide`, wake-up
/// routing, the two-phase table switch, and decoding a binary table.
pub fn dispatch_snapshot(quick: bool, seed: u64) -> BenchSnapshot {
    let iters: u64 = if quick { 1_000 } else { 100_000 };
    let host = bench_host(8, 32, 25);
    let p = plan(&host, &PlannerOptions::default()).expect("bench host plans");
    let len = p.table.len();
    let n_vcpus = p.params.len();
    // The control plane builds a table once and installs it everywhere; the
    // benches mirror that by sharing one `Arc<Table>` so per-install cost is
    // the staging/commit work itself, not a deep table clone.
    let table = Arc::new(p.table.clone());
    let make = |capped: bool| Dispatcher::new(table.clone(), vec![capped; n_vcpus], len);

    let entries = vec![
        {
            let mut d = make(false);
            let mut i = 0u64;
            time_entry("dispatch/decide", iters, move || {
                i += 1;
                let core = (i % 8) as usize;
                let now = Nanos(i * 50_000 % len.as_nanos());
                d.decide(core, now, |_| true)
            })
        },
        {
            let mut d = make(true);
            let mut i = 0u64;
            time_entry("dispatch/wakeup_capped", iters, move || {
                i += 1;
                let v = VcpuId((i % n_vcpus as u64) as u32);
                let now = Nanos(i * 50_000 % len.as_nanos());
                d.wakeup_target(v, now)
            })
        },
        {
            let mut d = make(false);
            let table = table.clone();
            time_entry("dispatch/table_switch_begin_abort", iters, move || {
                let staged = d
                    .begin_table_switch(table.clone(), Nanos(1))
                    .expect("stages");
                d.abort_table_switch();
                staged
            })
        },
        {
            let mut d = make(false);
            let table = table.clone();
            let mut round = 0u64;
            time_entry(
                "dispatch/table_switch_commit",
                iters.min(10_000),
                move || {
                    // Advance by a round per install so each arm time is fresh;
                    // touch every core past the switch and collect garbage so
                    // the epoch list stays O(1).
                    let now = len * round;
                    let staged = d.begin_table_switch(table.clone(), now).expect("stages");
                    let done = d.commit_table_switch(staged).expect("staged");
                    for core in 0..8 {
                        std::hint::black_box(d.decide(core, done, |_| true));
                    }
                    round += 2;
                    d.collect_garbage()
                },
            )
        },
        // A decode is milliseconds (the payload is 1.3 MB), not nanoseconds.
        binary_decode_entry(if quick { 5 } else { 200 }),
    ];
    BenchSnapshot {
        meta: meta(quick, seed),
        entries,
    }
}

/// Times [`tableau_core::binary::decode`] on the encoded table of the
/// 44-core, 176-VM all-unique host (the `table/compile_176` shape): the
/// upload path, validation of every shipped field included.
fn binary_decode_entry(iters: u64) -> BenchEntry {
    let p = plan(&unique_host_176(0), &PlannerOptions::default())
        .expect("all-unique paper-scale host plans");
    let bytes = tableau_core::binary::encode(&p.table);
    time_entry("dispatch/binary_decode_176", iters, move || {
        tableau_core::binary::decode(bytes.clone()).expect("the planner's table decodes")
    })
}

/// Wall-clock for repeated `run_until` calls over fresh scenarios; the
/// scenario build (planning, vCPU registration) is not timed. The entry
/// records only the fastest half of the iterations (sum, count, and
/// mean), and the fastest single iteration (ns) is returned alongside
/// for comparative assertions. A single descheduled iteration on a
/// contended shared runner runs 3–6x slow; a plain mean over few
/// iterations absorbs that outlier and trips the 3x regression gate on
/// noise alone, where the fastest-half mean stays within ~10% run to
/// run. Every `sim/*` entry gets this treatment: the committed
/// trajectory carries a ratio claim (dense batching) that
/// single-run means polluted in earlier PRs.
fn time_sim_entry_trimmed(
    name: &str,
    iters: u64,
    duration: Nanos,
    mk: impl FnMut() -> Sim,
) -> (BenchEntry, f64) {
    let mut samples = time_sim_samples(iters, duration, mk);
    samples.sort_unstable();
    let min = samples[0] as f64;
    let kept = &samples[..samples.len().div_ceil(2)];
    let total: u64 = kept.iter().sum();
    (
        BenchEntry {
            name: name.to_string(),
            iters: kept.len() as u64,
            total_ns: total,
            mean_ns: total as f64 / kept.len() as f64,
        },
        min,
    )
}

/// Per-iteration `run_until` wall times (ns) over fresh scenarios, after
/// one untimed warm-up replay.
fn time_sim_samples(iters: u64, duration: Nanos, mut mk: impl FnMut() -> Sim) -> Vec<u64> {
    let mut warm = mk(); // warm-up: page in code and data
    warm.run_until(duration);
    let mut samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let mut sim = mk();
        let t0 = Instant::now();
        sim.run_until(duration);
        samples.push(t0.elapsed().as_nanos() as u64);
        std::hint::black_box(sim.events_processed());
    }
    samples
}

/// Control epochs a lazy fleet host catches up in one `run_until` before
/// an install: the median catch-up span of an `e2ebench` `fleet-churn`
/// round (seed 42; a quarter of them span 2 epochs or fewer, a tenth 45 or
/// more).
const CATCH_UP_EPOCHS: u64 = 6;

/// `sim/host_install_catch_up` and `sim/host_hour_probe`: the fleet's
/// 2-core probe host on its boot plan (one capped probe per core),
/// advanced `calls` times by `step`. Mean ns per call over the fastest
/// half of `runs` fresh hosts.
///
/// The catch-up row is what `Fleet::process_installs` does to a host: a
/// two-phase install through `Sim::scheduler_mut`, here of the table the
/// host runs, so that the slices do not change and the replayed lap is
/// kept, then one call over [`CATCH_UP_EPOCHS`] control epochs; 93 of
/// them cover 27.9 simulated seconds. The hour row takes one call of a
/// simulated hour: ~35 000 table laps, replayed whole but for the laps in
/// which a probe's one-second burst ends, so it costs per burst and per
/// lap, not per event. Both assert that the host's events were batched.
fn probe_host_entry(name: &str, runs: u64, calls: u64, step: Nanos, install: bool) -> BenchEntry {
    let fleet = ::fleet::Fleet::new(::fleet::FleetConfig::new(1, 2)).expect("boots");
    let host = fleet.boot_config();
    let p = plan(host, &PlannerOptions::default()).expect("the probe-only boot config plans");
    // Installed as the fleet installs it: a shared image, no copy.
    let image = Arc::new(p.table.clone());
    let run = || {
        let mut sim = Sim::new(
            Machine::small(host.n_cores),
            Box::new(Tableau::from_plan(&p)),
        );
        for core in 0..host.n_cores {
            sim.add_vcpu(Box::new(BusyLoop), core, true);
        }
        let t0 = Instant::now();
        for call in 1..=calls {
            if install {
                let now = sim.now();
                let sched = sim.scheduler_mut().as_any();
                let d = sched
                    .downcast_mut::<Tableau>()
                    .expect("Tableau")
                    .dispatcher_mut();
                d.collect_garbage();
                let switch = d.try_table_switch(image.clone(), now, false);
                assert!(matches!(switch, Ok(Some(_))), "{switch:?}");
            }
            sim.run_until(step * call);
        }
        let ns = t0.elapsed().as_nanos() as u64;
        let batch = sim.stats().batch;
        assert!(
            batch.batched_events > 0 && batch.fallback_window == 0 && batch.fallback_block == 0,
            "{name}: the host left its dense windows: {batch:?}"
        );
        std::hint::black_box(sim.events_processed());
        ns
    };
    run(); // warm-up: page in code and data
    let mut samples: Vec<u64> = (0..runs).map(|_| run()).collect();
    samples.sort_unstable();
    let kept = &samples[..samples.len().div_ceil(2)];
    let total: u64 = kept.iter().sum();
    let calls = kept.len() as u64 * calls;
    BenchEntry {
        name: name.to_string(),
        iters: calls,
        total_ns: total,
        mean_ns: total as f64 / calls as f64,
    }
}

/// What [`sim_snapshot`] runs in one mode.
struct SimBudget {
    /// Iterations per row (the `run_until` rows and the dense pair run at
    /// least eight).
    iters: u64,
    /// Simulated horizon of `sim/run_until_dense` and `sim/run_until_sparse`.
    /// The same in both modes: the quick gate divides a quick row by the
    /// committed one, and only equal work makes that ratio mean anything.
    horizon: Nanos,
    /// Simulated horizon of `sim/events_per_sec`, a per-event mean.
    scale_duration: Nanos,
}

fn sim_budget(quick: bool) -> SimBudget {
    SimBudget {
        iters: if quick { 1 } else { 5 },
        horizon: Nanos::from_millis(200),
        scale_duration: if quick {
            Nanos::from_millis(100)
        } else {
            Nanos::from_secs(1)
        },
    }
}

/// Times the simulator engine itself: `run_until` wall-clock on a dense
/// (I/O-churn) and a sparse (timer-tail) scenario, a pure-dense Tableau
/// phase under the hybrid (batched) and unbatched engines, raw
/// event throughput on the 16-core scaling scenario, and a fleet host's
/// install catch-up and simulated hour ([`probe_host_entry`]). `mean_ns` of
/// `sim/events_per_sec` is ns *per event*: events/sec = 1e9 / mean_ns.
pub fn sim_snapshot(quick: bool, seed: u64) -> BenchSnapshot {
    let SimBudget {
        iters,
        horizon,
        scale_duration,
    } = sim_budget(quick);

    // Dense: four vCPUs per core all churning I/O — the event queue holds a
    // packed band of near-future timers, IPIs, and slice boundaries.
    let dense = || {
        let (sim, _v) = build_scenario(
            Machine::small(4),
            4,
            SchedKind::Tableau,
            true,
            Box::new(IoStress::paper_default()),
            Background::Io,
        );
        sim
    };
    // Sparse: one mostly-sleeping vCPU per core — long idle stretches where
    // the engine must skip empty time cheaply.
    let sparse = || {
        let (sim, _v) = build_scenario(
            Machine::small(4),
            1,
            SchedKind::Tableau,
            true,
            Box::new(IntrinsicLatency::new()),
            Background::None,
        );
        sim
    };

    // The pure-dense pair gets its own, longer horizon (quick mode
    // included): a 20 ms run ends before the batch-entry cooldown ever
    // lets batching engage, per-run setup would dominate short replays,
    // and the scenario is cheap either way — one second of simulated
    // dense phase is under two thousand slice boundaries.
    let dense_pair = Nanos::from_secs(1);

    // Pure-dense: eight capped busy-loop vCPUs per core under Tableau —
    // the high-density steady state the dense-phase detector exists for.
    // The batched row runs the hybrid engine; the unbatched twin runs the
    // *identical* scenario on the unbatched engine, so the pair
    // measures the batching win inside one snapshot (the equivalence
    // suites prove the two are bit-for-bit identical in every
    // observable).
    let pure_dense = |kind: EngineKind| {
        move || {
            let mut host = HostConfig::new(2);
            let spec = VcpuSpec::capped(Utilization::from_percent(12), Nanos::from_millis(20));
            for i in 0..16 {
                host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
            }
            let p = plan(&host, &PlannerOptions::default()).expect("dense host plans");
            let mut sim = Sim::new(Machine::small(2), Box::new(Tableau::from_plan(&p)));
            sim.set_engine(kind);
            for i in 0..16 {
                sim.add_vcpu(Box::new(BusyLoop), i % 2, true);
            }
            sim
        }
    };

    // Event throughput on the 16-core scaling scenario (same topology rule
    // as the scaling sweep: sockets of ~11). Run several times and keep
    // the fastest half: the committed per-event figure drifted 101→160 ns
    // across PRs on single-run snapshots, which was scheduler noise on the
    // shared container, not a real slowdown.
    let machine = Machine {
        n_sockets: 1,
        cores_per_socket: 16,
        ..Machine::xeon_16core()
    };
    let mk_scale = || {
        build_scenario(
            machine,
            4,
            SchedKind::Tableau,
            true,
            Box::new(IoStress::paper_default()),
            Background::Io,
        )
        .0
    };
    let scale_iters: u64 = 8;
    let mut scale_events = 1u64;
    let mut scale_samples = Vec::with_capacity(scale_iters as usize);
    {
        let mut warm = mk_scale();
        warm.run_until(scale_duration);
    }
    for _ in 0..scale_iters {
        let mut sim = mk_scale();
        let t0 = Instant::now();
        sim.run_until(scale_duration);
        scale_samples.push(t0.elapsed().as_nanos() as u64);
        scale_events = sim.events_processed().max(1);
    }
    scale_samples.sort_unstable();
    let kept = &scale_samples[..scale_samples.len().div_ceil(2)];
    let kept_wall: u64 = kept.iter().sum();
    // The run is deterministic, so every iteration processes the same
    // event count; `iters` records the events behind the kept wall time.
    let kept_events = scale_events * kept.len() as u64;
    let events_entry = BenchEntry {
        name: "sim/events_per_sec".to_string(),
        iters: kept_events,
        total_ns: kept_wall,
        mean_ns: kept_wall as f64 / kept_events as f64,
    };

    // Both halves of the pair run several iterations even in quick mode —
    // one replay is tens of microseconds, the comparative assertion below
    // wants a noise-robust minimum, and the trimmed entries need enough
    // samples to shed contention outliers.
    let pair_iters = iters.max(8);
    let (batched, batched_min) = time_sim_entry_trimmed(
        "sim/run_until_dense_batched",
        pair_iters,
        dense_pair,
        pure_dense(EngineKind::Hybrid),
    );
    let (unbatched, unbatched_min) = time_sim_entry_trimmed(
        "sim/run_until_dense_unbatched",
        pair_iters,
        dense_pair,
        pure_dense(EngineKind::Unbatched),
    );
    // The dense-batching bar: advancing a settled dense phase from the
    // per-core slice-table windows measures ~1.65x cheaper than taking
    // the same boundaries one generic event at a time (see
    // EXPERIMENTS.md; it was ~3.3x while the unbatched twin still paid a
    // wheel round-trip per boundary, and ~1.85x while its event loop
    // still carried the partitioned engine's per-event branches — core
    // timers live in per-core registers under both engines, so what is
    // left is the per-decision virtual `schedule` call against a replayed
    // window). The floor compares fastest iterations and sits under what
    // 36 of 40 quick cuts on a loaded shared runner measured (1.45x and
    // up, median 1.65x; the other four, cut in contention bursts that also
    // tripped the 3x row gate, read 1.02-1.28x); the committed trajectory
    // tracks the real ratio.
    println!(
        "dense pair: unbatched/batched = {:.2} (fastest iterations)",
        unbatched_min / batched_min
    );
    assert!(
        batched_min * 1.4 < unbatched_min,
        "dense batching (min {batched_min:.0} ns) must be well below the \
         unbatched twin (min {unbatched_min:.0} ns)",
    );

    let (dense_entry, _) =
        time_sim_entry_trimmed("sim/run_until_dense", pair_iters, horizon, dense);
    let (sparse_entry, _) =
        time_sim_entry_trimmed("sim/run_until_sparse", pair_iters, horizon, sparse);
    let catch_up = crate::fleet::CONTROL_EPOCH * CATCH_UP_EPOCHS;
    let host_catch_up =
        probe_host_entry("sim/host_install_catch_up", pair_iters, 93, catch_up, true);
    let hour = Nanos::from_secs(3_600);
    let host_hour = probe_host_entry("sim/host_hour_probe", pair_iters, 1, hour, false);
    let entries = vec![
        dense_entry,
        sparse_entry,
        batched,
        unbatched,
        events_entry,
        host_catch_up,
        host_hour,
    ];
    BenchSnapshot {
        meta: meta(quick, seed),
        entries,
    }
}

/// Where full-mode snapshots go: the repo root (`git rev-parse
/// --show-toplevel`), overridable with `TABLEAU_BENCH_DIR`.
pub(crate) fn bench_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("TABLEAU_BENCH_DIR") {
        return PathBuf::from(dir);
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--show-toplevel"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| PathBuf::from(String::from_utf8_lossy(&o.stdout).trim()))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Reads a written snapshot back and checks it is well-formed — the schema
/// smoke check CI runs via `--quick`.
fn validate(path: &std::path::Path) -> BenchSnapshot {
    let text = std::fs::read_to_string(path).expect("read snapshot back");
    let snap: BenchSnapshot = serde_json::from_str(&text).expect("snapshot schema round-trips");
    assert_eq!(snap.meta.schema, SCHEMA, "schema tag mismatch");
    assert!(!snap.entries.is_empty(), "snapshot has no entries");
    for e in &snap.entries {
        assert!(
            e.iters > 0 && e.mean_ns > 0.0,
            "degenerate entry {}",
            e.name
        );
    }
    snap
}

/// How much slower an entry may measure before the `--quick` gate calls it
/// a regression. Generous on purpose: quick mode runs few iterations on a
/// shared CI host, so only order-of-magnitude blowups should trip it.
pub const REGRESSION_FACTOR: f64 = 3.0;

/// A committed snapshot read back tolerantly: only the join key and the
/// mean of each entry survive, so snapshots with extra or missing entry
/// fields still compare. `Err` says why the gate cannot compare it at all:
/// the file is absent or malformed, or its `meta` names another schema,
/// machine core count or worker thread count than `current`'s — numbers
/// measured on another machine, or under another harness, are not
/// evidence of a regression.
fn read_committed(path: &Path, current: &BenchMeta) -> Result<Vec<(String, f64)>, String> {
    use serde::Value;
    let as_str = |v: &Value| match v {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    };
    let as_f64 = |v: &Value| match v {
        Value::F64(f) => Some(*f),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("no committed snapshot ({e})"))?;
    let v: Value = serde_json::from_str(&text).map_err(|_| "not JSON".to_string())?;
    let top = v.as_map().ok_or("not a snapshot")?;
    let meta = Value::get_field(top, "meta")
        .and_then(Value::as_map)
        .ok_or("no meta block")?;
    let field = |k: &str| Value::get_field(meta, k).ok_or(format!("its meta has no {k}"));
    let schema = as_str(field("schema")?).ok_or("its schema is not a string")?;
    if schema != current.schema {
        return Err(format!("schema {schema}, this run's is {}", current.schema));
    }
    for (k, ours) in [
        ("machine_cores", current.machine_cores),
        ("threads", current.threads),
    ] {
        let theirs = as_f64(field(k)?).ok_or(format!("its {k} is not a number"))?;
        if theirs != ours as f64 {
            return Err(format!("{k} {theirs}, this run's is {ours}"));
        }
    }
    let entries = Value::get_field(top, "entries")
        .and_then(Value::as_seq)
        .ok_or("no entry list")?;
    Ok(entries
        .iter()
        .filter_map(|e| {
            let e = e.as_map()?;
            let name = as_str(Value::get_field(e, "name")?)?;
            let mean = as_f64(Value::get_field(e, "mean_ns")?)?;
            (mean > 0.0).then_some((name, mean))
        })
        .collect())
}

/// What the `--quick` gate made of one committed snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Gate {
    /// The snapshot was comparable: one line per entry that measured more
    /// than [`REGRESSION_FACTOR`]x its committed mean (none: passed).
    Compared(Vec<String>),
    /// Nothing was compared, for the reason given.
    Skipped(String),
}

impl Gate {
    /// Prints the outcome for the snapshot at `path`: the reason it was
    /// skipped, or each regression. Returns `true` unless an entry
    /// regressed.
    pub fn report(&self, path: &Path) -> bool {
        let file = path.file_name().unwrap_or_default().to_string_lossy();
        match self {
            Gate::Skipped(why) => {
                println!("gate skipped for {file}: {why}");
                true
            }
            Gate::Compared(bad) => {
                for line in bad {
                    eprintln!("bench regression: {line}");
                }
                bad.is_empty()
            }
        }
    }
}

/// Compares a fresh snapshot against the committed one at `path`.
///
/// Entries present on only one side are ignored (bench families grow over
/// time); a committed file the gate cannot compare is skipped, with the
/// reason, never failed on — the gate only ever fails on evidence.
pub fn gate_against(current: &BenchSnapshot, path: &Path) -> Gate {
    let committed = match read_committed(path, &current.meta) {
        Ok(committed) => committed,
        Err(why) => return Gate::Skipped(why),
    };
    let mut out = Vec::new();
    for e in &current.entries {
        let Some((_, base)) = committed.iter().find(|(n, _)| *n == e.name) else {
            continue;
        };
        if e.mean_ns > base * REGRESSION_FACTOR {
            out.push(format!(
                "{}: {:.0} ns vs committed {:.0} ns ({:.1}x > {:.0}x budget, {})",
                e.name,
                e.mean_ns,
                base,
                e.mean_ns / base,
                REGRESSION_FACTOR,
                path.file_name().unwrap_or_default().to_string_lossy(),
            ));
        }
    }
    Gate::Compared(out)
}

/// Runs both snapshots, prints them, writes and validates the artifacts.
/// Returns `true` when the regression gate passed (it always passes in
/// full mode, which *refreshes* the committed trajectory instead).
///
/// Full mode writes `BENCH_planner.json`/`BENCH_dispatch.json` at the repo
/// root (the committed trajectory); `--quick` writes to a scratch
/// directory instead so a smoke run never dirties the tracked files, then
/// gates each entry against the committed snapshot: any entry more than
/// [`REGRESSION_FACTOR`]x slower than its committed mean fails the run,
/// unless the committed snapshot cannot be compared ([`gate_against`]).
pub fn run(quick: bool, seed: u64) -> bool {
    let planner = planner_snapshot(quick, seed);
    let dispatch = dispatch_snapshot(quick, seed);
    let sim = sim_snapshot(quick, seed);

    // Whole nanoseconds, so a ~100 ns row still shows a difference. A quick
    // run also prints each row's committed mean and the ratio the gate
    // judges.
    for (title, snap, file) in [
        ("planner", &planner, "BENCH_planner.json"),
        ("dispatch", &dispatch, "BENCH_dispatch.json"),
        ("sim", &sim, "BENCH_sim.json"),
    ] {
        let committed = quick
            .then(|| read_committed(&bench_dir().join(file), &snap.meta).ok())
            .flatten();
        let rows: Vec<Vec<String>> = snap
            .entries
            .iter()
            .map(|e| {
                let mut row = vec![
                    e.name.clone(),
                    e.iters.to_string(),
                    format!("{:.0}", e.mean_ns),
                ];
                if quick {
                    let base = (committed.iter().flatten()).find(|(n, _)| *n == e.name);
                    row.extend(match base {
                        Some(&(_, base)) => {
                            [format!("{base:.0}"), format!("{:.2}", e.mean_ns / base)]
                        }
                        None => ["-".to_string(), "-".to_string()],
                    });
                }
                row
            })
            .collect();
        let header: &[&str] = if quick {
            &["entry", "iters", "mean(ns)", "committed(ns)", "ratio"]
        } else {
            &["entry", "iters", "mean(ns)"]
        };
        print_table(
            &format!(
                "bench snapshot [{title}] rev={} cores={} threads={}",
                snap.meta.git_rev, snap.meta.machine_cores, snap.meta.threads
            ),
            header,
            &rows,
        );
    }

    let dir = if quick {
        std::env::temp_dir().join("tableau-bench-quick")
    } else {
        bench_dir()
    };
    let p_path = write_json_to(&dir, "BENCH_planner", &planner);
    let d_path = write_json_to(&dir, "BENCH_dispatch", &dispatch);
    let s_path = write_json_to(&dir, "BENCH_sim", &sim);
    validate(&p_path);
    validate(&d_path);
    validate(&s_path);

    if !quick {
        return true;
    }
    let committed = bench_dir();
    let mut passed = true;
    for (snap, file) in [
        (&planner, "BENCH_planner.json"),
        (&dispatch, "BENCH_dispatch.json"),
        (&sim, "BENCH_sim.json"),
    ] {
        let path = committed.join(file);
        passed &= gate_against(snap, &path).report(&path);
    }
    passed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_snapshots_cover_the_hot_paths() {
        let planner = planner_snapshot(true, 42);
        let names: Vec<&str> = planner.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "plan/partitioned",
                "plan/semi_partitioned",
                "plan/clustered",
                "plan/partitioned_176",
                "plan/clustered_176",
                "plan/unique_176_1ms",
                "plan/delta_single_vm",
                "plan/delta_all_dirty_176",
                "edf/bin_4x1ms",
                "verify/full_176",
                "cache/miss",
                "cache/hit",
                "cache/hit_crowded",
                "cache/insert_crowded",
                "table/compile_176"
            ]
        );
        assert_eq!(planner.meta.schema, SCHEMA);
        assert!(planner.meta.quick);
        for e in &planner.entries {
            assert!(e.mean_ns > 0.0, "{} has no measured time", e.name);
        }
        // The hit path must be far cheaper than the miss path (it skips
        // planning entirely) — this is the cache's reason to exist.
        let mean = |n: &str| {
            planner
                .entries
                .iter()
                .find(|e| e.name == n)
                .unwrap()
                .mean_ns
        };
        assert!(mean("cache/hit") * 10.0 < mean("cache/miss"));
        // The delta patch recomputes one bin out of 44 and reuses every
        // other core's compiled schedule, so it must stay far below the
        // full memoized replan of the same host. The floor was 10x on the
        // snapshot's quick-mode means (one and two calls) while that replan
        // hashed every segment three times over; hash-free it costs half as
        // much, whereas most of the delta is translating, packing and
        // splicing 176 VMs, which nothing made cheaper. Now: fastest of 12
        // alternating calls, 8x — the pair reads 15-20x optimized and
        // 8.7-12.6x in the unoptimized build this test runs in (28 runs).
        let opts = PlannerOptions::default();
        let paper = bench_host_with_goal(44, 176, 25, Nanos::from_millis(1));
        let paper_prev = bench_host_with_goal(44, 175, 25, Nanos::from_millis(1));
        let prev_plan = plan(&paper_prev, &opts).expect("175-VM host plans");
        let ns = |f: &dyn Fn()| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        };
        let (mut full_min, mut delta_min) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..12 {
            full_min = full_min.min(ns(&|| {
                std::hint::black_box(plan(&paper, &opts)).expect("paper-scale set plans");
            }));
            delta_min = delta_min.min(ns(&|| {
                std::hint::black_box(replan_from(&paper_prev, &prev_plan, &paper, &opts));
            }));
        }
        println!("delta pair: full/delta = {:.1}", full_min / delta_min);
        assert!(
            delta_min * 8.0 < full_min,
            "delta {delta_min:.0} ns vs full {full_min:.0} ns (fastest iterations)",
        );
    }

    #[test]
    fn quick_and_full_sim_rows_share_the_horizon() {
        let (quick, full) = (sim_budget(true), sim_budget(false));
        assert_eq!(quick.horizon, full.horizon);
        assert_eq!(full.horizon, Nanos::from_millis(200));
        assert!(quick.iters <= full.iters);
    }

    fn fake_snapshot(entries: &[(&str, f64)]) -> BenchSnapshot {
        BenchSnapshot {
            meta: meta(false, 1),
            entries: entries
                .iter()
                .map(|&(name, mean_ns)| BenchEntry {
                    name: name.to_string(),
                    iters: 10,
                    total_ns: (mean_ns * 10.0) as u64,
                    mean_ns,
                })
                .collect(),
        }
    }

    /// The lines of a gate that compared, failing the test on a skip.
    fn compared(gate: Gate) -> Vec<String> {
        match gate {
            Gate::Compared(lines) => lines,
            Gate::Skipped(why) => panic!("gate skipped: {why}"),
        }
    }

    /// The reason of a gate that skipped, failing the test otherwise.
    fn skipped(gate: Gate) -> String {
        match gate {
            Gate::Skipped(why) => why,
            Gate::Compared(lines) => panic!("gate compared: {lines:?}"),
        }
    }

    #[test]
    fn regression_gate_trips_only_past_the_budget() {
        let dir = std::env::temp_dir().join("tableau-bench-gate-test");
        let committed = fake_snapshot(&[("a/fast", 100.0), ("a/slow", 1000.0)]);
        let path = write_json_to(&dir, "BENCH_gate", &committed);

        // Within budget (even 2.9x) passes; a retired entry is ignored.
        let ok = fake_snapshot(&[("a/fast", 290.0), ("a/new", 9e9)]);
        assert_eq!(compared(gate_against(&ok, &path)), Vec::<String>::new());

        // Past the budget fails, and names the entry.
        let bad = fake_snapshot(&[("a/fast", 301.0), ("a/slow", 500.0)]);
        let lines = compared(gate_against(&bad, &path));
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("a/fast"), "{lines:?}");
    }

    /// A committed file with the given `meta` fields and one entry
    /// `a/fast` at 1 ns.
    fn committed_with(dir: &Path, schema: &str, cores: usize, threads: usize) -> PathBuf {
        let path = dir.join(format!("{schema}-{cores}-{threads}.json"));
        let json = format!(
            r#"{{"meta":{{"schema":"{schema}","machine_cores":{cores},"threads":{threads}}},"entries":[{{"name":"a/fast","mean_ns":1.0}}]}}"#
        );
        std::fs::write(&path, json).unwrap();
        path
    }

    #[test]
    fn regression_gate_tolerates_absent_or_foreign_snapshots() {
        let dir = std::env::temp_dir().join("tableau-bench-gate-tolerant");
        std::fs::create_dir_all(&dir).unwrap();
        let current = fake_snapshot(&[("a/fast", 1e12)]);

        // Missing file: no evidence, no failure.
        let why = skipped(gate_against(&current, &dir.join("nope.json")));
        assert!(why.contains("no committed snapshot"), "{why}");

        // Right meta but entries missing fields: the malformed entry is
        // dropped, the well-formed one still compares.
        let m = &current.meta;
        let partial = dir.join("partial.json");
        std::fs::write(
            &partial,
            format!(
                r#"{{"meta":{{"schema":"{SCHEMA}","machine_cores":{},"threads":{}}},"entries":[{{"name":"a/fast"}},{{"name":"a/slow","mean_ns":10.0,"extra":true}}]}}"#,
                m.machine_cores, m.threads
            ),
        )
        .unwrap();
        let current = fake_snapshot(&[("a/fast", 1e12), ("a/slow", 40.0)]);
        let lines = compared(gate_against(&current, &partial));
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("a/slow"), "{lines:?}");

        // A meta without the fields the gate checks cannot be compared.
        let bare = dir.join("bare.json");
        std::fs::write(
            &bare,
            format!(r#"{{"meta":{{"schema":"{SCHEMA}"}},"entries":[{{"name":"a/fast","mean_ns":1.0}}]}}"#),
        )
        .unwrap();
        let why = skipped(gate_against(&current, &bare));
        assert!(why.contains("machine_cores"), "{why}");
    }

    #[test]
    fn gate_skips_a_snapshot_of_another_schema() {
        let dir = std::env::temp_dir().join("tableau-bench-gate-schema");
        std::fs::create_dir_all(&dir).unwrap();
        let current = fake_snapshot(&[("a/fast", 1e12)]);
        let m = &current.meta;
        let path = committed_with(&dir, "other-v9", m.machine_cores, m.threads);
        let why = skipped(gate_against(&current, &path));
        assert!(why.contains("schema other-v9"), "{why}");
    }

    #[test]
    fn gate_skips_a_snapshot_of_another_core_count() {
        let dir = std::env::temp_dir().join("tableau-bench-gate-cores");
        std::fs::create_dir_all(&dir).unwrap();
        let current = fake_snapshot(&[("a/fast", 1e12)]);
        let cores = current.meta.machine_cores + 1;
        let path = committed_with(&dir, SCHEMA, cores, current.meta.threads);
        let why = skipped(gate_against(&current, &path));
        assert!(why.contains("machine_cores"), "{why}");
        // The same file on a machine like the one that made it compares.
        let mut there = fake_snapshot(&[("a/fast", 1e12)]);
        there.meta.machine_cores = cores;
        assert_eq!(compared(gate_against(&there, &path)).len(), 1);
    }

    #[test]
    fn gate_skips_a_snapshot_of_another_thread_count() {
        let dir = std::env::temp_dir().join("tableau-bench-gate-threads");
        std::fs::create_dir_all(&dir).unwrap();
        let current = fake_snapshot(&[("a/fast", 1e12)]);
        let path = committed_with(&dir, SCHEMA, current.meta.machine_cores, 4);
        let why = skipped(gate_against(&current, &path));
        assert!(why.contains("threads 4"), "{why}");
    }

    #[test]
    fn snapshot_schema_round_trips_through_json() {
        let dispatch = dispatch_snapshot(true, 7);
        assert_eq!(dispatch.entries.len(), 5);
        let dir = std::env::temp_dir().join("tableau-bench-schema-test");
        let path = write_json_to(&dir, "BENCH_dispatch_test", &dispatch);
        let back = validate(&path);
        assert_eq!(back.meta.seed, 7);
        assert_eq!(back.entries.len(), dispatch.entries.len());
        for (a, b) in back.entries.iter().zip(&dispatch.entries) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.total_ns, b.total_ns);
        }
    }
}
