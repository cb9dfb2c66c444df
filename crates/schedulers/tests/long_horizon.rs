//! Long horizons on the fleet's probe host, and the `Nanos` overflow audit
//! of periodic replay.
//!
//! A quiet host advances by replaying its recorded table lap, whole laps at
//! once with every additive statistic multiplied (`xensim::dense`). These
//! tests hold that arithmetic to the unrolled run over horizons no oracle
//! can walk event by event: a simulated month in one call against 720
//! one-hour calls, each probe's service against its per-lap service times
//! the laps, and a horizon within a slice of `Nanos::MAX`, where the number
//! of laps replayed at once must be capped so that no time or counter wraps
//! (the test builds run with overflow checks on).
//!
//! The probes compute one burst longer than any horizon here, so the only
//! events are slice boundaries; `dense_equivalence` covers bursts that end
//! mid-lap and mid-replay against the oracles. A day of the fleet's own
//! busy loops (one-second bursts) is held to hour calls as well.

use rtsched::time::Nanos;
use schedulers::tableau::{PickCounts, Tableau};
use tableau_core::planner::{plan, Plan, PlannerOptions};
use tableau_core::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};
use xensim::sched::{BusyLoop, GuestAction, GuestWorkload, VcpuId};
use xensim::{EngineKind, Machine, Sim, SimStats};

/// The fleet's probe host on its boot plan: two cores, one capped 20 %
/// probe per core with a 20 ms latency goal, no tenant.
fn probe_plan() -> Plan {
    let mut host = HostConfig::new(2);
    for i in 0..2 {
        let spec = VcpuSpec::capped(Utilization::from_percent(20), Nanos::from_millis(20));
        host.add_vm(VmSpec::uniform(format!("probe{i}"), 1, spec));
    }
    plan(&host, &PlannerOptions::default()).expect("the probe host plans")
}

/// One burst as long as a quarter of the clock's range: it never ends.
struct Endless;

impl GuestWorkload for Endless {
    fn next(&mut self, _now: Nanos) -> GuestAction {
        GuestAction::Compute(Nanos(u64::MAX / 4))
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A probe host under `kind`, its probes running endless bursts (or the
/// fleet's busy loops).
fn probe_host(p: &Plan, kind: EngineKind, busy_loops: bool) -> Sim {
    let mut sim = Sim::new(Machine::small(2), Box::new(Tableau::from_plan(p)));
    sim.set_engine(kind);
    for core in 0..2 {
        let guest: Box<dyn GuestWorkload> = if busy_loops {
            Box::new(BusyLoop)
        } else {
            Box::new(Endless)
        };
        sim.add_vcpu(guest, core, true);
    }
    sim
}

/// Everything a host's run leaves that the next run could see: stats
/// (batch accounting aside: it counts calls), events handled, the clock,
/// the scheduler's pick counts and table epochs.
type Checkpoint = (SimStats, u64, Nanos, Vec<PickCounts>, Vec<usize>);

fn checkpoint(sim: &Sim) -> Checkpoint {
    let mut stats = sim.stats().clone();
    stats.batch = Default::default();
    let sched: &dyn std::any::Any = sim.scheduler();
    let t = sched.downcast_ref::<Tableau>().expect("a Tableau host");
    (
        stats,
        sim.events_processed(),
        sim.now(),
        (0..2).map(|v| t.pick_counts(VcpuId(v))).collect(),
        (0..2).map(|c| t.dispatcher().core_epoch(c)).collect(),
    )
}

/// The timers a host has armed, read as the events that retire them: the
/// next `span` of the run, logged. Two hosts with equal checkpoints and
/// equal continuations had the same timers armed.
fn continuation(sim: &mut Sim, span: Nanos) -> Vec<(Nanos, u64, String)> {
    sim.enable_event_log();
    sim.run_until(sim.now() + span);
    sim.take_event_log()
}

/// `calls` equal calls up to `horizon` against one call, probes on
/// `busy_loops` or endless bursts.
fn one_call_against_many(horizon: Nanos, calls: u64, busy_loops: bool) {
    let p = probe_plan();
    let mut once = probe_host(&p, EngineKind::Hybrid, busy_loops);
    once.run_until(horizon);
    let mut sliced = probe_host(&p, EngineKind::Hybrid, busy_loops);
    for k in 1..=calls {
        sliced.run_until(horizon / calls * k);
    }
    sliced.run_until(horizon);
    assert_eq!(checkpoint(&once), checkpoint(&sliced));
    assert!(once.stats().batch.batched_events > 0, "nothing was batched");
    let lap = p.table.len();
    assert_eq!(
        continuation(&mut once, lap * 3),
        continuation(&mut sliced, lap * 3)
    );
    assert_eq!(checkpoint(&once), checkpoint(&sliced));
}

#[test]
fn a_month_in_one_call_is_720_hour_calls() {
    let hour = Nanos::from_secs(3_600);
    one_call_against_many(hour * 720, 720, false);
}

#[test]
fn a_day_of_busy_loops_in_one_call_is_24_hour_calls() {
    // One-second bursts end every few laps: each ends the replay of the
    // lap it falls in, and a lap is recorded afresh after it.
    let hour = Nanos::from_secs(3_600);
    one_call_against_many(hour * 24, 24, true);
}

/// A probe's service and the events handled over the first `warm` laps,
/// and over each lap after them, from the unbatched oracle.
fn per_lap(p: &Plan, warm: u64) -> ([Nanos; 2], u64, [Nanos; 2], u64) {
    let mut oracle = probe_host(p, EngineKind::Unbatched, false);
    let len = p.table.len();
    let service = |sim: &Sim| [0, 1].map(|v| sim.stats().vcpu(VcpuId(v)).service);
    oracle.run_until(len * warm);
    let (served, events) = (service(&oracle), oracle.events_processed());
    oracle.run_until(len * (warm + 1));
    let now = service(&oracle);
    let lap = [now[0] - served[0], now[1] - served[1]];
    (served, events, lap, oracle.events_processed() - events)
}

#[test]
fn each_probe_is_served_its_lap_service_times_the_laps() {
    let p = probe_plan();
    let len = p.table.len();
    let (served, events, lap, lap_events) = per_lap(&p, 2);
    // Every probe runs in every lap: the reservation is real.
    assert!(lap.iter().all(|&s| s > Nanos::ZERO), "{lap:?}");
    let laps = Nanos::from_secs(30 * 86_400) / len;
    let mut sim = probe_host(&p, EngineKind::Hybrid, false);
    sim.run_until(len * (2 + laps));
    for v in 0..2 {
        let got = sim.stats().vcpu(VcpuId(v)).service;
        assert_eq!(
            got,
            served[v as usize] + lap[v as usize] * laps,
            "probe {v}"
        );
    }
    assert_eq!(sim.events_processed(), events + lap_events * laps);
}

#[test]
fn a_horizon_near_nanos_max_caps_the_laps_and_never_wraps() {
    let p = probe_plan();
    let len = p.table.len();
    let (served, events, lap, lap_events) = per_lap(&p, 2);
    // A few laps short of the clock's end: every lap replays whole.
    let laps = Nanos::MAX / len - 5;
    let horizon = len * (2 + laps);
    let mut sim = probe_host(&p, EngineKind::Hybrid, false);
    sim.run_until(horizon);
    assert_eq!(sim.now(), horizon);
    for v in 0..2 {
        let got = sim.stats().vcpu(VcpuId(v)).service;
        assert_eq!(
            got,
            served[v as usize] + lap[v as usize] * laps,
            "probe {v}"
        );
    }
    assert_eq!(sim.events_processed(), events + lap_events * laps);
    let mut halves = probe_host(&p, EngineKind::Hybrid, false);
    halves.run_until(len * (2 + laps / 2) + len / 3);
    halves.run_until(horizon);
    assert_eq!(checkpoint(&sim), checkpoint(&halves));
    // On to just before the last slice end the clock can hold: the events
    // up to there arm nothing past `Nanos::MAX`, but a replay of the lap
    // they fall in would write its later slice ends past it. The laps
    // replayed at once are capped short of that lap, and the window loop
    // takes it.
    let last_end = (0..2)
        .flat_map(|c| {
            let cpu = p.table.cpu(c);
            (0..cpu.n_segments()).map(move |i| cpu.segment_slot(i).until())
        })
        .map(|end| len * ((Nanos::MAX - end) / len) + end)
        .max()
        .expect("a table has slices");
    for sim in [&mut sim, &mut halves] {
        sim.run_until(last_end - Nanos(1));
    }
    assert_eq!(checkpoint(&sim), checkpoint(&halves));
    assert_eq!(sim.now(), last_end - Nanos(1));
}
