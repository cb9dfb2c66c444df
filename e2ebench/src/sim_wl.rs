//! `sim-io`: one 12-core host, no planning after set-up, open-loop HTTP.
//!
//! The paper's Fig. 7 cell: 4 capped VMs per core under Tableau, the
//! vantage VM serving 1 KiB files to Poisson arrivals at 1000 req/s while
//! every other VM runs the I/O-intensive background. I/O guests block and
//! wake constantly, which bails dense batching, so the queue-driven path
//! (timing wheel, `Dispatcher::decide`, wake-ups, IPIs) does all the work:
//! the opposite of the fleet's probe-only host sims. The same scenario
//! with the CPU-bound background simulates ~60x faster and would time
//! nothing at this scale; the dense and partitioned engines are watched
//! through the `fleet-*` counters instead.

use std::sync::Arc;
use std::time::Instant;

use experiments::config::{
    build_scenario, guest_machine_16core, Background, SchedKind, LATENCY_GOAL, VM_UTILIZATION_PCT,
};
use rtsched::time::Nanos;
use tableau_core::planner::{plan, PlannerOptions};
use tableau_core::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};
use tableau_core::Dispatcher;
use workloads::wrk2::poisson_arrivals;
use workloads::{Histogram, HttpServer};
use xensim::{OpKind, Sim};

use crate::harness::{Round, Workload};
use crate::metrics::batch_counters;
use crate::stats::{tail_mean_ns, Fnv};
use crate::trace::{Tracer, MEASURE, PROBE, WARM};

const VMS_PER_CORE: usize = 4;
const FILE_BYTES: u64 = 1024;
/// A request not answered within this much simulated time has failed.
const SLA: Nanos = Nanos(100_000_000);
/// `run_until` is driven in slices of this much simulated time.
const SLICE: Nanos = Nanos(1_000_000_000);

#[derive(Debug, Clone, Copy)]
pub struct SimSize {
    pub requests_per_sec: f64,
    /// Simulated length of the whole run.
    pub horizon: Nanos,
    /// Simulated length of the warm phase; the rest is measured.
    pub warm: Nanos,
}

impl SimSize {
    pub const FULL: SimSize = SimSize {
        requests_per_sec: 1000.0,
        horizon: Nanos(45_000_000_000),
        warm: Nanos(9_000_000_000),
    };
    #[cfg(test)]
    pub const TINY: SimSize = SimSize {
        requests_per_sec: 1000.0,
        horizon: Nanos(600_000_000),
        warm: Nanos(200_000_000),
    };
}

pub struct SimWorkload {
    size: SimSize,
    arrivals: Vec<Nanos>,
}

impl SimWorkload {
    pub fn generate(seed: u64, size: SimSize) -> SimWorkload {
        let arrivals = poisson_arrivals(size.requests_per_sec, size.horizon, seed);
        SimWorkload { size, arrivals }
    }
}

/// The cumulative simulator counters read at a window boundary.
#[derive(Clone, Copy)]
struct Mark {
    events: u64,
    context_switches: u64,
    ipis: u64,
    /// `(count, total simulated ns)` per scheduler operation.
    ops: [(u64, u64); 3],
}

fn mark(sim: &Sim) -> Mark {
    let st = sim.stats();
    Mark {
        events: sim.events_processed(),
        context_switches: st.context_switches,
        ipis: st.ipis,
        ops: OpKind::ALL.map(|k| {
            let a = st.ops.get(k);
            (a.count, a.total.as_nanos())
        }),
    }
}

/// Recorded latencies above `sla`, at the histogram's bucket resolution
/// (a bucket straddling the limit counts as late).
fn late_count(h: &Histogram, sla: Nanos) -> u64 {
    if h.max() <= sla {
        return 0;
    }
    let n = h.count();
    let above = |rank: u64| h.quantile(rank as f64 / n as f64).is_some_and(|v| v > sla);
    let (mut lo, mut hi) = (1u64, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if above(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    n - lo + 1
}

fn run_slices(sim: &mut Sim, end: Nanos, slice: &mut u64, tr: &mut Tracer) {
    while sim.now() < end {
        let until = Nanos((sim.now().0 + SLICE.0).min(end.0));
        let s = tr.enter("xensim.run_until", *slice);
        sim.run_until(until);
        tr.exit(s);
        *slice += 1;
    }
}

fn http_server(sim: &mut Sim, vantage: xensim::VcpuId) -> Result<&mut HttpServer, String> {
    sim.workload_mut(vantage)
        .as_any()
        .downcast_mut::<HttpServer>()
        .ok_or_else(|| "the vantage workload is not the HTTP server".to_string())
}

/// Mean host ns of `Dispatcher::decide`, stepped over one table length of
/// the scenario's own plan on every core.
fn decide_probe() -> Result<f64, String> {
    let machine = guest_machine_16core();
    let n_cores = machine.n_cores();
    let mut host = HostConfig::new(n_cores);
    let spec = VcpuSpec::capped(Utilization::from_percent(VM_UTILIZATION_PCT), LATENCY_GOAL);
    for i in 0..n_cores * VMS_PER_CORE {
        host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
    }
    let p = plan(&host, &PlannerOptions::default()).map_err(|e| format!("probe plan: {e}"))?;
    let len = p.table.len();
    let mut d = Dispatcher::new(Arc::new(p.table), vec![true; p.params.len()], len);
    let step = Nanos(50_000);
    let t0 = Instant::now();
    let mut calls = 0u64;
    let mut now = Nanos::ZERO;
    while now < len {
        for core in 0..n_cores {
            std::hint::black_box(d.decide(core, now, |_| true));
            calls += 1;
        }
        now += step;
    }
    Ok(t0.elapsed().as_nanos() as f64 / calls.max(1) as f64)
}

impl Workload for SimWorkload {
    fn round(&self, tr: &mut Tracer) -> Result<Round, String> {
        let size = self.size;
        let t_warm = Instant::now();
        let warm = tr.enter(WARM, 0);
        let s = tr.enter("experiments.build_scenario", 0);
        let t_build = Instant::now();
        let (mut sim, vantage) = build_scenario(
            guest_machine_16core(),
            VMS_PER_CORE,
            SchedKind::Tableau,
            true,
            Box::new(HttpServer::new(FILE_BYTES)),
            Background::Io,
        );
        let build_s = t_build.elapsed().as_secs_f64();
        tr.exit(s);
        let s = tr.enter("xensim.push_external", 0);
        for &t in &self.arrivals {
            sim.push_external(t, vantage, 0);
        }
        tr.exit(s);
        let mut slice = 0u64;
        run_slices(&mut sim, size.warm, &mut slice, tr);
        // The latencies recorded from here on are the measured window's.
        let warm_completed = {
            let server = http_server(&mut sim, vantage)?;
            server.latencies = Histogram::new();
            server.completed
        };
        tr.exit(warm);
        let warm_s = t_warm.elapsed().as_secs_f64();
        let at_warm = mark(&sim);

        let t_measure = Instant::now();
        let measure = tr.enter(MEASURE, 0);
        run_slices(&mut sim, size.horizon, &mut slice, tr);
        tr.exit(measure);
        let measure_s = t_measure.elapsed().as_secs_f64();
        let at_end = mark(&sim);

        // Every capped vCPU must have been dispatched within its latency
        // goal of becoming runnable, for the whole simulation.
        let st = sim.stats();
        let worst_delay = st
            .vcpus
            .iter()
            .map(|v| v.delay_max)
            .max()
            .unwrap_or_default();
        if worst_delay > LATENCY_GOAL {
            return Err(format!(
                "a capped vCPU waited {worst_delay} for dispatch (goal {LATENCY_GOAL})"
            ));
        }
        let batch = st.batch;

        let server = http_server(&mut sim, vantage)?;
        let hist = &server.latencies;
        if server.completed == warm_completed {
            return Err("the HTTP server completed no request in the measured window".into());
        }
        // Attempted: requests offered inside the measured window whose
        // whole SLA window lies inside the run. Unanswered requests are
        // counted over the whole run, because the completion counter cannot
        // tell in which phase a request arrived (none is left over on the
        // baseline).
        let cutoff = Nanos(size.horizon.0.saturating_sub(SLA.0));
        let offered = self.arrivals.partition_point(|&t| t <= cutoff) as u64;
        let attempted = offered - self.arrivals.partition_point(|&t| t <= size.warm) as u64;
        let unanswered = offered.saturating_sub(server.completed);
        let failed = unanswered + late_count(hist, SLA);
        let tail = tail_mean_ns(hist);

        let events = at_end.events - at_warm.events;
        let sim_ms = (size.horizon.0 - size.warm.0) / 1_000_000;
        let mut d = Fnv::new();
        d.words(&[
            at_end.events,
            at_end.context_switches,
            at_end.ipis,
            server.completed,
            hist.count(),
            hist.mean().as_nanos(),
            hist.max().as_nanos(),
            tail,
            worst_delay.as_nanos(),
            attempted,
            failed,
        ]);
        for (count, total) in at_end.ops {
            d.words(&[count, total]);
        }

        let ms = |v: Option<Nanos>| v.map_or(0.0, |n| n.as_millis_f64());
        let op = |i: usize| {
            let count = at_end.ops[i].0 - at_warm.ops[i].0;
            let total = at_end.ops[i].1 - at_warm.ops[i].1;
            (count as f64, total as f64 / 1e3 / count.max(1) as f64)
        };
        let (schedule, wakeup, migrate) = (op(0), op(1), op(2));
        let mut counters = vec![
            ("xensim.events", events as f64),
            (
                "xensim.ns_per_event",
                measure_s * 1e9 / events.max(1) as f64,
            ),
            (
                "xensim.events_per_sim_ms",
                events as f64 / sim_ms.max(1) as f64,
            ),
            (
                "xensim.context_switches",
                (at_end.context_switches - at_warm.context_switches) as f64,
            ),
            ("xensim.ipis", (at_end.ipis - at_warm.ipis) as f64),
            ("schedulers.tableau.schedule_ops", schedule.0),
            ("schedulers.tableau.wakeup_ops", wakeup.0),
            ("schedulers.tableau.migrate_ops", migrate.0),
            ("schedulers.tableau.schedule_sim_us", schedule.1),
            ("schedulers.tableau.wakeup_sim_us", wakeup.1),
            ("schedulers.tableau.migrate_sim_us", migrate.1),
            (
                "workloads.http.completed",
                (server.completed - warm_completed) as f64,
            ),
            ("workloads.http.p50_sim_ms", ms(hist.quantile(0.5))),
            ("workloads.http.p99_sim_ms", ms(hist.p99())),
            ("workloads.http.max_sim_ms", hist.max().as_millis_f64()),
            ("experiments.build_scenario_s", build_s),
        ];
        counters.extend(batch_counters(&batch));
        if tr.enabled() {
            let s = tr.enter(PROBE, 0);
            counters.push(("core.dispatch.decide.mean_ns", decide_probe()?));
            tr.exit(s);
        }

        Ok(Round {
            warm_s,
            measure_s,
            // One work unit is one simulated millisecond of the whole host.
            work: sim_ms,
            attempted,
            failed,
            model_tail_ns: tail,
            digest: d.finish(),
            counters,
        })
    }

    fn input_counters(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn late_count_counts_samples_above_the_limit() {
        let mut h = Histogram::new();
        for ms in [1u64, 2, 3, 150, 200, 400] {
            h.record(Nanos::from_millis(ms));
        }
        assert_eq!(late_count(&h, Nanos::from_millis(100)), 3);
        assert_eq!(late_count(&h, Nanos::from_millis(500)), 0);
        assert_eq!(late_count(&h, Nanos(1)), 6);
    }
}
