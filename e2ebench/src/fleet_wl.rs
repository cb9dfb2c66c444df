//! `fleet-churn` and `fleet-chaos`: SAP-shaped churn replayed over a fleet
//! of simulated hosts, closed loop, one client.
//!
//! Both replay the same trace against the same fleet; `fleet-chaos` arms
//! the fleet chaos preset at full intensity and drains to convergence
//! inside the measured window. The pair exists so that a fast-path gain
//! that costs the fault paths (or the reverse) shows: churn alone runs
//! placement -> cache hit / delta rung -> two-phase install -> dense and
//! partitioned host sims; chaos adds crash evacuation with backoff,
//! install-storm rollbacks, corruption audit and repair, host reboots and
//! the engines' decline paths.

use std::time::Instant;

use experiments::fleet::{fleet_chaos, CONTROL_EPOCH, CONVERGENCE_EPOCHS};
use fleet::{Fleet, FleetConfig, HostState};
use rtsched::time::Nanos;
use workloads::churn::{sap_trace, ChurnConfig, ChurnEvent, ChurnOp};

use crate::harness::{Round, Workload};
use crate::metrics::batch_counters;
use crate::stats::{tail_mean_ns, Fnv};
use crate::trace::{Tracer, MEASURE, WARM};

/// Input sizes. `FULL` is what `BENCHMARK.json` records.
#[derive(Debug, Clone, Copy)]
pub struct FleetSize {
    pub hosts: usize,
    /// Mean VM creates per simulated second.
    pub arrivals_per_sec: f64,
    /// Simulated length of the whole replay.
    pub horizon: Nanos,
    /// Simulated length of the warm phase (the fleet fills, the shared
    /// plan cache warms); the measured window is the rest.
    pub warm: Nanos,
}

impl FleetSize {
    /// 320 hosts x 2 cores. At 100 creates/s the fleet ends the replay
    /// under half full, so no create is shed for lack of capacity even
    /// while the chaos preset holds a third of the hosts down or degraded.
    pub const FULL: FleetSize = FleetSize {
        hosts: 320,
        arrivals_per_sec: 100.0,
        horizon: Nanos(28_000_000_000),
        warm: Nanos(6_000_000_000),
    };
    #[cfg(test)]
    pub const TINY: FleetSize = FleetSize {
        hosts: 8,
        arrivals_per_sec: 6.0,
        horizon: Nanos(3_000_000_000),
        warm: Nanos(1_000_000_000),
    };
}

const CORES_PER_HOST: usize = 2;

pub struct FleetWorkload {
    chaos: bool,
    seed: u64,
    size: FleetSize,
    trace: Vec<ChurnEvent>,
    gen_s: f64,
}

impl FleetWorkload {
    /// Generates the churn trace from `seed`. VMs whose demand (at create
    /// or after their resize) exceeds what one host may commit are left
    /// out: the fleet could only ever answer them with a typed
    /// `NoCapacity`, which would measure the request mix, not the fleet.
    pub fn generate(seed: u64, size: FleetSize, chaos: bool) -> FleetWorkload {
        let t0 = Instant::now();
        let budget = FleetConfig::new(size.hosts, CORES_PER_HOST).host_budget_ppm();
        let mut trace = sap_trace(&ChurnConfig::sap(seed, size.arrivals_per_sec, size.horizon));
        let mut too_big = std::collections::BTreeSet::new();
        for e in &trace {
            if let ChurnOp::Create(f) | ChurnOp::Resize(f) = e.op {
                if f.vcpus as u64 * u64::from(f.utilization_ppm) > budget {
                    too_big.insert(e.vm);
                }
            }
        }
        trace.retain(|e| !too_big.contains(&e.vm));
        FleetWorkload {
            chaos,
            seed,
            size,
            trace,
            gen_s: t0.elapsed().as_secs_f64(),
        }
    }
}

/// The closed-loop client: replays trace events epoch by epoch.
struct Replay<'a> {
    fleet: Fleet,
    trace: &'a [ChurnEvent],
    next: usize,
    now: Nanos,
    epochs: u64,
    requests: u64,
    /// Requests of any kind answered with a typed refusal.
    refused: u64,
    creates: u64,
    /// Creates answered with a typed `AdmissionRejected`.
    shed: u64,
}

impl Replay<'_> {
    /// One control epoch ending at `now`: this epoch's requests, one
    /// `Fleet::step`, and the conservation check.
    fn epoch(&mut self, tr: &mut Tracer) -> Result<(), String> {
        while self.next < self.trace.len() && self.trace[self.next].at <= self.now {
            let e = self.trace[self.next];
            let req = self.next as u64;
            self.next += 1;
            self.requests += 1;
            let name = match e.op {
                ChurnOp::Create(_) => "fleet.admit",
                ChurnOp::Teardown => "fleet.teardown",
                ChurnOp::Resize(_) => "fleet.resize",
            };
            let s = tr.enter(name, req);
            let ok = match e.op {
                ChurnOp::Create(f) => self.fleet.admit(e.at, e.vm, f).is_ok(),
                ChurnOp::Teardown => self.fleet.teardown(e.at, e.vm).is_ok(),
                ChurnOp::Resize(f) => self.fleet.resize(e.at, e.vm, f).is_ok(),
            };
            tr.exit(s);
            self.refused += u64::from(!ok);
            if let ChurnOp::Create(_) = e.op {
                self.creates += 1;
                self.shed += u64::from(!ok);
            }
        }
        let s = tr.enter("fleet.step", self.epochs);
        self.fleet.step(self.now);
        tr.exit(s);
        let s = tr.enter("harness.conservation", self.epochs);
        let kept = self.fleet.check_conservation();
        tr.exit(s);
        self.epochs += 1;
        kept.map_err(|e| format!("conservation violated at {}: {e}", self.now))?;
        let c = self.fleet.counters();
        if c.audit_false_positives != 0 || c.corruptions_detected > c.corruptions_injected {
            return Err(format!(
                "the table audit flagged damage nobody injected at {}: {} false positives, \
                 {} detected of {} injected",
                self.now, c.audit_false_positives, c.corruptions_detected, c.corruptions_injected
            ));
        }
        Ok(())
    }

    fn replay_until(&mut self, end: Nanos, tr: &mut Tracer) -> Result<(), String> {
        while self.now < end {
            self.now = Nanos((self.now.0 + CONTROL_EPOCH.0).min(end.0));
            self.epoch(tr)?;
        }
        Ok(())
    }

    fn settled(&self) -> bool {
        self.fleet.displaced() == 0
            && self
                .fleet
                .states()
                .iter()
                .all(|s| !matches!(s, HostState::Down { .. }))
    }
}

impl Workload for FleetWorkload {
    fn round(&self, tr: &mut Tracer) -> Result<Round, String> {
        let size = self.size;
        let t_warm = Instant::now();
        let warm = tr.enter(WARM, 0);
        let boot = tr.enter("fleet.boot", 0);
        let mut fleet = Fleet::new(FleetConfig::new(size.hosts, CORES_PER_HOST))
            .map_err(|e| format!("probe-only boot config failed to plan: {e}"))?;
        if self.chaos {
            fleet.arm_faults(fleet_chaos(self.seed, 1.0), size.horizon);
        }
        tr.exit(boot);
        let mut rp = Replay {
            fleet,
            trace: &self.trace,
            next: 0,
            now: Nanos::ZERO,
            epochs: 0,
            requests: 0,
            refused: 0,
            creates: 0,
            shed: 0,
        };
        rp.replay_until(size.warm, tr)?;
        tr.exit(warm);
        let warm_s = t_warm.elapsed().as_secs_f64();
        let (warm_requests, warm_creates, warm_shed) = (rp.requests, rp.creates, rp.shed);

        let t_measure = Instant::now();
        let measure = tr.enter(MEASURE, 0);
        rp.replay_until(size.horizon, tr)?;
        // Past the horizon every pending outage ends and every displaced
        // VM re-places; a pristine fleet is settled already.
        let mut convergence = 0u64;
        while !rp.settled() {
            if convergence >= CONVERGENCE_EPOCHS {
                return Err(format!(
                    "no convergence within {CONVERGENCE_EPOCHS} epochs past the horizon: \
                     {} displaced",
                    rp.fleet.displaced()
                ));
            }
            rp.now += CONTROL_EPOCH;
            convergence += 1;
            rp.epoch(tr)?;
        }
        tr.exit(measure);
        let measure_s = t_measure.elapsed().as_secs_f64();

        let fleet = &rp.fleet;
        let c = *fleet.counters();
        let g = *fleet.rungs();
        let cache = fleet.cache().stats();
        let batch = fleet.batch_stats();
        let pdes = fleet.pdes_stats();
        let hist = fleet.admit_to_install();

        // `detected == injected` is not checked, because `fleet` does not
        // keep it: a corruption that lands on a host whose repair install
        // is still pending (a storm, a backoff or a degradation defers it)
        // is repaired by that install but counted only when the host is
        // next found damaged, and never if it crashes first. The fleet
        // exposes no per-host audit state to tell those apart, so the
        // shortfall is reported as `fleet.corruptions_unaccounted`, enters
        // the digest, and every epoch checks the side that must hold
        // (`Replay::epoch`: no false positive, never more detected than
        // injected).
        let unaccounted = c.corruptions_injected - c.corruptions_detected;
        let faults = [
            c.crashes,
            c.restarts,
            c.degradations,
            c.evacuated_vms,
            c.install_retries,
            c.corruptions_injected,
        ];
        if self.chaos {
            // The preset must actually reach the fault paths, or this
            // workload silently measures the same thing as `fleet-churn`.
            if size.hosts >= 64 && faults.contains(&0) {
                return Err(format!("chaos preset left a fault path cold: {faults:?}"));
            }
        } else if faults.iter().any(|&f| f != 0) {
            return Err(format!(
                "fault counters moved on a pristine fleet: {faults:?}"
            ));
        }
        if hist.count() == 0 {
            return Err("no admission ever reached a committed install".into());
        }

        let tail = tail_mean_ns(hist);
        let mut d = Fnv::new();
        d.words(&[
            c.admissions,
            c.admissions_best_fit,
            c.admissions_first_fit,
            c.admissions_shed,
            c.teardowns,
            c.resizes,
            c.resize_rejections,
            c.crashes,
            c.restarts,
            c.degradations,
            c.evacuated_vms,
            c.evacuation_retries,
            c.parked,
            c.unparked,
            c.installs,
            c.install_retries,
            c.install_budget_exhaustions,
            c.installs_rejected,
            c.corruptions_injected,
            c.corruptions_detected,
        ]);
        d.words(&[
            g.cache_hit,
            g.delta,
            g.cache_plan,
            g.incremental,
            g.full,
            g.full_conservative,
        ]);
        d.words(&[cache.hits, cache.misses, batch.batched_events]);
        d.words(&[
            pdes.partitioned_runs,
            pdes.windows_advanced,
            pdes.declines(),
        ]);
        d.words(&[
            rp.epochs,
            rp.requests,
            rp.refused,
            convergence,
            fleet.live_vms() as u64,
            hist.count(),
            hist.mean().as_nanos(),
            hist.max().as_nanos(),
            tail,
        ]);

        let ms = |v: Option<Nanos>| v.map_or(0.0, |n| n.as_millis_f64());
        let lookups = (cache.hits + cache.misses).max(1) as f64;
        let mut counters = vec![
            ("fleet.rung.cache_hit", g.cache_hit as f64),
            ("fleet.rung.delta", g.delta as f64),
            ("fleet.rung.cache_plan", g.cache_plan as f64),
            ("fleet.rung.incremental", g.incremental as f64),
            ("fleet.rung.full", g.full as f64),
            ("fleet.rung.full_conservative", g.full_conservative as f64),
            ("fleet.admissions_best_fit", c.admissions_best_fit as f64),
            ("fleet.admissions_first_fit", c.admissions_first_fit as f64),
            ("fleet.admissions_shed", c.admissions_shed as f64),
            ("fleet.resize_rejections", c.resize_rejections as f64),
            ("fleet.installs", c.installs as f64),
            ("fleet.install_retries", c.install_retries as f64),
            ("fleet.evacuated_vms", c.evacuated_vms as f64),
            ("fleet.evacuation_retries", c.evacuation_retries as f64),
            ("fleet.parked", c.parked as f64),
            ("fleet.crashes", c.crashes as f64),
            ("fleet.restarts", c.restarts as f64),
            ("fleet.corruptions_injected", c.corruptions_injected as f64),
            ("fleet.corruptions_detected", c.corruptions_detected as f64),
            ("fleet.corruptions_unaccounted", unaccounted as f64),
            ("fleet.convergence_epochs", convergence as f64),
            ("fleet.admit_to_install.p50_sim_ms", ms(hist.quantile(0.5))),
            ("fleet.admit_to_install.p99_sim_ms", ms(hist.p99())),
            (
                "fleet.admit_to_install.max_sim_ms",
                hist.max().as_millis_f64(),
            ),
            ("core.cache.hits", cache.hits as f64),
            ("core.cache.misses", cache.misses as f64),
            ("core.cache.hit_ratio", cache.hits as f64 / lookups),
            ("xensim.pdes.partitioned_runs", pdes.partitioned_runs as f64),
            ("xensim.pdes.windows_advanced", pdes.windows_advanced as f64),
            ("xensim.pdes.mailbox_events", pdes.mailbox_events as f64),
            ("xensim.pdes.lookahead_stalls", pdes.lookahead_stalls as f64),
            ("xensim.pdes.declines", pdes.declines() as f64),
            (
                "xensim.pdes.declined_single_socket",
                pdes.declined_single_socket as f64,
            ),
            (
                "xensim.pdes.declined_faults_armed",
                pdes.declined_faults_armed as f64,
            ),
            (
                "xensim.pdes.declined_scheduler_opt_out",
                pdes.declined_scheduler_opt_out as f64,
            ),
            (
                "xensim.pdes.declined_tables_unsettled",
                pdes.declined_tables_unsettled as f64,
            ),
            (
                "xensim.pdes.declined_monitor_attached",
                pdes.declined_monitor_attached as f64,
            ),
            (
                "xensim.pdes.declined_cross_socket_placement",
                pdes.declined_cross_socket_placement as f64,
            ),
            (
                "xensim.pdes.declined_no_lookahead",
                pdes.declined_no_lookahead as f64,
            ),
        ];

        counters.extend(batch_counters(&batch));

        Ok(Round {
            warm_s,
            measure_s,
            work: rp.requests - warm_requests,
            // Operations are the creates; a resize the planner cannot fit
            // on the VM's host is refused by design and shows as
            // `fleet.resize_rejections`.
            attempted: rp.creates - warm_creates,
            failed: rp.shed - warm_shed,
            model_tail_ns: tail,
            digest: d.finish(),
            counters,
        })
    }

    fn input_counters(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("workloads.churn.events", self.trace.len() as f64),
            ("workloads.churn.trace_gen_s", self.gen_s),
        ]
    }
}
