//! The replay gate for the fleet control plane.
//!
//! A fleet run is a function of its configuration, its fault seed and the
//! calls made on it: every fleet-level observable — counters, rung
//! provenance, the admit-to-install histogram, the shared
//! plan cache's counters, every VM's location, the aggregated
//! dense-batching counters, and the step ledger's call count — must come
//! out **bit-for-bit identical** when the same scenario is driven twice
//! (nothing may leak from `HashMap` iteration order, addresses or the host
//! clock). This drives one chaos scenario (crashes, degradations, install
//! storms, table corruptions, sustained churn) twice and compares
//! everything.
//!
//! The same scenario also pins down what the plan cache may change: every
//! replan rung returns `plan(host, opts)` field for field, so a fleet with a
//! one-plan cache must reach exactly the model state of one with 256 —
//! only the rung counters that say *who* answered, and the cache's own
//! counters, may differ.

use fleet::{Fleet, FleetConfig, VmLocation};
use rtsched::time::Nanos;
use workloads::churn::Flavor;
use xensim::fault::HostFaultConfig;
use xensim::stats::BatchStats;

/// Every observable the control plane exposes, in one comparable record.
#[derive(Debug, PartialEq)]
struct FleetObservation {
    counters: fleet::FleetCounters,
    rungs: fleet::RungCounters,
    batch: BatchStats,
    /// `Fleet::step` calls the phase ledger recorded (its times are host
    /// time and never compared).
    steps: u64,
    live_vms: usize,
    backlog: usize,
    displaced: usize,
    states: Vec<fleet::HostState>,
    locations: Vec<(u64, Option<VmLocation>)>,
    histogram: (u64, Nanos, Nanos, Nanos, Option<Nanos>),
    cache: tableau_core::cache::CacheStats,
}

fn run_chaos_scenario(cache_capacity: usize) -> FleetObservation {
    let mut cfg = FleetConfig::new(8, 2);
    cfg.cache_capacity = cache_capacity;
    let mut fleet = Fleet::new(cfg).expect("boot plan");
    let horizon = Nanos::from_secs(20);
    fleet.arm_faults(HostFaultConfig::chaos(42, 0.6), horizon);

    let epoch = Nanos::from_millis(50);
    let mut now = Nanos::ZERO;
    let mut vm = 0u64;
    for k in 0..120u64 {
        now += epoch;
        // Sustained churn: two admissions per epoch with alternating
        // flavors, teardowns and resizes trailing behind.
        for _ in 0..2 {
            let flavor = if vm.is_multiple_of(3) {
                Flavor {
                    vcpus: 2,
                    utilization_ppm: 125_000,
                }
            } else {
                Flavor {
                    vcpus: 1,
                    utilization_ppm: 250_000,
                }
            };
            let _ = fleet.admit(now, vm, flavor);
            vm += 1;
        }
        if k % 2 == 0 && vm > 12 {
            let _ = fleet.teardown(now, vm - 12);
        }
        if k % 5 == 0 && vm > 8 {
            let _ = fleet.resize(
                now,
                vm - 8,
                Flavor {
                    vcpus: 1,
                    utilization_ppm: 125_000,
                },
            );
        }
        // Guaranteed outages on top of the seeded chaos, so evacuation,
        // parking, and restart paths run regardless of the fault draw.
        if k == 40 {
            fleet.inject_crash(0, now, now + Nanos::from_millis(800));
        }
        if k == 70 {
            fleet.inject_crash(3, now, now + Nanos::from_millis(400));
            fleet.inject_crash(5, now, now + Nanos::from_millis(1_200));
        }
        fleet.step(now);
        fleet.check_conservation().expect("conservation");
    }

    let h = fleet.admit_to_install();
    FleetObservation {
        counters: *fleet.counters(),
        rungs: *fleet.rungs(),
        batch: fleet.batch_stats(),
        steps: fleet.step_phases().steps,
        live_vms: fleet.live_vms(),
        backlog: fleet.backlog(),
        displaced: fleet.displaced(),
        states: fleet.states(),
        locations: (0..vm).map(|v| (v, fleet.location(v))).collect(),
        histogram: (h.count(), h.min(), h.max(), h.mean(), h.p99()),
        cache: fleet.cache().stats(),
    }
}

#[test]
fn chaos_scenario_replays_bit_for_bit() {
    let first = run_chaos_scenario(256);
    assert_eq!(first, run_chaos_scenario(256), "the same scenario diverged");
    // The scenario must actually exercise the control plane.
    assert!(first.counters.crashes > 0, "chaos never crashed a host");
    assert!(first.counters.installs > 0, "no installs committed");
    assert!(first.counters.admissions > 0, "no admissions");
    assert!(first.cache.hits > 0, "the plan cache never served a hit");
    assert!(first.histogram.0 > 0, "no admission reached an install");
    assert!(first.batch.batched_events > 0, "dense batching off");
    assert_eq!(first.steps, 120);
}

#[test]
fn cache_capacity_cannot_move_the_fleet_model() {
    let roomy = run_chaos_scenario(256);
    let mut tight = run_chaos_scenario(1);
    assert!(
        roomy.rungs.cache_hit > tight.rungs.cache_hit,
        "a 256-plan cache must serve more hits than a 1-plan one"
    );
    // The three cache-facing rungs split the same replans differently.
    let cache_rungs = |o: &FleetObservation| o.rungs.cache_hit + o.rungs.delta + o.rungs.cache_plan;
    assert_eq!(cache_rungs(&roomy), cache_rungs(&tight));
    // Everything else — counters, batch stats, host states,
    // every VM's location, the admit-to-install histogram — is equal.
    tight.rungs.cache_hit = roomy.rungs.cache_hit;
    tight.rungs.delta = roomy.rungs.delta;
    tight.rungs.cache_plan = roomy.rungs.cache_plan;
    tight.cache = roomy.cache.clone();
    assert_eq!(roomy, tight, "the cache's capacity moved the fleet model");
}
