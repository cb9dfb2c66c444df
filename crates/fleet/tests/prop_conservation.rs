//! Property-based test of the fleet conservation invariant.
//!
//! Under an arbitrary interleaving of admissions, teardowns, resizes, and
//! host crashes, the fleet must never lose or duplicate a VM: at every
//! control epoch the set of VMs the fleet owns (placed ∪ evacuating ∪
//! parked, pairwise disjoint) equals exactly the admitted-minus-torn-down
//! set the test tracks independently. Once the chaos stops and every host
//! has restarted, every surviving VM must converge back to *placed*.
//!
//! `Fleet::settle` catches host simulators up for observers and must not
//! move the model: settling at arbitrary points of a run ends where a run
//! settled only at its end does.

use std::collections::BTreeSet;

use proptest::prelude::*;

use fleet::{Fleet, FleetConfig, VmLocation};
use rtsched::time::Nanos;
use workloads::churn::Flavor;
use xensim::fault::{HostFaultConfig, InstallStormFaults, TableCorruptionFaults};

const FLAVORS: [Flavor; 4] = [
    Flavor {
        vcpus: 1,
        utilization_ppm: 125_000,
    },
    Flavor {
        vcpus: 1,
        utilization_ppm: 250_000,
    },
    Flavor {
        vcpus: 2,
        utilization_ppm: 125_000,
    },
    Flavor {
        vcpus: 2,
        utilization_ppm: 250_000,
    },
];

const N_HOSTS: usize = 6;
const EPOCH: Nanos = Nanos::from_millis(50);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Ops are `(kind, randomness, host)` triples, one per control epoch:
    /// kind 0/1 admit, 2 teardown, 3 resize, 4 crash.
    #[test]
    fn no_vm_lost_or_duplicated_under_crash_churn(
        ops in proptest::collection::vec((0u8..5, 0u64..u32::MAX as u64, 0usize..N_HOSTS), 1..60),
    ) {
        let mut fleet = Fleet::new(FleetConfig::new(N_HOSTS, 2)).expect("boot plan");
        let mut now = Nanos::ZERO;
        let mut next_vm = 0u64;
        // The oracle: admitted minus torn-down, tracked independently.
        let mut expected: BTreeSet<u64> = BTreeSet::new();

        for &(kind, r, h) in &ops {
            now += EPOCH;
            match kind {
                0 | 1 => {
                    let f = FLAVORS[(r % 4) as usize];
                    if fleet.admit(now, next_vm, f).is_ok() {
                        expected.insert(next_vm);
                    }
                    next_vm += 1;
                }
                2 => {
                    if !expected.is_empty() {
                        let idx = (r as usize) % expected.len();
                        let vm = *expected.iter().nth(idx).expect("idx in range");
                        fleet.teardown(now, vm).expect("tearing down a live vm");
                        expected.remove(&vm);
                    }
                }
                3 => {
                    if !expected.is_empty() {
                        let idx = (r as usize) % expected.len();
                        let vm = *expected.iter().nth(idx).expect("idx in range");
                        // Either applied or rejected with a typed error;
                        // both preserve ownership.
                        let _ = fleet.resize(now, vm, FLAVORS[((r >> 8) % 4) as usize]);
                    }
                }
                4 => {
                    let outage = Nanos::from_millis(100 + r % 900);
                    fleet.inject_crash(h, now, now + outage);
                }
                _ => unreachable!(),
            }
            fleet.step(now);

            if let Err(e) = fleet.check_conservation() {
                prop_assert!(false, "conservation violated at {now:?}: {e}");
            }
            prop_assert_eq!(
                fleet.live_vms(),
                expected.len(),
                "ledger diverged from the oracle at {:?}",
                now
            );
            for &vm in &expected {
                prop_assert!(fleet.location(vm).is_some(), "vm {} lost", vm);
            }
        }

        // Chaos over: drain long enough for every outage to end, every
        // parked VM to retry, and every evacuation to converge.
        for _ in 0..200 {
            now += EPOCH;
            fleet.step(now);
        }
        if let Err(e) = fleet.check_conservation() {
            prop_assert!(false, "conservation violated after drain: {e}");
        }
        prop_assert_eq!(fleet.live_vms(), expected.len());
        prop_assert_eq!(
            fleet.displaced(),
            0,
            "evacuations/parked VMs failed to converge"
        );
        for &vm in &expected {
            prop_assert!(
                matches!(fleet.location(vm), Some(VmLocation::Placed(_))),
                "vm {} not placed after convergence",
                vm
            );
        }
    }
}

/// Everything the fleet exposes once settled but the batching accounting,
/// which depends on where the catch-ups fell: counters, rungs, cache
/// statistics, host states, every VM's location and the admit-to-install
/// histogram.
#[derive(Debug, PartialEq)]
struct Observed {
    counters: fleet::FleetCounters,
    rungs: fleet::RungCounters,
    cache: tableau_core::cache::CacheStats,
    steps: u64,
    states: Vec<fleet::HostState>,
    locations: Vec<Option<VmLocation>>,
    backlog: usize,
    histogram: (u64, Nanos, Nanos, Nanos, Option<Nanos>),
}

/// Replays `ops` (as in the conservation property, plus install storms and
/// table corruptions seeded by `seed`), settling after each step whose op
/// has `settle == 1`, and once at the end.
fn replay_settled_at(seed: u64, ops: &[(u8, u64, usize, u8)]) -> Observed {
    let mut fleet = Fleet::new(FleetConfig::new(N_HOSTS, 2)).expect("boot plan");
    let faults = HostFaultConfig {
        seed,
        storm: InstallStormFaults {
            interval: Nanos::from_millis(600),
            duration: Nanos::from_millis(200),
            interrupt_prob: 0.7,
        },
        corruption: TableCorruptionFaults {
            interval: Nanos::from_millis(500),
            prob: 0.5,
        },
        ..HostFaultConfig::none()
    };
    fleet.arm_faults(faults, EPOCH * ops.len() as u64);
    let mut now = Nanos::ZERO;
    let mut owned: Vec<u64> = Vec::new();
    for (vm, &(kind, r, h, settle)) in ops.iter().enumerate() {
        now += EPOCH;
        match kind {
            0 | 1
                if fleet
                    .admit(now, vm as u64, FLAVORS[(r % 4) as usize])
                    .is_ok() =>
            {
                owned.push(vm as u64);
            }
            2 if !owned.is_empty() => {
                let vm = owned.swap_remove(r as usize % owned.len());
                fleet.teardown(now, vm).expect("tearing down a live vm");
            }
            3 if !owned.is_empty() => {
                let vm = owned[r as usize % owned.len()];
                let _ = fleet.resize(now, vm, FLAVORS[((r >> 8) % 4) as usize]);
            }
            4 => fleet.inject_crash(h, now, now + Nanos::from_millis(100 + r % 900)),
            _ => {}
        }
        fleet.step(now);
        if settle == 1 {
            fleet.settle();
        }
        fleet.check_conservation().expect("conservation");
    }
    fleet.settle();
    let h = fleet.admit_to_install();
    Observed {
        counters: *fleet.counters(),
        rungs: *fleet.rungs(),
        cache: fleet.cache().stats(),
        steps: fleet.step_phases().steps,
        states: fleet.states(),
        locations: (0..ops.len() as u64).map(|vm| fleet.location(vm)).collect(),
        backlog: fleet.backlog(),
        histogram: (h.count(), h.min(), h.max(), h.mean(), h.p99()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Ops are `(kind, randomness, host, settle)`, one per control epoch,
    /// with the kinds of the conservation property (5 is a quiet epoch);
    /// `settle == 1` settles the fleet after that epoch's step.
    #[test]
    fn settling_at_any_point_cannot_move_the_fleet_model(
        seed in 0u64..1_000,
        ops in proptest::collection::vec(
            (0u8..6, 0u64..u32::MAX as u64, 0usize..N_HOSTS, 0u8..2),
            1..80,
        ),
    ) {
        let unsettled: Vec<_> = ops.iter().map(|&(k, r, h, _)| (k, r, h, 0)).collect();
        prop_assert_eq!(replay_settled_at(seed, &ops), replay_settled_at(seed, &unsettled));
    }
}
