//! Property test of shared table images against a per-host oracle.
//!
//! The fleet hands every dispatcher a table from the content-addressed
//! image store; the parent design built a private `mask_table` copy per
//! install and audited each copy against its own baseline. This test
//! keeps that design alive as the oracle: under random interleavings of
//! admit / teardown / resize / crash / corruption / install storm it
//! maintains, per host, the plan whose mask a per-host fleet would have
//! installed (and the corrupted copy it would hold), and after every step
//! requires
//!
//! 1. each live host's table to be `==` that oracle table,
//! 2. the shared audit's verdict per host to equal a per-host audit run
//!    here: the `TableFacts` of the oracle baseline against those of the
//!    host's live table, each derived privately,
//! 3. a corruption to leave every other host's pointer and bytes alone,
//!    and a corrupted table to be private to its host,
//! 4. the store to hold no more images than something still points at.

use proptest::prelude::*;
use xensim::fault::InstallStormFaults;

use super::*;
use crate::images::mask_table;

const EPOCH: Nanos = Nanos::from_millis(50);

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

/// What a fleet of private per-host copies would hold on one host.
struct Oracle {
    /// The mask of the plan last installed (the audit baseline).
    baseline: Table,
    /// The table the dispatcher runs: `baseline`, or a corrupted copy.
    live: Table,
    /// Whether `live` is a corrupted copy, which nobody may share.
    private: bool,
}

impl Oracle {
    fn of(plan: &Plan) -> Oracle {
        let baseline = mask_table(&plan.table, 2).expect("masks");
        Oracle {
            live: baseline.clone(),
            baseline,
            private: false,
        }
    }
}

fn live_table(h: &FleetHost) -> Option<&Table> {
    Some(h.tableau()?.dispatcher().newest_table())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ops are `(kind, randomness, host)`, one per control epoch: kinds 0–2
    /// admit, 3 teardown, 4 resize, 5 crash, 6–7 corrupt, 8 storm.
    #[test]
    fn shared_images_are_indistinguishable_from_private_copies(
        n_hosts in 8usize..25,
        ops in proptest::collection::vec((0u8..9, 0u64..u32::MAX as u64, 0usize..24), 1..70),
    ) {
        let mut fleet = Fleet::new(FleetConfig::new(n_hosts, 2)).expect("boot plan");
        // An armed engine whose storms interrupt two installs in three; the
        // windows themselves are placed by the ops below.
        fleet.arm_faults(
            HostFaultConfig {
                seed: ops.len() as u64,
                storm: InstallStormFaults {
                    interval: Nanos::from_secs(3600),
                    duration: Nanos(1),
                    interrupt_prob: 0.66,
                },
                ..HostFaultConfig::none()
            },
            Nanos::from_secs(3600),
        );
        fleet.storm_windows.clear();
        let mut oracle: Vec<Oracle> = (0..n_hosts).map(|_| Oracle::of(&fleet.boot.plan)).collect();
        let mut now = Nanos::ZERO;
        let mut next_vm = 0u64;
        let mut owned: Vec<u64> = Vec::new();

        for &(kind, r, host) in &ops {
            now += EPOCH;
            let host = host % n_hosts;
            let mut corrupted = None;
            match kind {
                0..=2 => {
                    if fleet.admit(now, next_vm, FLAVORS[(r % 4) as usize]).is_ok() {
                        owned.push(next_vm);
                    }
                    next_vm += 1;
                }
                3 if !owned.is_empty() => {
                    let vm = owned.swap_remove(r as usize % owned.len());
                    fleet.teardown(now, vm).expect("owned vm tears down");
                }
                4 if !owned.is_empty() => {
                    let vm = owned[r as usize % owned.len()];
                    let _ = fleet.resize(now, vm, FLAVORS[(r / 7 % 4) as usize]);
                }
                5 => fleet.inject_crash(host, now, now + EPOCH * (1 + r % 6)),
                6 | 7 => {
                    let ev = CorruptionEvent { at: now, class: (r % 3) as u8, salt: r / 3 };
                    fleet.faults[host].corruptions.push(ev);
                    corrupted = Some((host, ev));
                }
                8 => fleet.storm_windows = vec![(now, now + EPOCH * (1 + r % 4))],
                _ => {}
            }

            // The oracle walks the step's own order: restarts, then
            // corruptions, then (below) installs.
            for (i, h) in fleet.hosts.iter().enumerate() {
                if matches!(h.state, HostState::Down { until } if now >= until) {
                    oracle[i] = Oracle::of(&fleet.boot.plan);
                }
            }
            let up_at_injection = |h: &FleetHost| match h.state {
                HostState::Down { until } => now >= until,
                _ => true,
            };
            if let Some((i, ev)) = corrupted {
                if up_at_injection(&fleet.hosts[i]) {
                    let kind = CorruptionKind::ALL[(ev.class % 3) as usize];
                    let o = &mut oracle[i];
                    let bad = (0..16u64)
                        .find_map(|k| corrupt_table(&o.live, kind, ev.salt.wrapping_add(k)));
                    if let Some(bad) = bad {
                        o.live = bad;
                        o.private = true;
                    }
                }
            }
            let before: Vec<Option<*const Table>> = fleet
                .hosts
                .iter()
                .map(|h| live_table(h).map(|t| t as *const Table))
                .collect();
            // Hosts with nothing pending, and the plan they run.
            let settled: Vec<Option<Arc<Plan>>> = fleet
                .hosts
                .iter()
                .map(|h| (!h.dirty).then(|| h.plan.clone()))
                .collect();

            fleet.step(now);
            fleet.check_conservation().expect("conservation");

            for (i, h) in fleet.hosts.iter().enumerate() {
                // A host with nothing pending runs its plan's mask: its
                // install (or repair) committed, or nothing changed.
                if h.sim.is_some() && !h.dirty {
                    oracle[i] = Oracle::of(&h.plan);
                }
            }

            // (1) every live host reads the oracle's bytes.
            for (i, h) in fleet.hosts.iter().enumerate() {
                if let Some(live) = live_table(h) {
                    prop_assert!(*live == oracle[i].live, "host {} diverged from its oracle", i);
                }
            }
            // (2) shared verdicts == per-host audits.
            let verdicts = fleet.audit_verdicts();
            for (i, h) in fleet.hosts.iter().enumerate() {
                let want = live_table(h).is_some_and(|live| {
                    TableFacts::derive(&oracle[i].baseline) != TableFacts::derive(live)
                });
                prop_assert_eq!(verdicts[i], want, "audit verdict of host {}", i);
            }
            // (3) a corrupted table is private to its host, and corrupting
            // it moved nobody who had nothing pending and got no new plan.
            for (i, h) in fleet.hosts.iter().enumerate() {
                // (A host that crashed with its damaged copy holds nothing.)
                let Some(mine) = live_table(h).filter(|_| oracle[i].private) else {
                    continue;
                };
                let shared = fleet.hosts.iter().enumerate().any(|(j, other)| {
                    j != i && live_table(other).is_some_and(|t| std::ptr::eq(t, mine))
                });
                prop_assert!(!shared, "host {}'s corrupted table is shared", i);
            }
            if let Some((victim, _)) = corrupted {
                for (i, h) in fleet.hosts.iter().enumerate() {
                    let after = live_table(h).map(|t| t as *const Table);
                    let same_plan = settled[i].as_ref().is_some_and(|p| Arc::ptr_eq(p, &h.plan));
                    if i != victim && same_plan && before[i].is_some() && after.is_some() {
                        prop_assert_eq!(after, before[i], "corrupting {} moved host {}", victim, i);
                    }
                }
            }
            // (4) nothing is stored that nothing points at.
            let (stored, used) = image_census(&fleet);
            prop_assert!(stored <= used, "{} images stored, {} in use", stored, used);
            let c = fleet.counters();
            prop_assert_eq!(c.audit_false_positives, 0);
            prop_assert_eq!(
                c.corruptions_injected,
                c.corruptions_detected
                    + c.corruptions_lost_to_crash
                    + fleet.hosts.iter().map(|h| h.pending_corruptions).sum::<u64>()
            );
        }
    }
}
