//! Property-based tests for the Tableau planner and table machinery.
//!
//! The externally visible contract of the planner is the paper's guarantee:
//! for any admissible host configuration, every vCPU receives (at least
//! nearly) its reserved utilization in every table round, and its maximum
//! scheduling blackout respects its latency goal. Property testing sweeps
//! random fleets of mixed tiers against those guarantees, plus the O(1)
//! lookup's agreement with a naive scan and the binary format round-trip,
//! and that a plan is a function of the core count, the flat vCPU list and
//! the options alone: how the vCPUs are grouped into VMs does not enter.

use proptest::prelude::*;

use rtsched::time::Nanos;
use tableau_core::binary::{decode, encode};
use tableau_core::planner::{plan, PlannerOptions};
use tableau_core::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};

/// Strategy: a host of 2–4 cores with VMs whose total reservation fits.
fn arb_host() -> impl Strategy<Value = HostConfig> {
    (
        2usize..=4,
        proptest::collection::vec((5u32..=60, 2u64..=100, any::<bool>()), 1..=12),
    )
        .prop_map(|(cores, vms)| {
            let mut host = HostConfig::new(cores);
            let mut budget_ppm = cores as u64 * 1_000_000;
            for (i, (upct, l_ms, capped)) in vms.into_iter().enumerate() {
                let ppm = upct * 10_000;
                if budget_ppm < ppm as u64 + 10_000 {
                    break;
                }
                budget_ppm -= ppm as u64;
                let u = Utilization::from_ppm(ppm);
                let l = Nanos::from_millis(l_ms);
                let spec = if capped {
                    VcpuSpec::capped(u, l)
                } else {
                    VcpuSpec::new(u, l)
                };
                host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
            }
            if host.vms.is_empty() {
                host.add_vm(VmSpec::uniform(
                    "fallback",
                    1,
                    VcpuSpec::new(Utilization::from_percent(10), Nanos::from_millis(50)),
                ));
            }
            host
        })
}

/// `host`'s flat vCPU list regrouped into VMs: a VM ends after every vCPU
/// whose `cuts` bit is set (and after the last), so the id order and every
/// spec are kept and only the VM boundaries move.
fn regrouped(host: &HostConfig, cuts: &[bool]) -> HostConfig {
    let mut out = HostConfig::new(host.n_cores);
    let mut vm = Vec::new();
    let vcpus = host.vcpus();
    for (i, (_, spec)) in vcpus.iter().enumerate() {
        vm.push(*spec);
        if i + 1 == vcpus.len() || cuts.get(i).copied().unwrap_or(false) {
            let name = format!("group{}", out.vms.len());
            out.add_vm(VmSpec {
                name,
                vcpus: std::mem::take(&mut vm),
            });
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Regrouping the same flat vCPU list into other VMs plans the very
    /// same plan: the planner places vCPUs, and VM boundaries only number
    /// them.
    #[test]
    fn vm_grouping_does_not_change_the_plan(
        host in arb_host(),
        cuts in proptest::collection::vec(any::<bool>(), 12),
    ) {
        let regrouped = regrouped(&host, &cuts);
        prop_assert_eq!(host.vcpus(), regrouped.vcpus());
        let opts = PlannerOptions::default();
        let p = plan(&host, &opts).expect("admissible host plans");
        prop_assert_eq!(p, plan(&regrouped, &opts).expect("the same vCPUs plan"));
    }

    /// Every admissible host plans — to the same plan every time it is
    /// asked — and every vCPU's observed blackout is within its latency
    /// goal (plus the sub-threshold coalescing slack).
    #[test]
    fn blackouts_respect_latency_goals(host in arb_host()) {
        let p = plan(&host, &PlannerOptions::default()).expect("admissible host plans");
        let again = plan(&host, &PlannerOptions::default()).expect("admissible host plans");
        prop_assert_eq!(&p, &again, "a plan is a function of the request");
        let slack = tableau_core::postprocess::DEFAULT_THRESHOLD;
        for (vcpu, spec) in host.vcpus() {
            let blackout = p.blackout_of(vcpu).expect("every vCPU measured");
            prop_assert!(
                blackout <= spec.latency + slack,
                "{vcpu}: blackout {blackout} exceeds goal {}",
                spec.latency
            );
        }
    }

    /// Every vCPU's total service per table round is at least its
    /// reservation minus the (bounded, reported) coalescing donation.
    #[test]
    fn reservations_survive_post_processing(host in arb_host()) {
        let p = plan(&host, &PlannerOptions::default()).expect("admissible host plans");
        let table_len = p.table.len();
        for (vcpu, spec) in host.vcpus() {
            let placed: Nanos = p
                .table
                .placement(vcpu)
                .map(|pl| pl.allocations().map(|(_, s, e)| e - s).sum())
                .unwrap_or(Nanos::ZERO);
            let reserved = spec.utilization.budget_in(table_len);
            let lost: Nanos = p
                .coalesce
                .lost
                .iter()
                .filter(|(v, _)| *v == vcpu)
                .map(|&(_, t)| t)
                .sum();
            prop_assert!(
                placed + lost + Nanos::from_micros(50) >= reserved,
                "{vcpu}: placed {placed} + lost {lost} < reserved {reserved}"
            );
            // Coalescing losses are a vanishing fraction of the reservation.
            prop_assert!(lost.as_nanos() <= reserved.as_nanos() / 100 + 40_000);
        }
    }

    /// The slice-table O(1) lookup agrees with a naive linear scan at
    /// every probe point.
    #[test]
    fn o1_lookup_matches_linear_scan(host in arb_host(), probes in proptest::collection::vec(0u64..102_702_600, 32)) {
        let p = plan(&host, &PlannerOptions::default()).expect("admissible host plans");
        for core in 0..p.table.n_cores() {
            let allocs: Vec<_> = p.table.cpu(core).allocations().collect();
            for &t in &probes {
                let t = Nanos(t);
                let fast = p.table.lookup(core, t).vcpu();
                let slow = allocs.iter().find(|a| a.contains(t)).map(|a| a.vcpu);
                prop_assert_eq!(fast, slow, "core {} at {}", core, t);
            }
        }
    }

    /// The compiled binary table decodes back to an identical table.
    #[test]
    fn binary_round_trip(host in arb_host()) {
        let p = plan(&host, &PlannerOptions::default()).expect("admissible host plans");
        let decoded = decode(encode(&p.table)).expect("decodes");
        prop_assert_eq!(p.table, decoded);
    }

    /// A vCPU never has allocations overlapping in time across cores.
    #[test]
    fn no_parallel_allocations(host in arb_host()) {
        let p = plan(&host, &PlannerOptions::default()).expect("admissible host plans");
        for (vcpu, _) in host.vcpus() {
            if let Some(placement) = p.table.placement(vcpu) {
                let mut ivs: Vec<(Nanos, Nanos)> =
                    placement.allocations().map(|(_, s, e)| (s, e)).collect();
                ivs.sort_unstable();
                for w in ivs.windows(2) {
                    prop_assert!(w[0].1 <= w[1].0, "{vcpu} overlaps at {}", w[1].0);
                }
            }
        }
    }
}
