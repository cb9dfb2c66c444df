//! Property-based tests for delta replanning: a replan that takes the
//! host's previous plan as its donor.
//!
//! The contract: a plan built from a donor must be **field-identical** to a
//! full from-scratch plan of the same host — same table, same blackouts,
//! same coalesce bookkeeping — because the planner reuses a donor's cores
//! only where the packing provably reproduces them. Random fleets are
//! planned, hit with a random single-VM churn event (join, leave-of-last,
//! mid-host leave, resize), and replanned both ways. The same holds for
//! `plan_with_fallback`, whichever path answers, under default and
//! non-default options alike: its output is a function of the request,
//! never of the plan the host ran before.

use proptest::prelude::*;

use rtsched::generator::Stage;
use rtsched::time::Nanos;
use tableau_core::planner::{plan, plan_with_fallback, PlannerOptions, ReplanPath};
use tableau_core::postprocess::DEFAULT_THRESHOLD;
use tableau_core::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};

/// A reproducible fleet description: per-VM (utilization %, latency ms,
/// capped) tuples on a small multicore.
type FleetDesc = (usize, Vec<(u32, u64, bool)>);

fn add_vm(host: &mut HostConfig, i: usize, (upct, l_ms, capped): (u32, u64, bool)) {
    let u = Utilization::from_percent(upct);
    let l = Nanos::from_millis(l_ms);
    let spec = if capped {
        VcpuSpec::capped(u, l)
    } else {
        VcpuSpec::new(u, l)
    };
    host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
}

fn build_host(cores: usize, vms: &[(u32, u64, bool)]) -> HostConfig {
    let mut host = HostConfig::new(cores);
    for (i, &vm) in vms.iter().enumerate() {
        add_vm(&mut host, i, vm);
    }
    host
}

/// Strategy: 2–4 cores and 2–10 VMs, utilizations drawn from `utils`,
/// that always admit both the original fleet and the churned one (one
/// extra 10% VM).
fn arb_fleet_of(utils: &'static [u32]) -> impl Strategy<Value = FleetDesc> {
    const LATENCIES: [u64; 3] = [10, 20, 40];
    (
        2usize..=4,
        proptest::collection::vec((0usize..utils.len(), 0usize..3, any::<bool>()), 2..=10),
    )
        .prop_map(move |(cores, picks)| {
            // Keep total utilization (plus a 10% newcomer) admissible.
            let budget = cores as u64 * 100 - 15;
            let mut used = 0u64;
            let mut vms: Vec<(u32, u64, bool)> = Vec::new();
            for (ui, li, capped) in picks {
                let u = utils[ui];
                if used + u as u64 > budget {
                    continue;
                }
                used += u as u64;
                vms.push((u, LATENCIES[li], capped));
            }
            while vms.len() < 2 {
                vms.push((10, 40, false));
            }
            (cores, vms)
        })
}

/// Small VMs only: worst-fit places every one whole, so the previous plan
/// is plainly partitioned and donates.
fn arb_fleet() -> impl Strategy<Value = FleetDesc> {
    arb_fleet_of(&[10, 20, 25])
}

/// Half the draws are 60% VMs, and two of those never share a core: a
/// fleet such as 3 × 60% on 2 cores plans only with a C=D split or a
/// DP-Fair cluster, where the planner declines the previous plan as a
/// donor on its history alone. Fleets that drew few of them stay plainly
/// partitioned.
fn arb_heavy_fleet() -> impl Strategy<Value = FleetDesc> {
    arb_fleet_of(&[10, 25, 60, 60])
}

/// The four single-VM churn shapes a donor serves. Joins and leave-of-last
/// keep surviving vCPU ids verbatim (id-stable splice); a mid-host leave
/// shifts later ids down (relabel splice); a resize changes one VM's
/// (cost, period) tuple in place.
#[derive(Debug, Clone, Copy)]
enum Churn {
    Join,
    LeaveLast,
    LeaveMid,
    Resize,
}

fn churned_vms(vms: &[(u32, u64, bool)], churn: Churn, pick: usize) -> Vec<(u32, u64, bool)> {
    let mut vms = vms.to_vec();
    match churn {
        Churn::Join => vms.push((10, 20, false)),
        Churn::LeaveLast => {
            vms.pop();
        }
        // Pick strictly interior so ids after it genuinely shift.
        Churn::LeaveMid => {
            let gone = pick % (vms.len() - 1);
            vms.remove(gone);
        }
        // Shrink one VM to 5% (always admissible) — same id set, one
        // changed (cost, period) tuple.
        Churn::Resize => {
            let resized = pick % vms.len();
            vms[resized].0 = 5;
        }
    }
    vms
}

fn churned_host(cores: usize, vms: &[(u32, u64, bool)], churn: Churn, pick: usize) -> HostConfig {
    build_host(cores, &churned_vms(vms, churn, pick))
}

fn arb_churn() -> impl Strategy<Value = Churn> {
    (0usize..4).prop_map(|i| match i {
        0 => Churn::Join,
        1 => Churn::LeaveLast,
        2 => Churn::LeaveMid,
        _ => Churn::Resize,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Plans from a donor and full plans are field-identical over any
    /// single-VM churn event, on both splice paths (kept and relabelled
    /// cores), and a plainly partitioned donor is always used.
    #[test]
    fn delta_is_field_identical_to_full_replan(
        (cores, vms) in arb_fleet(),
        churn in arb_churn(),
        pick in 0usize..16,
    ) {
        let opts = PlannerOptions::default();
        let prev_host = build_host(cores, &vms);
        let prev = plan(&prev_host, &opts).expect("admissible fleet plans");
        let host = churned_host(cores, &vms, churn, pick);
        let full = plan(&host, &opts).expect("churned fleet plans fully");

        let out = plan_with_fallback(Some((&prev_host, &prev)), &host, &opts)
            .expect("ladder plans an admissible reconfiguration");
        match out.delta {
            Some(report) => {
                prop_assert_eq!(out.path, ReplanPath::Delta);
                prop_assert_eq!(
                    &out.plan, &full,
                    "{:?}: the plan from a donor diverged from the full replan \
                     (report {:?})", churn, report
                );
                // Bookkeeping: every shared core is either clean or dirty,
                // never both, never neither.
                let mut seen: Vec<usize> = report
                    .clean_cores
                    .iter()
                    .chain(&report.dirty_cores)
                    .copied()
                    .collect();
                seen.sort_unstable();
                let dedicated = full.params.iter().filter(|p| p.dedicated).count();
                let shared = cores - dedicated;
                prop_assert_eq!(seen.len(), shared, "{:?}", report);
                seen.dedup();
                prop_assert_eq!(seen.len(), shared, "core both clean and dirty: {:?}", report);
            }
            None => {
                // Only a donor that is not plainly partitioned is declined
                // here; the full plan answers for it.
                prop_assert_eq!(out.path, ReplanPath::Full);
                prop_assert_eq!(&out.plan, &full);
                prop_assert!(prev.stage != Stage::Partitioned || !prev.split_vcpus.is_empty());
            }
        }
    }

    /// A chain of churn events under the peephole pass, each replan
    /// offering the previous answer as its donor: the donor is declined
    /// (the peephole pass rewrites allocations out from under a donated
    /// core) and each answer is the full plan of its request.
    #[test]
    fn non_default_options_chain_matches_full_replans(
        (cores, vms) in arb_fleet_of(&[5, 10, 20, 25, 30]),
        steps in proptest::collection::vec((arb_churn(), 0usize..16), 1..6),
    ) {
        let opts = PlannerOptions {
            peephole: true,
            ..PlannerOptions::default()
        };
        let mut vms = vms;
        let mut host = build_host(cores, &vms);
        let mut current = plan_with_fallback(None, &host, &opts)
            .expect("an admissible fleet plans");
        for (churn, pick) in steps {
            if vms.len() < 3 && matches!(churn, Churn::LeaveLast | Churn::LeaveMid) {
                continue;
            }
            let next = churned_host(cores, &vms, churn, pick);
            let Ok(out) = plan_with_fallback(Some((&host, &current.plan)), &next, &opts) else {
                continue;
            };
            prop_assert!(
                out.plan == plan(&next, &opts).expect("the request plans"),
                "{:?} (pick {}) on {} cores x {:?}: the {} path's plan depends on the donor",
                churn, pick, cores, vms, out.path.label()
            );
            prop_assert_eq!(out.path, ReplanPath::Full);
            vms = churned_vms(&vms, churn, pick);
            (host, current) = (next, out);
        }
    }

    /// The ladder is history-free: whichever rung answers, its plan is the
    /// full replan of the request, field for field — after plainly
    /// partitioned previous plans (the delta rung) and after ones with
    /// splits or clusters (delta declines) alike.
    #[test]
    fn fallback_ladder_delta_rung_matches_full_replan(
        (cores, vms) in arb_heavy_fleet(),
        churn in arb_churn(),
        pick in 0usize..16,
    ) {
        let opts = PlannerOptions::default();
        let prev_host = build_host(cores, &vms);
        let prev = plan(&prev_host, &opts).expect("admissible fleet plans");
        let host = churned_host(cores, &vms, churn, pick);

        let out = plan_with_fallback(Some((&prev_host, &prev)), &host, &opts)
            .expect("ladder plans an admissible reconfiguration");
        let full = plan(&host, &opts).expect("churned fleet plans fully");
        prop_assert!(
            out.plan == full,
            "{:?} (pick {}) on {} cores x {:?}: the {} rung's plan depends on the previous plan",
            churn, pick, cores, vms, out.path.label()
        );
        prop_assert_eq!(out.delta.is_some(), out.path == ReplanPath::Delta);
        if prev.stage != Stage::Partitioned || !prev.split_vcpus.is_empty() {
            prop_assert_eq!(out.path, ReplanPath::Full, "split or clustered history");
        }
    }

    /// Structural changes — a core-count change, a dedicated (U = 1) vCPU
    /// arriving or leaving — take the full rung, and the plan it returns is
    /// the full replan with every vCPU's blackout within its goal (plus the
    /// coalescing threshold a donated sliver may cost).
    #[test]
    fn fallback_ladder_blackouts_match_full_replan(
        (cores, vms) in arb_fleet(),
        reshape in 0usize..3,
    ) {
        let opts = PlannerOptions::default();
        let mut dedicated = vms.clone();
        dedicated.push((100, 20, false));
        // The spare core is what a dedicated vCPU takes whole.
        let (prev_host, host) = match reshape {
            0 => (build_host(cores, &vms), build_host(cores + 1, &vms)),
            1 => (build_host(cores + 1, &vms), build_host(cores + 1, &dedicated)),
            _ => (build_host(cores + 1, &dedicated), build_host(cores + 1, &vms)),
        };
        let prev = plan(&prev_host, &opts).expect("admissible fleet plans");

        let out = plan_with_fallback(Some((&prev_host, &prev)), &host, &opts)
            .expect("ladder plans an admissible reconfiguration");
        prop_assert_eq!(out.path, ReplanPath::Full, "reshape {}", reshape);
        prop_assert_eq!(&out.plan, &plan(&host, &opts).expect("reshaped fleet plans fully"));
        for (vcpu, spec) in host.vcpus() {
            let blackout = out.plan.blackout_of(vcpu).expect("ladder measures every vCPU");
            prop_assert!(
                blackout <= spec.latency + DEFAULT_THRESHOLD,
                "{vcpu}: blackout {blackout} exceeds goal {}",
                spec.latency
            );
        }
    }
}

/// The history-free property on the smallest split history: 3 × 60% on 2
/// cores plans only with a split, so the delta rung declines and whatever
/// answers must still return the request's full plan.
#[test]
fn ladder_after_a_split_history_returns_the_full_plan() {
    let opts = PlannerOptions::default();
    let vms = [(60, 20, false); 3];
    let prev_host = build_host(2, &vms);
    let prev = plan(&prev_host, &opts).expect("3 x 60% fits 2 cores");
    assert!(prev.stage != Stage::Partitioned || !prev.split_vcpus.is_empty());

    let host = churned_host(2, &vms, Churn::Join, 0);
    let out = plan_with_fallback(Some((&prev_host, &prev)), &host, &opts).expect("10% more fits");
    assert_eq!(out.path, ReplanPath::Full);
    assert_eq!(out.plan, plan(&host, &opts).unwrap());
}
