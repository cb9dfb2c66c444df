//! Incremental replanning: per-core table recomputation (Sec. 7.1).
//!
//! The paper notes that table-generation time could be cut by recomputing
//! tables "incrementally on a per-core basis" — most reconfigurations touch
//! a few VMs, while the tables of untouched cores are still valid. This
//! module implements that optimization:
//!
//! 1. VMs are identified by `(VM name, vCPU index)`, so vCPU-id shifts
//!    caused by removals do not defeat reuse;
//! 2. the **affected core set** is the closure of cores holding allocations
//!    of removed/changed vCPUs (closure: a split vCPU pulls in every core
//!    it touches), plus enough spare cores to host additions;
//! 3. only the affected cores are re-planned (through the same three-stage
//!    generator); unaffected cores keep their existing, already-coalesced
//!    allocations verbatim, with vCPU ids remapped.
//!
//! Anything structurally global — core-count changes, dedicated-core
//! (U = 1) membership changes — falls back to a full replan, reported in
//! the [`IncrementalReport`].

use std::collections::HashMap;

use rtsched::generator::{generate_schedule_with_preferences, Stage};
use rtsched::task::{PeriodicTask, TaskId};
use rtsched::time::Nanos;

use crate::planner::{
    blackout_in_table, period_for, plan, Plan, PlanError, PlannerOptions, VcpuParams,
};
use crate::postprocess::{coalesce_with, CoalesceReport};
use crate::table::{Allocation, Table};
use crate::vcpu::{HostConfig, VcpuId};

/// How an incremental replan went.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncrementalReport {
    /// Cores whose tables were kept verbatim.
    pub reused_cores: Vec<usize>,
    /// Cores that were re-planned.
    pub replanned_cores: Vec<usize>,
    /// `true` if the incremental path was abandoned for a full replan.
    pub full_replan: bool,
}

/// Stable vCPU identity across host revisions.
type Key = (String, usize);

fn keys_of(host: &HostConfig) -> Vec<(Key, crate::vcpu::VcpuSpec)> {
    let mut out = Vec::new();
    for vm in &host.vms {
        for (i, spec) in vm.vcpus.iter().enumerate() {
            out.push(((vm.name.clone(), i), *spec));
        }
    }
    out
}

/// Plans `host` incrementally against a previous plan of `prev_host`.
///
/// Returns the new plan plus a report of what was reused. Correctness is
/// identical to a full [`plan`] — only the work differs; the fallback path
/// *is* `plan`.
///
/// # Errors
///
/// Exactly the same admission errors as [`plan`].
pub fn plan_incremental(
    prev_host: &HostConfig,
    prev: &Plan,
    host: &HostConfig,
    opts: &PlannerOptions,
) -> Result<(Plan, IncrementalReport), PlanError> {
    let full = |report_full: &mut IncrementalReport| -> Result<Plan, PlanError> {
        report_full.full_replan = true;
        report_full.reused_cores.clear();
        report_full.replanned_cores = (0..host.n_cores).collect();
        plan(host, opts)
    };
    let mut report = IncrementalReport::default();

    if prev_host.n_cores != host.n_cores {
        let p = full(&mut report)?;
        return Ok((p, report));
    }

    let prev_keys = keys_of(prev_host);
    let new_keys = keys_of(host);
    let prev_by_key: HashMap<&Key, usize> = prev_keys
        .iter()
        .enumerate()
        .map(|(i, (k, _))| (k, i))
        .collect();
    let new_by_key: HashMap<&Key, usize> = new_keys
        .iter()
        .enumerate()
        .map(|(i, (k, _))| (k, i))
        .collect();

    // Classify vCPUs.
    let mut removed_old_ids: Vec<u32> = Vec::new(); // removed or spec-changed
    let mut unchanged: Vec<(u32, u32)> = Vec::new(); // (old id, new id)
    for (old_id, (key, spec)) in prev_keys.iter().enumerate() {
        match new_by_key.get(key) {
            Some(&new_id) if new_keys[new_id].1 == *spec => {
                unchanged.push((old_id as u32, new_id as u32));
            }
            _ => removed_old_ids.push(old_id as u32),
        }
    }
    let added: Vec<u32> = new_keys
        .iter()
        .enumerate()
        .filter(|(_, (key, spec))| {
            prev_by_key
                .get(key)
                .map(|&oid| prev_keys[oid].1 != *spec)
                .unwrap_or(true)
        })
        .map(|(i, _)| i as u32)
        .collect();

    // Dedicated-core membership changes restructure the whole layout.
    let dedicated_changed = removed_old_ids
        .iter()
        .any(|&oid| prev_keys[oid as usize].1.utilization.is_full_core())
        || added
            .iter()
            .any(|&nid| new_keys[nid as usize].1.utilization.is_full_core());
    if dedicated_changed {
        let p = full(&mut report)?;
        return Ok((p, report));
    }

    // Affected cores: closure over allocations of removed vCPUs and of any
    // unchanged vCPU co-located with them across cores (split vCPUs).
    let n_cores = host.n_cores;
    let mut affected = vec![false; n_cores];
    for &oid in &removed_old_ids {
        if let Some(p) = prev.table.placement(VcpuId(oid)) {
            for &(core, _, _) in &p.allocations {
                affected[core] = true;
            }
        }
    }
    // Closure: unchanged vCPUs with any allocation on an affected core must
    // be replanned wholesale, pulling in their other cores.
    loop {
        let mut grew = false;
        for &(oid, _) in &unchanged {
            if let Some(p) = prev.table.placement(VcpuId(oid)) {
                let touches = p.allocations.iter().any(|&(c, _, _)| affected[c]);
                if touches {
                    for &(c, _, _) in &p.allocations {
                        if !affected[c] {
                            affected[c] = true;
                            grew = true;
                        }
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }

    let hyperperiod = prev.table.len();
    let min_budget = opts.coalesce_threshold * 2;

    // Task parameters for the new configuration: reuse previous parameters
    // for unchanged vCPUs, derive fresh ones for additions.
    let mut params_by_new_id: HashMap<u32, (Nanos, Nanos, bool)> = HashMap::new();
    for &(oid, nid) in &unchanged {
        let p = prev
            .params
            .iter()
            .find(|p| p.vcpu == VcpuId(oid))
            .expect("previous plan covers previous host");
        params_by_new_id.insert(nid, (p.cost, p.period, p.capped));
    }
    for &nid in &added {
        let spec = new_keys[nid as usize].1;
        let period = period_for(&spec, &opts.candidates);
        let cost = spec
            .utilization
            .budget_in(period)
            .max(min_budget)
            .min(period);
        params_by_new_id.insert(nid, (cost, period, spec.capped));
    }

    // Tasks the affected cores must host: additions plus every unchanged
    // vCPU currently homed on an affected core (which, by the closure, has
    // *all* of its allocations there).
    let mut tasks: Vec<PeriodicTask> = Vec::new();
    for &(oid, nid) in &unchanged {
        let on_affected = prev
            .table
            .placement(VcpuId(oid))
            .map(|p| p.allocations.iter().any(|&(c, _, _)| affected[c]))
            .unwrap_or(false);
        if on_affected {
            let (cost, period, _) = params_by_new_id[&nid];
            tasks.push(PeriodicTask::implicit(TaskId(nid), cost, period));
        }
    }
    for &nid in &added {
        let (cost, period, _) = params_by_new_id[&nid];
        tasks.push(PeriodicTask::implicit(TaskId(nid), cost, period));
    }

    // Try to fit the work on the affected cores, widening with the
    // least-loaded unaffected cores as needed.
    let mut stage = Stage::Partitioned;
    let generated = loop {
        let affected_list: Vec<usize> = (0..n_cores).filter(|&c| affected[c]).collect();
        if !affected_list.is_empty() || tasks.is_empty() {
            // NUMA preferences, remapped from physical cores to the
            // generator's dense affected-core index space.
            let prefs: Vec<Vec<usize>> = tasks
                .iter()
                .map(|t| {
                    let nid = t.id.0;
                    let key = &new_keys[nid as usize];
                    let vm_node = host
                        .vms
                        .iter()
                        .find(|vm| vm.name == key.0 .0)
                        .and_then(|vm| vm.numa_node);
                    vm_node
                        .map(|node| {
                            let node_cores = host.cores_of_node(node);
                            affected_list
                                .iter()
                                .enumerate()
                                .filter(|(_, &phys)| node_cores.contains(&phys))
                                .map(|(local, _)| local)
                                .collect()
                        })
                        .unwrap_or_default()
                })
                .collect();
            if let Ok(g) = generate_schedule_with_preferences(
                &tasks,
                affected_list.len(),
                hyperperiod,
                &opts.gen,
                &prefs,
            ) {
                stage = g.stage;
                break Some((g, affected_list));
            }
        }
        // Widen: add the unaffected core with the most idle time — among
        // the pending tasks' preferred NUMA cores first, so pinned VMs are
        // offered their own node before anything else. Falls back to a
        // full replan when no core is left.
        let preferred_physical: Vec<usize> = tasks
            .iter()
            .flat_map(|t| {
                let key = &new_keys[t.id.0 as usize];
                host.vms
                    .iter()
                    .find(|vm| vm.name == key.0 .0)
                    .and_then(|vm| vm.numa_node)
                    .map(|node| host.cores_of_node(node))
                    .unwrap_or_default()
            })
            .collect();
        let next = (0..n_cores)
            .filter(|&c| !affected[c] && preferred_physical.contains(&c))
            .min_by_key(|&c| prev.table.cpu(c).busy_time())
            .or_else(|| {
                (0..n_cores)
                    .filter(|&c| !affected[c])
                    .min_by_key(|&c| prev.table.cpu(c).busy_time())
            });
        match next {
            Some(c) => {
                affected[c] = true;
                // The widened core's unchanged vCPUs join the task set (and
                // the closure over splits is re-established).
                for &(oid, nid) in &unchanged {
                    let homed = prev
                        .table
                        .placement(VcpuId(oid))
                        .map(|p| p.allocations.iter().any(|&(cc, _, _)| cc == c))
                        .unwrap_or(false);
                    if homed && !tasks.iter().any(|t| t.id == TaskId(nid)) {
                        let (cost, period, _) = params_by_new_id[&nid];
                        tasks.push(PeriodicTask::implicit(TaskId(nid), cost, period));
                        if let Some(p) = prev.table.placement(VcpuId(oid)) {
                            for &(cc, _, _) in &p.allocations {
                                affected[cc] = true;
                            }
                        }
                    }
                }
            }
            None => break None,
        }
    };

    let Some((generated, affected_list)) = generated else {
        let p = full(&mut report)?;
        return Ok((p, report));
    };

    // Splice: reused cores keep their allocations with remapped ids;
    // affected cores take the fresh (coalesced) schedules.
    let old_to_new: HashMap<u32, u32> = unchanged.iter().copied().collect();
    let mut per_core: Vec<Vec<Allocation>> = Vec::with_capacity(n_cores);
    let mut coalesce_report = CoalesceReport::default();
    let mut fresh_iter = 0usize;
    for (core, &core_affected) in affected.iter().enumerate().take(n_cores) {
        if core_affected {
            let mut allocs: Vec<Allocation> = generated.schedule.cores[fresh_iter]
                .segments()
                .iter()
                .map(|s| Allocation {
                    start: s.start,
                    end: s.end,
                    vcpu: VcpuId(s.task.0),
                })
                .collect();
            fresh_iter += 1;
            let split = &generated.split_tasks;
            coalesce_report.absorb(coalesce_with(&mut allocs, opts.coalesce_threshold, |v| {
                !split.contains(&TaskId(v.0))
            }));
            per_core.push(allocs);
        } else {
            let allocs: Vec<Allocation> = prev
                .table
                .cpu(core)
                .allocations()
                .iter()
                .map(|a| Allocation {
                    start: a.start,
                    end: a.end,
                    vcpu: VcpuId(old_to_new[&a.vcpu.0]),
                })
                .collect();
            per_core.push(allocs);
        }
    }
    debug_assert_eq!(fresh_iter, affected_list.len());

    let table = Table::new(hyperperiod, per_core).map_err(PlanError::Table)?;

    // Assemble the plan metadata for the new id space.
    let mut params: Vec<VcpuParams> = Vec::new();
    for (nid, (_key, spec)) in new_keys.iter().enumerate() {
        let (cost, period, capped) = params_by_new_id[&(nid as u32)];
        params.push(VcpuParams {
            vcpu: VcpuId(nid as u32),
            cost,
            period,
            dedicated: spec.utilization.is_full_core(),
            capped,
        });
    }
    let mut worst_blackout = Vec::with_capacity(new_keys.len());
    for nid in 0..new_keys.len() as u32 {
        let vcpu = VcpuId(nid);
        let blackout = blackout_in_table(&table, vcpu, hyperperiod);
        worst_blackout.push((vcpu, blackout));
    }
    let mut split_vcpus: Vec<VcpuId> = Vec::new();
    for nid in 0..new_keys.len() as u32 {
        if let Some(p) = table.placement(VcpuId(nid)) {
            let mut cores: Vec<usize> = p.allocations.iter().map(|&(c, _, _)| c).collect();
            cores.sort_unstable();
            cores.dedup();
            if cores.len() > 1 {
                split_vcpus.push(VcpuId(nid));
            }
        }
    }

    report.reused_cores = (0..n_cores).filter(|&c| !affected[c]).collect();
    report.replanned_cores = affected_list;
    Ok((
        Plan {
            table,
            stage,
            params,
            split_vcpus,
            coalesce: coalesce_report,
            worst_blackout,
            // An incrementally patched plan carries no stage-1 bin record —
            // the next replan of this host starts at the incremental rung.
            core_bins: Vec::new(),
            coalesce_by_core: Vec::new(),
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcpu::{Utilization, VcpuSpec, VmSpec};

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn spec() -> VcpuSpec {
        VcpuSpec::capped(Utilization::from_percent(25), ms(20))
    }

    fn host_named(cores: usize, names: &[&str]) -> HostConfig {
        let mut h = HostConfig::new(cores);
        for n in names {
            h.add_vm(VmSpec::uniform(*n, 1, spec()));
        }
        h
    }

    #[test]
    fn adding_a_vm_reuses_untouched_cores() {
        let opts = PlannerOptions::default();
        // 4 cores, 12 VMs (3 per core): every core has 25% slack.
        let names: Vec<String> = (0..12).map(|i| format!("vm{i}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let prev_host = host_named(4, &refs);
        let prev = plan(&prev_host, &opts).unwrap();

        let mut new_names = refs.clone();
        new_names.push("newcomer");
        let host = host_named(4, &new_names);
        let (p, report) = plan_incremental(&prev_host, &prev, &host, &opts).unwrap();

        assert!(!report.full_replan);
        assert!(
            report.reused_cores.len() >= 2,
            "too few cores reused: {report:?}"
        );
        // All 13 vCPUs placed with their guarantees.
        for (vcpu, s) in host.vcpus() {
            assert!(p.blackout_of(vcpu).unwrap() <= s.latency);
        }
    }

    #[test]
    fn removing_a_vm_touches_only_its_core() {
        let opts = PlannerOptions::default();
        let names: Vec<String> = (0..16).map(|i| format!("vm{i}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let prev_host = host_named(4, &refs);
        let prev = plan(&prev_host, &opts).unwrap();

        // Remove one VM.
        let survivors: Vec<&str> = refs.iter().copied().filter(|&n| n != "vm5").collect();
        let host = host_named(4, &survivors);
        let (p, report) = plan_incremental(&prev_host, &prev, &host, &opts).unwrap();

        assert!(!report.full_replan);
        assert_eq!(report.replanned_cores.len(), 1, "{report:?}");
        assert_eq!(p.table.n_cores(), 4);
        for (vcpu, s) in host.vcpus() {
            assert!(p.blackout_of(vcpu).unwrap() <= s.latency);
        }
    }

    #[test]
    fn unchanged_vcpu_ids_are_remapped_correctly() {
        let opts = PlannerOptions::default();
        let prev_host = host_named(2, &["a", "b", "c", "d"]);
        let prev = plan(&prev_host, &opts).unwrap();
        // Removing "a" shifts every id down by one.
        let host = host_named(2, &["b", "c", "d"]);
        let (p, _report) = plan_incremental(&prev_host, &prev, &host, &opts).unwrap();
        // Each surviving vCPU (now ids 0..3) has allocations.
        for (vcpu, _) in host.vcpus() {
            assert!(
                p.table.placement(vcpu).is_some(),
                "{vcpu} lost its allocations in the remap"
            );
        }
        // And no allocation refers to a stale id.
        for core in 0..2 {
            for a in p.table.cpu(core).allocations() {
                assert!(a.vcpu.0 < 3, "stale id {}", a.vcpu);
            }
        }
    }

    #[test]
    fn spec_change_is_remove_plus_add() {
        let opts = PlannerOptions::default();
        let prev_host = host_named(2, &["a", "b", "c", "d"]);
        let prev = plan(&prev_host, &opts).unwrap();
        // Tighten "b"'s latency goal.
        let mut host = HostConfig::new(2);
        for n in ["a", "b", "c", "d"] {
            let s = if n == "b" {
                VcpuSpec::capped(Utilization::from_percent(25), ms(2))
            } else {
                spec()
            };
            host.add_vm(VmSpec::uniform(n, 1, s));
        }
        let (p, report) = plan_incremental(&prev_host, &prev, &host, &opts).unwrap();
        assert!(!report.full_replan);
        let b = VcpuId(1);
        assert!(
            p.blackout_of(b).unwrap() <= ms(2),
            "{}",
            p.blackout_of(b).unwrap()
        );
        // b's period shrank to honour the 2 ms goal.
        assert!(p.params_of(b).unwrap().period < ms(2));
    }

    #[test]
    fn core_count_change_falls_back_to_full_replan() {
        let opts = PlannerOptions::default();
        let prev_host = host_named(2, &["a", "b"]);
        let prev = plan(&prev_host, &opts).unwrap();
        let host = host_named(3, &["a", "b"]);
        let (_p, report) = plan_incremental(&prev_host, &prev, &host, &opts).unwrap();
        assert!(report.full_replan);
    }

    #[test]
    fn over_admission_is_still_rejected() {
        let opts = PlannerOptions::default();
        let names: Vec<String> = (0..8).map(|i| format!("vm{i}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let prev_host = host_named(2, &refs);
        let prev = plan(&prev_host, &opts).unwrap();
        // A 9th 25% VM on a full 2-core host must fail, as in plan().
        let mut more = refs.clone();
        more.push("overflow");
        let host = host_named(2, &more);
        assert!(plan_incremental(&prev_host, &prev, &host, &opts).is_err());
    }

    #[test]
    fn numa_pinning_survives_incremental_replans() {
        // Node-1-pinned VMs stay on node 1 when a sibling is added.
        let opts = PlannerOptions::default();
        let build = |names: &[&str]| {
            let mut h = HostConfig::with_numa(4, 2);
            for n in names {
                h.add_vm(VmSpec::uniform(*n, 1, spec()).on_node(1));
            }
            h
        };
        let prev_host = build(&["a", "b"]);
        let prev = plan(&prev_host, &opts).unwrap();
        let host = build(&["a", "b", "c"]);
        let (p, _report) = plan_incremental(&prev_host, &prev, &host, &opts).unwrap();
        let node1 = host.cores_of_node(1);
        for v in 0..3u32 {
            let placement = p.table.placement(VcpuId(v)).unwrap();
            for &(core, _, _) in &placement.allocations {
                assert!(node1.contains(&core), "v{v} off-node on core {core}");
            }
        }
    }

    #[test]
    fn incremental_equals_full_in_guarantees() {
        // Whatever the reuse pattern, the guarantees of the incremental
        // plan match a from-scratch plan's.
        let opts = PlannerOptions::default();
        let names: Vec<String> = (0..10).map(|i| format!("vm{i}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let prev_host = host_named(3, &refs);
        let prev = plan(&prev_host, &opts).unwrap();
        let mut new_names: Vec<&str> = refs.iter().copied().filter(|&n| n != "vm3").collect();
        new_names.push("fresh1");
        new_names.push("fresh2");
        let host = host_named(3, &new_names);

        let (inc, _) = plan_incremental(&prev_host, &prev, &host, &opts).unwrap();
        let scratch = plan(&host, &opts).unwrap();
        for (vcpu, _) in host.vcpus() {
            let a = inc.blackout_of(vcpu).unwrap();
            let b = scratch.blackout_of(vcpu).unwrap();
            assert!(a <= ms(20) && b <= ms(20), "{vcpu}: {a} vs {b}");
        }
    }
}
