//! Delta replanning: patch only the bins a single-VM churn event dirtied.
//!
//! The full planner re-runs pack → simulate → coalesce → verify → slice-build
//! for the whole host on every create/teardown/resize, even though a
//! single-VM change typically perturbs exactly one bin: worst-fit-decreasing
//! orders tasks by exact utilization with ties broken by index, so the
//! assignment of every unaffected task is reproduced verbatim. The delta
//! planner exploits that determinism:
//!
//! 1. Re-run SLA translation and WFD packing (cheap, microseconds) for the
//!    *new* host config — packing is the ground truth, never guessed.
//! 2. Diff each bin against the previous plan's recorded packing
//!    ([`Plan::core_bins`]): a bin whose `(cost, period)` tuple sequence is
//!    positionally unchanged is **clean** — its allocations, coalescing
//!    report, compiled slice table ([`crate::table::CpuTable`]), and blackout
//!    bounds are reused under a positional vCPU-id relabeling, exactly like
//!    the generator's `BinSignature` stamps. Everything else is **dirty** and
//!    is re-simulated, re-verified, and re-coalesced from scratch.
//! 3. Splice the clean cores into the new [`Table`] by patching the
//!    previous one in place ([`Table::patched_from`]). A clean bin that
//!    keeps its vCPU ids verbatim (every clean bin of a join or a
//!    leave-of-last — ids below the churned VM never shift) is not touched:
//!    its compiled core table is kept by `Arc` reference, and that is all
//!    there is to keep — a table stores no per-vCPU lists, so the splice
//!    copies one home-core entry per vCPU and owns only the cores it
//!    rebuilt. A clean bin whose ids shifted (a teardown in the middle of
//!    the host moves every later id down) hands the splice its previous
//!    allocations, read off the core's segments, under a positional
//!    relabeling; the splice re-stamps them onto the previous core's
//!    geometry — checked allocation by allocation — instead of
//!    recompiling. Only vCPUs on dirtied or relabeled cores are re-homed.
//!
//! The output is **field-identical** to what a full [`crate::planner::plan`]
//! of the same host would produce (pinned by the `prop_delta` property
//! test): every reuse is justified by a purity argument — EDF output is a
//! function of the bin's tuple sequence, coalescing of interval geometry,
//! blackouts of a vCPU's interval set — and anything outside those
//! guarantees aborts to the [`crate::planner::plan_with_fallback`] ladder.
//!
//! A delta **aborts** (rather than errs) whenever its preconditions fail:
//! the previous plan used C=D splits or DP-Fair clusters, the peephole pass
//! is on, the host geometry changed, the bin metadata is missing, or the new
//! config falls out of plain partitioning. Aborting is the designed
//! fallback trigger — the caller continues down the replanning ladder, to
//! the full replan.

use rtsched::edf::simulate_edf;
use rtsched::generator::Stage;
use rtsched::partition::worst_fit_decreasing_with_preferences;
use rtsched::rules::verify_bin;
use rtsched::time::Nanos;
use rtsched::verify::verify_schedule;
use rtsched::MultiCoreSchedule;

use crate::planner::{translate, Plan, PlannerOptions};
use crate::postprocess::{coalesce_with, CoalesceReport};
use crate::table::{Allocation, Table};
use crate::vcpu::{HostConfig, VcpuId};

/// What a completed delta replan reused and what it rebuilt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaReport {
    /// Shared cores whose bins were unchanged and spliced from the previous
    /// plan (allocations, coalescing, compiled table, blackouts).
    pub clean_cores: Vec<usize>,
    /// Shared cores whose bins changed and were re-simulated.
    pub dirty_cores: Vec<usize>,
}

/// Why the delta rung declined. None of these is a planning *failure* —
/// they mark configurations outside the delta's preconditions, handled by
/// the lower rungs of [`crate::planner::plan_with_fallback`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaAbort {
    /// The requested options disable bin-level patching (peephole rewrites
    /// allocations out from under the per-bin bookkeeping).
    Options,
    /// The previous plan used C=D splits or DP-Fair clusters; bins don't
    /// map one-to-one to whole vCPUs there.
    NotPartitioned,
    /// Host geometry (core count or hyperperiod) changed.
    Geometry,
    /// The previous plan carries no (or inconsistent) stage-1 bin record.
    NoBinMetadata,
    /// Admission or packing failed, or the new config fell out of plain
    /// partitioning.
    Packing(String),
    /// A dirtied bin failed simulation, verification, or table splice —
    /// the full pipeline (with its C=D and clustered stages) must decide.
    Bin(String),
    /// The table splice left a stale placement alive (a departed trailing
    /// vCPU surviving a leave-of-last) — the patched table cannot be
    /// trusted, so the full pipeline rebuilds from scratch.
    StalePlacement(String),
}

impl std::fmt::Display for DeltaAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaAbort::Options => write!(f, "options incompatible with delta planning"),
            DeltaAbort::NotPartitioned => write!(f, "previous plan is not plainly partitioned"),
            DeltaAbort::Geometry => write!(f, "host geometry changed"),
            DeltaAbort::NoBinMetadata => write!(f, "previous plan has no bin metadata"),
            DeltaAbort::Packing(e) => write!(f, "packing left stage 1: {e}"),
            DeltaAbort::Bin(e) => write!(f, "dirty bin failed: {e}"),
            DeltaAbort::StalePlacement(e) => write!(f, "table splice left {e}"),
        }
    }
}

impl std::error::Error for DeltaAbort {}

/// Replans `host` against `prev`, patching only the dirtied bins.
///
/// `prev` must have been planned for `prev_host` under the *same* `opts`:
/// the clean-bin reuse assumes the previous plan's per-core artifacts were
/// produced under the thresholds in effect now.
///
/// On success the returned [`Plan`] is field-identical to a full
/// [`crate::planner::plan`] of `host`, and carries fresh bin metadata so
/// subsequent deltas chain without ladder round-trips.
///
/// # Errors
///
/// [`DeltaAbort`] when the delta's preconditions don't hold; the caller
/// falls through to the full replanning ladder.
pub fn plan_delta(
    prev_host: &HostConfig,
    prev: &Plan,
    host: &HostConfig,
    opts: &PlannerOptions,
) -> Result<(Plan, DeltaReport), DeltaAbort> {
    if opts.peephole {
        return Err(DeltaAbort::Options);
    }
    if prev.stage != Stage::Partitioned || !prev.split_vcpus.is_empty() {
        return Err(DeltaAbort::NotPartitioned);
    }
    if prev_host.n_cores != host.n_cores {
        return Err(DeltaAbort::Geometry);
    }
    let hyperperiod = opts.candidates.hyperperiod();
    if prev.table.len() != hyperperiod || prev.table.n_cores() != host.n_cores {
        return Err(DeltaAbort::Geometry);
    }

    let tr = translate(host, opts).map_err(|e| DeltaAbort::Packing(e.to_string()))?;
    if prev.core_bins.len() != tr.shared_cores {
        // Missing metadata, or the dedicated set changed size (which shifts
        // the shared-core range) — either way the record is unusable.
        return Err(DeltaAbort::NoBinMetadata);
    }
    if tr.tasks.is_empty() {
        // Nothing to diff; a full plan of a probe-free host is trivial.
        return Err(DeltaAbort::Packing("no shared tasks".to_owned()));
    }

    // Mirror the generator's admission checks so a config it would reject
    // never reaches packing here.
    for t in &tr.tasks {
        if !(hyperperiod % t.period).is_zero() {
            return Err(DeltaAbort::Packing(format!(
                "period {} does not divide the hyperperiod",
                t.period
            )));
        }
    }
    let demand: Nanos = tr.tasks.iter().map(|t| t.cost_per(hyperperiod)).sum();
    if demand > hyperperiod * tr.shared_cores as u64 {
        return Err(DeltaAbort::Packing("over-utilized".to_owned()));
    }

    // Ground-truth packing of the new config — the same call, with the same
    // preferences, the full pipeline's stage 1 would make.
    let r =
        worst_fit_decreasing_with_preferences(&tr.tasks, tr.shared_cores, hyperperiod, &tr.prefs);
    if !r.is_complete() {
        return Err(DeltaAbort::Packing(format!(
            "{} task(s) unplaceable whole",
            r.unassigned.len()
        )));
    }

    // Previous per-vCPU parameters and blackouts, for clean-bin matching
    // and blackout reuse (vectors indexed by id — ids are dense and the
    // lookups sit on the per-allocation hot path).
    let id_cap = |it: &mut dyn Iterator<Item = usize>| it.max().map_or(0, |m| m + 1);
    let mut prev_params: Vec<Option<(Nanos, Nanos)>> =
        vec![None; id_cap(&mut prev.params.iter().map(|p| p.vcpu.0 as usize))];
    for p in &prev.params {
        prev_params[p.vcpu.0 as usize] = Some((p.cost, p.period));
    }
    let mut prev_blackout: Vec<Option<Nanos>> =
        vec![None; id_cap(&mut prev.worst_blackout.iter().map(|&(v, _)| v.0 as usize))];
    for &(v, b) in &prev.worst_blackout {
        prev_blackout[v.0 as usize] = Some(b);
    }

    // A bin is clean iff its (cost, period) tuple sequence is positionally
    // unchanged — EDF order breaks ties by slice position, so the bin's
    // schedule is a pure function of that sequence.
    let tuples_match = |core: usize, new_bin: &[rtsched::task::PeriodicTask]| {
        let prev_bin = &prev.core_bins[core];
        new_bin.len() == prev_bin.len()
            && new_bin.iter().zip(prev_bin).all(|(nt, pv)| {
                prev_params.get(pv.0 as usize).copied().flatten() == Some((nt.cost, nt.period))
            })
    };

    let mut coalesce_by_core: Vec<CoalesceReport> = Vec::with_capacity(host.n_cores);
    let mut blackout_by_id: Vec<Option<Nanos>> =
        vec![None; id_cap(&mut tr.vcpus.iter().map(|&(v, _)| v.0 as usize))];
    let mut clean_cores: Vec<usize> = Vec::new();
    let mut dirty_cores: Vec<usize> = Vec::new();

    // The splice patches the previous table ([`Table::patched_from`]):
    // only the cores listed in `updates` are recompiled and only the vCPUs
    // on them re-validated. A clean bin that keeps its vCPU ids verbatim —
    // every clean bin of a join or a leave-of-last, since `translate`
    // numbers vCPUs in host order and ids below the churned VM never shift
    // — is not listed at all: its compiled table stays inside `prev.table`
    // and its vCPUs keep their home-core entries. A clean bin whose ids
    // shifted (a leave in the middle of the host moves every later id down)
    // is listed with its previous allocations relabeled position by
    // position, which the splice re-stamps onto the previous core's
    // geometry instead of recompiling.
    let mut updates: Vec<(usize, Vec<Allocation>)> = Vec::new();
    for (core, new_bin) in r.bins.cores.iter().enumerate() {
        let prev_bin = &prev.core_bins[core];
        let reused = tuples_match(core, new_bin)
            .then(|| {
                // A bin holds a handful of vCPUs: the id substitution is a
                // scan of the pairs, not a map.
                let subst = |v: VcpuId| {
                    let at = prev_bin.iter().position(|&pv| pv == v)?;
                    Some(VcpuId(new_bin[at].id.0))
                };
                let report = prev.coalesce_by_core.get(core)?.relabel(subst)?;
                let blackouts: Vec<(u32, Nanos)> = prev_bin
                    .iter()
                    .zip(new_bin)
                    .map(|(pv, nt)| Some((nt.id.0, (*prev_blackout.get(pv.0 as usize)?)?)))
                    .collect::<Option<_>>()?;
                let same_ids = new_bin.iter().zip(prev_bin).all(|(nt, pv)| nt.id.0 == pv.0);
                let relabeled: Option<Vec<Allocation>> = if same_ids {
                    None
                } else {
                    let prev_allocs = prev.table.cpu(core).allocations();
                    Some(
                        prev_allocs
                            .map(|a| {
                                Some(Allocation {
                                    vcpu: subst(a.vcpu)?,
                                    ..a
                                })
                            })
                            .collect::<Option<_>>()?,
                    )
                };
                Some((report, blackouts, relabeled))
            })
            .flatten();
        match reused {
            Some((report, blackouts, relabeled)) => {
                coalesce_by_core.push(report);
                for (v, b) in blackouts {
                    blackout_by_id[v as usize] = Some(b);
                }
                if let Some(allocs) = relabeled {
                    updates.push((core, allocs));
                }
                clean_cores.push(core);
            }
            None => {
                // Dirty (or clean but with inconsistent metadata): rebuild
                // this bin exactly as the full pipeline would.
                let (allocs, report) =
                    rebuild_bin(core, new_bin, hyperperiod, opts.coalesce_threshold)?;
                updates.push((core, allocs));
                coalesce_by_core.push(report);
                dirty_cores.push(core);
            }
        }
    }
    // Dedicated cores: rebuilt fresh (one wall-to-wall allocation each),
    // exactly as in the full pipeline.
    for (i, &vcpu) in tr.dedicated.iter().enumerate() {
        updates.push((
            tr.shared_cores + i,
            vec![Allocation {
                start: Nanos::ZERO,
                end: hyperperiod,
                vcpu,
            }],
        ));
        coalesce_by_core.push(CoalesceReport::default());
    }
    let table = Table::patched_from(&prev.table, updates).map_err(|e| {
        if e.starts_with("stale placement") {
            DeltaAbort::StalePlacement(e)
        } else {
            DeltaAbort::Bin(e)
        }
    })?;

    // Aggregate coalescing report, absorbed in core order like the full
    // pipeline (dedicated cores contribute nothing).
    let mut coalesce = CoalesceReport::default();
    for report in &coalesce_by_core {
        coalesce.absorb(report.clone());
    }

    // Blackouts: clean-core vCPUs keep their previous bound (their interval
    // set is unchanged modulo the relabeling); everything else — dirty-core
    // and dedicated vCPUs — is recomputed from the spliced table, one pass
    // per rebuilt core.
    let rebuilt = dirty_cores
        .iter()
        .copied()
        .chain(tr.shared_cores..host.n_cores);
    let recomputed = table.max_blackouts(rebuilt);
    let worst_blackout: Vec<(VcpuId, Nanos)> = tr
        .vcpus
        .iter()
        .map(|&(vcpu, _)| {
            let reused = blackout_by_id.get(vcpu.0 as usize).copied().flatten();
            let fresh = || recomputed.get(vcpu.0 as usize).copied();
            (vcpu, reused.or_else(fresh).unwrap_or(hyperperiod))
        })
        .collect();

    let core_bins: Vec<Vec<VcpuId>> = r
        .bins
        .cores
        .iter()
        .map(|bin| bin.iter().map(|t| VcpuId(t.id.0)).collect())
        .collect();

    Ok((
        Plan {
            table,
            stage: Stage::Partitioned,
            params: tr.params,
            split_vcpus: Vec::new(),
            coalesce,
            worst_blackout,
            core_bins,
            coalesce_by_core,
        },
        DeltaReport {
            clean_cores,
            dirty_cores,
        },
    ))
}

/// Re-simulates, verifies, and coalesces one dirtied bin exactly as the
/// full pipeline's partitioned stage would.
fn rebuild_bin(
    core: usize,
    new_bin: &[rtsched::task::PeriodicTask],
    hyperperiod: Nanos,
    coalesce_threshold: Nanos,
) -> Result<(Vec<Allocation>, CoalesceReport), DeltaAbort> {
    let sched = simulate_edf(new_bin, hyperperiod).map_err(|m| {
        DeltaAbort::Bin(format!(
            "EDF deadline miss on core {core}: task {} at {}",
            m.task, m.deadline
        ))
    })?;
    // Per-bin verification: the verifier's invariants derived from this
    // bin's facts alone, on the borrowed bin and segments — the cost is
    // O(this bin), and across a delta O(dirtied bins), never O(host). A
    // decline (or any violation) degrades to the full single-pass verifier,
    // which is authoritative for the error text.
    if !matches!(verify_bin(new_bin, sched.segments(), hyperperiod), Ok(v) if v.is_empty()) {
        let mut one = MultiCoreSchedule::idle(hyperperiod, 1);
        one.cores[0] = sched.clone();
        let violations = verify_schedule(new_bin, &one);
        if let Some(v) = violations.first() {
            return Err(DeltaAbort::Bin(format!(
                "core {core}: {v} ({} violation(s) total)",
                violations.len()
            )));
        }
    }
    let mut allocs: Vec<Allocation> = sched
        .segments()
        .iter()
        .map(|s| Allocation {
            start: s.start,
            end: s.end,
            vcpu: VcpuId(s.task.0),
        })
        .collect();
    // No split vCPUs in a partitioned plan, so every allocation may be
    // extended by a sliver donation.
    let report = coalesce_with(&mut allocs, coalesce_threshold, |_| true);
    Ok((allocs, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::plan;
    use crate::vcpu::{Utilization, VcpuSpec, VmSpec};

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn paper_spec() -> VcpuSpec {
        VcpuSpec::new(Utilization::from_percent(25), ms(20))
    }

    fn dense_host(cores: usize, vms: usize) -> HostConfig {
        let mut host = HostConfig::new(cores);
        for i in 0..vms {
            host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, paper_spec()));
        }
        host
    }

    #[test]
    fn paper_scale_add_dirties_one_bin_and_matches_full_replan() {
        // The bench-snapshot shape: 44 cores, 175 -> 176 paper VMs under
        // the punishing 1 ms goal. A single join must dirty exactly one
        // bin, take the id-stable fast splice, and still be field-identical
        // to the full replan.
        let opts = PlannerOptions::default();
        let spec = VcpuSpec::capped(Utilization::from_percent(25), ms(1));
        let mut prev_host = HostConfig::new(44);
        for i in 0..175 {
            prev_host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
        }
        let prev = plan(&prev_host, &opts).unwrap();
        let mut host = prev_host.clone();
        host.add_vm(VmSpec::uniform("vm175", 1, spec));
        let (delta, report) = plan_delta(&prev_host, &prev, &host, &opts).unwrap();
        assert_eq!(report.dirty_cores.len(), 1, "{report:?}");
        assert_eq!(report.clean_cores.len(), 43, "{report:?}");
        assert_eq!(delta, plan(&host, &opts).unwrap());
    }

    #[test]
    fn a_spliced_table_owns_only_its_dirty_cores() {
        // The same join: the spliced table points at the previous table's
        // 43 clean cores and owns the one it rebuilt, so a chain of deltas
        // costs O(dirty cores) of memory per link, not a table.
        let opts = PlannerOptions::default();
        let spec = VcpuSpec::capped(Utilization::from_percent(25), ms(1));
        let mut prev_host = HostConfig::new(44);
        for i in 0..175 {
            prev_host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
        }
        let prev = plan(&prev_host, &opts).unwrap();
        let mut host = prev_host.clone();
        host.add_vm(VmSpec::uniform("vm175", 1, spec));
        let (delta, report) = plan_delta(&prev_host, &prev, &host, &opts).unwrap();
        let (old, new) = (&prev.table, &delta.table);
        let shared = |c: &usize| std::ptr::eq(old.cpu(*c), new.cpu(*c));
        let rebuilt: Vec<usize> = (0..44).filter(|c| !shared(c)).collect();
        assert_eq!(rebuilt, report.dirty_cores);
        let held: usize = (0..44)
            .filter(shared)
            .map(|c| new.cpu(c).heap_bytes())
            .sum();
        let own = new.resident_bytes() - held;
        assert!(
            own * 10 <= new.resident_bytes(),
            "{own} B of {} B are the splice's own",
            new.resident_bytes()
        );
    }

    #[test]
    fn single_vm_add_is_field_identical_to_full_replan() {
        let opts = PlannerOptions::default();
        let prev_host = dense_host(4, 12);
        let prev = plan(&prev_host, &opts).unwrap();
        let mut host = prev_host.clone();
        host.add_vm(VmSpec::uniform("newcomer", 1, paper_spec()));

        let (delta, report) = plan_delta(&prev_host, &prev, &host, &opts).unwrap();
        let full = plan(&host, &opts).unwrap();
        assert_eq!(delta, full);
        assert!(
            !report.clean_cores.is_empty(),
            "a single-VM add must leave some bins clean: {report:?}"
        );
        assert_eq!(
            report.clean_cores.len() + report.dirty_cores.len(),
            4,
            "{report:?}"
        );
    }

    #[test]
    fn single_vm_remove_is_field_identical_to_full_replan() {
        let opts = PlannerOptions::default();
        let prev_host = dense_host(4, 13);
        let prev = plan(&prev_host, &opts).unwrap();
        // Remove the last VM (teardown churn keeps earlier ids stable).
        let host = dense_host(4, 12);

        let (delta, _) = plan_delta(&prev_host, &prev, &host, &opts).unwrap();
        assert_eq!(delta, plan(&host, &opts).unwrap());
    }

    #[test]
    fn mid_host_remove_relabels_and_matches_full_replan() {
        // Tearing down a VM in the middle of the host shifts every later
        // vCPU id down by one, so the id-stable splice declines and the
        // relabeling path must produce the same field-identical result.
        let opts = PlannerOptions::default();
        let prev_host = dense_host(4, 13);
        let prev = plan(&prev_host, &opts).unwrap();
        let mut host = HostConfig::new(4);
        for i in 0..13 {
            if i != 5 {
                host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, paper_spec()));
            }
        }
        let (delta, report) = plan_delta(&prev_host, &prev, &host, &opts).unwrap();
        assert_eq!(delta, plan(&host, &opts).unwrap());
        assert_eq!(
            report.clean_cores.len() + report.dirty_cores.len(),
            4,
            "{report:?}"
        );
    }

    #[test]
    fn deltas_chain_without_ladder_roundtrips() {
        let opts = PlannerOptions::default();
        let mut host = dense_host(4, 10);
        let mut current = plan(&host, &opts).unwrap();
        for i in 10..14 {
            let prev_host = host.clone();
            host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, paper_spec()));
            let (next, _) = plan_delta(&prev_host, &current, &host, &opts).unwrap();
            assert_eq!(next, plan(&host, &opts).unwrap());
            current = next;
        }
    }

    #[test]
    fn missing_bin_metadata_aborts() {
        let opts = PlannerOptions::default();
        let prev_host = dense_host(4, 12);
        let mut prev = plan(&prev_host, &opts).unwrap();
        prev.core_bins.clear();
        let mut host = prev_host.clone();
        host.add_vm(VmSpec::uniform("newcomer", 1, paper_spec()));
        assert_eq!(
            plan_delta(&prev_host, &prev, &host, &opts).unwrap_err(),
            DeltaAbort::NoBinMetadata
        );
    }

    #[test]
    fn geometry_change_aborts() {
        let opts = PlannerOptions::default();
        let prev_host = dense_host(4, 12);
        let prev = plan(&prev_host, &opts).unwrap();
        let host = dense_host(8, 13);
        assert_eq!(
            plan_delta(&prev_host, &prev, &host, &opts).unwrap_err(),
            DeltaAbort::Geometry
        );
    }

    #[test]
    fn peephole_options_abort() {
        let opts = PlannerOptions::default();
        let prev_host = dense_host(4, 12);
        let prev = plan(&prev_host, &opts).unwrap();
        let peephole = PlannerOptions {
            peephole: true,
            ..PlannerOptions::default()
        };
        assert_eq!(
            plan_delta(&prev_host, &prev, &prev_host, &peephole).unwrap_err(),
            DeltaAbort::Options
        );
    }

    #[test]
    fn over_utilized_delta_aborts_cleanly() {
        let opts = PlannerOptions::default();
        let prev_host = dense_host(1, 4);
        let prev = plan(&prev_host, &opts).unwrap();
        let host = dense_host(1, 5);
        assert!(matches!(
            plan_delta(&prev_host, &prev, &host, &opts).unwrap_err(),
            DeltaAbort::Packing(_)
        ));
    }
}
