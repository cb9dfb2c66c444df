//! Strength of the continuous table audit's fingerprints.
//!
//! The auditor compares per-core and placement fingerprints of the live
//! table against those taken at install time. This suite plans random
//! hosts and damages the table the way a stray memory write would — one
//! field at a time, *without* rebuilding the derived metadata — and
//! requires `audit_full` to flag every mutant and to stay silent on the
//! untouched table. [`Table::new`] rejects most of these mutants (unsorted
//! lists, overlaps), so they are written through a field-for-field mirror
//! of the table's serialized form.

use proptest::prelude::*;
use serde::{Deserialize, Serialize};

use rtsched::time::Nanos;
use tableau_core::audit::TableAuditor;
use tableau_core::planner::{plan, PlannerOptions};
use tableau_core::table::{Allocation, Table, VcpuPlacement};
use tableau_core::vcpu::{HostConfig, Utilization, VcpuId, VcpuSpec, VmSpec};

/// Field-for-field mirror of [`Table`]'s serialized form.
#[derive(Clone, Serialize, Deserialize)]
struct RawTable {
    len: Nanos,
    cpus: Vec<RawCpu>,
    placements: Vec<VcpuPlacement>,
    homed: Vec<Vec<VcpuId>>,
}

/// Field-for-field mirror of `CpuTable`'s serialized form.
#[derive(Clone, Serialize, Deserialize)]
struct RawCpu {
    allocations: Vec<Allocation>,
    slice_len: Nanos,
    slices: Vec<u32>,
    seg_end: Vec<Nanos>,
    seg_vcpu: Vec<u32>,
}

fn raw_of(table: &Table) -> RawTable {
    serde_json::from_str(&serde_json::to_string(table).unwrap()).unwrap()
}

fn table_of(raw: &RawTable) -> Table {
    serde_json::from_str(&serde_json::to_string(raw).unwrap()).unwrap()
}

/// Strategy: 2–4 cores and 2–10 single-vCPU VMs within capacity.
fn arb_host() -> impl Strategy<Value = HostConfig> {
    const UTILS: [u32; 4] = [10, 20, 25, 40];
    const LATENCIES: [u64; 3] = [10, 20, 40];
    (
        2usize..=4,
        proptest::collection::vec((0usize..4, 0usize..3, any::<bool>()), 2..=10),
    )
        .prop_map(|(cores, picks)| {
            let budget = cores as u32 * 100 - 15;
            let mut used = 0;
            let mut host = HostConfig::new(cores);
            for (i, (ui, li, capped)) in picks.into_iter().enumerate() {
                let u = UTILS[ui];
                if used + u > budget {
                    continue;
                }
                used += u;
                let (u, l) = (
                    Utilization::from_percent(u),
                    Nanos::from_millis(LATENCIES[li]),
                );
                let spec = if capped {
                    VcpuSpec::capped(u, l)
                } else {
                    VcpuSpec::new(u, l)
                };
                host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
            }
            host
        })
}

/// Deterministic site choice (splitmix64 finalizer).
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Damages `table` at `SITES` salted sites per mutation class and requires
/// every mutant flagged (each mutant is a JSON round-trip, so the sites are
/// sampled rather than enumerated).
fn assert_mutations_flagged(table: &Table, salt: u64) {
    const SITES: u64 = 6;
    let auditor = TableAuditor::new(table);
    let raw = raw_of(table);
    assert!(auditor.audit_full(table).is_empty());
    assert!(
        auditor.audit_full(&table_of(&raw)).is_empty(),
        "the mirror round-trip must not trip the audit"
    );
    let flagged = |what: String, mutant: &RawTable| {
        assert!(
            !auditor.audit_full(&table_of(mutant)).is_empty(),
            "{what} went unnoticed"
        );
    };

    let slots: Vec<(usize, usize)> = raw
        .cpus
        .iter()
        .enumerate()
        .flat_map(|(c, cpu)| (0..cpu.allocations.len()).map(move |i| (c, i)))
        .collect();
    assert!(!slots.is_empty());
    let draw = |stream: u64, k: u64, n: usize| (mix(salt ^ (stream << 32 | k)) % n as u64) as usize;

    for k in 0..SITES {
        // One flipped bit in each field of an allocation.
        let (c, i) = slots[draw(0, k, slots.len())];
        let mut m = raw.clone();
        m.cpus[c].allocations[i].start.0 ^= 1 << draw(1, k, 64);
        flagged(format!("start flip, core {c} slot {i}"), &m);
        let mut m = raw.clone();
        m.cpus[c].allocations[i].end.0 ^= 1 << draw(2, k, 64);
        flagged(format!("end flip, core {c} slot {i}"), &m);
        let mut m = raw.clone();
        m.cpus[c].allocations[i].vcpu.0 ^= 1 << draw(3, k, 32);
        flagged(format!("vcpu flip, core {c} slot {i}"), &m);

        // Two adjacent allocations of a core trade places.
        let (c, i) = slots[draw(4, k, slots.len())];
        if i + 1 < raw.cpus[c].allocations.len() {
            let mut m = raw.clone();
            m.cpus[c].allocations.swap(i, i + 1);
            flagged(format!("adjacent swap, core {c} slots {i}/{}", i + 1), &m);
        }

        // Two allocations trade vCPU ids.
        let (c1, i1) = slots[draw(5, k, slots.len())];
        let (c2, i2) = slots[draw(6, k, slots.len())];
        let (a, b) = (
            raw.cpus[c1].allocations[i1].vcpu,
            raw.cpus[c2].allocations[i2].vcpu,
        );
        if a != b {
            let mut m = raw.clone();
            m.cpus[c1].allocations[i1].vcpu = b;
            m.cpus[c2].allocations[i2].vcpu = a;
            flagged(format!("id swap, {a:?} <-> {b:?}"), &m);
        }

        // A home core moves, slots untouched.
        let v = draw(7, k, raw.placements.len());
        if !raw.placements[v].allocations.is_empty() {
            let n_cores = raw.cpus.len();
            let mut m = raw.clone();
            let home = &mut m.placements[v].home_core;
            *home = (*home + 1 + draw(8, k, n_cores - 1)) % n_cores;
            flagged(format!("home move, vcpu {v}"), &m);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_site_mutations_are_flagged(host in arb_host(), salt in any::<u64>()) {
        let p = plan(&host, &PlannerOptions::default()).expect("host is within capacity");
        assert_mutations_flagged(&p.table, salt);
    }
}
