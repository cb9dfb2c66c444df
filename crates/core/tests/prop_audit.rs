//! Strength of the continuous table audit's fingerprints.
//!
//! The audit compares per-core and placement fingerprints of the live
//! table against those taken at install time. This suite plans random
//! hosts and damages the table the way a stray memory write would — one
//! field at a time, *without* rebuilding the derived metadata — and
//! requires the mutant's `TableFacts` to differ from the baseline's on
//! every mutant and to equal them on the untouched table. [`Table::new`] rejects most of these mutants (unsorted
//! lists, overlaps), so they are written through a field-for-field mirror
//! of the table's serialized form: into the segment arrays, which are the
//! only copy of the schedule — an allocation is a non-idle segment, its
//! start the end of the segment before it — and into the home-core array.

use proptest::prelude::*;
use serde::{Deserialize, Serialize};

use rtsched::time::Nanos;
use tableau_core::audit::{corrupt_table, CorruptionKind, TableFacts};
use tableau_core::planner::{plan, PlannerOptions};
use tableau_core::table::{Allocation, Table};
use tableau_core::vcpu::{HostConfig, Utilization, VcpuId, VcpuSpec, VmSpec};

/// Field-for-field mirror of [`Table`]'s serialized form.
#[derive(Clone, Serialize, Deserialize)]
struct RawTable {
    len: Nanos,
    cpus: Vec<RawCpu>,
    home: Vec<u32>,
    split: Vec<RawSplit>,
    homed: Vec<Vec<VcpuId>>,
}

/// Mirror of a listed (multi-core) placement.
#[derive(Clone, Serialize, Deserialize)]
struct RawSplit {
    vcpu: VcpuId,
    allocations: Vec<(usize, Nanos, Nanos)>,
}

/// Field-for-field mirror of `CpuTable`'s serialized form.
#[derive(Clone, Serialize, Deserialize)]
struct RawCpu {
    slice_len: Nanos,
    block_base: Vec<u32>,
    slice_offset: Vec<u8>,
    seg_end: Vec<u32>,
    seg_vcpu: Vec<u16>,
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
    let baseline = TableFacts::derive(table);
    let raw = raw_of(table);
    assert_eq!(baseline, TableFacts::derive(table));
    assert_eq!(
        baseline,
        TableFacts::derive(&table_of(&raw)),
        "the mirror round-trip must not trip the audit"
    );
    let flagged = |what: String, mutant: &RawTable| {
        assert_ne!(
            baseline,
            TableFacts::derive(&table_of(mutant)),
            "{what} went unnoticed"
        );
    };

    // Every allocation, as (core, segment index).
    let slots: Vec<(usize, usize)> = raw
        .cpus
        .iter()
        .enumerate()
        .flat_map(|(c, cpu)| {
            let reserved = (0..cpu.seg_vcpu.len()).filter(|&i| cpu.seg_vcpu[i] != u16::MAX);
            reserved.map(move |i| (c, i))
        })
        .collect();
    assert!(!slots.is_empty());
    let draw = |stream: u64, k: u64, n: usize| (mix(salt ^ (stream << 32 | k)) % n as u64) as usize;

    for k in 0..SITES {
        // One flipped bit in each field of an allocation: at the first site
        // every bit of the field's width (32 for an end offset, 16 for an
        // id) in turn, at the others one drawn from it.
        let bits = |stream: u64, width: usize| -> Vec<usize> {
            if k == 0 {
                (0..width).collect()
            } else {
                vec![draw(stream, k, width)]
            }
        };
        let (c, i) = slots[draw(0, k, slots.len())];
        if i > 0 {
            // A start is the end of the segment before (segment 0 starts
            // at zero, which no byte holds).
            for bit in bits(1, 32) {
                let mut m = raw.clone();
                m.cpus[c].seg_end[i - 1] ^= 1 << bit;
                flagged(format!("start flip, core {c} segment {i} bit {bit}"), &m);
            }
        }
        for bit in bits(2, 32) {
            let mut m = raw.clone();
            m.cpus[c].seg_end[i] ^= 1 << bit;
            flagged(format!("end flip, core {c} segment {i} bit {bit}"), &m);
        }
        for bit in bits(3, 16) {
            let mut m = raw.clone();
            m.cpus[c].seg_vcpu[i] ^= 1 << bit;
            flagged(format!("vcpu flip, core {c} segment {i} bit {bit}"), &m);
        }

        // An allocation trades places with the segment after it.
        let (c, i) = slots[draw(4, k, slots.len())];
        if i + 1 < raw.cpus[c].seg_end.len() {
            let mut m = raw.clone();
            m.cpus[c].seg_end.swap(i, i + 1);
            m.cpus[c].seg_vcpu.swap(i, i + 1);
            flagged(
                format!("adjacent swap, core {c} segments {i}/{}", i + 1),
                &m,
            );
        }

        // Two allocations trade vCPU ids.
        let (c1, i1) = slots[draw(5, k, slots.len())];
        let (c2, i2) = slots[draw(6, k, slots.len())];
        let (a, b) = (raw.cpus[c1].seg_vcpu[i1], raw.cpus[c2].seg_vcpu[i2]);
        if a != b {
            let mut m = raw.clone();
            m.cpus[c1].seg_vcpu[i1] = b;
            m.cpus[c2].seg_vcpu[i2] = a;
            flagged(format!("id swap, v{a} <-> v{b}"), &m);
        }

        // A home core moves, slots untouched.
        let v = draw(7, k, raw.home.len());
        if raw.home[v] != u32::MAX {
            let n_cores = raw.cpus.len() as u32;
            let mut m = raw.clone();
            let home = &mut m.home[v];
            *home = (*home + 1 + draw(8, k, n_cores as usize - 1) as u32) % n_cores;
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

/// Which salts of `0..64` yield a mutant, as a bit mask.
fn accepted_salts(t: &Table, kind: CorruptionKind) -> u64 {
    let accepted = (0..64u64).filter(|&salt| corrupt_table(t, kind, salt).is_some());
    accepted.fold(0, |mask, salt| mask | 1 << salt)
}

#[test]
fn the_salts_that_survive_the_rebuild_are_pinned() {
    // A salt is refused when its mutant is a no-op or `Table::new`
    // rejects it (an overlap across cores, a broken core list); chaos
    // replays retry salts until one is accepted, so which ones are is
    // part of every fleet digest. Read off the list-storing `Table`
    // before the segment arrays became the only copy.
    let ms = Nanos::from_millis;
    let alloc = |s, e, v| Allocation {
        start: ms(s),
        end: ms(e),
        vcpu: VcpuId(v),
    };
    let lists = vec![
        vec![alloc(0, 2, 0), alloc(2, 5, 1), alloc(7, 9, 2)],
        vec![alloc(0, 4, 3), alloc(5, 8, 4)],
        vec![alloc(1, 6, 5)],
    ];
    let t = Table::new(ms(10), lists).unwrap();
    let accepted = CorruptionKind::ALL.map(|kind| accepted_salts(&t, kind));
    assert_eq!(
        accepted,
        [0xfeae_fffb_eafb_bfdf, 0xdf7f_f2df_dfef_dddf, u64::MAX],
        "{accepted:#018x?}"
    );
}
