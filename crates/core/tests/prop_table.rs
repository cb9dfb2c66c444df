//! Oracles for the table compile and the one-pass blackout.
//!
//! [`Table`]'s constructors build the slice index by a merge walk, skip the
//! per-vCPU sort for vCPUs that sit on one core, and answer the blackout
//! validation in one pass over a placement. Each shortcut is checked here
//! against the plain definition it replaced, on random allocation lists
//! that include the shapes the shortcuts could get wrong: an empty core, a
//! single-allocation core, allocations that touch, an allocation ending
//! exactly at the table length, a table length that is no multiple of the
//! shortest allocation, and a vCPU split over two cores whose pieces touch
//! (so both the sort-skip path and the sorted path run). The compiled
//! arrays are private; they are read through a field-for-field mirror of
//! the table's serialized form.

use proptest::prelude::*;
use serde::Deserialize;

use rtsched::schedule::{CoreSchedule, MultiCoreSchedule, Segment};
use rtsched::task::TaskId;
use rtsched::time::Nanos;
use rtsched::verify::task_max_blackout;
use tableau_core::table::{Allocation, CpuTable, Table, VcpuPlacement};
use tableau_core::vcpu::VcpuId;

/// Mirror of `CpuTable`'s serialized form.
#[derive(Deserialize)]
struct RawCpu {
    allocations: Vec<Allocation>,
    slice_len: Nanos,
    slices: Vec<u32>,
    seg_end: Vec<Nanos>,
    seg_vcpu: Vec<u32>,
}

fn raw_of(cpu: &CpuTable) -> RawCpu {
    serde_json::from_str(&serde_json::to_string(cpu).unwrap()).unwrap()
}

/// The vCPU that is split over cores 0 and 1.
const SPLIT: u32 = 900;

/// One core's random part: `(gap, len, id pick)` per allocation, whether
/// the last allocation is stretched to end at the table length.
type CoreDesc = (Vec<(u64, u64, u32)>, bool);

/// A generated case: table length, per-core allocation lists, and a second
/// set of lists that differs only in its random part (the `patched_from`
/// starting point).
#[derive(Debug, Clone)]
struct Case {
    len: Nanos,
    per_core: Vec<Vec<Allocation>>,
    alt: Vec<Vec<Allocation>>,
}

/// Lays `desc` out in the time `reserved` (sorted pieces of the split vCPU
/// on this core) leaves free, ids from this core's own pool so no vCPU
/// other than the split one ever sits on two cores.
fn lay_out(core: usize, len: u64, reserved: &[(u64, u64)], desc: &CoreDesc) -> Vec<Allocation> {
    let mut free: Vec<(u64, u64)> = Vec::new();
    let mut t = 0;
    for &(s, e) in reserved {
        if s > t {
            free.push((t, s));
        }
        t = e;
    }
    if t < len {
        free.push((t, len));
    }
    let mut out: Vec<Allocation> = reserved
        .iter()
        .map(|&(s, e)| Allocation {
            start: Nanos(s),
            end: Nanos(e),
            vcpu: VcpuId(SPLIT),
        })
        .collect();
    let mut windows = free.into_iter();
    let mut window = windows.next();
    // The last random allocation and the end of the free window it sits in.
    let mut last_fill = None;
    for &(gap, alloc_len, pick) in &desc.0 {
        let Some((from, to)) = window else { break };
        let (start, end) = (from + gap, from + gap + alloc_len);
        if end > to {
            window = windows.next();
            continue;
        }
        last_fill = Some((out.len(), to));
        out.push(Allocation {
            start: Nanos(start),
            end: Nanos(end),
            vcpu: VcpuId(core as u32 * 8 + pick),
        });
        window = Some((end, to));
    }
    // Stretched, it ends at the table length unless a split piece does.
    if let (true, Some((i, to))) = (desc.1, last_fill) {
        out[i].end = Nanos(to);
    }
    out.sort_by_key(|a| a.start);
    out
}

fn arb_case() -> impl Strategy<Value = Case> {
    let core = || {
        (
            proptest::collection::vec((0u64..40, 1u64..60, 0u32..4), 0..=12),
            any::<bool>(),
        )
    };
    (
        200u64..2_000,
        proptest::collection::vec((core(), core()), 1..=4),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(len, cores, split, tail)| {
            // The split vCPU: core 0 hands over to core 1 at 2/5 of the
            // table (touching pieces) and, with `tail`, comes back on core
            // 0 for a last piece that ends at the table length.
            let fifth = len / 5;
            let mut reserved: Vec<Vec<(u64, u64)>> = vec![Vec::new(); cores.len()];
            if split && cores.len() >= 2 {
                reserved[0].push((fifth, 2 * fifth));
                reserved[1].push((2 * fifth, 3 * fifth));
                if tail {
                    reserved[0].push((4 * fifth, len));
                }
            }
            let lay = |which: fn(&(CoreDesc, CoreDesc)) -> &CoreDesc| {
                cores
                    .iter()
                    .enumerate()
                    .map(|(c, d)| lay_out(c, len, &reserved[c], which(d)))
                    .collect::<Vec<_>>()
            };
            Case {
                len: Nanos(len),
                per_core: lay(|d| &d.0),
                alt: lay(|d| &d.1),
            }
        })
}

/// A [`MultiCoreSchedule`] carrying exactly `per_core`.
fn schedule_of(len: Nanos, per_core: &[Vec<Allocation>]) -> MultiCoreSchedule {
    MultiCoreSchedule {
        hyperperiod: len,
        cores: per_core
            .iter()
            .map(|allocs| {
                let segs = allocs
                    .iter()
                    .map(|a| Segment::new(a.start, a.end, TaskId(a.vcpu.0)))
                    .collect();
                CoreSchedule::from_segments(segs).expect("generated lists are sorted")
            })
            .collect(),
    }
}

fn vcpus_of(per_core: &[Vec<Allocation>]) -> Vec<u32> {
    let mut ids: Vec<u32> = per_core.iter().flatten().map(|a| a.vcpu.0).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compiled_arrays_match_their_definitions(case in arb_case(), probes in proptest::collection::vec(any::<u64>(), 16)) {
        let Case { len, per_core, .. } = case;
        let table = Table::new(len, per_core.clone()).expect("generated lists are valid");
        for (core, allocs) in per_core.iter().enumerate() {
            let cpu = table.cpu(core);
            let raw = raw_of(cpu);
            assert_eq!(&raw.allocations, allocs);
            let shortest = allocs.iter().map(|a| a.len()).min().unwrap_or(len);
            assert_eq!(raw.slice_len, shortest);
            assert_eq!(raw.slices.len() as u64, len.as_nanos().div_ceil(shortest.as_nanos()));
            assert_eq!(raw.seg_end.len(), raw.seg_vcpu.len());
            assert_eq!(raw.seg_end.last(), Some(&len));
            // The merge walk against the search it replaced.
            for (s, &seg) in raw.slices.iter().enumerate() {
                let slice_start = raw.slice_len * s as u64;
                assert_eq!(
                    seg as usize,
                    raw.seg_end.partition_point(|&e| e <= slice_start),
                    "core {core} slice {s}"
                );
            }
            // Random access against a linear scan of segments and of the
            // allocations themselves.
            let edges = allocs.iter().flat_map(|a| [a.start, a.end]);
            for t in probes.iter().map(|&p| Nanos(p % len.as_nanos())).chain(edges) {
                if t >= len {
                    continue;
                }
                let scan = raw.seg_end.iter().position(|&e| e > t).unwrap();
                assert_eq!(cpu.segment_at(t), scan, "core {core} t {t}");
                let owner = allocs.iter().find(|a| a.contains(t));
                assert_eq!(cpu.slot_at(t, len).vcpu(), owner.map(|a| a.vcpu));
                assert_eq!(table.lookup(core, t + len * 3).vcpu(), owner.map(|a| a.vcpu));
            }
        }
        // Placements against the plain build: gather, stable-sort by start,
        // vote the home core.
        for v in vcpus_of(&per_core) {
            let mut want: Vec<(usize, Nanos, Nanos)> = Vec::new();
            for (core, allocs) in per_core.iter().enumerate() {
                want.extend(allocs.iter().filter(|a| a.vcpu.0 == v).map(|a| (core, a.start, a.end)));
            }
            want.sort_by_key(|&(_, s, _)| s);
            let time_on = |c: usize| -> Nanos {
                want.iter().filter(|a| a.0 == c).map(|a| a.2 - a.1).sum()
            };
            let home = (0..per_core.len())
                .max_by_key(|&c| (time_on(c), std::cmp::Reverse(c)))
                .unwrap();
            let got: &VcpuPlacement = table.placement(VcpuId(v)).unwrap();
            assert_eq!(got.allocations, want, "vCPU {v}");
            assert_eq!(got.home_core, home, "vCPU {v}");
            assert!(table.vcpus_homed_on(home).contains(&VcpuId(v)));
        }
    }

    #[test]
    fn every_constructor_builds_the_same_table(case in arb_case(), mask in any::<u8>()) {
        let Case { len, per_core, alt } = case;
        let n = per_core.len();
        let fresh = Table::new(len, per_core.clone()).unwrap();

        // Stamps: a geometric twin of the last core (other ids) checks out,
        // every other hint must be refused without changing the result.
        let mut twinned = per_core.clone();
        twinned.push(
            per_core[n - 1]
                .iter()
                .map(|a| Allocation { vcpu: VcpuId(a.vcpu.0 + 5_000), ..*a })
                .collect(),
        );
        let hints: Vec<Option<usize>> = (0..=n).map(|c| c.checked_sub(1)).collect();
        assert_eq!(
            Table::new_with_stamps(len, twinned.clone(), &hints).unwrap(),
            Table::new(len, twinned).unwrap()
        );

        // Donors: the right core re-stamps to itself; the wrong one is
        // refused (allocations handed back) unless it is a geometric twin,
        // and then it yields the same core table anyway.
        for (c, allocs) in per_core.iter().enumerate() {
            let right = CpuTable::stamped_from(fresh.cpu(c), allocs.clone(), len);
            assert_eq!(right.as_ref(), Ok(fresh.cpu(c)));
            match CpuTable::stamped_from(fresh.cpu((c + 1) % n), allocs.clone(), len) {
                Ok(twin) => assert_eq!(&twin, fresh.cpu(c)),
                Err(back) => assert_eq!(&back, allocs),
            }
        }
        // The same through the splice, which offers every updated core its
        // previous self: all cores replaced over the right table, and over
        // one whose cores are rotated by one (every donor the wrong core).
        let all: Vec<(usize, Vec<Allocation>)> = per_core.iter().cloned().enumerate().collect();
        assert_eq!(Table::patched_from(&fresh, all.clone()).unwrap(), fresh);
        let rotated: Vec<Vec<Allocation>> = (0..n).map(|c| per_core[(c + 1) % n].clone()).collect();
        let rotated = Table::new(len, rotated).unwrap();
        assert_eq!(Table::patched_from(&rotated, all).unwrap(), fresh);

        // Patch: start from a table whose masked cores carry other lists.
        let masked = |c: usize| (mask >> c) & 1 == 1;
        let prev_lists: Vec<Vec<Allocation>> = (0..n)
            .map(|c| if masked(c) { alt[c].clone() } else { per_core[c].clone() })
            .collect();
        let prev = Table::new(len, prev_lists).unwrap();
        let updates: Vec<(usize, Vec<Allocation>)> = (0..n)
            .filter(|&c| masked(c))
            .map(|c| (c, per_core[c].clone()))
            .collect();
        assert_eq!(Table::patched_from(&prev, updates).unwrap(), fresh);
    }

    #[test]
    fn one_pass_blackout_matches_the_schedule_oracle(case in arb_case()) {
        let Case { len, per_core, .. } = case;
        let table = Table::new(len, per_core.clone()).unwrap();
        let sched = schedule_of(len, &per_core);
        for v in vcpus_of(&per_core) {
            let p = table.placement(VcpuId(v)).unwrap();
            assert_eq!(p.max_blackout(len), task_max_blackout(TaskId(v), &sched), "vCPU {v}");
        }
    }
}

/// The two shapes the issue names, pinned outside the random search: pieces
/// on two cores that touch, and a last piece that ends at the hyperperiod.
#[test]
fn blackout_of_touching_and_table_end_pieces() {
    let a = |s, e, v| Allocation {
        start: Nanos(s),
        end: Nanos(e),
        vcpu: VcpuId(v),
    };
    let per_core = vec![
        vec![a(20, 40, 0), a(90, 100, 0)],
        vec![a(40, 55, 0), a(60, 70, 1)],
    ];
    let len = Nanos(100);
    let table = Table::new(len, per_core.clone()).unwrap();
    let sched = schedule_of(len, &per_core);
    // v0: [20, 55) across the hand-over, then [90, 100): gaps 35 and 20.
    let p0 = table.placement(VcpuId(0)).unwrap();
    assert_eq!(p0.max_blackout(len), Nanos(35));
    assert_eq!(p0.max_blackout(len), task_max_blackout(TaskId(0), &sched));
    // v1: one piece, the gap wraps the table edge.
    let p1 = table.placement(VcpuId(1)).unwrap();
    assert_eq!(p1.max_blackout(len), Nanos(90));
    assert_eq!(p1.max_blackout(len), task_max_blackout(TaskId(1), &sched));
}
