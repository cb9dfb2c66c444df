//! Oracles for the table compile, the placement views and the one-pass
//! blackout.
//!
//! [`Table`] stores a schedule once — each core's segment arrays and slice
//! index — and answers `allocations()` and `placement(v)` as views over
//! them. The constructors it had before (per-core allocation lists kept
//! beside the arrays, per-vCPU `(core, start, end)` lists built by a
//! counting pass, sorted, overlap-checked and home-voted one vCPU at a
//! time) live on here as [`reference`]: every view, every verdict and every
//! error text is held to them on random allocation lists that include the
//! shapes the shortcuts could get wrong: an empty core, a single-allocation
//! core, allocations that touch, an allocation ending exactly at the table
//! length, a table length that is no multiple of the shortest allocation,
//! a vCPU split over two cores whose pieces touch, ids moved onto other
//! cores (vCPUs on several cores, some of them at once), and lists that
//! are unsorted, overlapping, empty or too long. The compiled arrays are
//! private; they are read through a field-for-field mirror of the table's
//! serialized form.

use proptest::prelude::*;
use serde::Deserialize;

use rtsched::schedule::{CoreSchedule, MultiCoreSchedule, Segment};
use rtsched::task::TaskId;
use rtsched::time::Nanos;
use rtsched::verify::task_max_blackout;
use tableau_core::binary::{decode, encode, encoded_size};
use tableau_core::planner::{plan, PlannerOptions};
use tableau_core::table::{Allocation, CpuTable, Table};
use tableau_core::vcpu::{HostConfig, Utilization, VcpuId, VcpuSpec, VmSpec};

/// Mirror of `CpuTable`'s serialized form.
#[derive(Deserialize)]
struct RawCpu {
    slice_len: Nanos,
    block_base: Vec<u32>,
    slice_offset: Vec<u8>,
    seg_end: Vec<u32>,
    seg_vcpu: Vec<u16>,
}

/// Slices per block of the slice index.
const SLICE_BLOCK: usize = 64;

impl RawCpu {
    /// The segment index slice `s` records: its block's base plus its
    /// offset.
    fn slice_segment(&self, s: usize) -> usize {
        self.block_base[s / SLICE_BLOCK] as usize + usize::from(self.slice_offset[s])
    }

    /// Exclusive end of segment `i`.
    fn end(&self, i: usize) -> Nanos {
        Nanos(u64::from(self.seg_end[i]))
    }
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

/// The list-building constructors [`Table`] had while it stored every
/// schedule as lists beside the segment arrays: per-core validation, the
/// counting pass that sized one `(core, start, end)` list per vCPU, and the
/// per-vCPU sort / overlap check / home vote. Kept verbatim as the
/// reference the views, verdicts and error texts are held to.
mod reference {
    use super::*;

    /// Per-vCPU placement as it was stored: every allocation listed.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct Placement {
        pub allocations: Vec<(usize, Nanos, Nanos)>,
        pub home_core: usize,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RefTable {
        pub per_core: Vec<Vec<Allocation>>,
        pub placements: Vec<Placement>,
        pub homed: Vec<Vec<VcpuId>>,
    }

    /// What `CpuTable::new` checks of one core's list, in its order.
    fn check_core(allocations: &[Allocation], table_len: Nanos) -> Result<(), String> {
        let mut overlap: Option<&Allocation> = None;
        let mut t = Nanos::ZERO;
        for a in allocations {
            if a.start >= a.end {
                return Err(format!("empty allocation [{}, {})", a.start, a.end));
            }
            if a.end > table_len {
                return Err(format!(
                    "allocation [{}, {}) exceeds table length {table_len}",
                    a.start, a.end
                ));
            }
            if a.start < t {
                overlap = overlap.or(Some(a));
            }
            t = a.end;
        }
        match overlap {
            Some(a) => Err(format!(
                "allocations overlap or unsorted at [{}, {})",
                a.start, a.end
            )),
            None => Ok(()),
        }
    }

    fn home_of(allocations: &[(usize, Nanos, Nanos)]) -> usize {
        let mut per_core_time: Vec<(usize, Nanos)> = Vec::new();
        for &(core, s, e) in allocations {
            match per_core_time.iter_mut().find(|(c, _)| *c == core) {
                Some((_, t)) => *t += e - s,
                None => per_core_time.push((core, e - s)),
            }
        }
        per_core_time
            .iter()
            .max_by_key(|&&(c, t)| (t, std::cmp::Reverse(c)))
            .map(|&(c, _)| c)
            .unwrap_or(0)
    }

    impl Placement {
        fn settle(&mut self, vid: usize) -> Result<(), String> {
            let first_core = self.allocations.first().map_or(0, |a| a.0);
            let one_core = self.allocations.iter().all(|a| a.0 == first_core);
            if !one_core {
                self.allocations.sort_by_key(|&(_, s, _)| s);
            }
            for w in self.allocations.windows(2) {
                if w[0].2 > w[1].1 {
                    return Err(format!(
                        "vCPU v{vid} has overlapping allocations at {}",
                        w[1].1
                    ));
                }
            }
            self.home_core = if one_core {
                first_core
            } else {
                home_of(&self.allocations)
            };
            Ok(())
        }

        pub fn max_blackout(&self, table_len: Nanos) -> Nanos {
            let (Some(first), Some(last)) = (self.allocations.first(), self.allocations.last())
            else {
                return table_len;
            };
            let wrap = (table_len - last.2) + first.1;
            self.allocations
                .windows(2)
                .map(|w| w[1].1.saturating_sub(w[0].2))
                .fold(wrap, Nanos::max)
        }
    }

    /// `Table::new` as it was: cores validated in order, then the
    /// placements built, settled and homed.
    pub fn assemble(len: Nanos, per_core: &[Vec<Allocation>]) -> Result<RefTable, String> {
        for (core, allocs) in per_core.iter().enumerate() {
            check_core(allocs, len).map_err(|e| format!("core {core}: {e}"))?;
        }
        let mut counts: Vec<usize> = Vec::new();
        for a in per_core.iter().flatten() {
            let v = a.vcpu.0 as usize;
            if v >= counts.len() {
                counts.resize(v + 1, 0);
            }
            counts[v] += 1;
        }
        let mut placements: Vec<Placement> = counts
            .iter()
            .map(|&n| Placement {
                allocations: Vec::with_capacity(n),
                home_core: 0,
            })
            .collect();
        for (core, allocs) in per_core.iter().enumerate() {
            for a in allocs {
                placements[a.vcpu.0 as usize]
                    .allocations
                    .push((core, a.start, a.end));
            }
        }
        for (vid, p) in placements.iter_mut().enumerate() {
            p.settle(vid)?;
        }
        let mut homed = vec![Vec::new(); per_core.len()];
        for (vid, p) in placements.iter().enumerate() {
            if !p.allocations.is_empty() {
                homed[p.home_core].push(VcpuId(vid as u32));
            }
        }
        Ok(RefTable {
            per_core: per_core.to_vec(),
            placements,
            homed,
        })
    }
}

/// One draw of damage: `(kind, site, other site, amount)`.
type Damage = (u8, u32, u32, u64);

fn arb_damage(max: usize) -> impl Strategy<Value = Vec<Damage>> {
    proptest::collection::vec((0u8..8, any::<u32>(), any::<u32>(), 1u64..50), 0..=max)
}

/// Damages valid lists the ways a constructor must judge: most draws hand
/// an allocation to a vCPU of another slot — vCPUs on several cores, legal
/// when their pieces do not overlap in time — the rest break one core's
/// list (start pulled back over its predecessor, neighbours swapped, an end
/// past the table, an empty interval).
fn damaged(
    mut per_core: Vec<Vec<Allocation>>,
    len: Nanos,
    damage: &[Damage],
) -> Vec<Vec<Allocation>> {
    for &(kind, site, other, amount) in damage {
        let slots: Vec<(usize, usize)> = per_core
            .iter()
            .enumerate()
            .flat_map(|(c, list)| (0..list.len()).map(move |i| (c, i)))
            .collect();
        if slots.is_empty() {
            break;
        }
        let (c, i) = slots[site as usize % slots.len()];
        let (c2, i2) = slots[other as usize % slots.len()];
        match kind {
            0..=4 => per_core[c][i].vcpu = per_core[c2][i2].vcpu,
            5 => per_core[c][i].start = Nanos(per_core[c][i].start.0.saturating_sub(amount)),
            6 if i + 1 < per_core[c].len() => per_core[c].swap(i, i + 1),
            6 => per_core[c][i].end = per_core[c][i].start,
            _ => per_core[c][i].end = len + Nanos(amount),
        }
    }
    per_core
}

/// Holds every view of `table` to the reference built from the same lists.
fn assert_views_match(table: &Table, want: &reference::RefTable, len: Nanos) {
    assert_eq!(table.n_cores(), want.per_core.len());
    for (core, allocs) in want.per_core.iter().enumerate() {
        assert_eq!(&table.cpu(core).allocations().collect::<Vec<_>>(), allocs);
        assert_eq!(table.cpu(core).n_allocations(), allocs.len());
        assert_eq!(
            table.vcpus_homed_on(core),
            &want.homed[core][..],
            "core {core}"
        );
    }
    // A few ids past the highest: the table must not know them.
    for v in 0..want.placements.len() + 3 {
        let got = table.placement(VcpuId(v as u32));
        let Some(p) = want.placements.get(v).filter(|p| !p.allocations.is_empty()) else {
            assert!(got.is_none(), "vCPU {v} is not scheduled");
            continue;
        };
        let got = got.unwrap_or_else(|| panic!("vCPU {v} is scheduled"));
        assert_eq!(
            got.allocations().collect::<Vec<_>>(),
            p.allocations,
            "vCPU {v}"
        );
        assert_eq!(got.home_core, p.home_core, "vCPU {v}");
        assert_eq!(got.max_blackout(len), p.max_blackout(len), "vCPU {v}");
        for core in 0..table.n_cores() {
            let all_there = p.allocations.iter().all(|a| a.0 == core);
            assert_eq!(got.only_on(core), all_there, "vCPU {v} core {core}");
        }
    }
}

/// One case of `views_and_verdicts_match_the_list_building_reference`.
fn check_against_reference(case: Case, damage: &[Damage], chain: Vec<(u8, Vec<Damage>)>) {
    let Case { len, per_core, alt } = case;
    let n = per_core.len();
    let lists = damaged(per_core.clone(), len, damage);
    let want = reference::assemble(len, &lists);
    let got = Table::new(len, lists.clone());
    assert_eq!(
        got.as_ref().err(),
        want.as_ref().err(),
        "fresh build of {lists:?}"
    );
    let (Ok(mut table), Ok(want)) = (got, want) else {
        return;
    };
    assert_views_match(&table, &want, len);

    // A chain of splices: each replaces the masked cores with damaged
    // lists from the other pool; a refused splice leaves the table as
    // it was and the chain goes on from there.
    let mut lists = lists;
    for (k, (mask, damage)) in chain.into_iter().enumerate() {
        let pool = damaged(
            if k % 2 == 0 {
                alt.clone()
            } else {
                per_core.clone()
            },
            len,
            &damage,
        );
        let updates: Vec<(usize, Vec<Allocation>)> = (0..n)
            .filter(|&c| (mask >> c) & 1 == 1)
            .map(|c| (c, pool[c].clone()))
            .collect();
        let mut combined = lists.clone();
        for (c, list) in &updates {
            combined[*c] = list.clone();
        }
        let want = reference::assemble(len, &combined);
        let got = Table::patched_from(&table, updates);
        assert_eq!(
            got.as_ref().err(),
            want.as_ref().err(),
            "splice {k} to {combined:?}"
        );
        if let (Ok(got), Ok(want)) = (got, want) {
            assert_views_match(&got, &want, len);
            assert_eq!(
                got,
                Table::new(len, combined.clone()).unwrap(),
                "splice {k}"
            );
            (table, lists) = (got, combined);
        }
    }
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
            assert_eq!(&cpu.allocations().collect::<Vec<_>>(), allocs);
            assert_eq!(cpu.n_allocations(), allocs.len());
            let shortest = allocs.iter().map(|a| a.len()).min().unwrap_or(len);
            assert_eq!(raw.slice_len, shortest);
            let n_slices = raw.slice_offset.len();
            assert_eq!(n_slices as u64, len.as_nanos().div_ceil(shortest.as_nanos()));
            assert_eq!(raw.block_base.len(), n_slices.div_ceil(SLICE_BLOCK));
            assert_eq!(raw.seg_end.len(), raw.seg_vcpu.len());
            assert_eq!(raw.end(raw.seg_end.len() - 1), len);
            // The run fill against the search it replaced, read as block
            // base plus offset; a block's first slice is its base.
            for s in 0..n_slices {
                let slice_start = raw.slice_len * s as u64;
                assert_eq!(
                    raw.slice_segment(s),
                    raw.seg_end.partition_point(|&e| u64::from(e) <= slice_start.as_nanos()),
                    "core {core} slice {s}"
                );
                if s % SLICE_BLOCK == 0 {
                    assert_eq!(raw.slice_offset[s], 0, "core {core} slice {s}");
                }
            }
            // The bound the one-byte offset rests on: a slice's segment is
            // at most two past the previous slice's.
            for s in 1..n_slices {
                let step = raw.slice_segment(s) - raw.slice_segment(s - 1);
                assert!(step <= 2, "core {core} slice {s}: {step} segments past slice {}", s - 1);
            }
            // Random access against a linear scan of segments and of the
            // allocations themselves.
            let edges = allocs.iter().flat_map(|a| [a.start, a.end]);
            for t in probes.iter().map(|&p| Nanos(p % len.as_nanos())).chain(edges) {
                if t >= len {
                    continue;
                }
                let scan = (0..raw.seg_end.len()).position(|i| raw.end(i) > t).unwrap();
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
            let got = table.placement(VcpuId(v)).unwrap();
            assert_eq!(got.allocations().collect::<Vec<_>>(), want, "vCPU {v}");
            assert_eq!(got.home_core, home, "vCPU {v}");
            let cores = || want.iter().map(|a| a.0);
            for c in 0..per_core.len() {
                assert_eq!(got.only_on(c), cores().all(|on| on == c), "vCPU {v} core {c}");
            }
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
    #[test]
    fn views_and_verdicts_match_the_list_building_reference(
        case in arb_case(),
        damage in arb_damage(3),
        chain in proptest::collection::vec((any::<u8>(), arb_damage(2)), 1..=3),
    ) {
        check_against_reference(case, &damage, chain);
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

#[test]
fn allocations_a_slice_long_one_ns_apart_reach_two_segments_per_slice() {
    // The densest a core's segments can be: every allocation exactly the
    // slice width, every gap 1 ns, so slice after slice takes in an
    // allocation's end and the next one's start. The index steps by two at
    // nearly every slice, and a block's last offsets come within a couple
    // of the 2 * 63 = 126 a byte must hold.
    let slice = 1_000u64;
    let n = 700u64;
    let allocs: Vec<Allocation> = (0..n)
        .map(|i| Allocation {
            start: Nanos(i * (slice + 1)),
            end: Nanos(i * (slice + 1) + slice),
            vcpu: VcpuId((i % 7) as u32),
        })
        .collect();
    let len = Nanos(n * (slice + 1));
    let table = Table::new(len, vec![allocs.clone()]).unwrap();
    let cpu = table.cpu(0);
    let raw = raw_of(cpu);
    assert_eq!(raw.slice_len, Nanos(slice));
    assert_eq!(cpu.n_segments(), 2 * n as usize);
    let steps: Vec<usize> = (1..cpu.n_slices())
        .map(|s| raw.slice_segment(s) - raw.slice_segment(s - 1))
        .collect();
    assert_eq!(steps.iter().max(), Some(&2));
    assert!(steps.iter().filter(|&&d| d == 2).count() * 10 >= steps.len() * 9);
    let widest = raw.slice_offset.iter().max().copied().unwrap();
    assert!((120..=126).contains(&widest), "widest offset {widest}");
    // Every slice start and every segment edge answers as a scan does.
    let edges = allocs
        .iter()
        .flat_map(|a| [a.start, a.end - Nanos(1), a.end]);
    let starts = (0..cpu.n_slices() as u64).map(|s| Nanos(s * slice));
    for t in starts.chain(edges).filter(|&t| t < len) {
        let scan = (0..raw.seg_end.len()).position(|i| raw.end(i) > t).unwrap();
        assert_eq!(cpu.segment_at(t), scan, "t {t}");
        let owner = allocs.iter().find(|a| a.contains(t)).map(|a| a.vcpu);
        assert_eq!(table.lookup(0, t).vcpu(), owner, "t {t}");
    }
}

#[test]
fn a_planned_table_is_resident_at_about_its_wire_size() {
    // 44 cores, 176 capped quarter-core VMs, at each latency goal. The
    // table holds one copy of the schedule in narrow records — 6 B per
    // segment (a `u32` end, a `u16` id) against 20 B per allocation on the
    // wire, idle gaps being segments too, and about 1 B per slice against
    // 4 B — so its heap is 0.36 / 0.30 / 0.36 / 0.30 of the wire size at
    // 1 / 2 / 3 / 4 ms. With 12 B per segment and 4 B per slice the same
    // tables read 0.79 / 0.67 / 0.80 / 0.67; with the two 24 B-per-
    // allocation lists once kept beside the arrays, 2.79 / 2.67 / 2.79 /
    // 2.66.
    for goal_ms in 1..=4 {
        let spec = VcpuSpec::capped(Utilization::from_percent(25), Nanos::from_millis(goal_ms));
        let mut host = HostConfig::new(44);
        for i in 0..176 {
            host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
        }
        let t = plan(&host, &PlannerOptions::default()).unwrap().table;
        let (resident, wire) = (t.resident_bytes(), encoded_size(&t));
        assert!(
            resident * 20 <= wire * 9,
            "{goal_ms} ms goal: {resident} B resident against {wire} B on the wire"
        );
    }
}

#[test]
fn planner_table_encodes_to_the_golden_bytes() {
    // The wire format is the paper's and predates the table storing
    // only its segment arrays: the digest (FNV-1a 64) and length were
    // taken from `encode` reading the stored allocation lists. 44
    // cores, 176 VMs that all differ, 1 and 2 ms goals.
    let mut host = HostConfig::new(44);
    for i in 0..176u32 {
        let util = Utilization::from_ppm(150_000 + 500 * i);
        let spec = VcpuSpec::capped(util, Nanos::from_millis(1 + (i as u64 % 2)));
        host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
    }
    let p = plan(&host, &PlannerOptions::default()).unwrap();
    let bytes = encode(&p.table);
    let fnv = |h: u64, &b: &u8| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325, fnv);
    assert_eq!((bytes.len(), digest), (1_358_760, 0xc77d_d1b8_9469_13eb));
    assert_eq!(decode(bytes).unwrap(), p.table);
}
