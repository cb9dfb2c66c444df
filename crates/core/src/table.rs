//! Tableau scheduling tables: per-CPU allocations plus the slice table for
//! O(1) dispatch (Fig. 2 of the paper).
//!
//! A table maps one hyperperiod of time to vCPU reservations on each core.
//! Allocations are variable-length, non-overlapping intervals; idle gaps
//! between them belong to the second-level scheduler. To make dispatch
//! constant-time, each per-CPU allocation list is accompanied by a **slice
//! table**: fixed-size windows of length equal to the core's *shortest*
//! allocation. Because no allocation is shorter than a slice, a slice can
//! overlap at most two allocations — so resolving "who runs at time `t`"
//! inspects a bounded number of records regardless of table size, touching
//! at most two cache lines in the hot path.
//!
//! **One representation.** The schedule is stored once, as each core's
//! gap-free segment arrays plus its slice index — what the dispatcher
//! reads. An allocation *is* a non-idle segment, so
//! [`CpuTable::allocations`] is a view over those arrays and the lists a
//! constructor is given are consumed, not kept. [`Table::placement`] is a
//! view too: one home core per vCPU id, its pieces read off that core's
//! segments, and an explicit piece list only for the few vCPUs reserved on
//! more than one core (C=D splits, cluster members). A table's heap is
//! therefore well under its wire size ([`Table::resident_bytes`]).
//!
//! **Compact widths.** A segment is 6 bytes: a `u32` end offset and a
//! `u16` vCPU id. A slice is one byte: its segment index as an offset from
//! a `u32` base kept once per block of [`SLICE_BLOCK`] slices. One byte
//! always suffices, because the index moves by at most two per slice. Slice
//! `k + 1` starts at `(k + 1) * slice_len`, so it sits as many segments past
//! slice `k` as there are segment ends in `(k * slice_len, (k + 1) *
//! slice_len]`. Every such end is an allocation's end or (closing an idle
//! gap) an allocation's start; the table length is never in that interval,
//! since slice `k + 1` starts before it. No allocation is shorter than
//! `slice_len`, so two allocation ends are at least `slice_len` apart, and
//! so are two starts: at most one of each falls in the interval. A slice is
//! therefore at most `2 * 63 = 126` segments past its block's first one.
//! The widths bring two limits, both reported by the constructors as
//! errors: a table is at most `u32::MAX` ns (4.29 s) long, and a vCPU id is
//! below 65 535 (`u16::MAX` marks an idle segment).
//!
//! **Compile cost.** A table is compiled on every plan and every delta
//! splice, so the build is linear in what it writes and shaped for the
//! branch predictor. One pass over a core's allocations validates them,
//! finds the slice length and sizes the segment arrays exactly; the
//! flattening pass writes every gap and lets the next entry overwrite the
//! ones that do not exist. Slice `k` starts at `k * slice_len`, so each
//! segment owns the run of slices below `ceil(end / slice_len)`: the slice
//! index is filled run by run, one division per *segment* and one fixed
//! block store per run — `O(slices + segments)` with no per-slice compare
//! (a 44-core, 1 ms-goal plan has ~117 000 slices over ~22 000 segments;
//! the merge walk this replaced mispredicted once per segment and was the
//! planner's largest stage; the binary search before it survives only in
//! `tests/prop_table.rs`). The block bases are set in the same loop, by the
//! run that reaches a block's first slice. Placement is one pass over the
//! segment ids: a vCPU seen on one core — every vCPU of a partitioned plan
//! — is homed there and nothing is listed, sorted or voted on; the
//! list-building constructors this replaced are the reference in
//! `tests/prop_table.rs`.

use std::mem::size_of_val;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use rtsched::time::Nanos;

use crate::vcpu::VcpuId;

/// One reserved interval within a core's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocation {
    /// Start offset relative to the table start.
    pub start: Nanos,
    /// End offset (exclusive).
    pub end: Nanos,
    /// The vCPU that has priority during this interval.
    pub vcpu: VcpuId,
}

impl Allocation {
    /// Returns the allocation's length.
    pub fn len(&self) -> Nanos {
        self.end - self.start
    }

    /// Returns `true` if `t` falls inside the interval.
    pub fn contains(&self, t: Nanos) -> bool {
        self.start <= t && t < self.end
    }
}

/// The dispatcher's verdict for a point in table-relative time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// The interval `[.., until)` is reserved for `vcpu`.
    Reserved {
        /// The vCPU holding the reservation.
        vcpu: VcpuId,
        /// Table-relative end of the reservation.
        until: Nanos,
    },
    /// No reservation covers the current time; the gap ends at `until`
    /// (table-relative; may equal the table length, i.e. the next table
    /// round starts with the first allocation).
    Idle {
        /// Table-relative end of the idle gap.
        until: Nanos,
    },
}

impl Slot {
    /// Table-relative time at which this verdict expires.
    pub fn until(&self) -> Nanos {
        match *self {
            Slot::Reserved { until, .. } | Slot::Idle { until } => until,
        }
    }

    /// The reserved vCPU, if any.
    pub fn vcpu(&self) -> Option<VcpuId> {
        match *self {
            Slot::Reserved { vcpu, .. } => Some(vcpu),
            Slot::Idle { .. } => None,
        }
    }
}

/// The schedule of one core: its segments plus the slice index over them.
///
/// The schedule is *flattened* into a gap-free sequence of segments
/// covering `[0, table_len)`, stored as a structure-of-arrays of
/// `(end_offset, vcpu)` pairs: `seg_end[i]` is the exclusive end of segment
/// `i` (a `u32` ns offset) and `seg_vcpu[i]` its vCPU (a `u16`, or
/// [`NO_VCPU`] for an idle gap). A dispatch lookup is then a single bounded
/// forward walk over one contiguous array — and because per-core time moves
/// forward, the dispatcher carries a segment cursor between decisions so the
/// steady-state lookup never re-scans (see `Dispatcher`). The arrays are the
/// only copy of the schedule: an allocation is a non-idle segment, starting
/// where the previous segment ends ([`CpuTable::allocations`]). The slice
/// index is two-level: a slice's segment is its block's `u32` base plus the
/// slice's `u8` offset (module docs: why a byte suffices).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpuTable {
    /// Fixed slice width for this core (the shortest allocation length, or
    /// the table length for an empty core).
    slice_len: Nanos,
    /// For each block of [`SLICE_BLOCK`] slices, the index of the segment
    /// containing the block's first slice start.
    block_base: Vec<u32>,
    /// For each slice, the index of the segment containing the slice start,
    /// less its block's base (the random-access entry point into the
    /// segment arrays).
    slice_offset: Vec<u8>,
    /// Exclusive end offset of each segment; the last entry equals the
    /// table length.
    seg_end: Vec<u32>,
    /// vCPU id of each segment, [`NO_VCPU`] for idle gaps.
    seg_vcpu: Vec<u16>,
}

/// Sentinel for "no vCPU" (an idle segment); no allocation may carry it,
/// nor any id above it.
const NO_VCPU: u16 = u16::MAX;

/// Slices per block of the slice index: each block has one `u32` segment
/// base, each slice a `u8` offset from it (at most `2 * (SLICE_BLOCK - 1)`).
const SLICE_BLOCK: usize = 64;

/// The longest table a [`CpuTable`] holds: segment ends are `u32` offsets.
const MAX_TABLE_LEN: Nanos = Nanos(u32::MAX as u64);

/// Rejects a table length past [`MAX_TABLE_LEN`].
fn check_table_len(table_len: Nanos) -> Result<(), String> {
    if table_len > MAX_TABLE_LEN {
        return Err(format!(
            "table length {table_len} exceeds the {}ns a table can hold",
            MAX_TABLE_LEN.as_nanos()
        ));
    }
    Ok(())
}

impl CpuTable {
    /// Builds a core table from sorted, non-overlapping allocations. The
    /// list is consumed: the segment arrays built from it are the table.
    ///
    /// # Errors
    ///
    /// Returns a message if allocations are unsorted, overlapping, empty,
    /// extend past `table_len`, or name the reserved id `u32::MAX`; and,
    /// once those checks pass, if `table_len` is longer than `u32::MAX` ns
    /// or an allocation names a vCPU id of 65 535 or above (the table's
    /// 16-bit ids).
    pub fn new(allocations: Vec<Allocation>, table_len: Nanos) -> Result<CpuTable, String> {
        // One pass validates, finds the slice length — the shortest
        // allocation (see module docs); an empty core gets a single slice
        // covering the whole table — and counts the idle gaps, so the
        // segment arrays below are allocated at their final size. An
        // overlap (and then an id too wide for the table) is reported only
        // once every allocation passed the per-allocation checks, as
        // separate passes would.
        let mut slice_len = table_len;
        let mut n_gaps = 0usize;
        let mut overlap: Option<&Allocation> = None;
        let mut wide_id: Option<&Allocation> = None;
        let mut t = Nanos::ZERO;
        for a in &allocations {
            if a.start >= a.end {
                return Err(format!("empty allocation [{}, {})", a.start, a.end));
            }
            if a.end > table_len {
                return Err(format!(
                    "allocation [{}, {}) exceeds table length {table_len}",
                    a.start, a.end
                ));
            }
            if a.vcpu.0 >= u32::from(NO_VCPU) {
                if a.vcpu.0 == u32::MAX {
                    return Err(format!(
                        "vCPU id {} is reserved for idle segments",
                        u32::MAX
                    ));
                }
                wide_id = wide_id.or(Some(a));
            }
            if a.start < t {
                overlap = overlap.or(Some(a));
            }
            n_gaps += usize::from(a.start > t);
            slice_len = slice_len.min(a.len());
            t = a.end;
        }
        if let Some(a) = overlap {
            return Err(format!(
                "allocations overlap or unsorted at [{}, {})",
                a.start, a.end
            ));
        }
        check_table_len(table_len)?;
        if let Some(a) = wide_id {
            return Err(format!(
                "vCPU id {} at [{}, {}) is beyond a table's 16-bit ids (at most {})",
                a.vcpu.0,
                a.start,
                a.end,
                NO_VCPU - 1
            ));
        }
        let n_slices = table_len.div_ceil(slice_len) as usize;

        // Flatten into gap-free segments (idle gaps made explicit). Whether
        // an allocation is preceded by a gap is a coin toss to the branch
        // predictor, so the gap's end is always written and the cursor
        // steps over it only when the gap exists; the allocation's own
        // entry lands on top of it otherwise. Every offset fits a `u32`
        // (checked above), every id a `u16`.
        let n_segments =
            allocations.len() + n_gaps + usize::from(t < table_len || allocations.is_empty());
        let mut seg_end = vec![table_len.as_nanos() as u32; n_segments + 1];
        let mut seg_vcpu = vec![NO_VCPU; n_segments + 1];
        let mut n = 0usize;
        let mut t = Nanos::ZERO;
        for a in &allocations {
            seg_end[n] = a.start.as_nanos() as u32;
            n += usize::from(a.start > t);
            seg_end[n] = a.end.as_nanos() as u32;
            seg_vcpu[n] = a.vcpu.0 as u16;
            n += 1;
            t = a.end;
        }
        // A trailing gap (or the one segment of an empty core) is already
        // there: the arrays were filled with its end and its vCPU.
        debug_assert_eq!(n + usize::from(t < table_len || n == 0), n_segments);
        seg_end.truncate(n_segments);
        seg_vcpu.truncate(n_segments);

        // Slice index: the segment containing each slice start. Slice `k`
        // starts at `k * slice_len`, so the slices starting before a
        // segment's end are exactly the first `ceil(end / slice_len)`: each
        // segment owns one run of the index, found by one division and
        // filled without looking at a slice start. Runs are short (a
        // handful of slices), so a loop per run would mispredict its exit
        // once per segment; instead every run is written as one fixed block
        // — spilling into the next run's slots, which that run then
        // overwrites — plus a tail for the rare long run. The run that
        // reaches a block's first slice (once per `SLICE_BLOCK` slices) is
        // that block's base: the block's slices it covers are offset 0,
        // and the runs after it are offset from it. The last segment ends
        // at `table_len`, which closes the index at `n_slices`.
        const RUN: usize = 8;
        let mut block_base = vec![0u32; n_slices.div_ceil(SLICE_BLOCK)];
        let mut slice_offset = vec![0u8; n_slices + RUN];
        let (mut at, mut base, mut next_block) = (0usize, 0usize, 0usize);
        let slice_ns = slice_len.as_nanos();
        for (seg, &end) in seg_end.iter().enumerate() {
            let upto = (u64::from(end).div_ceil(slice_ns) as usize).min(n_slices);
            // At most two segments per slice (module docs): at most 128.
            let offset = u8::try_from(seg - base).expect("slice offset fits a byte");
            slice_offset[at..at + RUN].fill(offset);
            if upto > at + RUN {
                slice_offset[at + RUN..upto].fill(offset);
            }
            if upto > next_block {
                block_base[next_block / SLICE_BLOCK..upto.div_ceil(SLICE_BLOCK)].fill(seg as u32);
                slice_offset[next_block..upto].fill(0);
                next_block = upto.next_multiple_of(SLICE_BLOCK);
                base = seg;
            }
            at = upto;
        }
        slice_offset.truncate(n_slices);
        Ok(CpuTable {
            slice_len,
            block_base,
            slice_offset,
            seg_end,
            seg_vcpu,
        })
    }

    /// Builds a core table by reusing a representative core's geometry.
    ///
    /// When a core's new allocation list is positionally identical to a
    /// compiled core's and differs only in vCPU ids (a donated core whose
    /// ids moved, see [`Table::patched_from`]), the slice index and segment
    /// arrays — the expensive part of [`CpuTable::new`] — are the same
    /// structure; only `seg_vcpu` needs the ids substituted. The reuse is *checked*, not trusted: every `(start,
    /// end)` pair must match the representative's, allocation by
    /// allocation; any mismatch hands the allocations back and the caller
    /// builds the table from scratch. The result is field-for-field what
    /// [`CpuTable::new`] would produce (the slice and segment arrays depend
    /// only on interval geometry, which is equal by the check; `seg_vcpu`
    /// carries this core's ids).
    pub fn stamped_from(
        rep: &CpuTable,
        allocations: Vec<Allocation>,
        table_len: Nanos,
    ) -> Result<CpuTable, Vec<Allocation>> {
        let mut mine = allocations.iter();
        let same_interval = |a: Allocation, b: &Allocation| {
            a.start == b.start && a.end == b.end && b.vcpu.0 < u32::from(NO_VCPU)
        };
        let rep_len = rep.seg_end.last().map(|&end| Nanos(u64::from(end)));
        let geometry_matches = rep_len == Some(table_len)
            && rep
                .allocations()
                .all(|a| mine.next().is_some_and(|b| same_interval(a, b)))
            && mine.next().is_none();
        if !geometry_matches {
            return Err(allocations);
        }
        // Each allocation is exactly one reserved segment, in order;
        // substitute ids positionally.
        let mut seg_vcpu = rep.seg_vcpu.clone();
        let reserved = seg_vcpu.iter_mut().filter(|v| **v != NO_VCPU);
        for (v, a) in reserved.zip(&allocations) {
            *v = a.vcpu.0 as u16;
        }
        Ok(CpuTable {
            slice_len: rep.slice_len,
            block_base: rep.block_base.clone(),
            slice_offset: rep.slice_offset.clone(),
            seg_end: rep.seg_end.clone(),
            seg_vcpu,
        })
    }

    /// Core `core`'s table: `rep`'s geometry re-stamped when one is offered
    /// and checks out, a fresh build otherwise.
    fn compile(
        core: usize,
        allocations: Vec<Allocation>,
        table_len: Nanos,
        rep: Option<&CpuTable>,
    ) -> Result<CpuTable, String> {
        let allocations = match rep {
            Some(rep) => match CpuTable::stamped_from(rep, allocations, table_len) {
                Ok(stamped) => return Ok(stamped),
                Err(allocations) => allocations,
            },
            None => allocations,
        };
        CpuTable::new(allocations, table_len).map_err(|e| format!("core {core}: {e}"))
    }

    /// The allocations in time order: the non-idle segments, each starting
    /// where the segment before it ends.
    pub fn allocations(&self) -> impl Iterator<Item = Allocation> + '_ {
        (0..self.seg_end.len())
            .filter(|&i| self.seg_vcpu[i] != NO_VCPU)
            .map(|i| Allocation {
                start: self.segment_start(i),
                end: self.segment_end(i),
                vcpu: VcpuId(u32::from(self.seg_vcpu[i])),
            })
    }

    /// Returns the number of allocations.
    pub fn n_allocations(&self) -> usize {
        self.vcpu_ids().count()
    }

    /// The vCPU id of every allocation, in time order.
    fn vcpu_ids(&self) -> impl Iterator<Item = u32> + '_ {
        let ids = self.seg_vcpu.iter().copied().filter(|&v| v != NO_VCPU);
        ids.map(u32::from)
    }

    /// Heap bytes of this core's arrays.
    pub(crate) fn heap_bytes(&self) -> usize {
        size_of_val(&self.block_base[..])
            + size_of_val(&self.slice_offset[..])
            + size_of_val(&self.seg_end[..])
            + size_of_val(&self.seg_vcpu[..])
    }

    /// Returns this core's slice width.
    pub fn slice_len(&self) -> Nanos {
        self.slice_len
    }

    /// Returns the number of slices.
    pub fn n_slices(&self) -> usize {
        self.slice_offset.len()
    }

    /// Returns the number of segments in the flattened schedule.
    pub fn n_segments(&self) -> usize {
        self.seg_end.len()
    }

    /// O(1) lookup: the slot covering table-relative time `t`.
    ///
    /// `t` must already be reduced modulo the table length (the
    /// [`Table::lookup`] wrapper does this). The walk from the slice's
    /// segment inspects a bounded number of records: a slice overlaps at
    /// most two allocations plus the idle gaps around them.
    pub fn slot_at(&self, t: Nanos, table_len: Nanos) -> Slot {
        debug_assert!(t < table_len, "lookup time {t} not reduced mod {table_len}");
        self.segment_slot(self.segment_at(t))
    }

    /// Index of the segment containing table-relative time `t` (random
    /// access via the slice index: the slice's block base plus its offset).
    pub fn segment_at(&self, t: Nanos) -> usize {
        let slice = (t / self.slice_len).min(self.slice_offset.len() as u64 - 1) as usize;
        let base = self.block_base[slice / SLICE_BLOCK] as usize;
        let mut i = base + usize::from(self.slice_offset[slice]);
        while u64::from(self.seg_end[i]) <= t.as_nanos() {
            i += 1;
        }
        i
    }

    /// Advances a segment-index `hint` to the segment containing `t`.
    ///
    /// When `t` lies at or after the hinted segment's start this is a pure
    /// forward walk (the dispatcher's steady state: amortized O(1), no
    /// division, one contiguous array); otherwise it falls back to
    /// [`CpuTable::segment_at`].
    pub fn seek_segment(&self, hint: usize, t: Nanos) -> usize {
        let mut i = hint;
        if i >= self.seg_end.len() || t < self.segment_start(i) {
            return self.segment_at(t);
        }
        while u64::from(self.seg_end[i]) <= t.as_nanos() {
            i += 1;
        }
        i
    }

    /// Table-relative start of segment `i`.
    pub fn segment_start(&self, i: usize) -> Nanos {
        if i == 0 {
            Nanos::ZERO
        } else {
            self.segment_end(i - 1)
        }
    }

    /// Table-relative end of segment `i`.
    fn segment_end(&self, i: usize) -> Nanos {
        Nanos(u64::from(self.seg_end[i]))
    }

    /// The [`Slot`] verdict for segment `i`.
    pub fn segment_slot(&self, i: usize) -> Slot {
        let until = self.segment_end(i);
        match self.seg_vcpu[i] {
            NO_VCPU => Slot::Idle { until },
            v => Slot::Reserved {
                vcpu: VcpuId(u32::from(v)),
                until,
            },
        }
    }
}

/// Home core of a vCPU given its sorted `(core, start, end)` allocations:
/// the core with the most reserved time, ties to the lowest core id.
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

/// Entry of [`Table::home`] for an id the table does not schedule.
const NO_CORE: u32 = u32::MAX;
/// Transient entry of [`Table::home`] while placements are derived: the
/// vCPU was seen on more than one core and its pieces are yet to be listed.
const MANY_CORES: u32 = u32::MAX - 1;

/// The pieces of a vCPU reserved on more than one core (a C=D split, a
/// cluster member) — the only placements a table lists explicitly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct SplitPlacement {
    vcpu: VcpuId,
    /// All allocations of the vCPU as `(core, start, end)`, sorted by start.
    allocations: Vec<(usize, Nanos, Nanos)>,
}

/// A vCPU's worst cyclic service gap, accumulated over its pieces in start
/// order: the longest stretch without an allocation, wrapping from the last
/// piece over the table edge to the first. Pieces that touch — a split vCPU
/// handing over between cores — contribute a zero gap; a vCPU that never
/// runs is blacked out for the whole table.
#[derive(Clone, Copy, Default)]
struct Blackout {
    first_start: Nanos,
    /// Zero until a piece is met (no allocation ends at zero).
    last_end: Nanos,
    widest: Nanos,
}

impl Blackout {
    fn meet(&mut self, start: Nanos, end: Nanos) {
        if self.last_end.is_zero() {
            self.first_start = start;
        } else {
            self.widest = self.widest.max(start.saturating_sub(self.last_end));
        }
        self.last_end = end;
    }

    fn over(self, table_len: Nanos) -> Nanos {
        self.widest
            .max((table_len - self.last_end) + self.first_start)
    }
}

/// Per-vCPU placement, used for wake-up routing and second-level
/// eligibility (Sec. 6, "Efficient wake-ups"): a view over the table, which
/// stores a home core per vCPU and reads the rest off the segment arrays.
#[derive(Debug, Clone, Copy)]
pub struct VcpuPlacement<'a> {
    table: &'a Table,
    vcpu: VcpuId,
    /// The core carrying the largest share of this vCPU's reserved time —
    /// the vCPU's "home" for second-level scheduling (the "trailing core"
    /// policy degenerates to this for non-migrating vCPUs, which are the
    /// common case).
    pub home_core: usize,
    /// The listed pieces of a vCPU reserved on more than one core.
    split: Option<&'a [(usize, Nanos, Nanos)]>,
}

impl<'a> VcpuPlacement<'a> {
    /// Whether every allocation of this vCPU is on `core`.
    pub fn only_on(&self, core: usize) -> bool {
        self.split.is_none() && self.home_core == core
    }

    /// All allocations of this vCPU as `(core, start, end)`, sorted by
    /// start: the listed pieces of a split vCPU, else the vCPU's segments
    /// on its home core.
    pub fn allocations(&self) -> impl Iterator<Item = (usize, Nanos, Nanos)> + 'a {
        let (core, vcpu) = (self.home_core, self.vcpu);
        let on_home = self.split.is_none().then(|| {
            let allocs = self.table.cpus[core].allocations();
            allocs
                .filter(move |a| a.vcpu == vcpu)
                .map(move |a| (core, a.start, a.end))
        });
        let listed = self.split.unwrap_or_default().iter().copied();
        listed.chain(on_home.into_iter().flatten())
    }

    /// Worst cyclic service gap of this vCPU in a table of length
    /// `table_len`: the longest stretch without an allocation, wrapping
    /// from the last allocation over the table edge to the first. One pass:
    /// the pieces are sorted and non-overlapping (every [`Table`]
    /// constructor guarantees it).
    pub fn max_blackout(&self, table_len: Nanos) -> Nanos {
        let mut gap = Blackout::default();
        self.allocations().for_each(|(_, s, e)| gap.meet(s, e));
        gap.over(table_len)
    }
}

/// A complete Tableau scheduling table.
///
/// # Examples
///
/// ```
/// use rtsched::time::Nanos;
/// use tableau_core::table::{Allocation, Table};
/// use tableau_core::vcpu::VcpuId;
///
/// let ms = Nanos::from_millis;
/// let table = Table::new(
///     ms(10),
///     vec![vec![
///         Allocation { start: ms(0), end: ms(3), vcpu: VcpuId(0) },
///         Allocation { start: ms(5), end: ms(8), vcpu: VcpuId(1) },
///     ]],
/// )
/// .unwrap();
/// // Lookups reduce absolute time modulo the table length.
/// let slot = table.lookup(0, ms(26)); // round 2, offset 6 ms: inside [5, 8)
/// assert_eq!(slot.vcpu(), Some(VcpuId(1)));
/// let slot = table.lookup(0, ms(24)); // offset 4 ms: idle gap [3, 5)
/// assert_eq!(slot.vcpu(), None);
/// let slot = table.lookup(0, ms(21)); // offset 1 ms: inside [0, 3)
/// assert_eq!(slot.vcpu(), Some(VcpuId(0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    /// Table length (one hyperperiod).
    len: Nanos,
    /// Per-core tables, indexed by core id. `Arc`-shared so a delta splice
    /// ([`Table::patched_from`]) reuses untouched cores by reference
    /// instead of copying their slice and segment arrays.
    cpus: Vec<Arc<CpuTable>>,
    /// Home core of each vCPU, indexed by `VcpuId`; [`NO_CORE`] for an id
    /// below the table's highest that it does not schedule.
    home: Vec<u32>,
    /// The vCPUs reserved on more than one core, ascending by id — a
    /// handful per plan, none in a partitioned one. Every other vCPU's
    /// allocations are its segments on its home core.
    split: Vec<SplitPlacement>,
    /// Per-core home lists: `homed[c]` holds the vCPUs whose home core is
    /// `c`, precomputed so second-level rebuilds on a table switch never
    /// re-scan all placements.
    homed: Vec<Vec<VcpuId>>,
}

impl Table {
    /// Builds a table from per-core allocation lists.
    ///
    /// # Errors
    ///
    /// Propagates per-core structural errors (among them the two limits of
    /// the compact arrays: a table longer than `u32::MAX` ns, a vCPU id of
    /// 65 535 or above), and rejects a vCPU whose allocations overlap in
    /// time across cores (it cannot run on two cores at once).
    pub fn new(len: Nanos, per_core: Vec<Vec<Allocation>>) -> Result<Table, String> {
        let mut cpus: Vec<Arc<CpuTable>> = Vec::with_capacity(per_core.len());
        for (core, allocs) in per_core.into_iter().enumerate() {
            cpus.push(Arc::new(CpuTable::compile(core, allocs, len, None)?));
        }
        // Every core checked it; a table with no cores is held to it too.
        check_table_len(len)?;
        let all_cores: Vec<usize> = (0..cpus.len()).collect();
        let (mut home, mut split) = (Vec::new(), Vec::new());
        Table::place(&cpus, &all_cores, |_| true, &mut home, &mut split)?;
        Ok(Table::with_home_lists(len, cpus, home, split))
    }

    /// Like [`Table::new`], but starting from a previous table and replacing
    /// only the cores listed in `updates`; every core not listed keeps its
    /// compiled table by reference.
    ///
    /// This is the delta-replanning splice: untouched cores carry exactly
    /// the same `(vcpu, start, end)` triples as before, so their slice
    /// tables and the placement of the vCPUs on them are reused wholesale
    /// instead of being rebuilt from the full allocation set. Updated cores
    /// are validated by [`CpuTable::new`] as usual — or, when an update
    /// only renames the vCPUs of the core it replaces (a leave in the
    /// middle of the host shifts every later id down), by
    /// [`CpuTable::stamped_from`] against that core — and every vCPU that
    /// gained or lost an allocation on an updated core is re-checked for
    /// cross-core overlap and re-homed — so the result is field-identical
    /// to what [`Table::new`] would build from the combined allocation
    /// lists.
    pub fn patched_from(
        prev: &Table,
        updates: Vec<(usize, Vec<Allocation>)>,
    ) -> Result<Table, String> {
        let len = prev.len;
        let mut cpus = prev.cpus.clone();
        let mut updated = vec![false; cpus.len()];
        for &(core, _) in &updates {
            if core >= cpus.len() {
                return Err(format!("update for core {core} out of range"));
            }
            updated[core] = true;
        }
        for (core, allocs) in updates {
            // A core that keeps its geometry and changes only its ids (a
            // clean bin relabeled by the delta planner, a dedicated core)
            // is re-stamped from its previous self; the offer is checked
            // allocation by allocation and a rebuilt core fails it at the
            // first one that moved.
            let rep = Some(&*prev.cpus[core]);
            cpus[core] = Arc::new(CpuTable::compile(core, allocs, len, rep)?);
        }

        // vCPUs whose allocation set changes: everything previously on an
        // updated core, plus everything now placed there. Their placement
        // is forgotten and derived again from the cores they are on.
        let mut home = prev.home.clone();
        let mut is_touched = vec![false; home.len()];
        let mut cores: Vec<usize> = (0..cpus.len()).filter(|&c| updated[c]).collect();
        for &core in &cores {
            for v in prev.cpus[core].vcpu_ids().chain(cpus[core].vcpu_ids()) {
                let v = v as usize;
                if v >= home.len() {
                    home.resize(v + 1, NO_CORE);
                    is_touched.resize(v + 1, false);
                }
                is_touched[v] = true;
                home[v] = NO_CORE;
            }
        }
        // What a touched vCPU keeps on a core the splice leaves alone is
        // read from that core again. The pieces `prev` lists for it there
        // are *checked*, not trusted: a placement naming a segment its core
        // does not carry must not survive into the new table.
        let n_updated = cores.len();
        for v in (0..prev.home.len()).filter(|&v| is_touched[v]) {
            let vcpu = VcpuId(v as u32);
            let Some(p) = prev.placement(vcpu) else {
                continue;
            };
            let Some(pieces) = p.split else {
                if !updated[p.home_core] {
                    cores.push(p.home_core);
                }
                continue;
            };
            for &(core, start, end) in pieces.iter().filter(|piece| !updated[piece.0]) {
                let cpu = &cpus[core];
                let at = cpu.segment_at(start.min(len - Nanos(1)));
                let reserved = Slot::Reserved { vcpu, until: end };
                if cpu.segment_start(at) != start || cpu.segment_slot(at) != reserved {
                    debug_assert!(false, "stale placement for vCPU v{v} survived the splice");
                    return Err(format!("stale placement for vCPU v{v} survived the splice"));
                }
                cores.push(core);
            }
        }
        if cores.len() > n_updated {
            cores.sort_unstable();
            cores.dedup();
        }
        let mut split: Vec<SplitPlacement> = prev.split.clone();
        split.retain(|s| !is_touched[s.vcpu.0 as usize]);
        let touched = |v: u32| is_touched[v as usize];
        Table::place(&cpus, &cores, touched, &mut home, &mut split)?;
        Ok(Table::with_home_lists(len, cpus, home, split))
    }

    /// Derives the placement of the `wanted` vCPUs from the segments of
    /// `cores` (ascending; every core a wanted vCPU is on): its home core
    /// into `home`, and into `split` its pieces if it is on more than one —
    /// ordered by start, checked for a vCPU reserved on two cores at once.
    /// On entry `home` holds [`NO_CORE`] for every wanted id it covers.
    fn place(
        cpus: &[Arc<CpuTable>],
        cores: &[usize],
        wanted: impl Fn(u32) -> bool,
        home: &mut Vec<u32>,
        split: &mut Vec<SplitPlacement>,
    ) -> Result<(), String> {
        // A vCPU seen on one core is homed there, and that is all the table
        // records of it: no list, no sort, no per-core vote.
        for &core in cores {
            for v in cpus[core].vcpu_ids().filter(|&v| wanted(v)) {
                if v as usize >= home.len() {
                    home.resize(v as usize + 1, NO_CORE);
                }
                let h = &mut home[v as usize];
                if *h == NO_CORE {
                    *h = core as u32;
                } else if *h != core as u32 {
                    *h = MANY_CORES;
                }
            }
        }
        let is_split = |home: &[u32], v: VcpuId| home[v.0 as usize] == MANY_CORES;
        let found = split.len();
        let ids = (0..home.len() as u32).map(VcpuId);
        split.extend(
            ids.filter(|&v| is_split(home, v))
                .map(|vcpu| SplitPlacement {
                    vcpu,
                    allocations: Vec::new(),
                }),
        );
        if split.len() == found {
            return Ok(());
        }
        // The rest are listed: pieces gathered in core order, stable-sorted
        // by start, adjacent pieces compared, home core voted by time.
        let listed = &mut split[found..];
        for &core in cores {
            for a in cpus[core].allocations().filter(|a| is_split(home, a.vcpu)) {
                let at = listed.partition_point(|s| s.vcpu < a.vcpu);
                listed[at].allocations.push((core, a.start, a.end));
            }
        }
        for s in listed {
            s.allocations.sort_by_key(|&(_, start, _)| start);
            if let Some(w) = s.allocations.windows(2).find(|w| w[0].2 > w[1].1) {
                return Err(format!(
                    "vCPU {} has overlapping allocations at {}",
                    s.vcpu, w[1].1
                ));
            }
            home[s.vcpu.0 as usize] = home_of(&s.allocations) as u32;
        }
        split.sort_by_key(|s| s.vcpu);
        Ok(())
    }

    /// Shared tail of the constructors: `home` sized to the highest id with
    /// an allocation, and the per-core home lists read off it.
    fn with_home_lists(
        len: Nanos,
        cpus: Vec<Arc<CpuTable>>,
        mut home: Vec<u32>,
        split: Vec<SplitPlacement>,
    ) -> Table {
        while home.last() == Some(&NO_CORE) {
            home.pop();
        }
        let mut homed = vec![Vec::new(); cpus.len()];
        for (v, &core) in home.iter().enumerate() {
            if core != NO_CORE {
                homed[core as usize].push(VcpuId(v as u32));
            }
        }
        Table {
            len,
            cpus,
            home,
            split,
            homed,
        }
    }

    /// Returns the table length (one hyperperiod).
    pub fn len(&self) -> Nanos {
        self.len
    }

    /// Returns the number of cores.
    pub fn n_cores(&self) -> usize {
        self.cpus.len()
    }

    /// Returns the per-core table of `core`.
    pub fn cpu(&self, core: usize) -> &CpuTable {
        &self.cpus[core]
    }

    /// Heap bytes of the arrays this table holds — every distinct core
    /// table once (a splice holds its clean cores by reference), the
    /// home-core array, the split lists, the home lists: the number to hold
    /// against `binary::encoded_size`.
    pub fn resident_bytes(&self) -> usize {
        let first_seen = |(i, cpu): (usize, &Arc<CpuTable>)| {
            let seen = self.cpus[..i].iter().any(|c| Arc::ptr_eq(c, cpu));
            (!seen).then(|| cpu.heap_bytes())
        };
        let cores: usize = self.cpus.iter().enumerate().filter_map(first_seen).sum();
        let split = self.split.iter().map(|s| size_of_val(&s.allocations[..]));
        let homed = self.homed.iter().map(|l| size_of_val(&l[..]));
        cores + size_of_val(&self.home[..]) + split.sum::<usize>() + homed.sum::<usize>()
    }

    /// O(1) dispatch lookup for `core` at absolute time `now`.
    ///
    /// The returned [`Slot`]'s `until` is table-relative; use
    /// [`Table::slot_end_abs`] for the absolute expiry.
    pub fn lookup(&self, core: usize, now: Nanos) -> Slot {
        let t = now % self.len;
        self.cpus[core].slot_at(t, self.len)
    }

    /// Absolute time at which the slot covering `now` on `core` expires.
    pub fn slot_end_abs(&self, core: usize, now: Nanos) -> Nanos {
        let t = now % self.len;
        let slot = self.cpus[core].slot_at(t, self.len);
        now + (slot.until() - t)
    }

    /// Per-vCPU placement (wake-up routing, home cores), as a view.
    ///
    /// Returns `None` for a vCPU with no allocations in this table.
    pub fn placement(&self, vcpu: VcpuId) -> Option<VcpuPlacement<'_>> {
        let home = *self.home.get(vcpu.0 as usize)?;
        let listed = self.split.binary_search_by_key(&vcpu, |s| s.vcpu).ok();
        (home != NO_CORE).then(|| VcpuPlacement {
            table: self,
            vcpu,
            home_core: home as usize,
            split: listed.map(|i| &self.split[i].allocations[..]),
        })
    }

    /// Worst cyclic service gap ([`VcpuPlacement::max_blackout`]) of every
    /// vCPU reserved on `cores`, indexed by id — the whole table length for
    /// an id the table does not schedule. One pass over each core's
    /// allocations with per-vCPU accumulators: a vCPU on one core meets its
    /// pieces in start order there; the listed few are answered from their
    /// lists.
    pub(crate) fn max_blackouts(&self, cores: impl IntoIterator<Item = usize>) -> Vec<Nanos> {
        let mut gaps = vec![Blackout::default(); self.home.len()];
        for c in cores {
            let met = |a: Allocation| gaps[a.vcpu.0 as usize].meet(a.start, a.end);
            self.cpus[c].allocations().for_each(met);
        }
        let mut out: Vec<Nanos> = gaps.iter().map(|gap| gap.over(self.len)).collect();
        for s in &self.split {
            let p = self.placement(s.vcpu).expect("a listed vCPU is placed");
            out[s.vcpu.0 as usize] = p.max_blackout(self.len);
        }
        out
    }

    /// The wake-up IPI target for `vcpu` at absolute time `now` (Sec. 6):
    /// the core where the vCPU currently has an allocation, or the core of
    /// its *next* upcoming allocation (its home core for service).
    pub fn wakeup_target(&self, vcpu: VcpuId, now: Nanos) -> Option<usize> {
        self.wakeup_route(vcpu, now).map(|(core, _)| core)
    }

    /// [`Table::wakeup_target`] together with whether the vCPU's slot on
    /// that core is *active* at `now` (it covers `now`) rather than
    /// upcoming.
    pub(crate) fn wakeup_route(&self, vcpu: VcpuId, now: Nanos) -> Option<(usize, bool)> {
        let p = self.placement(vcpu)?;
        let t = now % self.len;
        let Some(pieces) = p.split else {
            // Every allocation is on the home core: one slot lookup.
            let active = self.cpus[p.home_core].slot_at(t, self.len).vcpu() == Some(vcpu);
            return Some((p.home_core, active));
        };
        // Current allocation?
        for &(core, s, e) in pieces {
            if s <= t && t < e {
                return Some((core, true));
            }
        }
        // Next allocation in this round, else the first of the next round.
        let next = pieces.iter().find(|&&(_, s, _)| s > t).or(pieces.first());
        next.map(|&(core, _, _)| (core, false))
    }

    /// vCPU ids with at least one allocation whose home core is `core`
    /// (precomputed at table build time; ascending by id).
    pub fn vcpus_homed_on(&self, core: usize) -> &[VcpuId] {
        &self.homed[core]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn alloc(s: u64, e: u64, v: u32) -> Allocation {
        Allocation {
            start: ms(s),
            end: ms(e),
            vcpu: VcpuId(v),
        }
    }

    fn table_1core() -> Table {
        Table::new(
            ms(10),
            vec![vec![alloc(0, 2, 0), alloc(2, 5, 1), alloc(7, 9, 2)]],
        )
        .unwrap()
    }

    #[test]
    fn lookup_inside_allocations() {
        let t = table_1core();
        assert_eq!(
            t.lookup(0, ms(0)),
            Slot::Reserved {
                vcpu: VcpuId(0),
                until: ms(2)
            }
        );
        assert_eq!(
            t.lookup(0, ms(3)),
            Slot::Reserved {
                vcpu: VcpuId(1),
                until: ms(5)
            }
        );
        assert_eq!(t.lookup(0, ms(5)), Slot::Idle { until: ms(7) });
        assert_eq!(t.lookup(0, ms(9)), Slot::Idle { until: ms(10) });
    }

    #[test]
    fn lookup_wraps_modulo_table_length() {
        let t = table_1core();
        assert_eq!(t.lookup(0, ms(23)).vcpu(), Some(VcpuId(1)));
        assert_eq!(t.slot_end_abs(0, ms(23)), ms(25));
        assert_eq!(t.slot_end_abs(0, ms(29)), ms(30));
    }

    #[test]
    fn slice_len_is_shortest_allocation() {
        let t = table_1core();
        assert_eq!(t.cpu(0).slice_len(), ms(2));
        assert_eq!(t.cpu(0).n_slices(), 5);
    }

    #[test]
    fn empty_core_is_always_idle() {
        let t = Table::new(ms(10), vec![vec![], vec![alloc(0, 10, 0)]]).unwrap();
        assert_eq!(t.lookup(0, ms(4)), Slot::Idle { until: ms(10) });
        assert_eq!(t.lookup(1, ms(4)).vcpu(), Some(VcpuId(0)));
    }

    #[test]
    fn exhaustive_lookup_matches_linear_scan() {
        // Property-style check at 100 us granularity: the O(1) slice lookup
        // agrees with a naive scan over allocations.
        let allocs = vec![
            alloc(0, 1, 0),
            alloc(1, 3, 1),
            alloc(4, 8, 2),
            alloc(9, 10, 3),
        ];
        let t = Table::new(ms(10), vec![allocs.clone()]).unwrap();
        let mut now = Nanos::ZERO;
        while now < ms(10) {
            let want = allocs.iter().find(|a| a.contains(now));
            assert_eq!(
                t.lookup(0, now).vcpu(),
                want.map(|a| a.vcpu),
                "mismatch at {now}"
            );
            now += Nanos::from_micros(100);
        }
    }

    #[test]
    fn overlapping_allocations_rejected() {
        assert!(Table::new(ms(10), vec![vec![alloc(0, 3, 0), alloc(2, 5, 1)]]).is_err());
    }

    #[test]
    fn cross_core_vcpu_overlap_rejected() {
        let r = Table::new(ms(10), vec![vec![alloc(0, 3, 0)], vec![alloc(2, 5, 0)]]);
        assert!(r.is_err());
    }

    #[test]
    fn cross_core_vcpu_adjacent_ok() {
        let t = Table::new(ms(10), vec![vec![alloc(0, 3, 0)], vec![alloc(3, 5, 0)]]).unwrap();
        let p = t.placement(VcpuId(0)).unwrap();
        assert_eq!(p.allocations().count(), 2);
        assert!(!p.only_on(0) && !p.only_on(1));
        // Home core is the one with more time.
        assert_eq!(p.home_core, 0);
    }

    #[test]
    fn wakeup_targets() {
        let t = Table::new(ms(10), vec![vec![alloc(0, 2, 0)], vec![alloc(5, 9, 1)]]).unwrap();
        // During its allocation.
        assert_eq!(t.wakeup_target(VcpuId(0), ms(1)), Some(0));
        // After it: next allocation is next round, still core 0.
        assert_eq!(t.wakeup_target(VcpuId(0), ms(6)), Some(0));
        // Before vCPU 1's slot: upcoming allocation on core 1.
        assert_eq!(t.wakeup_target(VcpuId(1), ms(1)), Some(1));
        // Unknown vCPU.
        assert_eq!(t.wakeup_target(VcpuId(7), ms(1)), None);
    }

    #[test]
    fn homed_vcpus() {
        let t = Table::new(
            ms(10),
            vec![vec![alloc(0, 2, 0), alloc(2, 4, 1)], vec![alloc(0, 5, 2)]],
        )
        .unwrap();
        assert_eq!(t.vcpus_homed_on(0), vec![VcpuId(0), VcpuId(1)]);
        assert_eq!(t.vcpus_homed_on(1), vec![VcpuId(2)]);
    }

    #[test]
    fn allocation_past_table_end_rejected() {
        assert!(Table::new(ms(10), vec![vec![alloc(8, 12, 0)]]).is_err());
    }

    #[test]
    fn stamped_cpu_table_matches_fresh_build() {
        // Two cores with positionally identical allocations, different ids:
        // the stamped build must be field-for-field the fresh build.
        let a0 = vec![alloc(0, 2, 0), alloc(2, 5, 1), alloc(7, 9, 2)];
        let a1 = vec![alloc(0, 2, 10), alloc(2, 5, 11), alloc(7, 9, 12)];
        let rep = CpuTable::new(a0, ms(10)).unwrap();
        let stamped = CpuTable::stamped_from(&rep, a1.clone(), ms(10)).unwrap();
        let fresh = CpuTable::new(a1, ms(10)).unwrap();
        assert_eq!(stamped, fresh);
    }

    #[test]
    fn stamped_cpu_table_rejects_geometry_mismatch() {
        let rep = CpuTable::new(vec![alloc(0, 2, 0)], ms(10)).unwrap();
        // Different interval.
        assert!(CpuTable::stamped_from(&rep, vec![alloc(0, 3, 5)], ms(10)).is_err());
        // Different count.
        assert!(CpuTable::stamped_from(&rep, vec![], ms(10)).is_err());
        // Different table length.
        assert!(CpuTable::stamped_from(&rep, vec![alloc(0, 2, 5)], ms(20)).is_err());
    }

    #[test]
    fn patched_table_matches_fresh_build() {
        let prev = Table::new(
            ms(10),
            vec![vec![alloc(0, 2, 0), alloc(5, 8, 1)], vec![alloc(0, 4, 2)]],
        )
        .unwrap();
        // Replace core 1's schedule and introduce a new vCPU 3.
        let patched =
            Table::patched_from(&prev, vec![(1, vec![alloc(0, 3, 2), alloc(4, 7, 3)])]).unwrap();
        let fresh = Table::new(
            ms(10),
            vec![
                vec![alloc(0, 2, 0), alloc(5, 8, 1)],
                vec![alloc(0, 3, 2), alloc(4, 7, 3)],
            ],
        )
        .unwrap();
        assert_eq!(patched, fresh);
    }

    #[test]
    fn patched_table_detects_cross_core_overlap() {
        // vCPU 0 lives on core 0 at [0, 3); patching core 1 to also reserve
        // it at [2, 5) must be rejected like a fresh build would.
        let prev = Table::new(ms(10), vec![vec![alloc(0, 3, 0)], vec![alloc(5, 7, 1)]]).unwrap();
        assert!(Table::patched_from(&prev, vec![(1, vec![alloc(2, 5, 0)])]).is_err());
        // The same patch with a non-overlapping interval is fine, and the
        // migrating vCPU is re-homed onto the core with more time.
        let ok = Table::patched_from(&prev, vec![(1, vec![alloc(3, 9, 0)])]).unwrap();
        assert_eq!(ok.placement(VcpuId(0)).unwrap().home_core, 1);
    }

    #[test]
    fn patched_table_drops_trailing_empty_ids() {
        let prev = Table::new(ms(10), vec![vec![alloc(0, 3, 0)], vec![alloc(0, 4, 5)]]).unwrap();
        let patched = Table::patched_from(&prev, vec![(1, vec![alloc(0, 4, 1)])]).unwrap();
        let fresh = Table::new(ms(10), vec![vec![alloc(0, 3, 0)], vec![alloc(0, 4, 1)]]).unwrap();
        assert_eq!(patched, fresh);
        assert!(patched.placement(VcpuId(5)).is_none());
        assert_eq!(patched.vcpus_homed_on(1), vec![VcpuId(1)]);
    }

    /// A table whose placement metadata bogusly claims vCPU 1 also lives
    /// on core 0 — the desync the checked splice must catch when a
    /// leave-of-last empties vCPU 1's real core.
    fn desynced_table() -> Table {
        let mut prev =
            Table::new(ms(10), vec![vec![alloc(0, 3, 0)], vec![alloc(0, 4, 1)]]).unwrap();
        prev.split.push(SplitPlacement {
            vcpu: VcpuId(1),
            allocations: vec![(1, ms(0), ms(4)), (0, ms(8), ms(9))],
        });
        prev
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale placement for vCPU v1")]
    fn stale_placement_after_splice_panics_in_debug() {
        let _ = Table::patched_from(&desynced_table(), vec![(1, vec![])]);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn stale_placement_after_splice_errors_in_release() {
        let err = Table::patched_from(&desynced_table(), vec![(1, vec![])]).unwrap_err();
        assert!(err.starts_with("stale placement"), "{err}");
    }

    #[test]
    fn patched_table_rejects_out_of_range_core() {
        let prev = Table::new(ms(10), vec![vec![alloc(0, 3, 0)]]).unwrap();
        assert!(Table::patched_from(&prev, vec![(1, vec![alloc(0, 2, 1)])]).is_err());
    }

    #[test]
    fn a_table_longer_than_32_bit_offsets_is_an_error() {
        let alloc = |s: u64, e: u64| Allocation {
            start: Nanos(s),
            end: Nanos(e),
            vcpu: VcpuId(0),
        };
        let edge = Nanos(u64::from(u32::MAX));
        // At the limit a table builds and answers to its last nanosecond.
        let t = Table::new(edge, vec![vec![alloc(0, 1 << 31)]]).unwrap();
        assert_eq!(t.lookup(0, edge - Nanos(1)), Slot::Idle { until: edge });
        // One past it, an error before anything is reserved: a 1 ns
        // allocation in a 2^40 ns table would otherwise index 2^40 slices.
        for len in [edge + Nanos(1), Nanos(1 << 40)] {
            let err = Table::new(len, vec![vec![alloc(0, 1)]]).unwrap_err();
            assert!(err.starts_with("core 0: table length"), "{err}");
            let err = CpuTable::new(vec![alloc(0, 1)], len).unwrap_err();
            assert!(err.starts_with("table length"), "{err}");
            // A table with no cores is held to it too.
            let err = Table::new(len, vec![]).unwrap_err();
            assert!(err.starts_with("table length"), "{err}");
        }
        // The checks that came before it still answer first.
        let err = Table::new(Nanos(1 << 40), vec![vec![alloc(5, 5)]]).unwrap_err();
        assert!(err.starts_with("core 0: empty allocation"), "{err}");
    }

    #[test]
    fn a_vcpu_id_past_16_bits_is_an_error() {
        let widest = u32::from(NO_VCPU) - 1;
        let t = Table::new(ms(10), vec![vec![alloc(0, 5, widest)]]).unwrap();
        assert_eq!(t.lookup(0, ms(1)).vcpu(), Some(VcpuId(widest)));
        assert_eq!(t.placement(VcpuId(widest)).unwrap().home_core, 0);
        for id in [u32::from(NO_VCPU), 1 << 16, u32::MAX - 1] {
            let err = Table::new(ms(10), vec![vec![alloc(0, 5, id)]]).unwrap_err();
            assert!(err.contains(&format!("vCPU id {id} at")), "{err}");
            assert!(err.contains("16-bit"), "{err}");
        }
        // The reserved id keeps its text, and every check that came before
        // the limit still answers first: a bad allocation after the wide
        // id, an overlap anywhere.
        let err = Table::new(ms(10), vec![vec![alloc(0, 5, u32::MAX)]]).unwrap_err();
        assert_eq!(
            err,
            "core 0: vCPU id 4294967295 is reserved for idle segments"
        );
        let wide_then_empty = vec![vec![alloc(0, 5, 1 << 20), alloc(6, 6, 0)]];
        let err = Table::new(ms(10), wide_then_empty).unwrap_err();
        assert!(err.starts_with("core 0: empty allocation"), "{err}");
        let wide_then_overlap = vec![vec![alloc(0, 5, 1 << 20), alloc(4, 6, 0)]];
        let err = Table::new(ms(10), wide_then_overlap).unwrap_err();
        assert!(err.starts_with("core 0: allocations overlap"), "{err}");
        // A core re-stamped from its previous self with a wide id falls
        // back to the build, which refuses.
        let prev = Table::new(ms(10), vec![vec![alloc(0, 5, 0)]]).unwrap();
        let err = Table::patched_from(&prev, vec![(0, vec![alloc(0, 5, 1 << 20)])]).unwrap_err();
        assert!(err.contains("16-bit"), "{err}");
    }

    #[test]
    fn slot_until_and_vcpu_accessors() {
        let s = Slot::Reserved {
            vcpu: VcpuId(3),
            until: ms(4),
        };
        assert_eq!(s.until(), ms(4));
        assert_eq!(s.vcpu(), Some(VcpuId(3)));
        let i = Slot::Idle { until: ms(9) };
        assert_eq!(i.until(), ms(9));
        assert_eq!(i.vcpu(), None);
    }
}
