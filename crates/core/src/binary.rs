//! The compiled binary table format (the "hypercall payload").
//!
//! In the Xen implementation the userspace planner compiles tables into a
//! binary format and pushes them to the hypervisor via a hypercall; the
//! dispatcher uses the buffer directly. This module reproduces that format:
//! a deterministic little-endian layout with a magic/version header,
//! per-CPU allocation arrays, and the per-CPU slice parameters needed to
//! rebuild the O(1) lookup index. Its size is what Fig. 4 of the paper
//! measures ("Generated table size for a varying number of VMs").
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   u32  = 0x54424C4F ("TBLO")
//! version u32  = 1
//! n_cpus  u32
//! len     u64  table length in ns
//! per cpu:
//!   n_allocs  u32
//!   slice_len u64
//!   n_slices  u32
//!   allocs: n_allocs * { start u64, end u64, vcpu u32 }
//!   slices: n_slices * { first u32 }
//! ```
//!
//! The slice arrays are redundant with the allocations (the decoder could
//! rebuild them), but the real system ships them precomputed so the
//! hypervisor does no work on the upload path — and their bytes are part of
//! the memory footprint the paper reports, so the format keeps them.
//!
//! The format is the paper's, not a dump of [`Table`]'s memory: the encoder
//! reads `CpuTable::allocations` (a view over the segment arrays) and
//! re-derives the allocation-indexed slice records. In memory a table is
//! about a third of this size (`Table::resident_bytes`): 6 B per segment
//! against 20 B per allocation, about 1 B per slice against 4 B (a `u8`
//! offset per slice under a `u32` base per 64 slices). The narrow widths
//! are the memory layout's, not the format's: a payload whose table is
//! longer than `u32::MAX` ns or names a vCPU id of 65 535 or above decodes
//! to [`DecodeError::Invalid`], as `Table::new` refuses to build it.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use rtsched::time::Nanos;

use crate::table::{Allocation, Table};
use crate::vcpu::VcpuId;

/// Format magic: "TBLO".
pub const MAGIC: u32 = 0x5442_4C4F;

/// Current format version.
pub const VERSION: u32 = 1;

/// Plan-payload version: a table plus the per-vCPU capped bitmap and the
/// second-level epoch — everything the hypervisor-side dispatcher needs.
pub const PLAN_VERSION: u32 = 2;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer too short for the declared contents.
    Truncated,
    /// Wrong magic number.
    BadMagic(u32),
    /// Unsupported version.
    BadVersion(u32),
    /// Structurally invalid table contents.
    Invalid(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "buffer truncated"),
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::Invalid(e) => write!(f, "invalid table: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serializes a table into the hypercall wire format.
pub fn encode(table: &Table) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_size(table));
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(table.n_cores() as u32);
    buf.put_u64_le(table.len().as_nanos());
    for core in 0..table.n_cores() {
        let cpu = table.cpu(core);
        buf.put_u32_le(cpu.n_allocations() as u32);
        buf.put_u64_le(cpu.slice_len().as_nanos());
        buf.put_u32_le(cpu.n_slices() as u32);
        for a in cpu.allocations() {
            buf.put_u64_le(a.start.as_nanos());
            buf.put_u64_le(a.end.as_nanos());
            buf.put_u32_le(a.vcpu.0);
        }
        // Slice records: the first allocation ending after each slice
        // start (`u32::MAX` past the last one) — what the hypervisor-side
        // index would contain. Slice starts ascend, so one cursor over the
        // allocations answers them all.
        let mut ends = cpu.allocations().map(|a| a.end).enumerate().peekable();
        for s in 0..cpu.n_slices() {
            let slice_start = cpu.slice_len() * s as u64;
            while ends.next_if(|&(_, end)| end <= slice_start).is_some() {}
            buf.put_u32_le(ends.peek().map_or(u32::MAX, |&(first, _)| first as u32));
        }
    }
    buf.freeze()
}

/// The exact encoded size of `table` in bytes (Fig. 4's metric).
pub fn encoded_size(table: &Table) -> usize {
    let mut size = 4 + 4 + 4 + 8; // header
    for core in 0..table.n_cores() {
        let cpu = table.cpu(core);
        size += 4 + 8 + 4; // per-cpu header
        size += cpu.n_allocations() * (8 + 8 + 4);
        size += cpu.n_slices() * 4;
    }
    size
}

/// Deserializes a table from the wire format.
///
/// Nothing in the payload is trusted: every count is bounded by the bytes
/// that remain before anything is reserved for it, and the shipped slice
/// geometry and slice records are validated against the index recomputed
/// from the allocations — the hypervisor must not follow corrupt indices.
/// A payload that decodes re-encodes to the same bytes.
///
/// A bare table carries no vCPU count, so vCPU ids are bounded by the
/// payload itself: an id must be below the payload's length in bits. Ids
/// are dense in every table the planner produces (a few dozen bytes of
/// payload per vCPU), so the bound only rejects ids no real table has; it
/// keeps the per-vCPU placement array proportional to the payload.
/// [`decode_plan`] payloads carry `n_vcpus` and are held to that instead.
pub fn decode(buf: Bytes) -> Result<Table, DecodeError> {
    let id_bound = buf.remaining().saturating_mul(8);
    decode_table(buf, id_bound)
}

/// [`decode`] with vCPU ids required to be below `id_bound`.
fn decode_table(mut buf: Bytes, id_bound: usize) -> Result<Table, DecodeError> {
    fn need(buf: &Bytes, n: usize) -> Result<(), DecodeError> {
        if buf.remaining() < n {
            Err(DecodeError::Truncated)
        } else {
            Ok(())
        }
    }
    let invalid = |what: &str| Err(DecodeError::Invalid(what.to_string()));

    need(&buf, 20)?;
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let n_cpus = buf.get_u32_le() as usize;
    let len = buf.get_u64_le();
    // Every CPU record starts with a 16-byte header.
    if n_cpus > buf.remaining() / 16 {
        return Err(DecodeError::Truncated);
    }
    if len == 0 {
        return invalid("zero table length");
    }

    let mut per_core = Vec::with_capacity(n_cpus);
    for _ in 0..n_cpus {
        need(&buf, 16)?;
        let n_allocs = buf.get_u32_le() as usize;
        let slice_len = buf.get_u64_le();
        let n_slices = buf.get_u32_le() as usize;
        // Two u32 counts: the byte total cannot overflow a u64.
        if n_allocs as u64 * 20 + n_slices as u64 * 4 > buf.remaining() as u64 {
            return Err(DecodeError::Truncated);
        }
        let mut allocs = Vec::with_capacity(n_allocs);
        let mut shortest = len;
        for _ in 0..n_allocs {
            let (start, end) = (buf.get_u64_le(), buf.get_u64_le());
            let vcpu = buf.get_u32_le();
            if start >= end || end > len {
                return invalid("allocation is empty or exceeds the table length");
            }
            if vcpu as usize >= id_bound {
                return invalid("vCPU id beyond what the payload can describe");
            }
            shortest = shortest.min(end - start);
            allocs.push(Allocation {
                start: Nanos(start),
                end: Nanos(end),
                vcpu: VcpuId(vcpu),
            });
        }
        // The index is rebuilt from the allocations; the shipped geometry
        // must be the one the rebuild arrives at (which also bounds the
        // rebuilt index by the `n_slices` records the payload holds).
        if slice_len != shortest || n_slices as u64 != len.div_ceil(shortest) {
            return invalid("slice geometry does not match the allocations");
        }
        // Slice `s` starts at `s * slice_len` and records the first
        // allocation ending after that, so allocation `i` owns the run of
        // slices below `ceil(end_i / slice_len)` that no earlier one owns,
        // and the slices past the last allocation record "none".
        let records = &buf.chunk()[..n_slices * 4];
        let run_is = |from: usize, to: usize, first: u32| {
            let run = records[from * 4..to * 4].chunks_exact(4);
            run.fold(true, |ok, r| ok & (r == first.to_le_bytes()))
        };
        let (mut at, mut ok) = (0, true);
        for (i, a) in allocs.iter().enumerate() {
            // Unsorted allocations (rejected below) must not run backwards.
            let upto = (a.end.as_nanos().div_ceil(shortest) as usize).max(at);
            ok &= run_is(at, upto, i as u32);
            at = upto;
        }
        if !(ok && run_is(at, n_slices, u32::MAX)) {
            return invalid("slice record does not match the allocations");
        }
        buf.advance(n_slices * 4);
        per_core.push(allocs);
    }
    if buf.remaining() != 0 {
        return invalid("trailing bytes");
    }
    Table::new(Nanos(len), per_core).map_err(DecodeError::Invalid)
}

/// A decoded plan payload: everything the dispatcher needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanPayload {
    /// The dispatch table.
    pub table: Table,
    /// Per-vCPU capped flags (indexed by vCPU id; missing ids are capped).
    pub capped: Vec<bool>,
    /// Second-level epoch length.
    pub l2_epoch: Nanos,
}

/// Serializes a complete plan payload (version [`PLAN_VERSION`]): header,
/// second-level epoch, capped bitmap, then the table in the v1 layout.
///
/// This is the full "hypercall" a planner daemon would push: enough to
/// construct a [`crate::dispatch::Dispatcher`] on the receiving side with
/// no other channel.
pub fn encode_plan(plan: &crate::planner::Plan, l2_epoch: Nanos) -> Bytes {
    let n_vcpus = plan
        .params
        .iter()
        .map(|p| p.vcpu.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut capped_bits = vec![0u8; n_vcpus.div_ceil(8)];
    for p in &plan.params {
        if p.capped {
            capped_bits[p.vcpu.0 as usize / 8] |= 1 << (p.vcpu.0 % 8);
        }
    }
    let table_bytes = encode(&plan.table);
    let mut buf = BytesMut::with_capacity(24 + capped_bits.len() + table_bytes.len());
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(PLAN_VERSION);
    buf.put_u64_le(l2_epoch.as_nanos());
    buf.put_u32_le(n_vcpus as u32);
    buf.put_slice(&capped_bits);
    buf.put_slice(&table_bytes);
    buf.freeze()
}

/// Deserializes a plan payload produced by [`encode_plan`]. The table is
/// validated as in [`decode`], with vCPU ids required to be below the
/// payload's `n_vcpus`.
pub fn decode_plan(mut buf: Bytes) -> Result<PlanPayload, DecodeError> {
    if buf.remaining() < 20 {
        return Err(DecodeError::Truncated);
    }
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let version = buf.get_u32_le();
    if version != PLAN_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let l2_epoch = Nanos(buf.get_u64_le());
    let n_vcpus = buf.get_u32_le() as usize;
    let n_bytes = n_vcpus.div_ceil(8);
    if buf.remaining() < n_bytes {
        return Err(DecodeError::Truncated);
    }
    let mut capped = Vec::with_capacity(n_vcpus);
    let bits = buf.copy_to_bytes(n_bytes);
    for v in 0..n_vcpus {
        capped.push(bits[v / 8] & (1 << (v % 8)) != 0);
    }
    let padded = n_vcpus % 8;
    if padded != 0 && bits[n_bytes - 1] >> padded != 0 {
        return Err(DecodeError::Invalid(
            "capped bitmap has bits set past n_vcpus".to_string(),
        ));
    }
    let table = decode_table(buf, n_vcpus)?;
    Ok(PlanPayload {
        table,
        capped,
        l2_epoch,
    })
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

    fn sample_table() -> Table {
        Table::new(
            ms(10),
            vec![
                vec![alloc(0, 2, 0), alloc(2, 5, 1), alloc(7, 9, 2)],
                vec![alloc(0, 10, 3)],
                vec![],
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_preserves_table() {
        let t = sample_table();
        let decoded = decode(encode(&t)).unwrap();
        assert_eq!(t, decoded);
    }

    #[test]
    fn encoded_size_matches_buffer() {
        let t = sample_table();
        assert_eq!(encode(&t).len(), encoded_size(&t));
    }

    #[test]
    fn bad_magic_rejected() {
        let t = sample_table();
        let mut bytes = BytesMut::from(&encode(&t)[..]);
        bytes[0] ^= 0xFF;
        assert!(matches!(
            decode(bytes.freeze()),
            Err(DecodeError::BadMagic(_))
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let t = sample_table();
        let mut bytes = BytesMut::from(&encode(&t)[..]);
        bytes[4] = 99;
        assert!(matches!(
            decode(bytes.freeze()),
            Err(DecodeError::BadVersion(99))
        ));
    }

    #[test]
    fn truncated_buffer_rejected() {
        let t = sample_table();
        let bytes = encode(&t);
        for cut in [0, 10, 19, bytes.len() - 1] {
            assert!(
                matches!(decode(bytes.slice(..cut)), Err(DecodeError::Truncated)),
                "cut at {cut} not detected"
            );
        }
    }

    #[test]
    fn corrupted_allocations_rejected() {
        let t = Table::new(ms(10), vec![vec![alloc(0, 5, 0)]]).unwrap();
        let mut bytes = BytesMut::from(&encode(&t)[..]);
        // Overwrite the allocation end (offset: 20 header + 16 cpu header +
        // 8 start) with a value before its start.
        let off = 20 + 16 + 8;
        bytes[off..off + 8].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            decode(bytes.freeze()),
            Err(DecodeError::Invalid(_))
        ));
    }

    /// A v1 header announcing `n_cpus` CPUs over a table of length `len`.
    fn header(n_cpus: u32, len: u64) -> BytesMut {
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u32_le(n_cpus);
        buf.put_u64_le(len);
        buf
    }

    #[test]
    fn a_cpu_count_the_payload_cannot_hold_is_truncation() {
        // 20 bytes announcing 2^32 - 1 CPUs: nothing is reserved for them.
        let payload = header(u32::MAX, 10).freeze();
        assert_eq!(payload.len(), 20);
        assert_eq!(decode(payload), Err(DecodeError::Truncated));
    }

    #[test]
    fn slice_geometry_must_match_the_allocations() {
        // 56 bytes: a 2^40 ns table whose one allocation is 1 ns long, so
        // the rebuilt index would hold 2^40 slices; the payload ships none.
        let mut buf = header(1, 1 << 40);
        buf.put_u32_le(1); // n_allocs
        buf.put_u64_le(1); // slice_len
        buf.put_u32_le(0); // n_slices
        buf.put_u64_le(0);
        buf.put_u64_le(1);
        buf.put_u32_le(0);
        assert_eq!(buf.len(), 56);
        assert!(matches!(decode(buf.freeze()), Err(DecodeError::Invalid(_))));

        // A valid table with a wrong shipped slice length, a wrong slice
        // count (one record dropped with it), or a wrong slice record.
        let bytes = encode(&Table::new(ms(10), vec![vec![alloc(0, 5, 0)]]).unwrap());
        let mut wrong_len = BytesMut::from(&bytes[..]);
        wrong_len[24] ^= 1;
        let mut wrong_count = BytesMut::from(&bytes[..bytes.len() - 4]);
        wrong_count[32] -= 1;
        let mut wrong_record = BytesMut::from(&bytes[..]);
        wrong_record[56] ^= 1;
        for corrupt in [wrong_len, wrong_count, wrong_record] {
            assert!(matches!(
                decode(corrupt.freeze()),
                Err(DecodeError::Invalid(_))
            ));
        }
    }

    #[test]
    fn vcpu_ids_are_bounded_by_the_payload() {
        use crate::planner::{plan, PlannerOptions};
        use crate::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};
        let mut host = HostConfig::new(1);
        for i in 0..4 {
            let spec = VcpuSpec::new(Utilization::from_percent(20), ms(20));
            host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
        }
        let p = plan(&host, &PlannerOptions::default()).unwrap();
        let bytes = encode_plan(&p, ms(10));
        // The high byte of the first allocation's vCPU field: plan header,
        // one capped byte, table header, CPU header, start, end, 3 low bytes.
        let mut flipped = BytesMut::from(&bytes[..]);
        flipped[20 + 1 + 20 + 16 + 16 + 3] ^= 0x80;
        assert!(matches!(
            decode_plan(flipped.freeze()),
            Err(DecodeError::Invalid(_))
        ));
        // The same flip in the bare table is past its bit-length bound too.
        let table = encode(&p.table);
        let mut flipped = BytesMut::from(&table[..]);
        flipped[20 + 16 + 16 + 3] ^= 0x80;
        assert!(matches!(
            decode(flipped.freeze()),
            Err(DecodeError::Invalid(_))
        ));
        // A sparse id a small table can still describe decodes.
        let sparse = Table::new(ms(10), vec![vec![alloc(0, 5, 300)]]).unwrap();
        assert_eq!(decode(encode(&sparse)), Ok(sparse));
    }

    #[test]
    fn a_table_past_32_bit_offsets_is_invalid() {
        // 2^32 ns, one core, one allocation of 2^31 ns: two slices, the
        // second past the allocation. Well-formed, and one nanosecond past
        // what a table holds.
        let mut buf = header(1, 1 << 32);
        buf.put_u32_le(1); // n_allocs
        buf.put_u64_le(1 << 31); // slice_len
        buf.put_u32_le(2); // n_slices
        buf.put_u64_le(0);
        buf.put_u64_le(1 << 31);
        buf.put_u32_le(0);
        buf.put_u32_le(0);
        buf.put_u32_le(u32::MAX);
        match decode(buf.freeze()) {
            Err(DecodeError::Invalid(e)) => assert!(e.contains("table length"), "{e}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_vcpu_id_past_16_bits_is_invalid() {
        // 500 allocations 1 ns apart: a payload long enough (~14 KB) that
        // its bit-length bound admits ids past 16 bits, so the table's own
        // limit is what refuses them.
        let allocs = (0..500u64)
            .map(|i| Allocation {
                start: Nanos(2 * i),
                end: Nanos(2 * i + 1),
                vcpu: VcpuId(i as u32 % 7),
            })
            .collect();
        let bytes = encode(&Table::new(Nanos(1_000), vec![allocs]).unwrap());
        // The first allocation's vCPU field: table header, CPU header,
        // start, end.
        let off = 20 + 16 + 16;
        for (id, ok) in [(65_534u32, true), (65_535, false), (70_000, false)] {
            let mut patched = BytesMut::from(&bytes[..]);
            patched[off..off + 4].copy_from_slice(&id.to_le_bytes());
            let patched = patched.freeze();
            match decode(patched.clone()) {
                Ok(t) if ok => assert_eq!(encode(&t), patched),
                Err(DecodeError::Invalid(e)) if !ok => assert!(e.contains("16-bit"), "{e}"),
                other => panic!("id {id}: {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_and_bitmap_padding_are_rejected() {
        let t = sample_table();
        let mut bytes = BytesMut::from(&encode(&t)[..]);
        bytes.put_u8(0);
        assert!(matches!(
            decode(bytes.freeze()),
            Err(DecodeError::Invalid(_))
        ));
        // Three vCPUs: bits 3..8 of the one bitmap byte are padding.
        let mut plan = BytesMut::new();
        plan.put_u32_le(MAGIC);
        plan.put_u32_le(PLAN_VERSION);
        plan.put_u64_le(ms(10).as_nanos());
        plan.put_u32_le(3);
        plan.put_u8(0b0000_1001);
        plan.put_slice(&encode(
            &Table::new(ms(10), vec![vec![alloc(0, 5, 2)]]).unwrap(),
        ));
        assert!(matches!(
            decode_plan(plan.freeze()),
            Err(DecodeError::Invalid(_))
        ));
    }

    #[test]
    fn plan_payload_round_trip_builds_a_dispatcher() {
        use crate::planner::{plan, PlannerOptions};
        use crate::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};

        // Mixed capped/uncapped host.
        let mut host = HostConfig::new(2);
        for i in 0..4 {
            let u = Utilization::from_percent(25);
            let spec = if i % 2 == 0 {
                VcpuSpec::capped(u, ms(20))
            } else {
                VcpuSpec::new(u, ms(20))
            };
            host.add_vm(VmSpec::uniform(format!("vm{i}"), 2, spec));
        }
        let p = plan(&host, &PlannerOptions::default()).unwrap();
        let bytes = encode_plan(&p, ms(10));
        let payload = decode_plan(bytes).unwrap();
        assert_eq!(payload.table, p.table);
        assert_eq!(payload.l2_epoch, ms(10));
        for params in &p.params {
            assert_eq!(
                payload.capped[params.vcpu.0 as usize], params.capped,
                "{}",
                params.vcpu
            );
        }
        // The decoded payload is sufficient to stand up the dispatcher.
        let d = crate::dispatch::Dispatcher::new(payload.table, payload.capped, payload.l2_epoch);
        assert_eq!(d.n_cores(), 2);
    }

    #[test]
    fn plan_payload_rejects_v1_tables() {
        let t = sample_table();
        assert!(matches!(
            decode_plan(encode(&t)),
            Err(DecodeError::BadVersion(1))
        ));
    }

    #[test]
    fn truncated_plan_payload_rejected() {
        use crate::planner::{plan, PlannerOptions};
        use crate::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};
        let mut host = HostConfig::new(1);
        host.add_vm(VmSpec::uniform(
            "a",
            1,
            VcpuSpec::new(Utilization::from_percent(25), ms(20)),
        ));
        let p = plan(&host, &PlannerOptions::default()).unwrap();
        let bytes = encode_plan(&p, ms(10));
        for cut in [0, 10, 19, 21, bytes.len() - 1] {
            assert!(decode_plan(bytes.slice(..cut)).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn size_grows_with_allocations() {
        let small = Table::new(ms(10), vec![vec![alloc(0, 5, 0)]]).unwrap();
        let big = Table::new(
            ms(10),
            vec![(0..10)
                .map(|i| alloc(i, i + 1, i as u32))
                .collect::<Vec<_>>()],
        )
        .unwrap();
        assert!(encoded_size(&big) > encoded_size(&small));
    }
}
