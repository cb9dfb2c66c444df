//! The binary decoder against corrupted payloads.
//!
//! `decode` / `decode_plan` read bytes from outside the trust boundary (the
//! hypercall payload). Over planner-produced tables and plan payloads with
//! one to three random byte writes and an optional truncation, they must
//! return — never panic, never reserve memory the payload cannot back — and
//! whatever they accept must re-encode to exactly the bytes they were
//! given: every field of the format, the redundant slice geometry and
//! slice records included, is either stored or validated, never skipped.

use bytes::{BufMut, Bytes, BytesMut};
use proptest::prelude::*;

use rtsched::time::Nanos;
use tableau_core::binary::{decode, decode_plan, encode, encode_plan, PlanPayload};
use tableau_core::binary::{MAGIC, PLAN_VERSION};
use tableau_core::planner::{plan, PlannerOptions};
use tableau_core::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};

/// A host of 1–4 cores with up to ten VMs of mixed tiers.
fn arb_host() -> impl Strategy<Value = HostConfig> {
    (
        1usize..=4,
        proptest::collection::vec((5u32..=40, 2u64..=60, any::<bool>()), 1..=10),
    )
        .prop_map(|(cores, vms)| {
            let mut host = HostConfig::new(cores);
            let mut budget_ppm = cores as u64 * 1_000_000;
            for (i, (upct, l_ms, capped)) in vms.into_iter().enumerate() {
                let ppm = upct * 10_000;
                if i > 0 && budget_ppm < ppm as u64 + 10_000 {
                    break;
                }
                budget_ppm -= ppm as u64;
                let (u, l) = (Utilization::from_ppm(ppm), Nanos::from_millis(l_ms));
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

/// One byte write: where (`near_front` aims at the headers and the first
/// records, where the counts live), and what.
type Write = (u64, u8, bool);

/// `bytes` after `writes` and, if `cut.0`, truncated.
fn corrupt(bytes: &Bytes, writes: &[Write], cut: (bool, u64)) -> Bytes {
    let mut out = BytesMut::from(&bytes[..]);
    for &(pick, value, near_front) in writes {
        let span = if near_front {
            out.len().min(64)
        } else {
            out.len()
        };
        out[pick as usize % span] = value;
    }
    let keep = if cut.0 {
        cut.1 as usize % (out.len() + 1)
    } else {
        out.len()
    };
    out.freeze().slice(..keep)
}

/// What `encode_plan` would have written for `payload`.
fn encode_payload(payload: &PlanPayload) -> Bytes {
    let mut bits = vec![0u8; payload.capped.len().div_ceil(8)];
    for (v, _) in payload.capped.iter().enumerate().filter(|(_, &c)| c) {
        bits[v / 8] |= 1 << (v % 8);
    }
    let mut buf = BytesMut::new();
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(PLAN_VERSION);
    buf.put_u64_le(payload.l2_epoch.as_nanos());
    buf.put_u32_le(payload.capped.len() as u32);
    buf.put_slice(&bits);
    buf.put_slice(&encode(&payload.table));
    buf.freeze()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn corrupted_payloads_are_rejected_or_decode_to_themselves(
        host in arb_host(),
        writes in proptest::collection::vec((any::<u64>(), any::<u8>(), any::<bool>()), 1..=3),
        cut in (any::<bool>(), any::<u64>()),
    ) {
        let p = plan(&host, &PlannerOptions::default()).expect("admissible host plans");

        let table_bytes = encode(&p.table);
        prop_assert_eq!(decode(table_bytes.clone()).as_ref(), Ok(&p.table));
        let hostile = corrupt(&table_bytes, &writes, cut);
        if let Ok(table) = decode(hostile.clone()) {
            prop_assert_eq!(&encode(&table)[..], &hostile[..]);
        }

        let plan_bytes = encode_plan(&p, Nanos::from_millis(10));
        let intact = decode_plan(plan_bytes.clone()).expect("the planner's payload decodes");
        prop_assert_eq!(&encode_payload(&intact)[..], &plan_bytes[..]);
        let hostile = corrupt(&plan_bytes, &writes, cut);
        if let Ok(payload) = decode_plan(hostile.clone()) {
            prop_assert_eq!(&encode_payload(&payload)[..], &hostile[..]);
        }
    }
}
