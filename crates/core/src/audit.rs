//! Continuous table audit: facts taken from a trusted table at install
//! time, compared with the same facts of the live table.
//!
//! The planner verifies every schedule before it becomes a table, but only
//! *before* install. Once a table is live, nothing re-examines it: a bad
//! table that slipped past verification, or an in-memory corruption of the
//! installed copy, would go unnoticed until a vCPU misses its SLA. The
//! audit closes that gap. At install time a control loop derives the
//! table's [`TableFacts`] — its length, one fingerprint per core's
//! allocation list, and one over the placement map — as its baseline;
//! afterwards, at a low cadence (the guardian once per `audit_interval`,
//! the fleet once per epoch), it derives the facts of the whole live table
//! and compares. The facts are read through the table's views — each
//! core's `(start, end, vcpu)` sequence off its segment arrays, each
//! vCPU's home core and pieces off its placement — the bytes the
//! dispatcher follows, of which there is no second copy. A fleet whose
//! dispatchers share table images derives the live facts once per image
//! and compares them with each host's install-time baseline.
//!
//! The module also carries the *corruption injector* used by chaos soaks
//! and the mutation-kill harness: [`corrupt_table`] applies one of three
//! seeded fault classes (bit-flipped slot ids, swapped placements, stale
//! truncated slots) to a table, deterministically per salt, so end-to-end
//! detect→repair can be exercised and every undetected corruption counted.

use std::fmt;

use serde::{Deserialize, Serialize};

use rtsched::time::Nanos;

use crate::table::{Allocation, Table};
use crate::vcpu::VcpuId;

/// A discrepancy between the live table and the facts recorded at install.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuditViolation {
    /// The table's shape (length or core count) differs from the baseline.
    ShapeMismatch {
        /// Core count recorded at install time.
        expected_cores: usize,
        /// Core count observed in the live table.
        got_cores: usize,
    },
    /// Core `core`'s allocation list no longer matches its fingerprint.
    SlotMismatch {
        /// The core whose slots diverged.
        core: usize,
    },
    /// The per-vCPU placement metadata diverged from the baseline.
    PlacementMismatch,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AuditViolation::ShapeMismatch {
                expected_cores,
                got_cores,
            } => write!(
                f,
                "table shape mismatch: expected {expected_cores} cores, got {got_cores}"
            ),
            AuditViolation::SlotMismatch { core } => {
                write!(f, "slot fingerprint mismatch on core {core}")
            }
            AuditViolation::PlacementMismatch => {
                write!(f, "placement metadata diverged from installed baseline")
            }
        }
    }
}

/// Streaming fingerprint over `u64` words: one multiply–xorshift round per
/// word. Every round is a bijection of the running state, so a change to
/// any single word always changes the result, and the chaining makes the
/// result depend on word order (swaps are caught with probability
/// 1 − 2⁻⁶⁴).
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Fingerprint {
        Fingerprint(0x9e37_79b9_7f4a_7c15)
    }

    fn word(&mut self, w: u64) {
        let x = (self.0 ^ w).wrapping_mul(0xff51_afd7_ed55_8ccd);
        self.0 = x ^ (x >> 32);
    }
}

/// Fingerprint of one core's allocation list.
fn core_fingerprint(core: usize, allocs: impl Iterator<Item = Allocation>) -> u64 {
    let mut h = Fingerprint::new();
    h.word(core as u64);
    for a in allocs {
        h.word(a.start.as_nanos());
        h.word(a.end.as_nanos());
        h.word(a.vcpu.0 as u64);
    }
    h.0
}

/// Fingerprint of the whole placement map (home cores and allocation
/// triples, in home-core then vCPU-id order).
fn placement_fingerprint(table: &Table) -> u64 {
    let mut h = Fingerprint::new();
    for core in 0..table.n_cores() {
        for &v in table.vcpus_homed_on(core) {
            let Some(p) = table.placement(v) else {
                continue;
            };
            h.word(v.0 as u64);
            h.word(p.home_core as u64);
            for (c, s, e) in p.allocations() {
                h.word(c as u64);
                h.word(s.as_nanos());
                h.word(e.as_nanos());
            }
        }
    }
    h.0
}

/// The audit facts of one table: its length, one fingerprint per core's
/// allocation list, and one over the whole placement map.
///
/// Facts are a pure function of the table's bytes, so two derivations from
/// the same (immutable) table are equal, and `baseline == live` holds
/// exactly when [`TableFacts::violations`] is empty — a control plane that
/// only needs the verdict compares with `==` and allocates nothing. A
/// caller auditing many dispatchers that share one `Arc<Table>` derives
/// the live facts once and compares them against each baseline.
///
/// # Examples
///
/// ```
/// use rtsched::time::Nanos;
/// use tableau_core::audit::TableFacts;
/// use tableau_core::table::{Allocation, Table};
/// use tableau_core::vcpu::VcpuId;
///
/// let ms = Nanos::from_millis;
/// let slot = |end| vec![vec![Allocation { start: ms(0), end: ms(end), vcpu: VcpuId(0) }]];
/// let installed = TableFacts::derive(&Table::new(ms(10), slot(4)).unwrap());
/// let live = TableFacts::derive(&Table::new(ms(10), slot(2)).unwrap());
/// assert_ne!(installed, live);
/// assert_eq!(installed.violations(&live).len(), 2); // the slot and its placement
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableFacts {
    len: Nanos,
    core_fp: Vec<u64>,
    placement_fp: u64,
}

impl TableFacts {
    /// Derives the facts from `table`'s current bytes.
    pub fn derive(table: &Table) -> TableFacts {
        TableFacts {
            len: table.len(),
            core_fp: (0..table.n_cores())
                .map(|c| core_fingerprint(c, table.cpu(c).allocations()))
                .collect(),
            placement_fp: placement_fingerprint(table),
        }
    }

    /// Compares `live` facts against `self` as the baseline: a shape
    /// mismatch alone, or else every diverged core and the placement map.
    pub fn violations(&self, live: &TableFacts) -> Vec<AuditViolation> {
        if live.core_fp.len() != self.core_fp.len() || live.len != self.len {
            return vec![AuditViolation::ShapeMismatch {
                expected_cores: self.core_fp.len(),
                got_cores: live.core_fp.len(),
            }];
        }
        let cores = self.core_fp.iter().zip(&live.core_fp).enumerate();
        let mut out: Vec<AuditViolation> = cores
            .filter(|(_, (want, got))| want != got)
            .map(|(core, _)| AuditViolation::SlotMismatch { core })
            .collect();
        if live.placement_fp != self.placement_fp {
            out.push(AuditViolation::PlacementMismatch);
        }
        out
    }
}

/// The seeded table-corruption fault classes (chaos soaks, mutation kill).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CorruptionKind {
    /// XOR a low bit of one allocation's vCPU id: the slot now names the
    /// wrong vCPU (or nobody that exists).
    BitFlipSlot,
    /// Swap the vCPU ids of two allocations: both slots remain well-formed
    /// but serve the wrong tenants.
    SwapPlacement,
    /// Truncate one allocation to half its length: a stale, partially
    /// written slot record that silently under-serves its vCPU.
    StaleStamp,
}

impl CorruptionKind {
    /// All fault classes, for sweeps.
    pub const ALL: [CorruptionKind; 3] = [
        CorruptionKind::BitFlipSlot,
        CorruptionKind::SwapPlacement,
        CorruptionKind::StaleStamp,
    ];
}

impl fmt::Display for CorruptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CorruptionKind::BitFlipSlot => "bit_flip_slot",
            CorruptionKind::SwapPlacement => "swap_placement",
            CorruptionKind::StaleStamp => "stale_stamp",
        })
    }
}

/// Deterministic 64-bit mix (splitmix64 finalizer).
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Applies one corruption of class `kind` to `table`, deterministically per
/// `salt`.
///
/// Returns `None` when the mutation is a no-op for this salt (e.g. a swap
/// picked two slots of the same vCPU) or produces a structurally invalid
/// table (the corrupted copy is rebuilt through [`Table::new`], which
/// rejects e.g. a bit flip that creates a cross-core overlap) — callers
/// retry with another salt. A `Some` result is guaranteed to differ from
/// the input table.
pub fn corrupt_table(table: &Table, kind: CorruptionKind, salt: u64) -> Option<Table> {
    let mut per_core: Vec<Vec<Allocation>> = (0..table.n_cores())
        .map(|c| table.cpu(c).allocations().collect())
        .collect();
    // Flat index over every allocation slot in the table.
    let slots: Vec<(usize, usize)> = per_core
        .iter()
        .enumerate()
        .flat_map(|(c, list)| (0..list.len()).map(move |i| (c, i)))
        .collect();
    if slots.is_empty() {
        return None;
    }
    let pick = |stream: u64| slots[(mix(salt.wrapping_add(stream)) % slots.len() as u64) as usize];
    match kind {
        CorruptionKind::BitFlipSlot => {
            let (c, i) = pick(1);
            let bit = mix(salt.wrapping_add(2)) % 6;
            per_core[c][i].vcpu = VcpuId(per_core[c][i].vcpu.0 ^ (1 << bit));
        }
        CorruptionKind::SwapPlacement => {
            let (c1, i1) = pick(3);
            let (c2, i2) = pick(4);
            let (a, b) = (per_core[c1][i1].vcpu, per_core[c2][i2].vcpu);
            if a == b {
                return None;
            }
            per_core[c1][i1].vcpu = b;
            per_core[c2][i2].vcpu = a;
        }
        CorruptionKind::StaleStamp => {
            let (c, i) = pick(5);
            let a = per_core[c][i];
            let stale_end = a.start + (a.end - a.start + Nanos::from_nanos(1)) / 2;
            if stale_end == a.end {
                return None;
            }
            per_core[c][i].end = stale_end;
        }
    }
    let corrupted = Table::new(table.len(), per_core).ok()?;
    (&corrupted != table).then_some(corrupted)
}

/// Finds the first salt in `[0, tries)` for which [`corrupt_table`]
/// produces a corrupted table, and returns it with the table.
pub fn corrupt_table_any(table: &Table, kind: CorruptionKind, tries: u64) -> Option<(u64, Table)> {
    (0..tries).find_map(|salt| corrupt_table(table, kind, salt).map(|t| (salt, t)))
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

    fn host_table() -> Table {
        Table::new(
            ms(10),
            vec![
                vec![alloc(0, 2, 0), alloc(2, 5, 1), alloc(7, 9, 2)],
                vec![alloc(0, 4, 3), alloc(5, 8, 4)],
                vec![alloc(1, 6, 5)],
            ],
        )
        .unwrap()
    }

    /// The audit verdict of `live` against `baseline`'s facts.
    fn audit(baseline: &Table, live: &Table) -> Vec<AuditViolation> {
        TableFacts::derive(baseline).violations(&TableFacts::derive(live))
    }

    #[test]
    fn clean_table_audits_clean() {
        let t = host_table();
        assert!(audit(&t, &t).is_empty());
        assert!(audit(&t, &t.clone()).is_empty());
    }

    #[test]
    fn every_corruption_class_is_detected() {
        let t = host_table();
        for kind in CorruptionKind::ALL {
            let (salt, bad) =
                corrupt_table_any(&t, kind, 64).unwrap_or_else(|| panic!("{kind}: no salt"));
            assert!(
                !audit(&t, &bad).is_empty(),
                "{kind} (salt {salt}) undetected"
            );
        }
    }

    #[test]
    fn a_baseline_from_the_installed_table_rebases_the_audit() {
        // An install rebases the audit by deriving the baseline afresh:
        // the new table then audits clean and the old one is flagged.
        let t = host_table();
        let (_, bad) = corrupt_table_any(&t, CorruptionKind::SwapPlacement, 64).unwrap();
        assert!(!audit(&t, &bad).is_empty());
        assert!(audit(&bad, &bad).is_empty());
        assert!(!audit(&bad, &t).is_empty());
    }

    #[test]
    fn facts_equality_is_the_full_audit_verdict() {
        // `baseline == live` exactly when `violations(live)` is empty.
        let t = host_table();
        let baseline = TableFacts::derive(&t);
        assert_eq!(baseline, TableFacts::derive(&t.clone()));
        assert!(baseline.violations(&baseline).is_empty());
        for kind in CorruptionKind::ALL {
            let (_, bad) = corrupt_table_any(&t, kind, 64).unwrap();
            let live = TableFacts::derive(&bad);
            assert_ne!(baseline, live, "{kind}");
            assert!(!baseline.violations(&live).is_empty());
        }
    }

    #[test]
    fn corruption_is_deterministic_per_salt() {
        let t = host_table();
        for kind in CorruptionKind::ALL {
            let (salt, bad) = corrupt_table_any(&t, kind, 64).unwrap();
            assert_eq!(corrupt_table(&t, kind, salt), Some(bad));
        }
    }

    #[test]
    fn shape_mismatch_reported_before_core_facts() {
        let t = host_table();
        let narrower = Table::new(ms(10), vec![vec![alloc(0, 2, 0)]]).unwrap();
        assert_eq!(
            audit(&t, &narrower),
            vec![AuditViolation::ShapeMismatch {
                expected_cores: 3,
                got_cores: 1
            }]
        );
        let stretched = Table::new(ms(20), vec![vec![], vec![], vec![]]).unwrap();
        assert!(matches!(
            audit(&t, &stretched)[0],
            AuditViolation::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn swap_placement_flips_both_slot_and_placement_facts() {
        let t = host_table();
        let (_, bad) = corrupt_table_any(&t, CorruptionKind::SwapPlacement, 64).unwrap();
        let found = audit(&t, &bad);
        assert!(found
            .iter()
            .any(|v| matches!(v, AuditViolation::SlotMismatch { .. })));
        assert!(found.contains(&AuditViolation::PlacementMismatch));
    }

    #[test]
    fn empty_table_cannot_be_corrupted() {
        let t = Table::new(ms(10), vec![vec![], vec![]]).unwrap();
        for kind in CorruptionKind::ALL {
            assert_eq!(corrupt_table_any(&t, kind, 64), None);
        }
    }

    #[test]
    fn violation_display_is_stable() {
        assert_eq!(
            AuditViolation::SlotMismatch { core: 3 }.to_string(),
            "slot fingerprint mismatch on core 3"
        );
        assert_eq!(
            AuditViolation::ShapeMismatch {
                expected_cores: 2,
                got_cores: 4
            }
            .to_string(),
            "table shape mismatch: expected 2 cores, got 4"
        );
        assert_eq!(CorruptionKind::StaleStamp.to_string(), "stale_stamp");
    }
}
