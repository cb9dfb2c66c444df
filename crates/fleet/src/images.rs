//! One immutable table image per distinct content, shared by every host
//! that runs it.
//!
//! A Tableau table is planner-pushed, read-only data: the dispatcher only
//! ever looks it up. The fleet installs *masked* tables (probe slots kept,
//! tenant slots idle — see the crate docs), and a small flavour catalogue
//! over identically shaped hosts makes the same few masked contents recur
//! across thousands of installs. The [`ImageStore`] keeps one
//! [`TableImage`] per distinct content; boot, installs and audit repairs
//! all hand their dispatcher the image's `Arc<Table>`, so hosts running the
//! same content read the same bytes.
//!
//! **Immutability.** An `Arc<Table>` has no `&mut` path, so nothing a host
//! does can change what a sibling reads. Corruption injection is
//! copy-on-corrupt: `corrupt_newest_table` swaps the damaged host's pointer
//! to a private table, leaving the image untouched.
//!
//! **Key.** Images are addressed by content: a fingerprint of the
//! allocations the mask keeps (plus table length and core boundaries),
//! confirmed by comparing those allocations against the stored image, both
//! read straight off the *planned* table. A hit therefore builds no table,
//! allocates nothing and keeps no `Plan` alive.
//!
//! **Lifetime.** An entry is reclaimed once nothing but the store holds it
//! — no dispatcher epoch, no host baseline — so the store is bounded by the
//! distinct images live in the fleet, never by the installs ever made.

use std::collections::HashMap;
use std::sync::Arc;

use tableau_core::audit::TableFacts;
use tableau_core::table::{Allocation, Table};

/// One masked table and the audit facts derived from it when it was built.
pub(crate) struct TableImage {
    /// The table every dispatcher running this content points at.
    pub table: Arc<Table>,
    /// Install-time audit baseline of every host this image is installed
    /// on; the per-epoch audit compares facts re-derived from the live
    /// table against it.
    pub facts: TableFacts,
}

/// Strips every non-probe reservation from a planned table, leaving idle
/// gaps: probe ids (`0..keep_below`) are executed for real, tenant
/// execution is the documented model reduction. Gaps are legal table
/// content — the dispatcher falls through to its second level or idles.
///
/// This is the definition of a masked image and the test oracle for it:
/// production builds one only when [`ImageStore::intern`] misses, and the
/// sharing tests hold every dispatcher's table equal to a fresh per-host
/// `mask_table` of its plan.
pub(crate) fn mask_table(table: &Table, keep_below: u32) -> Result<Table, String> {
    let per_core = (0..table.n_cores())
        .map(|c| kept(table, c, keep_below).collect())
        .collect();
    Table::new(table.len(), per_core)
}

/// The allocations of `core` that the mask keeps.
fn kept(table: &Table, core: usize, keep_below: u32) -> impl Iterator<Item = Allocation> + '_ {
    let allocs = table.cpu(core).allocations();
    allocs.filter(move |a| a.vcpu.0 < keep_below)
}

/// Content fingerprint of `mask_table(planned, keep_below)`, computed from
/// the planned table without building the mask. Collisions are harmless:
/// every candidate is confirmed by [`is_mask_of`].
fn content_key(planned: &Table, keep_below: u32) -> u64 {
    fn mix(h: u64, word: u64) -> u64 {
        let x = (h ^ word).wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^ (x >> 32)
    }
    let mut h = mix(0x9e37_79b9_7f4a_7c15, planned.len().as_nanos());
    for core in 0..planned.n_cores() {
        // The core index separates the lists: moving a slot across a core
        // boundary changes the key.
        h = mix(h, !(core as u64));
        for a in kept(planned, core, keep_below) {
            h = mix(h, a.start.as_nanos());
            h = mix(h, a.end.as_nanos());
            h = mix(h, a.vcpu.0 as u64);
        }
    }
    h
}

/// Whether `image` is exactly `mask_table(planned, keep_below)`. A masked
/// table is a function of its length and per-core allocation lists, so
/// comparing those decides it.
fn is_mask_of(image: &Table, planned: &Table, keep_below: u32) -> bool {
    image.len() == planned.len()
        && image.n_cores() == planned.n_cores()
        && (0..planned.n_cores())
            .all(|c| kept(planned, c, keep_below).eq(image.cpu(c).allocations()))
}

/// Content-addressed store of the masked images live in the fleet.
pub(crate) struct ImageStore {
    /// vCPU ids below this are probes and survive the mask.
    keep_below: u32,
    /// Content fingerprint → the images carrying it.
    by_content: HashMap<u64, Vec<Arc<TableImage>>>,
}

impl ImageStore {
    pub fn new(keep_below: u32) -> ImageStore {
        ImageStore {
            keep_below,
            by_content: HashMap::new(),
        }
    }

    /// Number of images held.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.by_content.values().map(Vec::len).sum()
    }

    /// The shared image of `planned`'s masked content, built on first
    /// sight. Errors only if the mask cannot be built, which filtering a
    /// valid table cannot cause.
    pub fn intern(&mut self, planned: &Table) -> Result<Arc<TableImage>, String> {
        let key = content_key(planned, self.keep_below);
        let bucket = self.by_content.get(&key).map_or(&[][..], Vec::as_slice);
        let same = |img: &&Arc<TableImage>| is_mask_of(&img.table, planned, self.keep_below);
        if let Some(image) = bucket.iter().find(same) {
            return Ok(Arc::clone(image));
        }
        let table = mask_table(planned, self.keep_below)?;
        let image = Arc::new(TableImage {
            facts: TableFacts::derive(&table),
            table: Arc::new(table),
        });
        self.by_content
            .entry(key)
            .or_default()
            .push(Arc::clone(&image));
        Ok(image)
    }

    /// Drops every image nothing else references: neither the image (a
    /// host's baseline, the fleet's boot image) nor its table (a dispatcher
    /// epoch or staged install).
    pub fn reclaim(&mut self) {
        self.by_content.retain(|_, bucket| {
            bucket.retain(|img| Arc::strong_count(img) > 1 || Arc::strong_count(&img.table) > 1);
            !bucket.is_empty()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsched::time::Nanos;
    use tableau_core::vcpu::VcpuId;

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

    /// Two probes (ids 0, 1) and tenants `a`, `b` on a 2-core, 10 ms table.
    fn planned(a: u32, b: u32) -> Table {
        let core0 = vec![alloc(0, 2, 0), alloc(2, 5, a), alloc(7, 9, b)];
        let core1 = vec![alloc(0, 2, 1), alloc(4, 8, a + 10)];
        Table::new(ms(10), vec![core0, core1]).unwrap()
    }

    #[test]
    fn plans_that_differ_only_in_tenants_share_one_image() {
        let mut store = ImageStore::new(2);
        let x = store.intern(&planned(2, 3)).unwrap();
        let y = store.intern(&planned(4, 5)).unwrap();
        assert!(Arc::ptr_eq(&x, &y));
        assert_eq!(store.len(), 1);
        assert_eq!(*x.table, mask_table(&planned(2, 3), 2).unwrap());
        assert_eq!(x.facts, TableFacts::derive(&x.table));
    }

    #[test]
    fn any_kept_difference_is_a_different_image() {
        let mut store = ImageStore::new(2);
        let base = store.intern(&planned(2, 3)).unwrap();
        let variants = [
            // A probe slot moved, resized, re-owned, or moved across cores.
            vec![vec![alloc(1, 3, 0)], vec![alloc(0, 2, 1)]],
            vec![vec![alloc(0, 3, 0)], vec![alloc(0, 2, 1)]],
            vec![vec![alloc(0, 2, 1)], vec![alloc(0, 2, 0)]],
            vec![vec![alloc(0, 2, 0), alloc(4, 6, 1)], vec![]],
        ];
        for per_core in variants {
            let t = Table::new(ms(10), per_core).unwrap();
            let img = store.intern(&t).unwrap();
            assert!(!Arc::ptr_eq(&img, &base));
            assert_eq!(*img.table, mask_table(&t, 2).unwrap());
        }
        // Same allocations, other hyperperiod.
        let longer = Table::new(ms(20), vec![vec![alloc(0, 2, 0)], vec![alloc(0, 2, 1)]]).unwrap();
        assert!(!Arc::ptr_eq(&store.intern(&longer).unwrap(), &base));
        assert_eq!(store.len(), 6);
    }

    #[test]
    fn colliding_keys_are_told_apart_by_content() {
        // Force both contents into one bucket: the confirm step, not the
        // fingerprint, decides identity.
        let mut store = ImageStore::new(2);
        let x = store.intern(&planned(2, 3)).unwrap();
        let other = Table::new(ms(10), vec![vec![alloc(0, 1, 0)], vec![]]).unwrap();
        let forged = Arc::new(TableImage {
            facts: TableFacts::derive(&other),
            table: Arc::new(other),
        });
        let key = content_key(&planned(2, 3), 2);
        store.by_content.get_mut(&key).unwrap().insert(0, forged);
        assert!(Arc::ptr_eq(&store.intern(&planned(6, 7)).unwrap(), &x));
    }

    #[test]
    fn an_image_lives_exactly_as_long_as_something_holds_it() {
        let mut store = ImageStore::new(2);
        let image = store.intern(&planned(2, 3)).unwrap();
        let table = Arc::clone(&image.table);
        store.reclaim();
        assert_eq!(store.len(), 1);
        // A dispatcher still pointing at the table keeps the entry alive
        // after every host baseline moved on...
        drop(image);
        store.reclaim();
        assert_eq!(store.len(), 1);
        assert!(Arc::ptr_eq(
            &store.intern(&planned(8, 9)).unwrap().table,
            &table
        ));
        // ...and the entry goes with the last reference.
        drop(table);
        store.reclaim();
        assert_eq!(store.len(), 0);
    }
}
