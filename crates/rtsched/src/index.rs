//! A hash-free task-id → position index.
//!
//! The verifier and the generator's split detection both ask the same
//! question once per *segment*: "which entry of this task list does this
//! id belong to?". A `HashMap` answers it with a SipHash round per
//! segment; at 22 000 segments per paper-scale plan that was most of the
//! verifier's time. [`TaskIndex`] answers it with an array load.
//!
//! Two layouts, picked from the ids themselves:
//!
//! * **direct** — when the ids span at most [`DIRECT_SPAN_PER_TASK`] slots
//!   per task (the planner's vCPU ids are dense, so a whole-host task list
//!   always qualifies), one table over `[min_id, max_id]`;
//! * **sorted** — otherwise (the handful of scattered ids of one bin, or
//!   ids read from a decoded or corrupted schedule), the id-sorted
//!   positions, binary-searched.
//!
//! Either way the index holds `O(tasks)` words: an id of `u32::MAX - 1` can
//! never size an allocation, it just selects the sorted layout.
//!
//! Duplicate ids resolve to their **first** position; [`TaskIndex::first`]
//! maps any position to that canonical one, so callers that give "each copy
//! the full list" bucket once per distinct id and share the bucket.

/// A direct table may spend this many slots per task before the sorted
/// layout takes over.
const DIRECT_SPAN_PER_TASK: u64 = 4;

/// "No task" in the direct table.
const ABSENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
enum Layout {
    /// `table[id - min]` is the first position holding `id`, or [`ABSENT`].
    Direct { min: u32, table: Vec<u32> },
    /// `(id, first position)`, ascending by id, one entry per distinct id.
    Sorted(Vec<(u32, u32)>),
}

/// Maps task ids to positions in one task list.
#[derive(Debug, Clone)]
pub(crate) struct TaskIndex {
    layout: Layout,
    /// `first[pos]` is the first position carrying the same id as `pos`.
    first: Vec<u32>,
}

impl TaskIndex {
    /// Indexes `ids` (the ids of a task list, in list order).
    pub(crate) fn new(ids: impl ExactSizeIterator<Item = u32> + Clone) -> TaskIndex {
        let n = ids.len();
        assert!(n < ABSENT as usize, "task list too long to index");
        let bounds = ids.clone().fold(None, |b: Option<(u32, u32)>, id| match b {
            None => Some((id, id)),
            Some((lo, hi)) => Some((lo.min(id), hi.max(id))),
        });
        let mut first: Vec<u32> = (0..n as u32).collect();
        let layout = match bounds {
            Some((min, max)) if u64::from(max - min) < DIRECT_SPAN_PER_TASK * n as u64 => {
                let mut table = vec![ABSENT; (max - min) as usize + 1];
                for (pos, id) in ids.enumerate() {
                    let slot = &mut table[(id - min) as usize];
                    if *slot == ABSENT {
                        *slot = pos as u32;
                    } else {
                        first[pos] = *slot;
                    }
                }
                Layout::Direct { min, table }
            }
            _ => {
                let mut sorted: Vec<(u32, u32)> =
                    ids.enumerate().map(|(pos, id)| (id, pos as u32)).collect();
                // Positions ascend within one id, so the survivor of each
                // run of equal ids is its first position.
                sorted.sort_unstable();
                sorted.dedup_by(|later, kept| {
                    let dup = later.0 == kept.0;
                    if dup {
                        first[later.1 as usize] = kept.1;
                    }
                    dup
                });
                Layout::Sorted(sorted)
            }
        };
        TaskIndex { layout, first }
    }

    /// The first position whose task carries `id`.
    #[inline]
    pub(crate) fn get(&self, id: u32) -> Option<usize> {
        match &self.layout {
            Layout::Direct { min, table } => {
                let slot = *table.get(id.checked_sub(*min)? as usize)?;
                (slot != ABSENT).then_some(slot as usize)
            }
            Layout::Sorted(sorted) => sorted
                .binary_search_by_key(&id, |&(id, _)| id)
                .ok()
                .map(|at| sorted[at].1 as usize),
        }
    }

    /// The first position carrying the same id as position `pos` (`pos`
    /// itself unless it is a later duplicate).
    #[inline]
    pub(crate) fn first(&self, pos: usize) -> usize {
        self.first[pos] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(ids: &[u32]) -> TaskIndex {
        TaskIndex::new(ids.iter().copied())
    }

    /// What a `HashMap<u32, Vec<usize>>` built in list order would say.
    fn reference_first(ids: &[u32], id: u32) -> Option<usize> {
        ids.iter().position(|&x| x == id)
    }

    #[test]
    fn dense_ids_take_the_direct_table() {
        let ids = [7, 5, 6, 8];
        let ix = index(&ids);
        assert!(matches!(ix.layout, Layout::Direct { min: 5, .. }));
        for probe in 0..12 {
            assert_eq!(ix.get(probe), reference_first(&ids, probe), "id {probe}");
        }
    }

    #[test]
    fn scattered_ids_take_the_sorted_search() {
        let bin = vec![900, 3, 47, 135];
        let long: Vec<u32> = (0..12).map(|i| 1_000_000 - i * 77_777).collect();
        for ids in [bin, long] {
            let ix = index(&ids);
            assert!(matches!(ix.layout, Layout::Sorted(_)));
            let probes = ids
                .iter()
                .flat_map(|&id| [id.saturating_sub(1), id, id + 1]);
            for probe in probes.chain([0, u32::MAX]) {
                assert_eq!(ix.get(probe), reference_first(&ids, probe), "id {probe}");
            }
        }
    }

    #[test]
    fn ids_near_u32_max_never_size_an_allocation() {
        let ids = [u32::MAX - 1, 0, u32::MAX, 1];
        let ix = index(&ids);
        match &ix.layout {
            Layout::Sorted(s) => assert_eq!(s.len(), 4),
            Layout::Direct { .. } => panic!("a 2^32-wide span must not be tabled"),
        }
        assert_eq!(ix.get(u32::MAX - 1), Some(0));
        assert_eq!(ix.get(u32::MAX), Some(2));
        assert_eq!(ix.get(2), None);
        // Dense *around* the top of the range is still dense.
        let top = [u32::MAX, u32::MAX - 2, u32::MAX - 1];
        let ix = index(&top);
        assert!(matches!(ix.layout, Layout::Direct { .. }));
        assert_eq!(ix.get(u32::MAX - 2), Some(1));
        assert_eq!(ix.get(u32::MAX - 3), None);
        assert_eq!(ix.get(0), None);
    }

    #[test]
    fn duplicates_resolve_to_their_first_position_in_both_layouts() {
        for ids in [
            vec![4u32, 5, 4, 6, 5, 4],
            vec![1_000u32, 5, 1_000, 70_000, 5],
        ] {
            let ix = index(&ids);
            for (pos, &id) in ids.iter().enumerate() {
                let want = reference_first(&ids, id).unwrap();
                assert_eq!(ix.get(id), Some(want));
                assert_eq!(ix.first(pos), want);
            }
        }
    }

    #[test]
    fn empty_list_finds_nothing() {
        let ix = index(&[]);
        assert_eq!(ix.get(0), None);
    }
}
