//! Concrete cyclic schedules: the output of table generation.
//!
//! A [`CoreSchedule`] is a sorted list of non-overlapping [`Segment`]s inside
//! one hyperperiod `[0, H)`; a [`MultiCoreSchedule`] collects one per core.
//! These are the raw material the Tableau planner post-processes into
//! dispatch tables (coalescing, slicing) — see the `tableau-core` crate.

use serde::{Deserialize, Serialize};

use crate::task::TaskId;
use crate::time::Nanos;

/// A contiguous allocation of one task on one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// Start offset relative to the beginning of the table.
    pub start: Nanos,
    /// End offset (exclusive).
    pub end: Nanos,
    /// The task served during `[start, end)`.
    pub task: TaskId,
}

impl Segment {
    /// Creates a segment; `start < end` is required.
    pub fn new(start: Nanos, end: Nanos, task: TaskId) -> Segment {
        debug_assert!(start < end, "empty or inverted segment [{start}, {end})");
        Segment { start, end, task }
    }

    /// Returns the segment's length.
    pub fn len(&self) -> Nanos {
        self.end - self.start
    }

    /// Returns `true` if the two segments overlap in time.
    pub fn overlaps(&self, other: &Segment) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Returns `true` if `t` falls within `[start, end)`.
    pub fn contains(&self, t: Nanos) -> bool {
        self.start <= t && t < self.end
    }
}

/// The cyclic schedule of one core over one hyperperiod.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CoreSchedule {
    segments: Vec<Segment>,
}

impl CoreSchedule {
    /// Creates an empty (always-idle) core schedule.
    pub fn new() -> CoreSchedule {
        CoreSchedule::default()
    }

    /// An empty schedule with room for `segments` segments.
    pub(crate) fn with_capacity(segments: usize) -> CoreSchedule {
        CoreSchedule {
            segments: Vec::with_capacity(segments),
        }
    }

    /// Creates a schedule from segments.
    ///
    /// # Errors
    ///
    /// Returns an error message if segments are unsorted, empty, or overlap.
    pub fn from_segments(segments: Vec<Segment>) -> Result<CoreSchedule, String> {
        for w in segments.windows(2) {
            if w[0].end > w[1].start {
                return Err(format!(
                    "segments out of order or overlapping: [{}, {}) then [{}, {})",
                    w[0].start, w[0].end, w[1].start, w[1].end
                ));
            }
        }
        if let Some(bad) = segments.iter().find(|s| s.start >= s.end) {
            return Err(format!("empty segment [{}, {})", bad.start, bad.end));
        }
        Ok(CoreSchedule { segments })
    }

    /// Appends a segment, merging with the previous one when it is adjacent
    /// and serves the same task.
    ///
    /// # Panics
    ///
    /// Panics if the segment starts before the end of the last one (the
    /// generators emit segments in time order; anything else is a bug).
    pub fn push(&mut self, seg: Segment) {
        debug_assert!(seg.start < seg.end);
        if let Some(last) = self.segments.last_mut() {
            assert!(
                last.end <= seg.start,
                "segment [{}, {}) pushed before end of [{}, {})",
                seg.start,
                seg.end,
                last.start,
                last.end
            );
            if last.end == seg.start && last.task == seg.task {
                last.end = seg.end;
                return;
            }
        }
        self.segments.push(seg);
    }

    /// Returns the segments in time order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Returns the total busy time of the core within the table.
    pub fn busy_time(&self) -> Nanos {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// Returns the shortest segment length, if any segment exists.
    pub fn shortest_segment(&self) -> Option<Nanos> {
        self.segments.iter().map(|s| s.len()).min()
    }

    /// Returns the segment covering time `t`, if any.
    ///
    /// Binary search; `t` must already be reduced modulo the hyperperiod.
    pub fn segment_at(&self, t: Nanos) -> Option<&Segment> {
        let idx = self.segments.partition_point(|s| s.end <= t);
        self.segments.get(idx).filter(|s| s.contains(t))
    }

    /// Returns a copy of this schedule with every segment's task relabeled
    /// through `f`, preserving segment geometry exactly.
    ///
    /// Used to stamp a memoized positional schedule onto a concrete bin's
    /// task ids (see the `signature` module). Segments are mapped one for
    /// one — no re-merging: as long as `f` is injective on the tasks
    /// present, two adjacent segments have equal relabeled tasks iff their
    /// original tasks were equal, so the merge structure cannot change.
    pub fn relabel(&self, mut f: impl FnMut(TaskId) -> TaskId) -> CoreSchedule {
        CoreSchedule {
            segments: self
                .segments
                .iter()
                .map(|s| Segment {
                    task: f(s.task),
                    ..*s
                })
                .collect(),
        }
    }

    /// Returns the total service of `task` within `[from, to)`.
    pub fn service_in(&self, task: TaskId, from: Nanos, to: Nanos) -> Nanos {
        self.segments
            .iter()
            .filter(|s| s.task == task)
            .map(|s| {
                let lo = s.start.max(from);
                let hi = s.end.min(to);
                hi.saturating_sub(lo)
            })
            .sum()
    }
}

/// Cyclic schedules for every core of a platform, all sharing one
/// hyperperiod.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiCoreSchedule {
    /// Table length; all segments lie in `[0, hyperperiod)`.
    pub hyperperiod: Nanos,
    /// Per-core cyclic schedules, indexed by core id.
    pub cores: Vec<CoreSchedule>,
}

impl MultiCoreSchedule {
    /// Creates an all-idle schedule for `n_cores` cores.
    pub fn idle(hyperperiod: Nanos, n_cores: usize) -> MultiCoreSchedule {
        MultiCoreSchedule {
            hyperperiod,
            cores: vec![CoreSchedule::new(); n_cores],
        }
    }

    /// Returns the number of cores.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Returns every segment of `task` across all cores as
    /// `(core, segment)` pairs, in core order.
    pub fn segments_of(&self, task: TaskId) -> Vec<(usize, Segment)> {
        let mut out = Vec::new();
        for (core, sched) in self.cores.iter().enumerate() {
            for seg in sched.segments() {
                if seg.task == task {
                    out.push((core, *seg));
                }
            }
        }
        out
    }

    /// Returns the total service of `task` within `[from, to)` summed over
    /// all cores.
    pub fn total_service_in(&self, task: TaskId, from: Nanos, to: Nanos) -> Nanos {
        self.cores
            .iter()
            .map(|c| c.service_in(task, from, to))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(s: u64, e: u64, t: u32) -> Segment {
        Segment::new(Nanos(s), Nanos(e), TaskId(t))
    }

    #[test]
    fn push_merges_adjacent_same_task() {
        let mut cs = CoreSchedule::new();
        cs.push(seg(0, 10, 1));
        cs.push(seg(10, 20, 1));
        cs.push(seg(20, 30, 2));
        assert_eq!(cs.segments(), &[seg(0, 20, 1), seg(20, 30, 2)]);
    }

    #[test]
    fn push_keeps_gap_segments_separate() {
        let mut cs = CoreSchedule::new();
        cs.push(seg(0, 10, 1));
        cs.push(seg(15, 20, 1));
        assert_eq!(cs.segments().len(), 2);
    }

    #[test]
    #[should_panic(expected = "pushed before end")]
    fn push_rejects_out_of_order() {
        let mut cs = CoreSchedule::new();
        cs.push(seg(10, 20, 1));
        cs.push(seg(5, 8, 2));
    }

    #[test]
    fn from_segments_validates() {
        assert!(CoreSchedule::from_segments(vec![seg(0, 10, 1), seg(10, 20, 2)]).is_ok());
        assert!(CoreSchedule::from_segments(vec![seg(0, 10, 1), seg(5, 20, 2)]).is_err());
    }

    #[test]
    fn segment_lookup() {
        let cs = CoreSchedule::from_segments(vec![seg(0, 10, 1), seg(20, 30, 2), seg(30, 40, 3)])
            .unwrap();
        assert_eq!(cs.segment_at(Nanos(0)).unwrap().task, TaskId(1));
        assert_eq!(cs.segment_at(Nanos(9)).unwrap().task, TaskId(1));
        assert!(cs.segment_at(Nanos(10)).is_none()); // idle gap
        assert!(cs.segment_at(Nanos(15)).is_none());
        assert_eq!(cs.segment_at(Nanos(20)).unwrap().task, TaskId(2));
        assert_eq!(cs.segment_at(Nanos(39)).unwrap().task, TaskId(3));
        assert!(cs.segment_at(Nanos(40)).is_none());
    }

    #[test]
    fn service_accounting() {
        let cs = CoreSchedule::from_segments(vec![seg(0, 10, 1), seg(20, 30, 1)]).unwrap();
        assert_eq!(cs.service_in(TaskId(1), Nanos(0), Nanos(40)), Nanos(20));
        assert_eq!(cs.service_in(TaskId(1), Nanos(5), Nanos(25)), Nanos(10));
        assert_eq!(cs.service_in(TaskId(2), Nanos(0), Nanos(40)), Nanos::ZERO);
        assert_eq!(cs.busy_time(), Nanos(20));
        assert_eq!(cs.shortest_segment(), Some(Nanos(10)));
    }

    #[test]
    fn multicore_queries() {
        let mut m = MultiCoreSchedule::idle(Nanos(100), 2);
        m.cores[0].push(seg(0, 10, 1));
        m.cores[1].push(seg(10, 30, 1));
        m.cores[1].push(seg(30, 50, 2));
        assert_eq!(m.segments_of(TaskId(1)).len(), 2);
        assert_eq!(
            m.total_service_in(TaskId(1), Nanos(0), Nanos(100)),
            Nanos(30)
        );
        assert_eq!(m.n_cores(), 2);
    }

    #[test]
    fn segment_geometry() {
        let a = seg(0, 10, 1);
        let b = seg(10, 20, 2);
        let c = seg(5, 15, 3);
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(b.overlaps(&c));
        assert_eq!(a.len(), Nanos(10));
        assert!(a.contains(Nanos(0)));
        assert!(!a.contains(Nanos(10)));
    }
}
