//! Event tracing: the simulator's equivalent of Xen's `xentrace`.
//!
//! The paper's overhead measurements (Sec. 7.2) were "collected using Xen's
//! built-in tracing framework by adding tracepoints around key operations
//! within the scheduler", and Sec. 7.4's level-2 attribution comes from
//! tracing Tableau's scheduling decisions. This module provides the same
//! capability for the simulator: a bounded, allocation-free-at-steady-state
//! ring buffer of typed scheduling events, cheap enough to leave on, plus
//! analysis helpers (per-vCPU migration counts, time-in-state, busy
//! timelines) used by experiments and tests.

use serde::{Deserialize, Serialize};

use rtsched::time::Nanos;

use crate::sched::VcpuId;

/// A traced scheduling event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// `vcpu` began running on `core`.
    Dispatch { core: usize, vcpu: VcpuId },
    /// `vcpu` stopped running on `core` (preemption or block) after `ran`.
    Deschedule {
        core: usize,
        vcpu: VcpuId,
        ran: Nanos,
    },
    /// `vcpu` became runnable.
    Wake { vcpu: VcpuId },
    /// `vcpu` blocked.
    Block { vcpu: VcpuId },
    /// `core` went idle.
    Idle { core: usize },
    /// An IPI was sent to `core`.
    Ipi { core: usize },
    /// `duration` of wall time was stolen from `core` (fault injection).
    Stolen { core: usize, duration: Nanos },
    /// An IPI to `core` was lost (fault injection; re-delivered later).
    IpiLost { core: usize },
    /// `vcpu`'s burst overran its declared demand by `extra` (fault
    /// injection).
    Overrun { vcpu: VcpuId, extra: Nanos },
    /// `core` dropped out of service for `duration` (fault injection).
    CoreOffline { core: usize, duration: Nanos },
    /// `core` returned to service (fault injection).
    CoreOnline { core: usize },
    /// The hybrid engine entered a dense batched phase with `pending`
    /// queued timers.
    BatchEnter { pending: usize },
    /// The dense phase ended after advancing `batched` events.
    BatchExit { batched: u64 },
}

impl TraceEvent {
    /// The filter class this event belongs to.
    pub fn class(&self) -> TraceClass {
        match self {
            TraceEvent::Dispatch { .. }
            | TraceEvent::Deschedule { .. }
            | TraceEvent::Idle { .. } => TraceClass::SCHED,
            TraceEvent::Wake { .. } | TraceEvent::Block { .. } => TraceClass::VCPU,
            TraceEvent::Ipi { .. } => TraceClass::IPI,
            TraceEvent::Stolen { .. }
            | TraceEvent::IpiLost { .. }
            | TraceEvent::Overrun { .. }
            | TraceEvent::CoreOffline { .. }
            | TraceEvent::CoreOnline { .. } => TraceClass::FAULT,
            TraceEvent::BatchEnter { .. } | TraceEvent::BatchExit { .. } => TraceClass::BATCH,
        }
    }
}

/// A bit-mask of trace-event classes, mirroring xentrace's `TRC_*` class
/// words. The buffer's filter is checked *before* an event is constructed
/// (see [`TraceBuffer::emit`]), so suppressed classes cost one branch per
/// call site, not a record construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceClass(u32);

impl TraceClass {
    /// Dispatch, deschedule, and idle decisions.
    pub const SCHED: TraceClass = TraceClass(1 << 0);
    /// vCPU state transitions (wake, block).
    pub const VCPU: TraceClass = TraceClass(1 << 1);
    /// Inter-processor interrupts (sent and lost).
    pub const IPI: TraceClass = TraceClass(1 << 2);
    /// Fault-injection events (thefts, overruns, core flaps).
    pub const FAULT: TraceClass = TraceClass(1 << 3);
    /// Dense-phase batch entry/exit markers (hybrid engine only; exclude
    /// this class when comparing traces across engines).
    pub const BATCH: TraceClass = TraceClass(1 << 4);
    /// Every class (the default filter).
    pub const ALL: TraceClass = TraceClass(u32::MAX);
    /// No class at all.
    pub const NONE: TraceClass = TraceClass(0);

    /// `true` if any class in `other` is in this mask.
    pub fn intersects(self, other: TraceClass) -> bool {
        self.0 & other.0 != 0
    }
}

impl std::ops::BitOr for TraceClass {
    type Output = TraceClass;
    fn bitor(self, rhs: TraceClass) -> TraceClass {
        TraceClass(self.0 | rhs.0)
    }
}

/// A timestamped trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Simulation time of the event.
    pub at: Nanos,
    /// The event.
    pub event: TraceEvent,
}

/// A bounded ring buffer of trace records.
///
/// When full, the oldest records are overwritten — exactly like a xentrace
/// buffer; analyses operate on the retained window.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    records: Vec<TraceRecord>,
    capacity: usize,
    /// Index of the logical start (oldest record) once wrapped.
    head: usize,
    wrapped: bool,
    enabled: bool,
    /// Class mask; events outside it are dropped before construction.
    filter: TraceClass,
    /// Records dropped due to wrapping.
    dropped: u64,
}

impl TraceBuffer {
    /// Creates a disabled buffer with the given capacity. The ring itself
    /// is reserved by [`TraceBuffer::set_enabled`]: a buffer that is never
    /// switched on (every simulation carries one) holds no memory.
    pub fn new(capacity: usize) -> TraceBuffer {
        TraceBuffer {
            records: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            wrapped: false,
            enabled: false,
            filter: TraceClass::ALL,
            dropped: 0,
        }
    }

    /// Enables or disables recording. Enabling reserves the whole ring up
    /// front (a `usize::MAX`-capacity buffer grows on demand instead), so
    /// recording never reallocates.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if enabled && self.capacity != usize::MAX {
            self.records
                .reserve_exact(self.capacity - self.records.len());
        }
    }

    /// Records the ring has memory reserved for.
    #[cfg(test)]
    pub(crate) fn reserved(&self) -> usize {
        self.records.capacity()
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Restricts recording to the classes in `filter` (default
    /// [`TraceClass::ALL`]).
    pub fn set_filter(&mut self, filter: TraceClass) {
        self.filter = filter;
    }

    /// The active class filter.
    pub fn filter(&self) -> TraceClass {
        self.filter
    }

    /// Whether an event of `class` would be recorded right now. Call sites
    /// use this (via [`TraceBuffer::emit`]) to skip event construction
    /// entirely for suppressed classes.
    #[inline]
    pub fn wants(&self, class: TraceClass) -> bool {
        self.enabled && self.filter.intersects(class)
    }

    /// Records an event of `class`, constructing it only if the buffer is
    /// enabled and the class passes the filter — a dropped event costs one
    /// branch, not a construction.
    #[inline]
    pub fn emit(&mut self, at: Nanos, class: TraceClass, event: impl FnOnce() -> TraceEvent) {
        if !self.wants(class) {
            return;
        }
        let event = event();
        debug_assert_eq!(event.class(), class, "event recorded under wrong class");
        self.push_record(TraceRecord { at, event });
    }

    /// Records an already-constructed event (no-op while disabled or when
    /// its class is filtered out). Prefer [`TraceBuffer::emit`] on hot
    /// paths.
    pub fn record(&mut self, at: Nanos, event: TraceEvent) {
        if !self.enabled || !self.filter.intersects(event.class()) {
            return;
        }
        self.push_record(TraceRecord { at, event });
    }

    fn push_record(&mut self, rec: TraceRecord) {
        if self.records.len() < self.capacity {
            self.records.push(rec);
        } else {
            self.records[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.wrapped = true;
            self.dropped += 1;
        }
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records dropped to wrapping.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained records in chronological order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        let (tail, front) = self.records.split_at(self.head);
        front.iter().chain(tail.iter())
    }

    /// Clears the buffer (keeps the enabled flag).
    pub fn clear(&mut self) {
        self.records.clear();
        self.head = 0;
        self.wrapped = false;
        self.dropped = 0;
    }
}

/// Summary statistics computed from a trace window.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Dispatches per vCPU.
    pub dispatches: Vec<(u32, u64)>,
    /// Cross-core migrations per vCPU (dispatch on a different core than
    /// the previous dispatch).
    pub migrations: Vec<(u32, u64)>,
    /// Total traced service per vCPU.
    pub service: Vec<(u32, Nanos)>,
    /// IPIs per core.
    pub ipis_per_core: Vec<(usize, u64)>,
}

impl TraceSummary {
    /// Builds a summary from a trace window.
    pub fn from_trace(trace: &TraceBuffer) -> TraceSummary {
        use std::collections::HashMap;
        let mut dispatches: HashMap<u32, u64> = HashMap::new();
        let mut migrations: HashMap<u32, u64> = HashMap::new();
        let mut service: HashMap<u32, Nanos> = HashMap::new();
        let mut ipis: HashMap<usize, u64> = HashMap::new();
        let mut last_core: HashMap<u32, usize> = HashMap::new();

        for rec in trace.iter() {
            match rec.event {
                TraceEvent::Dispatch { core, vcpu } => {
                    *dispatches.entry(vcpu.0).or_default() += 1;
                    if let Some(&prev) = last_core.get(&vcpu.0) {
                        if prev != core {
                            *migrations.entry(vcpu.0).or_default() += 1;
                        }
                    }
                    last_core.insert(vcpu.0, core);
                }
                TraceEvent::Deschedule { vcpu, ran, .. } => {
                    *service.entry(vcpu.0).or_insert(Nanos::ZERO) += ran;
                }
                TraceEvent::Ipi { core } => {
                    *ipis.entry(core).or_default() += 1;
                }
                _ => {}
            }
        }

        let to_sorted_vec = |m: HashMap<u32, u64>| {
            let mut v: Vec<(u32, u64)> = m.into_iter().collect();
            v.sort_unstable();
            v
        };
        let mut service: Vec<(u32, Nanos)> = service.into_iter().collect();
        service.sort_unstable();
        let mut ipis: Vec<(usize, u64)> = ipis.into_iter().collect();
        ipis.sort_unstable();
        TraceSummary {
            dispatches: to_sorted_vec(dispatches),
            migrations: to_sorted_vec(migrations),
            service,
            ipis_per_core: ipis,
        }
    }

    /// Migration count of one vCPU.
    pub fn migrations_of(&self, vcpu: VcpuId) -> u64 {
        self.migrations
            .iter()
            .find(|&&(v, _)| v == vcpu.0)
            .map(|&(_, n)| n)
            .unwrap_or(0)
    }

    /// Dispatch count of one vCPU.
    pub fn dispatches_of(&self, vcpu: VcpuId) -> u64 {
        self.dispatches
            .iter()
            .find(|&&(v, _)| v == vcpu.0)
            .map(|&(_, n)| n)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Nanos {
        Nanos::from_micros(v)
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut t = TraceBuffer::new(8);
        t.record(us(1), TraceEvent::Idle { core: 0 });
        assert!(t.is_empty());
        t.set_enabled(true);
        t.record(us(2), TraceEvent::Idle { core: 0 });
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn the_ring_is_reserved_on_enabling_not_on_construction() {
        let mut t = TraceBuffer::new(1 << 10);
        assert_eq!(t.reserved(), 0);
        t.record(us(1), TraceEvent::Idle { core: 0 });
        assert_eq!(t.reserved(), 0, "a disabled buffer allocated");
        t.set_enabled(true);
        let reserved = t.reserved();
        assert!(reserved >= 1 << 10);
        for i in 0..(1u64 << 10) {
            t.record(us(i), TraceEvent::Idle { core: 0 });
        }
        assert_eq!(t.reserved(), reserved, "filling the ring reallocated");
        assert_eq!((t.len(), t.dropped()), (1 << 10, 0));
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut t = TraceBuffer::new(3);
        t.set_enabled(true);
        for i in 0..5u64 {
            t.record(us(i), TraceEvent::Ipi { core: i as usize });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let times: Vec<u64> = t.iter().map(|r| r.at.as_micros()).collect();
        assert_eq!(times, vec![2, 3, 4]);
    }

    #[test]
    fn summary_counts_migrations() {
        let mut t = TraceBuffer::new(64);
        t.set_enabled(true);
        let v = VcpuId(3);
        t.record(us(0), TraceEvent::Dispatch { core: 0, vcpu: v });
        t.record(
            us(10),
            TraceEvent::Deschedule {
                core: 0,
                vcpu: v,
                ran: us(10),
            },
        );
        t.record(us(20), TraceEvent::Dispatch { core: 1, vcpu: v }); // migration
        t.record(
            us(30),
            TraceEvent::Deschedule {
                core: 1,
                vcpu: v,
                ran: us(10),
            },
        );
        t.record(us(40), TraceEvent::Dispatch { core: 1, vcpu: v }); // same core
        let s = TraceSummary::from_trace(&t);
        assert_eq!(s.dispatches_of(v), 3);
        assert_eq!(s.migrations_of(v), 1);
        assert_eq!(s.service, vec![(3, us(20))]);
    }

    #[test]
    fn summary_counts_ipis_per_core() {
        let mut t = TraceBuffer::new(16);
        t.set_enabled(true);
        t.record(us(0), TraceEvent::Ipi { core: 2 });
        t.record(us(1), TraceEvent::Ipi { core: 2 });
        t.record(us(2), TraceEvent::Ipi { core: 0 });
        let s = TraceSummary::from_trace(&t);
        assert_eq!(s.ipis_per_core, vec![(0, 1), (2, 2)]);
    }

    #[test]
    fn filter_suppresses_classes_before_construction() {
        let mut t = TraceBuffer::new(8);
        t.set_enabled(true);
        t.set_filter(TraceClass::SCHED);
        // Suppressed class: the closure must never run.
        t.emit(us(1), TraceClass::IPI, || {
            panic!("constructed a filtered event")
        });
        assert!(t.is_empty());
        t.emit(us(2), TraceClass::SCHED, || TraceEvent::Idle { core: 0 });
        assert_eq!(t.len(), 1);
        // `record` applies the same filter, after construction.
        t.record(us(3), TraceEvent::Ipi { core: 1 });
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn disabled_buffer_skips_emit_construction() {
        let mut t = TraceBuffer::new(8);
        t.emit(us(1), TraceClass::SCHED, || {
            panic!("constructed while disabled")
        });
        assert!(t.is_empty());
    }

    #[test]
    fn class_masks_combine() {
        let m = TraceClass::SCHED | TraceClass::FAULT;
        assert!(m.intersects(TraceClass::SCHED));
        assert!(m.intersects(TraceClass::FAULT));
        assert!(!m.intersects(TraceClass::IPI));
        assert!(TraceClass::ALL.intersects(TraceClass::VCPU));
        assert!(!TraceClass::NONE.intersects(TraceClass::ALL));
        assert_eq!(TraceEvent::Idle { core: 0 }.class(), TraceClass::SCHED);
        assert_eq!(
            TraceEvent::Wake { vcpu: VcpuId(0) }.class(),
            TraceClass::VCPU
        );
        assert_eq!(TraceEvent::IpiLost { core: 0 }.class(), TraceClass::FAULT);
    }

    #[test]
    fn clear_resets_but_keeps_enablement() {
        let mut t = TraceBuffer::new(4);
        t.set_enabled(true);
        t.record(us(0), TraceEvent::Idle { core: 0 });
        t.clear();
        assert!(t.is_empty());
        assert!(t.is_enabled());
        assert_eq!(t.dropped(), 0);
    }
}
