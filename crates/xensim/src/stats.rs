//! Measurement infrastructure: per-operation overhead samples and per-vCPU
//! service/delay accounting.
//!
//! [`OpStats`] regenerates the paper's Tables 1–2 (mean schedule, wakeup,
//! and migrate/de-schedule overheads); [`VcpuStats`] provides the
//! scheduling-delay figures behind Fig. 5 (maximum delay while runnable)
//! and general service accounting used by throughput experiments.

use serde::{Deserialize, Error, Serialize, Value};

use rtsched::time::Nanos;

use crate::sched::VcpuId;

/// The three scheduler operations the paper traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Making a scheduling decision (`schedule`).
    Schedule,
    /// Processing a wake-up (`wakeup`).
    Wakeup,
    /// Post-de-schedule work, including migration hand-off ("Migrate" in
    /// the paper's tables).
    Deschedule,
}

impl OpKind {
    /// All operation kinds, in the paper's table row order.
    pub const ALL: [OpKind; 3] = [OpKind::Schedule, OpKind::Wakeup, OpKind::Deschedule];

    /// The paper's row label.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Schedule => "Schedule",
            OpKind::Wakeup => "Wakeup",
            OpKind::Deschedule => "Migrate",
        }
    }
}

/// Streaming accumulator for one operation kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpAccumulator {
    /// Number of samples.
    pub count: u64,
    /// Sum of sample costs.
    pub total: Nanos,
    /// Largest single sample.
    pub max: Nanos,
}

impl OpAccumulator {
    /// Records one sample.
    pub fn record(&mut self, cost: Nanos) {
        self.count += 1;
        self.total += cost;
        self.max = self.max.max(cost);
    }

    /// Records `n` samples of the same `cost`.
    pub fn record_n(&mut self, cost: Nanos, n: u64) {
        if n > 0 {
            self.count += n;
            self.total += cost * n;
            self.max = self.max.max(cost);
        }
    }

    /// Mean cost in microseconds (the paper's unit).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total.as_nanos() as f64 / self.count as f64 / 1e3
        }
    }
}

/// Overhead samples for all three operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpStats {
    schedule: OpAccumulator,
    wakeup: OpAccumulator,
    deschedule: OpAccumulator,
}

impl OpStats {
    /// Records a sample for `kind`.
    pub fn record(&mut self, kind: OpKind, cost: Nanos) {
        self.get_mut(kind).record(cost);
    }

    /// Records `n` samples of the same `cost` for `kind`.
    pub fn record_n(&mut self, kind: OpKind, cost: Nanos, n: u64) {
        self.get_mut(kind).record_n(cost, n);
    }

    /// The accumulator for `kind`.
    pub fn get(&self, kind: OpKind) -> &OpAccumulator {
        match kind {
            OpKind::Schedule => &self.schedule,
            OpKind::Wakeup => &self.wakeup,
            OpKind::Deschedule => &self.deschedule,
        }
    }

    fn get_mut(&mut self, kind: OpKind) -> &mut OpAccumulator {
        match kind {
            OpKind::Schedule => &mut self.schedule,
            OpKind::Wakeup => &mut self.wakeup,
            OpKind::Deschedule => &mut self.deschedule,
        }
    }

    /// Total scheduler CPU time across all operations.
    pub fn total_overhead(&self) -> Nanos {
        self.schedule.total + self.wakeup.total + self.deschedule.total
    }
}

/// Per-vCPU service and delay accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VcpuStats {
    /// Total CPU service received.
    pub service: Nanos,
    /// Number of dispatches.
    pub dispatches: u64,
    /// Number of wake-ups.
    pub wakeups: u64,
    /// Scheduling-delay samples: time from becoming runnable (or being
    /// preempted while runnable) to the next dispatch.
    pub delay_count: u64,
    /// Sum of delays (for the mean).
    pub delay_total: Nanos,
    /// Largest single delay — the paper's "maximum scheduling delay".
    pub delay_max: Nanos,
    /// Bursts of this vCPU that overran their declared demand (fault
    /// injection) — the attribution a quarantine policy keys off.
    pub overruns: u64,
}

impl VcpuStats {
    /// Records a dispatch-delay sample.
    #[inline]
    pub fn record_delay(&mut self, delay: Nanos) {
        self.delay_count += 1;
        self.delay_total += delay;
        self.delay_max = self.delay_max.max(delay);
    }

    /// Records `n` samples of the same `delay`: what `n` calls of
    /// [`VcpuStats::record_delay`] leave.
    #[inline]
    pub fn record_delay_n(&mut self, delay: Nanos, n: u64) {
        if n > 0 {
            self.delay_count += n;
            self.delay_total += delay * n;
            self.delay_max = self.delay_max.max(delay);
        }
    }

    /// Mean scheduling delay.
    pub fn mean_delay(&self) -> Nanos {
        if self.delay_count == 0 {
            Nanos::ZERO
        } else {
            self.delay_total / self.delay_count
        }
    }
}

/// A compact logarithmic histogram of scheduling delays.
///
/// Bucket `i` counts delays in `[2^i, 2^(i+1))` ns (bucket 0 additionally
/// holds zero). Power-of-two resolution is coarse (a factor of two), but
/// scheduling-delay *scales* — microseconds vs. a period vs. an accounting
/// interval — differ by orders of magnitude, which is what the paper's
/// figures distinguish.
///
/// The buckets are held inline and the sample count is their sum, so
/// recording a sample is one increment. Serialized, the histogram still
/// carries its count, and a histogram with no sample carries an empty
/// bucket list, as it did while the buckets were allocated on first use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayHist {
    buckets: [u64; DelayHist::BUCKETS],
}

impl Default for DelayHist {
    fn default() -> DelayHist {
        DelayHist {
            buckets: [0; DelayHist::BUCKETS],
        }
    }
}

impl Serialize for DelayHist {
    fn to_value(&self) -> Value {
        let count = self.count();
        let buckets = if count == 0 {
            &[][..]
        } else {
            &self.buckets[..]
        };
        Value::Map(vec![
            ("buckets".to_string(), buckets.to_value()),
            ("count".to_string(), count.to_value()),
        ])
    }
}

impl Deserialize for DelayHist {
    fn from_value(v: &Value) -> Result<DelayHist, Error> {
        let m = v
            .as_map()
            .ok_or_else(|| Error::msg("expected DelayHist map"))?;
        let field = |k| Value::get_field(m, k).ok_or_else(|| Error::msg(format!("missing {k}")));
        let buckets = Vec::<u64>::from_value(field("buckets")?)?;
        if buckets.len() > DelayHist::BUCKETS {
            return Err(Error::msg("too many DelayHist buckets"));
        }
        let mut h = DelayHist::default();
        h.buckets[..buckets.len()].copy_from_slice(&buckets);
        if h.count() != u64::from_value(field("count")?)? {
            return Err(Error::msg("DelayHist count is not the sum of its buckets"));
        }
        Ok(h)
    }
}

impl DelayHist {
    const BUCKETS: usize = 44; // up to ~17,592 s

    /// Records one delay sample.
    #[inline]
    pub fn record(&mut self, delay: Nanos) {
        self.record_n(delay, 1);
    }

    /// Records `n` samples of the same `delay`.
    #[inline]
    pub fn record_n(&mut self, delay: Nanos, n: u64) {
        // `floor(log2(delay))`, with zero in bucket 0.
        let log2 = 63 - (delay.as_nanos() | 1).leading_zeros() as usize;
        self.buckets[log2.min(DelayHist::BUCKETS - 1)] += n;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound of the bucket containing quantile `q` (0 for no data).
    pub fn quantile_upper(&self, q: f64) -> Nanos {
        let count = self.count();
        if count == 0 {
            return Nanos::ZERO;
        }
        let rank = ((q * count as f64).ceil().max(1.0) as u64).min(count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Nanos((1u64 << (i + 1)) - 1);
            }
        }
        Nanos(u64::MAX)
    }

    /// Samples at or above `threshold` (tail mass).
    pub fn count_at_least(&self, threshold: Nanos) -> u64 {
        let idx = (64 - threshold.as_nanos().leading_zeros() as usize)
            .saturating_sub(1)
            .min(DelayHist::BUCKETS - 1);
        self.buckets.iter().skip(idx).sum()
    }
}

/// Dense-phase batching accounting (the hybrid engine's fast path; see
/// `Sim` in [`crate::sim`]). Excluded from engine-equivalence comparisons:
/// reference engines never batch, so these counters describe *how* events
/// were processed, not *what* happened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct BatchStats {
    /// Events advanced through the batched inner loop instead of the
    /// event-at-a-time engine. Events replayed from a periodic window's
    /// recorded lap (whole laps at once, or entry by entry; see
    /// `crate::dense`) are batched events too: each is one event the
    /// oracles handle one at a time.
    pub batched_events: u64,
    /// Dense windows entered: one per batch that advances through a
    /// window (every batch certifies its own at its start), plus one more
    /// per table switch crossed inside the batch (the window is certified
    /// afresh on the new table).
    pub batch_entries: u64,
    /// Dense windows exited (every entry exits; kept separately so a crash
    /// mid-batch would be visible as an imbalance).
    pub batch_exits: u64,
    /// Exits because the window reached its end: the run horizon or a
    /// table switch (the normal case).
    pub fallback_horizon: u64,
    /// Exits because a guest blocked mid-batch (the runnable set changed).
    pub fallback_block: u64,
    /// Entry attempts abandoned because the scheduler declined to produce
    /// a dense window (a staged install, level-2 work pending, ...).
    pub fallback_window: u64,
}

/// Whole-simulation statistics.
///
/// All of it is a function of the events *handled* — and a core timer
/// superseded by a later decision on its core is not one: the register-backed
/// engines overwrite it in its core's register, the reference heap discards
/// it when it surfaces, and neither counts it anywhere (here, in
/// `Sim::events_processed`, or in [`BatchStats::batched_events`]). Apart
/// from [`SimStats::batch`], every field is equal bit for bit under every
/// `EngineKind`.
///
/// A simulation sizes `vcpus` and `delay_hists` when each vCPU is added,
/// so the per-event paths index them without a grow check. Serialized,
/// both lists end at the last vCPU that ever recorded anything, as they
/// did while they grew on demand.
#[derive(Debug, Clone, Default, PartialEq, Eq, Deserialize)]
pub struct SimStats {
    /// Scheduler operation overheads.
    pub ops: OpStats,
    /// Per-vCPU accounting, indexed by vCPU id.
    pub vcpus: Vec<VcpuStats>,
    /// Per-vCPU scheduling-delay distributions, indexed by vCPU id.
    pub delay_hists: Vec<DelayHist>,
    /// Per-core busy time (guest execution only, not overhead).
    pub core_busy: Vec<Nanos>,
    /// Total IPIs sent.
    pub ipis: u64,
    /// Total context switches performed.
    pub context_switches: u64,
    /// Per-core wall time stolen by injected platform interference (see
    /// [`crate::fault`]).
    pub stolen_time: Vec<Nanos>,
    /// IPIs lost by fault injection (each is later re-delivered).
    pub ipis_lost: u64,
    /// Guest bursts that overran their declared demand (fault injection).
    pub overruns: u64,
    /// Total extra demand added by overruns.
    pub overrun_time: Nanos,
    /// Trace records dropped by the bounded trace ring buffer.
    pub trace_dropped: u64,
    /// Core outages injected (each takes one core out of service for a
    /// bounded interval).
    pub core_offline_events: u64,
    /// Per-core wall time spent out of service.
    pub core_offline_time: Vec<Nanos>,
    /// Dense-phase batching accounting (zero on the reference engines).
    #[serde(default)]
    pub batch: BatchStats,
}

impl Serialize for SimStats {
    fn to_value(&self) -> Value {
        let touched = self.vcpus.iter().rposition(|v| *v != VcpuStats::default());
        let sampled = self.delay_hists.iter().rposition(|h| h.count() > 0);
        let fields: [(&str, Value); 14] = [
            ("ops", self.ops.to_value()),
            (
                "vcpus",
                self.vcpus[..touched.map_or(0, |i| i + 1)].to_value(),
            ),
            (
                "delay_hists",
                self.delay_hists[..sampled.map_or(0, |i| i + 1)].to_value(),
            ),
            ("core_busy", self.core_busy.to_value()),
            ("ipis", self.ipis.to_value()),
            ("context_switches", self.context_switches.to_value()),
            ("stolen_time", self.stolen_time.to_value()),
            ("ipis_lost", self.ipis_lost.to_value()),
            ("overruns", self.overruns.to_value()),
            ("overrun_time", self.overrun_time.to_value()),
            ("trace_dropped", self.trace_dropped.to_value()),
            ("core_offline_events", self.core_offline_events.to_value()),
            ("core_offline_time", self.core_offline_time.to_value()),
            ("batch", self.batch.to_value()),
        ];
        Value::Map(fields.map(|(k, v)| (k.to_string(), v)).into())
    }
}

impl SimStats {
    /// Creates statistics for `n_cores` cores and no vCPU yet.
    pub fn new(n_cores: usize) -> SimStats {
        SimStats {
            core_busy: vec![Nanos::ZERO; n_cores],
            stolen_time: vec![Nanos::ZERO; n_cores],
            core_offline_time: vec![Nanos::ZERO; n_cores],
            ..SimStats::default()
        }
    }

    /// Sizes the per-vCPU slots for one more vCPU.
    pub(crate) fn add_vcpu(&mut self) {
        self.vcpus.push(VcpuStats::default());
        self.delay_hists.push(DelayHist::default());
    }

    /// The stats slot for `vcpu`, growing the vector as needed.
    pub fn vcpu_mut(&mut self, vcpu: VcpuId) -> &mut VcpuStats {
        let idx = vcpu.0 as usize;
        if self.vcpus.len() <= idx {
            self.vcpus.resize_with(idx + 1, VcpuStats::default);
        }
        &mut self.vcpus[idx]
    }

    /// The stats of `vcpu` (default-empty if never touched).
    pub fn vcpu(&self, vcpu: VcpuId) -> VcpuStats {
        self.vcpus.get(vcpu.0 as usize).copied().unwrap_or_default()
    }

    /// Records a dispatch-delay sample for `vcpu` (summary plus
    /// distribution), growing both lists as needed.
    pub fn record_delay(&mut self, vcpu: VcpuId, delay: Nanos) {
        let idx = vcpu.0 as usize;
        self.vcpu_mut(vcpu);
        if self.delay_hists.len() <= idx {
            self.delay_hists.resize_with(idx + 1, DelayHist::default);
        }
        self.sample_delay(idx, delay);
    }

    /// [`SimStats::record_delay`] for a vCPU whose slots exist (a
    /// simulation sizes them in `Sim::add_vcpu`).
    #[inline]
    pub(crate) fn sample_delay(&mut self, vcpu: usize, delay: Nanos) {
        self.vcpus[vcpu].record_delay(delay);
        self.delay_hists[vcpu].record(delay);
    }

    /// `n` samples of the same `delay` at once (a replayed table lap; see
    /// `crate::dense`).
    #[inline]
    pub(crate) fn sample_delay_n(&mut self, vcpu: usize, delay: Nanos, n: u64) {
        self.vcpus[vcpu].record_delay_n(delay, n);
        self.delay_hists[vcpu].record_n(delay, n);
    }

    /// The delay distribution of `vcpu` (empty if it never waited).
    pub fn delay_hist(&self, vcpu: VcpuId) -> DelayHist {
        self.delay_hists
            .get(vcpu.0 as usize)
            .cloned()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Nanos {
        Nanos::from_micros(v)
    }

    #[test]
    fn accumulator_math() {
        let mut a = OpAccumulator::default();
        a.record(us(2));
        a.record(us(4));
        assert_eq!(a.count, 2);
        assert_eq!(a.total, us(6));
        assert_eq!(a.max, us(4));
        assert!((a.mean_us() - 3.0).abs() < 1e-9);
        // `n` samples at once are `n` single ones.
        let mut b = a;
        a.record_n(us(3), 2);
        b.record(us(3));
        b.record(us(3));
        assert_eq!(a, b);
        a.record_n(us(9), 0);
        assert_eq!(a, b);
    }

    #[test]
    fn multiplied_delay_samples_are_repeated_ones() {
        let (mut once, mut repeated) = (SimStats::new(1), SimStats::new(1));
        for s in [&mut once, &mut repeated] {
            s.add_vcpu();
            s.sample_delay(0, us(700));
        }
        once.sample_delay_n(0, us(3), 4);
        once.sample_delay_n(0, us(9), 0);
        for _ in 0..4 {
            repeated.sample_delay(0, us(3));
        }
        assert_eq!(once, repeated);
        assert_eq!(once.vcpu(VcpuId(0)).delay_max, us(700));
        assert_eq!(once.delay_hist(VcpuId(0)).count(), 5);
    }

    #[test]
    fn empty_accumulator_mean_is_zero() {
        assert_eq!(OpAccumulator::default().mean_us(), 0.0);
    }

    #[test]
    fn op_stats_routing() {
        let mut s = OpStats::default();
        s.record(OpKind::Schedule, us(1));
        s.record(OpKind::Wakeup, us(2));
        s.record(OpKind::Deschedule, us(3));
        assert_eq!(s.get(OpKind::Schedule).total, us(1));
        assert_eq!(s.get(OpKind::Wakeup).total, us(2));
        assert_eq!(s.get(OpKind::Deschedule).total, us(3));
        assert_eq!(s.total_overhead(), us(6));
    }

    #[test]
    fn vcpu_delay_tracking() {
        let mut v = VcpuStats::default();
        v.record_delay(us(10));
        v.record_delay(us(30));
        assert_eq!(v.delay_max, us(30));
        assert_eq!(v.mean_delay(), us(20));
    }

    #[test]
    fn sim_stats_grow_on_demand() {
        let mut s = SimStats::new(2);
        s.vcpu_mut(VcpuId(5)).service += us(1);
        assert_eq!(s.vcpus.len(), 6);
        assert_eq!(s.vcpu(VcpuId(5)).service, us(1));
        assert_eq!(s.vcpu(VcpuId(9)).service, Nanos::ZERO);
    }

    #[test]
    fn delay_hist_buckets_by_magnitude() {
        let mut h = DelayHist::default();
        h.record(Nanos(0));
        h.record(Nanos(1_000)); // ~2^10
        h.record(Nanos(1_000_000)); // ~2^20
        h.record(Nanos(20_000_000)); // ~2^24
        assert_eq!(h.count(), 4);
        // Median sits at the microsecond-scale bucket.
        let p50 = h.quantile_upper(0.5);
        assert!(p50 >= Nanos(1_000) && p50 < Nanos(4_000), "{p50}");
        // The max bucket bounds the largest sample within 2x.
        let p100 = h.quantile_upper(1.0);
        assert!(p100 >= Nanos(20_000_000) && p100 < Nanos(67_108_864));
        // Tail mass above 1 ms: two samples.
        assert_eq!(h.count_at_least(Nanos(1_000_000)), 2);
    }

    #[test]
    fn empty_delay_hist() {
        let h = DelayHist::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_upper(0.99), Nanos::ZERO);
        assert_eq!(h.count_at_least(Nanos(1)), 0);
    }

    #[test]
    fn sim_stats_delay_recording_feeds_both_views() {
        let mut s = SimStats::new(1);
        s.record_delay(VcpuId(2), Nanos(5_000));
        s.record_delay(VcpuId(2), Nanos(15_000_000));
        assert_eq!(s.vcpu(VcpuId(2)).delay_count, 2);
        assert_eq!(s.vcpu(VcpuId(2)).delay_max, Nanos(15_000_000));
        assert_eq!(s.delay_hist(VcpuId(2)).count(), 2);
        assert_eq!(s.delay_hist(VcpuId(0)).count(), 0);
    }

    #[test]
    fn slots_sized_up_front_serialize_as_grown_ones() {
        let mut sized = SimStats::new(1);
        for _ in 0..4 {
            sized.add_vcpu();
        }
        let mut grown = SimStats::new(1);
        for s in [&mut sized, &mut grown] {
            s.record_delay(VcpuId(0), Nanos(5_000));
            s.vcpu_mut(VcpuId(2)).dispatches += 1;
        }
        assert_ne!(sized, grown);
        // The slots that never recorded anything are left out at the tail;
        // vCPU 1's stays, and histograms end at the last sampled one.
        let value = sized.to_value();
        assert_eq!(value, grown.to_value());
        let back = SimStats::from_value(&value).expect("round-trips");
        assert_eq!((back.vcpus.len(), back.delay_hists.len()), (3, 1));
        assert_eq!(back, grown);
        // An unsampled histogram carries no bucket at all.
        let empty = DelayHist::default().to_value();
        let buckets = Value::get_field(empty.as_map().unwrap(), "buckets");
        assert_eq!(buckets, Some(&Value::Seq(Vec::new())));
        assert_eq!(DelayHist::from_value(&empty).unwrap(), DelayHist::default());
    }

    #[test]
    fn op_labels_match_paper_rows() {
        assert_eq!(OpKind::Schedule.label(), "Schedule");
        assert_eq!(OpKind::Wakeup.label(), "Wakeup");
        assert_eq!(OpKind::Deschedule.label(), "Migrate");
    }
}
