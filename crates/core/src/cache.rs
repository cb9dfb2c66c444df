//! Plan caching for recurring configurations (Sec. 7.1).
//!
//! "It is trivially possible to centrally cache tables for common
//! configurations that are frequently reused" — cloud providers sell a
//! handful of regular VM sizes, so hosts across a fleet keep asking the
//! planner for the same table. [`PlanCache`] memoizes plans keyed by the
//! *semantic* configuration: core count, NUMA layout, per-VM vCPU grouping
//! and node pinning, the positional list of `(utilization, latency,
//! capped)` specs, **and** a canonical encoding of the [`PlannerOptions`]
//! the plan was computed under. VM names are irrelevant (vCPU ids are
//! positional), so renaming a fleet hits the cache; changing the options (a
//! conservative fallback rung, the peephole pass, a different coalescing
//! threshold) or the NUMA pinning must *miss* — a plan computed under a
//! different configuration is a different table, and serving it would
//! silently change the guarantees the tenant was sold.
//!
//! **Hit-path cost.** A lookup performs no allocation and builds no key:
//! the request is reduced to a 64-bit *content* fingerprint — its scalars
//! (core/NUMA counts, VM count, option scalars) and then every VM's
//! `(vcpus, numa_node)` and every vCPU's `(ppm, latency, capped)`, folded in
//! two independent multiply lanes so the walk is not one serial dependency
//! chain — the fingerprint indexes a bucket map hashed by identity, and the
//! candidate (one, barring a 64-bit collision) is confirmed by a *streaming*
//! comparison directly against the live `HostConfig`/`PlannerOptions`. The
//! walk is paid on every request — 0.2 µs for a 140-VM request that is
//! already in the CPU cache — and buys buckets of one. An earlier revision
//! hashed the scalars only, on the argument that every hashed word adds
//! multiplier latency to the hit path, so every shape of one VM count
//! shared a bucket that [`key_matches`] searched linearly; real churn is a
//! long tail of *distinct* same-sized shapes, and on the benchmark's (a
//! chain of 1 800 single-VM deltas on a ~140-VM host, `e2ebench`
//! `plan-ladder`) the median miss probe cost 77 µs and the median insert
//! 94 µs around a 364 µs delta replan, the median hit 3.9 µs. With the
//! content hash the same probe is 2.4 µs hash included, the hit 2.9 µs
//! (what is left is reading the request itself: ~280 cache lines of
//! `HostConfig`), the insert 18 µs (the evicted plan is freed inside it).
//! The full canonical [`Key`] — which owns vectors — is materialized only
//! when a brand-new slot is inserted on a miss, where its cost disappears
//! behind the planner run.
//!
//! **Insert cost.** Slots are append-only (a key keeps its counters for
//! life), but everything an insert scans is bounded by the capacity: the
//! cache keeps the indices of the slots that currently hold a plan, so
//! `len`, the LRU victim search and the warm path's "is anything evictable"
//! test cost the same on a stripe that has seen ten thousand shapes as on a
//! fresh one.
//!
//! Entries are shared via [`Arc`]; eviction is least-recently-used with a
//! fixed capacity and clears only the plan — the slot's key and its
//! lifetime hit count survive, so a shape that has ever served a request
//! stays out of a speculative warm's reach after it is evicted and planned
//! again.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

use rtsched::generator::Stage;

use crate::planner::{plan, Plan, PlanError, PlannerOptions};
use crate::vcpu::HostConfig;

/// Canonical encoding of [`PlannerOptions`].
///
/// Every field that can change the produced table participates; two option
/// values encode equal iff they drive the planner identically.
#[derive(Debug, Clone)]
struct OptionsKey {
    /// Hyperperiod of the candidate set.
    hyperperiod: u64,
    /// The candidate periods themselves (ascending, as stored).
    periods: Vec<u64>,
    /// Coalescing threshold in nanoseconds.
    coalesce_threshold: u64,
    /// `GenOptions::min_piece` in nanoseconds.
    min_piece: u64,
    /// `GenOptions::first_stage`, discretized.
    first_stage: u8,
    /// Whether the peephole pass runs.
    peephole: bool,
}

fn stage_code(stage: Stage) -> u8 {
    match stage {
        Stage::Partitioned => 0,
        Stage::SemiPartitioned => 1,
        Stage::Clustered => 2,
    }
}

impl OptionsKey {
    fn of(opts: &PlannerOptions) -> OptionsKey {
        OptionsKey {
            hyperperiod: opts.candidates.hyperperiod().as_nanos(),
            periods: opts
                .candidates
                .periods()
                .iter()
                .map(|p| p.as_nanos())
                .collect(),
            coalesce_threshold: opts.coalesce_threshold.as_nanos(),
            min_piece: opts.gen.min_piece.as_nanos(),
            first_stage: stage_code(opts.gen.first_stage),
            peephole: opts.peephole,
        }
    }
}

/// Semantic cache key of a `(host configuration, planner options)` pair.
///
/// Built only on slot insertion; the hit path compares requests against it
/// via [`key_matches`] without constructing one.
#[derive(Debug, Clone)]
struct Key {
    n_cores: usize,
    /// NUMA node count — it changes core striping and hence placement.
    numa_nodes: usize,
    /// Per-VM `(vcpu_count, numa_node)` shape: node pinning drives soft
    /// placement preferences, and grouping determines which vCPUs share a
    /// pin, so hosts with the same flat spec list but different VM
    /// boundaries or pins must not alias.
    vms: Vec<(usize, Option<usize>)>,
    /// Positional `(ppm, latency_ns, capped)` triples — positional because
    /// vCPU ids (and hence table contents) are positional.
    specs: Vec<(u32, u64, bool)>,
    /// The options the plan must have been computed under.
    opts: OptionsKey,
}

impl Key {
    fn of(host: &HostConfig, opts: &PlannerOptions) -> Key {
        Key {
            n_cores: host.n_cores,
            numa_nodes: host.numa_nodes,
            vms: host
                .vms
                .iter()
                .map(|vm| (vm.vcpus.len(), vm.numa_node))
                .collect(),
            specs: host
                .vcpus()
                .into_iter()
                .map(|(_, s)| (s.utilization.ppm(), s.latency.as_nanos(), s.capped))
                .collect(),
            opts: OptionsKey::of(opts),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_word(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// 64-bit hash of a request's scalars alone: core/NUMA/VM counts and the
/// option scalars. [`SharedPlanCache`] routes a request to its lock stripe
/// by this value — *not* by the content [`fingerprint`] — so that all shapes
/// of one size keep sharing a stripe (capacity is per stripe; deployments
/// size their recurring set against that routing).
fn scalar_hash(host: &HostConfig, opts: &PlannerOptions) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv_word(h, host.n_cores as u64);
    h = fnv_word(h, host.numa_nodes as u64);
    h = fnv_word(h, host.vms.len() as u64);
    h = fnv_word(h, opts.candidates.hyperperiod().as_nanos());
    h = fnv_word(h, opts.candidates.periods().len() as u64);
    h = fnv_word(h, opts.coalesce_threshold.as_nanos());
    h = fnv_word(h, opts.gen.min_piece.as_nanos());
    h = fnv_word(h, stage_code(opts.gen.first_stage) as u64);
    h = fnv_word(h, opts.peephole as u64);
    h
}

/// 64-bit content fingerprint of a request, the bucket-map key: the
/// [`scalar_hash`] extended by every VM's `(vcpus, numa_node)` and every
/// vCPU's `(ppm, latency, capped)`, in positional order (vCPU ids are
/// positional, so order is part of the key). No allocation. FNV's
/// xor-multiply chain is serial, so the words go down two independent lanes
/// — one word per VM in the first, one per vCPU in the second — and the
/// multiplier latencies overlap; the lanes are crossed at the end so each
/// half of the result depends on both. Distinct shapes land in distinct
/// buckets (up to a 64-bit collision, which [`key_matches`] resolves), so a
/// probe confirms one candidate however many same-sized shapes the cache has
/// seen.
fn fingerprint(host: &HostConfig, opts: &PlannerOptions) -> u64 {
    let mut a = scalar_hash(host, opts);
    let mut b = FNV_OFFSET;
    for vm in &host.vms {
        let node = vm.numa_node.map_or(0, |n| n as u64 + 1);
        a = fnv_word(a, (vm.vcpus.len() as u64) << 32 | node);
        for s in &vm.vcpus {
            // ppm <= 10^6 < 2^20: utilization and the cap bit fill the low
            // 21 bits, the latency (rotated, so none of it is lost) the rest.
            let sla = (s.utilization.ppm() as u64) << 1 | s.capped as u64;
            b = fnv_word(b, s.latency.as_nanos().rotate_left(21) ^ sla);
        }
    }
    a ^ b.rotate_left(32)
}

#[cfg(test)]
thread_local! {
    /// [`key_matches`] calls made by this thread (the crowded-index tests).
    static KEY_PROBES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Full equality between a stored key and a live request, streamed directly
/// off the request without building a [`Key`].
fn key_matches(key: &Key, host: &HostConfig, opts: &PlannerOptions) -> bool {
    #[cfg(test)]
    KEY_PROBES.with(|n| n.set(n.get() + 1));
    let o = &key.opts;
    if key.n_cores != host.n_cores
        || key.numa_nodes != host.numa_nodes
        || key.vms.len() != host.vms.len()
        || o.hyperperiod != opts.candidates.hyperperiod().as_nanos()
        || o.coalesce_threshold != opts.coalesce_threshold.as_nanos()
        || o.min_piece != opts.gen.min_piece.as_nanos()
        || o.first_stage != stage_code(opts.gen.first_stage)
        || o.peephole != opts.peephole
        || o.periods.len() != opts.candidates.periods().len()
    {
        return false;
    }
    // Branchless accumulate (no early exit) so the compiler can vectorize:
    // the standard candidate set has 186 entries and this runs on every hit.
    let periods_differ = o
        .periods
        .iter()
        .zip(opts.candidates.periods())
        .fold(0u64, |acc, (a, b)| acc | (a ^ b.as_nanos()));
    if periods_differ != 0 {
        return false;
    }
    // Single pass over the VMs covers both the grouping/pinning shape and
    // the flat positional spec list.
    let mut specs = key.specs.iter();
    for (k, vm) in key.vms.iter().zip(&host.vms) {
        if k.0 != vm.vcpus.len() || k.1 != vm.numa_node {
            return false;
        }
        for s in &vm.vcpus {
            match specs.next() {
                Some(&(ppm, latency, capped))
                    if ppm == s.utilization.ppm()
                        && latency == s.latency.as_nanos()
                        && capped == s.capped => {}
                _ => return false,
            }
        }
    }
    specs.next().is_none()
}

/// Pass-through hasher for the fingerprint bucket map: the key *is* already
/// a 64-bit hash, re-hashing it would only slow the hit path down.
#[derive(Default)]
struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("identity hasher only takes u64 keys");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

type BucketMap = HashMap<u64, Vec<u32>, BuildHasherDefault<IdentityHasher>>;

/// One cache slot. Slots are append-only: eviction clears `plan` but keeps
/// the key and its lifetime hit count.
#[derive(Debug)]
struct Slot {
    key: Key,
    plan: Option<Arc<Plan>>,
    used: u64,
    hits: u64,
}

/// Aggregate cache statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// Total hits across all keys.
    pub hits: u64,
    /// Total misses across all keys.
    pub misses: u64,
}

/// Speculative planner runs [`SharedPlanCache::warm_batch`] may spend per
/// warm epoch (see [`SharedPlanCache::begin_warm_epoch`]) before declining
/// further warms.
pub const DEFAULT_WARM_BUDGET: usize = 8;

/// An LRU cache of planner outputs.
#[derive(Debug)]
pub struct PlanCache {
    slots: Vec<Slot>,
    /// fingerprint -> indices into `slots` (collisions share a bucket).
    buckets: BucketMap,
    /// Indices of the slots currently holding a plan, in no particular
    /// order; at most `capacity` long, so nothing an insert scans grows
    /// with the slots ever created.
    live: Vec<u32>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    warmed: u64,
}

impl PlanCache {
    /// Creates a cache holding up to `capacity` plans.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            slots: Vec::new(),
            buckets: BucketMap::default(),
            live: Vec::new(),
            capacity: capacity.max(1),
            tick: 0,
            hits: 0,
            misses: 0,
            warmed: 0,
        }
    }

    /// Index of the slot matching `(host, opts)`, if one exists.
    fn find(&self, host: &HostConfig, opts: &PlannerOptions) -> Option<usize> {
        self.find_in(fingerprint(host, opts), host, opts)
    }

    fn find_in(&self, fp: u64, host: &HostConfig, opts: &PlannerOptions) -> Option<usize> {
        self.buckets.get(&fp).and_then(|bucket| {
            bucket
                .iter()
                .map(|&i| i as usize)
                .find(|&i| key_matches(&self.slots[i].key, host, opts))
        })
    }

    /// Index of the slot matching `(host, opts)`, created empty (no plan,
    /// zero counters) if the key is new.
    fn slot_for(&mut self, host: &HostConfig, opts: &PlannerOptions) -> usize {
        let fp = fingerprint(host, opts);
        if let Some(i) = self.find_in(fp, host, opts) {
            return i;
        }
        let idx = self.slots.len();
        self.slots.push(Slot {
            key: Key::of(host, opts),
            plan: None,
            used: 0,
            hits: 0,
        });
        self.buckets.entry(fp).or_default().push(idx as u32);
        idx
    }

    /// Stores `plan` in slot `idx` at the current tick. Filling an empty
    /// slot of a full cache first evicts the least-recently-used plan
    /// (clearing only the plan; the key keeps its counters) — among the
    /// never-hit ones only when `warm`.
    fn fill(&mut self, idx: usize, plan: Arc<Plan>, warm: bool) {
        if self.slots[idx].plan.is_none() {
            if self.live.len() >= self.capacity {
                let victim = (0..self.live.len())
                    .filter(|&at| !warm || self.slots[self.live[at] as usize].hits == 0)
                    .min_by_key(|&at| self.slots[self.live[at] as usize].used);
                if let Some(at) = victim {
                    let evicted = self.live.swap_remove(at);
                    self.slots[evicted as usize].plan = None;
                }
            }
            self.live.push(idx as u32);
        }
        let slot = &mut self.slots[idx];
        slot.plan = Some(plan);
        slot.used = self.tick;
    }

    /// Whether caching one more plan could only displace a plan that has
    /// served a real request — the condition under which a warm declines.
    fn full_of_proven_demand(&self) -> bool {
        self.live.len() >= self.capacity
            && !self.live.iter().any(|&i| self.slots[i as usize].hits == 0)
    }

    /// Hit-only probe: returns the cached plan for `(host, opts)` without
    /// ever invoking the planner. A hit refreshes recency and counts toward
    /// the hit statistics; an absence counts nothing — misses are charged
    /// by the entry point that actually plans ([`PlanCache::get_or_plan`]).
    pub fn lookup(&mut self, host: &HostConfig, opts: &PlannerOptions) -> Option<Arc<Plan>> {
        self.tick += 1;
        let i = self.find(host, opts)?;
        let tick = self.tick;
        let slot = &mut self.slots[i];
        let cached = slot.plan.clone()?;
        slot.used = tick;
        slot.hits += 1;
        self.hits += 1;
        Some(cached)
    }

    /// Stores `plan` under the key of `(host, opts)` without counting a
    /// request — the insert-without-request API for plans produced *outside*
    /// the cache (the delta-replanning path).
    ///
    /// The entry is keyed by the host's **new** shape: a delta-patched table
    /// never overwrites (or serves from) the pre-delta shape's entry, whose
    /// key still describes the old configuration. Inserting for a shape
    /// that already has an entry replaces that entry's plan.
    pub fn insert(&mut self, host: &HostConfig, opts: &PlannerOptions, plan: Arc<Plan>) {
        self.tick += 1;
        self.install(host, opts, plan, false);
    }

    /// Shared insertion path. A speculative install (`warm`) may only
    /// evict entries that have never served a hit; a demanded install
    /// evicts the least-recently-used filled slot unconditionally.
    fn install(&mut self, host: &HostConfig, opts: &PlannerOptions, plan: Arc<Plan>, warm: bool) {
        let idx = self.slot_for(host, opts);
        self.fill(idx, plan, warm);
    }

    /// The cached plan for `(host, opts)`, its recency refreshed but
    /// nothing counted — what a speculative warm does on finding its shape
    /// already cached: the entry must survive until the request it
    /// anticipates, and warming is not a request.
    fn refresh(&mut self, host: &HostConfig, opts: &PlannerOptions) -> Option<Arc<Plan>> {
        self.tick += 1;
        let i = self.find(host, opts)?;
        let tick = self.tick;
        let slot = &mut self.slots[i];
        let cached = slot.plan.clone()?;
        slot.used = tick;
        Some(cached)
    }

    /// Returns the cached plan for `(host, opts)`, planning (and caching)
    /// on miss. Plans computed under different [`PlannerOptions`] or NUMA
    /// layouts never alias, even for the same flat spec list.
    ///
    /// # Errors
    ///
    /// Propagates [`plan`]'s admission errors; failures are not cached (the
    /// miss counter still records the attempt).
    pub fn get_or_plan(
        &mut self,
        host: &HostConfig,
        opts: &PlannerOptions,
    ) -> Result<Arc<Plan>, PlanError> {
        if let Some(cached) = self.lookup(host, opts) {
            return Ok(cached);
        }
        // Miss: charged before planning, so a failed run still counts.
        let idx = self.slot_for(host, opts);
        self.misses += 1;

        let fresh = Arc::new(plan(host, opts)?);
        self.fill(idx, fresh.clone(), false);
        Ok(fresh)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Speculative planner runs whose plans were installed here (not
    /// counted as misses).
    pub fn warmed(&self) -> u64 {
        self.warmed
    }

    /// Aggregate hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// `true` if the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Lock stripes in a [`SharedPlanCache`] — a power of two so the
/// scalar hash's low bits route uniformly.
const SHARDS: usize = 8;

/// A lock-striped, shareable [`PlanCache`].
///
/// `SharedPlanCache` stripes the key space over [`SHARDS`] independently
/// locked [`PlanCache`]s, routed by the request's [`scalar_hash`] (a prefix
/// of the [`fingerprint`] the lookup computes): every method takes `&self`,
/// two requests for different stripes never contend, and two requests for
/// the *same* shape serialize on one stripe. The fleet control plane — the
/// one production caller — is single-threaded (DESIGN.md, "Why the planner
/// and the fleet step are single-threaded"), so today no two threads ever
/// touch the stripes; they stay because the routing decides which stripe's
/// capacity a shape competes for, and with it every eviction.
///
/// The speculative warm budget is **global** (one counter behind its own
/// mutex, not per stripe): `begin_warm_epoch` opens a fleet-wide allowance
/// of [`DEFAULT_WARM_BUDGET`] planner runs, so sharding cannot multiply
/// what a prediction storm may spend.
#[derive(Debug)]
pub struct SharedPlanCache {
    shards: Vec<Mutex<PlanCache>>,
    /// Planner runs spent by warms since the last `begin_warm_epoch`.
    warm_spent: Mutex<usize>,
}

impl SharedPlanCache {
    /// Creates a shared cache holding up to `capacity` plans overall. The
    /// capacity is divided evenly across stripes (rounded up, minimum one
    /// plan per stripe), so eviction pressure is per-stripe rather than
    /// global — a hot stripe can evict while a cold one has room.
    pub fn new(capacity: usize) -> SharedPlanCache {
        let per_shard = capacity.div_ceil(SHARDS).max(1);
        SharedPlanCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(PlanCache::new(per_shard)))
                .collect(),
            warm_spent: Mutex::new(0),
        }
    }

    /// The stripe a request routes to: a function of its scalars only, so
    /// same-sized shapes compete for one stripe's capacity whatever their
    /// VMs are.
    fn stripe_of(host: &HostConfig, opts: &PlannerOptions) -> usize {
        (scalar_hash(host, opts) as usize) & (SHARDS - 1)
    }

    fn shard(&self, host: &HostConfig, opts: &PlannerOptions) -> MutexGuard<'_, PlanCache> {
        self.shards[SharedPlanCache::stripe_of(host, opts)]
            .lock()
            .expect("plan cache stripe poisoned")
    }

    /// Opens a new warm epoch: [`SharedPlanCache::warm_batch`] may again
    /// spend up to [`DEFAULT_WARM_BUDGET`] planner runs. Callers draw the
    /// epoch boundary — the fleet control plane calls this once per control
    /// epoch, so a prediction storm can never monopolize an epoch with
    /// speculative planning.
    pub fn begin_warm_epoch(&self) {
        *self.warm_spent.lock().expect("warm state poisoned") = 0;
    }

    /// Reserves one planner run against the global warm budget.
    fn try_spend_warm(&self) -> bool {
        let mut spent = self.warm_spent.lock().expect("warm state poisoned");
        if *spent >= DEFAULT_WARM_BUDGET {
            return false;
        }
        *spent += 1;
        true
    }

    /// Returns a reserved planner run that was declined or failed.
    fn refund_warm(&self) {
        let mut spent = self.warm_spent.lock().expect("warm state poisoned");
        *spent = spent.saturating_sub(1);
    }

    /// Hit-only probe (see [`PlanCache::lookup`]).
    pub fn lookup(&self, host: &HostConfig, opts: &PlannerOptions) -> Option<Arc<Plan>> {
        self.shard(host, opts).lookup(host, opts)
    }

    /// Insert-without-request (see [`PlanCache::insert`]).
    pub fn insert(&self, host: &HostConfig, opts: &PlannerOptions, plan: Arc<Plan>) {
        self.shard(host, opts).insert(host, opts, plan);
    }

    /// Returns the cached plan, planning on miss (see
    /// [`PlanCache::get_or_plan`]). The planner runs under the stripe lock,
    /// so concurrent requests for the same shape plan once and hit once.
    ///
    /// # Errors
    ///
    /// Propagates [`plan`]'s admission errors; failures are not cached.
    pub fn get_or_plan(
        &self,
        host: &HostConfig,
        opts: &PlannerOptions,
    ) -> Result<Arc<Plan>, PlanError> {
        self.shard(host, opts).get_or_plan(host, opts)
    }

    /// Speculatively pre-plans a batch of shapes so the predicted requests
    /// hit, planning and installing the uncached ones in request order. Per
    /// shape the result is the warmed plan, or `None`
    /// when the shape was declined or its planner run failed — speculative
    /// failures are not actionable, so they are not surfaced as errors.
    ///
    /// Warming is not a request: nothing is counted as a hit or miss, and
    /// a shape already cached only has its recency refreshed (for free,
    /// even past the budget). Planner runs are tallied in
    /// [`SharedPlanCache::warmed`] and bounded: once the epoch's
    /// [`DEFAULT_WARM_BUDGET`] is spent (see
    /// [`SharedPlanCache::begin_warm_epoch`]) a warm is declined before any
    /// planning happens; a failed run hands its reservation back. A warm is
    /// likewise declined when caching its result could only evict an entry
    /// with demonstrated demand — speculation never displaces a plan that
    /// has served a real request.
    ///
    /// Decline decisions are taken up-front against the pre-batch stripe
    /// state; duplicate shapes in one batch plan once, with later
    /// occurrences served from the first one's install.
    pub fn warm_batch(
        &self,
        shapes: &[HostConfig],
        opts: &PlannerOptions,
    ) -> Vec<Option<Arc<Plan>>> {
        enum Triage {
            Done(Option<Arc<Plan>>),
            /// Plan this shape (budget already reserved).
            Plan,
            /// Duplicate of an earlier `Plan` entry; resolve after install.
            Dup,
        }
        let mut triage: Vec<Triage> = Vec::with_capacity(shapes.len());
        let mut planned_keys: Vec<Key> = Vec::new();
        for host in shapes {
            let mut shard = self.shard(host, opts);
            if let Some(cached) = shard.refresh(host, opts) {
                triage.push(Triage::Done(Some(cached)));
                continue;
            }
            if planned_keys.iter().any(|k| key_matches(k, host, opts)) {
                triage.push(Triage::Dup);
                continue;
            }
            if !self.try_spend_warm() {
                triage.push(Triage::Done(None));
                continue;
            }
            if shard.full_of_proven_demand() {
                self.refund_warm();
                triage.push(Triage::Done(None));
                continue;
            }
            planned_keys.push(Key::of(host, opts));
            triage.push(Triage::Plan);
        }

        // Plan and install, in request order (the planner is pure, so an
        // earlier install cannot change a later plan).
        for (i, host) in shapes.iter().enumerate() {
            if !matches!(triage[i], Triage::Plan) {
                continue;
            }
            match plan(host, opts) {
                Ok(p) => {
                    let p = Arc::new(p);
                    let mut shard = self.shard(host, opts);
                    shard.tick += 1;
                    shard.warmed += 1;
                    shard.install(host, opts, Arc::clone(&p), true);
                    triage[i] = Triage::Done(Some(p));
                }
                Err(_) => {
                    self.refund_warm();
                    triage[i] = Triage::Done(None);
                }
            }
        }
        triage
            .into_iter()
            .enumerate()
            .map(|(i, t)| match t {
                Triage::Done(p) => p,
                // Duplicates resolve against the now-installed first copy,
                // uncounted like any other warm of a cached shape.
                Triage::Dup => self.shard(&shapes[i], opts).refresh(&shapes[i], opts),
                Triage::Plan => unreachable!("every planned shape was installed"),
            })
            .collect()
    }

    /// Cache hits so far, across all stripes.
    pub fn hits(&self) -> u64 {
        self.fold(|c| c.hits())
    }

    /// Cache misses so far, across all stripes.
    pub fn misses(&self) -> u64 {
        self.fold(|c| c.misses())
    }

    /// Speculative planner runs performed, across all stripes.
    pub fn warmed(&self) -> u64 {
        self.fold(|c| c.warmed())
    }

    fn fold(&self, f: impl Fn(&PlanCache) -> u64) -> u64 {
        self.shards
            .iter()
            .map(|s| f(&s.lock().expect("plan cache stripe poisoned")))
            .sum()
    }

    /// Aggregate hit/miss statistics, across all stripes.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits(),
            misses: self.misses(),
        }
    }

    /// Number of cached plans across all stripes.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("plan cache stripe poisoned").len())
            .sum()
    }

    /// `true` if no stripe holds a plan.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postprocess::DEFAULT_THRESHOLD;
    use crate::vcpu::{Utilization, VcpuSpec, VmSpec};
    use rtsched::time::Nanos;

    fn host(n: usize, name_prefix: &str) -> HostConfig {
        let mut h = HostConfig::new(2);
        let spec = VcpuSpec::capped(Utilization::from_percent(25), Nanos::from_millis(20));
        for i in 0..n {
            h.add_vm(VmSpec::uniform(format!("{name_prefix}{i}"), 1, spec));
        }
        h
    }

    #[test]
    fn repeat_configurations_hit() {
        let mut cache = PlanCache::new(4);
        let opts = PlannerOptions::default();
        let a = cache.get_or_plan(&host(8, "a"), &opts).unwrap();
        let b = cache.get_or_plan(&host(8, "a"), &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn names_do_not_matter_specs_do() {
        let mut cache = PlanCache::new(4);
        let opts = PlannerOptions::default();
        let _ = cache.get_or_plan(&host(8, "prod"), &opts).unwrap();
        // Same shape, different names: hit.
        let _ = cache.get_or_plan(&host(8, "canary"), &opts).unwrap();
        assert_eq!(cache.hits(), 1);
        // Different VM count: miss.
        let _ = cache.get_or_plan(&host(6, "prod"), &opts).unwrap();
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn different_options_never_alias() {
        // The regression for the stale-plan collision: the same host under
        // two option sets must produce two distinct cache entries — the
        // peephole pass and a different coalescing threshold both change
        // the table, so serving the default-options plan would be wrong.
        let mut cache = PlanCache::new(8);
        let defaults = PlannerOptions::default();
        let peephole = PlannerOptions {
            peephole: true,
            ..PlannerOptions::default()
        };
        let coarse = PlannerOptions {
            coalesce_threshold: DEFAULT_THRESHOLD * 4,
            ..PlannerOptions::default()
        };

        let h = host(8, "vm");
        let a = cache.get_or_plan(&h, &defaults).unwrap();
        let b = cache.get_or_plan(&h, &peephole).unwrap();
        let c = cache.get_or_plan(&h, &coarse).unwrap();
        assert_eq!(cache.misses(), 3, "an option set aliased a cached plan");
        assert_eq!(cache.len(), 3);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));

        // And each option set hits its own entry on re-query.
        let b2 = cache.get_or_plan(&h, &peephole).unwrap();
        assert!(Arc::ptr_eq(&b, &b2));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn numa_layout_is_part_of_the_key() {
        // Same flat spec list, same core count — but different NUMA pinning
        // produces different placements, so these must not alias. This is a
        // regression test: the original key ignored NUMA entirely.
        let spec = VcpuSpec::capped(Utilization::from_percent(25), Nanos::from_millis(20));
        let mut pinned0 = HostConfig::with_numa(4, 2);
        let mut pinned1 = HostConfig::with_numa(4, 2);
        for i in 0..4 {
            pinned0.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec).on_node(0));
            pinned1.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec).on_node(1));
        }
        let mut cache = PlanCache::new(4);
        let opts = PlannerOptions::default();
        let _ = cache.get_or_plan(&pinned0, &opts).unwrap();
        let _ = cache.get_or_plan(&pinned1, &opts).unwrap();
        assert_eq!(cache.misses(), 2, "NUMA pinning aliased a cached plan");

        // Node count alone also discriminates (striping changes).
        let mut flat = HostConfig::new(4);
        for i in 0..4 {
            flat.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec).on_node(0));
        }
        let _ = cache.get_or_plan(&flat, &opts).unwrap();
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn vm_grouping_is_part_of_the_key() {
        // One VM with two vCPUs vs two single-vCPU VMs: the flat spec lists
        // are identical, but grouping determines which vCPUs share a NUMA
        // pin, so the cache keys them apart (conservatively, even unpinned).
        let spec = VcpuSpec::capped(Utilization::from_percent(25), Nanos::from_millis(20));
        let mut grouped = HostConfig::new(2);
        grouped.add_vm(VmSpec::uniform("a", 2, spec));
        let mut split = HostConfig::new(2);
        split.add_vm(VmSpec::uniform("a", 1, spec));
        split.add_vm(VmSpec::uniform("b", 1, spec));
        let mut cache = PlanCache::new(4);
        let opts = PlannerOptions::default();
        let _ = cache.get_or_plan(&grouped, &opts).unwrap();
        let _ = cache.get_or_plan(&split, &opts).unwrap();
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn lru_eviction_keeps_the_hot_entry() {
        let mut cache = PlanCache::new(2);
        let opts = PlannerOptions::default();
        let _ = cache.get_or_plan(&host(2, "a"), &opts).unwrap(); // A
        let _ = cache.get_or_plan(&host(4, "b"), &opts).unwrap(); // B
        let _ = cache.get_or_plan(&host(2, "a"), &opts).unwrap(); // touch A
        let _ = cache.get_or_plan(&host(6, "c"), &opts).unwrap(); // evicts B
        assert_eq!(cache.len(), 2);
        let _ = cache.get_or_plan(&host(2, "a"), &opts).unwrap();
        assert_eq!(cache.hits(), 2, "A was evicted instead of B");
    }

    #[test]
    fn evicted_keys_replan_but_keep_their_counters() {
        // One plan per stripe; same-sized shapes share a stripe.
        let cache = SharedPlanCache::new(1);
        let opts = PlannerOptions::default();
        let (a, b, c) = (salted_host(2, 0), salted_host(2, 1), salted_host(2, 2));
        let _ = cache.get_or_plan(&a, &opts).unwrap();
        let _ = cache.get_or_plan(&a, &opts).unwrap(); // A's one hit
        let _ = cache.get_or_plan(&b, &opts).unwrap(); // evicts A
        assert_eq!(cache.len(), 1);
        // A was evicted: asking again is a miss and a fresh planner run...
        let _ = cache.get_or_plan(&a, &opts).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 3));
        // ...but its key kept the hit it served before the eviction, so a
        // warm still may not displace it.
        assert_eq!(cache.warm_batch(&[c], &opts), vec![None]);
        assert!(
            cache.lookup(&a, &opts).is_some(),
            "eviction erased the key's history"
        );
    }

    #[test]
    fn failures_are_not_cached() {
        let mut cache = PlanCache::new(2);
        let opts = PlannerOptions::default();
        let over = host(9, "x"); // 9 * 25% on 2 cores
        assert!(cache.get_or_plan(&over, &opts).is_err());
        assert!(cache.is_empty());
        // The failed attempt still shows up as a miss.
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
    }

    #[test]
    fn delta_patched_plans_rekey_and_never_serve_the_stale_shape() {
        // Satellite regression: after a delta replan changes a host's shape,
        // the cache must serve the *new* shape from the delta-patched plan
        // and must never hand the pre-delta table back for it.
        let opts = PlannerOptions::default();
        let mut cache = PlanCache::new(8);
        let before = host(6, "vm");
        let mut after = before.clone();
        after.add_vm(VmSpec::uniform(
            "newcomer",
            1,
            VcpuSpec::capped(Utilization::from_percent(25), Nanos::from_millis(20)),
        ));

        let pre = cache.get_or_plan(&before, &opts).unwrap();
        let (patched, _) = crate::delta::plan_delta(&before, &pre, &after, &opts).unwrap();
        let patched = Arc::new(patched);
        cache.insert(&after, &opts, patched.clone());

        // The new shape resolves to the delta-patched plan...
        let got = cache.lookup(&after, &opts).unwrap();
        assert!(Arc::ptr_eq(&got, &patched));
        assert!(
            !Arc::ptr_eq(&got, &pre),
            "post-delta lookup served the pre-delta table"
        );
        // ...and the old shape's entry is intact, still serving its own plan.
        let old = cache.lookup(&before, &opts).unwrap();
        assert!(Arc::ptr_eq(&old, &pre));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lookup_is_hit_only_and_counts_no_misses() {
        let mut cache = PlanCache::new(4);
        let opts = PlannerOptions::default();
        assert!(cache.lookup(&host(4, "vm"), &opts).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        let _ = cache.get_or_plan(&host(4, "vm"), &opts).unwrap();
        let _ = cache.lookup(&host(4, "vm"), &opts).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn warming_prefills_without_counting_requests() {
        let cache = SharedPlanCache::new(32);
        let opts = PlannerOptions::default();
        let warmed = cache.warm_batch(&[host(6, "vm")], &opts).remove(0).unwrap();
        assert_eq!((cache.hits(), cache.misses(), cache.warmed()), (0, 0, 1));
        // Re-warming an already-cached shape plans nothing.
        let again = cache.warm_batch(&[host(6, "vm")], &opts).remove(0).unwrap();
        assert!(Arc::ptr_eq(&warmed, &again));
        assert_eq!(cache.warmed(), 1);
        // The predicted request is a plain hit.
        let served = cache.get_or_plan(&host(6, "vm"), &opts).unwrap();
        assert!(Arc::ptr_eq(&warmed, &served));
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
    }

    #[test]
    fn warming_respects_capacity() {
        let cache = SharedPlanCache::new(1);
        let opts = PlannerOptions::default();
        let _ = cache.warm_batch(&[salted_host(2, 0)], &opts);
        // The never-hit entry is fair game for a warm eviction.
        assert!(cache.warm_batch(&[salted_host(2, 1)], &opts)[0].is_some());
        assert_eq!(cache.len(), 1, "warming must evict, not grow unbounded");
    }

    /// Nine distinct small shapes — one more than [`DEFAULT_WARM_BUDGET`].
    /// The first eight route to eight different stripes.
    fn nine_shapes() -> Vec<HostConfig> {
        let mut shapes: Vec<HostConfig> = (1..=8).map(|n| salted_host(n, 0)).collect();
        shapes.push(salted_host(1, 1));
        shapes
    }

    #[test]
    fn warm_budget_caps_speculative_planning_per_epoch() {
        let cache = SharedPlanCache::new(64);
        let opts = PlannerOptions::default();
        let shapes = nine_shapes();
        let out = cache.warm_batch(&shapes, &opts);
        // Budget spent: the ninth distinct shape is declined, unplanned.
        assert!(out[..8].iter().all(|p| p.is_some()) && out[8].is_none());
        assert_eq!(cache.warmed(), DEFAULT_WARM_BUDGET as u64);
        // Already-cached shapes still warm for free past the budget.
        assert!(cache.warm_batch(&shapes[..1], &opts)[0].is_some());
        assert_eq!(cache.warmed(), 8);
        // A new epoch refills the budget.
        cache.begin_warm_epoch();
        assert!(cache.warm_batch(&shapes[8..], &opts)[0].is_some());
        assert_eq!(cache.warmed(), 9);
    }

    #[test]
    fn warm_never_evicts_an_entry_with_lifetime_hits() {
        let cache = SharedPlanCache::new(1);
        let opts = PlannerOptions::default();
        let (a, b) = (salted_host(2, 0), salted_host(2, 1));
        let served = cache.get_or_plan(&a, &opts).unwrap();
        let _ = cache.get_or_plan(&a, &opts).unwrap(); // 1 hit

        // The stripe's only evictable slot has proven demand: the warm is
        // declined before planning, and the hot entry survives.
        assert_eq!(
            cache.warm_batch(std::slice::from_ref(&b), &opts),
            vec![None]
        );
        assert_eq!(cache.warmed(), 0, "the declined warm spent no planner run");
        let still = cache.lookup(&a, &opts).unwrap();
        assert!(Arc::ptr_eq(&served, &still));
        // A demanded insert (get_or_plan) may still evict it — only
        // speculation is restricted.
        let _ = cache.get_or_plan(&b, &opts).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&a, &opts).is_none());
    }

    #[test]
    fn positional_order_is_part_of_the_key() {
        // Same multiset of specs, different order: the tables differ (vCPU
        // ids are positional), so these must be distinct entries.
        let mut h1 = HostConfig::new(2);
        h1.add_vm(VmSpec::uniform(
            "a",
            1,
            VcpuSpec::capped(Utilization::from_percent(50), Nanos::from_millis(20)),
        ));
        h1.add_vm(VmSpec::uniform(
            "b",
            1,
            VcpuSpec::capped(Utilization::from_percent(25), Nanos::from_millis(20)),
        ));
        let mut h2 = HostConfig::new(2);
        h2.add_vm(VmSpec::uniform(
            "a",
            1,
            VcpuSpec::capped(Utilization::from_percent(25), Nanos::from_millis(20)),
        ));
        h2.add_vm(VmSpec::uniform(
            "b",
            1,
            VcpuSpec::capped(Utilization::from_percent(50), Nanos::from_millis(20)),
        ));
        let mut cache = PlanCache::new(4);
        let opts = PlannerOptions::default();
        let _ = cache.get_or_plan(&h1, &opts).unwrap();
        let _ = cache.get_or_plan(&h2, &opts).unwrap();
        assert_eq!(cache.misses(), 2);
    }

    /// A 2-core host of `n` single-vCPU VMs; `salt` picks the utilizations,
    /// so equal `n` with different salts gives equal scalars, different VMs.
    fn salted_host(n: usize, salt: u32) -> HostConfig {
        let mut h = HostConfig::new(2);
        for i in 0..n as u32 {
            let u = Utilization::from_ppm(10_000 + salt * 16 + i);
            h.add_vm(VmSpec::uniform(
                format!("vm{i}"),
                1,
                VcpuSpec::capped(u, Nanos::from_millis(20)),
            ));
        }
        h
    }

    #[test]
    fn crowded_same_count_shapes_probe_at_most_two_candidates() {
        // 1 600 distinct shapes of one VM count: equal scalars, so one
        // stripe, and before the content fingerprint one bucket that every
        // lookup and insert searched linearly.
        let opts = PlannerOptions::default();
        let dummy = Arc::new(plan(&salted_host(4, 0), &opts).unwrap());
        let mut cache = PlanCache::new(32);
        for salt in 0..1600 {
            cache.insert(&salted_host(4, salt), &opts, dummy.clone());
        }
        assert_eq!(cache.len(), 32);
        assert_eq!(cache.slots.len(), 1600);

        let probes = |f: &mut dyn FnMut()| {
            let before = KEY_PROBES.with(|n| n.get());
            f();
            KEY_PROBES.with(|n| n.get()) - before
        };
        // A hit, a lookup of an evicted shape, a lookup and an insert of a
        // shape never seen, a re-insert of a resident one.
        assert!(probes(&mut || assert!(cache.lookup(&salted_host(4, 1599), &opts).is_some())) <= 2);
        assert!(probes(&mut || assert!(cache.lookup(&salted_host(4, 0), &opts).is_none())) <= 2);
        assert!(probes(&mut || assert!(cache.lookup(&salted_host(4, 1600), &opts).is_none())) <= 2);
        assert!(probes(&mut || cache.insert(&salted_host(4, 1600), &opts, dummy.clone())) <= 2);
        assert!(probes(&mut || cache.insert(&salted_host(4, 1599), &opts, dummy.clone())) <= 2);
        assert_eq!(cache.len(), 32);
        // LRU order is untouched by the index: the oldest resident went.
        assert!(cache.lookup(&salted_host(4, 1568), &opts).is_none());
        assert!(cache.lookup(&salted_host(4, 1569), &opts).is_some());
    }

    /// Stripes of the 1..=8-VM `salted_host`s under default options, read
    /// off the revision whose buckets and stripes shared one scalar hash.
    const STRIPES_BEFORE: [usize; 8] = [5, 4, 7, 6, 1, 0, 3, 2];

    #[test]
    fn stripe_is_picked_by_the_scalars_not_the_vms() {
        // Deployments size their recurring set against stripes picked by VM
        // count (the benchmark's 176 recurring shapes are): equal scalars
        // must keep meaning equal stripe, and the routing itself is pinned
        // to the values it had when buckets were keyed by the same hash.
        let opts = PlannerOptions::default();
        for n in [2usize, 5, 8] {
            let stripe = SharedPlanCache::stripe_of(&salted_host(n, 0), &opts);
            for salt in 1..40 {
                let other = salted_host(n, salt);
                assert_ne!(
                    fingerprint(&other, &opts),
                    fingerprint(&salted_host(n, 0), &opts)
                );
                assert_eq!(SharedPlanCache::stripe_of(&other, &opts), stripe);
            }
        }
        let stripes: Vec<usize> = (1..=8)
            .map(|n| SharedPlanCache::stripe_of(&salted_host(n, 0), &opts))
            .collect();
        assert_eq!(stripes, STRIPES_BEFORE);
    }

    #[test]
    fn shared_cache_hits_and_counts_like_the_sequential_one() {
        let cache = SharedPlanCache::new(16);
        let opts = PlannerOptions::default();
        let a = cache.get_or_plan(&host(8, "a"), &opts).unwrap();
        let b = cache.get_or_plan(&host(8, "b"), &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "names must not split the key");
        let _ = cache.get_or_plan(&host(6, "c"), &opts).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        assert_eq!(cache.len(), 2);
        // lookup is hit-only; insert stores without counting.
        assert!(cache.lookup(&host(4, "d"), &opts).is_none());
        cache.insert(&host(4, "d"), &opts, a.clone());
        assert!(cache.lookup(&host(4, "d"), &opts).is_some());
        assert_eq!(cache.misses(), 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (cache.hits(), cache.misses()));
    }

    #[test]
    fn shared_cache_is_usable_from_threads() {
        // Eight threads hammer two shapes through `&self`; totals must come
        // out exact (each shape plans once, every other request hits).
        let cache = SharedPlanCache::new(16);
        let opts = PlannerOptions::default();
        std::thread::scope(|s| {
            for t in 0..8usize {
                let cache = &cache;
                let opts = &opts;
                s.spawn(move || {
                    let shape = if t % 2 == 0 { 4 } else { 6 };
                    for _ in 0..4 {
                        let _ = cache.get_or_plan(&host(shape, "vm"), opts).unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.misses(), 2, "each shape plans exactly once");
        assert_eq!(cache.hits(), 30);
    }

    #[test]
    fn shared_warm_budget_is_global_across_stripes() {
        let cache = SharedPlanCache::new(64);
        let opts = PlannerOptions::default();
        let shapes = nine_shapes();
        let mut stripes: Vec<usize> = shapes[..8]
            .iter()
            .map(|h| SharedPlanCache::stripe_of(h, &opts))
            .collect();
        stripes.sort_unstable();
        assert_eq!(stripes, (0..SHARDS).collect::<Vec<_>>());
        // One warm per stripe, each its own batch: every stripe has room,
        // but the budget they share is spent, so the ninth declines.
        for shape in &shapes[..8] {
            assert!(cache.warm_batch(std::slice::from_ref(shape), &opts)[0].is_some());
        }
        assert_eq!(cache.warm_batch(&shapes[8..], &opts), vec![None]);
        assert_eq!(cache.warmed(), 8);
    }

    #[test]
    fn warm_batch_plans_uncached_shapes_and_respects_the_budget() {
        let cache = SharedPlanCache::new(64);
        let opts = PlannerOptions::default();
        // Pre-cache one shape: it must resolve without spending budget.
        let cached = cache.get_or_plan(&host(2, "a"), &opts).unwrap();
        let mut shapes = vec![host(2, "a"), host(4, "b"), host(4, "x")];
        shapes.extend(nine_shapes().split_off(2));
        let out = cache.warm_batch(&shapes, &opts);
        assert_eq!(out.len(), 10);
        assert!(Arc::ptr_eq(out[0].as_ref().unwrap(), &cached));
        // "b" plans; "x" is the same shape (a duplicate) and resolves from
        // b's install without a second planner run; seven more shapes then
        // still fit the budget.
        assert!(out.iter().all(|p| p.is_some()));
        assert!(Arc::ptr_eq(
            out[1].as_ref().unwrap(),
            out[2].as_ref().unwrap()
        ));
        assert_eq!(cache.warmed(), 8);
        // The budget is spent: a further distinct shape declines.
        assert_eq!(cache.warm_batch(&[host(8, "d")], &opts), vec![None]);
        // And batch results serve later requests as plain hits.
        let hits_before = cache.hits();
        let _ = cache.get_or_plan(&host(4, "b"), &opts).unwrap();
        assert_eq!(cache.hits(), hits_before + 1);
    }

    #[test]
    fn warm_batch_duplicates_are_not_counted_as_requests() {
        // One plan per stripe; same-sized shapes share a stripe.
        let cache = SharedPlanCache::new(1);
        let opts = PlannerOptions::default();
        let a = salted_host(2, 0);
        let out = cache.warm_batch(&[a.clone(), a.clone()], &opts);
        assert!(Arc::ptr_eq(
            out[0].as_ref().unwrap(),
            out[1].as_ref().unwrap()
        ));
        assert_eq!((cache.hits(), cache.warmed()), (0, 1));
        // Nobody has asked for the entry yet, so a later warm may evict it.
        assert!(cache.warm_batch(&[salted_host(2, 1)], &opts)[0].is_some());
        assert!(cache.lookup(&a, &opts).is_none());
    }

    #[test]
    fn warm_batch_failures_refund_the_budget() {
        let cache = SharedPlanCache::new(64);
        let opts = PlannerOptions::default();
        // 9 * 25% on 2 cores is infeasible: the run fails, nothing is
        // cached, and the reserved budget comes back — the epoch still has
        // all eight runs to spend.
        let out = cache.warm_batch(&[host(9, "x")], &opts);
        assert_eq!(out, vec![None]);
        assert_eq!(cache.warmed(), 0);
        assert!(cache.is_empty());
        let out = cache.warm_batch(&nine_shapes()[..8], &opts);
        assert!(out.iter().all(|p| p.is_some()));
    }
}
