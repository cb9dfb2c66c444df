//! Plan caching for recurring configurations (Sec. 7.1).
//!
//! "It is trivially possible to centrally cache tables for common
//! configurations that are frequently reused" — cloud providers sell a
//! handful of regular VM sizes, so hosts across a fleet keep asking the
//! planner for the same table. [`SharedPlanCache`] memoizes plans keyed by
//! the *semantic* configuration: core count, per-VM vCPU counts, the
//! positional list of `(utilization, latency, capped)` specs, **and** a
//! canonical encoding of the [`PlannerOptions`] the plan was computed
//! under. VM names are irrelevant (vCPU ids are positional), so renaming a
//! fleet hits the cache; changing the options (the peephole pass, another
//! first generator stage) must *miss* — a plan computed under a different
//! configuration is a different table, and serving it would silently change
//! the guarantees the tenant was sold. The period menu and the coalescing
//! threshold are constants of the planner, not part of the key.
//!
//! **Hit-path cost.** A lookup performs no allocation and builds no key:
//! the request is reduced to a 64-bit *content* fingerprint — its scalars
//! (core count, VM count, option scalars) and then every VM's vCPU count
//! and every vCPU's `(ppm, latency, capped)`, folded in
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
//! when a new key is stored, where its cost disappears behind the planner
//! run.
//!
//! **One LRU under one lock.** The cache holds exactly `capacity` plans,
//! shared via [`Arc`], and evicts the least recently used. An evicted key
//! is forgotten: its slot is reused for the incoming key, so the slots, the
//! bucket map and the victim search are all bounded by the capacity. Every
//! method takes `&self` behind one `Mutex`; the fleet control plane, the one
//! production caller, is single-threaded (DESIGN.md §5.15). DESIGN.md §5.17
//! says why there is no speculative pre-planner and no lock striping.

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
#[derive(Debug)]
struct OptionsKey {
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
            min_piece: opts.gen.min_piece.as_nanos(),
            first_stage: stage_code(opts.gen.first_stage),
            peephole: opts.peephole,
        }
    }
}

/// Semantic cache key of a `(host configuration, planner options)` pair.
///
/// Built only when a new key is stored; the hit path compares requests
/// against it via [`key_matches`] without constructing one.
#[derive(Debug)]
struct Key {
    n_cores: usize,
    /// Per-VM vCPU counts. The planner reads only the flat spec list, so
    /// the grouping cannot change a plan; it is kept conservatively, and
    /// hosts that group the same vCPUs differently do not alias.
    vms: Vec<usize>,
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
            vms: host.vms.iter().map(|vm| vm.vcpus.len()).collect(),
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

/// 64-bit content fingerprint of a request, the bucket-map key: the
/// request's scalars (core and VM counts, option scalars), then every VM's
/// vCPU count and every vCPU's `(ppm, latency, capped)`, in
/// positional order (vCPU ids are positional, so order is part of the key).
/// No allocation. FNV's xor-multiply chain is serial, so the words go down
/// two independent lanes — the scalars and one word per VM in the first,
/// one per vCPU in the second — and the multiplier latencies overlap; the
/// lanes are crossed at the end so each half of the result depends on both.
/// Distinct shapes land in distinct buckets (up to a 64-bit collision,
/// which [`key_matches`] resolves), so a probe confirms one candidate
/// however many same-sized shapes share the cache.
fn fingerprint(host: &HostConfig, opts: &PlannerOptions) -> u64 {
    let mut a = FNV_OFFSET;
    for w in [
        host.n_cores as u64,
        host.vms.len() as u64,
        opts.gen.min_piece.as_nanos(),
        stage_code(opts.gen.first_stage) as u64,
        opts.peephole as u64,
    ] {
        a = fnv_word(a, w);
    }
    let mut b = FNV_OFFSET;
    for vm in &host.vms {
        a = fnv_word(a, vm.vcpus.len() as u64);
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
        || key.vms.len() != host.vms.len()
        || o.min_piece != opts.gen.min_piece.as_nanos()
        || o.first_stage != stage_code(opts.gen.first_stage)
        || o.peephole != opts.peephole
    {
        return false;
    }
    // Single pass over the VMs covers both the grouping and the flat
    // positional spec list.
    let mut specs = key.specs.iter();
    for (&vcpus, vm) in key.vms.iter().zip(&host.vms) {
        if vcpus != vm.vcpus.len() {
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

/// One resident plan and the key it was planned for.
#[derive(Debug)]
struct Slot {
    key: Key,
    /// The key's [`fingerprint`]: which bucket to leave on eviction.
    fp: u64,
    plan: Arc<Plan>,
    /// Tick of the last hit or store.
    used: u64,
}

/// Aggregate cache statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// Total hits across all keys.
    pub hits: u64,
    /// Total misses across all keys.
    pub misses: u64,
}

/// The LRU behind [`SharedPlanCache`]'s lock.
#[derive(Debug)]
struct Lru {
    /// At most `capacity` long: a new key past it takes the least recently
    /// used slot.
    slots: Vec<Slot>,
    /// fingerprint -> indices into `slots` (collisions share a bucket).
    buckets: BucketMap,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Lru {
    fn find(&self, fp: u64, host: &HostConfig, opts: &PlannerOptions) -> Option<usize> {
        self.buckets.get(&fp).and_then(|bucket| {
            bucket
                .iter()
                .map(|&i| i as usize)
                .find(|&i| key_matches(&self.slots[i].key, host, opts))
        })
    }

    /// The resident plan for `(host, opts)`, its recency refreshed and the
    /// hit counted; an absence counts nothing.
    fn hit(&mut self, fp: u64, host: &HostConfig, opts: &PlannerOptions) -> Option<Arc<Plan>> {
        self.tick += 1;
        let i = self.find(fp, host, opts)?;
        let slot = &mut self.slots[i];
        slot.used = self.tick;
        self.hits += 1;
        Some(Arc::clone(&slot.plan))
    }

    /// Stores `plan` under `(host, opts)`: a resident key has its plan
    /// replaced, a new one takes a free slot or evicts the least recently
    /// used key and reuses its slot.
    fn store(&mut self, fp: u64, host: &HostConfig, opts: &PlannerOptions, plan: Arc<Plan>) {
        self.tick += 1;
        if let Some(i) = self.find(fp, host, opts) {
            let slot = &mut self.slots[i];
            slot.plan = plan;
            slot.used = self.tick;
            return;
        }
        let slot = Slot {
            key: Key::of(host, opts),
            fp,
            plan,
            used: self.tick,
        };
        let i = if self.slots.len() < self.capacity {
            self.slots.push(slot);
            self.slots.len() - 1
        } else {
            let (i, _) = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.used)
                .expect("capacity is at least one");
            let evicted = std::mem::replace(&mut self.slots[i], slot);
            let bucket = self
                .buckets
                .get_mut(&evicted.fp)
                .expect("a resident key is in its bucket");
            bucket.retain(|&j| j as usize != i);
            if bucket.is_empty() {
                self.buckets.remove(&evicted.fp);
            }
            i
        };
        self.buckets.entry(fp).or_default().push(i as u32);
    }
}

/// The plan cache: one LRU of at most `capacity` plans behind one lock,
/// shareable by reference (every method takes `&self`).
#[derive(Debug)]
pub struct SharedPlanCache {
    lru: Mutex<Lru>,
}

impl SharedPlanCache {
    /// Creates a cache holding at most `capacity` plans (at least one).
    pub fn new(capacity: usize) -> SharedPlanCache {
        SharedPlanCache {
            lru: Mutex::new(Lru {
                slots: Vec::new(),
                buckets: BucketMap::default(),
                capacity: capacity.max(1),
                tick: 0,
                hits: 0,
                misses: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().expect("plan cache poisoned")
    }

    /// Hit-only probe: returns the cached plan for `(host, opts)` without
    /// ever invoking the planner. A hit refreshes recency and counts toward
    /// the hit statistics; an absence counts nothing — misses are charged
    /// by the entry point that actually plans
    /// ([`SharedPlanCache::get_or_plan`]).
    pub fn lookup(&self, host: &HostConfig, opts: &PlannerOptions) -> Option<Arc<Plan>> {
        self.lock().hit(fingerprint(host, opts), host, opts)
    }

    /// Stores `plan` under the key of `(host, opts)` without counting a
    /// request — the insert-without-request API for plans produced *outside*
    /// the cache (a replan from a donor).
    ///
    /// The entry is keyed by the host's **new** shape: a table spliced from a
    /// donor never overwrites (or serves from) the donor shape's entry, whose
    /// key still describes the old configuration. Inserting for a shape
    /// that already has an entry replaces that entry's plan.
    pub fn insert(&self, host: &HostConfig, opts: &PlannerOptions, plan: Arc<Plan>) {
        self.lock().store(fingerprint(host, opts), host, opts, plan);
    }

    /// Returns the cached plan for `(host, opts)`, planning (and caching)
    /// on miss. Plans computed under different [`PlannerOptions`] never
    /// alias, even for the same host. The planner
    /// runs under the lock, so concurrent requests for one shape plan once.
    ///
    /// # Errors
    ///
    /// Propagates [`plan`]'s admission errors; a failure stores nothing
    /// (the miss counter still records the attempt).
    pub fn get_or_plan(
        &self,
        host: &HostConfig,
        opts: &PlannerOptions,
    ) -> Result<Arc<Plan>, PlanError> {
        let fp = fingerprint(host, opts);
        let mut lru = self.lock();
        if let Some(cached) = lru.hit(fp, host, opts) {
            return Ok(cached);
        }
        lru.misses += 1;
        let fresh = Arc::new(plan(host, opts)?);
        lru.store(fp, host, opts, Arc::clone(&fresh));
        Ok(fresh)
    }

    /// Counts a miss for `(host, opts)` that the caller planned itself, as
    /// [`SharedPlanCache::get_or_plan`] counts its own, and stores `plan`
    /// under the key; `None` (planning failed) stores nothing. For a caller
    /// whose planner run may also produce the plan by other means (the
    /// fleet's replan, which offers the running plan as a donor).
    pub fn record_miss(&self, host: &HostConfig, opts: &PlannerOptions, plan: Option<Arc<Plan>>) {
        let mut lru = self.lock();
        lru.misses += 1;
        if let Some(plan) = plan {
            lru.store(fingerprint(host, opts), host, opts, plan);
        }
    }

    /// Aggregate hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        let lru = self.lock();
        CacheStats {
            hits: lru.hits,
            misses: lru.misses,
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.lock().slots.len()
    }

    /// `true` if the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcpu::{Utilization, VcpuSpec, VmSpec};
    use rtsched::generator::GenOptions;
    use rtsched::time::Nanos;

    fn host(n: usize, name_prefix: &str) -> HostConfig {
        let mut h = HostConfig::new(2);
        let spec = VcpuSpec::capped(Utilization::from_percent(25), Nanos::from_millis(20));
        for i in 0..n {
            h.add_vm(VmSpec::uniform(format!("{name_prefix}{i}"), 1, spec));
        }
        h
    }

    fn counts(cache: &SharedPlanCache) -> (u64, u64) {
        let s = cache.stats();
        (s.hits, s.misses)
    }

    #[test]
    fn repeat_configurations_hit() {
        let cache = SharedPlanCache::new(4);
        let opts = PlannerOptions::default();
        let a = cache.get_or_plan(&host(8, "a"), &opts).unwrap();
        let b = cache.get_or_plan(&host(8, "a"), &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(counts(&cache), (1, 1));
    }

    #[test]
    fn names_do_not_matter_specs_do() {
        let cache = SharedPlanCache::new(4);
        let opts = PlannerOptions::default();
        let _ = cache.get_or_plan(&host(8, "prod"), &opts).unwrap();
        // Same shape, different names: hit.
        let _ = cache.get_or_plan(&host(8, "canary"), &opts).unwrap();
        assert_eq!(counts(&cache), (1, 1));
        // Different VM count: miss.
        let _ = cache.get_or_plan(&host(6, "prod"), &opts).unwrap();
        assert_eq!(counts(&cache), (1, 2));
    }

    #[test]
    fn different_options_never_alias() {
        // The regression for the stale-plan collision: the same host under
        // three option sets must produce three distinct cache entries — the
        // peephole pass and a clustered first stage both may change the
        // table, so serving the default-options plan would be wrong.
        let cache = SharedPlanCache::new(8);
        let defaults = PlannerOptions::default();
        let peephole = PlannerOptions {
            peephole: true,
            ..PlannerOptions::default()
        };
        let clustered = PlannerOptions {
            gen: GenOptions {
                first_stage: Stage::Clustered,
                ..GenOptions::default()
            },
            ..PlannerOptions::default()
        };

        let h = host(8, "vm");
        let a = cache.get_or_plan(&h, &defaults).unwrap();
        let b = cache.get_or_plan(&h, &peephole).unwrap();
        let c = cache.get_or_plan(&h, &clustered).unwrap();
        assert_eq!(
            counts(&cache),
            (0, 3),
            "an option set aliased a cached plan"
        );
        assert_eq!(cache.len(), 3);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));

        // And each option set hits its own entry on re-query.
        let b2 = cache.get_or_plan(&h, &peephole).unwrap();
        assert!(Arc::ptr_eq(&b, &b2));
        assert_eq!(counts(&cache), (1, 3));
    }

    #[test]
    fn vm_grouping_is_part_of_the_key() {
        // One VM with two vCPUs vs two single-vCPU VMs: the flat spec lists
        // are identical, and so are the plans (the planner reads only the
        // flat list; `prop_planner` holds that). The cache keeps the
        // grouping word conservatively and keys them apart.
        let spec = VcpuSpec::capped(Utilization::from_percent(25), Nanos::from_millis(20));
        let mut grouped = HostConfig::new(2);
        grouped.add_vm(VmSpec::uniform("a", 2, spec));
        let mut split = HostConfig::new(2);
        split.add_vm(VmSpec::uniform("a", 1, spec));
        split.add_vm(VmSpec::uniform("b", 1, spec));
        let cache = SharedPlanCache::new(4);
        let opts = PlannerOptions::default();
        let _ = cache.get_or_plan(&grouped, &opts).unwrap();
        let _ = cache.get_or_plan(&split, &opts).unwrap();
        assert_eq!(counts(&cache), (0, 2));
    }

    #[test]
    fn positional_order_is_part_of_the_key() {
        // Same multiset of specs, different order: the tables differ (vCPU
        // ids are positional), so these must be distinct entries.
        let spec = |pct| VcpuSpec::capped(Utilization::from_percent(pct), Nanos::from_millis(20));
        let mut h1 = HostConfig::new(2);
        h1.add_vm(VmSpec::uniform("a", 1, spec(50)));
        h1.add_vm(VmSpec::uniform("b", 1, spec(25)));
        let mut h2 = HostConfig::new(2);
        h2.add_vm(VmSpec::uniform("a", 1, spec(25)));
        h2.add_vm(VmSpec::uniform("b", 1, spec(50)));
        let cache = SharedPlanCache::new(4);
        let opts = PlannerOptions::default();
        let _ = cache.get_or_plan(&h1, &opts).unwrap();
        let _ = cache.get_or_plan(&h2, &opts).unwrap();
        assert_eq!(counts(&cache), (0, 2));
    }

    #[test]
    fn lru_eviction_keeps_the_hot_entry() {
        let cache = SharedPlanCache::new(2);
        let opts = PlannerOptions::default();
        let _ = cache.get_or_plan(&host(2, "a"), &opts).unwrap(); // A
        let _ = cache.get_or_plan(&host(4, "b"), &opts).unwrap(); // B
        let _ = cache.get_or_plan(&host(2, "a"), &opts).unwrap(); // touch A
        let _ = cache.get_or_plan(&host(6, "c"), &opts).unwrap(); // evicts B
        assert_eq!(cache.len(), 2);
        let _ = cache.get_or_plan(&host(2, "a"), &opts).unwrap();
        assert_eq!(counts(&cache).0, 2, "A was evicted instead of B");
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
    fn capacity_is_a_hard_bound() {
        // Eight shapes of eight different sizes: a cache of one holds one
        // plan after every store, whatever the shapes' sizes.
        let cache = SharedPlanCache::new(1);
        let opts = PlannerOptions::default();
        for n in 1..=8 {
            let _ = cache.get_or_plan(&salted_host(n, 0), &opts).unwrap();
            assert_eq!(cache.len(), 1, "after the {n}-VM shape");
        }
        cache.insert(
            &salted_host(2, 1),
            &opts,
            cache.lookup(&salted_host(8, 0), &opts).unwrap(),
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lock().buckets.len(), 1);
    }

    #[test]
    fn evicted_keys_replan_and_are_forgotten() {
        let cache = SharedPlanCache::new(1);
        let opts = PlannerOptions::default();
        let (a, b) = (salted_host(2, 0), salted_host(2, 1));
        let first = cache.get_or_plan(&a, &opts).unwrap();
        let _ = cache.get_or_plan(&a, &opts).unwrap(); // A's one hit
        let _ = cache.get_or_plan(&b, &opts).unwrap(); // evicts A
        assert!(cache.lookup(&a, &opts).is_none());
        // A was evicted: asking again is a miss and a fresh planner run,
        // which evicts B in turn.
        let again = cache.get_or_plan(&a, &opts).unwrap();
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(counts(&cache), (1, 3));
        assert!(cache.lookup(&b, &opts).is_none());
        // Nothing of an evicted key stays behind.
        let lru = cache.lock();
        assert_eq!((lru.slots.len(), lru.buckets.len()), (1, 1));
    }

    #[test]
    fn failures_are_not_cached() {
        let cache = SharedPlanCache::new(2);
        let opts = PlannerOptions::default();
        let over = host(9, "x"); // 9 * 25% on 2 cores
        assert!(cache.get_or_plan(&over, &opts).is_err());
        assert!(cache.is_empty());
        assert!(cache.lock().buckets.is_empty());
        // The failed attempt still shows up as a miss.
        assert_eq!(counts(&cache), (0, 1));
    }

    #[test]
    fn delta_patched_plans_rekey_and_never_serve_the_stale_shape() {
        // Satellite regression: after a delta replan changes a host's shape,
        // the cache must serve the *new* shape from the delta-patched plan
        // and must never hand the pre-delta table back for it.
        let opts = PlannerOptions::default();
        let cache = SharedPlanCache::new(8);
        let before = host(6, "vm");
        let mut after = before.clone();
        after.add_vm(VmSpec::uniform(
            "newcomer",
            1,
            VcpuSpec::capped(Utilization::from_percent(25), Nanos::from_millis(20)),
        ));

        let pre = cache.get_or_plan(&before, &opts).unwrap();
        let out = crate::planner::plan_with_fallback(Some((&before, &pre)), &after, &opts).unwrap();
        assert_eq!(out.path, crate::planner::ReplanPath::Delta);
        let patched = Arc::new(out.plan);
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
        let cache = SharedPlanCache::new(4);
        let opts = PlannerOptions::default();
        assert!(cache.lookup(&host(4, "vm"), &opts).is_none());
        assert_eq!(counts(&cache), (0, 0));
        let _ = cache.get_or_plan(&host(4, "vm"), &opts).unwrap();
        let _ = cache.lookup(&host(4, "vm"), &opts).unwrap();
        assert_eq!(counts(&cache), (1, 1));
    }

    #[test]
    fn insert_prefills_without_counting_requests() {
        let cache = SharedPlanCache::new(32);
        let opts = PlannerOptions::default();
        let stored = Arc::new(plan(&host(6, "vm"), &opts).unwrap());
        cache.insert(&host(6, "vm"), &opts, Arc::clone(&stored));
        cache.insert(&host(6, "vm"), &opts, Arc::clone(&stored));
        assert_eq!((counts(&cache), cache.len()), ((0, 0), 1));
        // The anticipated request is a plain hit on the stored plan.
        let served = cache.get_or_plan(&host(6, "other"), &opts).unwrap();
        assert!(Arc::ptr_eq(&stored, &served));
        assert_eq!(counts(&cache), (1, 0));
    }

    #[test]
    fn a_recorded_miss_counts_once_and_stores_only_a_plan() {
        let cache = SharedPlanCache::new(32);
        let opts = PlannerOptions::default();
        cache.record_miss(&host(5, "vm"), &opts, None);
        assert_eq!((counts(&cache), cache.len()), ((0, 1), 0));
        let stored = Arc::new(plan(&host(6, "vm"), &opts).unwrap());
        cache.record_miss(&host(6, "vm"), &opts, Some(Arc::clone(&stored)));
        assert_eq!((counts(&cache), cache.len()), ((0, 2), 1));
        // The next request for the shape is a hit on the recorded plan.
        let served = cache.get_or_plan(&host(6, "other"), &opts).unwrap();
        assert!(Arc::ptr_eq(&stored, &served));
        assert_eq!(counts(&cache), (1, 2));
    }

    #[test]
    fn same_sized_shapes_have_distinct_fingerprints() {
        // Equal scalars, different VMs: one bucket each, so a probe never
        // walks the other shapes of its size.
        let opts = PlannerOptions::default();
        for n in [2usize, 5, 8] {
            let fps: std::collections::BTreeSet<u64> = (0..40)
                .map(|salt| fingerprint(&salted_host(n, salt), &opts))
                .collect();
            assert_eq!(fps.len(), 40);
        }
    }

    #[test]
    fn crowded_same_count_shapes_probe_at_most_two_candidates() {
        // 1 600 distinct shapes of one VM count: equal scalars, so before
        // the content fingerprint one bucket that every lookup and insert
        // searched linearly.
        let opts = PlannerOptions::default();
        let dummy = Arc::new(plan(&salted_host(4, 0), &opts).unwrap());
        let cache = SharedPlanCache::new(32);
        for salt in 0..1600 {
            cache.insert(&salted_host(4, salt), &opts, dummy.clone());
            assert!(cache.lock().slots.len() <= 32, "slots exceed capacity");
        }
        assert_eq!(cache.len(), 32);
        assert_eq!(cache.lock().buckets.len(), 32);

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

    #[test]
    fn shared_cache_hits_and_counts_like_the_sequential_one() {
        // Through `&self`, exactly the counts of one caller in sequence.
        let cache = SharedPlanCache::new(16);
        let opts = PlannerOptions::default();
        let a = cache.get_or_plan(&host(8, "a"), &opts).unwrap();
        let b = cache.get_or_plan(&host(8, "b"), &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "names must not split the key");
        let _ = cache.get_or_plan(&host(6, "c"), &opts).unwrap();
        assert_eq!(counts(&cache), (1, 2));
        assert_eq!(cache.len(), 2);
        // lookup is hit-only; insert stores without counting.
        assert!(cache.lookup(&host(4, "d"), &opts).is_none());
        cache.insert(&host(4, "d"), &opts, a.clone());
        assert!(cache.lookup(&host(4, "d"), &opts).is_some());
        assert_eq!(counts(&cache), (2, 2));
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
        assert_eq!(counts(&cache), (30, 2), "each shape plans exactly once");
    }
}
