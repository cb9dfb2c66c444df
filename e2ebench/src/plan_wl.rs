//! `plan-ladder`: the planner alone, no simulator, no fleet.
//!
//! A pre-generated request stream against one 44-core host family goes
//! through the control plane's replan path rebuilt from public functions:
//! `SharedPlanCache::lookup`, then `plan_with_fallback(prev, ..)` (delta
//! rung first when a previous plan exists, full `plan` otherwise), then
//! `SharedPlanCache::insert`. Three request classes interleave in a fixed
//! order:
//!
//! * **hit** - recurring shapes (every VM its own utilization, 1-4 ms
//!   goals), planned during the warm phase and requested again and again;
//! * **delta** - one chain of single-VM joins, leaves and resizes. Each
//!   churned VM carries a utilization no other VM has, so the cache cannot
//!   serve the new shape, and it is smaller than every resident VM's, so
//!   worst-fit-decreasing keeps the residents' bins and the delta rung
//!   re-simulates a handful of bins (`core.delta.dirty_cores_mean`);
//! * **cold** - shapes of the same kind requested once each: a full `plan`
//!   with no memoization to lean on.
//!
//! It isolates `rtsched` and `core::{planner, delta, cache}`; no `xensim`
//! or `fleet` change can move it.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rtsched::time::Nanos;
use tableau_core::binary::encoded_size;
use tableau_core::cache::SharedPlanCache;
use tableau_core::planner::{
    plan, plan_timed, plan_with_fallback, Plan, PlannerOptions, ReplanPath,
};
use tableau_core::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};
use tableau_core::Dispatcher;

use crate::harness::{Round, Workload};
use crate::stats::Fnv;
use crate::trace::{Tracer, MEASURE, PROBE, WARM};

#[derive(Debug, Clone, Copy)]
pub struct PlanSize {
    pub cores: usize,
    /// Recurring shapes planned in the warm phase and looked up after.
    pub hit_shapes: usize,
    pub delta_requests: usize,
    pub cold_requests: usize,
    /// Hit requests issued before every delta request.
    pub hits_per_delta: usize,
}

impl PlanSize {
    pub const FULL: PlanSize = PlanSize {
        cores: 44,
        hit_shapes: 176,
        delta_requests: 1800,
        cold_requests: 250,
        hits_per_delta: 8,
    };
    #[cfg(test)]
    pub const TINY: PlanSize = PlanSize {
        cores: 4,
        hit_shapes: 3,
        delta_requests: 70,
        cold_requests: 4,
        hits_per_delta: 2,
    };
}

/// The fleet's cache capacity (`FleetConfig::cache_capacity` default).
const CACHE_CAPACITY: usize = 256;
/// Latency goal of the delta chain's host.
const CHAIN_GOAL: Nanos = Nanos(2_000_000);
/// One delta result in this many is kept and, after the window, compared
/// with a full `plan` (and fed to the traced round's probes). Kept plans
/// count towards `peak_rss_mb`, so there are few of them.
const VERIFY_EVERY: usize = 64;
/// The number of churned (small, unique) VMs on the chain host swings
/// between these two.
const CHURN_POOL: (usize, usize) = (4, 12);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Req {
    Hit(usize),
    Delta(usize),
    Cold(usize),
}

pub struct PlanWorkload {
    opts: PlannerOptions,
    hit_hosts: Vec<HostConfig>,
    chain_base: HostConfig,
    /// `chain[i]` is the host after delta request `i`.
    chain: Vec<HostConfig>,
    cold_hosts: Vec<HostConfig>,
    stream: Vec<Req>,
}

fn vm(id: usize, ppm: u32, goal: Nanos) -> VmSpec {
    VmSpec::uniform(
        format!("vm{id}"),
        1,
        VcpuSpec::capped(Utilization::from_ppm(ppm), goal),
    )
}

/// The goal every VM of `host` shares (hosts here are built that way).
fn goal_of(host: &HostConfig) -> Nanos {
    host.vms[0].vcpus[0].latency
}

impl PlanWorkload {
    pub fn generate(seed: u64, size: PlanSize) -> PlanWorkload {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x706c_616e);
        let cores = size.cores;
        // 2.25 to 4 VMs per core: 100..=176 on the 44-core host.
        let (vms_lo, vms_hi) = (cores * 9 / 4, cores * 4);
        // Goals cycle 1, 2, 3, 4 ms and host sizes walk the whole range
        // instead of being drawn: a plan's cost and size go with both, and
        // the plan cache picks a shape's stripe by its VM count. The seed
        // varies the shapes, not how much work or memory a run holds, nor
        // whether the recurring shapes fit their stripes.
        let goal_ms = |i: usize| Nanos::from_millis(1 + (i % 4) as u64);
        let span = vms_hi - vms_lo + 1;
        let vms_of = |i: usize| vms_lo + (i * 31) % span;

        // Every VM of a recurring or a cold shape has its own utilization:
        // a full `plan` with no memoization to lean on.
        let mut unique_host = |shape: usize| {
            let goal = goal_ms(shape);
            let mut h = HostConfig::new(cores);
            for i in 0..vms_of(shape) {
                h.add_vm(vm(i, rng.gen_range(50_000u32..200_000), goal));
            }
            h
        };
        // Recurring shapes are planned once, in the warm phase; cold shapes
        // are requested once, in the measured window.
        let hit_hosts = (0..size.hit_shapes).map(&mut unique_host).collect();
        let cold_hosts = (0..size.cold_requests).map(&mut unique_host).collect();

        // The delta chain: residents at a quarter and an eighth of a core,
        // churn among small VMs with unique utilizations. The residents'
        // counts are fixed: the host's size sets what a delta replan costs
        // and how large its plans are.
        let mut chain_base = HostConfig::new(cores);
        let mut next_id = 0usize;
        let (quarters, eighths) = (cores * 2 - 3, cores + 2);
        for k in 0..quarters + eighths {
            let ppm = if k < quarters { 250_000 } else { 125_000 };
            chain_base.add_vm(vm(next_id, ppm, CHAIN_GOAL));
            next_id += 1;
        }
        let residents = chain_base.vms.len();
        let mut chain: Vec<HostConfig> = Vec::with_capacity(size.delta_requests);
        // The kinds follow a fixed sawtooth - two joins and a resize while
        // the pool grows to its upper size, two leaves and a resize while it
        // shrinks to its lower one - so every seed issues the same mix at
        // the same pool sizes. A leave of an older VM re-packs every younger
        // (smaller) one, so the pool's size sets how many bins a request
        // dirties; and the plan cache's fingerprint covers the VM count but
        // not the VMs, so shapes of equal size share a bucket that is
        // searched linearly (a chain held at one size made lookups and
        // inserts 4x slower than the delta replans they bracket). The seed
        // picks which VM leaves or resizes, and every utilization.
        let mut unique = 0u32;
        let mut rising = true;
        for step in 1..=size.delta_requests {
            let mut next = chain.last().unwrap_or(&chain_base).clone();
            let pool = next.vms.len() - residents;
            if pool >= CHURN_POOL.1 {
                rising = false;
            } else if pool <= CHURN_POOL.0 {
                rising = true;
            }
            unique += rng.gen_range(1u32..=3);
            let ppm = 100_000 - unique;
            if pool == 0 || (rising && step % 3 != 0) {
                next.add_vm(vm(next_id, ppm, CHAIN_GOAL));
                next_id += 1;
            } else {
                let k = residents + rng.gen_range(0..pool);
                if step % 3 == 0 {
                    next.vms[k].vcpus[0].utilization = Utilization::from_ppm(ppm);
                } else {
                    next.vms.remove(k);
                }
            }
            chain.push(next);
        }

        // Fixed interleaving: `hits_per_delta` hits, one delta, and a cold
        // request spread evenly among the deltas.
        let mut stream = Vec::new();
        let mut hit = 0usize;
        let mut cold = 0usize;
        for d in 0..size.delta_requests {
            for _ in 0..size.hits_per_delta {
                stream.push(Req::Hit(hit % size.hit_shapes.max(1)));
                hit += 1;
            }
            stream.push(Req::Delta(d));
            let due = (d + 1) * size.cold_requests / size.delta_requests.max(1);
            while cold < due {
                stream.push(Req::Cold(cold));
                cold += 1;
            }
        }

        PlanWorkload {
            opts: PlannerOptions::default(),
            hit_hosts,
            chain_base,
            chain,
            cold_hosts,
            stream,
        }
    }
}

/// A served request: the plan and the ladder rung that produced it
/// (`None` for a cache hit).
type Answer = (Arc<Plan>, Option<ReplanPath>);

/// Per-round tallies; everything here is exact and goes into the digest.
#[derive(Default)]
struct Tally {
    hits: u64,
    delta: u64,
    incremental: u64,
    full: u64,
    full_conservative: u64,
    failed: u64,
    delta_aborts: u64,
    dirty_cores: u64,
    blackout_sum: u64,
    blackout_max: u64,
}

struct Server<'a> {
    cache: SharedPlanCache,
    opts: &'a PlannerOptions,
    tally: Tally,
}

impl Server<'_> {
    /// The replan path: cache, then the ladder, then memoize. `None` when
    /// every rung failed (a typed `ReplanError`).
    fn serve(
        &mut self,
        prev: Option<(&HostConfig, &Plan)>,
        next: &HostConfig,
        req: u64,
        tr: &mut Tracer,
    ) -> Result<Option<Answer>, String> {
        let s = tr.enter("core.cache.lookup", req);
        let cached = self.cache.lookup(next, self.opts);
        tr.exit_as(
            s,
            if cached.is_some() {
                "core.cache.lookup_hit"
            } else {
                "core.cache.lookup_miss"
            },
        );
        if let Some(p) = cached {
            self.tally.hits += 1;
            return Ok(Some((p, None)));
        }

        let s = tr.enter("core.ladder", req);
        let out = plan_with_fallback(prev, next, self.opts);
        tr.exit_as(
            s,
            match &out {
                Ok(o) => match o.path {
                    ReplanPath::Delta => "core.delta",
                    ReplanPath::Incremental => "core.incremental",
                    ReplanPath::Full => "core.plan.full",
                    ReplanPath::FullConservative => "core.plan.full_conservative",
                },
                Err(_) => "core.ladder.failed",
            },
        );
        let Ok(out) = out else {
            self.tally.failed += 1;
            return Ok(None);
        };
        match out.path {
            ReplanPath::Delta => self.tally.delta += 1,
            ReplanPath::Incremental => self.tally.incremental += 1,
            ReplanPath::Full => self.tally.full += 1,
            ReplanPath::FullConservative => self.tally.full_conservative += 1,
        }
        if prev.is_some() && out.path != ReplanPath::Delta {
            self.tally.delta_aborts += 1;
        }
        if let Some(report) = &out.delta {
            self.tally.dirty_cores += report.dirty_cores.len() as u64;
        }
        // The planner's promise: no vCPU waits longer than its goal.
        let worst = out
            .plan
            .worst_blackout
            .iter()
            .map(|&(_, b)| b)
            .max()
            .unwrap_or_default();
        let goal = goal_of(next);
        if worst > goal {
            return Err(format!(
                "request {req}: planned blackout {worst} exceeds the {goal} goal"
            ));
        }
        self.tally.blackout_sum += worst.as_nanos();
        self.tally.blackout_max = self.tally.blackout_max.max(worst.as_nanos());

        let plan = Arc::new(out.plan);
        let s = tr.enter("core.cache.insert", req);
        self.cache.insert(next, self.opts, Arc::clone(&plan));
        tr.exit(s);
        Ok(Some((plan, Some(out.path))))
    }
}

impl Workload for PlanWorkload {
    fn round(&self, tr: &mut Tracer) -> Result<Round, String> {
        let t_warm = Instant::now();
        let warm = tr.enter(WARM, 0);
        let cache = SharedPlanCache::new(CACHE_CAPACITY);
        for (i, h) in self.hit_hosts.iter().enumerate() {
            let s = tr.enter("core.cache.get_or_plan", i as u64);
            let planned = cache.get_or_plan(h, &self.opts);
            tr.exit(s);
            planned.map_err(|e| format!("recurring shape {i} failed to plan: {e}"))?;
        }
        let s = tr.enter("core.plan.base", 0);
        let base_plan = plan(&self.chain_base, &self.opts);
        tr.exit(s);
        let base_plan = Arc::new(base_plan.map_err(|e| format!("chain base failed to plan: {e}"))?);
        tr.exit(warm);
        let warm_s = t_warm.elapsed().as_secs_f64();
        let warm_stats = cache.stats();

        let mut srv = Server {
            cache,
            opts: &self.opts,
            tally: Tally::default(),
        };
        let mut prev_cfg = &self.chain_base;
        let mut prev_plan = base_plan;
        let mut kept: Vec<(usize, Arc<Plan>)> = Vec::new();

        let t_measure = Instant::now();
        let measure = tr.enter(MEASURE, 0);
        for (i, &req) in self.stream.iter().enumerate() {
            let id = i as u64;
            match req {
                Req::Hit(k) => {
                    // A recurring shape evicted from its cache stripe would
                    // be planned in full instead, and the class mix would
                    // shift unnoticed.
                    let served = srv.serve(None, &self.hit_hosts[k], id, tr)?;
                    if !matches!(served, Some((_, None))) {
                        return Err(format!(
                            "request {id}: recurring shape {k} was not served from the cache"
                        ));
                    }
                }
                Req::Cold(k) => {
                    srv.serve(None, &self.cold_hosts[k], id, tr)?;
                }
                Req::Delta(k) => {
                    let next = &self.chain[k];
                    if let Some((p, rung)) =
                        srv.serve(Some((prev_cfg, &prev_plan)), next, id, tr)?
                    {
                        if k % VERIFY_EVERY == 0 && rung == Some(ReplanPath::Delta) {
                            kept.push((k, Arc::clone(&p)));
                        }
                        prev_cfg = next;
                        prev_plan = p;
                    }
                }
            }
        }
        tr.exit(measure);
        let measure_s = t_measure.elapsed().as_secs_f64();

        // Outside the timed window: a delta result must be field-for-field
        // the plan a full replan of the same host produces.
        for (k, p) in &kept {
            let full = plan(&self.chain[*k], &self.opts)
                .map_err(|e| format!("full replan of delta request {k} failed: {e}"))?;
            if **p != full {
                return Err(format!("delta request {k} differs from a full replan"));
            }
        }

        let t = &srv.tally;
        let stats = srv.cache.stats();
        let (hits, misses) = (
            stats.hits - warm_stats.hits,
            stats.misses - warm_stats.misses,
        );
        let mut d = Fnv::new();
        d.words(&[
            t.hits,
            t.delta,
            t.incremental,
            t.full,
            t.full_conservative,
            t.failed,
            t.delta_aborts,
            t.dirty_cores,
            t.blackout_sum,
            t.blackout_max,
            hits,
            misses,
        ]);

        let mut counters = vec![
            ("core.cache.hits", hits as f64),
            ("core.cache.misses", misses as f64),
            (
                "core.cache.hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            ("core.delta.aborts", t.delta_aborts as f64),
            (
                "core.delta.dirty_cores_mean",
                t.dirty_cores as f64 / t.delta.max(1) as f64,
            ),
            ("core.ladder.delta", t.delta as f64),
            ("core.ladder.incremental", t.incremental as f64),
            ("core.ladder.full", t.full as f64),
            ("core.ladder.full_conservative", t.full_conservative as f64),
        ];
        if tr.enabled() {
            let s = tr.enter(PROBE, 0);
            counters.extend(self.probes(&kept, tr)?);
            tr.exit(s);
        }

        Ok(Round {
            warm_s,
            measure_s,
            work: self.stream.len() as u64,
            attempted: self.stream.len() as u64,
            failed: t.failed,
            model_tail_ns: t.blackout_max,
            digest: d.finish(),
            counters,
        })
    }

    fn input_counters(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

impl PlanWorkload {
    /// Traced rounds only, after the window: the full planner's per-stage
    /// split on a sample of the cold shapes, the size of the kept tables,
    /// and a two-phase install of each kept table into one dispatcher.
    fn probes(
        &self,
        kept: &[(usize, Arc<Plan>)],
        tr: &mut Tracer,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let mut stage = [0.0f64; 5];
        let mut sampled = 0usize;
        for h in self.cold_hosts.iter().step_by(8) {
            let (_, t) = plan_timed(h, &self.opts).map_err(|e| format!("plan_timed: {e}"))?;
            for (acc, d) in
                stage
                    .iter_mut()
                    .zip([t.pack, t.simulate, t.coalesce, t.verify, t.slice_build])
            {
                *acc += d.as_secs_f64() * 1e6;
            }
            sampled += 1;
        }
        let mean = |x: f64| x / sampled.max(1) as f64;
        let mut out = vec![
            ("core.plan.stage.pack_us", mean(stage[0])),
            ("core.plan.stage.simulate_us", mean(stage[1])),
            ("core.plan.stage.coalesce_us", mean(stage[2])),
            ("core.plan.stage.verify_us", mean(stage[3])),
            ("core.plan.stage.slice_build_us", mean(stage[4])),
        ];

        let Some((_, first)) = kept.first() else {
            return Ok(out);
        };
        let bytes: usize = kept.iter().map(|(_, p)| encoded_size(&p.table)).sum();
        out.push(("core.table.bytes_mean", bytes as f64 / kept.len() as f64));

        let len = first.table.len();
        let cores = first.table.n_cores();
        let mut disp = Dispatcher::new(Arc::new(first.table.clone()), Vec::new(), len);
        for (round, (k, p)) in kept.iter().enumerate().skip(1) {
            let table = Arc::new(p.table.clone());
            // One table length per install keeps every arm time fresh.
            let now = len * (2 * round as u64);
            let s = tr.enter("core.switch.install", *k as u64);
            let staged = disp.begin_table_switch(table, now);
            let done = staged.and_then(|st| disp.commit_table_switch(st));
            tr.exit(s);
            let done = done.map_err(|e| format!("install of delta table {k}: {e:?}"))?;
            for core in 0..cores {
                std::hint::black_box(disp.decide(core, done, |_| true));
            }
            disp.collect_garbage();
        }
        Ok(out)
    }
}
