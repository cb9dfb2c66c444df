//! The plan cache held to a naive LRU.
//!
//! [`SharedPlanCache`] keys plans by a content fingerprint, confirms
//! candidates with a streaming compare and reuses evicted slots. The oracle
//! below does none of that: a `Vec` of `(host, options, plan, last_used)`
//! searched by structural equality, VM names blanked because they are not
//! part of the key. Random `lookup` / `insert` / `get_or_plan` sequences
//! over capacities 1–8 must give the same hit/miss sequence, serve the very
//! same `Arc` on every hit, count the same statistics and never hold more
//! than `capacity` plans. The shape pool is built to trip a lazy key:
//! same-sized shapes with equal scalars, a renamed copy, the same hosts
//! under two option sets, and one shape the planner rejects.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use rtsched::time::Nanos;
use tableau_core::cache::{CacheStats, SharedPlanCache};
use tableau_core::planner::{plan, Plan, PlanError, PlannerOptions};
use tableau_core::postprocess::DEFAULT_THRESHOLD;
use tableau_core::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};

/// The naive reference: least recently used goes first, nothing else.
struct Oracle {
    entries: Vec<(HostConfig, PlannerOptions, Arc<Plan>, u64)>,
    capacity: usize,
    tick: u64,
    stats: CacheStats,
}

/// The host with every VM name blanked: names are not part of the key.
fn unnamed(host: &HostConfig) -> HostConfig {
    let mut h = host.clone();
    h.vms.iter_mut().for_each(|vm| vm.name.clear());
    h
}

impl Oracle {
    fn find(&mut self, host: &HostConfig, opts: &PlannerOptions) -> Option<usize> {
        self.tick += 1;
        let (host, opts) = (unnamed(host), format!("{opts:?}"));
        self.entries
            .iter()
            .position(|(h, o, _, _)| *h == host && format!("{o:?}") == opts)
    }

    fn lookup(&mut self, host: &HostConfig, opts: &PlannerOptions) -> Option<Arc<Plan>> {
        let i = self.find(host, opts)?;
        self.entries[i].3 = self.tick;
        self.stats.hits += 1;
        Some(Arc::clone(&self.entries[i].2))
    }

    fn insert(&mut self, host: &HostConfig, opts: &PlannerOptions, plan: Arc<Plan>) {
        match self.find(host, opts) {
            Some(i) => self.entries[i] = (unnamed(host), opts.clone(), plan, self.tick),
            None => {
                if self.entries.len() == self.capacity {
                    let lru = (0..self.entries.len()).min_by_key(|&i| self.entries[i].3);
                    self.entries.swap_remove(lru.unwrap());
                }
                self.entries
                    .push((unnamed(host), opts.clone(), plan, self.tick));
            }
        }
    }
}

/// A 2-core host of `n` single-vCPU VMs named `{prefix}{i}`; `salt` picks
/// the utilizations, so equal `n` gives equal scalars and distinct VMs.
fn salted(n: usize, salt: u32, prefix: &str) -> HostConfig {
    let mut h = HostConfig::new(2);
    for i in 0..n as u32 {
        let u = Utilization::from_ppm(20_000 + salt * 10_000 + i * 1_000);
        let spec = VcpuSpec::capped(u, Nanos::from_millis(20));
        h.add_vm(VmSpec::uniform(format!("{prefix}{i}"), 1, spec));
    }
    h
}

/// Hosts, option sets, and what `plan` makes of each pair.
struct Pool {
    hosts: Vec<HostConfig>,
    opts: [PlannerOptions; 2],
    plans: Vec<[Result<Plan, PlanError>; 2]>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut hosts: Vec<HostConfig> = (0..3)
            .flat_map(|salt| [2, 3].map(|n| salted(n, salt, "vm")))
            .collect();
        // A renamed copy of the first shape: the same key.
        hosts.push(salted(2, 0, "renamed"));
        // 9 × 25 % on 2 cores: rejected.
        let over = VcpuSpec::capped(Utilization::from_percent(25), Nanos::from_millis(20));
        let mut infeasible = HostConfig::new(2);
        for i in 0..9 {
            infeasible.add_vm(VmSpec::uniform(format!("x{i}"), 1, over));
        }
        hosts.push(infeasible);
        let opts = [
            PlannerOptions::default(),
            PlannerOptions {
                coalesce_threshold: DEFAULT_THRESHOLD * 4,
                ..PlannerOptions::default()
            },
        ];
        let plans = hosts
            .iter()
            .map(|h| [plan(h, &opts[0]), plan(h, &opts[1])])
            .collect();
        Pool { hosts, opts, plans }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cache_matches_the_reference_lru(
        capacity in 1usize..=8,
        ops in proptest::collection::vec((0u8..3, 0usize..8, 0usize..2), 1..80),
    ) {
        let pool = pool();
        let cache = SharedPlanCache::new(capacity);
        let mut oracle = Oracle {
            entries: Vec::new(),
            capacity,
            tick: 0,
            stats: CacheStats { hits: 0, misses: 0 },
        };
        for (step, &(op, h, o)) in ops.iter().enumerate() {
            let (host, opts) = (&pool.hosts[h], &pool.opts[o]);
            match op {
                0 => {
                    let got = cache.lookup(host, opts);
                    let want = oracle.lookup(host, opts);
                    prop_assert_eq!(got.is_some(), want.is_some(), "step {}: lookup", step);
                    if let (Some(g), Some(w)) = (got, want) {
                        prop_assert!(Arc::ptr_eq(&g, &w), "step {}: lookup served another plan", step);
                    }
                }
                1 => {
                    // A fresh `Arc` per insert, so identity tells which
                    // store a later hit is served from. The cache does not
                    // check what it is handed: the rejected shape stores
                    // the first shape's plan.
                    let stored = match &pool.plans[h][o] {
                        Ok(p) => p.clone(),
                        Err(_) => pool.plans[0][o].as_ref().unwrap().clone(),
                    };
                    let stored = Arc::new(stored);
                    cache.insert(host, opts, Arc::clone(&stored));
                    oracle.insert(host, opts, stored);
                }
                _ => {
                    let got = cache.get_or_plan(host, opts);
                    match oracle.lookup(host, opts) {
                        Some(w) => {
                            let g = got.expect("a hit cannot fail");
                            prop_assert!(Arc::ptr_eq(&g, &w), "step {}: hit served another plan", step);
                        }
                        None => {
                            oracle.stats.misses += 1;
                            match (&got, &pool.plans[h][o]) {
                                (Ok(g), Ok(p)) => {
                                    prop_assert!(**g == *p, "step {}: miss served a wrong plan", step);
                                    oracle.insert(host, opts, Arc::clone(g));
                                }
                                (Err(_), Err(_)) => {}
                                _ => panic!("step {step}: get_or_plan disagrees with plan"),
                            }
                        }
                    }
                }
            }
            prop_assert_eq!(cache.stats(), oracle.stats.clone(), "step {}: stats", step);
            prop_assert_eq!(cache.len(), oracle.entries.len(), "step {}: len", step);
            prop_assert!(cache.len() <= capacity, "step {}: over capacity", step);
        }
    }
}
