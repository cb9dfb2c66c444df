//! The metric registry: every name this benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists exactly these (a test compares).
//!
//! Host time and simulated time never share a metric: units `s`, `us`,
//! `ns` and `1/s` are host time; names ending `_sim_ms` / `_sim_us` and
//! `model_tail_ms` are simulated time.

/// `(name, unit, better)`, in the order the result line prints them.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("model_tail_ms", "ms", "lower"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// Reported once 1000 samples are pooled.
    P99,
    /// Reported once 100 samples are pooled.
    P90,
}

/// A span name whose pooled durations become four per-layer metrics.
pub struct Timer {
    pub span: &'static str,
    pub tail: Tail,
    /// `.count`, `.busy_s`, `.p50_us`, and `.p99_us` or `.p90_us`.
    pub names: [&'static str; 4],
}

macro_rules! timer {
    ($span:literal, P99) => {
        timer!($span, P99, ".p99_us")
    };
    ($span:literal, P90) => {
        timer!($span, P90, ".p90_us")
    };
    ($span:literal, $tail:ident, $suffix:literal) => {
        Timer {
            span: $span,
            tail: Tail::$tail,
            names: [
                concat!($span, ".count"),
                concat!($span, ".busy_s"),
                concat!($span, ".p50_us"),
                concat!($span, $suffix),
            ],
        }
    };
}

/// The tail each timer reports is fixed by its sample count at the
/// recorded sizes: p99 where a traced run pools >= 1000 calls, else p90.
pub const TIMERS: &[Timer] = &[
    timer!("fleet.step", P99),
    timer!("fleet.admit", P99),
    timer!("fleet.teardown", P99),
    timer!("fleet.resize", P90),
    timer!("core.cache.lookup_hit", P99),
    timer!("core.cache.insert", P99),
    timer!("core.delta", P99),
    timer!("core.plan.full", P90),
    timer!("core.switch.install", P90),
    timer!("xensim.run_until", P90),
];

/// `(name, unit, better)` of every per-layer metric except the timers'.
const COUNTERS: &[(&str, &str, &str)] = &[
    // fleet: where the measured window went.
    ("fleet.step.share", "ratio", "lower"),
    ("fleet.front.share", "ratio", "lower"),
    ("harness.self.share", "ratio", "lower"),
    ("harness.conservation.busy_s", "s", "lower"),
    // fleet: exact control-plane counts of one round.
    ("fleet.rung.cache_hit", "count", "higher"),
    ("fleet.rung.delta", "count", "lower"),
    ("fleet.rung.cache_plan", "count", "lower"),
    ("fleet.rung.incremental", "count", "lower"),
    ("fleet.rung.full", "count", "lower"),
    ("fleet.rung.full_conservative", "count", "lower"),
    ("fleet.admissions_best_fit", "count", "higher"),
    ("fleet.admissions_first_fit", "count", "lower"),
    ("fleet.admissions_shed", "count", "lower"),
    ("fleet.resize_rejections", "count", "lower"),
    ("fleet.installs", "count", "lower"),
    ("fleet.install_retries", "count", "lower"),
    ("fleet.evacuated_vms", "count", "lower"),
    ("fleet.evacuation_retries", "count", "lower"),
    ("fleet.parked", "count", "lower"),
    ("fleet.crashes", "count", "lower"),
    ("fleet.restarts", "count", "lower"),
    ("fleet.corruptions_injected", "count", "lower"),
    ("fleet.corruptions_detected", "count", "higher"),
    ("fleet.corruptions_unaccounted", "count", "lower"),
    ("fleet.convergence_epochs", "count", "lower"),
    ("fleet.admit_to_install.p50_sim_ms", "ms", "lower"),
    ("fleet.admit_to_install.p99_sim_ms", "ms", "lower"),
    ("fleet.admit_to_install.max_sim_ms", "ms", "lower"),
    // core: cache, delta rung, full planner, tables, switch, dispatch.
    ("core.cache.hits", "count", "higher"),
    ("core.cache.misses", "count", "lower"),
    ("core.cache.hit_ratio", "ratio", "higher"),
    ("core.delta.aborts", "count", "lower"),
    ("core.delta.dirty_cores_mean", "count", "lower"),
    ("core.ladder.delta", "count", "higher"),
    ("core.ladder.incremental", "count", "lower"),
    ("core.ladder.full", "count", "lower"),
    ("core.ladder.full_conservative", "count", "lower"),
    ("core.plan.stage.pack_us", "us", "lower"),
    ("core.plan.stage.simulate_us", "us", "lower"),
    ("core.plan.stage.coalesce_us", "us", "lower"),
    ("core.plan.stage.verify_us", "us", "lower"),
    ("core.plan.stage.slice_build_us", "us", "lower"),
    ("core.table.bytes_mean", "B", "lower"),
    ("core.dispatch.decide.mean_ns", "ns", "lower"),
    // xensim: the queue-driven engine and the two fast paths.
    ("xensim.events", "count", "lower"),
    ("xensim.ns_per_event", "ns", "lower"),
    ("xensim.events_per_sim_ms", "count", "lower"),
    ("xensim.context_switches", "count", "lower"),
    ("xensim.ipis", "count", "lower"),
    ("xensim.batch.batched_events", "count", "higher"),
    ("xensim.batch.batch_entries", "count", "higher"),
    ("xensim.batch.batch_exits", "count", "lower"),
    ("xensim.batch.fallback_horizon", "count", "lower"),
    ("xensim.batch.fallback_block", "count", "lower"),
    ("xensim.batch.fallback_window", "count", "lower"),
    ("xensim.batch.events_per_entry", "count", "higher"),
    ("xensim.pdes.partitioned_runs", "count", "higher"),
    ("xensim.pdes.windows_advanced", "count", "lower"),
    ("xensim.pdes.mailbox_events", "count", "lower"),
    ("xensim.pdes.lookahead_stalls", "count", "lower"),
    ("xensim.pdes.declines", "count", "lower"),
    ("xensim.pdes.declined_single_socket", "count", "lower"),
    ("xensim.pdes.declined_faults_armed", "count", "lower"),
    ("xensim.pdes.declined_scheduler_opt_out", "count", "lower"),
    ("xensim.pdes.declined_tables_unsettled", "count", "lower"),
    ("xensim.pdes.declined_monitor_attached", "count", "lower"),
    (
        "xensim.pdes.declined_cross_socket_placement",
        "count",
        "lower",
    ),
    ("xensim.pdes.declined_no_lookahead", "count", "lower"),
    // schedulers: Tableau's operations inside the simulator.
    ("schedulers.tableau.schedule_ops", "count", "lower"),
    ("schedulers.tableau.wakeup_ops", "count", "lower"),
    ("schedulers.tableau.migrate_ops", "count", "lower"),
    ("schedulers.tableau.schedule_sim_us", "us", "lower"),
    ("schedulers.tableau.wakeup_sim_us", "us", "lower"),
    ("schedulers.tableau.migrate_sim_us", "us", "lower"),
    // workloads and experiments: inputs and guest-visible results.
    ("workloads.churn.events", "count", "higher"),
    ("workloads.churn.trace_gen_s", "s", "lower"),
    ("workloads.http.completed", "count", "higher"),
    ("workloads.http.p50_sim_ms", "ms", "lower"),
    ("workloads.http.p99_sim_ms", "ms", "lower"),
    ("workloads.http.max_sim_ms", "ms", "lower"),
    ("experiments.build_scenario_s", "s", "lower"),
    // the harness itself.
    ("harness.rounds", "count", "higher"),
    ("harness.round_spread_pct", "%", "lower"),
    ("harness.trace_overhead_pct", "%", "lower"),
];

/// `(unit, better)` of a timer's four metrics, in `Timer::names` order.
const TIMER_FIELDS: [(&str, &str); 4] = [
    ("count", "higher"),
    ("s", "lower"),
    ("us", "lower"),
    ("us", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, timers first.
pub fn per_layer() -> Vec<(&'static str, &'static str, &'static str)> {
    let mut v = Vec::new();
    for t in TIMERS {
        for (n, (unit, better)) in t.names.iter().zip(TIMER_FIELDS) {
            v.push((*n, unit, better));
        }
    }
    v.extend_from_slice(COUNTERS);
    v
}

/// The dense-batching counters, which the fleet aggregates over its host
/// simulators and `sim-io` reads from its one simulator.
pub fn batch_counters(b: &xensim::stats::BatchStats) -> [(&'static str, f64); 7] {
    [
        ("xensim.batch.batched_events", b.batched_events as f64),
        ("xensim.batch.batch_entries", b.batch_entries as f64),
        ("xensim.batch.batch_exits", b.batch_exits as f64),
        ("xensim.batch.fallback_horizon", b.fallback_horizon as f64),
        ("xensim.batch.fallback_block", b.fallback_block as f64),
        ("xensim.batch.fallback_window", b.fallback_window as f64),
        (
            "xensim.batch.events_per_entry",
            b.batched_events as f64 / b.batch_entries.max(1) as f64,
        ),
    ]
}

/// Every per-layer metric in registry order; a layer the workload does
/// not touch reads 0. A name outside the registry is a bug in a workload.
pub fn fill_per_layer(vals: &[(&'static str, f64)]) -> Vec<crate::harness::Metric> {
    let reg = per_layer();
    for (name, _) in vals {
        assert!(
            reg.iter().any(|(n, _, _)| n == name),
            "metric {name} is not in the registry"
        );
    }
    reg.iter()
        .map(|&(name, unit, _)| crate::harness::Metric {
            name,
            unit,
            value: vals
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_short_and_within_the_contract_limits() {
        let reg = per_layer();
        assert!(reg.len() <= 128, "{} per-layer metrics", reg.len());
        let mut names: Vec<&str> = reg.iter().map(|m| m.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for n in names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut listed = 0;
        for (name, unit, better) in per_layer().into_iter().chain(END_TO_END.iter().copied()) {
            let needle =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&needle), "BENCHMARK.json lacks {needle}");
            listed += 1;
        }
        assert_eq!(json.matches("\"better\"").count(), listed);
    }
}
