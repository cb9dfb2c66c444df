//! The round loop: identical rounds, medians over rounds, output checks.
//!
//! A run generates its inputs once from the seed, then repeats *rounds*
//! until the time budget is spent. Every round builds fresh state, runs a
//! warm phase (state construction plus warm-up) and then the measured
//! window over the same inputs, so rounds are exchangeable samples of the
//! same work. Host-time numbers are medians over rounds; the model
//! numbers must be bit-identical in every round (the digest check).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::metrics::{self, Tail, END_TO_END, TIMERS};
use crate::stats::{median, percentile, spread_pct};
use crate::trace::{self, Span, Tracer, MEASURE};

/// What one round reports back.
#[derive(Debug, Clone)]
pub struct Round {
    /// Host seconds of the warm phase (state construction + warm-up).
    pub warm_s: f64,
    /// Host seconds of the measured window.
    pub measure_s: f64,
    /// Work units completed inside the measured window.
    pub work: u64,
    /// Operations attempted / refused-or-late inside the measured window.
    pub attempted: u64,
    pub failed: u64,
    /// The workload's deterministic simulated tail, in simulated ns.
    pub model_tail_ns: u64,
    /// FNV-1a over the exact counters, event counts and the tail.
    pub digest: u64,
    /// Per-layer values read at the layer boundaries (exact counts, and
    /// probe timings in traced rounds). Names come from the `metrics` registry.
    pub counters: Vec<(&'static str, f64)>,
}

impl Round {
    /// Everything that must be bit-identical in every round of a run.
    fn model(&self) -> [u64; 5] {
        [
            self.digest,
            self.work,
            self.attempted,
            self.failed,
            self.model_tail_ns,
        ]
    }
}

/// One benchmark workload with its inputs already generated.
pub trait Workload {
    /// Runs one round on fresh state. `Err` is a failed output check.
    fn round(&self, tr: &mut Tracer) -> Result<Round, String>;
    /// Per-layer values of the one-off input generation.
    fn input_counters(&self) -> Vec<(&'static str, f64)>;
}

pub struct RunCfg {
    /// Time budget for the rounds, in host seconds.
    pub seconds: f64,
    /// Alternate untraced and traced rounds and report per-layer metrics.
    pub trace: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Outcome {
    pub errors: Vec<String>,
    /// Operations attempted and failed in one round.
    pub attempted: u64,
    pub failed: u64,
    pub rounds: usize,
    pub digest: u64,
    pub end_to_end: Vec<Metric>,
    /// Filled only by a traced run.
    pub per_layer: Vec<Metric>,
    /// Host seconds of each untraced round's measured window, in run order.
    pub measure_s: Vec<f64>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `w` for the budget and assembles the metrics. `gen_s` is the host
/// time the caller spent generating `w`'s inputs.
pub fn run(w: &dyn Workload, gen_s: f64, cfg: &RunCfg) -> Outcome {
    let origin = Instant::now();
    let min_rounds = if cfg.trace { 4 } else { 3 };
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let mut took: Vec<f64> = Vec::new();
    loop {
        let n = plain.len() + traced.len();
        let elapsed = origin.elapsed().as_secs_f64();
        // Another round must fit the budget. The median round is the
        // estimate: one slow round should not cost the run its later ones.
        if n >= min_rounds && elapsed + median(&took) > cfg.seconds {
            break;
        }
        let trace_this = cfg.trace && n % 2 == 1;
        let mut tr = Tracer::new(trace_this, origin);
        let t0 = Instant::now();
        let round = tr.enter("round", n as u64);
        let result = w.round(&mut tr);
        tr.exit(round);
        took.push(t0.elapsed().as_secs_f64());
        match result {
            Ok(r) if trace_this => {
                // Span parents index into this round's list; rebase them.
                let base = spans.len() as u32;
                spans.extend(tr.into_spans().into_iter().map(|mut s| {
                    if s.parent != trace::NO_PARENT {
                        s.parent += base;
                    }
                    s
                }));
                traced.push(r);
            }
            Ok(r) => plain.push(r),
            Err(e) => {
                errors.push(format!("round {n}: {e}"));
                break;
            }
        }
    }

    let all: Vec<&Round> = plain.iter().chain(traced.iter()).collect();
    let Some(first) = all.first().copied() else {
        return Outcome {
            errors,
            attempted: 1,
            failed: 1,
            rounds: 0,
            digest: 0,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            measure_s: Vec::new(),
            spans,
        };
    };
    for (i, r) in all.iter().enumerate() {
        if r.model() != first.model() {
            errors.push(format!(
                "model digest differs between rounds: {:016x} (work {}, failed {}) vs \
                 {:016x} (work {}, failed {}) at sample {i}",
                first.digest, first.work, first.failed, r.digest, r.work, r.failed
            ));
            break;
        }
    }

    let warm: Vec<f64> = plain.iter().map(|r| r.warm_s).collect();
    let measure: Vec<f64> = plain.iter().map(|r| r.measure_s).collect();
    let measure_med = median(&measure);
    let values = [
        gen_s + median(&warm),
        if measure_med > 0.0 {
            first.work as f64 / measure_med
        } else {
            0.0
        },
        peak_rss_mb(),
        first.model_tail_ns as f64 / 1e6,
    ];
    let end_to_end = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| Metric { name, value, unit })
        .collect();

    let per_layer = if cfg.trace && !traced.is_empty() {
        let traced_measure: Vec<f64> = traced.iter().map(|r| r.measure_s).collect();
        let overhead = if measure_med > 0.0 {
            (median(&traced_measure) / measure_med - 1.0) * 100.0
        } else {
            0.0
        };
        let mut vals = layer_values(&traced, &spans);
        vals.extend(w.input_counters());
        vals.push(("harness.rounds", all.len() as f64));
        vals.push(("harness.round_spread_pct", spread_pct(&measure)));
        vals.push(("harness.trace_overhead_pct", overhead));
        metrics::fill_per_layer(&vals)
    } else {
        Vec::new()
    };

    Outcome {
        errors,
        // Of one round: every round attempts the same operations (checked
        // above), and a faster build must not report more failures just
        // because more rounds fit its budget.
        attempted: first.attempted,
        failed: first.failed,
        rounds: all.len(),
        digest: first.digest,
        end_to_end,
        per_layer,
        measure_s: measure,
        spans,
    }
}

/// Per-layer values of the traced rounds: the workloads' own counters
/// (median over rounds, which is the value itself for exact counts), the
/// span timers, and the shares of the measured window.
fn layer_values(traced: &[Round], spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in traced {
        for &(name, v) in &r.counters {
            by_name.entry(name).or_default().push(v);
        }
    }
    let mut out: Vec<(&'static str, f64)> = by_name.iter().map(|(&k, v)| (k, median(v))).collect();

    let durs = trace::durations_by_name(spans);
    let busy_ns = |name: &str| durs.get(name).map_or(0u64, |d| d.iter().sum::<u64>());
    for t in TIMERS {
        let empty = Vec::new();
        let d = durs.get(t.span).unwrap_or(&empty);
        let (q, need) = match t.tail {
            Tail::P99 => (0.99, 1000),
            Tail::P90 => (0.90, 100),
        };
        // A percentile is reported only with enough samples behind it.
        let tail = if d.len() >= need {
            percentile(d, q) as f64 / 1e3
        } else {
            0.0
        };
        out.push((t.names[0], d.len() as f64));
        out.push((t.names[1], busy_ns(t.span) as f64 / 1e9));
        out.push((t.names[2], percentile(d, 0.5) as f64 / 1e3));
        out.push((t.names[3], tail));
    }

    let window = busy_ns(MEASURE) as f64;
    if window > 0.0 {
        let own = trace::self_times(spans);
        let unattributed: u64 = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == MEASURE)
            .map(|(_, &o)| o)
            .sum();
        let front = busy_ns("fleet.admit") + busy_ns("fleet.teardown") + busy_ns("fleet.resize");
        out.push(("fleet.step.share", busy_ns("fleet.step") as f64 / window));
        out.push(("fleet.front.share", front as f64 / window));
        out.push(("harness.self.share", unattributed as f64 / window));
    }
    out.push((
        "harness.conservation.busy_s",
        busy_ns("harness.conservation") as f64 / 1e9,
    ));
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line the driver reads: one JSON object, exactly the keys
/// `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(o: &Outcome, trace: bool) -> String {
    let metrics = if trace { &o.per_layer } else { &o.end_to_end };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed,
        body.join(", ")
    )
}

/// Every metric by name with its unit, for people.
pub fn print_table(workload: &str, seed: u64, o: &Outcome, trace: bool) {
    println!(
        "== {workload}  seed {seed}  rounds {}  digest {:016x}  ops/round {} failed/round {}",
        o.rounds, o.digest, o.attempted, o.failed
    );
    let metrics = if trace { &o.per_layer } else { &o.end_to_end };
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for m in metrics {
        println!("  {:<width$}  {:>16.6}  {}", m.name, m.value, m.unit);
    }
    let windows: Vec<String> = o.measure_s.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "  measured windows (s): {}  spread {:.2} %",
        windows.join(" "),
        spread_pct(&o.measure_s)
    );
    for e in &o.errors {
        println!("  CHECK FAILED: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose rounds take no time; `flip` changes the digest of
    /// every other round.
    struct Fake {
        flip: bool,
        calls: std::cell::Cell<u64>,
    }

    impl Workload for Fake {
        fn round(&self, tr: &mut Tracer) -> Result<Round, String> {
            let k = self.calls.get();
            self.calls.set(k + 1);
            let m = tr.enter(MEASURE, 0);
            let s = tr.enter("fleet.step", 0);
            tr.exit(s);
            tr.exit(m);
            Ok(Round {
                warm_s: 0.5,
                measure_s: 2.0,
                work: 100,
                attempted: 10,
                failed: 0,
                model_tail_ns: 3_000_000,
                digest: if self.flip { k % 2 } else { 7 },
                counters: vec![("fleet.installs", 5.0)],
            })
        }

        fn input_counters(&self) -> Vec<(&'static str, f64)> {
            vec![("workloads.churn.events", 9.0)]
        }
    }

    fn fake(flip: bool) -> Fake {
        Fake {
            flip,
            calls: std::cell::Cell::new(0),
        }
    }

    #[test]
    fn end_to_end_values_are_round_medians_plus_generation() {
        let cfg = RunCfg {
            seconds: 0.0,
            trace: false,
        };
        let o = run(&fake(false), 0.25, &cfg);
        assert!(o.correct(), "{:?}", o.errors);
        assert_eq!((o.rounds, o.attempted, o.failed), (3, 10, 0));
        let get = |n: &str| o.end_to_end.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("setup_s"), 0.75);
        assert_eq!(get("work_per_s"), 50.0);
        assert_eq!(get("model_tail_ms"), 3.0);
        assert!(get("peak_rss_mb") > 0.0);
        let line = result_line(&o, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"work_per_s\": {\"value\": 50, \"unit\": \"1/s\"}"));
    }

    #[test]
    fn a_digest_that_differs_between_rounds_fails_the_run() {
        let cfg = RunCfg {
            seconds: 0.0,
            trace: false,
        };
        let o = run(&fake(true), 0.0, &cfg);
        assert!(!o.correct());
        assert!(o.errors[0].contains("model digest differs"));
        assert!(result_line(&o, false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_traced_run_reports_every_per_layer_metric_once() {
        let cfg = RunCfg {
            seconds: 0.0,
            trace: true,
        };
        let o = run(&fake(false), 0.0, &cfg);
        assert_eq!(o.rounds, 4);
        assert_eq!(o.per_layer.len(), metrics::per_layer().len());
        let get = |n: &str| o.per_layer.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("fleet.installs"), 5.0);
        assert_eq!(get("workloads.churn.events"), 9.0);
        assert_eq!(get("fleet.step.count"), 2.0);
        assert_eq!(get("harness.rounds"), 4.0);
        // Two traced rounds, each with its own root span.
        assert_eq!(o.spans.iter().filter(|s| s.name == "round").count(), 2);
        assert!(o
            .spans
            .iter()
            .all(|s| s.parent == trace::NO_PARENT || (s.parent as usize) < o.spans.len()));
    }
}
