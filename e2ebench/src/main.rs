//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! One worker thread, one process per workload: without `--workload` the
//! program runs itself once for each, so that `peak_rss_mb` (the process's
//! high-water mark) never carries over from an earlier workload. A run
//! prints every metric by name with its unit, then one JSON result line;
//! the exit code is non-zero when an output check failed. `README.md`
//! beside this package's manifest is the glossary.

mod fleet_wl;
mod harness;
mod metrics;
mod plan_wl;
mod sim_wl;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use fleet_wl::{FleetSize, FleetWorkload};
use harness::{Outcome, RunCfg, Workload};
use plan_wl::{PlanSize, PlanWorkload};
use sim_wl::{SimSize, SimWorkload};

/// Every workload name, in the order a run without `--workload` takes.
pub const WORKLOADS: [&str; 4] = ["fleet-churn", "fleet-chaos", "plan-ladder", "sim-io"];

/// Where a traced run writes its Chrome-trace file, from the repository root.
const TRACE_DIR: &str = "e2ebench/out";

pub const DEFAULT_SEED: u64 = 42;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 30.0;

/// Input sizes of the three workload families.
pub struct Sizes {
    pub fleet: FleetSize,
    pub plan: PlanSize,
    pub sim: SimSize,
}

impl Sizes {
    /// What `BENCHMARK.json` records.
    pub const FULL: Sizes = Sizes {
        fleet: FleetSize::FULL,
        plan: PlanSize::FULL,
        sim: SimSize::FULL,
    };
}

struct Args {
    /// `None` runs every workload, each in a process of its own.
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: e2ebench [--workload <fleet-churn|fleet-chaos|plan-ladder|sim-io>] \
[--seed <u64>] [--seconds <n>] [--trace <0|1>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value("a workload name")?;
                let known = WORKLOADS
                    .iter()
                    .find(|w| **w == v)
                    .ok_or_else(|| format!("unknown workload {v:?}"))?;
                args.workload = Some(known);
            }
            "--seed" => {
                let v = value("an unsigned integer")?;
                args.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {v:?}"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace flag {v:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Generates `name`'s inputs from `seed` and runs it for the budget.
pub fn run_workload(name: &str, seed: u64, sizes: &Sizes, cfg: &RunCfg) -> Outcome {
    let t0 = Instant::now();
    let w: Box<dyn Workload> = match name {
        "fleet-churn" | "fleet-chaos" => Box::new(FleetWorkload::generate(
            seed,
            sizes.fleet,
            name == "fleet-chaos",
        )),
        "plan-ladder" => Box::new(PlanWorkload::generate(seed, sizes.plan)),
        "sim-io" => Box::new(SimWorkload::generate(seed, sizes.sim)),
        other => unreachable!("workload {other} is not in WORKLOADS"),
    };
    let gen_s = t0.elapsed().as_secs_f64();
    harness::run(w.as_ref(), gen_s, cfg)
}

/// Runs this program once per workload with `argv` passed on, one after
/// the other. `false` when any of them failed.
fn run_each_in_its_own_process(argv: &[String]) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find this program's own path: {e}");
            return false;
        }
    };
    let mut ok = true;
    for name in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(argv)
            .status();
        match status {
            Ok(st) => ok &= st.success(),
            Err(e) => {
                eprintln!("error: could not run {name}: {e}");
                ok = false;
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.workload {
        None => run_each_in_its_own_process(&argv),
        Some(name) => {
            let cfg = RunCfg {
                seconds: args.seconds,
                trace: args.trace,
            };
            // One worker: on two shared cores a second worker doubles the
            // spread and measures scheduling overhead, not the code
            // (README, "Noise").
            let o = rayon::with_threads(1, || run_workload(name, args.seed, &Sizes::FULL, &cfg));
            harness::print_table(name, args.seed, &o, args.trace);
            if args.trace {
                let path =
                    PathBuf::from(TRACE_DIR).join(format!("trace-{name}-seed{}.json", args.seed));
                match trace::write_chrome_trace(&path, name, &o.spans) {
                    Ok(()) => println!("  trace: {} spans -> {}", o.spans.len(), path.display()),
                    Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
                }
            }
            println!("{}", harness::result_line(&o, args.trace));
            o.correct()
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seconds-long smoke sizes.
    const TINY: Sizes = Sizes {
        fleet: FleetSize::TINY,
        plan: PlanSize::TINY,
        sim: SimSize::TINY,
    };

    fn smoke(name: &str, seed: u64, trace: bool) -> Outcome {
        let cfg = RunCfg {
            seconds: 0.0,
            trace,
        };
        rayon::with_threads(1, || run_workload(name, seed, &TINY, &cfg))
    }

    #[test]
    fn every_workload_passes_its_checks_at_tiny_size() {
        for name in WORKLOADS {
            let o = smoke(name, DEFAULT_SEED, false);
            assert!(o.correct(), "{name}: {:?}", o.errors);
            assert_eq!(o.rounds, 3, "{name}");
            assert!(o.attempted >= 1, "{name}");
            for m in &o.end_to_end {
                assert!(m.value > 0.0, "{name}: {} is {}", m.name, m.value);
            }
        }
    }

    #[test]
    fn the_digest_is_stable_per_seed_and_changes_with_the_seed() {
        for name in WORKLOADS {
            let a = smoke(name, 7, false);
            let b = smoke(name, 7, false);
            let c = smoke(name, 8, false);
            assert_eq!(a.digest, b.digest, "{name}: same seed, different digest");
            assert_ne!(
                a.digest, c.digest,
                "{name}: the seed does not reach the inputs"
            );
        }
    }

    #[test]
    fn a_traced_run_reproduces_the_digest_and_keeps_layers_apart() {
        for name in WORKLOADS {
            let plain = smoke(name, DEFAULT_SEED, false);
            let traced = smoke(name, DEFAULT_SEED, true);
            assert!(traced.correct(), "{name}: {:?}", traced.errors);
            assert_eq!(plain.digest, traced.digest, "{name}");
            assert_eq!(traced.per_layer.len(), metrics::per_layer().len());
            assert!(!traced.spans.is_empty());
            let layer = |p: &str| traced.spans.iter().any(|s| s.name.starts_with(p));
            match name {
                "plan-ladder" => assert!(!layer("fleet.") && !layer("xensim.")),
                "sim-io" => assert!(!layer("fleet.") && layer("xensim.run_until")),
                _ => assert!(layer("fleet.step") && !layer("xensim.")),
            }
        }
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload sim-io --seed 9 --seconds 5 --trace 1")).unwrap();
        assert_eq!(a.workload, Some("sim-io"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 5.0, true));
        let all = parse_args(&[]).unwrap();
        assert_eq!(all.workload, None);
        assert_eq!((all.seed, all.trace), (DEFAULT_SEED, false));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed -1")).is_err());
        assert!(parse_args(&argv("--trace yes")).is_err());
        assert!(parse_args(&argv("--seconds")).is_err());
    }
}
