//! CLI entry point for the experiment harness.
//!
//! Usage: `experiments <fig3|fig4|tab1|tab2|fig5|fig6|fig7|fig8|robustness|all>
//! [--quick] [--seed <u64>]`. `fig3`/`fig4` and `tab1`/`tab2` are generated
//! together (they share their runs). `bench snapshot` times the
//! planner/cache/dispatcher/simulator hot paths and refreshes the committed
//! `BENCH_planner.json`/`BENCH_dispatch.json`/`BENCH_sim.json` trajectory
//! (with `--quick`: a schema smoke run against a scratch directory that
//! also gates each entry against the committed snapshot and exits non-zero
//! on a >3x regression).
//!
//! Bad input never panics: every user error exits with code 1 and a
//! one-line `error: ...` diagnostic.

use std::fmt;
use std::process::ExitCode;

const USAGE: &str = "usage: experiments <id>... [--quick] [--seed <u64>]\n\
    known ids: fig3 fig4 tab1 tab2 fig5 fig6 fig7 fig8 planner overheads \
    intrinsic ping ablations scaling latency_sweep robustness soak fleet \
    audit all\n\
    perf trajectory: experiments bench snapshot [--quick]";

/// A user-input problem, rendered as a single diagnostic line.
#[derive(Debug)]
enum CliError {
    UnknownFlag(String),
    MissingValue(&'static str),
    BadValue(&'static str, String),
    UnknownExperiment(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag '{flag}'"),
            CliError::MissingValue(flag) => write!(f, "flag '{flag}' needs a value"),
            CliError::BadValue(flag, got) => {
                write!(f, "flag '{flag}' needs an unsigned integer, got '{got}'")
            }
            CliError::UnknownExperiment(id) => write!(f, "unknown experiment '{id}'"),
        }
    }
}

struct Cli {
    ids: Vec<String>,
    quick: bool,
    seed: u64,
}

const KNOWN_IDS: &[&str] = &[
    "fig3",
    "fig4",
    "planner",
    "tab1",
    "tab2",
    "overheads",
    "fig5",
    "intrinsic",
    "fig6",
    "ping",
    "fig7",
    "fig8",
    "ablations",
    "scaling",
    "latency_sweep",
    "robustness",
    "soak",
    "fleet",
    "audit",
    "bench",
    "snapshot",
    "all",
];

fn parse(args: &[String]) -> Result<Cli, CliError> {
    let mut cli = Cli {
        ids: Vec::new(),
        quick: false,
        seed: experiments::robustness::DEFAULT_SEED,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => cli.quick = true,
            "--seed" => {
                let v = it.next().ok_or(CliError::MissingValue("--seed"))?;
                cli.seed = v
                    .parse()
                    .map_err(|_| CliError::BadValue("--seed", v.clone()))?;
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::UnknownFlag(flag.to_string()));
            }
            id => {
                if !KNOWN_IDS.contains(&id) {
                    return Err(CliError::UnknownExperiment(id.to_string()));
                }
                cli.ids.push(id.to_string());
            }
        }
    }
    if cli.ids.is_empty() {
        cli.ids.push("all".to_string());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let quick = cli.quick;
    // `bench snapshot` reads as one command but parses as two ids; run the
    // snapshot once no matter how it was spelled.
    let mut bench_done = false;
    let mut bench_ok = true;
    let mut fleet_ok = true;
    let mut audit_ok = true;
    for id in &cli.ids {
        match id.as_str() {
            "bench" | "snapshot" => {
                if !bench_done {
                    bench_ok = experiments::bench_snapshot::run(quick, cli.seed);
                    bench_done = true;
                }
            }
            "fig3" | "fig4" | "planner" => {
                experiments::planner_scale::run(quick);
            }
            "tab1" | "tab2" | "overheads" => {
                experiments::overheads::run(quick);
            }
            "fig5" | "intrinsic" => {
                experiments::intrinsic_delay::run(quick);
            }
            "fig6" | "ping" => {
                experiments::ping_latency::run(quick);
            }
            "fig7" => {
                experiments::nginx::run_fig7(quick);
            }
            "fig8" => {
                experiments::nginx::run_fig8(quick);
            }
            "ablations" => {
                experiments::ablations::run(quick);
                experiments::scaling::run(quick);
                experiments::latency_sweep::run(quick);
            }
            "scaling" => {
                experiments::scaling::run(quick);
                experiments::latency_sweep::run(quick);
            }
            "latency_sweep" => {
                experiments::latency_sweep::run(quick);
            }
            "robustness" => {
                experiments::robustness::run_with_seed(quick, cli.seed);
            }
            "soak" => {
                experiments::soak::run_with_seed(quick, cli.seed);
            }
            "fleet" => {
                fleet_ok &= experiments::fleet::run_with_seed(quick, cli.seed);
            }
            "audit" => {
                audit_ok &= experiments::audit::run_with_seed(quick, cli.seed);
            }
            "all" => {
                experiments::planner_scale::run(quick);
                experiments::overheads::run(quick);
                experiments::intrinsic_delay::run(quick);
                experiments::ping_latency::run(quick);
                experiments::nginx::run_fig7(quick);
                experiments::nginx::run_fig8(quick);
                experiments::ablations::run(quick);
                experiments::scaling::run(quick);
                experiments::latency_sweep::run(quick);
                experiments::robustness::run_with_seed(quick, cli.seed);
                experiments::soak::run_with_seed(quick, cli.seed);
                fleet_ok &= experiments::fleet::run_with_seed(quick, cli.seed);
                audit_ok &= experiments::audit::run_with_seed(quick, cli.seed);
            }
            _ => unreachable!("ids validated in parse"),
        }
    }
    if !bench_ok {
        eprintln!("error: bench snapshot regressed past the gate (see lines above)");
        return ExitCode::FAILURE;
    }
    if !fleet_ok {
        eprintln!("error: fleet bench regressed past the gate (see lines above)");
        return ExitCode::FAILURE;
    }
    if !audit_ok {
        eprintln!("error: a corruption mutant survived the audit gate (see lines above)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
