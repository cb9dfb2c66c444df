//! The determinism contract behind every cached artifact: a fault
//! configuration in which **every class is populated but at rate zero** —
//! including the core-offline class — must install no engine at all, so
//! the run replays bit-for-bit against a simulation that never heard of
//! fault injection.
//!
//! PR 2's cached benchmarks and the committed `results/*.json` artifacts
//! all assume this: arming the fault plumbing cannot perturb a pristine
//! run by even one RNG draw. The scenarios below reproduce each existing
//! sweep's simulation shape (robustness, scaling, latency_sweep, and the
//! guardian soak; planner_scale runs no simulation and is covered by its
//! own field-level determinism test) and compare full fingerprints.

use rtsched::time::Nanos;
use workloads::{constant_rate_arrivals, HttpServer, IntrinsicLatency, IoStress};
use xensim::fault::{CoreFaults, FaultConfig, IpiFaults, OverrunFaults, StolenFaults, TimerFaults};
use xensim::{Machine, Sim};

use experiments::config::{build_scenario, Background, SchedKind};
use experiments::soak;

/// Every class present, every class at rate zero. Notably the core-flap
/// class lists a victim core but a zero outage, so `is_active()` must be
/// false and the whole config must arm nothing.
fn zero_rate_config(seed: u64) -> FaultConfig {
    let cfg = FaultConfig {
        seed,
        timer: TimerFaults {
            jitter: Nanos::ZERO,
            coarsen: Nanos::ZERO,
        },
        ipi: IpiFaults {
            loss_prob: 0.0,
            extra_delay: Nanos::ZERO,
            redeliver_after: Nanos(100_000),
        },
        stolen: StolenFaults {
            cores: vec![0],
            interval: Nanos::from_millis(10),
            duration: Nanos::ZERO,
        },
        overrun: OverrunFaults {
            prob: 0.0,
            max_extra: Nanos::ZERO,
        },
        table_switch: xensim::fault::SwitchFaults {
            interrupt_prob: 0.0,
        },
        core: CoreFaults {
            cores: vec![0],
            interval: Nanos::from_millis(150),
            outage: Nanos::ZERO,
        },
    };
    assert!(!cfg.any_active(), "a zero-rate class reported active");
    cfg
}

/// The full observable surface of a run: global counters plus every
/// per-vCPU accounting field.
#[allow(clippy::type_complexity)]
fn fingerprint(sim: &Sim) -> (u64, u64, u64, Vec<Nanos>, Vec<(Nanos, Nanos, Nanos, u64)>) {
    let s = sim.stats();
    (
        s.ipis,
        s.context_switches,
        s.core_offline_events,
        s.stolen_time.clone(),
        s.vcpus
            .iter()
            .map(|v| (v.service, v.delay_total, v.delay_max, v.delay_count))
            .collect(),
    )
}

#[test]
fn robustness_scenario_replays_bit_for_bit() {
    let build = || {
        build_scenario(
            Machine::small(2),
            4,
            SchedKind::Tableau,
            true,
            Box::new(IntrinsicLatency::new()),
            Background::Io,
        )
    };
    let dur = Nanos::from_millis(400);

    let (mut clean, v0) = build();
    clean.push_external(Nanos(1), v0, 0);
    clean.run_until(dur);

    let (mut zeroed, v1) = build();
    zeroed.set_fault_config(zero_rate_config(42));
    assert!(zeroed.fault_config().is_none(), "zero-rate config armed");
    zeroed.push_external(Nanos(1), v1, 0);
    zeroed.run_until(dur);

    assert_eq!(fingerprint(&clean), fingerprint(&zeroed));
}

#[test]
fn scaling_scenario_replays_bit_for_bit() {
    // The scaling sweep's shape: high-density I/O stress, uncapped too.
    for kind in [SchedKind::Tableau, SchedKind::Credit] {
        let build = || {
            build_scenario(
                Machine::small(4),
                4,
                kind,
                kind == SchedKind::Tableau,
                Box::new(IoStress::paper_default()),
                Background::Io,
            )
        };
        let dur = Nanos::from_millis(300);
        let (mut clean, _) = build();
        clean.run_until(dur);
        let (mut zeroed, _) = build();
        zeroed.set_fault_config(zero_rate_config(7));
        zeroed.run_until(dur);
        assert_eq!(
            fingerprint(&clean),
            fingerprint(&zeroed),
            "{} diverged under a zero-rate fault config",
            kind.label()
        );
    }
}

#[test]
fn latency_sweep_scenario_replays_bit_for_bit() {
    // The latency sweep's shape: an HTTP probe under constant-rate load
    // with I/O-stress neighbors on a planned Tableau table.
    use schedulers::Tableau;
    use tableau_core::planner::{plan, PlannerOptions};
    use tableau_core::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};

    let machine = Machine::small(2);
    let n_cores = machine.n_cores();
    let mut host = HostConfig::new(n_cores);
    let spec = VcpuSpec::capped(Utilization::from_percent(25), Nanos::from_millis(20));
    for i in 0..n_cores * 4 {
        host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
    }
    let p = plan(&host, &PlannerOptions::default()).expect("plans");
    let dur = Nanos::from_millis(400);

    let run = |armed: bool| {
        let mut sim = Sim::new(machine, Box::new(Tableau::from_plan(&p)));
        if armed {
            sim.set_fault_config(zero_rate_config(11));
        }
        let vantage = sim.add_vcpu(Box::new(HttpServer::new(1024)), 0, false);
        for i in 1..n_cores * 4 {
            sim.add_vcpu(Box::new(IoStress::paper_default()), i % n_cores, true);
        }
        for t in constant_rate_arrivals(800.0, dur) {
            sim.push_external(t, vantage, 0);
        }
        sim.run_until(dur);
        sim
    };
    assert_eq!(fingerprint(&run(false)), fingerprint(&run(true)));
}

/// Every host-level class present, every class at rate zero: crash windows
/// with a zero outage, degradation with a zero duration, storms with a
/// zero duration and probability. `any_active()` must be false, the fleet
/// must arm no engine, and the armed replay must serialize byte-identically
/// to a fleet that never configured faults at all.
#[test]
fn fleet_cell_replays_bit_for_bit_with_host_faults_at_rate_zero() {
    use xensim::fault::{
        HostCrashFaults, HostDegradeFaults, HostFaultConfig, HostFaultEngine, InstallStormFaults,
        TableCorruptionFaults,
    };

    let cfg = HostFaultConfig {
        seed: 42,
        crash: HostCrashFaults {
            interval: Nanos::from_secs(3),
            outage: Nanos::ZERO,
        },
        degrade: HostDegradeFaults {
            interval: Nanos::from_secs(4),
            duration: Nanos::ZERO,
        },
        storm: InstallStormFaults {
            interval: Nanos::from_secs(2),
            duration: Nanos::ZERO,
            interrupt_prob: 0.0,
        },
        corruption: TableCorruptionFaults {
            interval: Nanos::from_secs(5),
            prob: 0.0,
        },
    };
    assert!(!cfg.any_active(), "a zero-rate host class reported active");
    assert!(
        HostFaultEngine::new(cfg.clone()).is_none(),
        "zero-rate host config built an engine"
    );

    let dur = Nanos::from_secs(1);
    let n_hosts = 6;

    // Arming the all-zero config on a live fleet is inert: no windows, no
    // transitions, no draws.
    let mut armed = fleet::Fleet::new(fleet::FleetConfig::new(n_hosts, 2)).expect("boots");
    armed.arm_faults(cfg, dur);
    for e in 1..=8u64 {
        armed.step(Nanos(e * 50_000_000));
    }
    assert_eq!(armed.counters().crashes, 0);
    assert_eq!(armed.counters().degradations, 0);

    // And a zero-intensity sweep cell (which arms `fleet_chaos(seed, 0.0)`,
    // the same structural zero) serializes byte-identically to a cell that
    // never configured faults at all.
    let clean = experiments::fleet::measure_faultless(n_hosts, 42, dur);
    let zeroed = experiments::fleet::measure(n_hosts, 42, 0.0, dur);
    assert_eq!(
        serde_json::to_string_pretty(&zeroed.model_only()).unwrap(),
        serde_json::to_string_pretty(&clean.model_only()).unwrap(),
        "zero-rate fleet cell diverged from the faultless baseline"
    );
}

#[test]
fn soak_cell_replays_bit_for_bit_with_core_faults_at_rate_zero() {
    // The guardian soak drives the full epoch loop (monitor attached,
    // guardian stepping every epoch); with the chaos preset at intensity
    // zero its artifact must serialize byte-identically to a cell that
    // never configured faults at all.
    let dur = Nanos::from_millis(500);
    let zeroed = soak::measure(Machine::small(3), 42, 0.0, dur);
    let clean = soak::measure_faultless(Machine::small(3), 42, dur);
    assert_eq!(
        serde_json::to_string_pretty(&zeroed).unwrap(),
        serde_json::to_string_pretty(&clean).unwrap(),
        "zero-intensity soak cell diverged from the faultless baseline"
    );
}
