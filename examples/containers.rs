//! Container scheduling with Tableau (the paper's Sec. 8 outlook).
//!
//! "The Tableau approach can be easily applied to schedule containers
//! instead of vCPUs, provided the containers are sufficiently long-running
//! ... combined with container-orchestration tools, Tableau may be used to
//! declaratively specify performance requirements of containers running on
//! a cluster." This example plays that out: a node runs a fleet of
//! containers with declarative `(cpu, latency)` requirements; deployments
//! arrive and leave, and each change goes through the replanning ladder,
//! whose *delta* rung re-simulates only the cores the change dirties and
//! splices the rest from the previous plan — which is what makes Tableau
//! viable at container churn rates.
//!
//! Run with: `cargo run --release --example containers`

use rtsched::time::Nanos;
use tableau_core::planner::{plan, plan_with_fallback, Plan, PlannerOptions};
use tableau_core::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};
use tableau_core::viz::{render_gantt, render_legend};

/// A declarative container requirement, kubernetes-style.
struct ContainerSpec {
    name: &'static str,
    /// CPU request in millicores (1000 = one core).
    millicores: u32,
    /// Maximum tolerable scheduling latency.
    latency: Nanos,
}

fn host_for(n_cores: usize, fleet: &[ContainerSpec]) -> HostConfig {
    let mut host = HostConfig::new(n_cores);
    for c in fleet {
        host.add_vm(VmSpec::uniform(
            c.name,
            1,
            // Containers are work-conserving by default (uncapped).
            VcpuSpec::new(Utilization::from_ppm(c.millicores * 1_000), c.latency),
        ));
    }
    host
}

fn show(title: &str, plan: &Plan) {
    println!("--- {title} ---");
    println!("{}", render_gantt(&plan.table, 72));
    println!("{}", render_legend(&plan.table));
}

/// Replans `host` against the previous deployment and says which rung of
/// the ladder answered and what it reused.
fn redeploy(what: &str, prev: (&HostConfig, &Plan), host: &HostConfig) -> Plan {
    let t0 = std::time::Instant::now();
    let out = plan_with_fallback(Some(prev), host, &PlannerOptions::default())
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let us = t0.elapsed().as_micros();
    match &out.delta {
        Some(report) => println!(
            "{what}: {} rung, dirty cores {:?}, clean {:?} ({us} us)\n",
            out.path.label(),
            report.dirty_cores,
            report.clean_cores,
        ),
        None => println!("{what}: {} rung ({us} us)\n", out.path.label()),
    }
    out.plan
}

fn main() {
    let ms = Nanos::from_millis;
    let n_cores = 4;

    // Initial deployment: a latency-sensitive API tier plus batch workers.
    let mut fleet = vec![
        ContainerSpec {
            name: "api-0",
            millicores: 300,
            latency: ms(5),
        },
        ContainerSpec {
            name: "api-1",
            millicores: 300,
            latency: ms(5),
        },
        ContainerSpec {
            name: "worker-0",
            millicores: 700,
            latency: ms(100),
        },
        ContainerSpec {
            name: "worker-1",
            millicores: 700,
            latency: ms(100),
        },
        ContainerSpec {
            name: "worker-2",
            millicores: 700,
            latency: ms(100),
        },
        ContainerSpec {
            name: "logship",
            millicores: 100,
            latency: ms(50),
        },
    ];

    let mut prev_host = host_for(n_cores, &fleet);
    let mut prev_plan = plan(&prev_host, &PlannerOptions::default()).expect("fleet fits the node");
    show(
        "initial deployment (6 containers, 2.8 cores requested)",
        &prev_plan,
    );

    // A rolling deploy adds a canary.
    fleet.push(ContainerSpec {
        name: "api-canary",
        millicores: 300,
        latency: ms(5),
    });
    let host = host_for(n_cores, &fleet);
    let p = redeploy("deploy api-canary", (&prev_host, &prev_plan), &host);
    show("after canary deploy", &p);
    prev_host = host;
    prev_plan = p;

    // Scale the batch tier down.
    fleet.retain(|c| c.name != "worker-2");
    let host = host_for(n_cores, &fleet);
    let p = redeploy("scale down workers", (&prev_host, &prev_plan), &host);
    show("after scale-down", &p);

    // Every container's declared latency bound, verified from the table.
    println!("container     requested    guaranteed blackout");
    for (i, c) in fleet.iter().enumerate() {
        let vcpu = tableau_core::vcpu::VcpuId(i as u32);
        println!(
            "{:>11}   {:>7}m     {}",
            c.name,
            c.millicores,
            p.blackout_of(vcpu).unwrap()
        );
    }
}
