//! Quickstart: plan a Tableau scheduling table and watch the dispatcher
//! enact it.
//!
//! Builds the paper's canonical host shape — four 25%-utilization,
//! 20-ms-latency VMs per core — on a small two-core machine, generates a
//! verified scheduling table, prints it, and then walks the O(1) dispatcher
//! through one table round.
//!
//! Run with: `cargo run --release --example quickstart`

use rtsched::time::Nanos;
use tableau_core::planner::{plan, PlannerOptions};
use tableau_core::vcpu::{HostConfig, Utilization, VcpuSpec, VmSpec};

fn main() {
    // 1. Describe the host: 2 cores, 8 single-vCPU VMs (4 per core), each
    // guaranteed 25% of a core with at most 20 ms of scheduling latency.
    let mut host = HostConfig::new(2);
    let spec = VcpuSpec::capped(Utilization::from_percent(25), Nanos::from_millis(20));
    for i in 0..8 {
        host.add_vm(VmSpec::uniform(format!("vm{i}"), 1, spec));
    }

    // 2. Run the planner (this is what executes on VM create/teardown).
    let plan = plan(&host, &PlannerOptions::default()).expect("admissible configuration");

    println!("Planned with stage: {:?}", plan.stage);
    println!(
        "Table length: {} ({} allocations, {} bytes compiled)\n",
        plan.table.len(),
        (0..plan.table.n_cores())
            .map(|c| plan.table.cpu(c).n_allocations())
            .sum::<usize>(),
        tableau_core::binary::encoded_size(&plan.table),
    );

    // 3. Per-vCPU parameters the planner chose, and the latency each vCPU
    // will actually observe (its worst-case service gap in the table).
    println!("vCPU  period      budget      worst blackout");
    for p in &plan.params {
        println!(
            "{:>4}  {:>10}  {:>10}  {:>10}",
            p.vcpu.to_string(),
            p.period.to_string(),
            p.cost.to_string(),
            plan.blackout_of(p.vcpu).unwrap().to_string(),
        );
    }

    // 4. The first few allocations of core 0's table.
    println!("\nCore 0 table (first 8 allocations):");
    for a in plan.table.cpu(0).allocations().take(8) {
        println!(
            "  [{:>12} .. {:>12})  {}",
            a.start.to_string(),
            a.end.to_string(),
            a.vcpu
        );
    }

    // 5. Dispatch: who runs on core 0 through the first 2 ms? Each lookup
    // is O(1) — a slice-table index plus at most two allocation records.
    println!("\nDispatch walk on core 0:");
    let mut now = Nanos::ZERO;
    let mut steps = 0;
    while now < Nanos::from_millis(26) && steps < 8 {
        let slot = plan.table.lookup(0, now);
        match slot.vcpu() {
            Some(v) => println!(
                "  t={:>9}  run  {v} until {}",
                now.to_string(),
                slot.until()
            ),
            None => println!(
                "  t={:>9}  idle      until {}",
                now.to_string(),
                slot.until()
            ),
        }
        now = plan.table.slot_end_abs(0, now);
        steps += 1;
    }
    println!(
        "\n(the schedule repeats every {} — that is the whole hot path)",
        plan.table.len()
    );
}
