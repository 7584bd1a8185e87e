//! Capacity planning with the substrate crates — no controller involved:
//! size a System S deployment against a target rate using the component
//! cost model, compare placement policies, and verify the plan by
//! simulation.
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use prepare_repro::apps::{Application, FaultPlan, SystemS};
use prepare_repro::cloudsim::{BestFit, Cluster, FirstFit, HostSpec, PlacementPolicy, WorstFit};
use prepare_repro::metrics::Timestamp;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let mut cluster = Cluster::new();
    let app = SystemS::deploy(&mut cluster)?;

    // 1. Analytic capacity: each PE's saturation point at its allocation,
    //    translated to the client rate that saturates it.
    println!("per-PE saturation (client Ktuples/s at which the PE's CPU cap binds):");
    let mut worst: Option<(&str, f64)> = None;
    for (i, spec) in app.specs().iter().enumerate() {
        let alloc = cluster.vm(app.vms()[i]).cpu_alloc;
        // PEs 2-5 each see half the client stream.
        let share = if (1..=4).contains(&i) { 0.5 } else { 1.0 };
        let saturation = spec.saturation_rate(alloc) / share;
        println!("  {:5}  {:6.1}", spec.name, saturation);
        if worst.is_none_or(|(_, w)| saturation < w) {
            worst = Some((spec.name, saturation));
        }
    }
    let (bottleneck, capacity) = worst.ok_or("System S has no PEs")?;
    println!("analytic bottleneck: {bottleneck} at {capacity:.1} Ktuples/s\n");

    // 2. Verify by simulation: step the workload up and find where the
    //    SLO actually breaks.
    let faults = FaultPlan::new();
    let mut verify = Cluster::new();
    let mut app2 = SystemS::deploy(&mut verify)?;
    let mut measured = None;
    for step in 0..200 {
        let rate = 10.0 + step as f64 * 0.25;
        let tick = app2.step(Timestamp::from_secs(step), rate, &mut verify, &faults);
        if tick.slo_violated {
            measured = Some(rate);
            break;
        }
    }
    match measured {
        Some(rate) => println!(
            "simulated SLO breaking point: {rate:.1} Ktuples/s (analytic {capacity:.1}, \
             difference is the 5% output-ratio slack)"
        ),
        None => println!("no SLO violation up to 60 Ktuples/s — allocations oversized"),
    }

    // 3. Placement policies: pack 6 equal VMs onto 3 hosts three ways.
    println!("\nplacement of six 60-CPU VMs on three VCL hosts:");
    for policy in [&FirstFit as &dyn PlacementPolicy, &BestFit, &WorstFit] {
        let mut c = Cluster::new();
        for _ in 0..3 {
            c.add_host(HostSpec::vcl_default());
        }
        let mut placements = Vec::new();
        for _ in 0..6 {
            let vm = c.place_vm(policy, 60.0, 512.0)?;
            placements.push(c.vm(vm).host.0);
        }
        println!("  {}: hosts {placements:?}", policy.name());
    }
    Ok(())
}
