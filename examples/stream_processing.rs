//! Stream-processing scenario: the IBM System S tax-calculation dataflow
//! (7 PEs, Fig. 4 of the paper) managed by each of the three anomaly
//! management schemes while a CPU hog strikes a random PE twice.
//!
//! Demonstrates: deploying an application on the simulated cluster,
//! fault plans, repeated trials with mean ± std, and reading the
//! throughput trace around the evaluated injection.
//!
//! ```text
//! cargo run --release --example stream_processing
//! ```

use prepare_repro::apps::{Application, SystemS};
use prepare_repro::cloudsim::Cluster;
use prepare_repro::core::{AppKind, Experiment, ExperimentSpec, FaultChoice, Scheme, TrialSummary};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // Inspect the deployment itself first.
    let mut cluster = Cluster::new();
    let app = SystemS::deploy(&mut cluster)?;
    println!("deployed {} on {} hosts:", app.name(), cluster.n_hosts());
    for &vm in app.vms() {
        let state = cluster.vm(vm);
        println!(
            "  {} = {:11} cpu cap {:>3.0}%, mem {:>4.0} MB on {}",
            vm,
            app.vm_role(vm),
            state.cpu_alloc,
            state.mem_alloc_mb,
            state.host
        );
    }
    println!(
        "bottleneck component: {} ({})\n",
        app.bottleneck_vm(),
        app.vm_role(app.bottleneck_vm())
    );

    // Scheme comparison over five seeded trials (the Fig. 6 methodology).
    println!("CPU hog on a random PE — SLO violation time of the evaluated injection:");
    for scheme in [Scheme::Prepare, Scheme::Reactive, Scheme::NoIntervention] {
        let spec = ExperimentSpec::paper_default(AppKind::SystemS, FaultChoice::CpuHog, scheme);
        let summary = TrialSummary::collect(&spec, &[1, 2, 3, 4, 5]);
        println!(
            "  {:9} {:6.1} ± {:5.1} s  (runs: {:?})",
            scheme.name(),
            summary.mean_secs,
            summary.std_secs,
            summary.runs
        );
    }

    // A close-up of the throughput dip (the Fig. 7(c) view).
    println!("\nthroughput around the second injection (Ktuples/s):");
    let spec =
        ExperimentSpec::paper_default(AppKind::SystemS, FaultChoice::CpuHog, Scheme::Prepare);
    let result = Experiment::new(spec, 1).run();
    let start = result.second_injection.as_secs() as usize;
    for dt in (0..120).step_by(10) {
        let tick = &result.ticks[start + dt];
        println!(
            "  t=+{dt:>3}s  throughput {:5.1}  {}",
            tick.slo_metric,
            if tick.slo_violated {
                "← SLO violated"
            } else {
                ""
            }
        );
    }
    Ok(())
}
