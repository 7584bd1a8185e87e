//! Figure 7: sampled SLO metric traces under **resource scaling**:
//! (a) memleak / System S throughput, (b) memleak / RUBiS response time,
//! (c) cpuhog / System S, (d) cpuhog / RUBiS.

use prepare_bench::harness::print_trace_panel;
use prepare_core::{AppKind, FaultChoice, PreventionPolicy};

fn main() {
    println!("== Figure 7: SLO metric traces, prevention = elastic resource scaling ==");
    for (panel, app, fault) in [
        ("(a)", AppKind::SystemS, FaultChoice::MemLeak),
        ("(b)", AppKind::Rubis, FaultChoice::MemLeak),
        ("(c)", AppKind::SystemS, FaultChoice::CpuHog),
        ("(d)", AppKind::Rubis, FaultChoice::CpuHog),
    ] {
        println!("\n-- panel {panel} --");
        print_trace_panel(app, fault, PreventionPolicy::ScalingFirst, 1);
    }
}
