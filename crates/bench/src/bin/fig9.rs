//! Figure 9: sampled SLO metric traces under **live VM migration** (same
//! four panels as Fig. 7).

use prepare_bench::harness::print_trace_panel;
use prepare_core::{AppKind, FaultChoice, PreventionPolicy};

fn main() {
    println!("== Figure 9: SLO metric traces, prevention = live VM migration ==");
    for (panel, app, fault) in [
        ("(a)", AppKind::SystemS, FaultChoice::MemLeak),
        ("(b)", AppKind::Rubis, FaultChoice::MemLeak),
        ("(c)", AppKind::SystemS, FaultChoice::CpuHog),
        ("(d)", AppKind::Rubis, FaultChoice::CpuHog),
    ] {
        println!("\n-- panel {panel} --");
        print_trace_panel(app, fault, PreventionPolicy::MigrationFirst, 1);
    }
}
