//! Extension experiment (beyond the paper): the noisy-neighbor
//! **resource contention** fault — the one anomaly cause from the paper's
//! introduction its evaluation never injects. A co-tenant load on the
//! faulty VM's host squeezes its effective CPU cap, so elastic scaling is
//! provably ineffective and PREPARE must walk the §II-D escalation chain:
//! scale → validate (no effect) → retire the resource → live-migrate off
//! the contended host.

use prepare_cloudsim::ActionKind;
use prepare_core::{
    AppKind, ControllerEvent, Experiment, ExperimentSpec, FaultChoice, Scheme, TrialSummary,
};

fn main() {
    println!("== Extension: noisy-neighbor contention (scaling cannot help) ==\n");
    println!(
        "{:10} {:>14} {:>14} {:>14}",
        "app", "PREPARE (s)", "reactive (s)", "none (s)"
    );
    for app in [AppKind::SystemS, AppKind::Rubis] {
        let mut cells = Vec::new();
        for scheme in [Scheme::Prepare, Scheme::Reactive, Scheme::NoIntervention] {
            let spec = ExperimentSpec::paper_default(app, FaultChoice::Contention, scheme);
            let s = TrialSummary::collect(&spec, &[1, 2, 3, 4, 5]);
            cells.push(format!("{:6.1}±{:5.1}", s.mean_secs, s.std_secs));
        }
        println!(
            "{:10} {:>14} {:>14} {:>14}",
            app.name(),
            cells[0],
            cells[1],
            cells[2]
        );
    }

    // Show the escalation chain once, explicitly.
    println!("\nescalation chain (RUBiS, seed 2):");
    let spec =
        ExperimentSpec::paper_default(AppKind::Rubis, FaultChoice::Contention, Scheme::Prepare);
    let r = Experiment::new(spec, 2).run();
    for e in &r.events {
        match e {
            ControllerEvent::ActionIssued { at, action, .. } => println!("  [{at}] {action}"),
            ControllerEvent::ValidationIneffective { at, vm } => {
                println!("  [{at}] {vm}: scaling judged ineffective — escalating")
            }
            ControllerEvent::ValidationSucceeded { at, vm } => {
                println!("  [{at}] {vm}: anomaly resolved")
            }
            _ => {}
        }
    }
    let migrations = r
        .actions
        .iter()
        .filter(|a| matches!(a.kind, ActionKind::Migrate { .. }))
        .count();
    println!("\nmigrations performed: {migrations} (the only action that can fix contention)");
}
