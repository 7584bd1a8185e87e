//! Controller crash–recovery quick-start: run PREPARE under a
//! [`RecoveryManager`], kill the controller mid-experiment, rebuild it
//! from its last checkpoint plus the write-ahead journal suffix, and
//! verify the recovered run is indistinguishable from one that never
//! crashed.
//!
//! ```text
//! cargo run --release --example crash_recovery
//! ```
//!
//! Two identical fleets run side by side: a referee that is never
//! interrupted, and a victim that is crashed right before round 30 and
//! recovered from its durable artifacts (the sealed checkpoint and the
//! journal's intact frames). After both finish, the example checks the
//! recovery-equivalence property the test suite proves exhaustively
//! (`tests/recovery.rs`): identical model fingerprints, identical
//! cluster state, and a victim event log that differs from the
//! referee's only by the two crash markers.

use prepare_repro::cloudsim::{Cluster, HostSpec};
use prepare_repro::core::{
    ControllerEvent, Journal, PrepareConfig, PrepareController, RecoveryManager, Scheme,
};
use prepare_repro::metrics::{
    AttributeKind, MetricSample, MetricVector, StampedSample, Timestamp, VmId,
};
use prepare_repro::par::ParConfig;

/// Control rounds driven end to end.
const ROUNDS: u64 = 48;

/// Seconds between sampling rounds.
const SAMPLING_SECS: u64 = 5;

/// A checkpoint seals every this many rounds; crashes between seals
/// replay the journal suffix on top of the last sealed image.
const CHECKPOINT_EVERY_ROUNDS: u64 = 8;

/// The victim controller is killed right before this round.
const CRASH_ROUND: u64 = 30;

/// A synthetic 13-attribute reading with a slow memory leak on VM 0, so
/// the run exercises real model state (series, predictors).
fn sample_for(vm: VmId, t: u64) -> MetricSample {
    let leak = if vm == VmId(0) {
        (t as f64) * 0.15
    } else {
        0.0
    };
    let v = MetricVector::from_fn(|a| match a {
        AttributeKind::CpuTotal => 25.0 + (vm.0 % 3) as f64 + (t % 17) as f64,
        AttributeKind::CpuUser => 18.0 + (vm.0 % 3) as f64,
        AttributeKind::FreeMem => (400.0 - leak).max(8.0),
        AttributeKind::Load1 => 0.4 + (vm.0 % 3) as f64 / 10.0,
        _ => 10.0 + (vm.0 % 3) as f64,
    });
    MetricSample::new(Timestamp::from_secs(t), v)
}

/// Builds one deterministic 3-VM fleet (two VCL hosts) and its
/// controller. Called twice so referee and victim start identical.
fn build() -> (Cluster, PrepareController, Vec<VmId>) {
    let mut cluster = Cluster::new();
    let mut vms = Vec::new();
    for _ in 0..2 {
        let host = cluster.add_host(HostSpec::vcl_default());
        for _ in 0..2 {
            if vms.len() == 3 {
                break;
            }
            match cluster.create_vm(host, 100.0, 512.0) {
                Ok(vm) => vms.push(vm),
                Err(err) => {
                    eprintln!("fleet does not fit its hosts: {err:?}");
                    std::process::exit(1);
                }
            }
        }
    }
    let controller = PrepareController::new(vms.clone(), PrepareConfig::default(), Scheme::Prepare);
    (cluster, controller, vms)
}

fn readings(vms: &[VmId], t: u64) -> Vec<(VmId, StampedSample)> {
    vms.iter()
        .map(|&vm| (vm, StampedSample::fresh(sample_for(vm, t))))
        .collect()
}

fn main() {
    let par = ParConfig::from_env();

    let (mut referee_cluster, referee_ctl, vms) = build();
    let (mut victim_cluster, victim_ctl, _) = build();
    let mut referee = RecoveryManager::new(referee_ctl, CHECKPOINT_EVERY_ROUNDS);
    let mut victim = RecoveryManager::new(victim_ctl, CHECKPOINT_EVERY_ROUNDS);

    println!(
        "Driving {ROUNDS} rounds, checkpoint every {CHECKPOINT_EVERY_ROUNDS}, \
         crash before round {CRASH_ROUND}…\n"
    );
    for round in 0..ROUNDS {
        let now = Timestamp::from_secs(round * SAMPLING_SECS);
        let batch = readings(&vms, round * SAMPLING_SECS);

        if round == CRASH_ROUND {
            // Power off the victim: all that survives is what it made
            // durable — the sealed checkpoint and the journal's
            // acknowledged frames. The in-memory controller is dropped.
            let image = victim.crash_image();
            println!(
                "crash before round {round}: checkpoint {} bytes, journal carries {} record(s)",
                image.checkpoint.len(),
                Journal::scan(&image.journal).records.len(),
            );
            victim = match RecoveryManager::recover(&image, CHECKPOINT_EVERY_ROUNDS, par, now) {
                Ok(recovered) => recovered,
                Err(err) => {
                    eprintln!("recovery failed: {err}");
                    std::process::exit(1);
                }
            };
            println!("recovered: replayed journal suffix, resuming at round {round}\n");
        }

        let referee_events = referee.tick(now, &batch, false, &mut referee_cluster);
        let victim_events = victim.tick(now, &batch, false, &mut victim_cluster);

        for e in &referee_events {
            if let ControllerEvent::CheckpointTaken { at, bytes } = e {
                println!("round {round:>2} @ {at:?}: checkpoint sealed ({bytes} bytes)");
            }
        }
        // Post-recovery rounds must already be byte-identical.
        let referee_view: Vec<String> = referee_events.iter().map(|e| format!("{e:?}")).collect();
        let victim_view: Vec<String> = victim_events.iter().map(|e| format!("{e:?}")).collect();
        if referee_view != victim_view {
            eprintln!("round {round}: recovered run diverged from the referee");
            std::process::exit(1);
        }
    }

    // The equivalence the proofs in tests/recovery.rs sweep across every
    // crash point and worker count, spot-checked here.
    if referee.controller().model_fingerprint() != victim.controller().model_fingerprint() {
        eprintln!("model fingerprints diverged after recovery");
        std::process::exit(1);
    }
    if referee_cluster != victim_cluster {
        eprintln!("cluster state diverged after recovery");
        std::process::exit(1);
    }
    let markers = victim
        .controller()
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e,
                ControllerEvent::ControllerCrashed { .. }
                    | ControllerEvent::RecoveryCompleted { .. }
            )
        })
        .count();

    println!("\nAfter {ROUNDS} rounds:");
    println!("  model fingerprints      : identical");
    println!("  cluster state           : identical");
    println!("  crash markers in victim : {markers} (ControllerCrashed + RecoveryCompleted)");
    println!("\nThe crashed-and-recovered controller is byte-for-byte the one that");
    println!("never crashed, except for the audit markers recording the outage.");
}
