//! Crash-recovery benchmark: checkpoint serialize/restore cost and size
//! versus controller fleet size, and recovery (replay) time versus
//! write-ahead journal length. Emits `BENCH_recovery.json`.
//!
//! Two legs, mirroring the two durable artifacts:
//!
//! 1. **Checkpoint** — a controller warmed over a monitored fleet of
//!    256/1024/4096 VMs is serialized ([`Checkpoint::write`]) and
//!    restored ([`Checkpoint::read`]); the restored model fingerprint is
//!    asserted equal to the live one before any number is reported. A
//!    fourth row trains a 256-VM controller on one injected fault, so the
//!    image also carries the per-VM predictors' Markov count tables.
//! 2. **Journal** — a fixed 256-VM controller runs under a
//!    [`RecoveryManager`] with checkpoints suppressed, and
//!    [`RecoveryManager::recover`] is timed against crash images carrying
//!    journal suffixes of 1/8/32/128 records.
//!
//! Every timed section runs best-of-N ([`TRIALS`]) so a shared machine's
//! scheduler noise cannot fabricate a slowdown.

use prepare_bench::harness::{write_bench_json, Stopwatch};
use prepare_cloudsim::{Cluster, HostSpec};
use prepare_core::{Checkpoint, PrepareConfig, PrepareController, RecoveryManager, Scheme};
use prepare_metrics::{AttributeKind, MetricSample, MetricVector, StampedSample, Timestamp, VmId};
use prepare_par::ParConfig;

/// Controller fleet sizes for the checkpoint leg.
const FLEETS: [usize; 3] = [256, 1024, 4096];

/// Monitored rounds driven before checkpointing, populating the per-VM
/// series (the state a mid-experiment checkpoint actually carries).
const WARM_ROUNDS: u64 = 24;

/// Seconds between sampling rounds.
const SAMPLING_SECS: u64 = 5;

/// Timed trials per cell; the best (minimum) is reported.
const TRIALS: usize = 3;

/// Fleet size of the trained checkpoint row.
const TRAINED_FLEET: usize = 256;

/// Every `FAULTY_EVERY`-th VM of the trained row runs hot during the
/// fault, so it is implicated and gets a predictor.
const FAULTY_EVERY: usize = 16;

/// Rounds of the trained row: the fault runs over `FAULT_ROUNDS`, the SLO
/// is violated over its second half, and training lands once the SLO has
/// been quiet for `PrepareConfig::post_anomaly_quiet` (30 rounds); the
/// predictors then observe the rest.
const TRAINED_ROUNDS: u64 = 160;

/// The fault window of the trained row.
const FAULT_ROUNDS: std::ops::Range<u64> = 40..64;

/// Fleet size for the journal-replay leg.
const JOURNAL_FLEET: usize = 256;

/// Journal suffix lengths (records) swept by the recovery-time leg.
const JOURNAL_LENGTHS: [u64; 4] = [1, 8, 32, 128];

/// A synthetic 13-attribute sample, phase-shifted per VM so per-VM
/// state (and therefore checkpoint payloads) differ across the fleet.
fn sample_for(vm: usize, t: u64) -> MetricSample {
    let phase = (vm % 7) as f64;
    let v = MetricVector::from_fn(|a| match a {
        AttributeKind::CpuTotal => 25.0 + phase + (t % 17) as f64,
        AttributeKind::CpuUser => 18.0 + phase,
        AttributeKind::FreeMem => 400.0 - phase * 3.0,
        AttributeKind::Load1 => 0.4 + phase / 10.0,
        _ => 10.0 + phase,
    });
    MetricSample::new(Timestamp::from_secs(t), v)
}

/// [`sample_for`] with a fault overlay: during the fault a faulty VM's CPU
/// climbs past saturation and its free memory drains.
fn faulty_sample_for(vm: usize, round: u64) -> MetricSample {
    let t = round * SAMPLING_SECS;
    let mut sample = sample_for(vm, t);
    if vm.is_multiple_of(FAULTY_EVERY) && FAULT_ROUNDS.contains(&round) {
        let progress = (round - FAULT_ROUNDS.start) as f64;
        sample
            .values
            .set(AttributeKind::CpuTotal, (60.0 + 2.0 * progress).min(99.0));
        sample
            .values
            .set(AttributeKind::FreeMem, (400.0 - 15.0 * progress).max(20.0));
    }
    sample
}

/// Builds a cluster hosting `n` VMs (two per VCL host) and a controller
/// monitoring all of them.
fn build(n: usize) -> (Cluster, PrepareController, Vec<VmId>) {
    let mut cluster = Cluster::new();
    let mut vms = Vec::with_capacity(n);
    while vms.len() < n {
        let host = cluster.add_host(HostSpec::vcl_default());
        for _ in 0..2 {
            if vms.len() == n {
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

/// The fleet's readings for the sampling round at time `t`.
fn readings(vms: &[VmId], t: u64) -> Vec<(VmId, StampedSample)> {
    vms.iter()
        .map(|&vm| (vm, StampedSample::fresh(sample_for(vm.0, t))))
        .collect()
}

struct CheckpointRow {
    vms: usize,
    /// VMs holding a trained predictor (0 before training).
    predictors: usize,
    bytes: usize,
    serialize_ms: f64,
    restore_ms: f64,
}

struct JournalRow {
    records: u64,
    bytes: usize,
    recover_ms: f64,
}

/// Serializes and restores `controller` (as of round `tick`) best-of-N,
/// gated on the restored model fingerprint, and prints its row.
fn checkpoint_row(
    controller: &PrepareController,
    vms: &[VmId],
    tick: u64,
    par: ParConfig,
) -> CheckpointRow {
    let n = vms.len();
    let mut serialize_ms = f64::INFINITY;
    let mut image = Vec::new();
    for _ in 0..TRIALS {
        let clock = Stopwatch::start();
        let img = Checkpoint::write(controller, tick);
        serialize_ms = serialize_ms.min(clock.elapsed_ms());
        image = img;
    }
    let mut restore_ms = f64::INFINITY;
    for _ in 0..TRIALS {
        let clock = Stopwatch::start();
        let restored = Checkpoint::read(&image, par);
        let elapsed = clock.elapsed_ms();
        match restored {
            Ok((back, back_tick)) => {
                // Fidelity gate: a checkpoint that does not round-trip
                // the exact model state has no business being timed.
                if back_tick != tick || back.model_fingerprint() != controller.model_fingerprint() {
                    eprintln!("restored controller diverged at vms={n}");
                    std::process::exit(1);
                }
            }
            Err(err) => {
                eprintln!("checkpoint restore failed at vms={n}: {err}");
                std::process::exit(1);
            }
        }
        restore_ms = restore_ms.min(elapsed);
    }
    let predictors = vms
        .iter()
        .filter(|&&vm| controller.predictor(vm).is_some())
        .count();
    println!(
        "{:>6} {:>10} {:>14} {:>14.3} {:>13.3}",
        n,
        predictors,
        image.len(),
        serialize_ms,
        restore_ms
    );
    CheckpointRow {
        vms: n,
        predictors,
        bytes: image.len(),
        serialize_ms,
        restore_ms,
    }
}

fn main() {
    let par = ParConfig::from_env();

    println!("== Checkpoint serialize/restore vs controller fleet size ==");
    println!(
        "{:>6} {:>10} {:>14} {:>14} {:>13}",
        "VMs", "predictors", "bytes", "serialize(ms)", "restore (ms)"
    );
    let mut checkpoint_rows: Vec<CheckpointRow> = Vec::new();
    for &n in &FLEETS {
        let (mut cluster, mut controller, vms) = build(n);
        for r in 0..WARM_ROUNDS {
            let t = r * SAMPLING_SECS;
            controller.on_readings(
                Timestamp::from_secs(t),
                &readings(&vms, t),
                false,
                &mut cluster,
            );
        }
        checkpoint_rows.push(checkpoint_row(&controller, &vms, WARM_ROUNDS, par));
    }
    {
        let (mut cluster, mut controller, vms) = build(TRAINED_FLEET);
        let violated = (FAULT_ROUNDS.start + FAULT_ROUNDS.end) / 2..FAULT_ROUNDS.end;
        for r in 0..TRAINED_ROUNDS {
            let readings: Vec<_> = vms
                .iter()
                .map(|&vm| (vm, StampedSample::fresh(faulty_sample_for(vm.0, r))))
                .collect();
            controller.on_readings(
                Timestamp::from_secs(r * SAMPLING_SECS),
                &readings,
                violated.contains(&r),
                &mut cluster,
            );
        }
        if !controller.is_trained() {
            eprintln!("the trained row's controller did not train");
            std::process::exit(1);
        }
        checkpoint_rows.push(checkpoint_row(&controller, &vms, TRAINED_ROUNDS, par));
    }

    println!("\n== Recovery time vs journal length ({JOURNAL_FLEET} VMs) ==");
    println!("{:>8} {:>14} {:>13}", "records", "bytes", "recover (ms)");
    let (mut cluster, controller, vms) = build(JOURNAL_FLEET);
    // Suppress periodic checkpoints so the journal grows to the longest
    // swept suffix: every recovery then replays exactly `records` rounds
    // on top of the initial (round-0) checkpoint.
    let no_checkpoints = u64::MAX;
    let mut manager = RecoveryManager::new(controller, no_checkpoints);
    let mut images = Vec::new();
    let longest = JOURNAL_LENGTHS[JOURNAL_LENGTHS.len() - 1];
    for r in 0..longest {
        let t = (WARM_ROUNDS + r) * SAMPLING_SECS;
        manager.tick(
            Timestamp::from_secs(t),
            &readings(&vms, t),
            false,
            &mut cluster,
        );
        if JOURNAL_LENGTHS.contains(&(r + 1)) {
            images.push((
                r + 1,
                manager.crash_image(),
                manager.controller().model_fingerprint(),
            ));
        }
    }
    let mut journal_rows: Vec<JournalRow> = Vec::new();
    let crashed_at = Timestamp::from_secs((WARM_ROUNDS + longest) * SAMPLING_SECS);
    for (records, image, fingerprint) in &images {
        let mut recover_ms = f64::INFINITY;
        for _ in 0..TRIALS {
            let clock = Stopwatch::start();
            let recovered = RecoveryManager::recover(image, no_checkpoints, par, crashed_at);
            let elapsed = clock.elapsed_ms();
            match recovered {
                Ok(recovered) => {
                    if recovered.controller().model_fingerprint() != *fingerprint {
                        eprintln!("recovery diverged at journal length {records}");
                        std::process::exit(1);
                    }
                }
                Err(err) => {
                    eprintln!("recovery failed at journal length {records}: {err}");
                    std::process::exit(1);
                }
            }
            recover_ms = recover_ms.min(elapsed);
        }
        println!(
            "{:>8} {:>14} {:>13.3}",
            records,
            image.journal.len(),
            recover_ms
        );
        journal_rows.push(JournalRow {
            records: *records,
            bytes: image.journal.len(),
            recover_ms,
        });
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"recovery\",\n");
    json.push_str(&format!("  \"trials\": {TRIALS},\n"));
    json.push_str(&format!("  \"warm_rounds\": {WARM_ROUNDS},\n"));
    json.push_str(&format!("  \"trained_rounds\": {TRAINED_ROUNDS},\n"));
    json.push_str(
        "  \"note\": \"checkpoint leg: a controller monitoring the given fleet for warm_rounds \
         sampling rounds is serialized and restored, best-of-N; the restored model fingerprint \
         is asserted equal to the live one before numbers are reported. The row with \
         predictors > 0 instead runs trained_rounds rounds with one fault on every 16th VM and \
         seals after training, so its image carries Markov count tables. journal leg: recovery \
         re-drives a journal suffix of the given length through replay on top of the initial \
         checkpoint, 256-VM fleet, fingerprint-gated like the checkpoint leg\",\n",
    );
    json.push_str("  \"checkpoint\": [\n");
    for (i, r) in checkpoint_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"vms\": {}, \"predictors\": {}, \"checkpoint_bytes\": {}, \
             \"serialize_ms\": {:.3}, \"restore_ms\": {:.3}}}{}\n",
            r.vms,
            r.predictors,
            r.bytes,
            r.serialize_ms,
            r.restore_ms,
            if i + 1 == checkpoint_rows.len() {
                ""
            } else {
                ","
            }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"journal_fleet_vms\": {JOURNAL_FLEET},\n"));
    json.push_str("  \"journal\": [\n");
    for (i, r) in journal_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"records\": {}, \"journal_bytes\": {}, \"recover_ms\": {:.3}}}{}\n",
            r.records,
            r.bytes,
            r.recover_ms,
            if i + 1 == journal_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    write_bench_json("BENCH_recovery.json", &json);
}
