//! The pinned crash-recovery scenario shared by `tests/recovery.rs` and
//! the worker-count matrix in `tests/differential.rs`: a 2-host /
//! 3-VM cluster with a recurring memory leak on VM 0, a fault-free
//! prefix, then a managed controller that can be killed before any round
//! and rebuilt from its durable artifacts.

use prepare_repro::cloudsim::{Cluster, HostSpec};
use prepare_repro::core::{
    ControllerEvent, PrepareConfig, PrepareController, RecoveryManager, Scheme,
};
use prepare_repro::metrics::{
    AttributeKind, MetricSample, MetricVector, StampedSample, Timestamp, VmId,
};
use prepare_repro::par::ParConfig;
use std::collections::BTreeSet;

/// Sampling rounds driven per run: two full leak periods.
pub const ROUNDS: u64 = 240;

/// Seconds between sampling rounds.
const SAMPLING_SECS: u64 = 5;

/// The fault-free warmup driven once and forked per crash case (the
/// controller trains on the first leak period; crashes sweep the
/// second).
const PREFIX_SECS: u64 = 880;

/// First sampling round after the shared prefix.
pub const FIRST_SWEPT_ROUND: u64 = PREFIX_SECS / SAMPLING_SECS;

/// Control rounds between checkpoints — deliberately *not* a divisor of
/// the swept range so the sweep hits crashes right after a checkpoint
/// (empty journal), right before one (longest journal), and everywhere
/// in between.
pub const CHECKPOINT_EVERY_ROUNDS: u64 = 8;

/// The worker counts every equivalence claim is proven at.
pub const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

/// A synthetic 13-attribute sample: `cpu` busy, `free_mem` MB free,
/// heavy paging once memory is exhausted.
fn sample_for(t: u64, cpu: f64, free_mem: f64) -> MetricSample {
    let v = MetricVector::from_fn(|a| match a {
        AttributeKind::CpuTotal => cpu,
        AttributeKind::CpuUser => cpu * 0.7,
        AttributeKind::FreeMem => free_mem,
        AttributeKind::Load1 => cpu / 50.0,
        AttributeKind::PageFaults => {
            if free_mem <= 0.0 {
                600.0
            } else {
                0.0
            }
        }
        _ => 10.0,
    });
    MetricSample::new(Timestamp::from_secs(t), v)
}

/// Free memory of the leaking VM at sampling round `i`: a 120-round
/// period — steady, ramp to exhaustion, depleted, recovered.
fn leak_free_mem(i: u64) -> f64 {
    let phase = i % 120;
    match phase {
        0..=39 => 500.0,
        40..=89 => 500.0 - ((phase - 39) as f64) * 10.0,
        90..=109 => 0.0,
        _ => 500.0,
    }
}

/// The scenario's inputs for the sampling round at time `t`.
fn round_inputs(t: u64) -> (Vec<(VmId, StampedSample)>, bool) {
    let free = leak_free_mem(t / SAMPLING_SECS);
    let readings = vec![
        (VmId(0), StampedSample::fresh(sample_for(t, 40.0, free))),
        (VmId(1), StampedSample::fresh(sample_for(t, 30.0, 400.0))),
        (VmId(2), StampedSample::fresh(sample_for(t, 25.0, 450.0))),
    ];
    (readings, free < 50.0)
}

/// The shared fault-free warmup: cluster + controller at `PREFIX_SECS`.
pub struct Prefix {
    cluster: Cluster,
    controller: PrepareController,
}

/// Drives the warmup with the engine pinned to `workers`.
pub fn build_prefix(workers: usize) -> Prefix {
    let mut cluster = Cluster::new();
    let h0 = cluster.add_host(HostSpec::vcl_default());
    let h1 = cluster.add_host(HostSpec::vcl_default());
    for host in [h0, h0, h1] {
        cluster
            .create_vm(host, 100.0, 512.0)
            .expect("fresh VCL hosts fit the tiny fleet");
    }
    let vms = vec![VmId(0), VmId(1), VmId(2)];
    let config = PrepareConfig::default().with_workers(workers);
    let mut controller = PrepareController::new(vms, config, Scheme::Prepare);
    for t in 0..PREFIX_SECS {
        let now = Timestamp::from_secs(t);
        cluster.advance(now);
        if t.is_multiple_of(SAMPLING_SECS) {
            let (readings, violated) = round_inputs(t);
            controller.on_readings(now, &readings, violated, &mut cluster);
        }
    }
    Prefix {
        cluster,
        controller,
    }
}

/// One finished run: the per-round event batches (indexed from the
/// first post-prefix round), the final manager, and the final cluster.
pub struct Run {
    pub per_round: Vec<Vec<ControllerEvent>>,
    pub manager: RecoveryManager,
    pub cluster: Cluster,
}

/// Forks the prefix and drives the managed controller to the end,
/// crashing (kill + rebuild from the durable artifacts) immediately
/// before each round listed in `crash_rounds`.
pub fn drive(prefix: &Prefix, workers: usize, crash_rounds: &BTreeSet<u64>) -> Run {
    let par = ParConfig::with_workers(workers);
    let mut cluster = prefix.cluster.clone();
    let mut manager = RecoveryManager::new(prefix.controller.clone(), CHECKPOINT_EVERY_ROUNDS);
    let mut per_round = Vec::new();
    for t in PREFIX_SECS..ROUNDS * SAMPLING_SECS {
        let now = Timestamp::from_secs(t);
        cluster.advance(now);
        if !t.is_multiple_of(SAMPLING_SECS) {
            continue;
        }
        if crash_rounds.contains(&(t / SAMPLING_SECS)) {
            let image = manager.crash_image();
            manager = RecoveryManager::recover(&image, CHECKPOINT_EVERY_ROUNDS, par, now)
                .expect("a checkpoint this process sealed is intact");
        }
        let (readings, violated) = round_inputs(t);
        per_round.push(manager.tick(now, &readings, violated, &mut cluster));
    }
    Run {
        per_round,
        manager,
        cluster,
    }
}

/// One `Debug` line per event — the byte-identity currency of this
/// suite (`Debug` is stable for a fixed binary).
pub fn render(events: &[ControllerEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&format!("{e:?}\n"));
    }
    out
}

/// True for the two markers only a crashed run carries.
pub fn is_crash_marker(e: &ControllerEvent) -> bool {
    matches!(
        e,
        ControllerEvent::ControllerCrashed { .. } | ControllerEvent::RecoveryCompleted { .. }
    )
}
