//! The pinned crash-recovery scenario shared by `tests/recovery.rs` and
//! the worker-count matrix in `tests/differential.rs`: the temporal
//! checker's explorer scenario (a 2-host / 3-VM cluster with a recurring
//! memory leak on VM 0 and a fault-free prefix), driven here without
//! chaos by a managed controller that can be killed before any round and
//! rebuilt from its durable artifacts.

use prepare_repro::cloudsim::Cluster;
use prepare_repro::core::{ControllerEvent, RecoveryManager};
use prepare_repro::metrics::Timestamp;
use prepare_repro::par::ParConfig;
use prepare_tlc::explore::{self, Prefix, PREFIX_SECS, SAMPLING_SECS};
use std::collections::BTreeSet;

pub use prepare_tlc::explore::{CHECKPOINT_EVERY_ROUNDS, ROUNDS};

/// First sampling round after the shared prefix (the controller trains
/// on the first leak period; crashes sweep the second).
pub const FIRST_SWEPT_ROUND: u64 = PREFIX_SECS / SAMPLING_SECS;

/// The worker counts every equivalence claim is proven at.
pub const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

/// Drives the fault-free warmup with the engine pinned to `workers`.
#[expect(
    clippy::expect_used,
    reason = "the explorer's fleet is sized to fit fresh hosts"
)]
pub fn build_prefix(workers: usize) -> Prefix {
    explore::build_prefix(workers).expect("fresh VCL hosts fit the tiny fleet")
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
#[expect(
    clippy::expect_used,
    reason = "recovery reads back a checkpoint this process sealed"
)]
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
        let (readings, violated) = explore::round_inputs(t, &cluster, None);
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
