//! The four workloads: what each one is made of and why it exists.
//!
//! Sizes are the issue's, with rounds and seeds (never VM counts) cut so
//! that several passes fit one `--seconds` window; README.md records
//! each cut next to the issue's original figure.

use prepare_cloudsim::{ChaosKind, ChaosPlan, HostId};
use prepare_core::{AppKind, FaultChoice, Scheme};
use prepare_metrics::{Duration, Timestamp};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 6 matrix on 4–7 VMs.
    PaperMatrix,
    /// 1024 VMs, benign infrastructure, steady prediction.
    FleetSteady,
    /// 256 VMs under infrastructure chaos, periodic retrain and seal.
    FleetStorm,
    /// 256 VMs, frequent seals, a controller crash every 20 rounds.
    CrashRecovery,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperMatrix,
        Workload::FleetSteady,
        Workload::FleetStorm,
        Workload::CrashRecovery,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMatrix => "paper_matrix",
            Workload::FleetSteady => "fleet_steady",
            Workload::FleetStorm => "fleet_storm",
            Workload::CrashRecovery => "crash_recovery",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload was chosen — which layers do most of its work.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperMatrix => {
                "Fig. 6 matrix on 4-7 VMs: per-round fixed cost, the predict hot path and one-shot training dominate, durable state does nothing; the source of the paper's quality numbers"
            }
            Workload::FleetSteady => {
                "1024 VMs, 16 faulty, no seal, one training, workers=2: the O(N) data plane (maps, position scans, trainer push, CUSUM, journal append) does most of the work; only 16 predictors run"
            }
            Workload::FleetStorm => {
                "256 VMs, 32 faulty, chaos plan, seal every 60 rounds: imputation, abstention, plan/actuate/retry/rollback and refresh of dirty slots instead of quiet prediction, so a churn-path cost shows"
            }
            Workload::CrashRecovery => {
                "256 VMs, seal every 8 rounds, crash before every 20th: the persist codec in both directions (store on seal, load plus journal replay on recover) does most of the work"
            }
        }
    }

    /// Worker threads the controller is pinned to.
    pub fn workers(self) -> usize {
        self.fleet_shape().map_or(1, |shape| shape.workers)
    }

    /// The fleet shape, for the three `ShardFleet` workloads.
    pub fn fleet_shape(self) -> Option<FleetShape> {
        match self {
            Workload::PaperMatrix => None,
            Workload::FleetSteady => Some(FleetShape {
                shards: 1024,
                stride: 64,
                duration_secs: 1800,
                // No seal inside the window: at N = 1024 a seal round is
                // seconds long and does not repeat (README, noise notes).
                checkpoint_every: u64::MAX,
                retrain_interval: None,
                workers: 2,
                storm: false,
                crash_every: None,
            }),
            Workload::FleetStorm => Some(FleetShape {
                shards: 256,
                stride: 8,
                duration_secs: 2400,
                checkpoint_every: 60,
                retrain_interval: Some(120),
                workers: 1,
                storm: true,
                crash_every: None,
            }),
            Workload::CrashRecovery => Some(FleetShape {
                shards: 256,
                stride: 16,
                duration_secs: 1100,
                checkpoint_every: 8,
                retrain_interval: Some(600),
                workers: 1,
                storm: false,
                crash_every: Some(20),
            }),
        }
    }
}

/// Parameters of one `ShardFleet` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetShape {
    /// Managed VMs.
    pub shards: usize,
    /// Every `stride`-th shard is faulty.
    pub stride: usize,
    /// Simulated seconds per pass (one round per 5 s).
    pub duration_secs: u64,
    /// Rounds between seals.
    pub checkpoint_every: u64,
    /// Periodic model refresh, seconds.
    pub retrain_interval: Option<u64>,
    /// Worker threads the controller is pinned to.
    pub workers: usize,
    /// Whether the infrastructure chaos plan runs.
    pub storm: bool,
    /// The controller process is killed, and recovered from its durable
    /// image, before every round whose index is a positive multiple.
    pub crash_every: Option<u64>,
}

/// Length of one storm cycle.
const STORM_PERIOD_SECS: u64 = 450;

/// The storm's infrastructure-fault plan: five overlapping windows,
/// repeating every 450 s from t = 60.
pub fn storm_plan(seed: u64, duration_secs: u64) -> ChaosPlan {
    let mut plan = ChaosPlan::new(seed ^ 0xC0FFEE);
    for base in (60..duration_secs).step_by(STORM_PERIOD_SECS as usize) {
        let at = |offset: u64| Timestamp::from_secs(base + offset);
        plan = plan
            .with_fault(
                at(0),
                at(200),
                ChaosKind::DropSamples {
                    vm: None,
                    probability: 0.3,
                },
            )
            .with_fault(
                at(100),
                at(300),
                ChaosKind::DelaySamples {
                    vm: None,
                    probability: 0.3,
                },
            )
            .with_fault(
                at(50),
                at(350),
                ChaosKind::HypervisorBusy { probability: 0.5 },
            )
            .with_fault(
                at(150),
                at(250),
                ChaosKind::HostBlackout { host: HostId(3) },
            )
            .with_fault(
                at(0),
                at(400),
                ChaosKind::MigrationTimeout {
                    timeout: Duration::from_secs(2),
                },
            );
    }
    plan
}

/// One cell of the paper matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// The application.
    pub app: AppKind,
    /// The injected fault.
    pub fault: FaultChoice,
    /// The management scheme.
    pub scheme: Scheme,
}

/// Seeds per cell in one `paper_matrix` pass (`seed..seed + MATRIX_SEEDS`).
pub const MATRIX_SEEDS: u64 = 10;

/// {System S, RUBiS} × {memleak, cpuhog, bottleneck} × the three schemes.
pub fn matrix_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for app in [AppKind::SystemS, AppKind::Rubis] {
        for fault in [
            FaultChoice::MemLeak,
            FaultChoice::CpuHog,
            FaultChoice::Bottleneck,
        ] {
            for scheme in [Scheme::Prepare, Scheme::Reactive, Scheme::NoIntervention] {
                cells.push(Cell { app, fault, scheme });
            }
        }
    }
    cells
}
