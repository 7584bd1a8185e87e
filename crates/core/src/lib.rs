//! PREPARE — the predict → diagnose → prevent controller (paper §II) and
//! the experiment harness that reproduces §III.
//!
//! The controller ties the workspace together:
//!
//! 1. every sampling interval it ingests one [`prepare_metrics::MetricSample`]
//!    per VM from the out-of-band monitor plus the application's SLO
//!    status;
//! 2. per-VM [`prepare_anomaly::AnomalyPredictor`]s (2-dependent Markov +
//!    TAN) raise look-ahead anomaly alerts, filtered by the k-of-W
//!    majority vote;
//! 3. cause inference pinpoints faulty VMs (whichever models alert) and
//!    ranks blamed attributes by TAN strength, while CUSUM change points
//!    across *all* components flag workload changes;
//! 4. prevention actuation scales the blamed resource (CPU/memory) or
//!    live-migrates the VM when the local host lacks headroom, and a
//!    look-back/look-ahead validation loop retries down the ranked
//!    attribute list until the anomaly clears.
//!
//! [`Experiment`] drives full runs of the simulated System S / RUBiS
//! applications under fault injection with any of the three management
//! schemes the paper compares ([`Scheme::Prepare`], [`Scheme::Reactive`],
//! [`Scheme::NoIntervention`]), producing the SLO-violation-time numbers
//! behind Figs. 6/8, the metric traces behind Figs. 7/9, and labeled
//! per-VM traces for the accuracy studies of Figs. 10–13.
//!
//! # Example
//!
//! ```no_run
//! use prepare_core::{Experiment, ExperimentSpec, AppKind, FaultChoice, Scheme};
//!
//! let spec = ExperimentSpec::paper_default(AppKind::SystemS, FaultChoice::MemLeak, Scheme::Prepare);
//! let result = Experiment::new(spec, 42).run();
//! println!("SLO violation time: {}", result.eval_violation_time);
//! ```

mod analysis;
mod config;
mod controller;
mod events;
mod experiment;
mod inference;
mod prevention;
mod recovery;
mod validation;

pub use analysis::{eval_violation_intervals, ExperimentReport};
pub use config::{ParConfig, PrepareConfig, PreventionPolicy, MAX_BINS, MAX_LOOK_AHEAD_STEPS};
pub use controller::{
    ClusterIo, ClusterReply, ExecFailure, PrepareController, MAX_EPISODE_FAILURES,
    MIGRATE_RETRY_BASE_SECS, MIGRATION_COOLDOWN_SECS, RETRY_BACKOFF_CAP_SECS,
    SCALE_RETRY_BASE_SECS, SUPPRESSION_SECS, TRAINING_SETTLE_SECS, TRANSIENT_RETRY_LIMIT,
    VALIDATION_WINDOW,
};
pub use events::{ActionFailureKind, ControllerEvent};
pub use experiment::{
    AppKind, Experiment, ExperimentResult, ExperimentSpec, FaultChoice, Scheme, TrialSummary,
};
pub use inference::{implicated_vms, implication_score, CauseInference};
pub use prevention::{ActuationError, PlannedAction, PreventionPlanner};
pub use recovery::{
    Checkpoint, CrashImage, Journal, JournalScan, RecoveryManager, TickRecord, CHECKPOINT_MAGIC,
};
pub use validation::{Episode, ValidationOutcome};
