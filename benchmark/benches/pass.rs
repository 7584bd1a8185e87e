//! One pass of a workload: set-up, the timed loop, and the checks that
//! follow it. A pass is a fixed amount of simulated work, so every count
//! it produces and its digest depend on the seed alone; a run repeats
//! passes until its `--seconds` are used and reports medians.

use crate::clock::Clock;
use crate::driver::{
    drive, paper_spec, unmanaged_shard_secs, Control, Deployed, LoopStats, RoundKind, RoundSample,
    Scenario, DEADLINE_MS,
};
use crate::shadow::Shadow;
use crate::stats::{percentile, Digest};
use crate::trace::Tracer;
use crate::workloads::{matrix_cells, Workload, MATRIX_SEEDS};
use prepare_cloudsim::ActionRecord;
use prepare_core::{Checkpoint, ControllerEvent, PrepareController, Scheme};
use prepare_metrics::Timestamp;
use prepare_tlc::properties::standard_properties;
use std::collections::{BTreeMap, BTreeSet};

/// The event kinds the per-layer report counts, by report name.
pub const EVENT_KINDS: [&str; 12] = [
    "alert_raised",
    "alert_confirmed",
    "reactive_triggered",
    "action_issued",
    "action_failed",
    "action_retried",
    "action_rolled_back",
    "action_abandoned",
    "validation_succeeded",
    "validation_ineffective",
    "monitoring_degraded",
    "models_trained",
];

fn event_kind(event: &ControllerEvent) -> Option<&'static str> {
    Some(match event {
        ControllerEvent::AlertRaised { .. } => "alert_raised",
        ControllerEvent::AlertConfirmed { .. } => "alert_confirmed",
        ControllerEvent::ReactiveTriggered { .. } => "reactive_triggered",
        ControllerEvent::ActionIssued { .. } => "action_issued",
        ControllerEvent::ActionFailed { .. } => "action_failed",
        ControllerEvent::ActionRetried { .. } => "action_retried",
        ControllerEvent::ActionRolledBack { .. } => "action_rolled_back",
        ControllerEvent::ActionAbandoned { .. } => "action_abandoned",
        ControllerEvent::ValidationSucceeded { .. } => "validation_succeeded",
        ControllerEvent::ValidationIneffective { .. } => "validation_ineffective",
        ControllerEvent::MonitoringDegraded { .. } => "monitoring_degraded",
        ControllerEvent::ModelsTrained { .. } => "models_trained",
        _ => return None,
    })
}

/// What one pass measured and counted.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// Scaled seconds of set-up (all of the pass's runs).
    pub setup_s: f64,
    /// Scaled seconds of the timed loop (all of the pass's runs).
    pub loop_s: f64,
    /// Managed VMs × rounds.
    pub vm_rounds: u64,
    /// Control rounds of the pass.
    pub rounds: usize,
    /// Of those, rounds with models in place: the loop's steady state.
    pub model_rounds: usize,
    /// Median and 95th percentile of the rounds with models in place,
    /// scaled milliseconds. The ingest-only rounds before the first
    /// training cost a tenth of these or less, and a percentile over
    /// both kinds sits on the boundary between them (README, noise
    /// notes); they are reported per layer.
    pub model_round_ms: (f64, f64),
    /// Median of the predict rounds alone, scaled milliseconds.
    pub predict_round_ms_p50: f64,
    /// Every recovery of the pass, scaled milliseconds.
    pub recover_ms: Vec<f64>,
    /// Bytes of the last sealed image at the end of each managed run.
    pub checkpoint_bytes: Vec<f64>,
    /// Violated seconds under PREPARE, one entry per managed run.
    pub prepare_violation_s: Vec<f64>,
    /// Violated seconds with nobody managing, one entry per such run.
    pub unmanaged_violation_s: Vec<f64>,
    /// Cells where PREPARE did no better than no management at all.
    pub lost_cells: Vec<String>,
    /// Digest over every run's event log, model fingerprint and actions.
    pub digest: u64,
    /// Rounds slower than the sampling interval.
    pub missed_deadlines: u64,
    /// Rounds at whose timestamp the temporal-property catalogue reports
    /// a violation.
    pub tlc_rounds: u64,
    /// Violations by property name.
    pub tlc_violations: BTreeMap<&'static str, u64>,
    /// Recoveries whose model fingerprint differs from the pre-crash one.
    pub recover_mismatches: u64,
    /// Controller events by kind.
    pub events: BTreeMap<&'static str, u64>,
    /// Hypervisor actions the cluster recorded.
    pub actions: u64,
    /// Samples the chaos engine dropped, blacked out or held back, and
    /// samples rendered.
    pub lost_samples: (u64, u64),
}

impl PassResult {
    /// Operations attempted: rounds plus recoveries.
    pub fn attempted(&self) -> u64 {
        (self.rounds + self.recover_ms.len()) as u64
    }

    /// Operations failed: missed deadlines and recoveries that did not
    /// restore the model. Temporal-property violations are findings
    /// about the program's event log, reported as `tlc.*`, not failed
    /// operations of the benchmark (README, findings).
    pub fn failed(&self) -> u64 {
        self.missed_deadlines + self.recover_mismatches
    }
}

/// Folds one finished run into `digest`: the rendered event log, the
/// model fingerprint and the hypervisor's action records.
pub fn digest_run(digest: &mut Digest, controller: &PrepareController, actions: &[ActionRecord]) {
    for event in controller.events() {
        digest.debug(event);
    }
    digest.word(controller.model_fingerprint());
    for action in actions {
        digest.debug(action);
    }
}

/// What a pass gathers run by run and condenses at its end.
#[derive(Default)]
struct Gathered {
    digest: Digest,
    rounds: Vec<RoundSample>,
}

/// After the loop: digest, temporal check, and — for a bare controller
/// when `drill` is set — the size of the image a seal would write now.
fn finish_run(
    scenario: Scenario,
    stats: LoopStats,
    drill: bool,
    tracer: &mut Tracer,
    mut shadow: Option<Shadow>,
    gathered: &mut Gathered,
    out: &mut PassResult,
) {
    let controller = scenario.control.controller();
    let vms = scenario.app.vms().len() as u64;
    out.loop_s += stats.loop_s;
    out.vm_rounds += vms * stats.rounds.len() as u64;
    out.missed_deadlines += stats.rounds.iter().filter(|r| r.ms > DEADLINE_MS).count() as u64;
    out.recover_mismatches += stats.recover_mismatches;
    out.recover_ms.extend(&stats.recover_ms);
    gathered.rounds.extend(&stats.rounds);

    digest_run(&mut gathered.digest, controller, scenario.cluster.actions());
    for kind in controller.events().iter().filter_map(event_kind) {
        *out.events.entry(kind).or_insert(0) += 1;
    }
    out.actions += scenario.cluster.actions().len() as u64;

    let violations = tracer.span("tlc.check", || {
        prepare_tlc::check_all(&standard_properties(), controller.events())
    });
    let at: BTreeSet<Timestamp> = violations.iter().map(|v| v.at).collect();
    out.tlc_rounds += at.len() as u64;
    for v in &violations {
        *out.tlc_violations.entry(v.property).or_insert(0) += 1;
    }

    if let Some(engine) = &scenario.chaos {
        let s = engine.stats();
        out.lost_samples.0 += s.dropped + s.blackout_drops + s.delayed;
    }
    out.lost_samples.1 += vms * stats.rounds.len() as u64;

    match scenario.control {
        Control::Managed(manager) => {
            out.checkpoint_bytes.push(manager.checkpoint_bytes() as f64);
        }
        Control::Bare(_) if !drill => {}
        Control::Bare(controller) => {
            // `Experiment::run` seals nothing; the image a seal at the
            // end of the run would write is this workload's image size.
            let rounds = stats.rounds.len() as u64;
            out.checkpoint_bytes
                .push(Checkpoint::write(&controller, rounds).len() as f64);
            if let Some(shadow) = shadow.as_mut() {
                tracer.next_round();
                let open = tracer.enter("shadow.seal");
                shadow.seal_path(tracer, &controller);
                tracer.exit(open);
            }
        }
    }
}

/// Builds one scenario on the set-up clock.
fn set_up(clock: &mut Clock, build: impl FnOnce() -> Scenario) -> Scenario {
    if clock.is_due() {
        clock.calibrate();
    }
    clock.resume();
    let scenario = build();
    clock.pause();
    scenario
}

/// Set-up alone, for extra `setup_s` samples: builds everything a pass
/// of `workload` builds, and drops it. Returns the scaled seconds.
pub fn setup_only(workload: Workload, seed: u64, workers: usize) -> f64 {
    let mut clock = Clock::new();
    if let Some(shape) = workload.fleet_shape() {
        drop(set_up(&mut clock, || {
            Scenario::fleet(&shape, seed, workers)
        }));
    } else {
        for cell in matrix_cells() {
            let spec = paper_spec(cell, workers);
            for run_seed in seed..seed + MATRIX_SEEDS {
                drop(set_up(&mut clock, || Scenario::paper(&spec, run_seed)));
            }
        }
    }
    clock.scaled_s()
}

/// Runs one pass of `workload` for `seed` with the controller pinned to
/// `workers`. A recording `tracer` also turns the shadows on.
pub fn run_pass(workload: Workload, seed: u64, workers: usize, tracer: &mut Tracer) -> PassResult {
    let mut out = PassResult::default();
    let mut gathered = Gathered::default();
    let mut clock = Clock::new();
    let mut setup = Clock::new();
    let traced = tracer.enabled();
    let shadow_for = |s: &Scenario| {
        let journaled = matches!(s.control, Control::Managed(_));
        traced.then(|| Shadow::new(s.app.vms(), &s.config, journaled))
    };

    if let Some(shape) = workload.fleet_shape() {
        let mut scenario = set_up(&mut setup, || Scenario::fleet(&shape, seed, workers));
        let mut shadow = shadow_for(&scenario);
        let stats = drive(&mut scenario, tracer, shadow.as_mut(), &mut clock);
        // Per faulty shard: the fleet-wide flag saturates (fleet.rs).
        let faulty = shape.shards.div_ceil(shape.stride) as f64;
        if let Deployed::Fleet(fleet) = &scenario.app {
            out.prepare_violation_s
                .push(fleet.violated_shard_secs() as f64 / faulty);
        }
        out.unmanaged_violation_s
            .push(unmanaged_shard_secs(&shape, seed) as f64 / faulty);
        finish_run(
            scenario,
            stats,
            false,
            tracer,
            shadow,
            &mut gathered,
            &mut out,
        );
        if out.prepare_violation_s[0] >= out.unmanaged_violation_s[0] {
            out.lost_cells.push(workload.name().to_string());
        }
    } else {
        // Violated seconds per (app, fault) cell: (PREPARE, unmanaged).
        let mut by_cell: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        let mut off = Tracer::new(false);
        for cell in matrix_cells() {
            let spec = paper_spec(cell, workers);
            for run_seed in seed..seed + MATRIX_SEEDS {
                let mut scenario = set_up(&mut setup, || Scenario::paper(&spec, run_seed));
                // Image size, spans and shadows belong to the managed
                // scheme; the two baselines only set the quality bar.
                let managed = cell.scheme == Scheme::Prepare;
                let tracer = if managed { &mut *tracer } else { &mut off };
                let mut shadow = if managed { shadow_for(&scenario) } else { None };
                let stats = drive(&mut scenario, tracer, shadow.as_mut(), &mut clock);
                let violated = stats.eval_violated_secs as f64;
                let entry = by_cell
                    .entry(format!("{}/{}", cell.app.name(), cell.fault.name()))
                    .or_default();
                match cell.scheme {
                    Scheme::Prepare => {
                        out.prepare_violation_s.push(violated);
                        entry.0 += violated;
                    }
                    Scheme::NoIntervention => {
                        out.unmanaged_violation_s.push(violated);
                        entry.1 += violated;
                    }
                    Scheme::Reactive => {}
                }
                finish_run(
                    scenario,
                    stats,
                    managed,
                    tracer,
                    shadow,
                    &mut gathered,
                    &mut out,
                );
            }
        }
        out.lost_cells = by_cell
            .into_iter()
            .filter(|(_, (prepare, unmanaged))| prepare >= unmanaged)
            .map(|(cell, _)| cell)
            .collect();
    }
    out.setup_s = setup.scaled_s();
    out.digest = gathered.digest.finish();
    let ms_of = |keep: fn(RoundKind) -> bool| -> Vec<f64> {
        let kept = gathered.rounds.iter().filter(|r| keep(r.kind));
        kept.map(|r| r.ms).collect()
    };
    let with_models = ms_of(|kind| kind != RoundKind::Idle);
    out.rounds = gathered.rounds.len();
    out.model_rounds = with_models.len();
    out.model_round_ms = (
        percentile(&with_models, 50.0),
        percentile(&with_models, 95.0),
    );
    out.predict_round_ms_p50 = percentile(&ms_of(|kind| kind == RoundKind::Predict), 50.0);
    out
}
