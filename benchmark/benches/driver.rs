//! The one driver loop: `Application::step` per simulated second, and
//! every sampling interval `Monitor::sample` → optional
//! `ChaosEngine::deliver` → optional crash/recover → one control round.
//!
//! The loop reaches the program only through public functions and times
//! each round from the outside. For `paper_matrix` it is a spelled-out
//! mirror of `Experiment::run` (same calls, same RNG draw order), so
//! that rounds can be timed; `tests/mirror.rs` holds the two against
//! each other.

use crate::clock::Clock;
use crate::fleet::{ShardFleet, SHARD_RATE};
use crate::shadow::Shadow;
use crate::trace::Tracer;
use crate::workloads::{storm_plan, Cell, FleetShape};
use prepare_apps::{Application, FaultKind, FaultPlan, Rubis, SystemS, Workload as ClientLoad};
use prepare_cloudsim::{ChaosEngine, Cluster, Monitor};
use prepare_core::{
    AppKind, ControllerEvent, ExperimentSpec, FaultChoice, PrepareConfig, PrepareController,
    RecoveryManager, Scheme,
};
use prepare_metrics::{Duration, MetricSample, StampedSample, Timestamp, VmId};
use prepare_par::ParConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The sampling interval: a round that takes longer missed its deadline.
pub const DEADLINE_MS: f64 = 5000.0;

/// The top-level control entry a workload drives.
#[derive(Debug)]
pub enum Control {
    /// `PrepareController::on_readings`, as `Experiment::run` calls it.
    Bare(PrepareController),
    /// `RecoveryManager::tick`: the round plus journal and periodic seal.
    Managed(RecoveryManager),
}

impl Control {
    /// The controller behind the entry.
    pub fn controller(&self) -> &PrepareController {
        match self {
            Control::Bare(controller) => controller,
            Control::Managed(manager) => manager.controller(),
        }
    }

    fn round(
        &mut self,
        now: Timestamp,
        readings: &[(VmId, StampedSample)],
        slo_violated: bool,
        cluster: &mut Cluster,
    ) -> Vec<ControllerEvent> {
        match self {
            Control::Bare(controller) => {
                controller.on_readings(now, readings, slo_violated, cluster)
            }
            Control::Managed(manager) => manager.tick(now, readings, slo_violated, cluster),
        }
    }
}

/// The application a scenario deploys.
pub enum Deployed {
    /// One of the paper's two case studies.
    Paper(Box<dyn Application>),
    /// The benchmark's fleet, kept by type for its per-shard SLO count.
    Fleet(ShardFleet),
}

impl Deployed {
    /// The application behind either variant.
    pub fn app(&mut self) -> &mut dyn Application {
        match self {
            Deployed::Paper(app) => app.as_mut(),
            Deployed::Fleet(fleet) => fleet,
        }
    }

    /// The managed VMs, in component order.
    pub fn vms(&self) -> &[VmId] {
        match self {
            Deployed::Paper(app) => app.vms(),
            Deployed::Fleet(fleet) => fleet.vms(),
        }
    }
}

/// Everything one simulated run is made of, after set-up.
pub struct Scenario {
    /// The simulated cluster.
    pub cluster: Cluster,
    /// The deployed application.
    pub app: Deployed,
    /// Application-fault schedule.
    pub faults: FaultPlan,
    /// Client workload.
    pub load: ClientLoad,
    /// The run's one RNG (fault target, workload jitter, monitor noise).
    pub rng: StdRng,
    /// The out-of-band monitor.
    pub monitor: Monitor,
    /// Infrastructure chaos, when the workload has a plan.
    pub chaos: Option<ChaosEngine>,
    /// The control entry under test.
    pub control: Control,
    /// The controller's configuration (what shadows are built from).
    pub config: PrepareConfig,
    /// Simulated seconds to run.
    pub duration_secs: u64,
    /// Whether the scheme predicts (PREPARE): only then are rounds with
    /// models in place predict rounds.
    pub predictive: bool,
    /// Violations from this second on count as the evaluated window.
    pub eval_from_secs: u64,
    /// Crash and recover the controller before every such round.
    pub crash_every: Option<u64>,
    /// Seal interval handed to `RecoveryManager::recover`.
    pub checkpoint_every: u64,
}

/// The configuration every run pins: the benchmark, not the environment,
/// chooses the worker count and the training path.
pub fn pinned_config(workers: usize) -> PrepareConfig {
    PrepareConfig {
        online_training: true,
        ..PrepareConfig::default()
    }
    .with_workers(workers)
}

/// `ExperimentSpec::paper_default` for `cell` under [`pinned_config`].
pub fn paper_spec(cell: Cell, workers: usize) -> ExperimentSpec {
    let mut spec = ExperimentSpec::paper_default(cell.app, cell.fault, cell.scheme);
    spec.config = pinned_config(workers);
    spec
}

// `Experiment::build_fault_plan`, which is private.
fn paper_fault_plan(spec: &ExperimentSpec, app: &dyn Application, rng: &mut StdRng) -> FaultPlan {
    let kind = match spec.fault {
        FaultChoice::MemLeak => FaultKind::MemLeak {
            rate_mb_per_sec: 2.0,
        },
        FaultChoice::CpuHog => FaultKind::CpuHog { cpu: 85.0 },
        FaultChoice::Bottleneck => FaultKind::WorkloadRamp {
            peak_multiplier: match spec.app {
                AppKind::SystemS => 1.8,
                AppKind::Rubis => 2.5,
            },
        },
        FaultChoice::Contention => FaultKind::NeighborInterference { host_cpu: 175.0 },
    };
    let target = match (spec.fault, spec.app) {
        (FaultChoice::Bottleneck, _) => None,
        (_, AppKind::SystemS) => {
            let vms = app.vms();
            Some(vms[rng.gen_range(0..vms.len())])
        }
        (_, AppKind::Rubis) => Some(app.bottleneck_vm()),
    };
    FaultPlan::recurrent(
        target,
        kind,
        spec.first_injection,
        spec.second_injection,
        spec.injection_duration,
    )
}

// `Experiment::build_workload`, which is private.
fn paper_load(spec: &ExperimentSpec) -> ClientLoad {
    match (spec.app, spec.fault) {
        (AppKind::SystemS, _) => ClientLoad::Constant {
            rate: SystemS::NOMINAL_RATE,
        },
        (AppKind::Rubis, FaultChoice::Bottleneck) => ClientLoad::Constant {
            rate: Rubis::NOMINAL_RATE,
        },
        (AppKind::Rubis, _) => ClientLoad::Nasa {
            mean_rate: Rubis::NOMINAL_RATE,
            day_secs: spec
                .second_injection
                .since(spec.first_injection)
                .as_secs()
                .max(1),
            jitter: 0.05,
        },
    }
}

impl Scenario {
    /// Sets up one paper experiment exactly as `Experiment::run` does.
    /// The matrix has no contention fault, so the loop's
    /// neighbor-interference step has nothing to do and is left out.
    pub fn paper(spec: &ExperimentSpec, seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cluster = Cluster::new();
        let app: Box<dyn Application> = match spec.app {
            AppKind::SystemS => {
                Box::new(SystemS::deploy(&mut cluster).expect("fresh hosts fit the PEs"))
            }
            AppKind::Rubis => {
                Box::new(Rubis::deploy(&mut cluster).expect("fresh hosts fit the tiers"))
            }
        };
        let faults = paper_fault_plan(spec, app.as_ref(), &mut rng);
        let controller =
            PrepareController::new(app.vms().to_vec(), spec.config.clone(), spec.scheme);
        Scenario {
            cluster,
            app: Deployed::Paper(app),
            faults,
            load: paper_load(spec),
            rng,
            monitor: Monitor::new(spec.monitor_noise),
            chaos: spec.chaos.clone().map(ChaosEngine::new),
            control: Control::Bare(controller),
            config: spec.config.clone(),
            duration_secs: spec.duration.as_secs(),
            predictive: spec.scheme == Scheme::Prepare,
            eval_from_secs: spec.second_injection.as_secs(),
            crash_every: None,
            checkpoint_every: u64::MAX,
        }
    }

    /// Sets up one `ShardFleet` run under a `RecoveryManager` (which
    /// seals its initial image here, as part of set-up).
    pub fn fleet(shape: &FleetShape, seed: u64, workers: usize) -> Scenario {
        let mut cluster = Cluster::new();
        let fleet = ShardFleet::deploy(&mut cluster, shape.shards, shape.stride, seed)
            .expect("fresh hosts fit one shard each");
        let faults = fleet.fault_plan(shape.duration_secs);
        let config = PrepareConfig {
            retrain_interval: shape.retrain_interval.map(Duration::from_secs),
            ..pinned_config(workers)
        };
        let controller =
            PrepareController::new(fleet.vms().to_vec(), config.clone(), Scheme::Prepare);
        Scenario {
            cluster,
            app: Deployed::Fleet(fleet),
            faults,
            load: ClientLoad::Constant { rate: SHARD_RATE },
            rng: StdRng::seed_from_u64(seed),
            monitor: Monitor::new(0.02),
            chaos: shape
                .storm
                .then(|| ChaosEngine::new(storm_plan(seed, shape.duration_secs))),
            control: Control::Managed(RecoveryManager::new(controller, shape.checkpoint_every)),
            config,
            duration_secs: shape.duration_secs,
            predictive: true,
            eval_from_secs: 0,
            crash_every: shape.crash_every,
            checkpoint_every: shape.checkpoint_every,
        }
    }

    /// Worker configuration of the controller.
    pub fn par(&self) -> ParConfig {
        self.config.par
    }
}

/// What a round did, from the outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundKind {
    /// No models yet, or a scheme that does not predict: ingest only
    /// (plus, under the reactive baseline, its reaction to a violation).
    Idle,
    /// Models exist under PREPARE: ingest, predict, and whatever
    /// prevention followed.
    Predict,
    /// The round (re)trained models.
    Train,
}

impl RoundKind {
    fn span_name(self) -> &'static str {
        match self {
            RoundKind::Idle => "core.controller.round.idle",
            RoundKind::Predict => "core.controller.round.predict",
            RoundKind::Train => "core.controller.round.train",
        }
    }
}

/// One timed control round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSample {
    /// Scaled time of the control entry, milliseconds.
    pub ms: f64,
    /// What the round did.
    pub kind: RoundKind,
}

/// What the timed loop measured.
#[derive(Debug, Clone, Default)]
pub struct LoopStats {
    /// Every control round, in order.
    pub rounds: Vec<RoundSample>,
    /// Scaled time of every crash-image + recover, milliseconds.
    pub recover_ms: Vec<f64>,
    /// Recoveries whose model fingerprint differs from the pre-crash one.
    pub recover_mismatches: u64,
    /// Scaled seconds of the timed loop, the benchmark's own checks and
    /// shadows excluded.
    pub loop_s: f64,
    /// Simulated seconds with the SLO violated, whole run.
    pub violated_secs: u64,
    /// Simulated seconds with the SLO violated from `eval_from_secs` on.
    pub eval_violated_secs: u64,
}

/// Crashes the controller and recovers it from its durable image, timing
/// what a restart pays; the fingerprint check and the drop of the dead
/// manager are the benchmark's own work and run while the clock pauses.
fn crash_and_recover(
    scenario: &mut Scenario,
    now: Timestamp,
    tracer: &mut Tracer,
    shadow: Option<&mut Shadow>,
    stats: &mut LoopStats,
    clock: &mut Clock,
) {
    let (checkpoint_every, par) = (scenario.checkpoint_every, scenario.par());
    let Control::Managed(manager) = &mut scenario.control else {
        return;
    };
    clock.pause();
    let before = tracer.span("bench.check", || manager.controller().model_fingerprint());
    clock.resume();

    let started = Instant::now();
    let image = tracer.span("core.recovery.crash_image", || manager.crash_image());
    let recovered = tracer
        .span("core.recovery.recover", || {
            RecoveryManager::recover(&image, checkpoint_every, par, now)
        })
        .expect("the image was sealed by this process");
    stats.recover_ms.push(clock.scaled_ms(started.elapsed()));

    clock.pause();
    tracer.span("bench.check", || {
        if recovered.controller().model_fingerprint() != before {
            stats.recover_mismatches += 1;
        }
    });
    if let Some(shadow) = shadow {
        shadow.after_crash(tracer, &image);
    }
    tracer.span("bench.check", || *manager = recovered);
    clock.resume();
}

/// Runs `scenario` to its end on `clock` (paused on entry and on return).
/// With a recording `tracer` every call into a layer gets a span; with a
/// `shadow` each live round is replayed through standalone layer objects
/// afterwards.
pub fn drive(
    scenario: &mut Scenario,
    tracer: &mut Tracer,
    mut shadow: Option<&mut Shadow>,
    clock: &mut Clock,
) -> LoopStats {
    let s = scenario;
    let sampling = s.config.predictor.sampling_interval.as_secs().max(1);
    let vms: Vec<VmId> = s.app.vms().to_vec();
    let mut stats = LoopStats::default();
    let mut open_round = None;
    let before_s = clock.scaled_s();
    clock.resume();

    for t in 0..s.duration_secs {
        let now = Timestamp::from_secs(t);
        // A round's span covers the simulated seconds since the previous
        // control round, the sampling, and the control round itself.
        if open_round.is_none() {
            tracer.next_round();
            open_round = Some(tracer.enter("loop.round"));
        }
        tracer.span("cloudsim.cluster.advance", || s.cluster.advance(now));
        if let Some(engine) = s.chaos.as_mut() {
            tracer.span("cloudsim.chaos.tick", || engine.tick(&mut s.cluster, now));
        }
        s.cluster.clear_background_loads();
        let rate = s.load.rate(now, &mut s.rng) * s.faults.workload_multiplier(now);
        let tick = tracer.span("apps.step", || {
            s.app.app().step(now, rate, &mut s.cluster, &s.faults)
        });
        if tick.slo_violated {
            stats.violated_secs += 1;
            if t >= s.eval_from_secs {
                stats.eval_violated_secs += 1;
            }
        }
        if t % sampling != 0 {
            continue;
        }

        // The monitor renders every VM's sample whether or not the
        // infrastructure then loses it: its noise stream must not depend
        // on the chaos plan.
        let samples: Vec<(VmId, MetricSample)> =
            tracer.span_n("cloudsim.monitor.sample", vms.len(), || {
                vms.iter()
                    .map(|&vm| (vm, s.monitor.sample(&s.cluster, vm, now, &mut s.rng)))
                    .collect()
            });
        let readings: Vec<(VmId, StampedSample)> = match s.chaos.as_mut() {
            Some(engine) => tracer.span_n("cloudsim.chaos.deliver", samples.len(), || {
                samples
                    .iter()
                    .filter_map(|&(vm, sample)| {
                        let host = s.cluster.vm(vm).host;
                        engine
                            .deliver(vm, host, sample, now)
                            .map(|stamped| (vm, stamped))
                    })
                    .collect()
            }),
            None => samples
                .iter()
                .map(|&(vm, sample)| (vm, StampedSample::fresh(sample)))
                .collect(),
        };

        let round = t / sampling;
        if s.crash_every
            .is_some_and(|n| round > 0 && round.is_multiple_of(n))
        {
            crash_and_recover(s, now, tracer, shadow.as_deref_mut(), &mut stats, clock);
        }

        let round_started = Instant::now();
        let open = tracer.enter("core.controller.round");
        let events = s
            .control
            .round(now, &readings, tick.slo_violated, &mut s.cluster);
        let ms = clock.scaled_ms(round_started.elapsed());
        let trained = events
            .iter()
            .any(|e| matches!(e, ControllerEvent::ModelsTrained { .. }));
        let kind = if trained {
            RoundKind::Train
        } else if s.predictive && s.control.controller().is_trained() {
            RoundKind::Predict
        } else {
            RoundKind::Idle
        };
        tracer.exit_as(open, kind.span_name());
        stats.rounds.push(RoundSample { ms, kind });

        if let Some(shadow) = shadow.as_deref_mut() {
            clock.pause();
            shadow.after_round(
                tracer,
                now,
                &readings,
                tick.slo_violated,
                &events,
                s.control.controller(),
            );
            clock.resume();
        }
        if clock.is_due() {
            tracer.span("bench.calibrate", || clock.calibrate());
            tracer.set_scale(clock.factor());
        }
        if let Some(open) = open_round.take() {
            tracer.exit(open);
        }
    }
    if let Some(open) = open_round {
        tracer.exit(open);
    }

    clock.pause();
    stats.loop_s = clock.scaled_s() - before_s;
    stats
}

/// Violated shard-seconds of the same fleet with nobody managing it. An
/// unmanaged controller never touches the cluster and the chaos plan
/// only attacks monitoring and actuation, so the simulation alone
/// decides the figure.
pub fn unmanaged_shard_secs(shape: &FleetShape, seed: u64) -> u64 {
    let mut cluster = Cluster::new();
    let mut fleet = ShardFleet::deploy(&mut cluster, shape.shards, shape.stride, seed)
        .expect("fresh hosts fit one shard each");
    let faults = fleet.fault_plan(shape.duration_secs);
    for t in 0..shape.duration_secs {
        let now = Timestamp::from_secs(t);
        cluster.advance(now);
        fleet.step(now, SHARD_RATE, &mut cluster, &faults);
    }
    fleet.violated_shard_secs()
}
