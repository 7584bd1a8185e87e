//! Shadows: standalone layer objects fed the inputs the live control
//! round just consumed.
//!
//! The controller round is one opaque public call, so the traced run
//! attributes its time from the outside: after each live round the same
//! readings go through a benchmark-owned `FleetTrainer`, `CauseInference`,
//! predictors cloned from the live controller, a `Journal` and the
//! `Checkpoint` codec, each inside its own span. Nothing here touches
//! the live controller's state, so the traced run's digest equals the
//! untraced one.

use crate::trace::Tracer;
use prepare_anomaly::{AnomalyPredictor, FleetTrainer};
use prepare_core::{
    implication_score, CauseInference, Checkpoint, ControllerEvent, CrashImage, Journal,
    PrepareConfig, PrepareController, TickRecord,
};
use prepare_markov::TwoDependentMarkov;
use prepare_metrics::{
    Label, LastValueImputer, MetricSample, StampedSample, Timestamp, VectorDiscretizer, VmId,
    ATTRIBUTE_COUNT,
};
use prepare_tan::{Classifier, Dataset, TanClassifier};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Spans under the per-round `shadow` span that stand for work the live
/// round does not do — the restore after a seal, and the from-scratch
/// Table-I kernels (the live round derives its models from maintained
/// counts). Every other shadow span is subtracted from the live round to
/// get the controller's glue time.
pub const NOT_IN_LIVE_ROUND: [&str; 5] = [
    "core.recovery.restore",
    "anomaly.predictor.train",
    "metrics.discretize.fit",
    "markov.train",
    "tan.train",
];

/// The shadow layer objects of one simulated run.
#[derive(Debug)]
pub struct Shadow {
    vms: Vec<VmId>,
    config: PrepareConfig,
    trainer: FleetTrainer,
    inference: CauseInference,
    imputers: Vec<LastValueImputer>,
    predictors: BTreeMap<VmId, AnomalyPredictor>,
    /// Present when the live control entry journals its rounds.
    journal: Option<Journal>,
}

impl Shadow {
    /// Fresh shadows for a controller managing `vms` under `config`;
    /// `journaled` says whether the live entry is a `RecoveryManager`.
    pub fn new(vms: &[VmId], config: &PrepareConfig, journaled: bool) -> Self {
        let recency = config.predictor.sampling_interval.as_secs() * 3;
        Shadow {
            vms: vms.to_vec(),
            config: config.clone(),
            trainer: FleetTrainer::new(vms.len(), &config.predictor),
            inference: CauseInference::with_par(
                vms,
                config.workload_change_quorum,
                recency,
                config.par,
            ),
            imputers: vec![LastValueImputer::new(); vms.len()],
            predictors: BTreeMap::new(),
            journal: journaled.then(Journal::new),
        }
    }

    fn slot(&self, vm: VmId) -> Option<usize> {
        // Both applications and the fleet hand out ascending VM ids.
        self.vms.binary_search(&vm).ok()
    }

    /// The evidence the live round resolved from `readings`: in-budget
    /// arrivals re-timed to `now`, then held-last values for silent VMs —
    /// the same steps, in the same order, as the controller's ingest.
    fn usable(
        &mut self,
        now: Timestamp,
        readings: &[(VmId, StampedSample)],
    ) -> Vec<(usize, MetricSample)> {
        let mut usable = Vec::with_capacity(self.vms.len());
        let mut arrived = vec![false; self.vms.len()];
        for (vm, stamped) in readings {
            let Some(slot) = self.slot(*vm) else {
                continue;
            };
            arrived[slot] = true;
            self.imputers[slot].observe(stamped);
            if !self.config.staleness.is_exceeded(now, stamped) {
                usable.push((slot, MetricSample::new(now, stamped.sample.values)));
            }
        }
        for (slot, imputer) in self.imputers.iter().enumerate() {
            if arrived[slot] {
                continue;
            }
            if let Some(imputed) = imputer.impute(now) {
                if !self.config.staleness.is_exceeded(now, &imputed) {
                    usable.push((slot, imputed.sample));
                }
            }
        }
        usable
    }

    /// Replays one live round through the shadows. `events` are the
    /// round's events and `controller` is the live controller after it.
    pub fn after_round(
        &mut self,
        tracer: &mut Tracer,
        now: Timestamp,
        readings: &[(VmId, StampedSample)],
        slo_violated: bool,
        events: &[ControllerEvent],
        controller: &PrepareController,
    ) {
        let open = tracer.enter("shadow");
        let usable = self.usable(now, readings);
        let by_vm: Vec<(VmId, MetricSample)> = usable
            .iter()
            .map(|&(slot, s)| (self.vms[slot], s))
            .collect();
        tracer.count("cloudsim.monitor.expected", self.vms.len() as f64);
        tracer.count("cloudsim.monitor.arrived", readings.len() as f64);

        let label = Label::from_violation(slo_violated);
        tracer.span_n("anomaly.trainer.push", usable.len(), || {
            for (slot, sample) in &usable {
                self.trainer.push(*slot, &sample.values, label);
            }
        });
        tracer.span_n("core.inference.observe", by_vm.len(), || {
            self.inference.observe(&by_vm);
        });

        let trained: Vec<VmId> = events
            .iter()
            .filter_map(|e| match e {
                ControllerEvent::ModelsTrained { vms, .. } => Some(vms.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        if trained.is_empty() {
            self.predict_path(tracer, &by_vm);
        } else {
            self.train_path(tracer, &trained, controller);
        }

        if let Some(journal) = self.journal.as_mut() {
            let bytes = tracer.span("core.recovery.journal_append", || {
                // Replies stay empty: readings are over 99 % of a record.
                let record = TickRecord {
                    now,
                    readings: readings.to_vec(),
                    slo_violated,
                    replies: Vec::new(),
                };
                let before = journal.bytes();
                journal.append(&record);
                journal.barrier();
                journal.bytes() - before
            });
            tracer.count("core.recovery.journal_bytes", bytes as f64);
            tracer.count("core.recovery.journal_records", 1.0);
        }

        let sealed = events
            .iter()
            .any(|e| matches!(e, ControllerEvent::CheckpointTaken { .. }));
        if sealed {
            self.seal_path(tracer, controller);
            // The live journal was truncated by the seal; grow alike.
            if let Some(journal) = self.journal.as_mut() {
                journal.truncate();
            }
        }
        tracer.exit(open);
    }

    /// Steady rounds: stream the samples into the predictors and score
    /// every one at the controller's look-ahead.
    fn predict_path(&mut self, tracer: &mut Tracer, by_vm: &[(VmId, MetricSample)]) {
        if self.predictors.is_empty() {
            return;
        }
        let fed: Vec<&(VmId, MetricSample)> = by_vm
            .iter()
            .filter(|(vm, _)| self.predictors.contains_key(vm))
            .collect();
        tracer.span_n("anomaly.predictor.observe", fed.len(), || {
            for (vm, sample) in fed {
                if let Some(p) = self.predictors.get_mut(vm) {
                    p.observe(sample);
                }
            }
        });
        let horizon = [self.config.look_ahead];
        tracer.span_n("anomaly.predictor.predict", self.predictors.len(), || {
            for p in self.predictors.values() {
                black_box(p.predict_horizons(&horizon));
            }
        });
        tracer.count(
            "core.controller.predictor_vm_rounds",
            self.predictors.len() as f64,
        );
    }

    /// Train rounds: fault localization, refresh of dirty slots, derive,
    /// then the Table-I kernels on the first trained VM's live series.
    fn train_path(
        &mut self,
        tracer: &mut Tracer,
        trained: &[VmId],
        controller: &PrepareController,
    ) {
        let slo = controller.slo_log();
        tracer.span("core.inference.implicated", || {
            for &vm in &self.vms {
                if let Some(series) = controller.series(vm) {
                    black_box(implication_score(series, slo));
                }
            }
        });

        let dirty = (0..self.trainer.slots())
            .filter(|&s| self.trainer.is_dirty(s))
            .count();
        tracer.count("anomaly.trainer.dirty_slots", dirty as f64);
        tracer.count("anomaly.trainer.refreshes", 1.0);
        tracer.span("anomaly.trainer.refresh", || {
            self.trainer.refresh(&self.config.par);
        });
        let wanted: Vec<usize> = trained.iter().filter_map(|&vm| self.slot(vm)).collect();
        let hits = wanted
            .iter()
            .filter(|&&s| self.trainer.is_cached(s))
            .count();
        tracer.count("anomaly.trainer.derive_wanted", wanted.len() as f64);
        tracer.count("anomaly.trainer.derive_hits", hits as f64);
        tracer.span_n("anomaly.trainer.derive", wanted.len(), || {
            black_box(self.trainer.derive_cached_batch(&wanted, &self.config.par));
        });

        if let Some(series) = trained.first().and_then(|&vm| controller.series(vm)) {
            let bins = self.config.predictor.bins;
            tracer.span("anomaly.predictor.train", || {
                black_box(AnomalyPredictor::train(series, slo, &self.config.predictor).ok());
            });
            let discretizer = tracer.span("metrics.discretize.fit", || {
                VectorDiscretizer::fit(series, bins)
            });
            let mut dataset = Dataset::with_uniform_bins(ATTRIBUTE_COUNT, bins);
            let mut columns = vec![Vec::new(); ATTRIBUTE_COUNT];
            for s in series.iter() {
                let row = discretizer.discretize(&s.values);
                for (column, &bin) in columns.iter_mut().zip(&row) {
                    column.push(bin);
                }
                let label = Label::from_violation(slo.is_violated_at(s.time));
                dataset
                    .push(row, label)
                    .expect("rows come from a 13-attribute discretizer with these bins");
            }
            tracer.span_n("markov.train", ATTRIBUTE_COUNT, || {
                for column in &columns {
                    let mut model = TwoDependentMarkov::new(bins);
                    model.train(column);
                    black_box(model);
                }
            });
            tracer.span("tan.train", || {
                black_box(TanClassifier::train(&dataset).ok());
            });
        }

        // The live predictors have already seen this round's samples.
        self.predictors = self
            .vms
            .iter()
            .filter_map(|&vm| controller.predictor(vm).map(|p| (vm, p.clone())))
            .collect();
    }

    /// Seal rounds (and the end-of-run drill): both directions of the
    /// checkpoint codec on the live controller's state.
    pub fn seal_path(&mut self, tracer: &mut Tracer, controller: &PrepareController) {
        let image = tracer.span("core.recovery.seal", || Checkpoint::write(controller, 0));
        tracer.span("core.recovery.state_bytes", || {
            black_box(controller.core_state_bytes());
        });
        tracer.count("core.recovery.sealed_bytes", image.len() as f64);
        tracer.count("core.recovery.sealed_vms", self.vms.len() as f64);
        // Returned, so that dropping the restored controller is not timed.
        let restored = tracer.span("core.recovery.restore", || {
            Checkpoint::read(&image, self.config.par)
        });
        tracer.count("core.recovery.restored_bytes", image.len() as f64);
        drop(restored);
    }

    /// After a crash: the three steps of recovery, one span each, on the
    /// image the live recovery just consumed.
    pub fn after_crash(&mut self, tracer: &mut Tracer, image: &CrashImage) {
        let open = tracer.enter("shadow.recover");
        let restored = tracer.span("core.recovery.restore", || {
            Checkpoint::read(&image.checkpoint, self.config.par)
        });
        tracer.count(
            "core.recovery.restored_bytes",
            image.checkpoint.len() as f64,
        );
        let scan = tracer.span("core.recovery.scan", || Journal::scan(&image.journal));
        // A crash right after a seal leaves nothing to replay.
        if let (Ok((mut controller, _)), false) = (restored, scan.records.is_empty()) {
            tracer.span_n("core.recovery.replay", scan.records.len(), || {
                for r in &scan.records {
                    controller.on_readings_replay(r.now, &r.readings, r.slo_violated, &r.replies);
                }
            });
        }
        // The recovered manager re-journals what it replayed; the shadow
        // journal kept those records all along.
        tracer.exit(open);
    }
}
