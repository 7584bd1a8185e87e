//! The per-VM online anomaly predictor (paper §II-B): attribute value
//! prediction composed with TAN classification over the predicted values.

use crate::{ConfusionMatrix, MarkovKind, Prediction, ValueModel};
use prepare_markov::ValuePredictor;
use prepare_metrics::persist::{Persist, PersistError, Reader, Writer};
#[cfg(test)]
use prepare_metrics::AttributeKind;
use prepare_metrics::{
    Duration, Label, MetricSample, SloLog, TimeSeries, Timestamp, ATTRIBUTE_COUNT,
};
use prepare_tan::{Classifier, Dataset, TanClassifier, TrainError};

/// Tunables of the anomaly prediction model.
// xtask: checkpoint
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorConfig {
    /// Number of discretization bins per attribute (the paper's Fig. 2
    /// illustrates 3; we default to 10 for resolution).
    pub bins: usize,
    /// Monitoring sampling interval — 5 s in the paper's experiments, and
    /// the step size of the Markov models (Fig. 13 sweeps it).
    pub sampling_interval: Duration,
    /// Which Markov model predicts attribute values (Fig. 11 sweeps it).
    pub markov: MarkovKind,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            bins: 10,
            sampling_interval: Duration::from_secs(5),
            markov: MarkovKind::TwoDependent,
        }
    }
}

impl PredictorConfig {
    /// Number of Markov steps covering `look_ahead` at this sampling
    /// interval (rounded up; 0 when `look_ahead` is zero).
    pub fn steps_for(&self, look_ahead: Duration) -> usize {
        let interval = self.sampling_interval.as_secs().max(1);
        (look_ahead.as_secs() as usize).div_ceil(interval as usize)
    }
}

/// A trained per-VM anomaly predictor.
///
/// Train once on a labeled trace ([`AnomalyPredictor::train`]), then feed
/// live samples with [`observe`](AnomalyPredictor::observe) and ask for
/// look-ahead predictions with [`predict`](AnomalyPredictor::predict).
/// Observation keeps refining the Markov transition statistics online
/// (the paper: "the attribute value prediction model is periodically
/// updated with new data measurements"); the classifier stays fixed until
/// [`retrain_classifier`](AnomalyPredictor::retrain_classifier) is called.
// xtask: checkpoint
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyPredictor {
    config: PredictorConfig,
    discretizer: prepare_metrics::VectorDiscretizer,
    value_models: Vec<ValueModel>,
    classifier: TanClassifier,
    last_time: Option<Timestamp>,
}

/// Largest bin count a stored configuration may name. A restore sizes
/// `bins³` count tables per attribute from this one number, before any
/// other byte of the image can vouch for it; at 64 a single table is
/// already 2 MB, far past anything a training window could fill.
const MAX_STORED_BINS: usize = 64;

impl Persist for PredictorConfig {
    fn store(&self, w: &mut Writer) {
        w.put_usize(self.bins);
        self.sampling_interval.store(w);
        self.markov.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let bins = r.get_usize()?;
        let sampling_interval = Duration::load(r)?;
        let markov = MarkovKind::load(r)?;
        if bins == 0 || bins > MAX_STORED_BINS {
            return Err(PersistError::Invalid("PredictorConfig bins"));
        }
        Ok(PredictorConfig {
            bins,
            sampling_interval,
            markov,
        })
    }
}

impl Persist for AnomalyPredictor {
    fn store(&self, w: &mut Writer) {
        self.config.store(w);
        self.discretizer.store(w);
        self.value_models.store(w);
        self.classifier.store(w);
        self.last_time.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let config = PredictorConfig::load(r)?;
        let discretizer = prepare_metrics::VectorDiscretizer::load(r)?;
        let value_models: Vec<ValueModel> = Persist::load(r)?;
        let classifier = TanClassifier::load(r)?;
        let last_time: Option<Timestamp> = Persist::load(r)?;
        if value_models.len() != ATTRIBUTE_COUNT {
            return Err(PersistError::Invalid("AnomalyPredictor model arity"));
        }
        if value_models
            .iter()
            .any(|m| m.n_states() != config.bins || m.kind() != config.markov)
        {
            return Err(PersistError::Invalid(
                "AnomalyPredictor model/config mismatch",
            ));
        }
        Ok(AnomalyPredictor {
            config,
            discretizer,
            value_models,
            classifier,
            last_time,
        })
    }
}

impl AnomalyPredictor {
    /// Trains a predictor from a metric trace and the matching SLO log
    /// (automatic runtime labeling by timestamp, §II-B).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] when the trace is empty or the SLO log
    /// labels every sample identically (no anomaly has been seen yet — the
    /// supervised model cannot be built, exactly the paper's "recurrent
    /// anomalies only" restriction).
    pub fn train(
        series: &TimeSeries,
        slo: &SloLog,
        config: &PredictorConfig,
    ) -> Result<Self, TrainError> {
        Self::train_par(series, slo, config, &prepare_par::ParConfig::serial())
    }

    /// [`AnomalyPredictor::train`] with the model-build work sharded
    /// across the workers of `par`: the sample batch is discretized in
    /// parallel and each attribute's value model is fitted on its own
    /// worker. The trained model is bit-identical for every worker count
    /// (each attribute's statistics depend only on that attribute's
    /// discretized column, merged back in canonical attribute order).
    ///
    /// # Errors
    ///
    /// Same conditions as [`AnomalyPredictor::train`].
    pub fn train_par(
        series: &TimeSeries,
        slo: &SloLog,
        config: &PredictorConfig,
        par: &prepare_par::ParConfig,
    ) -> Result<Self, TrainError> {
        let labeled: Vec<(prepare_metrics::MetricVector, Label)> = series
            .iter()
            .map(|s| (s.values, Label::from_violation(slo.is_violated_at(s.time))))
            .collect();
        Self::train_labeled_par(&labeled, config, par)
    }

    /// The labeled-rows training core every entry point funnels through:
    /// [`AnomalyPredictor::train_par`] resolves each sample's label from
    /// the SLO log and delegates here, and the fleet trainer hands over the
    /// `(vector, label)` window it labeled at ingest. Fitting the
    /// discretizer, discretizing the batch, building the TAN dataset, and
    /// training the per-attribute value models happen once, here, so the
    /// two produce bit-identical models.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AnomalyPredictor::train`].
    pub fn train_labeled_par(
        labeled: &[(prepare_metrics::MetricVector, Label)],
        config: &PredictorConfig,
        par: &prepare_par::ParConfig,
    ) -> Result<Self, TrainError> {
        if labeled.is_empty() {
            return Err(TrainError::EmptyDataset);
        }
        let discretizer = prepare_metrics::VectorDiscretizer::fit_vectors(
            labeled.iter().map(|(v, _)| v),
            config.bins,
        );
        let vectors: Vec<&prepare_metrics::MetricVector> = labeled.iter().map(|(v, _)| v).collect();
        let rows = prepare_par::par_map(par, vectors, |v| discretizer.discretize(v));

        let mut dataset = Dataset::with_uniform_bins(ATTRIBUTE_COUNT, config.bins);
        for (row, (_, label)) in rows.iter().zip(labeled.iter()) {
            dataset
                .push(row.clone(), *label)
                .expect("discretized rows always match the dataset schema");
        }
        let classifier = TanClassifier::train(&dataset)?;

        let attrs: Vec<usize> = (0..ATTRIBUTE_COUNT).collect();
        let value_models = prepare_par::par_map(par, attrs, |attr| {
            let mut m = ValueModel::new(config.markov, config.bins);
            for state in rows.iter().filter_map(|r| r.get(attr).copied()) {
                m.observe(state);
            }
            m.reset_position();
            m
        });

        Ok(AnomalyPredictor {
            config: config.clone(),
            discretizer,
            value_models,
            classifier,
            last_time: None,
        })
    }

    /// The model's configuration.
    pub fn config(&self) -> &PredictorConfig {
        &self.config
    }

    /// The trained TAN classifier (exposed for cause-inference reporting).
    pub fn classifier(&self) -> &TanClassifier {
        &self.classifier
    }

    /// Feeds a live monitoring sample: updates every attribute's value
    /// model position and transition statistics.
    pub fn observe(&mut self, sample: &MetricSample) {
        let row = self.discretizer.discretize(&sample.values);
        for (m, &state) in self.value_models.iter_mut().zip(&row) {
            m.observe(state);
        }
        self.last_time = Some(sample.time);
    }

    /// Forgets the stream position (keeps all learned statistics), so the
    /// model can be re-anchored on a different trace.
    pub fn reset_position(&mut self) {
        for m in &mut self.value_models {
            m.reset_position();
        }
        self.last_time = None;
    }

    /// Predicts the system state `look_ahead` into the future from the
    /// most recently observed sample and classifies it.
    ///
    /// Two summaries of each attribute's predicted distribution are
    /// classified and the more anomalous verdict wins:
    ///
    /// - the **expected state** (rounded) tracks gradual trends — a
    ///   draining memory pool or a climbing load ramp that the mode
    ///   understates while self-transitions dominate;
    /// - the **most likely state** preserves categorical plateaus — a
    ///   pinned CPU stays in its top bin, where averaging with the
    ///   post-anomaly recovery the chain has also seen would land on a
    ///   middle bin no training sample ever occupied.
    pub fn predict(&self, look_ahead: Duration) -> Prediction {
        let steps = self.config.steps_for(look_ahead);
        let dists: Vec<_> = self.value_models.iter().map(|m| m.predict(steps)).collect();
        self.classify_dists(look_ahead, dists.iter())
    }

    /// Classifies one horizon's per-attribute predicted distributions:
    /// summarizes each into the expected/modal candidate vectors, scores
    /// each candidate exactly once, then runs one full
    /// [`TanClassifier::evaluate`] pass on the winner (score, probability,
    /// and ranked strengths from a single set of attribute strengths).
    fn classify_dists<'a>(
        &self,
        look_ahead: Duration,
        dists: impl Iterator<Item = &'a prepare_markov::StateDistribution>,
    ) -> Prediction {
        let bins = self.config.bins;
        let mut expected = Vec::with_capacity(ATTRIBUTE_COUNT);
        let mut modal = Vec::with_capacity(ATTRIBUTE_COUNT);
        for d in dists {
            expected.push(d.expected_bin(bins));
            modal.push(d.most_likely());
        }
        let predicted_states = if self.classifier.score(&expected) >= self.classifier.score(&modal)
        {
            expected
        } else {
            modal
        };
        let verdict = self.classifier.evaluate(&predicted_states);
        Prediction {
            at: self.last_time.unwrap_or(Timestamp::ZERO),
            look_ahead,
            label: Label::from_violation(verdict.score > 0.0),
            score: verdict.score,
            probability: verdict.probability,
            strengths: verdict.ranked,
            predicted_states,
        }
    }

    /// Predictions for several horizons at once — Table I's prediction
    /// step "includes ... generating predicted class labels for different
    /// look-ahead windows". The nearest horizon that classifies abnormal
    /// tells the actuator how much lead time it actually has.
    ///
    /// One Markov propagation pass per attribute serves *all* horizons
    /// (each horizon's marginal is emitted as the iteration passes its
    /// step count — see [`ValuePredictor::predict_multi`]), instead of
    /// restarting from step 0 per horizon.
    pub fn predict_horizons(&self, horizons: &[Duration]) -> Vec<Prediction> {
        let steps: Vec<usize> = horizons.iter().map(|&h| self.config.steps_for(h)).collect();
        let per_model: Vec<_> = self
            .value_models
            .iter()
            .map(|m| m.predict_multi(&steps))
            .collect();
        horizons
            .iter()
            .enumerate()
            .map(|(k, &h)| self.classify_dists(h, per_model.iter().map(|dists| &dists[k])))
            .collect()
    }

    /// The pre-snapshot per-horizon prediction path, kept verbatim (naive
    /// Markov propagation restarted from step 0 for every horizon, one
    /// classifier pass per summary) as the bit-identity referee of
    /// `snapshot_horizons_are_bit_identical_to_reference`.
    #[cfg(test)]
    pub fn predict_horizons_reference(&self, horizons: &[Duration]) -> Vec<Prediction> {
        horizons
            .iter()
            .map(|&h| {
                let steps = self.config.steps_for(h);
                let bins = self.config.bins;
                let dists: Vec<_> = self
                    .value_models
                    .iter()
                    .map(|m| m.predict_reference(steps))
                    .collect();
                let expected: Vec<usize> = dists.iter().map(|d| d.expected_bin(bins)).collect();
                let modal: Vec<usize> = dists.iter().map(|d| d.most_likely()).collect();
                let predicted_states =
                    if self.classifier.score(&expected) >= self.classifier.score(&modal) {
                        expected
                    } else {
                        modal
                    };
                let score = self.classifier.score(&predicted_states);
                let label = Label::from_violation(score > 0.0);
                let strengths = self.classifier.ranked_strengths(&predicted_states);
                Prediction {
                    at: self.last_time.unwrap_or(Timestamp::ZERO),
                    look_ahead: h,
                    label,
                    score,
                    probability: self.classifier.abnormal_probability(&predicted_states),
                    strengths,
                    predicted_states,
                }
            })
            .collect()
    }

    /// The shortest horizon (of those given) whose prediction is already
    /// abnormal, if any — the effective advance notice. Runs one
    /// [`AnomalyPredictor::predict_horizons`] pass over the sorted
    /// horizons instead of a fresh propagation per horizon.
    pub fn earliest_alert_horizon(&self, horizons: &[Duration]) -> Option<Duration> {
        let mut sorted: Vec<Duration> = horizons.to_vec();
        sorted.sort();
        self.predict_horizons(&sorted)
            .into_iter()
            .find(|p| p.is_alert())
            .map(|p| p.look_ahead)
    }

    /// Re-fits the TAN classifier on a fresh labeled trace while keeping
    /// the (continuously updated) value models — the periodic model update
    /// loop of a long-running deployment.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AnomalyPredictor::train`].
    pub fn retrain_classifier(
        &mut self,
        series: &TimeSeries,
        slo: &SloLog,
    ) -> Result<(), TrainError> {
        let retrained = AnomalyPredictor::train(series, slo, &self.config)?;
        self.classifier = retrained.classifier;
        self.discretizer = retrained.discretizer;
        Ok(())
    }

    /// Trace-driven accuracy evaluation (Figs. 10–13): replays `series`
    /// through a clone of this model and scores each look-ahead prediction
    /// against the true label from `slo` at the predicted time.
    ///
    /// Predictions whose target time lies beyond the end of the trace are
    /// not scored.
    pub fn evaluate_trace(
        &self,
        series: &TimeSeries,
        slo: &SloLog,
        look_ahead: Duration,
    ) -> ConfusionMatrix {
        let mut model = self.clone();
        model.reset_position();
        let mut matrix = ConfusionMatrix::new();
        let end = match series.last() {
            Some(s) => s.time,
            None => return matrix,
        };
        for s in series.iter() {
            model.observe(s);
            let target = s.time + look_ahead;
            if target > end {
                continue;
            }
            let predicted = model.predict(look_ahead).label;
            let truth = Label::from_violation(slo.is_violated_at(target));
            matrix.record(predicted, truth);
        }
        matrix
    }
}

/// Builds a synthetic (series, log) pair for tests and doc examples:
/// a CPU ramp whose SLO breaks above a threshold.
#[cfg(test)]
pub(crate) fn ramp_fixture(
    samples: usize,
    interval: u64,
    period: u64,
    threshold: f64,
) -> (TimeSeries, SloLog) {
    let mut series = TimeSeries::new();
    let mut slo = SloLog::new();
    for i in 0..samples as u64 {
        let t = Timestamp::from_secs(i * interval);
        let phase = i % period;
        let cpu = (phase as f64 / period as f64) * 100.0;
        let v = prepare_metrics::MetricVector::from_fn(|a| match a {
            AttributeKind::CpuTotal => cpu,
            AttributeKind::CpuUser => cpu * 0.7,
            AttributeKind::CpuSystem => cpu * 0.3,
            AttributeKind::Load1 => cpu / 25.0,
            AttributeKind::FreeMem => 2048.0 - cpu,
            _ => 10.0,
        });
        series.push(MetricSample::new(t, v));
        slo.record(t, cpu > threshold);
    }
    (series, slo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trains_and_predicts_on_ramp() {
        let (series, slo) = ramp_fixture(400, 5, 40, 80.0);
        let cfg = PredictorConfig::default();
        let mut p = AnomalyPredictor::train(&series, &slo, &cfg).unwrap();
        // Anchor midway up a ramp, close to violation.
        for s in series.iter().take(38) {
            p.observe(s);
        }
        let pred = p.predict(Duration::from_secs(10));
        assert!(pred.score.is_finite());
        assert_eq!(pred.predicted_states.len(), ATTRIBUTE_COUNT);
    }

    #[test]
    fn predicts_anomaly_before_it_happens() {
        // Deterministic ramp: the model must alert with a look-ahead while
        // the current state is still normal.
        let (series, slo) = ramp_fixture(800, 5, 40, 80.0);
        let cfg = PredictorConfig::default();
        let p = AnomalyPredictor::train(&series, &slo, &cfg).unwrap();
        let m = p.evaluate_trace(&series, &slo, Duration::from_secs(25));
        assert!(
            m.true_positive_rate() > 0.6,
            "A_T too low on deterministic ramp: {m}"
        );
        assert!(m.false_alarm_rate() < 0.3, "A_F too high: {m}");
    }

    #[test]
    fn parallel_training_is_bit_identical_to_sequential() {
        let (series, slo) = ramp_fixture(400, 5, 40, 80.0);
        let cfg = PredictorConfig::default();
        let baseline = AnomalyPredictor::train(&series, &slo, &cfg).unwrap();
        let baseline_pred = baseline.predict(Duration::from_secs(25));
        for workers in [1usize, 2, 7] {
            let par = prepare_par::ParConfig::with_workers(workers);
            let p = AnomalyPredictor::train_par(&series, &slo, &cfg, &par).unwrap();
            assert_eq!(p, baseline, "trained model diverged at workers={workers}");
            let pred = p.predict(Duration::from_secs(25));
            assert_eq!(pred, baseline_pred);
            // The streaming fingerprint is the audit identity the bench
            // uses in place of Debug strings; it must agree too.
            assert_eq!(
                pred.fingerprint(),
                baseline_pred.fingerprint(),
                "prediction fingerprint diverged at workers={workers}"
            );
        }
    }

    #[test]
    fn empty_series_is_error() {
        let cfg = PredictorConfig::default();
        let err = AnomalyPredictor::train(&TimeSeries::new(), &SloLog::new(), &cfg);
        assert!(matches!(err, Err(TrainError::EmptyDataset)));
    }

    #[test]
    fn all_normal_trace_is_single_class_error() {
        let (series, _) = ramp_fixture(100, 5, 40, 80.0);
        let slo = SloLog::new(); // never violated → single class
        let cfg = PredictorConfig::default();
        let mut quiet = SloLog::new();
        for s in series.iter() {
            quiet.record(s.time, false);
        }
        assert!(matches!(
            AnomalyPredictor::train(&series, &slo, &cfg),
            Err(TrainError::SingleClass(Label::Normal))
        ));
        assert!(matches!(
            AnomalyPredictor::train(&series, &quiet, &cfg),
            Err(TrainError::SingleClass(Label::Normal))
        ));
    }

    #[test]
    fn steps_for_rounds_up() {
        let cfg = PredictorConfig::default(); // 5 s interval
        assert_eq!(cfg.steps_for(Duration::ZERO), 0);
        assert_eq!(cfg.steps_for(Duration::from_secs(5)), 1);
        assert_eq!(cfg.steps_for(Duration::from_secs(12)), 3);
        assert_eq!(cfg.steps_for(Duration::from_secs(45)), 9);
    }

    #[test]
    fn larger_look_ahead_degrades_accuracy_gracefully() {
        let (series, slo) = ramp_fixture(600, 5, 40, 80.0);
        let cfg = PredictorConfig::default();
        let p = AnomalyPredictor::train(&series, &slo, &cfg).unwrap();
        let near = p.evaluate_trace(&series, &slo, Duration::from_secs(5));
        let far = p.evaluate_trace(&series, &slo, Duration::from_secs(45));
        // Both must remain valid rates; near look-ahead should not be
        // (much) worse than far.
        assert!(near.true_positive_rate() + 0.15 >= far.true_positive_rate());
    }

    #[test]
    fn evaluate_trace_does_not_mutate_model() {
        let (series, slo) = ramp_fixture(300, 5, 40, 80.0);
        let cfg = PredictorConfig::default();
        let p = AnomalyPredictor::train(&series, &slo, &cfg).unwrap();
        let before = p.predict(Duration::from_secs(10));
        let _ = p.evaluate_trace(&series, &slo, Duration::from_secs(20));
        let after = p.predict(Duration::from_secs(10));
        assert_eq!(before, after);
    }

    #[test]
    fn horizon_batch_matches_individual_predictions() {
        let (series, slo) = ramp_fixture(400, 5, 40, 80.0);
        let cfg = PredictorConfig::default();
        let mut p = AnomalyPredictor::train(&series, &slo, &cfg).unwrap();
        for s in series.iter().take(30) {
            p.observe(s);
        }
        let horizons = [
            Duration::from_secs(5),
            Duration::from_secs(20),
            Duration::from_secs(45),
        ];
        let batch = p.predict_horizons(&horizons);
        assert_eq!(batch.len(), 3);
        for (pred, &h) in batch.iter().zip(&horizons) {
            assert_eq!(*pred, p.predict(h));
        }
        // earliest_alert_horizon agrees with the batch.
        let earliest = p.earliest_alert_horizon(&horizons);
        let expected = batch
            .iter()
            .find(|pr| pr.is_alert())
            .map(|pr| pr.look_ahead);
        assert_eq!(earliest, expected);
    }

    /// The per-tick loop the controller runs — one `observe`, then every
    /// horizon — agrees bit for bit with the naive per-horizon referee
    /// after every sample of a noisy 160-tick continuation, for both
    /// Markov kinds. The noise walks the chains into transitions the
    /// training ramp never showed, so unseen rows take the fallback path.
    #[test]
    fn snapshot_horizons_are_bit_identical_to_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (series, slo) = ramp_fixture(400, 5, 40, 80.0);
        let horizons = [0, 15, 30, 60].map(Duration::from_secs);
        for markov in [MarkovKind::Simple, MarkovKind::TwoDependent] {
            let cfg = PredictorConfig {
                markov,
                ..PredictorConfig::default()
            };
            let mut p = AnomalyPredictor::train(&series, &slo, &cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(42);
            for (i, s) in series.iter().take(160).enumerate() {
                let t = Timestamp::from_secs((400 + i as u64) * 5);
                let v = prepare_metrics::MetricVector::from_fn(|a| {
                    s.values[a] + rng.gen_range(-15.0..15.0)
                });
                p.observe(&MetricSample::new(t, v));
                assert_eq!(
                    p.predict_horizons(&horizons),
                    p.predict_horizons_reference(&horizons),
                    "{markov:?} tick {i}"
                );
            }
        }
    }

    /// A restored predictor continues its stream bit-identically: the
    /// anchor (`last_time` and every Markov position) survives, so the
    /// next observe/predict pair agrees exactly with the original.
    #[test]
    fn persist_round_trip_continues_stream_bit_identically() {
        let (series, slo) = ramp_fixture(400, 5, 40, 80.0);
        let cfg = PredictorConfig::default();
        let mut p = AnomalyPredictor::train(&series, &slo, &cfg).unwrap();
        for s in series.iter().take(38) {
            p.observe(s);
        }
        let bytes = prepare_metrics::persist::to_bytes(&p);
        let mut restored: AnomalyPredictor = prepare_metrics::persist::from_bytes(&bytes).unwrap();
        assert_eq!(restored, p);
        let horizons = [Duration::from_secs(5), Duration::from_secs(25)];
        assert_eq!(
            restored.predict_horizons(&horizons),
            p.predict_horizons(&horizons)
        );
        for s in series.iter().skip(38).take(20) {
            restored.observe(s);
            p.observe(s);
        }
        assert_eq!(restored, p);
        assert_eq!(
            restored.predict(Duration::from_secs(25)).fingerprint(),
            p.predict(Duration::from_secs(25)).fingerprint()
        );
    }

    #[test]
    fn persist_load_rejects_model_config_mismatch() {
        let (series, slo) = ramp_fixture(300, 5, 40, 80.0);
        let cfg = PredictorConfig::default();
        let p = AnomalyPredictor::train(&series, &slo, &cfg).unwrap();
        let mut bytes = prepare_metrics::persist::to_bytes(&p);
        // Corrupt the configured bin count: the value models no longer
        // match and the load must fail rather than mis-predict.
        bytes[..8].copy_from_slice(&7u64.to_le_bytes());
        assert!(prepare_metrics::persist::from_bytes::<AnomalyPredictor>(&bytes).is_err());
    }

    #[test]
    fn retrain_classifier_succeeds_on_fresh_trace() {
        let (series, slo) = ramp_fixture(300, 5, 40, 80.0);
        let cfg = PredictorConfig::default();
        let mut p = AnomalyPredictor::train(&series, &slo, &cfg).unwrap();
        let (series2, slo2) = ramp_fixture(500, 5, 50, 70.0);
        p.retrain_classifier(&series2, &slo2).unwrap();
    }
}
