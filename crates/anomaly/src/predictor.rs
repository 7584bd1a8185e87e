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
/// look-ahead predictions with
/// [`predict_horizons`](AnomalyPredictor::predict_horizons) (or its
/// one-horizon form, [`predict`](AnomalyPredictor::predict)).
/// Observation keeps refining the Markov transition statistics online
/// (the paper: "the attribute value prediction model is periodically
/// updated with new data measurements"); the classifier stays fixed until
/// the model is trained again.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyPredictor {
    config: PredictorConfig,
    discretizer: prepare_metrics::VectorDiscretizer,
    value_models: Vec<ValueModel>,
    classifier: TanClassifier,
    last_time: Option<Timestamp>,
}

impl Persist for PredictorConfig {
    fn store(&self, w: &mut Writer) {
        let Self {
            bins,
            sampling_interval,
            markov,
        } = self;
        w.put_usize(*bins);
        sampling_interval.store(w);
        markov.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(PredictorConfig {
            bins: r.get_usize()?,
            sampling_interval: Duration::load(r)?,
            markov: MarkovKind::load(r)?,
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
        let labeled: Vec<(prepare_metrics::MetricVector, Label)> = series
            .iter()
            .map(|s| (s.values, Label::from_violation(slo.is_violated_at(s.time))))
            .collect();
        Self::train_labeled(&labeled, config)
    }

    /// The labeled-rows training core every entry point funnels through:
    /// [`AnomalyPredictor::train`] resolves each sample's label from the
    /// SLO log and delegates here, and the fleet trainer hands over the
    /// `(vector, label)` window it labeled at ingest. Fitting the
    /// discretizer, discretizing the batch, building the TAN dataset, and
    /// training the per-attribute value models happen once, here, so the
    /// two produce bit-identical models. It runs on the calling thread:
    /// training rounds fan out per VM, not inside one model.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AnomalyPredictor::train`].
    pub fn train_labeled(
        labeled: &[(prepare_metrics::MetricVector, Label)],
        config: &PredictorConfig,
    ) -> Result<Self, TrainError> {
        if labeled.is_empty() {
            return Err(TrainError::EmptyDataset);
        }
        let discretizer = prepare_metrics::VectorDiscretizer::fit_vectors(
            labeled.iter().map(|(v, _)| v),
            config.bins,
        );
        let rows: Vec<_> = labeled
            .iter()
            .map(|(v, _)| discretizer.discretize(v))
            .collect();

        let mut dataset = Dataset::with_uniform_bins(ATTRIBUTE_COUNT, config.bins);
        for (row, (_, label)) in rows.iter().zip(labeled.iter()) {
            dataset
                .push(row.clone(), *label)
                .expect("discretized rows always match the dataset schema");
        }
        let classifier = TanClassifier::train(&dataset)?;

        let value_models = (0..ATTRIBUTE_COUNT)
            .map(|attr| {
                let mut m = ValueModel::new(config.markov, config.bins);
                for state in rows.iter().filter_map(|r| r.get(attr).copied()) {
                    m.observe(state);
                }
                m.reset_position();
                m
            })
            .collect();

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

    /// Serializes the trained state: the discretizer's ranges, each
    /// attribute's chain, the classifier and the stream anchor. The
    /// configuration is the owner's to supply on load, so no bin count,
    /// Markov kind or table length is written.
    pub fn store_state(&self, w: &mut Writer) {
        let Self {
            config: _, // supplied by PrepareConfig on load
            discretizer,
            value_models,
            classifier,
            last_time,
        } = self;
        discretizer.store_state(w);
        for m in value_models {
            m.store_state(w);
        }
        classifier.store_state(w);
        last_time.store(w);
    }

    /// Restores a predictor of shape `config` written by
    /// [`AnomalyPredictor::store_state`]. Every loader below reads exactly
    /// the number of values `config` implies.
    ///
    /// # Errors
    ///
    /// Any [`PersistError`] of the component loaders.
    ///
    /// # Panics
    ///
    /// Panics if `config.bins == 0`; a loaded `PrepareConfig` never
    /// carries one.
    pub fn load_state(r: &mut Reader<'_>, config: &PredictorConfig) -> Result<Self, PersistError> {
        let discretizer = prepare_metrics::VectorDiscretizer::load_state(r, config.bins)?;
        let value_models = (0..ATTRIBUTE_COUNT)
            .map(|_| ValueModel::load_state(r, config.markov, config.bins))
            .collect::<Result<_, _>>()?;
        let classifier = TanClassifier::load_state(r, &[config.bins; ATTRIBUTE_COUNT])?;
        Ok(AnomalyPredictor {
            config: config.clone(),
            discretizer,
            value_models,
            classifier,
            last_time: Persist::load(r)?,
        })
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
    /// most recently observed sample and classifies it:
    /// [`AnomalyPredictor::predict_horizons`] with one horizon.
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
        self.predict_horizons(&[look_ahead]).swap_remove(0)
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
        let mut restored = round_trip(&p, &cfg).unwrap();
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
            restored.predict(Duration::from_secs(25)),
            p.predict(Duration::from_secs(25))
        );
    }

    /// `p`'s state image, restored under `cfg`, with every byte consumed.
    fn round_trip(
        p: &AnomalyPredictor,
        cfg: &PredictorConfig,
    ) -> Result<AnomalyPredictor, PersistError> {
        let mut w = Writer::new();
        p.store_state(&mut w);
        let mut r = Reader::new(w.bytes());
        let back = AnomalyPredictor::load_state(&mut r, cfg)?;
        if r.is_exhausted() {
            Ok(back)
        } else {
            Err(PersistError::Invalid("trailing bytes"))
        }
    }

    /// The image holds no shape of its own: read under another bin count
    /// or Markov kind, it runs out of bytes or leaves some over, and a
    /// count block cut short is refused.
    #[test]
    fn load_state_refuses_an_image_of_another_shape() {
        let (series, slo) = ramp_fixture(300, 5, 40, 80.0);
        let cfg = PredictorConfig {
            bins: 4,
            ..PredictorConfig::default()
        };
        let p = AnomalyPredictor::train(&series, &slo, &cfg).unwrap();
        assert!(round_trip(&p, &cfg).is_ok());
        for other in [
            PredictorConfig {
                bins: 3,
                ..cfg.clone()
            },
            PredictorConfig {
                bins: 5,
                ..cfg.clone()
            },
            PredictorConfig {
                markov: MarkovKind::Simple,
                ..cfg.clone()
            },
        ] {
            assert!(round_trip(&p, &other).is_err(), "{other:?}");
        }
        let mut w = Writer::new();
        p.store_state(&mut w);
        // The first chain's count block starts after the discretizer's
        // ranges and the chain's alpha.
        let counts_at = ATTRIBUTE_COUNT * 16 + 8;
        let mut r = Reader::new(&w.bytes()[..counts_at + 8 * 4 * 4 * 4 - 3]);
        assert!(matches!(
            AnomalyPredictor::load_state(&mut r, &cfg),
            Err(PersistError::Truncated { .. })
        ));
    }

    /// A predictor image that loads is a predictor that runs. For both
    /// Markov kinds at 3 bins, every byte of a trained predictor's image
    /// has one bit flipped (bit `i % 8` of byte `i`); every image that
    /// still loads must then observe a continuation that climbs through
    /// the anomaly and predict every horizon after each sample without a
    /// panic. A changed float is a different valid model; a changed
    /// position, parent, bound or log-probability is either refused or
    /// harmless.
    #[test]
    fn every_single_bit_flip_is_refused_or_runs() {
        let (series, slo) = ramp_fixture(120, 5, 40, 60.0);
        let train_len = 80;
        let mut train_series = TimeSeries::new();
        let mut train_slo = SloLog::new();
        for s in series.iter().take(train_len) {
            train_series.push(*s);
            train_slo.record(s.time, slo.is_violated_at(s.time));
        }
        // Phases 22..27 of the third period: the CPU ramp crosses the
        // 60 % threshold at phase 25.
        let continuation: Vec<MetricSample> = series.iter().skip(102).take(6).copied().collect();
        let horizons = [0, 15, 30, 60].map(Duration::from_secs);
        for markov in [MarkovKind::Simple, MarkovKind::TwoDependent] {
            let cfg = PredictorConfig {
                bins: 3,
                markov,
                ..PredictorConfig::default()
            };
            let mut trained = AnomalyPredictor::train(&train_series, &train_slo, &cfg).unwrap();
            for s in series.iter().skip(train_len).take(20) {
                trained.observe(s);
            }
            let mut intact = trained.clone();
            let alerts = continuation
                .iter()
                .filter(|s| {
                    intact.observe(s);
                    intact.predict(Duration::ZERO).label.is_abnormal()
                })
                .count();
            assert!(
                alerts > 0,
                "{markov:?}: the continuation reaches the anomaly"
            );
            let mut w = Writer::new();
            trained.store_state(&mut w);
            let image = w.into_bytes();
            let mut loaded = 0;
            for i in 0..image.len() {
                let mut bad = image.clone();
                bad[i] ^= 1 << (i % 8);
                let Ok(mut p) = AnomalyPredictor::load_state(&mut Reader::new(&bad), &cfg) else {
                    continue;
                };
                loaded += 1;
                for s in &continuation {
                    p.observe(s);
                    let predictions = p.predict_horizons(&horizons);
                    assert_eq!(predictions.len(), horizons.len(), "{markov:?} byte {i}");
                }
            }
            assert!(
                loaded > 0 && loaded < image.len(),
                "{markov:?}: {loaded} of {} flips loaded",
                image.len()
            );
        }
    }
}
